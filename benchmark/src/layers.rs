//! Turns a traced driver pass into the per-layer ledger: counts from
//! the results and tallies, times from the span aggregates, and the
//! share of the loop each layer (= crate) accounts for.

use std::path::Path;

use eps_harness::{ScenarioConfig, ScenarioResult};

use crate::driver::{drive, DriverRun, Tally};
use crate::metrics::Report;
use crate::span::{Name, Off, Recorder};
use crate::stats::{median, percentile_sorted};

/// Span trees kept in memory stop growing here (≈ 40 bytes each).
const KEEP_CAP: usize = 250_000;

/// Sums of one or more driver runs (a workload's cells).
#[derive(Default)]
pub struct DriverTotals {
    pub wall_s: f64,
    pub loop_s: f64,
    pub assemble_s: f64,
    pub tally: Tally,
    pub results: Vec<ScenarioResult>,
}

impl DriverTotals {
    pub fn add(&mut self, run: DriverRun) {
        self.wall_s += run.wall().as_secs_f64();
        self.loop_s += run.loop_wall.as_secs_f64();
        self.assemble_s += run.assemble.as_secs_f64();
        let t = run.tally;
        self.tally.events += t.events;
        self.tally.queue_peak = self.tally.queue_peak.max(t.queue_peak);
        self.tally.sends += t.sends;
        self.tally.link_drops += t.link_drops;
        self.tally.rounds += t.rounds;
        self.tally.idle_rounds += t.idle_rounds;
        self.tally.sink_calls += t.sink_calls;
        self.tally.delivery_delay_ns.extend(t.delivery_delay_ns);
        self.tally.wire.samples += t.wire.samples;
        self.tally.wire.bytes += t.wire.bytes;
        self.tally.wire.encode_ns += t.wire.encode_ns;
        self.tally.wire.decode_ns += t.wire.decode_ns;
        self.tally.wire.frame_ns += t.wire.frame_ns;
        self.results.push(run.result);
    }

    fn sum(&self, field: impl Fn(&ScenarioResult) -> u64) -> f64 {
        self.results.iter().map(field).sum::<u64>() as f64
    }

    /// Median virtual publish→delivery delay over every delivery, ms.
    pub fn delivery_p50_ms(&self) -> Option<f64> {
        let mut delays: Vec<f64> = self
            .tally
            .delivery_delay_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        if delays.is_empty() {
            return None;
        }
        delays.sort_by(f64::total_cmp);
        Some(percentile_sorted(&delays, 50.0))
    }
}

/// Protocol messages a run sent, every class.
pub fn messages(r: &ScenarioResult) -> u64 {
    r.event_msgs + r.gossip_msgs + r.requests + r.replies + r.subscription_msgs
}

/// Client deliveries a run intended and made. The result carries them
/// as a mean and a rate; both are exact ratios of these integers.
pub fn deliveries(r: &ScenarioResult) -> (u64, u64) {
    let intended = (r.receivers_per_event * r.events_published as f64).round();
    (
        intended as u64,
        (r.overall_delivery_rate * intended).round() as u64,
    )
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Drives `configs` once with spans off and once with spans on, fills
/// in the per-layer ledger and writes the kept spans to `trace_path`.
/// Returns the untraced pass.
pub fn trace_driver(
    report: &mut Report,
    workload: &str,
    configs: &[&ScenarioConfig],
    trace_path: &Path,
) -> DriverTotals {
    let mut untraced = DriverTotals::default();
    for config in configs {
        untraced.add(drive(config, &mut Off));
    }
    // Keep one span tree in k, k odd, sized so the kept spans fit.
    let spans_expected = (untraced.tally.events + untraced.tally.sends) * 2;
    let mut rec = Recorder::calibrated((spans_expected / KEEP_CAP as u64) | 1, KEEP_CAP);
    let mut traced = DriverTotals::default();
    for config in configs {
        traced.add(drive(config, &mut rec));
    }
    report_layers(report, &rec, &untraced, &traced);
    let total = |pass: &DriverTotals| pass.results.iter().map(messages).sum::<u64>();
    report.check(total(&traced) == total(&untraced), || {
        "tracing changed what the driver simulated".to_owned()
    });
    if let Err(e) = rec.write_json(trace_path, workload) {
        report.check(false, || format!("writing {}: {e}", trace_path.display()));
    }
    untraced
}

/// Fills in every per-layer metric a driver pass can supply.
fn report_layers(
    report: &mut Report,
    rec: &Recorder,
    untraced: &DriverTotals,
    traced: &DriverTotals,
) {
    let t = &traced.tally;
    let per_call = |name| rec.net_self_ns_per_call(name);
    let layer = |names: &[Name]| names.iter().map(|&n| rec.net_self_ns(n)).sum::<f64>();

    // The loop's own time: what the traced loop took, less what the
    // recording itself cost and less the benchmark's wire probing.
    let cost = rec.cost();
    let recording_ns = rec.span_count() as f64 * (cost.leaf_ns + cost.parent_ns);
    let probing_ns = rec.aggregate(Name::WireProbe).total_ns as f64;
    let loop_ns = (traced.loop_s * 1e9 - recording_ns - probing_ns).max(1.0);

    let sim = layer(&[Name::Pop, Name::Schedule]);
    let overlay = layer(&[Name::Send]);
    let pubsub = layer(&[Name::OnEvent, Name::OnSubscription, Name::Publish]);
    let gossip = layer(&[
        Name::GossipRound,
        Name::OnDigest,
        Name::OnRequest,
        Name::OnReply,
    ]);
    let metrics = layer(&[Name::Sink]);
    let attributed = sim + overlay + pubsub + gossip + metrics;

    report.set("sim.events", t.events as f64);
    report.set("sim.pop_ns", per_call(Name::Pop));
    report.set("sim.schedule_ns", per_call(Name::Schedule));
    report.set("sim.queue_peak", t.queue_peak as f64);
    report.set("sim.share", sim / loop_ns);

    report.set("overlay.send_ns", per_call(Name::Send));
    report.set("overlay.sends", t.sends as f64);
    report.set(
        "overlay.link_drop_share",
        ratio(t.link_drops as f64, t.sends as f64),
    );
    report.set("overlay.share", overlay / loop_ns);

    report.set(
        "pubsub.routing_entries",
        traced
            .results
            .first()
            .map_or(0.0, |r| r.routing_entries as f64),
    );
    report.set("pubsub.on_event_ns", per_call(Name::OnEvent));
    report.set("pubsub.publish_ns", per_call(Name::Publish));
    report.set("pubsub.event_msgs", traced.sum(|r| r.event_msgs));
    report.set(
        "pubsub.events_published",
        traced.sum(|r| r.events_published),
    );
    report.set("pubsub.share", pubsub / loop_ns);

    report.set("gossip.round_ns", per_call(Name::GossipRound));
    report.set("gossip.rounds", t.rounds as f64);
    report.set(
        "gossip.idle_round_share",
        ratio(t.idle_rounds as f64, t.rounds as f64),
    );
    report.set(
        "gossip.round_share",
        rec.net_self_ns(Name::GossipRound) / loop_ns,
    );
    report.set("gossip.on_digest_ns", per_call(Name::OnDigest));
    report.set("gossip.on_request_ns", per_call(Name::OnRequest));
    report.set("gossip.on_reply_ns", per_call(Name::OnReply));
    report.set("gossip.msgs", traced.sum(|r| r.gossip_msgs));
    report.set("gossip.requests", traced.sum(|r| r.requests));
    report.set("gossip.replies", traced.sum(|r| r.replies));
    report.set("gossip.recovered", traced.sum(|r| r.events_recovered));
    report.set(
        "gossip.useful_retransmit_share",
        ratio(
            traced.sum(|r| r.events_recovered),
            traced.sum(|r| r.events_retransmitted),
        ),
    );
    report.set("gossip.lost_evictions", traced.sum(|r| r.lost_evictions));
    report.set(
        "gossip.control_bits",
        traced.sum(ScenarioResult::recovery_control_bits),
    );
    let p95: Vec<f64> = traced
        .results
        .iter()
        .map(|r| r.recovery_latency_p95)
        .collect();
    report.set("gossip.recovery_p95_s", median(&p95));
    let wire = t.wire;
    let per_sample = |ns: u64| ratio(ns as f64, wire.samples as f64);
    report.set("gossip.codec_encode_ns", per_sample(wire.encode_ns));
    report.set("gossip.codec_decode_ns", per_sample(wire.decode_ns));
    report.set("gossip.codec_bytes_per_msg", per_sample(wire.bytes));
    report.set("net.frame_ns", per_sample(wire.frame_ns));
    report.set("gossip.share", gossip / loop_ns);

    report.set("metrics.sink_ns", per_call(Name::Sink));
    report.set("metrics.sink_calls", t.sink_calls as f64);
    report.set("metrics.assemble_s", traced.assemble_s);
    report.set("metrics.share", metrics / loop_ns);

    report.set("harness.driver_run_s", untraced.wall_s);
    report.set("harness.loop_s", untraced.loop_s);
    report.set(
        "harness.trace_overhead",
        ratio(traced.wall_s, untraced.wall_s),
    );
    report.set(
        "harness.unattributed_share",
        (1.0 - attributed / loop_ns).max(0.0),
    );
    report.set("harness.span_leaf_ns", cost.leaf_ns);
    report.set("harness.span_parent_ns", cost.parent_ns);
    report.set("harness.spans_kept", rec.kept().len() as f64);
    report.set("harness.keep_every", rec.keep_every() as f64);
}
