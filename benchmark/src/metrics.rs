//! The metric tables (`BENCHMARK.json` mirrors them; a unit test keeps
//! the two equal) and the report one run fills in and prints.

/// An end-to-end metric: what a user of the system sees. `bound` is
/// the share of the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these with `--trace 0`.
///
/// - `setup_s`: median time to build what a run starts from
///   (`build_population`, or `ReactorCluster::launch`).
/// - `run_s`: host wall seconds of one unit of work (one pass over the
///   simulated cells, or `ReactorCluster::finish`); median over units.
/// - `peak_rss_mb`: `VmHWM` of the measuring process after the timed
///   part.
/// - `cpu_us_per_msg`: process CPU (user + system) over the timed part
///   divided by the protocol messages it sent (simulated sends, or TCP
///   frames + UDP datagrams).
/// - `deliv_per_s`: client deliveries per host wall second.
/// - `deliv_p50_ms`: median delay from publish to client delivery on
///   the clock of the world under test (wall time on sockets, virtual
///   time in the simulator).
/// - `delivered_share`: client deliveries divided by the deliveries
///   the scheduled workload intends.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("run_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("cpu_us_per_msg", "us", "lower", 0.25),
    e2e("deliv_per_s", "1/s", "higher", 0.25),
    e2e("deliv_p50_ms", "ms", "lower", 0.25),
    e2e("delivered_share", "ratio", "higher", 0.08),
];

/// Per-layer metrics `(name, unit, better)`, printed with `--trace 1`.
/// A metric a workload has no source for reads 0.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    // eps-sim: the event queue.
    ("sim.events", "count", "lower"),
    ("sim.pop_ns", "ns", "lower"),
    ("sim.schedule_ns", "ns", "lower"),
    ("sim.queue_peak", "count", "lower"),
    ("sim.share", "ratio", "lower"),
    // eps-overlay: topology and link model.
    ("overlay.build_s", "s", "lower"),
    ("overlay.send_ns", "ns", "lower"),
    ("overlay.sends", "count", "lower"),
    ("overlay.link_drop_share", "ratio", "lower"),
    ("overlay.share", "ratio", "lower"),
    // eps-pubsub: dispatcher, tables, cache.
    ("pubsub.flood_s", "s", "lower"),
    ("pubsub.bytes_per_node", "B", "lower"),
    ("pubsub.routing_entries", "count", "lower"),
    ("pubsub.on_event_ns", "ns", "lower"),
    ("pubsub.publish_ns", "ns", "lower"),
    ("pubsub.event_msgs", "count", "lower"),
    ("pubsub.events_published", "count", "higher"),
    ("pubsub.share", "ratio", "lower"),
    // eps-gossip: recovery rounds, digests, codec.
    ("gossip.round_ns", "ns", "lower"),
    ("gossip.rounds", "count", "lower"),
    ("gossip.idle_round_share", "ratio", "lower"),
    ("gossip.round_share", "ratio", "lower"),
    ("gossip.on_digest_ns", "ns", "lower"),
    ("gossip.on_request_ns", "ns", "lower"),
    ("gossip.on_reply_ns", "ns", "lower"),
    ("gossip.msgs", "count", "lower"),
    ("gossip.requests", "count", "lower"),
    ("gossip.replies", "count", "lower"),
    ("gossip.recovered", "count", "higher"),
    ("gossip.useful_retransmit_share", "ratio", "higher"),
    ("gossip.lost_evictions", "count", "lower"),
    ("gossip.control_bits", "bit", "lower"),
    ("gossip.recovery_p95_s", "s", "lower"),
    ("gossip.codec_encode_ns", "ns", "lower"),
    ("gossip.codec_decode_ns", "ns", "lower"),
    ("gossip.codec_bytes_per_msg", "B", "lower"),
    ("gossip.share", "ratio", "lower"),
    // eps-metrics: the delivery sink.
    ("metrics.sink_ns", "ns", "lower"),
    ("metrics.sink_calls", "count", "lower"),
    ("metrics.assemble_s", "s", "lower"),
    ("metrics.share", "ratio", "lower"),
    // eps-harness: the runner around the layers, and the tracing itself.
    ("harness.driver_run_s", "s", "lower"),
    ("harness.loop_s", "s", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.runner_vs_driver", "ratio", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.windows", "count", "lower"),
    ("harness.span_leaf_ns", "ns", "lower"),
    ("harness.span_parent_ns", "ns", "lower"),
    ("harness.spans_kept", "count", "higher"),
    ("harness.keep_every", "count", "lower"),
    ("harness.driver_delivery_gap", "ratio", "lower"),
    ("harness.driver_msgs_gap", "ratio", "lower"),
    // eps-net: the reactor runtime, from its outside counters.
    ("net.boot_s", "s", "lower"),
    ("net.run_s", "s", "lower"),
    ("net.tail_s", "s", "lower"),
    ("net.cpu_user_s", "s", "lower"),
    ("net.cpu_sys_s", "s", "lower"),
    ("net.cpu_busy_share", "ratio", "lower"),
    ("net.ctx_switches", "count", "lower"),
    ("net.frames_sent", "count", "lower"),
    ("net.datagrams_sent", "count", "lower"),
    ("net.bytes_per_frame", "B", "lower"),
    ("net.frame_ns", "ns", "lower"),
    ("net.publish_shortfall", "ratio", "lower"),
    ("net.queue_drops", "count", "lower"),
    ("net.injected_drops", "count", "lower"),
    ("net.digest_truncations", "count", "lower"),
    ("net.connect_retries", "count", "lower"),
    ("net.decode_errors", "count", "lower"),
    ("net.deliv_p99_ms", "ms", "lower"),
    ("net.deliv_max_ms", "ms", "lower"),
    ("net.deliv_samples", "count", "higher"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric '{name}' is in neither table"))
        .1
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Simulated statistics, as exact text: they must repeat to the
    /// last digit for the same seed on the same commit.
    counts: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric of either table (the last value set wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        assert!(value.is_finite(), "metric '{name}' is not a finite number");
        self.values.retain(|&(n, _)| n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn count(&mut self, name: String, value: String) {
        self.counts.push((name, value));
    }

    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let failure = what();
            if !self.failures.contains(&failure) {
                self.failures.push(failure);
            }
        }
        ok
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn print_failures(&self) {
        for failure in &self.failures {
            println!("CHECK FAILED: {failure}");
        }
    }

    /// Prints `name value unit` lines, the exact counts, any failed
    /// check, and — last — the one-line JSON result whose metrics are
    /// the end-to-end table (`traced` = false) or the per-layer table.
    pub fn print(&self, traced: bool) {
        for &(name, value) in &self.values {
            println!("{name} {value} {}", unit_of(name));
        }
        for (name, value) in &self.counts {
            println!("{name}.count {value}");
        }
        self.print_failures();
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| json_metric(name, self.get(name).unwrap_or(0.0), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("workload did not report '{}'", m.name));
                    json_metric(m.name, value, m.unit)
                })
                .collect()
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Compares two saved outputs of the same workload, seed and commit:
/// every end-to-end metric must agree within its bound, every exact
/// count must be identical. Returns the disagreements.
pub fn compare_outputs(first: &str, second: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let lookup = |text: &str, name: &str| -> Option<String> {
        text.lines().find_map(|line| {
            let mut words = line.split_ascii_whitespace();
            (words.next() == Some(name))
                .then(|| words.next().map(str::to_owned))
                .flatten()
        })
    };
    for metric in &END_TO_END {
        let parse = |text| lookup(text, metric.name).and_then(|v| v.parse::<f64>().ok());
        match (parse(first), parse(second)) {
            (Some(a), Some(b)) => {
                let gap = (a - b).abs() / a.abs().min(b.abs());
                if gap > metric.bound {
                    problems.push(format!(
                        "{} ({} is better): {a} vs {b} differ by {:.1}% (bound {:.0}%)",
                        metric.name,
                        metric.better,
                        gap * 100.0,
                        metric.bound * 100.0
                    ));
                }
            }
            _ => problems.push(format!("{}: missing from an output", metric.name)),
        }
    }
    let counts = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| {
                l.split_ascii_whitespace()
                    .next()
                    .is_some_and(|n| n.ends_with(".count"))
            })
            .map(str::to_owned)
            .collect()
    };
    let (a, b) = (counts(first), counts(second));
    if a.len() != b.len() {
        problems.push(format!("{} exact counts vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(&b) {
        if x != y {
            problems.push(format!("exact count differs: '{x}' vs '{y}'"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|&(n, _, _)| n))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above and to the workload list.
    #[test]
    fn manifest_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(manifest.contains(&entry), "missing or different: {entry}");
        }
        for &(name, unit, better) in &PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(manifest.contains(&entry), "missing or different: {entry}");
        }
        assert_eq!(
            manifest.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "the manifest lists a metric the tables do not have"
        );
        for name in crate::workloads::NAMES {
            let workload = crate::workloads::build(name, 1, 1.0).expect("known workload");
            let entry = format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                workload.name, workload.why
            );
            assert!(workload.why.len() <= 200, "{name}: why is too long");
            assert!(manifest.contains(&entry), "missing or different: {entry}");
        }
        assert_eq!(
            manifest.matches("\"why\"").count(),
            crate::workloads::NAMES.len()
        );
    }

    #[test]
    fn compare_flags_bound_violations_and_count_drift() {
        let base = "setup_s 1.0 s\nrun_s 2.0 s\npeak_rss_mb 50 MB\ncpu_us_per_msg 1 us\n\
                    deliv_per_s 100 1/s\ndeliv_p50_ms 1 ms\ndelivered_share 0.9 ratio\n\
                    push.event_msgs.count 42\n";
        assert!(compare_outputs(base, base).is_empty());
        let slower = base.replace("run_s 2.0", "run_s 2.2");
        assert!(
            compare_outputs(base, &slower).is_empty(),
            "10% is inside run_s's bound"
        );
        let much_slower = base.replace("run_s 2.0", "run_s 2.8");
        assert_eq!(compare_outputs(base, &much_slower).len(), 1);
        let drifted = base.replace("count 42", "count 43");
        assert_eq!(compare_outputs(base, &drifted).len(), 1);
        let missing = base.replace("deliv_p50_ms 1 ms\n", "");
        assert_eq!(compare_outputs(base, &missing).len(), 1);
    }
}
