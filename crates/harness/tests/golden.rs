//! Golden determinism tests: the full [`ScenarioResult`] and the
//! fig3-style CSV bytes are pinned for all six algorithms at two
//! seeds, plus reconfiguration, churn, cyclic-overlay (BA/WS),
//! push-pull, adaptive-gossip and low-publish-rate variants, a sparse
//! family in which nearly every gossip round sends nothing, and an
//! evicting family whose caches are full under every eviction policy. Any
//! refactor of the runner must reproduce these bytes exactly — from
//! `run_scenario` and under `par_map` — or consciously regenerate them
//! with
//! `UPDATE_GOLDEN=1 cargo test -p eps-harness --test golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use eps_gossip::Algorithm;
use eps_harness::experiments::time_series_table;
use eps_harness::parallel::par_map;
use eps_harness::{run_scenario, AdaptiveGossip, ScenarioConfig, ScenarioResult};
use eps_overlay::OverlayKind;
use eps_pubsub::EvictionPolicy;
use eps_sim::SimTime;

const SEEDS: [u64; 2] = [1, 999];

fn small(algorithm: Algorithm, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        nodes: 25,
        duration: SimTime::from_secs(4),
        warmup: SimTime::from_millis(500),
        cooldown: SimTime::from_secs(1),
        publish_rate: 20.0,
        algorithm,
        ..ScenarioConfig::default()
    }
}

/// The pinned cells: every algorithm on the small lossy config, plus
/// one reconfiguration run, one churn run, one run on each cyclic
/// overlay (Barabási–Albert and Watts–Strogatz), `push-pull`, and
/// adaptive-gossip runs of push, combined pull, push-pull and
/// summary push, and one push run at 0.5 publishes per second.
fn cells(seed: u64) -> Vec<(String, ScenarioConfig)> {
    let mut cells: Vec<(String, ScenarioConfig)> = Algorithm::paper()
        .into_iter()
        .map(|algo| (algo.name().to_owned(), small(algo, seed)))
        .collect();
    cells.push((
        "reconfig".to_owned(),
        ScenarioConfig {
            link_error_rate: 0.0,
            reconfig_interval: Some(SimTime::from_millis(200)),
            ..small(Algorithm::push(), seed)
        },
    ));
    cells.push((
        "churn".to_owned(),
        ScenarioConfig {
            churn_interval: Some(SimTime::from_millis(300)),
            ..small(Algorithm::combined_pull(), seed)
        },
    ));
    cells.push((
        "overlay-ba".to_owned(),
        ScenarioConfig {
            overlay: OverlayKind::BarabasiAlbert,
            ..small(Algorithm::push(), seed)
        },
    ));
    cells.push((
        "overlay-ws".to_owned(),
        ScenarioConfig {
            overlay: OverlayKind::WattsStrogatz,
            max_degree: 6,
            ..small(Algorithm::combined_pull(), seed)
        },
    ));
    // The alternating push/pull hybrid, and the adaptive-gossip idle
    // signal of each kind of strategy state.
    cells.push(("push-pull".to_owned(), small(Algorithm::push_pull(), seed)));
    for algo in [
        Algorithm::push(),
        Algorithm::combined_pull(),
        Algorithm::push_pull(),
        Algorithm::summary_push(),
    ] {
        let base = small(algo, seed);
        cells.push((
            format!("adaptive-{}", algo.name()),
            ScenarioConfig {
                adaptive_gossip: Some(AdaptiveGossip::around(base.gossip_interval)),
                ..base
            },
        ));
    }
    // A workload so sparse that about e⁻² of the nodes draw a first
    // publish past the end: pins where that tick is dropped.
    cells.push((
        "low-rate".to_owned(),
        ScenarioConfig {
            publish_rate: 0.5,
            ..small(Algorithm::push(), seed)
        },
    ));
    cells
}

/// Bit-exact rendering of a float: the hex of its IEEE-754 bits.
fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Canonical line-per-field dump of a result; every float is rendered
/// bit-exactly, including the full time series.
fn dump(label: &str, result: &ScenarioResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "[{label}]");
    let _ = writeln!(s, "delivery_rate={}", hex(result.delivery_rate));
    let _ = writeln!(
        s,
        "overall_delivery_rate={}",
        hex(result.overall_delivery_rate)
    );
    let _ = writeln!(s, "min_bin_rate={}", hex(result.min_bin_rate));
    let series: Vec<String> = result
        .series
        .iter()
        .map(|&(t, r)| format!("{}:{}", hex(t), hex(r)))
        .collect();
    let _ = writeln!(s, "series={}", series.join(","));
    let _ = writeln!(s, "receivers_per_event={}", hex(result.receivers_per_event));
    let _ = writeln!(s, "events_published={}", result.events_published);
    let _ = writeln!(s, "event_msgs={}", result.event_msgs);
    let _ = writeln!(s, "gossip_msgs={}", result.gossip_msgs);
    let _ = writeln!(
        s,
        "gossip_per_dispatcher={}",
        hex(result.gossip_per_dispatcher)
    );
    let _ = writeln!(s, "gossip_event_ratio={}", hex(result.gossip_event_ratio));
    let _ = writeln!(s, "requests={}", result.requests);
    let _ = writeln!(s, "replies={}", result.replies);
    let _ = writeln!(s, "events_retransmitted={}", result.events_retransmitted);
    let _ = writeln!(s, "events_recovered={}", result.events_recovered);
    let _ = writeln!(
        s,
        "recovery_latency_mean={}",
        hex(result.recovery_latency_mean)
    );
    let _ = writeln!(
        s,
        "recovery_latency_p95={}",
        hex(result.recovery_latency_p95)
    );
    let _ = writeln!(s, "outstanding_losses={}", result.outstanding_losses);
    let _ = writeln!(s, "reconfigurations={}", result.reconfigurations);
    let _ = writeln!(s, "churn_events={}", result.churn_events);
    let _ = writeln!(s, "subscription_msgs={}", result.subscription_msgs);
    let _ = writeln!(s, "duplicate_suppressed={}", result.duplicate_suppressed);
    let _ = writeln!(s, "unexpected_deliveries={}", result.unexpected_deliveries);
    s
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

type Cells = fn(u64) -> Vec<(String, ScenarioConfig)>;

/// One `dump` block per cell, in cell order.
fn report(
    cells: Cells,
    dump: fn(&str, &ScenarioResult) -> String,
    seed: u64,
    results: &[ScenarioResult],
) -> String {
    let mut report = String::new();
    for ((label, _), result) in cells(seed).iter().zip(results) {
        report.push_str(&dump(&format!("{label} seed={seed}"), result));
        report.push('\n');
    }
    report
}

/// One seed of a cell family as `(golden file, bytes)` pairs.
type Render = fn(u64, &[ScenarioResult]) -> Vec<(String, String)>;

/// The canonical result dump plus the fig3-style CSV over the six
/// algorithm series.
fn render(seed: u64, results: &[ScenarioResult]) -> Vec<(String, String)> {
    let names: Vec<String> = Algorithm::paper()
        .iter()
        .map(|a| a.name().to_owned())
        .collect();
    let series: Vec<Vec<(f64, f64)>> = results[..names.len()]
        .iter()
        .map(|r| r.series.clone())
        .collect();
    vec![
        (
            format!("results_seed{seed}.txt"),
            report(cells, dump, seed, results),
        ),
        (
            format!("fig3_seed{seed}.csv"),
            time_series_table(&names, &series).to_csv(),
        ),
    ]
}

fn check_or_update(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    // Lines keep their terminators, so two different files always
    // differ at some line, even if only in a trailing newline.
    let (mut want, mut got) = (expected.split_inclusive('\n'), actual.split_inclusive('\n'));
    let (line, want, got) = (1..)
        .map(|line| (line, want.next(), got.next()))
        .find(|(_, want, got)| want != got)
        .expect("different files differ at some line");
    panic!(
        "{name} drifted from the golden bytes at line {line}\n  \
         expected: {}\n  actual:   {}\n\
         if the change is intended, regenerate with UPDATE_GOLDEN=1",
        want.map_or("<end of file>", str::trim_end),
        got.map_or("<end of file>", str::trim_end)
    );
}

/// One pass over a cell family, per seed: `run_scenario`'s bytes are
/// the pinned ones, and `par_map` reproduces them exactly.
fn check_family(cells: Cells, render: Render) {
    for seed in SEEDS {
        let configs: Vec<ScenarioConfig> = cells(seed).into_iter().map(|(_, c)| c).collect();
        let results: Vec<ScenarioResult> = configs.iter().map(run_scenario).collect();
        let pinned = render(seed, &results);
        for (file, bytes) in &pinned {
            check_or_update(file, bytes);
        }
        assert_eq!(
            pinned,
            render(seed, &par_map(4, &configs, run_scenario)),
            "par_map drifted from run_scenario"
        );
    }
}

/// The client-layer cells: multi-client populations (with and without
/// churn, plus a Zipf-skewed one) whose aggregate filters must stay
/// deterministic. Pinned separately from [`cells`] on purpose — the
/// pre-client golden files above double as the `clients = 1` identity
/// contract: introducing the client layer must not move a single byte
/// of them.
fn client_cells(seed: u64) -> Vec<(String, ScenarioConfig)> {
    vec![
        (
            "clients5".to_owned(),
            ScenarioConfig {
                clients_per_node: 5,
                ..small(Algorithm::combined_pull(), seed)
            },
        ),
        (
            "clients5-churn".to_owned(),
            ScenarioConfig {
                clients_per_node: 5,
                churn_interval: Some(SimTime::from_millis(300)),
                ..small(Algorithm::push(), seed)
            },
        ),
        (
            "clients4-zipf".to_owned(),
            ScenarioConfig {
                clients_per_node: 4,
                zipf_s: 1.2,
                ..small(Algorithm::push(), seed)
            },
        ),
    ]
}

/// [`dump`] plus the routing-state fields the client layer adds. The
/// base dump stays untouched so the pre-client golden files keep their
/// exact bytes.
fn dump_with_routing(label: &str, result: &ScenarioResult) -> String {
    let mut s = dump(label, result);
    let _ = writeln!(s, "client_subscriptions={}", result.client_subscriptions);
    let _ = writeln!(s, "aggregate_patterns={}", result.aggregate_patterns);
    let _ = writeln!(s, "routing_entries={}", result.routing_entries);
    let _ = writeln!(
        s,
        "setup_subscription_msgs={}",
        result.setup_subscription_msgs
    );
    s
}

fn render_clients(seed: u64, results: &[ScenarioResult]) -> Vec<(String, String)> {
    vec![(
        format!("results_clients_seed{seed}.txt"),
        report(client_cells, dump_with_routing, seed, results),
    )]
}

/// The summary-reconciliation cells: both hash-tree digest modes on
/// the small lossy config. Pinned separately from [`cells`] — those
/// golden files double as the "summary reconciliation is purely
/// additive" contract: registering the new algorithms and the summary
/// index must not move a single byte of them.
fn summary_cells(seed: u64) -> Vec<(String, ScenarioConfig)> {
    vec![
        (
            "summary-push".to_owned(),
            small(Algorithm::summary_push(), seed),
        ),
        (
            "summary-pull".to_owned(),
            small(Algorithm::summary_pull(), seed),
        ),
    ]
}

/// [`dump`] plus the wire-bit fields the summary evaluation reads.
/// The base dump stays untouched so the pre-summary golden files keep
/// their exact bytes.
fn dump_with_wire_bits(label: &str, result: &ScenarioResult) -> String {
    let mut s = dump(label, result);
    let _ = writeln!(s, "gossip_wire_bits={}", result.gossip_wire_bits);
    let _ = writeln!(s, "request_wire_bits={}", result.request_wire_bits);
    let _ = writeln!(s, "reply_wire_bits={}", result.reply_wire_bits);
    s
}

fn render_summary(seed: u64, results: &[ScenarioResult]) -> Vec<(String, String)> {
    vec![(
        format!("results_summary_seed{seed}.txt"),
        report(summary_cells, dump_with_wire_bits, seed, results),
    )]
}

/// The evicting cells: the small lossy config at β = 40, which a
/// dispatcher's own publishes alone (20 a second, 4 s) overflow. They pin
/// each eviction policy's victims and what eviction leaves behind: the
/// push slot lists, the (source, pattern, seq) index the pull rows
/// serve from, and summary-pull's tombstones.
fn evicting_cells(seed: u64) -> Vec<(String, ScenarioConfig)> {
    let evicting = |algorithm, eviction| ScenarioConfig {
        buffer_size: 40,
        eviction,
        ..small(algorithm, seed)
    };
    let mut cells: Vec<(String, ScenarioConfig)> = [
        Algorithm::push(),
        Algorithm::combined_pull(),
        Algorithm::push_pull(),
        Algorithm::summary_push(),
        Algorithm::summary_pull(),
    ]
    .into_iter()
    .map(|algo| (algo.name().to_owned(), evicting(algo, EvictionPolicy::Fifo)))
    .collect();
    cells.push((
        "random-combined-pull".to_owned(),
        evicting(Algorithm::combined_pull(), EvictionPolicy::Random { seed }),
    ));
    cells.push((
        "source-biased-push".to_owned(),
        evicting(
            Algorithm::push(),
            EvictionPolicy::SourceBiased { own_permille: 300 },
        ),
    ));
    cells
}

fn render_evicting(seed: u64, results: &[ScenarioResult]) -> Vec<(String, String)> {
    vec![(
        format!("results_evicting_seed{seed}.txt"),
        report(evicting_cells, dump_with_wire_bits, seed, results),
    )]
}

/// The sparse cells: 200 dispatchers over 4096 patterns publishing one
/// event per second each, where almost every gossip round finds
/// nothing to send — push, summary push and push-pull draw patterns
/// with empty caches, the pull routes have empty `Lost` buffers, and
/// `no-recovery` never sends. Each cell pins the draws, streak and
/// delay updates those silent rounds make.
fn sparse_cells(seed: u64) -> Vec<(String, ScenarioConfig)> {
    let sparse = |algorithm| ScenarioConfig {
        seed,
        nodes: 200,
        pattern_universe: 4096,
        publish_rate: 1.0,
        duration: SimTime::from_secs(2),
        warmup: SimTime::from_millis(300),
        cooldown: SimTime::from_millis(300),
        algorithm,
        ..ScenarioConfig::default()
    };
    let mut cells: Vec<(String, ScenarioConfig)> = [
        Algorithm::push(),
        Algorithm::summary_push(),
        Algorithm::push_pull(),
        Algorithm::combined_pull(),
        Algorithm::publisher_pull(),
        Algorithm::no_recovery(),
    ]
    .into_iter()
    .map(|algo| (algo.name().to_owned(), sparse(algo)))
    .collect();
    let base = sparse(Algorithm::push());
    cells.push((
        "adaptive-push".to_owned(),
        ScenarioConfig {
            adaptive_gossip: Some(AdaptiveGossip::around(base.gossip_interval)),
            ..base
        },
    ));
    cells
}

fn render_sparse(seed: u64, results: &[ScenarioResult]) -> Vec<(String, String)> {
    vec![(
        format!("results_sparse_seed{seed}.txt"),
        report(sparse_cells, dump, seed, results),
    )]
}

/// The base family; its reconfiguration and churn cells run
/// coordinator events between node events.
#[test]
fn scenario_output_matches_golden_bytes() {
    check_family(cells, render);
}

/// Both digest modes, range-refinement requests included.
#[test]
fn summary_reconciliation_output_matches_golden_bytes() {
    check_family(summary_cells, render_summary);
}

/// Mostly silent gossip rounds, at a scale where rounds that send
/// nothing outnumber the ones that do.
#[test]
fn sparse_output_matches_golden_bytes() {
    check_family(sparse_cells, render_sparse);
}

/// Full caches under every eviction policy.
#[test]
fn evicting_output_matches_golden_bytes() {
    check_family(evicting_cells, render_evicting);
}

/// The aggregation layer, with churn at client granularity.
#[test]
fn client_layer_output_matches_golden_bytes() {
    check_family(client_cells, render_clients);
}
