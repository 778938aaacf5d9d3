//! Determinism under parallelism: the parallel experiment runner must
//! produce byte-identical output to the serial one, for any worker
//! count, because every scenario derives all randomness from its own
//! config and results merge in input order.

use eps_gossip::Algorithm;
use eps_harness::experiments::{run_experiment, ExperimentOptions};
use eps_harness::parallel::par_map;
use eps_harness::{run_scenario, ScenarioConfig, ScenarioResult};
use eps_sim::SimTime;

fn small(algorithm: Algorithm, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 25,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_millis(500),
        cooldown: SimTime::from_millis(500),
        publish_rate: 20.0,
        seed,
        algorithm,
        ..ScenarioConfig::default()
    }
}

fn assert_same(a: &ScenarioResult, b: &ScenarioResult) {
    assert_eq!(a.delivery_rate, b.delivery_rate);
    assert_eq!(a.overall_delivery_rate, b.overall_delivery_rate);
    assert_eq!(a.events_published, b.events_published);
    assert_eq!(a.event_msgs, b.event_msgs);
    assert_eq!(a.gossip_msgs, b.gossip_msgs);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.replies, b.replies);
    assert_eq!(a.series, b.series);
}

/// The workhorse guarantee: fanning scenario cells across threads
/// changes nothing — not even the last bit of any statistic.
#[test]
fn parallel_cells_match_serial_cells() {
    let configs: Vec<ScenarioConfig> = [
        Algorithm::no_recovery(),
        Algorithm::push(),
        Algorithm::combined_pull(),
    ]
    .iter()
    .flat_map(|kind| [1u64, 2].map(|seed| small(*kind, seed)))
    .collect();
    let serial = par_map(1, &configs, run_scenario);
    for jobs in [2, 4] {
        let parallel = par_map(jobs, &configs, run_scenario);
        assert_eq!(parallel.len(), serial.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_same(s, p);
        }
    }
}

/// End-to-end through `run_experiment`: CSV files on disk are
/// byte-identical for every job count, across two master seeds (fig2
/// in quick mode).
#[test]
fn experiment_csvs_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("eps-par-det-{}", std::process::id()));
    for seed in [1u64, 2] {
        let mut outputs = Vec::new();
        for jobs in [1usize, 4] {
            let out_dir = base.join(format!("s{seed}-j{jobs}"));
            let opts = ExperimentOptions {
                quick: true,
                out_dir: out_dir.clone(),
                seed,
                jobs: Some(jobs),
            };
            let output = run_experiment("fig2", &opts).expect("fig2 runs");
            let csv =
                std::fs::read(out_dir.join("fig2").join("parameters.csv")).expect("csv written");
            outputs.push((output.text.clone(), csv));
        }
        assert_eq!(
            outputs[0].0, outputs[1].0,
            "report text differs (seed {seed})"
        );
        assert_eq!(outputs[0].1, outputs[1].1, "CSV bytes differ (seed {seed})");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The full six-algorithm panel (the shape every figure fans out)
/// renders identically for every worker count, including an odd one
/// that does not divide the cell count.
#[test]
fn six_algorithm_panel_identical_across_job_counts() {
    let configs: Vec<ScenarioConfig> = Algorithm::paper()
        .into_iter()
        .map(|kind| small(kind, 7))
        .collect();
    let render = |results: &[ScenarioResult]| {
        results
            .iter()
            .map(|r| format!("{:.6} {} {}", r.delivery_rate, r.gossip_msgs, r.requests))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = render(&par_map(1, &configs, run_scenario));
    let parallel = render(&par_map(4, &configs, run_scenario));
    assert_eq!(serial, parallel);
}

#[test]
fn explicit_jobs_override_is_respected() {
    let opts = ExperimentOptions {
        jobs: Some(3),
        ..ExperimentOptions::default()
    };
    assert_eq!(opts.effective_jobs(), 3);
    let zero = ExperimentOptions {
        jobs: Some(0),
        ..ExperimentOptions::default()
    };
    assert_eq!(zero.effective_jobs(), 1);
    assert!(ExperimentOptions::default().effective_jobs() >= 1);
}
