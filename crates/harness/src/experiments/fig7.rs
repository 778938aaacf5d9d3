//! Figure 7: how many dispatchers receive an event as π_max grows.

use eps_gossip::Algorithm;
use eps_metrics::{ascii_chart, CsvTable, Series};
use eps_sim::SimTime;

use super::common::{base_config, grid, run_cells, ExperimentOptions, ExperimentOutput};
use crate::config::ScenarioConfig;

/// Figure 7: receivers per event vs. π_max ∈ 1..30.
///
/// This measures the dissemination model itself (recovery does not
/// change who an event is *for*), so it runs the no-recovery baseline
/// on a loss-free network and reports intended receivers. The paper's
/// closed-form expectation is `N · (1 - (1 - π_max/Π)^k)` with `k` = 3
/// patterns per event; the curve should hit ≈ 25 % of dispatchers at
/// π_max = 5 and ≈ 80 % at π_max = 30.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let pi_values = grid(
        opts,
        &[1usize, 2, 3, 5, 8, 12, 16, 20, 25, 30],
        &[1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20, 22, 25, 28, 30],
    );
    let mut table = CsvTable::new(vec![
        "pi_max".into(),
        "receivers_per_event".into(),
        "expected_analytical".into(),
    ]);
    let mut measured = Vec::new();
    let mut analytical = Vec::new();
    let configs: Vec<ScenarioConfig> = pi_values
        .iter()
        .map(|&pi_max| {
            let mut config = base_config(opts).with_algorithm(Algorithm::no_recovery());
            config.pi_max = pi_max;
            config.link_error_rate = 0.0;
            // Short runs suffice: the statistic is per published event.
            config.duration = SimTime::from_secs(3);
            config.warmup = SimTime::from_millis(500);
            config.cooldown = SimTime::from_millis(500);
            config
        })
        .collect();
    let results = run_cells(opts, &configs);
    for ((&pi_max, config), result) in pi_values.iter().zip(&configs).zip(results) {
        let expected = config.nodes as f64 * config.match_probability();
        measured.push(result.receivers_per_event);
        analytical.push(expected);
        table.push_row(vec![
            pi_max.to_string(),
            format!("{:.2}", result.receivers_per_event),
            format!("{expected:.2}"),
        ]);
    }
    let mut text = String::from(
        "Figure 7 — dispatchers receiving an event vs pi_max\n\
         (paper: ~25% of dispatchers at pi_max=5, ~80% at pi_max=30 —\n\
         content-based dissemination becomes broadcast-like)\n\n",
    );
    text.push_str(&ascii_chart(
        "receivers per event vs pi_max",
        &[
            Series {
                name: "measured".into(),
                values: measured.clone(),
            },
            Series {
                name: "N(1-(1-pi/Pi)^3)".into(),
                values: analytical.clone(),
            },
        ],
        0.0,
        100.0,
    ));
    for (&pi, (m, a)) in pi_values.iter().zip(measured.iter().zip(&analytical)) {
        text.push_str(&format!(
            "  pi_max={pi:<3} receivers/event={m:>6.2}  (analytical {a:.2})\n"
        ));
    }
    ExperimentOutput {
        id: "fig7",
        title: "Figure 7: receivers per event vs pi_max",
        tables: vec![("receivers_vs_pi_max".into(), table)],
        text,
    }
}
