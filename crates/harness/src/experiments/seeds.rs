//! Randomization-effect experiment (paper, Section IV-A): "The
//! results of 10 simulations ran with different random seeds showed
//! that ... variations are limited, around 1%-2%. Hence, we present
//! here the results of a single simulation."

use eps_gossip::Algorithm;
use eps_metrics::CsvTable;
use eps_sim::Summary;

use super::common::{base_config, run_cells, ExperimentOptions, ExperimentOutput};
use crate::config::ScenarioConfig;

/// Runs the default scenario under several seeds and reports the
/// spread of the delivery rate, validating the paper's
/// single-run-presentation methodology.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let seed_count = if opts.quick { 5 } else { 10 };
    let algorithms = [Algorithm::push(), Algorithm::combined_pull()];
    let mut table = CsvTable::new(vec!["algorithm".into(), "seed".into(), "delivery".into()]);
    let mut text = format!(
        "Randomization effect (paper Sec. IV-A) — {seed_count} seeds\n\
         (paper: variation across seeds is limited, around 1-2%,\n\
         justifying single-run presentation)\n\n",
    );
    let configs: Vec<ScenarioConfig> = algorithms
        .iter()
        .flat_map(|kind| (1..=seed_count).map(move |seed| (*kind, seed)))
        .map(|(kind, seed)| {
            base_config(&ExperimentOptions {
                seed: seed as u64,
                ..opts.clone()
            })
            .with_algorithm(kind)
        })
        .collect();
    let mut results = run_cells(opts, &configs).into_iter();
    for kind in algorithms {
        let mut summary = Summary::new();
        for seed in 1..=seed_count {
            let r = results.next().expect("one result per cell");
            summary.record(r.delivery_rate);
            table.push_row(vec![
                kind.name().into(),
                seed.to_string(),
                format!("{:.4}", r.delivery_rate),
            ]);
        }
        let spread = summary.max().unwrap_or(0.0) - summary.min().unwrap_or(0.0);
        text.push_str(&format!(
            "  {:<14} mean={:.4} stddev={:.4} spread={:.4} ({:.1}% of mean)\n",
            kind.name(),
            summary.mean(),
            summary.stddev(),
            spread,
            spread / summary.mean() * 100.0
        ));
    }
    ExperimentOutput {
        id: "seeds",
        title: "Randomization effect: delivery spread across seeds (Sec. IV-A)",
        tables: vec![("seed_spread".into(), table)],
        text,
    }
}
