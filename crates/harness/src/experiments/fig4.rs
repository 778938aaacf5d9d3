//! Figure 4: effect of the buffer size β (top) and the gossip
//! interval T (bottom) on delivery.

use eps_metrics::CsvTable;
use eps_sim::SimTime;

use super::common::{
    base_config, delivery_algorithms, f3, grid, ExperimentOptions, ExperimentOutput, Metric,
    SweepGrid,
};
use crate::config::ScenarioConfig;

/// Figure 4 top: delivery vs. β ∈ 500..4000 for all strategies.
pub fn run_buffer(opts: &ExperimentOptions) -> ExperimentOutput {
    let betas = grid(
        opts,
        &[500usize, 1500, 2500, 4000],
        &[500, 1000, 1500, 2000, 2500, 3000, 3500, 4000],
    );
    let (table, text) = sweep(
        opts,
        "beta (buffer size)",
        &betas.iter().map(|&b| b as f64).collect::<Vec<_>>(),
        |config, &beta| {
            config.buffer_size = beta as usize;
        },
        "Figure 4 (top) — effect of buffer size on delivery\n\
         (paper: subscriber pull plateaus ~78%; push overtakes combined\n\
         pull as beta grows; combined pull better at small buffers)\n\n",
    );
    ExperimentOutput {
        id: "fig4a",
        title: "Figure 4 top: delivery vs buffer size",
        tables: vec![("delivery_vs_beta".into(), table)],
        text,
    }
}

/// Figure 4 bottom: delivery vs. T ∈ 0.01..0.055 s for all strategies.
pub fn run_interval(opts: &ExperimentOptions) -> ExperimentOutput {
    let intervals = grid(
        opts,
        &[0.01, 0.02, 0.03, 0.045, 0.055],
        &[
            0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055,
        ],
    );
    let (table, text) = sweep(
        opts,
        "T (gossip interval)",
        &intervals,
        |config, &t| {
            config.gossip_interval = SimTime::from_secs_f64(t);
        },
        "Figure 4 (bottom) — effect of gossip interval on delivery\n\
         (paper: delivery decreases as T grows; push degrades faster;\n\
         subscriber pull stuck around 78%)\n\n",
    );
    ExperimentOutput {
        id: "fig4b",
        title: "Figure 4 bottom: delivery vs gossip interval",
        tables: vec![("delivery_vs_interval".into(), table)],
        text,
    }
}

/// Sweeps one parameter for every strategy and renders table + chart.
fn sweep<F: Fn(&mut ScenarioConfig, &f64)>(
    opts: &ExperimentOptions,
    x_label: &str,
    xs: &[f64],
    apply: F,
    intro: &str,
) -> (CsvTable, String) {
    let algorithms = delivery_algorithms();
    let configs: Vec<ScenarioConfig> = xs
        .iter()
        .flat_map(|&x| algorithms.iter().map(move |kind| (x, kind)))
        .map(|(x, kind)| {
            let mut config = base_config(opts).with_algorithm(*kind);
            apply(&mut config, &x);
            config
        })
        .collect();
    let cells = SweepGrid::run(
        opts,
        x_label,
        xs.iter().map(|x| format!("{x}")).collect(),
        algorithms.iter().map(|k| k.name().to_owned()).collect(),
        configs,
    );
    let metric = Metric::delivery();
    let table = cells.table(&[metric]);
    let mut text = intro.to_owned();
    text.push_str(&cells.text_block(
        &format!("delivery rate vs {x_label}"),
        &metric,
        f3,
        0.4,
        1.0,
    ));
    (table, text)
}
