//! Extension experiment: the push-pull hybrid, composed — not coded.
//!
//! `push-pull` exists only as a strategy-table row: an
//! [`AlternatingDigest`](eps_gossip::AlternatingDigest) (push rounds
//! interleaved with pull rounds) steered along the subscription tree.
//! No new wire form, no new algorithm module — the composition is the
//! whole implementation. This experiment measures whether the hybrid
//! earns its keep against the paper's best all-rounder, combined
//! pull, on the two axes the paper uses for that comparison:
//! Figure 3(a)'s delivery-over-time panels under lossy links, and
//! Figure 5's β × T interplay.
//!
//! Expectation: the hybrid inherits push's proactive coverage at half
//! the digest rate, so it should sit between push and the pure pulls
//! in delivery while sending fewer gossip messages than push. Where
//! combined pull leans on publisher-side buffers, push-pull needs no
//! route recording at all.

use eps_gossip::Algorithm;
use eps_metrics::{ascii_chart, CsvTable, Series};
use eps_sim::SimTime;

use super::common::{
    base_config, f3, grid, run_cells, time_series_table, ExperimentOptions, ExperimentOutput,
    Metric, SweepGrid,
};
use crate::config::ScenarioConfig;
use crate::result::ScenarioResult;

/// The hybrid, its two component strategies, and the paper's
/// reference point.
fn algorithms() -> [Algorithm; 4] {
    [
        Algorithm::push(),
        Algorithm::subscriber_pull(),
        Algorithm::combined_pull(),
        Algorithm::push_pull(),
    ]
}

/// Runs both panels: delivery vs. time under lossy links (Fig. 3(a)
/// axes) and delivery vs. T per β (Fig. 5 axes).
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let mut tables = Vec::new();
    let mut text = String::from(
        "Extension — push-pull hybrid (AlternatingDigest x PatternSteering,\n\
         a pure registry composition) vs. its components and combined pull.\n\
         Expectation: between push and the pure pulls on delivery, cheaper\n\
         than push on gossip overhead, no publisher-side infrastructure.\n\n",
    );

    for (name, label, eps) in [
        ("delivery_vs_time_eps5", "eps=0.05", 0.05),
        ("delivery_vs_time_eps10", "eps=0.1", 0.1),
    ] {
        let config = ScenarioConfig {
            link_error_rate: eps,
            ..base_config(opts)
        };
        let (table, chart, summary) = lossy_panel(opts, &config, label);
        text.push_str(&chart);
        text.push_str(&summary);
        text.push('\n');
        tables.push((name.to_owned(), table));
    }

    let (table, block) = beta_t_grid(opts);
    text.push_str(&block);
    tables.push(("delivery_vs_t_by_beta".to_owned(), table));

    ExperimentOutput {
        id: "ext-hybrid",
        title: "Extension: push-pull hybrid vs combined pull",
        tables,
        text,
    }
}

/// One Figure 3(a)-style panel: delivery over time for the four
/// strategies under the given loss rate.
fn lossy_panel(
    opts: &ExperimentOptions,
    config: &ScenarioConfig,
    label: &str,
) -> (CsvTable, String, String) {
    let algorithms = algorithms();
    let configs: Vec<ScenarioConfig> = algorithms
        .iter()
        .map(|kind| config.with_algorithm(*kind))
        .collect();
    let results: Vec<ScenarioResult> = run_cells(opts, &configs);

    let mut names = Vec::new();
    let mut all_series = Vec::new();
    let mut summary = String::new();
    for (kind, result) in algorithms.iter().zip(results) {
        summary.push_str(&format!(
            "  {label} {:<16} delivery={:.3} gossip/disp={:.1}\n",
            kind.name(),
            result.delivery_rate,
            result.gossip_per_dispatcher,
        ));
        names.push(kind.name().to_owned());
        all_series.push(result.series);
    }
    let table = time_series_table(&names, &all_series);
    let (w0, w1) = config.measure_window();
    let chart_series: Vec<Series> = names
        .iter()
        .zip(&all_series)
        .map(|(name, s)| Series {
            name: name.clone(),
            values: s
                .iter()
                .filter(|&&(t, _)| t >= w0.as_secs_f64() && t < w1.as_secs_f64())
                .map(|&(_, r)| r)
                .collect(),
        })
        .collect();
    let chart = ascii_chart(
        &format!("delivery rate vs time, {label} (hybrid panel)"),
        &chart_series,
        0.4,
        1.0,
    );
    (table, chart, summary)
}

/// The Figure 5 axes, hybrid vs. combined pull: delivery vs. T for
/// each β, the two strategies side by side per column.
fn beta_t_grid(opts: &ExperimentOptions) -> (CsvTable, String) {
    let intervals = grid(
        opts,
        &[0.01, 0.02, 0.03, 0.045, 0.055],
        &[
            0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055,
        ],
    );
    let betas = [500usize, 1500, 2500];
    let pair = [Algorithm::combined_pull(), Algorithm::push_pull()];

    let configs: Vec<ScenarioConfig> = intervals
        .iter()
        .flat_map(|&t| {
            betas
                .iter()
                .flat_map(move |&beta| pair.into_iter().map(move |kind| (t, beta, kind)))
        })
        .map(|(t, beta, kind)| ScenarioConfig {
            buffer_size: beta,
            gossip_interval: SimTime::from_secs_f64(t),
            algorithm: kind,
            ..base_config(opts)
        })
        .collect();
    let columns: Vec<String> = betas
        .iter()
        .flat_map(|&beta| {
            pair.iter()
                .map(move |kind| format!("{} beta={beta}", kind.name()))
        })
        .collect();
    let cells = SweepGrid::run(
        opts,
        "T (gossip interval)",
        intervals.iter().map(|t| format!("{t}")).collect(),
        columns,
        configs,
    );
    let metric = Metric::delivery();
    let table = cells.table(&[metric]);
    let block = cells.text_block(
        "delivery rate vs T: combined-pull | push-pull, per beta",
        &metric,
        f3,
        0.4,
        1.0,
    );
    (table, block)
}
