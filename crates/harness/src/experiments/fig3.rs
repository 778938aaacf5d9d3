//! Figure 3: event delivery over time, for lossy links (a) and
//! topological reconfigurations (b).

use eps_metrics::{ascii_chart, CsvTable, Series};
use eps_sim::SimTime;

use super::common::{
    base_config, delivery_algorithms, run_cells, time_series_table, ExperimentOptions,
    ExperimentOutput,
};
use crate::config::ScenarioConfig;
use crate::result::ScenarioResult;

/// Figure 3(a): delivery rate vs. time with lossy links, for
/// ε = 0.05 (left) and ε = 0.1 (right), all six strategies.
pub fn run_lossy(opts: &ExperimentOptions) -> ExperimentOutput {
    let mut tables = Vec::new();
    let mut text = String::from(
        "Figure 3(a) — event delivery under lossy links\n\
         (paper: baseline ~75% at eps=0.05, ~55% at eps=0.1; push and\n\
         combined pull ~90-98%, single pulls insufficient)\n\n",
    );
    let panels: Vec<(String, String, ScenarioConfig)> = [0.05, 0.1]
        .iter()
        .map(|&eps| {
            (
                format!("delivery_eps{}", (eps * 100.0) as u32),
                format!("eps={eps}"),
                ScenarioConfig {
                    link_error_rate: eps,
                    ..base_config(opts)
                },
            )
        })
        .collect();
    for (name, table, chart, summary) in run_panels(opts, panels) {
        text.push_str(&chart);
        text.push_str(&summary);
        text.push('\n');
        tables.push((name, table));
    }
    ExperimentOutput {
        id: "fig3a",
        title: "Figure 3(a): event delivery, lossy links",
        tables,
        text,
    }
}

/// Figure 3(b): delivery rate vs. time under topological
/// reconfigurations over fully reliable links, for ρ = 0.2 s
/// (non-overlapping) and ρ = 0.03 s (overlapping).
pub fn run_reconfig(opts: &ExperimentOptions) -> ExperimentOutput {
    let mut tables = Vec::new();
    let mut text = String::from(
        "Figure 3(b) — event delivery under topological reconfigurations\n\
         (paper: baseline dips to ~70% (rho=0.2s) / ~60% (rho=0.03s) around\n\
         reconfigurations; push and combined pull level the rate near 100%)\n\n",
    );
    let panels: Vec<(String, String, ScenarioConfig)> = [(200u64, "rho=0.2s"), (30, "rho=0.03s")]
        .iter()
        .map(|&(rho_ms, label)| {
            (
                format!("delivery_rho{rho_ms}ms"),
                label.to_owned(),
                ScenarioConfig {
                    link_error_rate: 0.0,
                    reconfig_interval: Some(SimTime::from_millis(rho_ms)),
                    ..base_config(opts)
                },
            )
        })
        .collect();
    for (name, table, chart, summary) in run_panels(opts, panels) {
        text.push_str(&chart);
        text.push_str(&summary);
        text.push('\n');
        tables.push((name, table));
    }
    ExperimentOutput {
        id: "fig3b",
        title: "Figure 3(b): event delivery, topological reconfigurations",
        tables,
        text,
    }
}

/// Runs every (panel, strategy) cell of a figure in one parallel
/// batch and renders each panel: a CSV table plus an ASCII chart and
/// summary lines, keyed by the panel's table name.
fn run_panels(
    opts: &ExperimentOptions,
    panels: Vec<(String, String, ScenarioConfig)>,
) -> Vec<(String, CsvTable, String, String)> {
    let algorithms = delivery_algorithms();
    let configs: Vec<ScenarioConfig> = panels
        .iter()
        .flat_map(|(_, _, config)| algorithms.iter().map(|kind| config.with_algorithm(*kind)))
        .collect();
    let mut results = run_cells(opts, &configs).into_iter();
    panels
        .into_iter()
        .map(|(name, label, config)| {
            let panel: Vec<ScenarioResult> = algorithms
                .iter()
                .map(|_| results.next().expect("one result per cell"))
                .collect();
            let (table, chart, summary) = time_series_panel(&config, &label, panel);
            (name, table, chart, summary)
        })
        .collect()
}

/// Renders one panel's six per-strategy results as a delivery-rate
/// time-series CSV table plus an ASCII chart and summary lines.
fn time_series_panel(
    config: &ScenarioConfig,
    label: &str,
    results: Vec<ScenarioResult>,
) -> (CsvTable, String, String) {
    let algorithms = delivery_algorithms();
    let mut names: Vec<String> = Vec::new();
    let mut all_series: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut summary = String::new();
    for (kind, result) in algorithms.iter().zip(results) {
        summary.push_str(&format!(
            "  {label} {:<16} delivery={:.3} (min bin {:.3})\n",
            kind.name(),
            result.delivery_rate,
            result.min_bin_rate
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
        &format!("delivery rate vs time, {label}"),
        &chart_series,
        0.4,
        1.0,
    );
    (table, chart, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentOptions {
        ExperimentOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("eps-fig3-test"),
            seed: 3,
            ..ExperimentOptions::default()
        }
    }

    /// End-to-end smoke test on a reduced panel: one epsilon, shapes
    /// hold (recovery beats baseline).
    #[test]
    fn panel_produces_series_for_all_algorithms() {
        let opts = tiny();
        let config = ScenarioConfig {
            nodes: 20,
            duration: SimTime::from_secs(3),
            warmup: SimTime::from_millis(500),
            cooldown: SimTime::from_millis(500),
            publish_rate: 20.0,
            ..base_config(&opts)
        };
        let panels = vec![("test_table".to_owned(), "test".to_owned(), config)];
        let (_, table, chart, summary) = run_panels(&opts, panels).pop().unwrap();
        assert!(
            table.len() > 10,
            "expected a time series, got {}",
            table.len()
        );
        assert!(chart.contains("delivery rate vs time"));
        assert!(summary.contains("no-recovery"));
        assert!(summary.contains("combined-pull"));
    }
}
