//! Shared plumbing for the experiment drivers.

use std::path::PathBuf;

use eps_gossip::Algorithm;
use eps_metrics::{ascii_chart, CsvTable, Series};
use eps_sim::SimTime;

use crate::config::ScenarioConfig;
use crate::parallel::{default_jobs, par_map};
use crate::result::ScenarioResult;
use crate::runner::run_scenario;

/// Options shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Quick mode: shorter runs and coarser sweeps — same shapes,
    /// minutes instead of an hour. Full mode uses the paper's 25 s
    /// runs and fine-grained sweeps.
    pub quick: bool,
    /// Directory that receives `<figure-id>/<table>.csv` files.
    pub out_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for independent scenario cells; `None` means
    /// "use the machine's available parallelism". Output is identical
    /// for every value (see [`crate::parallel`]).
    pub jobs: Option<usize>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            quick: true,
            out_dir: PathBuf::from("results"),
            seed: 1,
            jobs: None,
        }
    }
}

impl ExperimentOptions {
    /// The resolved worker count: `jobs` if set (0 is treated as 1),
    /// otherwise the available parallelism.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_jobs).max(1)
    }
}

/// Runs a batch of independent scenario cells, fanned across
/// [`ExperimentOptions::effective_jobs`] worker threads, returning the
/// results in input order — so driver code that renders tables row by
/// row produces the exact bytes the serial loop would.
pub fn run_cells(opts: &ExperimentOptions, configs: &[ScenarioConfig]) -> Vec<ScenarioResult> {
    par_map(opts.effective_jobs(), configs, run_scenario)
}

/// What an experiment produced: named CSV tables (written by the
/// runner) and human-readable text (series + charts + commentary).
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// The figure id (`fig3a`, …).
    pub id: &'static str,
    /// The paper artifact reproduced.
    pub title: &'static str,
    /// Named result tables.
    pub tables: Vec<(String, CsvTable)>,
    /// Rendered report text for the terminal.
    pub text: String,
}

/// The baseline configuration every experiment starts from: the
/// paper's Figure 2 defaults, shortened in quick mode.
pub fn base_config(opts: &ExperimentOptions) -> ScenarioConfig {
    let mut config = ScenarioConfig {
        seed: opts.seed,
        ..ScenarioConfig::default()
    };
    if opts.quick {
        config.duration = SimTime::from_secs(8);
        config.warmup = SimTime::from_secs(1);
        config.cooldown = SimTime::from_secs(2);
    }
    config
}

/// The algorithms the delivery figures compare, in the paper's legend
/// order.
pub fn delivery_algorithms() -> Vec<Algorithm> {
    Algorithm::paper()
}

/// The two best algorithms, compared in the overhead figures.
pub fn overhead_algorithms() -> [Algorithm; 2] {
    [Algorithm::push(), Algorithm::combined_pull()]
}

/// Picks the quick or full variant of a sweep grid.
pub fn grid<T: Copy>(opts: &ExperimentOptions, quick: &[T], full: &[T]) -> Vec<T> {
    if opts.quick {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

/// Formats a float with three decimals for tables.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float rounded to an integer, for compact text listings.
pub fn f0(x: f64) -> String {
    format!("{x:.0}")
}

/// Formats a float with one decimal for tables.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with four decimals for tables.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// One reported metric of a sweep: how to pull it out of a
/// [`ScenarioResult`], how to format a CSV cell, and the header suffix
/// appended to the column name (empty keeps the bare column name).
#[derive(Clone, Copy)]
pub struct Metric {
    /// Header suffix: `""` → the column header is the column name;
    /// otherwise `"{name}_{suffix}"`.
    pub suffix: &'static str,
    /// CSV cell formatter.
    pub fmt: fn(f64) -> String,
    /// Extracts the metric from one cell's result.
    pub extract: fn(&ScenarioResult) -> f64,
}

impl Metric {
    /// The headline delivery rate, three decimals — what most delivery
    /// figures tabulate.
    pub fn delivery() -> Self {
        Metric {
            suffix: "",
            fmt: f3,
            extract: |r| r.delivery_rate,
        }
    }
}

/// An `xs × columns` grid of scenario cells — rows are sweep points,
/// columns the compared configurations (strategies, buffer sizes, …) —
/// run in one parallel batch and rendered into the CSV tables and
/// ASCII-chart text blocks every figure driver repeats.
pub struct SweepGrid {
    x_header: String,
    x_labels: Vec<String>,
    col_names: Vec<String>,
    results: Vec<ScenarioResult>, // row-major: x0c0, x0c1, …
}

impl SweepGrid {
    /// Runs one config per `(x, column)` cell (row-major order: all
    /// columns of the first sweep point first) across the option's
    /// worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `configs.len() != x_labels.len() * col_names.len()`.
    pub fn run(
        opts: &ExperimentOptions,
        x_header: impl Into<String>,
        x_labels: Vec<String>,
        col_names: Vec<String>,
        configs: Vec<ScenarioConfig>,
    ) -> Self {
        assert_eq!(
            configs.len(),
            x_labels.len() * col_names.len(),
            "one config per (x, column) cell"
        );
        let results = run_cells(opts, &configs);
        SweepGrid {
            x_header: x_header.into(),
            x_labels,
            col_names,
            results,
        }
    }

    /// The result of one cell.
    pub fn cell(&self, x: usize, col: usize) -> &ScenarioResult {
        &self.results[x * self.col_names.len() + col]
    }

    /// One metric down one column, in sweep order.
    pub fn column(&self, col: usize, extract: fn(&ScenarioResult) -> f64) -> Vec<f64> {
        (0..self.x_labels.len())
            .map(|x| extract(self.cell(x, col)))
            .collect()
    }

    /// The CSV table: the x column plus one column per (grid column,
    /// metric) pair, metrics adjacent per column.
    pub fn table(&self, metrics: &[Metric]) -> CsvTable {
        let mut headers = vec![self.x_header.clone()];
        for name in &self.col_names {
            for m in metrics {
                headers.push(if m.suffix.is_empty() {
                    name.clone()
                } else {
                    format!("{name}_{}", m.suffix)
                });
            }
        }
        let mut table = CsvTable::new(headers);
        for (x, x_label) in self.x_labels.iter().enumerate() {
            let mut row = vec![x_label.clone()];
            for col in 0..self.col_names.len() {
                for m in metrics {
                    row.push((m.fmt)((m.extract)(self.cell(x, col))));
                }
            }
            table.push_row(row);
        }
        table
    }

    /// A chart ceiling of 1.1 × the metric's maximum, at least
    /// `floor` before scaling.
    pub fn auto_hi(&self, metric: &Metric, floor: f64) -> f64 {
        let max = self
            .results
            .iter()
            .map(metric.extract)
            .fold(0.0f64, f64::max);
        max.max(floor) * 1.1
    }

    /// An ASCII chart of one metric (one series per column) followed
    /// by per-column value lines, `value_fmt` formatting the listed
    /// numbers.
    pub fn text_block(
        &self,
        title: &str,
        metric: &Metric,
        value_fmt: fn(f64) -> String,
        lo: f64,
        hi: f64,
    ) -> String {
        let columns: Vec<Vec<f64>> = (0..self.col_names.len())
            .map(|c| self.column(c, metric.extract))
            .collect();
        let series: Vec<Series> = self
            .col_names
            .iter()
            .zip(&columns)
            .map(|(name, values)| Series {
                name: name.clone(),
                values: values.clone(),
            })
            .collect();
        let mut text = ascii_chart(title, &series, lo, hi);
        for (name, values) in self.col_names.iter().zip(&columns) {
            let rendered: Vec<String> = values.iter().map(|&v| value_fmt(v)).collect();
            text.push_str(&format!("  {name:<16} [{}]\n", rendered.join(", ")));
        }
        text
    }
}

/// Tabulates per-column delivery-rate time series on the union of bin
/// starts (all series share binning) — the Figure 3 CSV layout:
/// a `seconds` column plus one three-decimal rate column per series.
pub fn time_series_table(names: &[String], series: &[Vec<(f64, f64)>]) -> CsvTable {
    let xs: Vec<f64> = series
        .iter()
        .map(|s| s.iter().map(|&(t, _)| t).collect::<Vec<_>>())
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let mut headers = vec!["seconds".to_owned()];
    headers.extend(names.iter().cloned());
    let mut table = CsvTable::new(headers);
    for (i, &t) in xs.iter().enumerate() {
        let mut row = vec![format!("{t:.2}")];
        for s in series {
            row.push(s.get(i).map(|&(_, r)| f3(r)).unwrap_or_default());
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_shortens_runs() {
        let quick = base_config(&ExperimentOptions::default());
        let full = base_config(&ExperimentOptions {
            quick: false,
            ..ExperimentOptions::default()
        });
        assert!(quick.duration < full.duration);
        assert_eq!(full.duration, SimTime::from_secs(25));
        quick.validate();
        full.validate();
    }

    #[test]
    fn grid_selects_by_mode() {
        let opts = ExperimentOptions::default();
        assert_eq!(grid(&opts, &[1], &[1, 2, 3]), vec![1]);
        let full = ExperimentOptions {
            quick: false,
            ..opts
        };
        assert_eq!(grid(&full, &[1], &[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn time_series_table_pads_short_series() {
        let names = vec!["a".to_owned(), "b".to_owned()];
        let series = vec![vec![(0.0, 1.0), (0.1, 0.5)], vec![(0.0, 0.25)]];
        let table = time_series_table(&names, &series);
        assert_eq!(table.len(), 2);
        let csv = table.to_csv();
        assert!(csv.starts_with("seconds,a,b\n"));
        assert!(csv.contains("0.00,1.000,0.250\n"));
        assert!(csv.contains("0.10,0.500,\n"));
    }
}
