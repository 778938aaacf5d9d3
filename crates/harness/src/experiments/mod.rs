//! One experiment driver per figure of the paper's evaluation
//! (Section IV). Each driver sweeps the relevant parameter, prints the
//! series the paper plots, and writes CSVs under the output directory.
//!
//! | id | paper artifact | sweep |
//! |----|----------------|-------|
//! | `fig2`  | Figure 2 (parameter table) | — |
//! | `fig3a` | Figure 3(a) | delivery vs. time, ε ∈ {0.05, 0.1} |
//! | `fig3b` | Figure 3(b) | delivery vs. time, ρ ∈ {0.2 s, 0.03 s} |
//! | `fig4a` | Figure 4 top | delivery vs. buffer size β |
//! | `fig4b` | Figure 4 bottom | delivery vs. gossip interval T |
//! | `fig5`  | Figure 5 | combined pull: T sweep × β |
//! | `fig6`  | Figure 6 | delivery vs. system size N |
//! | `fig7`  | Figure 7 | receivers per event vs. π_max |
//! | `fig8`  | Figure 8 | delivery vs. π_max, low & high load |
//! | `fig9a` | Figure 9(a) | overhead vs. N |
//! | `fig9b` | Figure 9(b) | overhead vs. π_max |
//! | `fig10` | Figure 10 | overhead vs. ε, high & low load |
//! | `seeds` | Sec. IV-A claim | delivery spread across seeds |
//! | `ext-adaptive` | extension (Sec. IV-E) | adaptive gossip interval |
//! | `ext-buffers`  | extension (ref \[13\])  | buffer replacement policies |
//! | `ext-hybrid`   | extension (composition) | push-pull hybrid vs combined pull |
//! | `ext-overlays` | extension (arXiv 1112.0416) | tree vs BA vs WS overlays |
//! | `ext-aggregation` | extension (arXiv 1811.07088) | routing state vs clients per dispatcher |
//! | `ext-summary` | extension (ROADMAP item 2) | summary-reconciliation wire cost vs cache size |

mod common;
mod ext_adaptive;
mod ext_aggregation;
mod ext_buffers;
mod ext_hybrid;
mod ext_overlays;
mod ext_summary;
mod fig10;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod seeds;
mod summary;

use std::path::PathBuf;

pub use common::{time_series_table, ExperimentOptions, ExperimentOutput, Metric, SweepGrid};

/// The available experiment ids: the paper's figures in order,
/// followed by the extension studies.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "summary",
    "fig2",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10",
    "seeds",
    "ext-adaptive",
    "ext-buffers",
    "ext-hybrid",
    "ext-overlays",
    "ext-aggregation",
    "ext-summary",
];

/// Runs the experiment with the given id and writes its CSV tables
/// under `opts.out_dir/<id>/`.
///
/// # Errors
///
/// Returns an error string for unknown ids or output I/O failures.
pub fn run_experiment(id: &str, opts: &ExperimentOptions) -> Result<ExperimentOutput, String> {
    let output = match id {
        "fig2" => fig2::run(opts),
        "fig3a" => fig3::run_lossy(opts),
        "fig3b" => fig3::run_reconfig(opts),
        "fig4a" => fig4::run_buffer(opts),
        "fig4b" => fig4::run_interval(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig9a" => fig9::run_nodes(opts),
        "fig9b" => fig9::run_pi_max(opts),
        "fig10" => fig10::run(opts),
        "summary" => summary::run(opts),
        "seeds" => seeds::run(opts),
        "ext-adaptive" => ext_adaptive::run(opts),
        "ext-buffers" => ext_buffers::run(opts),
        "ext-hybrid" => ext_hybrid::run(opts),
        "ext-overlays" => ext_overlays::run(opts),
        "ext-aggregation" => ext_aggregation::run(opts),
        "ext-summary" => ext_summary::run(opts),
        other => return Err(format!("unknown experiment '{other}'")),
    };
    for (name, table) in &output.tables {
        let path: PathBuf = opts.out_dir.join(output.id).join(format!("{name}.csv"));
        table
            .write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(output)
}
