//! Extension experiment: graph-general overlays.
//!
//! The paper evaluates every algorithm on a degree-bounded random
//! tree, where the overlay and the routing structure coincide. This
//! experiment re-runs the Figure 3-style delivery and overhead axes on
//! the two cyclic overlays from Ferretti's complex-network gossip
//! study (arXiv 1112.0416): Barabási–Albert preferential attachment
//! and Watts–Strogatz small-world rewiring. Events route on the BFS
//! spanning view; the physical cross links replicate redundant copies
//! that the dispatcher's duplicate filter suppresses — the
//! `dup_suppressed` column quantifies that redundancy, the price a
//! cyclic overlay pays for its extra delivery paths.
//!
//! Expectation: the cross-link copies act as free positive
//! forwarding, so the cyclic overlays close most of the delivery gap
//! the lossy tree leaves before gossip recovery engages, at the cost
//! of `O(cross links)` duplicate events per publication.

use eps_gossip::Algorithm;
use eps_metrics::{ascii_chart, Series};
use eps_overlay::OverlayKind;

use super::common::{
    base_config, delivery_algorithms, f0, f1, f3, time_series_table, ExperimentOptions,
    ExperimentOutput, Metric, SweepGrid,
};
use crate::config::ScenarioConfig;

/// The compared overlays with their degree bounds: the tree keeps the
/// paper's bound of 4; Watts–Strogatz needs one slot above its ring
/// lattice (degree 4) for rewired links, so both cyclic overlays get
/// headroom 6 to keep their comparison symmetric.
fn overlays() -> [(OverlayKind, usize); 3] {
    [
        (OverlayKind::Tree, 4),
        (OverlayKind::BarabasiAlbert, 6),
        (OverlayKind::WattsStrogatz, 6),
    ]
}

/// Runs the overlay × algorithm grid once and renders every panel
/// from its cells: the summary table, and one delivery-vs-time panel
/// per headline algorithm with one series per overlay.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let algorithms = delivery_algorithms();
    let base = base_config(opts);
    let configs: Vec<ScenarioConfig> = overlays()
        .iter()
        .flat_map(|&(overlay, max_degree)| {
            let base = base.clone();
            algorithms.iter().map(move |kind| ScenarioConfig {
                overlay,
                max_degree,
                ..base.with_algorithm(*kind)
            })
        })
        .collect();
    let grid = SweepGrid::run(
        opts,
        "overlay",
        overlays()
            .iter()
            .map(|(o, _)| o.name().to_owned())
            .collect(),
        algorithms.iter().map(|a| a.name().to_owned()).collect(),
        configs,
    );

    let mut text = String::from(
        "Extension — graph-general overlays: the paper's algorithms on the\n\
         random tree vs. Barabasi-Albert and Watts-Strogatz graphs.\n\
         Events route on the BFS spanning view; physical cross links\n\
         replicate copies that the duplicate filter absorbs\n\
         (dup_suppressed). Tree rows suppress exactly zero.\n\n",
    );
    let mut tables = Vec::new();

    for (col, kind) in algorithms.iter().enumerate() {
        if *kind != Algorithm::push() && *kind != Algorithm::combined_pull() {
            continue;
        }
        let names: Vec<String> = overlays()
            .iter()
            .map(|(o, _)| o.name().to_owned())
            .collect();
        let series: Vec<Vec<(f64, f64)>> = (0..overlays().len())
            .map(|x| grid.cell(x, col).series.clone())
            .collect();
        tables.push((
            format!("delivery_vs_time_{}", kind.name()),
            time_series_table(&names, &series),
        ));
        let (w0, w1) = base.measure_window();
        let chart_series: Vec<Series> = names
            .iter()
            .zip(&series)
            .map(|(name, s)| Series {
                name: name.clone(),
                values: s
                    .iter()
                    .filter(|&&(t, _)| t >= w0.as_secs_f64() && t < w1.as_secs_f64())
                    .map(|&(_, r)| r)
                    .collect(),
            })
            .collect();
        text.push_str(&ascii_chart(
            &format!("delivery rate vs time per overlay, {}", kind.name()),
            &chart_series,
            0.4,
            1.0,
        ));
        text.push('\n');
    }

    for (x, (overlay, _)) in overlays().iter().enumerate() {
        for (col, kind) in algorithms.iter().enumerate() {
            let r = grid.cell(x, col);
            let dup_per_event = if r.events_published == 0 {
                0.0
            } else {
                r.duplicate_suppressed as f64 / r.events_published as f64
            };
            text.push_str(&format!(
                "  {:<4} {:<16} delivery={:.3} gossip/disp={:<7.1} dup/event={:.2}\n",
                overlay.name(),
                kind.name(),
                r.delivery_rate,
                r.gossip_per_dispatcher,
                dup_per_event,
            ));
        }
    }

    let metrics = [
        Metric::delivery(),
        Metric {
            suffix: "gossip_per_disp",
            fmt: f1,
            extract: |r| r.gossip_per_dispatcher,
        },
        Metric {
            suffix: "dup_suppressed",
            fmt: f0,
            extract: |r| r.duplicate_suppressed as f64,
        },
    ];
    tables.push(("overlay_grid".to_owned(), grid.table(&metrics)));
    text.push('\n');
    text.push_str(&grid.text_block(
        "delivery rate per overlay, one series per algorithm",
        &Metric::delivery(),
        f3,
        0.4,
        1.0,
    ));

    ExperimentOutput {
        id: "ext-overlays",
        title: "Extension: delivery and overhead on cyclic overlays",
        tables,
        text,
    }
}
