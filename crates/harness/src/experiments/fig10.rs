//! Figure 10: gossip overhead versus the link error rate, under high
//! and low publish load.

use super::common::{
    base_config, f0, f1, grid, overhead_algorithms, ExperimentOptions, ExperimentOutput, Metric,
    SweepGrid,
};
use crate::config::ScenarioConfig;

/// Figure 10: gossip messages per dispatcher vs. ε ∈ 0.01..0.1, at
/// 50 publish/s (top) and 5 publish/s (bottom).
///
/// The paper's point: the reactive pull triggers communication only
/// when a recovery is needed, so at low error rates and low load its
/// overhead drops to a fraction of push's (about one third at
/// ε = 0.01, 5 publish/s), while push gossips proactively no matter
/// what.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let epsilons = grid(
        opts,
        &[0.01, 0.03, 0.05, 0.075, 0.1],
        &[0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1],
    );
    let algorithms = overhead_algorithms();
    let mut tables = Vec::new();
    let mut text = String::from(
        "Figure 10 — overhead vs link error rate, high (top) and low\n\
         (bottom) publish load\n\
         (paper: push overhead is roughly constant in eps; pull overhead\n\
         grows with eps and sits far below push at low eps / low load)\n\n",
    );
    let rates = [
        (50.0, "high load (50 publish/s)"),
        (5.0, "low load (5 publish/s)"),
    ];
    for &(rate, label) in &rates {
        let configs: Vec<ScenarioConfig> = epsilons
            .iter()
            .flat_map(|&eps| algorithms.iter().map(move |kind| (eps, kind)))
            .map(|(eps, kind)| {
                let mut config = base_config(opts).with_algorithm(*kind);
                config.link_error_rate = eps;
                config.publish_rate = rate;
                config
            })
            .collect();
        let cells = SweepGrid::run(
            opts,
            "epsilon (link error rate)",
            epsilons.iter().map(|eps| format!("{eps}")).collect(),
            algorithms.iter().map(|k| k.name().to_owned()).collect(),
            configs,
        );
        let msgs = Metric {
            suffix: "msgs_per_dispatcher",
            fmt: f1,
            extract: |r| r.gossip_per_dispatcher,
        };
        text.push_str(&cells.text_block(
            &format!("gossip msgs per dispatcher vs eps, {label}"),
            &msgs,
            f0,
            0.0,
            cells.auto_hi(&msgs, 1.0),
        ));
        text.push('\n');
        let name = if rate < 10.0 { "low_load" } else { "high_load" };
        tables.push((format!("overhead_vs_eps_{name}"), cells.table(&[msgs])));
    }
    ExperimentOutput {
        id: "fig10",
        title: "Figure 10: overhead vs link error rate",
        tables,
        text,
    }
}
