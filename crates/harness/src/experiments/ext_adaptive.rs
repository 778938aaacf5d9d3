//! Extension experiment: adaptive gossip interval.
//!
//! The paper (Section IV-E) notes that push "must proactively push at
//! each gossip round" and suggests "an adaptive approach ... where the
//! gossip interval T is changed dynamically according to the current
//! state of the system, as suggested in [14]". This experiment
//! measures what that buys: fixed-`T` vs. backoff-adaptive gossip,
//! across error rates, for push and combined pull.

use eps_metrics::CsvTable;

use super::common::{
    base_config, grid, overhead_algorithms, run_cells, ExperimentOptions, ExperimentOutput,
};
use crate::config::{AdaptiveGossip, ScenarioConfig};

/// Runs the adaptive-gossip ablation: delivery and overhead with and
/// without interval adaptation, across link error rates.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let epsilons = grid(opts, &[0.01, 0.05, 0.1], &[0.01, 0.02, 0.05, 0.08, 0.1]);
    let mut table = CsvTable::new(vec![
        "publish_rate".into(),
        "epsilon".into(),
        "algorithm".into(),
        "mode".into(),
        "delivery".into(),
        "gossip_msgs_per_dispatcher".into(),
    ]);
    let mut text = String::from(
        "Extension — adaptive gossip interval (paper Sec. IV-E, ref [14])\n\
         Dispatchers with no evidence of recovery work (empty Lost\n\
         buffer for pull, no incoming requests for push) back off from\n\
         T to 8T; any sign of work snaps the timer back.\n\
         Expectation: large savings on healthy/lightly-loaded networks,\n\
         convergence to fixed behavior under heavy loss.\n\n",
    );
    let rates = [(50.0, "high load"), (5.0, "low load")];
    let mut configs: Vec<ScenarioConfig> = Vec::new();
    for &(rate, _) in &rates {
        for kind in overhead_algorithms() {
            for &eps in &epsilons {
                let mut fixed = base_config(opts).with_algorithm(kind);
                fixed.link_error_rate = eps;
                fixed.publish_rate = rate;
                let mut adaptive = fixed.clone();
                adaptive.adaptive_gossip = Some(AdaptiveGossip::around(fixed.gossip_interval));
                configs.push(fixed);
                configs.push(adaptive);
            }
        }
    }
    let mut results = run_cells(opts, &configs).into_iter();
    for &(rate, rate_label) in &rates {
        for kind in overhead_algorithms() {
            for &eps in &epsilons {
                let r_fixed = results.next().expect("one result per cell");
                let r_adaptive = results.next().expect("one result per cell");
                for (mode, r) in [("fixed", &r_fixed), ("adaptive", &r_adaptive)] {
                    table.push_row(vec![
                        rate.to_string(),
                        eps.to_string(),
                        kind.name().into(),
                        mode.into(),
                        format!("{:.3}", r.delivery_rate),
                        format!("{:.1}", r.gossip_per_dispatcher),
                    ]);
                }
                let saving = if r_fixed.gossip_per_dispatcher > 0.0 {
                    1.0 - r_adaptive.gossip_per_dispatcher / r_fixed.gossip_per_dispatcher
                } else {
                    0.0
                };
                text.push_str(&format!(
                "  {rate_label:<9} {:<14} eps={eps:<5} delivery {:.3} -> {:.3}, gossip/disp {:>7.1} -> {:>7.1} ({:+.0}% traffic)\n",
                kind.name(),
                r_fixed.delivery_rate,
                r_adaptive.delivery_rate,
                r_fixed.gossip_per_dispatcher,
                r_adaptive.gossip_per_dispatcher,
                -saving * 100.0
            ));
            }
        }
    }
    ExperimentOutput {
        id: "ext-adaptive",
        title: "Extension: adaptive gossip interval (Sec. IV-E)",
        tables: vec![("adaptive_vs_fixed".into(), table)],
        text,
    }
}
