//! The headline comparison: every strategy at the paper's Figure 2
//! defaults, one row each — delivery, overhead, recovery volume and
//! latency. Not a single paper figure, but the table a reader wants
//! first; every number also appears in its figure's context.

use eps_metrics::CsvTable;

use super::common::{
    base_config, delivery_algorithms, run_cells, ExperimentOptions, ExperimentOutput,
};
use crate::config::ScenarioConfig;

/// Runs all six strategies at the default configuration and tabulates
/// the headline metrics.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let mut table = CsvTable::new(vec![
        "algorithm".into(),
        "delivery".into(),
        "worst_bin".into(),
        "gossip_per_dispatcher".into(),
        "gossip_event_ratio".into(),
        "events_recovered".into(),
        "recovery_latency_mean_s".into(),
        "recovery_latency_p95_s".into(),
    ]);
    let mut text = String::from(
        "Headline comparison — Figure 2 defaults (N=100, eps=0.1,\n\
         beta=1500, T=0.03s, 50 publish/s)\n\n",
    );
    text.push_str(&format!(
        "{:<16} {:>9} {:>9} {:>12} {:>8} {:>10} {:>9} {:>9}\n",
        "algorithm",
        "delivery",
        "worstbin",
        "gossip/disp",
        "g/e",
        "recovered",
        "lat-mean",
        "lat-p95"
    ));
    let configs: Vec<ScenarioConfig> = delivery_algorithms()
        .iter()
        .map(|kind| base_config(opts).with_algorithm(*kind))
        .collect();
    let mut results = run_cells(opts, &configs).into_iter();
    for kind in delivery_algorithms() {
        let r = results.next().expect("one result per cell");
        table.push_row(vec![
            kind.name().into(),
            format!("{:.3}", r.delivery_rate),
            format!("{:.3}", r.min_bin_rate),
            format!("{:.1}", r.gossip_per_dispatcher),
            format!("{:.3}", r.gossip_event_ratio),
            r.events_recovered.to_string(),
            format!("{:.3}", r.recovery_latency_mean),
            format!("{:.3}", r.recovery_latency_p95),
        ]);
        text.push_str(&format!(
            "{:<16} {:>9.3} {:>9.3} {:>12.1} {:>8.3} {:>10} {:>8.3}s {:>8.3}s\n",
            kind.name(),
            r.delivery_rate,
            r.min_bin_rate,
            r.gossip_per_dispatcher,
            r.gossip_event_ratio,
            r.events_recovered,
            r.recovery_latency_mean,
            r.recovery_latency_p95,
        ));
    }
    text.push_str(
        "\n(The paper's qualitative ordering: push ~ combined-pull >>\n\
         single pulls and random-pull >> no recovery.)\n",
    );
    ExperimentOutput {
        id: "summary",
        title: "Headline comparison at the Figure 2 defaults",
        tables: vec![("summary".into(), table)],
        text,
    }
}
