//! Figure 2: the simulation parameters and their default values.

use eps_metrics::CsvTable;

use super::common::{base_config, ExperimentOptions, ExperimentOutput};
use crate::config::MAX_PATTERNS_PER_EVENT;

/// Emits the parameter table, echoing the configured defaults so the
/// reproduction's Figure 2 is generated from the same source of truth
/// the simulations use.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let config = base_config(opts);
    let rows: Vec<(&str, String, &str)> = vec![
        ("number of dispatchers", config.nodes.to_string(), "N = 100"),
        (
            "maximum number of patterns per subscriber",
            config.pi_max.to_string(),
            "pi_max = 2",
        ),
        (
            "publish rate (per dispatcher)",
            format!("{} publish/s", config.publish_rate),
            "50 publish/s",
        ),
        (
            "link error rate",
            config.link_error_rate.to_string(),
            "epsilon = 0.1",
        ),
        (
            "interval between topological reconfigurations",
            match config.reconfig_interval {
                None => "infinity".to_owned(),
                Some(rho) => format!("{rho}"),
            },
            "rho = infinity",
        ),
        ("buffer size", config.buffer_size.to_string(), "beta = 1500"),
        (
            "gossip interval",
            format!("{}", config.gossip_interval),
            "T = 0.03 s",
        ),
        (
            "pattern universe (Section IV-A)",
            config.pattern_universe.to_string(),
            "Pi = 70",
        ),
        (
            "max patterns per event (footnote 5)",
            MAX_PATTERNS_PER_EVENT.to_string(),
            "3",
        ),
        (
            "subscribers per pattern N_pi (derived)",
            format!("{:.2}", config.subscribers_per_pattern()),
            "2.85",
        ),
    ];
    let mut table = CsvTable::new(vec!["parameter".into(), "value".into(), "paper".into()]);
    let mut text = String::from("Figure 2 — simulation parameters and their default values\n\n");
    for (name, value, paper) in rows {
        text.push_str(&format!("  {name:<48} {value:<16} (paper: {paper})\n"));
        table.push_row(vec![name.into(), value, paper.into()]);
    }
    ExperimentOutput {
        id: "fig2",
        title: "Figure 2: simulation parameters and their default values",
        tables: vec![("parameters".into(), table)],
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_all_parameters() {
        let out = run(&ExperimentOptions::default());
        assert_eq!(out.id, "fig2");
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].1.len(), 10);
        assert!(out.text.contains("N = 100"));
        assert!(out.text.contains("2.85"));
    }
}
