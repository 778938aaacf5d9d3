//! Figure 9: gossip overhead versus system size (a) and subscriptions
//! per dispatcher (b), in absolute and relative terms.

use eps_metrics::CsvTable;
use eps_sim::SimTime;

use super::common::{
    base_config, f0, f1, f3, f4, grid, overhead_algorithms, ExperimentOptions, ExperimentOutput,
    Metric, SweepGrid,
};
use crate::config::ScenarioConfig;
use crate::experiments::fig6::buffer_for_persistence;

/// Figure 9(a): overhead vs. N for push and combined pull —
/// gossip messages per dispatcher (left) and the gossip/event message
/// ratio (right).
pub fn run_nodes(opts: &ExperimentOptions) -> ExperimentOutput {
    let sizes = grid(
        opts,
        &[40usize, 80, 120, 160, 200],
        &[20, 40, 60, 80, 100, 120, 140, 160, 180, 200],
    );
    let (tables, text) = overhead_sweep(
        opts,
        "N (number of dispatchers)",
        &sizes.iter().map(|&n| n as f64).collect::<Vec<_>>(),
        |config, &x| {
            config.nodes = x as usize;
            config.buffer_size = buffer_for_persistence(config, x as usize, 4.0);
        },
        "Figure 9(a) — overhead vs system size\n\
         (paper: gossip msgs/dispatcher grows well below linearly;\n\
         the gossip/event ratio falls from ~28% at N=40 to ~20% at N=200)\n\n",
    );
    ExperimentOutput {
        id: "fig9a",
        title: "Figure 9(a): overhead vs system size",
        tables,
        text,
    }
}

/// Figure 9(b): overhead vs. π_max for push and combined pull.
pub fn run_pi_max(opts: &ExperimentOptions) -> ExperimentOutput {
    let pi_values = grid(
        opts,
        &[2usize, 6, 12, 20, 30],
        &[1, 2, 4, 6, 8, 12, 16, 20, 25, 30],
    );
    let (tables, text) = overhead_sweep(
        opts,
        "pi_max (subscriptions per dispatcher)",
        &pi_values.iter().map(|&p| p as f64).collect::<Vec<_>>(),
        |config, &x| {
            config.pi_max = x as usize;
            config.buffer_size = 4000;
            if opts_is_quick(config.duration) {
                config.duration = SimTime::from_secs(6);
            }
        },
        "Figure 9(b) — overhead vs subscriptions per dispatcher\n\
         (paper: msgs/dispatcher only marginally affected, decreasing\n\
         slightly; the gossip/event ratio decreases markedly since the\n\
         number of event messages rises much faster)\n\n",
    );
    ExperimentOutput {
        id: "fig9b",
        title: "Figure 9(b): overhead vs pi_max",
        tables,
        text,
    }
}

/// `true` when the configured duration is the quick-mode one (helper
/// so the closure does not need to capture the options).
fn opts_is_quick(duration: SimTime) -> bool {
    duration < SimTime::from_secs(25)
}

type NamedTables = Vec<(String, CsvTable)>;

/// Runs push and combined pull over a sweep, reporting both overhead
/// views.
fn overhead_sweep<F: Fn(&mut ScenarioConfig, &f64)>(
    opts: &ExperimentOptions,
    x_label: &str,
    xs: &[f64],
    apply: F,
    intro: &str,
) -> (NamedTables, String) {
    let algorithms = overhead_algorithms();
    let configs: Vec<ScenarioConfig> = xs
        .iter()
        .flat_map(|&x| algorithms.iter().map(move |kind| (x, *kind)))
        .map(|(x, kind)| {
            let mut config = base_config(opts).with_algorithm(kind);
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
    let msgs = Metric {
        suffix: "msgs_per_dispatcher",
        fmt: f1,
        extract: |r| r.gossip_per_dispatcher,
    };
    let ratio = Metric {
        suffix: "gossip_event_ratio",
        fmt: f4,
        extract: |r| r.gossip_event_ratio,
    };
    let table = cells.table(&[msgs, ratio]);
    let mut text = intro.to_owned();
    text.push_str(&cells.text_block(
        &format!("gossip msgs per dispatcher vs {x_label}"),
        &msgs,
        f0,
        0.0,
        cells.auto_hi(&msgs, 1.0),
    ));
    text.push_str(&cells.text_block(
        &format!("gossip msgs / event msgs vs {x_label}"),
        &ratio,
        f3,
        0.0,
        cells.auto_hi(&ratio, 0.01),
    ));
    (vec![("overhead".into(), table)], text)
}
