//! Figure 8: delivery as the number of subscriptions per dispatcher
//! increases, under low and high publish load.

use eps_gossip::Algorithm;
use eps_sim::SimTime;

use super::common::{
    base_config, f3, grid, ExperimentOptions, ExperimentOutput, Metric, SweepGrid,
};
use crate::config::ScenarioConfig;

/// The strategies Figure 8 compares (the paper omits the publisher and
/// random variants here).
fn algorithms() -> [Algorithm; 4] {
    [
        Algorithm::no_recovery(),
        Algorithm::subscriber_pull(),
        Algorithm::push(),
        Algorithm::combined_pull(),
    ]
}

/// Figure 8: delivery vs. π_max with β = 4000, at 5 publish/s (top)
/// and 50 publish/s (bottom).
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let pi_values = grid(
        opts,
        &[2usize, 6, 12, 20, 30],
        &[1, 2, 4, 6, 8, 12, 16, 20, 25, 30],
    );
    let mut tables = Vec::new();
    let mut text = String::from(
        "Figure 8 — delivery vs pi_max under low (top) and high (bottom) load\n\
         (paper: at 5 publish/s push and combined are flat; at 50 publish/s\n\
         combined improves for pi_max<6 while push worsens, then every\n\
         strategy decays because beta=4000 cannot keep up)\n\n",
    );
    let rates = [
        (5.0, "low load (5 publish/s)"),
        (50.0, "high load (50 publish/s)"),
    ];
    let cell = |rate: f64, pi_max: usize, algo: &Algorithm| {
        let mut config = base_config(opts).with_algorithm(*algo);
        config.pi_max = pi_max;
        config.publish_rate = rate;
        config.buffer_size = 4000;
        if opts.quick {
            // High pi_max runs flood the network; keep quick
            // mode quick without losing the steady state. Low
            // load needs a longer window: with ~0.2 events/s
            // per (source, pattern) stream, sequence-gap
            // detection alone takes ~5 s, so pull recovery
            // barely starts inside a 6 s run.
            config.duration = SimTime::from_secs(if rate < 10.0 { 14 } else { 6 });
        }
        if rate < 10.0 {
            // The cooldown must cover pull detection latency:
            // at ~0.2 events/s per (source, pattern) stream
            // the gap for an event published near the end
            // only becomes visible seconds after the run
            // stops, which would count as loss artificially.
            config.cooldown = SimTime::from_secs(6);
        }
        config
    };
    for &(rate, label) in &rates {
        let algorithms = algorithms();
        let configs: Vec<ScenarioConfig> = pi_values
            .iter()
            .flat_map(|&pi_max| algorithms.iter().map(move |algo| (pi_max, algo)))
            .map(|(pi_max, algo)| cell(rate, pi_max, algo))
            .collect();
        let cells = SweepGrid::run(
            opts,
            "pi_max",
            pi_values.iter().map(|p| p.to_string()).collect(),
            algorithms.iter().map(|a| a.name().to_owned()).collect(),
            configs,
        );
        let metric = Metric::delivery();
        text.push_str(&cells.text_block(
            &format!("delivery rate vs pi_max, {label}"),
            &metric,
            f3,
            0.4,
            1.0,
        ));
        text.push('\n');
        let name = if rate < 10.0 { "low_load" } else { "high_load" };
        tables.push((format!("delivery_vs_pi_max_{name}"), cells.table(&[metric])));
    }
    ExperimentOutput {
        id: "fig8",
        title: "Figure 8: delivery vs pi_max under low and high load",
        tables,
        text,
    }
}
