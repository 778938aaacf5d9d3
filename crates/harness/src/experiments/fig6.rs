//! Figure 6: delivery as the system size N increases.

use super::common::{
    base_config, delivery_algorithms, f3, grid, ExperimentOptions, ExperimentOutput, Metric,
    SweepGrid,
};
use crate::config::ScenarioConfig;

/// Buffer size giving every event roughly `seconds` of cache
/// persistence: the per-node cache insert rate is the publish rate
/// plus the matching-event receive rate, which grows linearly in `N`
/// (the paper: "we increased the buffer size accordingly, so that a
/// given event persists in the buffer for a constant time of about
/// 4 s" — a conservative linear scaling).
pub fn buffer_for_persistence(config: &ScenarioConfig, n: usize, seconds: f64) -> usize {
    let insert_rate = config.publish_rate * (1.0 + n as f64 * config.match_probability());
    (seconds * insert_rate).round() as usize
}

/// Figure 6: delivery vs. N ∈ 20..200, β scaled for ≈ 4 s persistence.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let sizes = grid(
        opts,
        &[20usize, 60, 100, 140, 200],
        &[20, 40, 60, 80, 100, 120, 140, 160, 180, 200],
    );
    let algorithms = delivery_algorithms();
    let configs: Vec<ScenarioConfig> = sizes
        .iter()
        .flat_map(|&n| algorithms.iter().map(move |kind| (n, kind)))
        .map(|(n, kind)| {
            let mut config = base_config(opts).with_algorithm(*kind);
            config.nodes = n;
            config.buffer_size = buffer_for_persistence(&config, n, 4.0);
            config
        })
        .collect();
    let cells = SweepGrid::run(
        opts,
        "N (number of dispatchers)",
        sizes.iter().map(|n| n.to_string()).collect(),
        algorithms.iter().map(|k| k.name().to_owned()).collect(),
        configs,
    );
    let metric = Metric::delivery();
    let table = cells.table(&[metric]);
    let mut text = String::from(
        "Figure 6 — delivery as the system size increases\n\
         (paper: push and combined pull stay best and scale flat; push\n\
         becomes more convenient as N grows since the constant pattern\n\
         universe makes each pattern gossiped more often)\n\n",
    );
    text.push_str(&cells.text_block(
        "delivery rate vs N (beta scaled to ~4s persistence)",
        &metric,
        f3,
        0.4,
        1.0,
    ));
    ExperimentOutput {
        id: "fig6",
        title: "Figure 6: delivery vs system size",
        tables: vec![("delivery_vs_n".into(), table)],
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_scaling_is_linear_in_n() {
        let config = ScenarioConfig::default();
        let b100 = buffer_for_persistence(&config, 100, 4.0);
        let b200 = buffer_for_persistence(&config, 200, 4.0);
        // Paper default: ~4s persistence at N=100 is close to the
        // default beta=1500 (which gives ~3.2s).
        assert!((1500..2200).contains(&b100), "b100 = {b100}");
        assert!(b200 > (b100 * 3) / 2, "scaling too weak: {b100} -> {b200}");
    }
}
