//! Quickstart: run one lossy-network scenario with and without
//! epidemic recovery and compare delivery.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig};
use epidemic_pubsub::sim::SimTime;

fn main() {
    // The paper's Figure 2 defaults, shortened: 100 dispatchers on a
    // degree-4 tree, 70 patterns, 2 subscriptions per dispatcher,
    // 50 publish/s each, 10% per-link message loss.
    let base = ScenarioConfig {
        duration: SimTime::from_secs(10),
        warmup: SimTime::from_secs(1),
        cooldown: SimTime::from_secs(2),
        ..ScenarioConfig::default()
    };

    println!("epidemic recovery on a lossy 100-dispatcher overlay (eps = 0.1)");
    println!(
        "{:<16} {:>10} {:>12} {:>14} {:>12}",
        "algorithm", "delivery", "worst bin", "gossip/disp", "recovered"
    );
    for kind in [
        Algorithm::no_recovery(),
        Algorithm::push(),
        Algorithm::combined_pull(),
    ] {
        let result = run_scenario(&base.with_algorithm(kind));
        println!(
            "{:<16} {:>9.1}% {:>11.1}% {:>14.1} {:>12}",
            kind.name(),
            result.delivery_rate * 100.0,
            result.min_bin_rate * 100.0,
            result.gossip_per_dispatcher,
            result.events_recovered
        );
    }
    println!();
    println!("Recovery delivers the events the best-effort tree dropped;");
    println!("push and combined pull should both sit far above the baseline.");
}
