//! Lossy links: how each strategy copes as the per-link error rate
//! grows — a condensed version of the paper's Figure 3(a) plus the
//! overhead view of Figure 10.
//!
//! ```text
//! cargo run --release --example lossy_links
//! ```

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig};
use epidemic_pubsub::sim::SimTime;

fn main() {
    let base = ScenarioConfig {
        duration: SimTime::from_secs(8),
        warmup: SimTime::from_secs(1),
        cooldown: SimTime::from_secs(2),
        ..ScenarioConfig::default()
    };

    for eps in [0.01, 0.05, 0.1] {
        println!("== link error rate eps = {eps} ==");
        println!(
            "{:<16} {:>10} {:>14} {:>12}",
            "algorithm", "delivery", "gossip/disp", "gossip/event"
        );
        for kind in Algorithm::paper() {
            let config = ScenarioConfig {
                link_error_rate: eps,
                algorithm: kind,
                ..base.clone()
            };
            let result = run_scenario(&config);
            println!(
                "{:<16} {:>9.1}% {:>14.1} {:>12.3}",
                kind.name(),
                result.delivery_rate * 100.0,
                result.gossip_per_dispatcher,
                result.gossip_event_ratio
            );
        }
        println!();
    }
    println!("Note how the reactive pull strategies send almost nothing when");
    println!("the network is nearly reliable, while push gossips regardless —");
    println!("the trade-off the paper discusses around its Figure 10.");
}
