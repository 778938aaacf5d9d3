//! Extension experiment: buffer replacement policies.
//!
//! The paper uses plain FIFO buffers and flags buffer optimization
//! (its reference \[13\], Ozkasap et al., "Efficient Buffering in
//! Reliable Multicast Protocols") as ongoing work. This experiment
//! compares FIFO against random eviction and a source-biased policy
//! that protects self-published events, at buffer sizes small enough
//! for the policy to matter.

use eps_gossip::Algorithm;
use eps_metrics::CsvTable;
use eps_pubsub::EvictionPolicy;

use super::common::{base_config, grid, run_cells, ExperimentOptions, ExperimentOutput};
use crate::config::ScenarioConfig;

const POLICIES: [(&str, EvictionPolicy); 3] = [
    ("fifo", EvictionPolicy::Fifo),
    ("random", EvictionPolicy::Random { seed: 0x5eed }),
    (
        "source-biased",
        EvictionPolicy::SourceBiased { own_permille: 300 },
    ),
];

/// Runs the buffer-policy ablation: delivery per eviction policy at
/// small buffer sizes, for push and combined pull.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let betas = grid(opts, &[250usize, 500, 1000], &[150, 250, 500, 1000, 1500]);
    let algorithms = [Algorithm::push(), Algorithm::combined_pull()];
    let mut table = CsvTable::new(vec![
        "beta".into(),
        "algorithm".into(),
        "policy".into(),
        "delivery".into(),
        "events_recovered".into(),
    ]);
    let mut text = String::from(
        "Extension — buffer replacement policies (paper cites [13] as\n\
         ongoing work; the evaluation itself is FIFO-only)\n\
         source-biased reserves 30% of beta for self-published events —\n\
         the copies only the publisher can serve to publisher-bound\n\
         gossip. Expectation: it helps combined pull at small beta;\n\
         random eviction trades tail retention against recency.\n\n",
    );
    let configs: Vec<ScenarioConfig> = algorithms
        .iter()
        .flat_map(|kind| {
            betas.iter().flat_map(move |&beta| {
                POLICIES
                    .iter()
                    .map(move |&(_, policy)| (*kind, beta, policy))
            })
        })
        .map(|(kind, beta, policy)| {
            let mut config = base_config(opts).with_algorithm(kind);
            config.buffer_size = beta;
            config.eviction = policy;
            config
        })
        .collect();
    let mut results = run_cells(opts, &configs).into_iter();
    for kind in algorithms {
        for &beta in &betas {
            let mut line = format!("  {:<14} beta={beta:<5}", kind.name());
            for (name, _) in POLICIES {
                let r = results.next().expect("one result per cell");
                table.push_row(vec![
                    beta.to_string(),
                    kind.name().into(),
                    name.into(),
                    format!("{:.3}", r.delivery_rate),
                    r.events_recovered.to_string(),
                ]);
                line.push_str(&format!(" {name}={:.3}", r.delivery_rate));
            }
            line.push('\n');
            text.push_str(&line);
        }
    }
    ExperimentOutput {
        id: "ext-buffers",
        title: "Extension: buffer replacement policies (ref [13])",
        tables: vec![("policies".into(), table)],
        text,
    }
}
