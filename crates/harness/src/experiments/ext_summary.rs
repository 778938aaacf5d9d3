//! Extension experiment: summary reconciliation — anti-entropy wire
//! cost as the cache grows.
//!
//! The paper's digests announce the cache *linearly*: the wire cost of
//! a push or pull round grows O(C) with cache size C. The
//! `summary-push` / `summary-pull` table rows replace the id
//! list with hash-range tree aggregates (see [`eps_pubsub::summary`]),
//! reaching O(log C + Δ) bits for Δ differing events. This experiment
//! sweeps the buffer size β across two orders of magnitude and
//! compares the recovery-control wire bits (gossip digests plus
//! out-of-band requests) of both families.
//!
//! Accounting rule: a linear digest is charged the paper's flat
//! one-event rate, so its arm provisions the payload for a full-cache
//! announcement — header plus 96 bits per id for the cache's
//! per-pattern share (β / Π), never below the 1024-bit default. The
//! summary arms keep the default payload because their digests are
//! accounted exactly (`Envelope::wire_bits` sums the actual ranges and
//! details on the wire). Replies carry event copies in both families
//! and are excluded from the control figure.
//!
//! Expectation (the headline claim): linear control bits grow ≈100×
//! when β grows 100×; summary control bits stay within ~2× — at
//! equal-or-better window delivery.

use eps_gossip::Algorithm;
use eps_metrics::CsvTable;

use super::common::{base_config, f3, grid, run_cells, ExperimentOptions, ExperimentOutput};
use crate::config::ScenarioConfig;
use crate::result::ScenarioResult;

/// The flat per-digest payload a linear arm is provisioned with at
/// cache size `beta`: header + 96 bits per id of the per-pattern cache
/// share, floored at the scenario default.
fn linear_payload_bits(beta: usize, pattern_universe: u16) -> u64 {
    let ids = beta as u64 / u64::from(pattern_universe);
    (256 + 96 * ids).max(1024)
}

/// The compared arms: each linear digest family next to its summary
/// counterpart. `true` marks the arms whose payload scales with β.
fn arms() -> [(Algorithm, bool); 4] {
    [
        (Algorithm::push(), true),
        (Algorithm::summary_push(), false),
        (Algorithm::combined_pull(), true),
        (Algorithm::summary_pull(), false),
    ]
}

/// Runs the β sweep and tabulates control bits + delivery per arm.
pub fn run(opts: &ExperimentOptions) -> ExperimentOutput {
    let betas = grid(
        opts,
        &[1_500usize, 15_000, 150_000],
        &[1_500, 5_000, 15_000, 50_000, 150_000],
    );
    let mut text = String::from(
        "Extension — summary reconciliation (hash-range tree digests,\n\
         ROADMAP item 2): anti-entropy wire cost vs. cache size.\n\
         Linear arms are provisioned for a full-cache announcement\n\
         (flat payload = 256 + 96*beta/Pi bits); summary arms are\n\
         accounted exactly at the default payload. Control bits =\n\
         gossip digests + out-of-band requests, replies excluded.\n\n",
    );

    let configs: Vec<ScenarioConfig> = betas
        .iter()
        .flat_map(|&beta| {
            arms().into_iter().map(move |(algorithm, linear)| {
                let mut config = base_config(opts).with_algorithm(algorithm);
                config.buffer_size = beta;
                config.link_error_rate = 0.05;
                if linear {
                    config.event_payload_bits = linear_payload_bits(beta, config.pattern_universe);
                }
                config
            })
        })
        .collect();
    let results = run_cells(opts, &configs);
    let cell = |x: usize, col: usize| -> &ScenarioResult { &results[x * arms().len() + col] };

    let mut headers = vec!["beta".to_owned()];
    for (algorithm, _) in arms() {
        headers.push(format!("{}_control_bits", algorithm.name()));
        headers.push(format!("{}_delivery", algorithm.name()));
    }
    let mut table = CsvTable::new(headers);
    for (x, &beta) in betas.iter().enumerate() {
        let mut row = vec![beta.to_string()];
        for col in 0..arms().len() {
            let r = cell(x, col);
            row.push(r.recovery_control_bits().to_string());
            row.push(f3(r.delivery_rate));
        }
        table.push_row(row);
    }

    for (col, (algorithm, linear)) in arms().into_iter().enumerate() {
        let first = cell(0, col).recovery_control_bits().max(1);
        let last = cell(betas.len() - 1, col).recovery_control_bits();
        let family = if linear { "linear " } else { "summary" };
        text.push_str(&format!(
            "  {family} {:<14} control bits {} -> {} ({:.1}x over a {}x cache)\n",
            algorithm.name(),
            first,
            last,
            last as f64 / first as f64,
            betas[betas.len() - 1] / betas[0],
        ));
        let deliveries: Vec<String> = (0..betas.len())
            .map(|x| f3(cell(x, col).delivery_rate))
            .collect();
        text.push_str(&format!(
            "          {:<14} delivery [{}]\n",
            algorithm.name(),
            deliveries.join(", "),
        ));
    }

    ExperimentOutput {
        id: "ext-summary",
        title: "Extension: summary reconciliation wire cost (ROADMAP item 2)",
        tables: vec![("wire_vs_beta".into(), table)],
        text,
    }
}
