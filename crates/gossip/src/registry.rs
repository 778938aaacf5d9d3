//! The closed set of recovery strategies: one `const` table of named
//! digest × steering compositions.
//!
//! Each row names a composition of the policy stages in
//! [`crate::policy`] and declares the infrastructure it needs from the
//! dispatching layer. [`Algorithm`] is a `Copy` handle on a row — what
//! CLI parsing, scenario configuration, node construction, experiment
//! drivers and benchmarks all work in terms of — and
//! [`Algorithm::build`] turns it into the per-dispatcher [`Strategy`].
//! Adding a strategy is one row here plus one [`Strategy`] arm.
//!
//! The rows, in the order the paper's figures list them:
//!
//! | name              | digest                | steering                      |
//! |-------------------|-----------------------|-------------------------------|
//! | `no-recovery`     | —                     | —                             |
//! | `random-pull`     | negative              | random (TTL)                  |
//! | `push`            | positive              | pattern                       |
//! | `subscriber-pull` | negative              | pattern                       |
//! | `combined-pull`   | negative              | mux(source, pattern)          |
//! | `publisher-pull`  | negative              | source                        |
//! | `push-pull`       | alternating pos/neg   | pattern                       |
//! | `summary-push`    | summary (push mode)   | pattern                       |
//! | `summary-pull`    | summary (pull mode)   | pattern                       |
//!
//! `push-pull` is the first dividend of the decomposition: a hybrid
//! built purely by composing existing stages — no new wire format, no
//! new algorithm struct. The `summary-*` extensions (aliases
//! `merkle-push` / `merkle-pull`) replace the linear id list with
//! hash-range tree aggregates, making anti-entropy wire cost sublinear
//! in cache size; they require the dispatcher to maintain a
//! [`eps_pubsub::SummaryIndex`], declared via
//! [`Algorithm::needs_summary_index`].

use std::fmt;
use std::str::FromStr;

use crate::algorithm::Strategy;
use crate::config::GossipConfig;
use crate::engine::GossipEngine;
use crate::policy::{
    AlternatingDigest, MuxSteering, NegativeDigest, PatternSteering, PositiveDigest,
    RandomSteering, SourceSteering,
};
use crate::summary::SummaryDigestPolicy;

/// Which [`Strategy`] arm a table row builds.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Variant {
    NoRecovery,
    RandomPull,
    Push,
    SubscriberPull,
    CombinedPull,
    PublisherPull,
    PushPull,
    SummaryPush,
    SummaryPull,
}

/// One table row: a named composition plus the infrastructure it
/// requires from the dispatching layer.
#[derive(PartialEq, Eq, Hash)]
struct Row {
    /// Canonical name — CSV headers, CLI, `Display`.
    name: &'static str,
    /// Alternative names accepted by [`Algorithm::named`] and the CLI.
    aliases: &'static [&'static str],
    /// Event messages must record their route (source steering
    /// reverses it).
    needs_route_recording: bool,
    /// Dispatchers must maintain the hash-range summary index over
    /// their event cache (summary reconciliation refines it).
    needs_summary_index: bool,
    variant: Variant,
}

const fn row(
    name: &'static str,
    aliases: &'static [&'static str],
    needs_route_recording: bool,
    needs_summary_index: bool,
    variant: Variant,
) -> Row {
    Row {
        name,
        aliases,
        needs_route_recording,
        needs_summary_index,
        variant,
    }
}

/// Every strategy, in [`Algorithm::all`] order. The two flags are
/// `needs_route_recording` and `needs_summary_index`.
#[rustfmt::skip]
const TABLE: &[Row] = &[
    row("no-recovery",     &["none", "baseline"], false, false, Variant::NoRecovery),
    row("random-pull",     &["random"],           false, false, Variant::RandomPull),
    row("push",            &[],                   false, false, Variant::Push),
    row("subscriber-pull", &["sub-pull"],         false, false, Variant::SubscriberPull),
    row("combined-pull",   &["combined"],         true,  false, Variant::CombinedPull),
    row("publisher-pull",  &["pub-pull"],         true,  false, Variant::PublisherPull),
    row("push-pull",       &["hybrid"],           false, false, Variant::PushPull),
    row("summary-push",    &["merkle-push"],      false, true,  Variant::SummaryPush),
    row("summary-pull",    &["merkle-pull"],      false, true,  Variant::SummaryPull),
];

/// The paper's figure order (golden suite, fig3/fig5 reproductions).
const PAPER_ORDER: [Variant; 6] = [
    Variant::NoRecovery,
    Variant::RandomPull,
    Variant::Push,
    Variant::SubscriberPull,
    Variant::CombinedPull,
    Variant::PublisherPull,
];

/// A `Copy` handle on one recovery strategy of the table.
///
/// # Examples
///
/// ```
/// use eps_gossip::{Algorithm, GossipConfig};
///
/// let algo = Algorithm::named("Combined-Pull").unwrap(); // case-insensitive
/// assert_eq!(algo.name(), "combined-pull");
/// let instance = algo.build(GossipConfig::default());
/// assert!(instance.is_idle());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Algorithm(&'static Row);

impl Algorithm {
    fn of(variant: Variant) -> Algorithm {
        Algorithm(
            TABLE
                .iter()
                .find(|row| row.variant == variant)
                .expect("every variant has a row"),
        )
    }

    /// Looks up an algorithm by name or alias, case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseAlgorithmError`] listing the canonical names
    /// when nothing matches.
    pub fn named(name: &str) -> Result<Algorithm, ParseAlgorithmError> {
        let wanted = name.trim();
        TABLE
            .iter()
            .find(|row| {
                row.name.eq_ignore_ascii_case(wanted)
                    || row.aliases.iter().any(|al| al.eq_ignore_ascii_case(wanted))
            })
            .map(Algorithm)
            .ok_or_else(|| ParseAlgorithmError {
                input: name.to_owned(),
            })
    }

    /// Every algorithm, in table order (the paper's six in its figure
    /// order, then the extensions).
    pub fn all() -> Vec<Algorithm> {
        TABLE.iter().map(Algorithm).collect()
    }

    /// The six strategies evaluated in the paper, in the order its
    /// figures list them. Extensions such as `push-pull` are *not*
    /// included — figure reproductions and the golden suite iterate
    /// over exactly these.
    pub fn paper() -> Vec<Algorithm> {
        PAPER_ORDER.into_iter().map(Algorithm::of).collect()
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        self.0.name
    }

    /// Whether event messages must record their route for this
    /// strategy.
    pub fn needs_route_recording(self) -> bool {
        self.0.needs_route_recording
    }

    /// Whether dispatchers must maintain the incremental cache summary
    /// index for this strategy.
    pub fn needs_summary_index(self) -> bool {
        self.0.needs_summary_index
    }

    /// Builds a fresh per-dispatcher instance of this strategy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GossipConfig::validate`].
    pub fn build(self, config: GossipConfig) -> Strategy {
        config.validate();
        let cfg = &config;
        match self.0.variant {
            Variant::NoRecovery => Strategy::NoRecovery,
            Variant::RandomPull => Strategy::RandomPull(GossipEngine::new(
                config,
                NegativeDigest::new(cfg),
                RandomSteering,
            )),
            Variant::Push => Strategy::Push(GossipEngine::new(
                config,
                PositiveDigest::new(),
                PatternSteering,
            )),
            Variant::SubscriberPull => Strategy::SubscriberPull(GossipEngine::new(
                config,
                NegativeDigest::new(cfg),
                PatternSteering,
            )),
            Variant::CombinedPull => Strategy::CombinedPull(GossipEngine::new(
                config,
                NegativeDigest::new(cfg),
                MuxSteering::new(SourceSteering, PatternSteering),
            )),
            Variant::PublisherPull => Strategy::PublisherPull(GossipEngine::new(
                config,
                NegativeDigest::new(cfg),
                SourceSteering,
            )),
            Variant::PushPull => Strategy::PushPull(GossipEngine::new(
                config,
                AlternatingDigest::new(cfg),
                PatternSteering,
            )),
            Variant::SummaryPush => Strategy::SummaryPush(GossipEngine::new(
                config,
                SummaryDigestPolicy::push(cfg),
                PatternSteering,
            )),
            Variant::SummaryPull => Strategy::SummaryPull(GossipEngine::new(
                config,
                SummaryDigestPolicy::pull(cfg),
                PatternSteering,
            )),
        }
    }

    /// The `no-recovery` baseline.
    pub fn no_recovery() -> Algorithm {
        Algorithm::of(Variant::NoRecovery)
    }

    /// The paper's proactive push strategy.
    pub fn push() -> Algorithm {
        Algorithm::of(Variant::Push)
    }

    /// The paper's subscriber-based pull strategy.
    pub fn subscriber_pull() -> Algorithm {
        Algorithm::of(Variant::SubscriberPull)
    }

    /// The paper's publisher-based pull strategy.
    pub fn publisher_pull() -> Algorithm {
        Algorithm::of(Variant::PublisherPull)
    }

    /// The paper's combined pull strategy (`P_source` mux).
    pub fn combined_pull() -> Algorithm {
        Algorithm::of(Variant::CombinedPull)
    }

    /// The paper's random-routing comparator.
    pub fn random_pull() -> Algorithm {
        Algorithm::of(Variant::RandomPull)
    }

    /// The push+pull hybrid (extension): alternating positive and
    /// negative digests on pattern steering.
    pub fn push_pull() -> Algorithm {
        Algorithm::of(Variant::PushPull)
    }

    /// Summary reconciliation, push mode (extension): hash-range tree
    /// digests on pattern steering, receivers fetch their deficit.
    pub fn summary_push() -> Algorithm {
        Algorithm::of(Variant::SummaryPush)
    }

    /// Summary reconciliation, pull mode (extension): hash-range tree
    /// digests on pattern steering, receivers serve the gossiper's
    /// deficit.
    pub fn summary_pull() -> Algorithm {
        Algorithm::of(Variant::SummaryPull)
    }
}

impl fmt::Debug for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Algorithm").field(&self.0.name).finish()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name)
    }
}

impl FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algorithm::named(s)
    }
}

/// Error returned when an algorithm name matches no table row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    input: String,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = TABLE.iter().map(|row| row.name).collect();
        write!(
            f,
            "unknown algorithm '{}'; registered: {}",
            self.input,
            names.join(", ")
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table as it stands, literally: canonical name, aliases,
    /// route recording, summary index — in `all()` order — plus the
    /// `paper()` order. A row edit that moves a CLI name, an alias, a
    /// CSV header or a dispatcher requirement fails here first.
    #[test]
    fn the_table_is_pinned() {
        let rows: [(&str, &[&str], bool, bool); 9] = [
            ("no-recovery", &["none", "baseline"], false, false),
            ("random-pull", &["random"], false, false),
            ("push", &[], false, false),
            ("subscriber-pull", &["sub-pull"], false, false),
            ("combined-pull", &["combined"], true, false),
            ("publisher-pull", &["pub-pull"], true, false),
            ("push-pull", &["hybrid"], false, false),
            ("summary-push", &["merkle-push"], false, true),
            ("summary-pull", &["merkle-pull"], false, true),
        ];
        let all: Vec<(&str, &[&str], bool, bool)> = Algorithm::all()
            .into_iter()
            .map(|a| {
                (
                    a.name(),
                    a.0.aliases,
                    a.needs_route_recording(),
                    a.needs_summary_index(),
                )
            })
            .collect();
        assert_eq!(all, rows);

        let paper: Vec<&str> = Algorithm::paper()
            .into_iter()
            .map(Algorithm::name)
            .collect();
        assert_eq!(
            paper,
            [
                "no-recovery",
                "random-pull",
                "push",
                "subscriber-pull",
                "combined-pull",
                "publisher-pull",
            ]
        );

        for (name, aliases, ..) in rows {
            let algo = Algorithm::named(name).unwrap();
            assert_eq!(algo.name(), name);
            for spelling in std::iter::once(name).chain(aliases.iter().copied()) {
                for cased in [spelling.to_uppercase(), format!(" {spelling} ")] {
                    assert_eq!(cased.parse::<Algorithm>().unwrap(), algo, "{cased}");
                }
            }
        }
    }

    /// Each row builds the [`Strategy`] arm of the same name, with an
    /// empty `Lost` buffer.
    #[test]
    fn build_constructs_every_entry() {
        for algo in Algorithm::all() {
            let instance = algo.build(GossipConfig::default());
            let arm = match &instance {
                Strategy::NoRecovery => "no-recovery",
                Strategy::RandomPull(_) => "random-pull",
                Strategy::Push(_) => "push",
                Strategy::SubscriberPull(_) => "subscriber-pull",
                Strategy::CombinedPull(_) => "combined-pull",
                Strategy::PublisherPull(_) => "publisher-pull",
                Strategy::PushPull(_) => "push-pull",
                Strategy::SummaryPush(_) => "summary-push",
                Strategy::SummaryPull(_) => "summary-pull",
            };
            assert_eq!(arm, algo.name());
            assert_eq!(instance.outstanding_losses(), 0);
            assert_eq!(instance.lost_evictions(), 0);
        }
    }

    #[test]
    fn unknown_name_error_lists_every_name() {
        let err = "bogus".parse::<Algorithm>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown algorithm 'bogus'; registered: no-recovery, random-pull, push, \
             subscriber-pull, combined-pull, publisher-pull, push-pull, summary-push, \
             summary-pull"
        );
    }
}
