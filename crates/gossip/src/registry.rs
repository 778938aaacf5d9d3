//! The closed set of recovery strategies: one `const` table of named
//! rows.
//!
//! Each row names which kind of [`Strategy`] state it builds — and,
//! for the pull and summary kinds, the route or mode — and declares the
//! infrastructure it needs from the dispatching layer. [`Algorithm`] is
//! a `Copy` handle on a row — what CLI parsing, scenario configuration,
//! node construction, experiment drivers and benchmarks all work in
//! terms of — and [`Algorithm::build`] turns it into the per-dispatcher
//! [`Strategy`].
//!
//! The rows, in the order the paper's figures list them:
//!
//! | name              | state     | digest steered                                |
//! |-------------------|-----------|-----------------------------------------------|
//! | `no-recovery`     | —         | —                                             |
//! | `random-pull`     | pull      | to random neighbors (TTL)                     |
//! | `push`            | push      | along a known pattern's routes                |
//! | `subscriber-pull` | pull      | along a lost pattern's routes                 |
//! | `combined-pull`   | pull      | publisher's route w.p. `P_source`, else as subscriber-pull |
//! | `publisher-pull`  | pull      | back along the publisher's route              |
//! | `push-pull`       | push-pull | push and subscriber-pull rounds, alternating  |
//! | `summary-push`    | summary   | along a known pattern's routes                |
//! | `summary-pull`    | summary   | along a known pattern's routes                |
//!
//! `push-pull` reuses the push and pull wire forms; no new message
//! exists for it. The `summary-*` extensions (aliases `merkle-push` /
//! `merkle-pull`) replace the linear id list with hash-range tree
//! aggregates, making anti-entropy wire cost sublinear in cache size;
//! they require the dispatcher to maintain a
//! [`eps_pubsub::SummaryIndex`], declared via
//! [`Algorithm::needs_summary_index`].

use std::fmt;
use std::str::FromStr;

use crate::algorithm::{State, Strategy};
use crate::config::GossipConfig;
use crate::lost::LostBuffer;
use crate::policy::{PullRoute, PushState};
use crate::summary::{SummaryMode, SummaryState};

/// Which kind of [`Strategy`] state a table row builds.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Variant {
    NoRecovery,
    Push,
    Pull(PullRoute),
    PushPull,
    Summary(SummaryMode),
}

/// One table row: a named strategy plus the infrastructure it
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
    row("random-pull",     &["random"],           false, false, Variant::Pull(PullRoute::Random)),
    row("push",            &[],                   false, false, Variant::Push),
    row("subscriber-pull", &["sub-pull"],         false, false, Variant::Pull(PullRoute::Subscriber)),
    row("combined-pull",   &["combined"],         true,  false, Variant::Pull(PullRoute::Combined)),
    row("publisher-pull",  &["pub-pull"],         true,  false, Variant::Pull(PullRoute::Publisher)),
    row("push-pull",       &["hybrid"],           false, false, Variant::PushPull),
    row("summary-push",    &["merkle-push"],      false, true,  Variant::Summary(SummaryMode::Push)),
    row("summary-pull",    &["merkle-pull"],      false, true,  Variant::Summary(SummaryMode::Pull)),
];

/// The paper's figure order (golden suite, fig3/fig5 reproductions).
const PAPER_ORDER: [Variant; 6] = [
    Variant::NoRecovery,
    Variant::Pull(PullRoute::Random),
    Variant::Push,
    Variant::Pull(PullRoute::Subscriber),
    Variant::Pull(PullRoute::Combined),
    Variant::Pull(PullRoute::Publisher),
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
        let lost =
            || LostBuffer::with_capacity(config.max_attempts, config.resolved_lost_capacity());
        let state = match self.0.variant {
            Variant::NoRecovery => State::NoRecovery,
            Variant::Push => State::Push(PushState::default()),
            Variant::Pull(route) => State::Pull {
                lost: lost(),
                route,
            },
            Variant::PushPull => State::PushPull {
                push: PushState::default(),
                lost: lost(),
                round: 0,
            },
            Variant::Summary(mode) => State::Summary(SummaryState::new(mode, &config)),
        };
        Strategy { config, state }
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
        Algorithm::of(Variant::Pull(PullRoute::Subscriber))
    }

    /// The paper's publisher-based pull strategy.
    pub fn publisher_pull() -> Algorithm {
        Algorithm::of(Variant::Pull(PullRoute::Publisher))
    }

    /// The paper's combined pull strategy (`P_source` mux).
    pub fn combined_pull() -> Algorithm {
        Algorithm::of(Variant::Pull(PullRoute::Combined))
    }

    /// The paper's random-routing comparator.
    pub fn random_pull() -> Algorithm {
        Algorithm::of(Variant::Pull(PullRoute::Random))
    }

    /// The push+pull hybrid (extension): push rounds and
    /// subscriber-pull rounds, alternating.
    pub fn push_pull() -> Algorithm {
        Algorithm::of(Variant::PushPull)
    }

    /// Summary reconciliation, push mode (extension): hash-range tree
    /// digests steered like push digests, receivers fetch their
    /// deficit.
    pub fn summary_push() -> Algorithm {
        Algorithm::of(Variant::Summary(SummaryMode::Push))
    }

    /// Summary reconciliation, pull mode (extension): hash-range tree
    /// digests steered like push digests, receivers serve the
    /// gossiper's deficit.
    pub fn summary_pull() -> Algorithm {
        Algorithm::of(Variant::Summary(SummaryMode::Pull))
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

    /// Each row builds the [`Strategy`] state of its name, with an
    /// empty `Lost` buffer.
    #[test]
    fn build_constructs_every_entry() {
        for algo in Algorithm::all() {
            let instance = algo.build(GossipConfig::default());
            let arm = match &instance.state {
                State::NoRecovery => "no-recovery",
                State::Pull { route, .. } => match route {
                    PullRoute::Random => "random-pull",
                    PullRoute::Subscriber => "subscriber-pull",
                    PullRoute::Combined => "combined-pull",
                    PullRoute::Publisher => "publisher-pull",
                },
                State::Push(_) => "push",
                State::PushPull { .. } => "push-pull",
                State::Summary(summary) => match summary.mode {
                    SummaryMode::Push => "summary-push",
                    SummaryMode::Pull => "summary-pull",
                },
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
