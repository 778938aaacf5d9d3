//! The closed set of recovery strategies: one `const` table of named
//! rows.
//!
//! Each row names which kind of [`Strategy`] state it builds — and,
//! for the pull and summary kinds, the route or mode — and declares the
//! infrastructure it needs from the dispatching layer: route recording,
//! and the event-cache indexes its digests read. [`Algorithm`] is
//! a `Copy` handle on a row — what CLI parsing, scenario configuration,
//! node construction, experiment drivers and benchmarks all work in
//! terms of — and [`Algorithm::build`] turns it into the per-dispatcher
//! [`Strategy`].
//!
//! The rows, in the order the paper's figures list them:
//!
//! | name              | state     | cache indexes      | digest steered                                |
//! |-------------------|-----------|--------------------|-----------------------------------------------|
//! | `no-recovery`     | —         | ids                | —                                             |
//! | `random-pull`     | pull      | seqs               | to random neighbors (TTL)                     |
//! | `push`            | push      | ids + lists        | along a known pattern's routes                |
//! | `subscriber-pull` | pull      | seqs               | along a lost pattern's routes                 |
//! | `combined-pull`   | pull      | seqs               | publisher's route w.p. `P_source`, else as subscriber-pull |
//! | `publisher-pull`  | pull      | seqs               | back along the publisher's route              |
//! | `push-pull`       | push-pull | ids + lists + seqs | push and subscriber-pull rounds, alternating  |
//! | `summary-push`    | summary   | ids + summary      | along a known pattern's routes                |
//! | `summary-pull`    | summary   | ids + seen         | along a known pattern's routes                |
//!
//! The cache indexes are [`CacheIndexes`] columns: a request or a
//! summary expansion names events by id (`ids`), a push digest lists a
//! pattern's cached ids (`pattern_ids`, "lists"), a pull route serves
//! the negative digests it receives by (source, pattern, seq)
//! (`pattern_seqs`, "seqs"), and summary reconciliation reads one
//! hash-range index: over the live ids in push mode (`summary`), over
//! every id ever admitted in pull mode (`seen`). The pull rows build no
//! id index: no one sends them a request, and a request that reaches
//! one anyway is dropped ([`Strategy::on_request`]). `no-recovery`
//! keeps the id index so that it still answers requests, like every
//! strategy that can.
//!
//! `push-pull` reuses the push and pull wire forms; no new message
//! exists for it. The `summary-*` extensions (aliases `merkle-push` /
//! `merkle-pull`) replace the linear id list with hash-range tree
//! aggregates, making anti-entropy wire cost sublinear in cache size;
//! they require the dispatcher to maintain a
//! [`eps_pubsub::SummaryIndex`], declared in their row's cache indexes.

use std::fmt;
use std::str::FromStr;

use eps_pubsub::CacheIndexes;

use crate::algorithm::{State, Strategy};
use crate::config::{GossipConfig, MAX_ATTEMPTS};
use crate::lost::LostBuffer;
use crate::policy::{Pace, PullRoute, PushState, Schedule};
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
    /// Alternative names `Algorithm`'s `FromStr` (and so the CLI)
    /// accepts.
    aliases: &'static [&'static str],
    /// Event messages must record their route (source steering
    /// reverses it).
    needs_route_recording: bool,
    /// The event-cache indexes the strategy's digests read; a
    /// dispatcher builds exactly these.
    cache_indexes: CacheIndexes,
    variant: Variant,
}

const fn row(
    name: &'static str,
    aliases: &'static [&'static str],
    needs_route_recording: bool,
    cache_indexes: CacheIndexes,
    variant: Variant,
) -> Row {
    Row {
        name,
        aliases,
        needs_route_recording,
        cache_indexes,
        variant,
    }
}

/// The cache index sets the rows use.
const IDS: CacheIndexes = CacheIndexes {
    ids: true,
    ..CacheIndexes::NONE
};
const IDS_LISTS: CacheIndexes = CacheIndexes {
    pattern_ids: true,
    ..IDS
};
const SEQS: CacheIndexes = CacheIndexes {
    pattern_seqs: true,
    ..CacheIndexes::NONE
};
const IDS_LISTS_SEQS: CacheIndexes = CacheIndexes {
    pattern_seqs: true,
    ..IDS_LISTS
};
const IDS_SUMMARY: CacheIndexes = CacheIndexes {
    summary: true,
    ..IDS
};
const IDS_SEEN: CacheIndexes = CacheIndexes { seen: true, ..IDS };

/// Every strategy, in [`Algorithm::all`] order. The flag is
/// `needs_route_recording`; the set after it, the cache indexes.
#[rustfmt::skip]
const TABLE: &[Row] = &[
    row("no-recovery",     &["none", "baseline"], false, IDS,            Variant::NoRecovery),
    row("random-pull",     &["random"],           false, SEQS,           Variant::Pull(PullRoute::Random)),
    row("push",            &[],                   false, IDS_LISTS,      Variant::Push),
    row("subscriber-pull", &["sub-pull"],         false, SEQS,           Variant::Pull(PullRoute::Subscriber)),
    row("combined-pull",   &["combined"],         true,  SEQS,           Variant::Pull(PullRoute::Combined)),
    row("publisher-pull",  &["pub-pull"],         true,  SEQS,           Variant::Pull(PullRoute::Publisher)),
    row("push-pull",       &["hybrid"],           false, IDS_LISTS_SEQS, Variant::PushPull),
    row("summary-push",    &["merkle-push"],      false, IDS_SUMMARY,    Variant::Summary(SummaryMode::Push)),
    row("summary-pull",    &["merkle-pull"],      false, IDS_SEEN,       Variant::Summary(SummaryMode::Pull)),
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
/// let algo: Algorithm = "Combined-Pull".parse().unwrap(); // case-insensitive
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

    /// The event-cache indexes this strategy reads, which a dispatcher
    /// running it builds (and no others).
    pub fn cache_indexes(self) -> CacheIndexes {
        self.0.cache_indexes
    }

    /// Builds a fresh per-dispatcher instance of this strategy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GossipConfig::check`].
    pub fn build(self, config: GossipConfig) -> Strategy {
        config.check().unwrap_or_else(|message| panic!("{message}"));
        let lost = || LostBuffer::with_capacity(MAX_ATTEMPTS, config.resolved_lost_capacity());
        let (schedule, state) = match self.0.variant {
            Variant::NoRecovery => (Schedule::Pull, State::NoRecovery),
            Variant::Push => (Schedule::Push, State::Push(PushState::default())),
            Variant::Pull(route) => (
                Schedule::Pull,
                State::Pull {
                    lost: Box::new(lost()),
                    route,
                },
            ),
            Variant::PushPull => (
                Schedule::Alternate { pull_next: false },
                State::PushPull {
                    push: PushState::default(),
                    lost: Box::new(lost()),
                },
            ),
            Variant::Summary(mode) => (Schedule::Push, State::Summary(SummaryState::new(mode))),
        };
        Strategy {
            config,
            pace: Pace::new(schedule),
            state,
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

/// Looks up an algorithm by name or alias, case-insensitively; the
/// error lists the canonical names when nothing matches.
impl FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
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
    /// route recording, cache indexes — in `all()` order — plus the
    /// `paper()` order. A row edit that moves a CLI name, an alias, a
    /// CSV header or a dispatcher requirement fails here first.
    #[test]
    fn the_table_is_pinned() {
        let rows: [(&str, &[&str], bool, CacheIndexes); 9] = [
            ("no-recovery", &["none", "baseline"], false, IDS),
            ("random-pull", &["random"], false, SEQS),
            ("push", &[], false, IDS_LISTS),
            ("subscriber-pull", &["sub-pull"], false, SEQS),
            ("combined-pull", &["combined"], true, SEQS),
            ("publisher-pull", &["pub-pull"], true, SEQS),
            ("push-pull", &["hybrid"], false, IDS_LISTS_SEQS),
            ("summary-push", &["merkle-push"], false, IDS_SUMMARY),
            ("summary-pull", &["merkle-pull"], false, IDS_SEEN),
        ];
        let all: Vec<(&str, &[&str], bool, CacheIndexes)> = Algorithm::all()
            .into_iter()
            .map(|a| {
                (
                    a.name(),
                    a.0.aliases,
                    a.needs_route_recording(),
                    a.cache_indexes(),
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
            let algo: Algorithm = name.parse().unwrap();
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

    /// Each row's cache indexes are exactly those its kind of state
    /// reads: push digests list a pattern's ids, pull routes serve by
    /// (source, pattern, seq), summary reconciliation reads the live
    /// summary index in push mode and the seen one in pull mode, and
    /// every kind that answers requests or expands summaries looks
    /// events up by id. A dispatcher detects losses exactly where its
    /// cache has the seq index, so this also pins that only the rows
    /// with a `Lost` buffer — pull and push-pull — detect them.
    #[test]
    fn each_row_builds_the_indexes_its_state_reads() {
        for algo in Algorithm::all() {
            let reads = match algo.build(GossipConfig::default()).state {
                State::NoRecovery => IDS,
                State::Push(_) => IDS_LISTS,
                State::Pull { .. } => SEQS,
                State::PushPull { .. } => IDS_LISTS_SEQS,
                State::Summary(summary) => match summary.mode {
                    SummaryMode::Push => IDS_SUMMARY,
                    SummaryMode::Pull => IDS_SEEN,
                },
            };
            assert_eq!(algo.cache_indexes(), reads, "{algo}");
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
