//! The algorithm registry: named digest × steering compositions.
//!
//! The paper's six strategies are registered here as compositions of
//! the policy stages in [`crate::policy`] — adding a strategy is one
//! [`Algorithm::register`] call, not a new module plus call-site
//! edits. The registry replaces the old closed `AlgorithmKind` enum
//! everywhere it was consumed: CLI parsing, scenario configuration,
//! node construction, experiment drivers, and benchmarks all work in
//! terms of [`Algorithm`] handles.
//!
//! Built-in entries, in the order the paper's figures list them:
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
//! strategy registered purely by composing existing stages — no new
//! wire format, no new algorithm struct. The `summary-*` extensions
//! (aliases `merkle-push` / `merkle-pull`) replace the linear id list
//! with hash-range tree aggregates, making anti-entropy wire cost
//! sublinear in cache size; they require the dispatcher to maintain a
//! [`eps_pubsub::SummaryIndex`], declared via
//! [`Algorithm::needs_summary_index`].

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock, RwLock};

use crate::algorithm::{NoRecovery, RecoveryAlgorithm};
use crate::config::GossipConfig;
use crate::engine::GossipEngine;
use crate::policy::{
    AlternatingDigest, MuxSteering, NegativeDigest, PatternSteering, PositiveDigest,
    RandomSteering, SourceSteering,
};
use crate::summary::SummaryDigestPolicy;

/// Constructor for per-dispatcher strategy instances.
pub type AlgorithmBuilder = dyn Fn(GossipConfig) -> Box<dyn RecoveryAlgorithm> + Send + Sync;

/// One registry entry: a named recovery-strategy composition plus the
/// infrastructure it requires from the dispatching layer.
pub struct AlgorithmDef {
    /// Canonical name — CSV headers, CLI, [`RecoveryAlgorithm::name`].
    pub name: String,
    /// Alternative names accepted by [`Algorithm::named`] and the CLI.
    pub aliases: Vec<String>,
    /// Whether publishers must cache their own events (source-steered
    /// strategies pull towards the publisher, who must be able to
    /// serve).
    pub needs_publisher_cache: bool,
    /// Whether event messages must record their route (source steering
    /// reverses it).
    pub needs_route_recording: bool,
    /// Whether dispatchers must maintain the incremental hash-range
    /// [`eps_pubsub::SummaryIndex`] over their event cache (the
    /// summary-reconciliation strategies compare and refine it).
    pub needs_summary_index: bool,
    /// Builds a fresh per-dispatcher instance.
    pub build: Arc<AlgorithmBuilder>,
}

impl fmt::Debug for AlgorithmDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmDef")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("needs_publisher_cache", &self.needs_publisher_cache)
            .field("needs_route_recording", &self.needs_route_recording)
            .field("needs_summary_index", &self.needs_summary_index)
            .finish_non_exhaustive()
    }
}

/// A cheap handle on a registered recovery strategy.
///
/// Equality, ordering of lookups, hashing, and `Display` all work on
/// the canonical name, so an `Algorithm` behaves like the enum variant
/// it replaced — except that the set of algorithms is open.
///
/// # Examples
///
/// ```
/// use eps_gossip::{Algorithm, GossipConfig};
///
/// let algo = Algorithm::named("Combined-Pull").unwrap(); // case-insensitive
/// assert_eq!(algo.name(), "combined-pull");
/// let mut instance = algo.build(GossipConfig::default());
/// assert_eq!(instance.name(), "combined-pull");
/// assert!(instance.is_idle());
/// ```
#[derive(Clone)]
pub struct Algorithm(Arc<AlgorithmDef>);

impl Algorithm {
    /// Looks up a registered algorithm by name or alias,
    /// case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseAlgorithmError`] listing the registered names
    /// when nothing matches.
    pub fn named(name: &str) -> Result<Algorithm, ParseAlgorithmError> {
        let wanted = name.trim();
        let entries = registry().read().expect("algorithm registry poisoned");
        entries
            .iter()
            .find(|a| {
                a.0.name.eq_ignore_ascii_case(wanted)
                    || a.0.aliases.iter().any(|al| al.eq_ignore_ascii_case(wanted))
            })
            .cloned()
            .ok_or_else(|| ParseAlgorithmError {
                input: name.to_owned(),
                registered: entries.iter().map(|a| a.0.name.clone()).collect(),
            })
    }

    /// Every registered algorithm, in registration order (built-ins
    /// first, in the paper's figure order).
    pub fn all() -> Vec<Algorithm> {
        registry()
            .read()
            .expect("algorithm registry poisoned")
            .clone()
    }

    /// The six strategies evaluated in the paper, in the order its
    /// figures list them. Extensions such as `push-pull` are *not*
    /// included — figure reproductions and the golden suite iterate
    /// over exactly these.
    pub fn paper() -> Vec<Algorithm> {
        PAPER_ORDER
            .iter()
            .map(|name| Algorithm::named(name).expect("built-in algorithm registered"))
            .collect()
    }

    /// Registers (or replaces, matching case-insensitively by name) an
    /// algorithm definition and returns its handle.
    pub fn register(def: AlgorithmDef) -> Algorithm {
        let handle = Algorithm(Arc::new(def));
        let mut entries = registry().write().expect("algorithm registry poisoned");
        match entries
            .iter_mut()
            .find(|a| a.0.name.eq_ignore_ascii_case(&handle.0.name))
        {
            Some(slot) => *slot = handle.clone(),
            None => entries.push(handle.clone()),
        }
        handle
    }

    /// Canonical name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Accepted alternative names.
    pub fn aliases(&self) -> &[String] {
        &self.0.aliases
    }

    /// Whether publishers must cache their own events for this
    /// strategy.
    pub fn needs_publisher_cache(&self) -> bool {
        self.0.needs_publisher_cache
    }

    /// Whether event messages must record their route for this
    /// strategy.
    pub fn needs_route_recording(&self) -> bool {
        self.0.needs_route_recording
    }

    /// Whether dispatchers must maintain the incremental cache summary
    /// index for this strategy.
    pub fn needs_summary_index(&self) -> bool {
        self.0.needs_summary_index
    }

    /// Builds a fresh per-dispatcher instance of this strategy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GossipConfig::validate`].
    pub fn build(&self, config: GossipConfig) -> Box<dyn RecoveryAlgorithm> {
        config.validate();
        (self.0.build)(config)
    }

    /// The `no-recovery` baseline.
    pub fn no_recovery() -> Algorithm {
        Algorithm::named("no-recovery").expect("built-in")
    }

    /// The paper's proactive push strategy.
    pub fn push() -> Algorithm {
        Algorithm::named("push").expect("built-in")
    }

    /// The paper's subscriber-based pull strategy.
    pub fn subscriber_pull() -> Algorithm {
        Algorithm::named("subscriber-pull").expect("built-in")
    }

    /// The paper's publisher-based pull strategy.
    pub fn publisher_pull() -> Algorithm {
        Algorithm::named("publisher-pull").expect("built-in")
    }

    /// The paper's combined pull strategy (`P_source` mux).
    pub fn combined_pull() -> Algorithm {
        Algorithm::named("combined-pull").expect("built-in")
    }

    /// The paper's random-routing comparator.
    pub fn random_pull() -> Algorithm {
        Algorithm::named("random-pull").expect("built-in")
    }

    /// The push+pull hybrid (extension): alternating positive and
    /// negative digests on pattern steering.
    pub fn push_pull() -> Algorithm {
        Algorithm::named("push-pull").expect("built-in")
    }

    /// Summary reconciliation, push mode (extension): hash-range tree
    /// digests on pattern steering, receivers fetch their deficit.
    pub fn summary_push() -> Algorithm {
        Algorithm::named("summary-push").expect("built-in")
    }

    /// Summary reconciliation, pull mode (extension): hash-range tree
    /// digests on pattern steering, receivers serve the gossiper's
    /// deficit.
    pub fn summary_pull() -> Algorithm {
        Algorithm::named("summary-pull").expect("built-in")
    }
}

impl fmt::Debug for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Algorithm").field(&self.0.name).finish()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.name)
    }
}

impl PartialEq for Algorithm {
    fn eq(&self, other: &Self) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for Algorithm {}

impl std::hash::Hash for Algorithm {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.name.hash(state);
    }
}

impl FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algorithm::named(s)
    }
}

/// Error returned when an algorithm name matches no registry entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    input: String,
    registered: Vec<String>,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown algorithm '{}'; registered: {}",
            self.input,
            self.registered.join(", ")
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

/// The paper's figure order (golden suite, fig3/fig5 reproductions).
const PAPER_ORDER: [&str; 6] = [
    "no-recovery",
    "random-pull",
    "push",
    "subscriber-pull",
    "combined-pull",
    "publisher-pull",
];

fn registry() -> &'static RwLock<Vec<Algorithm>> {
    static REGISTRY: OnceLock<RwLock<Vec<Algorithm>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(builtins()))
}

fn def(
    name: &str,
    aliases: &[&str],
    needs_source_infra: bool,
    build: impl Fn(GossipConfig) -> Box<dyn RecoveryAlgorithm> + Send + Sync + 'static,
) -> Algorithm {
    Algorithm(Arc::new(AlgorithmDef {
        name: name.to_owned(),
        aliases: aliases.iter().map(|s| (*s).to_owned()).collect(),
        needs_publisher_cache: needs_source_infra,
        needs_route_recording: needs_source_infra,
        needs_summary_index: false,
        build: Arc::new(build),
    }))
}

fn summary_def(
    name: &str,
    aliases: &[&str],
    build: impl Fn(GossipConfig) -> Box<dyn RecoveryAlgorithm> + Send + Sync + 'static,
) -> Algorithm {
    Algorithm(Arc::new(AlgorithmDef {
        name: name.to_owned(),
        aliases: aliases.iter().map(|s| (*s).to_owned()).collect(),
        needs_publisher_cache: false,
        needs_route_recording: false,
        needs_summary_index: true,
        build: Arc::new(build),
    }))
}

fn builtins() -> Vec<Algorithm> {
    vec![
        def("no-recovery", &["none", "baseline"], false, |_| {
            Box::new(NoRecovery)
        }),
        def("random-pull", &["random"], false, |cfg| {
            Box::new(GossipEngine::new(
                "random-pull",
                cfg,
                NegativeDigest::new(&cfg),
                RandomSteering,
            ))
        }),
        def("push", &[], false, |cfg| {
            Box::new(GossipEngine::new(
                "push",
                cfg,
                PositiveDigest::new(),
                PatternSteering,
            ))
        }),
        def("subscriber-pull", &["sub-pull"], false, |cfg| {
            Box::new(GossipEngine::new(
                "subscriber-pull",
                cfg,
                NegativeDigest::new(&cfg),
                PatternSteering,
            ))
        }),
        def("combined-pull", &["combined"], true, |cfg| {
            Box::new(GossipEngine::new(
                "combined-pull",
                cfg,
                NegativeDigest::new(&cfg),
                MuxSteering::new(SourceSteering, PatternSteering),
            ))
        }),
        def("publisher-pull", &["pub-pull"], true, |cfg| {
            Box::new(GossipEngine::new(
                "publisher-pull",
                cfg,
                NegativeDigest::new(&cfg),
                SourceSteering,
            ))
        }),
        def("push-pull", &["hybrid"], false, |cfg| {
            Box::new(GossipEngine::new(
                "push-pull",
                cfg,
                AlternatingDigest::new(&cfg),
                PatternSteering,
            ))
        }),
        summary_def("summary-push", &["merkle-push"], |cfg| {
            Box::new(GossipEngine::new(
                "summary-push",
                cfg,
                SummaryDigestPolicy::push(&cfg),
                PatternSteering,
            ))
        }),
        summary_def("summary-pull", &["merkle-pull"], |cfg| {
            Box::new(GossipEngine::new(
                "summary-pull",
                cfg,
                SummaryDigestPolicy::pull(&cfg),
                PatternSteering,
            ))
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_entries_keep_the_figure_order() {
        let names: Vec<String> = Algorithm::paper()
            .iter()
            .map(|a| a.name().to_owned())
            .collect();
        let expected: Vec<String> = PAPER_ORDER.iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for algo in Algorithm::all() {
            let parsed: Algorithm = algo.name().parse().unwrap();
            assert_eq!(parsed, algo);
        }
        assert!("bogus".parse::<Algorithm>().is_err());
    }

    #[test]
    fn lookup_is_case_insensitive_and_knows_aliases() {
        assert_eq!(Algorithm::named("PUSH").unwrap(), Algorithm::push());
        assert_eq!(
            Algorithm::named("Combined-Pull").unwrap(),
            Algorithm::combined_pull()
        );
        assert_eq!(Algorithm::named("none").unwrap(), Algorithm::no_recovery());
        assert_eq!(Algorithm::named("HYBRID").unwrap(), Algorithm::push_pull());
        assert_eq!(
            Algorithm::named(" sub-pull ").unwrap(),
            Algorithm::subscriber_pull()
        );
    }

    #[test]
    fn unknown_name_error_lists_registered_names() {
        let err = Algorithm::named("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm 'bogus'"), "{msg}");
        for name in PAPER_ORDER {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
        assert!(msg.contains("push-pull"), "{msg}");
    }

    #[test]
    fn requirements_match_the_paper() {
        assert!(Algorithm::publisher_pull().needs_publisher_cache());
        assert!(Algorithm::combined_pull().needs_route_recording());
        assert!(!Algorithm::push().needs_publisher_cache());
        assert!(!Algorithm::subscriber_pull().needs_route_recording());
        assert!(!Algorithm::no_recovery().needs_publisher_cache());
        assert!(!Algorithm::push_pull().needs_route_recording());
    }

    #[test]
    fn summary_entries_declare_their_index_and_stay_out_of_paper_order() {
        for algo in [Algorithm::summary_push(), Algorithm::summary_pull()] {
            assert!(algo.needs_summary_index());
            assert!(!algo.needs_publisher_cache());
            assert!(!algo.needs_route_recording());
            assert!(
                !Algorithm::paper().contains(&algo),
                "extensions must not perturb paper reproductions"
            );
        }
        for paper in Algorithm::paper() {
            assert!(!paper.needs_summary_index());
        }
        assert_eq!(
            Algorithm::named("merkle-push").unwrap(),
            Algorithm::summary_push()
        );
        assert_eq!(
            Algorithm::named("Merkle-Pull").unwrap(),
            Algorithm::summary_pull()
        );
    }

    #[test]
    fn build_constructs_every_entry() {
        for algo in Algorithm::all() {
            let instance = algo.build(GossipConfig::default());
            assert_eq!(instance.name(), algo.name());
            assert_eq!(instance.outstanding_losses(), 0);
            assert_eq!(instance.lost_evictions(), 0);
        }
    }

    #[test]
    fn custom_compositions_register_in_one_call() {
        let custom = Algorithm::register(AlgorithmDef {
            name: "test-random-push".to_owned(),
            aliases: vec!["trp".to_owned()],
            needs_publisher_cache: false,
            needs_route_recording: false,
            needs_summary_index: false,
            build: Arc::new(|cfg| {
                Box::new(GossipEngine::new(
                    "test-random-push",
                    cfg,
                    AlternatingDigest::new(&cfg),
                    RandomSteering,
                ))
            }),
        });
        assert_eq!(Algorithm::named("TRP").unwrap(), custom);
        let instance = custom.build(GossipConfig::default());
        assert_eq!(instance.name(), "test-random-push");
        assert!(Algorithm::all().iter().any(|a| a == &custom));
        // Paper reproductions are not perturbed by extensions.
        assert!(!Algorithm::paper().iter().any(|a| a == &custom));
    }
}
