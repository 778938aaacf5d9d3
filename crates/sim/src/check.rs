//! A seeded property harness: run one closure over many
//! deterministic random streams and say which one broke it.
//!
//! The case seeds are a pure function of the property's name, so every
//! `cargo test` run checks the same inputs and a failure is never a
//! flake. There is no shrinking: a failing case prints its seed, and
//! [`replay`] with that seed re-runs exactly that case — which is also
//! how a seed, once found, is pinned as a regression test.

use crate::rng::{Rng, RngFactory};

/// Names the failing case on stderr while its panic unwinds past.
struct ReportOnPanic<'a> {
    name: &'a str,
    seed: u64,
}

impl Drop for ReportOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property {} failed: replay with seed {:#018x}",
                self.name, self.seed
            );
        }
    }
}

/// Runs `property` on the one random stream `seed` selects; if it
/// panics, the seed is printed to stderr before the panic propagates.
///
/// # Examples
///
/// ```
/// // A seed printed by a failing `forall`, pinned as a regression case.
/// eps_sim::check::replay("halving_never_grows", 0x9e37_79b9_7f4a_7c15, |rng| {
///     let x = rng.next_u64();
///     assert!(x / 2 <= x);
/// });
/// ```
pub fn replay(name: &str, seed: u64, mut property: impl FnMut(&mut Rng)) {
    let _report = ReportOnPanic { name, seed };
    property(&mut Rng::from_seed(seed));
}

/// Runs `property` on `cases` random streams derived from `name`: the
/// same streams on every run, distinct across differently named
/// properties. The closure draws its own inputs from the [`Rng`] and
/// asserts; the first failing case stops the run and prints its seed.
///
/// # Examples
///
/// ```
/// eps_sim::check::forall("sample_indices_are_sorted", 64, |rng| {
///     let length = rng.random_range(1..50usize);
///     let picked = rng.sample_indices(length, length / 2);
///     assert!(picked.windows(2).all(|w| w[0] < w[1]));
/// });
/// ```
pub fn forall(name: &str, cases: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        replay(name, RngFactory::new(case).stream_seed(name), &mut property);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAKY: &str = "one_draw_in_four_is_zero";

    fn flaky(rng: &mut Rng) {
        assert!(rng.random_below(4) != 0, "drew zero");
    }

    /// Fails on purpose; the test below re-runs it in a child process
    /// to read what a failing property leaves on stderr.
    #[test]
    #[should_panic(expected = "drew zero")]
    fn a_failing_case_stops_the_run() {
        forall(FLAKY, 64, flaky);
    }

    #[test]
    fn a_failing_case_prints_a_seed_that_replays_the_failure() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["check::tests::a_failing_case_stops_the_run", "--exact"])
            .arg("--nocapture") // or libtest swallows the child test's stderr
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&child.stderr);
        let marker = format!("property {FLAKY} failed: replay with seed 0x");
        let at = stderr.find(&marker).expect("no replay line on stderr") + marker.len();
        let seed = u64::from_str_radix(&stderr[at..at + 16], 16).unwrap();

        let failure = std::panic::catch_unwind(|| replay(FLAKY, seed, flaky)).unwrap_err();
        assert_eq!(failure.downcast_ref::<&str>(), Some(&"drew zero"));
    }

    #[test]
    fn cases_are_distinct_and_stable_across_runs() {
        let draws = |name: &str| {
            let mut seen = Vec::new();
            forall(name, 32, |rng| seen.push(rng.next_u64()));
            seen
        };
        let first = draws("a");
        assert_eq!(first, draws("a"));
        assert_ne!(first, draws("b"));
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), first.len());
    }
}
