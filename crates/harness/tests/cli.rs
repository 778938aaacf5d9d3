//! `simulate` on an invalid scenario: a usage error, not a panic.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate starts")
}

/// A degree bound above what a routing-table row holds is named, with
/// the usage, and exits 1; the largest bound a row holds runs.
#[test]
fn a_degree_bound_above_the_row_width_is_a_usage_error() {
    let rejected = simulate(&["--max-degree", "64"]);
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert_eq!(rejected.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: max_degree 64 is above MAX_NEIGHBORS = 63"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: simulate"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let accepted = simulate(&["--max-degree", "63", "--duration", "0.1"]);
    let stderr = String::from_utf8_lossy(&accepted.stderr);
    assert_eq!(accepted.status.code(), Some(0), "{stderr}");
}
