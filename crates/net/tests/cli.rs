//! `net_cluster` on an invalid scenario: a usage error, not a panic.

use std::process::Command;

#[test]
fn a_cluster_of_no_nodes_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_net_cluster"))
        .args(["--nodes", "0"])
        .output()
        .expect("net_cluster starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: need at least one dispatcher"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: net_cluster"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_cluster_without_queue_room_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_net_cluster"))
        .args(["--nodes", "3", "--queue-capacity", "0"])
        .output()
        .expect("net_cluster starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: queues need capacity"), "{stderr}");
    assert!(stderr.contains("usage: net_cluster"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
