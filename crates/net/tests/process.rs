//! Multi-process mode: `run_process_node`, one node per call. Alone in
//! its test binary because it reserves ports by releasing them, which
//! a neighbouring test booting on ephemeral ports could grab.

use std::net::{TcpListener, UdpSocket};
use std::time::{Duration, Instant};

use eps_gossip::Algorithm;
use eps_harness::{run_scenario, ScenarioConfig};
use eps_net::{run_process_node, NetConfig, NodeAddrs};
use eps_sim::SimTime;

/// Three "processes" as three threads: each call boots the whole
/// population from the seed, runs its one node on the reserved
/// addresses and dials the others. Started in reverse id
/// order; whichever side comes up late is covered by dial retries, so
/// `connect_retries` may be non-zero. With no shared convergence
/// signal each call runs for exactly duration + drain and reports its
/// local view — the views together publish what the simulator does.
#[test]
fn three_process_nodes_publish_the_schedule_between_them() {
    let scenario = ScenarioConfig {
        seed: 31,
        nodes: 3,
        publish_rate: 20.0,
        link_error_rate: 0.0,
        pattern_universe: 6,
        pi_max: 2,
        duration: SimTime::from_millis(600),
        warmup: SimTime::from_millis(100),
        cooldown: SimTime::from_millis(100),
        gossip_interval: SimTime::from_millis(30),
        algorithm: Algorithm::push(),
        ..ScenarioConfig::default()
    };
    let sim = run_scenario(&scenario);
    let config = NetConfig {
        scenario,
        drain: Duration::from_millis(900),
        ..NetConfig::default()
    };
    let budget = Duration::from_millis(600) + config.drain;
    // Bound on port 0 and read back; all six stay bound until the last
    // is known, so no two nodes are handed the same port.
    let reserved: Vec<(TcpListener, UdpSocket)> = (0..3)
        .map(|_| {
            let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
            let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
            (tcp, udp)
        })
        .collect();
    let registry: Vec<NodeAddrs> = reserved
        .iter()
        .map(|(tcp, udp)| NodeAddrs {
            tcp: tcp.local_addr().expect("tcp addr"),
            udp: udp.local_addr().expect("udp addr"),
        })
        .collect();
    drop(reserved);

    let views: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .rev()
            .map(|index| {
                let (config, registry) = (&config, registry.clone());
                scope.spawn(move || {
                    let started = Instant::now();
                    let report = run_process_node(config, index, registry).expect("node boots");
                    (report, started.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    });

    let mut published = 0;
    let mut frames_received = 0;
    for (report, took) in &views {
        published += report.result.events_published;
        frames_received += report.net.frames_received;
        assert_eq!(report.net.decode_errors, 0, "codec never misparses");
        assert_eq!(report.trace_dropped, 0, "trace capacity sufficed");
        assert!(
            *took >= budget && *took < budget + Duration::from_millis(500),
            "a process node runs for duration + drain ({budget:?}); took {took:?}"
        );
    }
    assert_eq!(
        published, sim.events_published,
        "the local views together publish the simulator's schedule"
    );
    assert!(frames_received > 0, "tree links carried traffic");
}
