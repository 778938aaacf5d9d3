//! The five workloads: what runs, at which size, and why.
//!
//! Sizes are fixed here, not on the command line, so that two commits
//! are always compared on the same inputs; only the seed (population,
//! subscriptions, publish schedule, loss draws) and the length of the
//! measuring window are arguments.

use std::time::Duration;

use eps_gossip::Algorithm;
use eps_harness::ScenarioConfig;
use eps_net::NetConfig;
use eps_sim::SimTime;

/// Which of the program's two simulation runners a workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// `run_scenario`, the serial runner every figure driver uses.
    Serial,
    /// `run_scenario_sharded_with_stats(cfg, 1)`, the scale runner.
    Sharded,
}

/// One simulated cell with the band its window delivery rate must
/// fall in (seeds 1-11 land within its middle third).
pub struct Cell {
    pub label: &'static str,
    pub config: ScenarioConfig,
    pub delivery_band: (f64, f64),
}

pub enum Kind {
    /// Repeats the cells, back to back, for the measuring window.
    Sim { runner: Runner, cells: Vec<Cell> },
    /// One reactor cluster, one worker, on loopback.
    Net {
        config: Box<NetConfig>,
        /// Below this share of the intended deliveries the run fails.
        min_delivered_share: f64,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The workloads `BENCHMARK.json` lists: steady enough to gate on.
pub const NAMES: [&str; 2] = ["sim_fig2", "sim_scale"];

/// Built, checked and smoke-tested, but not gated: on the current
/// socket runtime their times do not repeat (README, "Workloads").
pub const DIAGNOSTIC: [&str; 3] = ["net_steady", "net_idle", "net_recovery"];

/// Virtual length of one `sim_fig2` cell. The paper runs 25 s; a
/// dispatcher's 1500-event cache fills in about 3.3 s (it caches the
/// ~450 events/s it publishes or subscribes to), so a 6 s cell reaches
/// the steady state and still fits several times into one measuring
/// window. Recovery has less time than in the paper, so the delivery
/// bands below sit lower than the paper's (push 0.92 after 25 s).
const FIG2_CELL: SimTime = SimTime::from_millis(6_000);

/// Longest wait for a lossless socket run to converge after its
/// schedule ends. Today the last publishes fire one timer-wheel
/// revolution (4.1 s) late, now and then two; both must fit.
const DRAIN: Duration = Duration::from_secs(9);

/// Builds workload `name` for `seed` and a measuring window of
/// `seconds`. Simulated workloads repeat a fixed cell for the window;
/// socket workloads publish for it in real time.
pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
    let paper = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    // A socket workload publishes for the whole window in real time,
    // lossless unless `loss` says otherwise; it fails below
    // `min_share` of the intended deliveries.
    let socket = |name, why, rate, algorithm, loss, drain, min_share| {
        let window = SimTime::from_secs_f64(seconds);
        Workload {
            name,
            why,
            kind: Kind::Net {
                config: Box::new(NetConfig {
                    scenario: ScenarioConfig {
                        publish_rate: rate,
                        link_error_rate: loss,
                        algorithm,
                        duration: window,
                        warmup: window.mul_f64(0.1),
                        cooldown: window.mul_f64(0.1),
                        ..paper.clone()
                    },
                    drain,
                    ..NetConfig::default()
                }),
                min_delivered_share: min_share,
            },
        }
    };
    let workload = match name {
        "sim_fig2" => {
            let cell = |algorithm| ScenarioConfig {
                algorithm,
                duration: FIG2_CELL,
                warmup: SimTime::from_millis(500),
                cooldown: SimTime::from_millis(500),
                ..paper.clone()
            };
            Workload {
                name: "sim_fig2",
                why: "The paper's Fig. 2 cell (N=100, 50 ev/s/node, eps=0.1), push then combined-pull: dense cache-hot forwarding and both digest kinds; the kernel is almost idle.",
                kind: Kind::Sim {
                    runner: Runner::Serial,
                    cells: vec![
                        Cell {
                            label: "push",
                            config: cell(Algorithm::push()),
                            delivery_band: (0.75, 0.92),
                        },
                        Cell {
                            label: "combined-pull",
                            config: cell(Algorithm::combined_pull()),
                            delivery_band: (0.70, 0.90),
                        },
                    ],
                },
            }
        }
        "sim_scale" => Workload {
            name: "sim_scale",
            why: "N=4000 dispatchers, 8192 patterns, 2 ev/s/node: 30 ms gossip timers on empty caches, a deep queue, cold per-node state and population set-up; forwarding is idle.",
            kind: Kind::Sim {
                runner: Runner::Sharded,
                cells: vec![Cell {
                    label: "push",
                    config: ScenarioConfig {
                        nodes: 4_000,
                        pattern_universe: 8_192,
                        publish_rate: 2.0,
                        link_error_rate: 0.01,
                        algorithm: Algorithm::push(),
                        duration: SimTime::from_millis(300),
                        warmup: SimTime::from_millis(30),
                        cooldown: SimTime::from_millis(30),
                        ..paper.clone()
                    },
                    delivery_band: (f64::MIN_POSITIVE, 1.0),
                }],
            },
        },
        "net_steady" => socket(
            "net_steady",
            "Open loop at 20 ev/s/node (the knee sits between 40 and 80), lossless, no recovery: latency and CPU per frame of bare forwarding through epoll, codec and timer wheel; gossip idle.",
            20.0,
            Algorithm::no_recovery(),
            0.0,
            DRAIN,
            1.0,
        ),
        "net_idle" => socket(
            "net_idle",
            "net_steady at a tenth of the rate (2 ev/s/node): what the runtime costs with almost nothing to forward - timers, wheel, epoll wake-ups - and the path latency without queueing.",
            2.0,
            Algorithm::no_recovery(),
            0.0,
            DRAIN,
            1.0,
        ),
        // Lost events stay lost, so this run never converges and
        // always uses its whole drain: the time recovery gets, 9 s at
        // the standard 10 s window (two wheel revolutions fit).
        "net_recovery" => socket(
            "net_recovery",
            "net_steady with eps=0.05 injected and combined-pull: the only workload whose sockets carry digests, UDP requests and replies; forwarding work is the same as net_steady.",
            20.0,
            Algorithm::combined_pull(),
            0.05,
            Duration::from_secs_f64(0.9 * seconds),
            0.75,
        ),
        _ => return None,
    };
    Some(workload)
}
