//! Small measurement helpers: order statistics and the `/proc`
//! readers the benchmark takes CPU time, memory and context switches
//! from (no libc: everything is parsed from procfs text).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `pct` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values for even sizes),
/// so a handful of repetitions inside one run report a steady value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Linux reports process times in `USER_HZ` ticks, fixed at 100 on
/// every architecture the kernel ABI exposes through procfs.
const TICKS_PER_SECOND: f64 = 100.0;

/// User and system CPU time of a process, all threads, exited ones
/// included.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTime {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTime {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_proc_stat(line: &str) -> Option<CpuTime> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime / TICKS_PER_SECOND,
        sys_s: stime / TICKS_PER_SECOND,
    })
}

pub fn cpu_time() -> CpuTime {
    let line = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    parse_proc_stat(&line).expect("/proc/self/stat has utime and stime")
}

/// One `kB` field of a `/proc/<pid>/status` text, in MiB.
pub fn status_field_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim_start_matches(':')
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn self_status() -> String {
    std::fs::read_to_string("/proc/self/status").expect("procfs is mounted")
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field_mb(&self_status(), "VmHWM").expect("VmHWM in /proc/self/status")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_field_mb(&self_status(), "VmRSS").expect("VmRSS in /proc/self/status")
}

/// Context switches (voluntary + involuntary) of every live thread of
/// this process. A thread's counters vanish when it is joined, so a
/// caller that wants the total of a worker pool polls this while the
/// pool runs and keeps the per-thread maxima ([`CtxSwitchSampler`]).
fn ctx_switches_by_thread() -> Vec<(u64, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|entry| {
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let status = std::fs::read_to_string(entry.path().join("status")).ok()?;
            let total = status
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_ascii_whitespace().nth(1)?.parse::<u64>().ok())
                .sum();
            Some((tid, total))
        })
        .collect()
}

/// Polls per-thread context-switch counters from a side thread (it
/// sleeps between polls, so it is not load) and reports how many
/// switches happened between `start` and `stop`, summed over every
/// thread seen, including ones that exited in between.
pub struct CtxSwitchSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl CtxSwitchSampler {
    pub fn start(period: Duration) -> CtxSwitchSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let first: HashMap<u64, u64> = ctx_switches_by_thread().into_iter().collect();
            let mut last = first.clone();
            loop {
                let done = flag.load(Ordering::SeqCst);
                last.extend(ctx_switches_by_thread());
                if done {
                    break;
                }
                std::thread::sleep(period);
            }
            last.iter()
                .map(|(tid, n)| n - first.get(tid).copied().unwrap_or(0))
                .sum()
        });
        CtxSwitchSampler { stop, handle }
    }

    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("sampler thread does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 99.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_stat_survives_hostile_command_names() {
        // comm = "a) b (c", then state S and fields 4..=15.
        let line = "1234 (a) b (c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0";
        let cpu = parse_proc_stat(line).expect("parses");
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.75);
        assert_eq!(cpu.total_s(), 3.25);
        assert!(parse_proc_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn status_fields_parse_in_mib() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(status_field_mb(status, "VmHWM"), Some(2.0));
        assert_eq!(status_field_mb(status, "VmRSS"), Some(1.0));
        assert_eq!(status_field_mb(status, "VmSwap"), None);
    }
}
