//! `bench_compare` — diff a fresh `BENCH_*.json` against the
//! checked-in baseline and flag regressions, with no external
//! dependencies (the JSON is parsed with a scanner matched to
//! [`eps_bench::timing::to_json`]'s output — no jq, no serde).
//!
//! ```text
//! bench_compare [--paired] [--threshold PCT] [--strict] [--advisory-prefix PREFIX]...
//!               BASELINE CURRENT [BASELINE CURRENT ...]
//! ```
//!
//! Prints a delta table per file pair. A benchmark regresses when its
//! current median exceeds the baseline median by more than
//! `--threshold` percent (default 10). In advisory mode (the default)
//! regressions are reported but the exit code stays zero — absolute
//! wall-clock medians on shared machines drift with the host, too far
//! to gate hard; `--strict` exits non-zero instead.
//!
//! `--paired` reads the files as pairs of one session instead, each
//! BASELINE and CURRENT run one after the other (`scripts/ab.sh`), and
//! prints one table: per benchmark, the median over the pairs of the
//! per-pair ratio of the fastest samples (`min_ns`), current over
//! baseline. A benchmark regresses when that median exceeds
//! `1 + PCT / 100`, and a baseline benchmark the current side no longer
//! has regresses too, unless advisory: a renamed row must not leave the
//! gate unseen. Pairing cancels the host's drift between sessions, and
//! the median over pairs the runs that landed in a slow phase.
//! `--advisory-prefix` demotes matching benchmark names to
//! advisory-only even under `--strict` — for entries (like the
//! one-shot topology builds) whose single-iteration timings are too
//! coarse to gate hard. Without `--paired`, benchmarks present on only
//! one side are listed but never fail the comparison (new benches
//! appear, old ones retire).

use std::process::ExitCode;

/// One `{"name": ..., "median_ns": ..., "min_ns": ...}` entry.
struct Entry {
    name: String,
    median_ns: f64,
    /// The fastest sample.
    min_ns: f64,
}

/// Extracts the string value following `key` at `pos` in `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses the benchmark entries out of a `to_json`-shaped file: one
/// object per line, each carrying `"name"`, `"median_ns"` and
/// `"min_ns"` fields.
fn parse(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field(line, "\"name\": \"") else {
            continue;
        };
        let Some(median) = field(line, "\"median_ns\": ") else {
            continue;
        };
        let median_ns: f64 = median
            .parse()
            .map_err(|e| format!("{path}: bad median_ns for {name}: {e}"))?;
        let min_ns: f64 = field(line, "\"min_ns\": ")
            .ok_or_else(|| format!("{path}: no min_ns for {name}"))?
            .parse()
            .map_err(|e| format!("{path}: bad min_ns for {name}: {e}"))?;
        out.push(Entry {
            name: name.to_owned(),
            median_ns,
            min_ns,
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark entries found"));
    }
    Ok(out)
}

/// The median of `xs`, which is not empty (reordered).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Compares `pairs` of (baseline, current) runs of one session; returns
/// the regressed names. Names matching an advisory prefix are reported
/// but never returned.
fn compare_paired(
    pairs: &[(Vec<Entry>, Vec<Entry>)],
    threshold_pct: f64,
    advisory_prefixes: &[String],
) -> Vec<String> {
    let limit = 1.0 + threshold_pct / 100.0;
    let mut regressions = Vec::new();
    println!(
        "paired comparison over {} pairs (limit: median ratio {limit:.2}):",
        pairs.len()
    );
    println!("  {:<44} {:>12}", "benchmark", "median ratio");
    let fastest = |run: &[Entry], name: &str| run.iter().find(|e| e.name == name).map(|e| e.min_ns);
    let (base_rows, current_rows) = (&pairs[0].0, &pairs[0].1);
    for row in base_rows {
        let advisory = advisory_prefixes.iter().any(|p| row.name.starts_with(p));
        let mut ratios: Vec<f64> = (pairs.iter())
            .filter_map(|(base, current)| {
                let b = fastest(base, &row.name).filter(|&ns| ns > 0.0)?;
                Some(fastest(current, &row.name)? / b)
            })
            .collect();
        let (shown, regressed) = if fastest(current_rows, &row.name).is_none() {
            ("gone".to_owned(), true)
        } else if ratios.is_empty() {
            ("-".to_owned(), false)
        } else {
            let m = median(&mut ratios);
            (format!("{m:.3}"), m > limit)
        };
        let flag = match (regressed, advisory) {
            (false, _) => "",
            (true, true) => "  regressed (advisory)",
            (true, false) => {
                regressions.push(row.name.clone());
                "  REGRESSED"
            }
        };
        println!("  {:<44} {shown:>12}{flag}", row.name);
    }
    for row in current_rows {
        if fastest(base_rows, &row.name).is_none() {
            println!("  {:<44} {:>12}", row.name, "new");
        }
    }
    regressions
}

/// Compares one baseline/current pair; returns the regressed names.
/// Names matching an advisory prefix are reported but never returned.
fn compare(
    baseline_path: &str,
    current_path: &str,
    threshold_pct: f64,
    advisory_prefixes: &[String],
) -> Result<Vec<String>, String> {
    let baseline = parse(baseline_path)?;
    let current = parse(current_path)?;
    let mut regressions = Vec::new();
    println!("comparing {current_path} against {baseline_path} (threshold {threshold_pct}%):");
    println!(
        "  {:<44} {:>14} {:>14} {:>9}",
        "benchmark", "baseline ns", "current ns", "delta"
    );
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            println!(
                "  {:<44} {:>14.1} {:>14} {:>9}",
                b.name, b.median_ns, "-", "gone"
            );
            continue;
        };
        let delta_pct = (c.median_ns - b.median_ns) / b.median_ns * 100.0;
        let advisory = advisory_prefixes.iter().any(|p| b.name.starts_with(p));
        let flag = if delta_pct > threshold_pct {
            if advisory {
                "  regressed (advisory)"
            } else {
                regressions.push(b.name.clone());
                "  REGRESSED"
            }
        } else {
            ""
        };
        println!(
            "  {:<44} {:>14.1} {:>14.1} {:>+8.1}%{}",
            b.name, b.median_ns, c.median_ns, delta_pct, flag
        );
    }
    for c in &current {
        if !baseline.iter().any(|b| b.name == c.name) {
            println!(
                "  {:<44} {:>14} {:>14.1} {:>9}",
                c.name, "-", c.median_ns, "new"
            );
        }
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let mut threshold_pct = 10.0;
    let mut strict = false;
    let mut paired = false;
    let mut advisory_prefixes: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => {
                    eprintln!("error: --threshold needs a percentage");
                    return ExitCode::FAILURE;
                }
            },
            "--strict" => strict = true,
            "--paired" => paired = true,
            "--advisory-prefix" => match iter.next() {
                Some(p) => advisory_prefixes.push(p.clone()),
                None => {
                    eprintln!("error: --advisory-prefix needs a benchmark-name prefix");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with('-') => files.push(other.to_owned()),
            other => {
                eprintln!(
                    "usage: bench_compare [--paired] [--threshold PCT] [--strict] \
                     [--advisory-prefix PREFIX]... BASELINE CURRENT ...   \
                     (unknown arg '{other}')"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if files.is_empty() || !files.len().is_multiple_of(2) {
        eprintln!(
            "usage: bench_compare [--paired] [--threshold PCT] [--strict] \
             [--advisory-prefix PREFIX]... BASELINE CURRENT ..."
        );
        return ExitCode::FAILURE;
    }

    let compared: Result<Vec<String>, String> = if paired {
        (files.chunks(2))
            .map(|pair| Ok((parse(&pair[0])?, parse(&pair[1])?)))
            .collect::<Result<Vec<_>, String>>()
            .map(|pairs| compare_paired(&pairs, threshold_pct, &advisory_prefixes))
    } else {
        files.chunks(2).try_fold(Vec::new(), |mut all, pair| {
            all.append(&mut compare(
                &pair[0],
                &pair[1],
                threshold_pct,
                &advisory_prefixes,
            )?);
            Ok(all)
        })
    };
    let regressions = match compared {
        Ok(regressions) => regressions,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if regressions.is_empty() {
        println!("no regressions beyond {threshold_pct}%");
        ExitCode::SUCCESS
    } else {
        println!(
            "{} regression(s) beyond {threshold_pct}%: {}",
            regressions.len(),
            regressions.join(", ")
        );
        if strict {
            ExitCode::FAILURE
        } else {
            println!("(advisory mode: not failing; pass --strict to gate)");
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run: `(name, min_ns)` rows.
    fn run(rows: &[(&str, f64)]) -> Vec<Entry> {
        (rows.iter())
            .map(|&(name, min_ns)| Entry {
                name: name.to_owned(),
                median_ns: min_ns,
                min_ns,
            })
            .collect()
    }

    #[test]
    fn the_median_pair_decides_not_the_slowest() {
        // Per-pair ratios 1.0, 1.1, 2.0: one slow phase of the host.
        let pairs: Vec<_> = [10.0, 11.0, 20.0]
            .iter()
            .map(|&c| (run(&[("row", 10.0)]), run(&[("row", c)])))
            .collect();
        assert!(compare_paired(&pairs, 25.0, &[]).is_empty());
        // Ratios 1.3, 1.3, 0.5: a slowdown a fast base phase hides once.
        let pairs: Vec<_> = [(10.0, 13.0), (10.0, 13.0), (20.0, 10.0)]
            .iter()
            .map(|&(b, c)| (run(&[("row", b)]), run(&[("row", c)])))
            .collect();
        assert_eq!(compare_paired(&pairs, 25.0, &[]), ["row"]);
    }

    #[test]
    fn a_gone_row_regresses_unless_advisory_and_a_new_one_never() {
        let base = run(&[("kept", 1.0), ("renamed", 1.0), ("topology_x", 1.0)]);
        let current = run(&[("kept", 1.0), ("renamed_to", 1.0)]);
        let advisory = ["topology".to_owned()];
        let pairs = [(base, current)];
        assert_eq!(compare_paired(&pairs, 25.0, &advisory), ["renamed"]);
    }
}
