//! Compare mode: two sets of runs (files or directories of captured run
//! output), per (workload, metric) both medians and quartiles and a
//! verdict from the bounds in `BENCHMARK.json`.
//!
//! The verdict follows the pair rule for a small sandbox: a gain needs the
//! second set to win at least nine tenths of the pairs (ties count for
//! neither) with medians further apart than the first set's quartile
//! spread; a loss is a median worse by more than the metric's bound; where
//! the first set's own spread exceeds the bound the metric is unresolved
//! unless every run of the second set beats every run of the first.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::stats::quartiles;

/// One run's result: workload, seed and its metric values.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Extracts every run from captured output: a `provenance:` line opens a
/// run, its last JSON result line closes it.
pub fn parse_runs(text: &str) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut current: Option<(String, u64)> = None;
    for line in text.lines() {
        if let Some(json) = line.strip_prefix("provenance: ") {
            let v: Value = serde_json::from_str(json).unwrap_or(Value::Null);
            let workload = v.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
            let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            current = Some((workload, seed));
        } else if line.starts_with("{\"correct\":") {
            let (Some((workload, seed)), Ok(v)) =
                (current.take(), serde_json::from_str::<Value>(line))
            else {
                continue;
            };
            let mut metrics = BTreeMap::new();
            if let Some(Value::Object(fields)) = v.get("metrics") {
                for (name, m) in fields {
                    if let Some(x) = m.get("value").and_then(Value::as_f64) {
                        metrics.insert(name.clone(), x);
                    }
                }
            }
            runs.push(Run { workload, seed, metrics });
        }
    }
    runs
}

fn read_runs(path: &Path) -> std::io::Result<Vec<Run>> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)?.filter_map(Result::ok).collect();
        entries.sort_by_key(|e| e.path());
        let mut runs = Vec::new();
        for e in entries {
            if e.path().is_file() {
                runs.extend(parse_runs(&std::fs::read_to_string(e.path())?));
            }
        }
        Ok(runs)
    } else {
        Ok(parse_runs(&std::fs::read_to_string(path)?))
    }
}

/// How a metric's bound and direction read from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    pub lower_is_better: bool,
    /// Share of the first set's median a metric may worsen by; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

pub fn rules(bench: &Value) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).and_then(Value::as_array).into_iter().flatten() {
            let Some(name) = m.get("name").and_then(Value::as_str) else { continue };
            let lower = m.get("better").and_then(Value::as_str) != Some("higher");
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(name.to_string(), Rule { lower_is_better: lower, bound });
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

/// The verdict for one (workload, metric): `a` the first (parent) set,
/// `b` the second (change); pairs are `a[i]` with `b[i]`.
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let (qa1, ma, qa3) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let spread = (qa3 - qa1).abs();
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let gain = pairs > 0
        && wins as f64 >= 0.9 * pairs as f64
        && better(mb, ma)
        && (mb - ma).abs() > spread;
    let worse_by = if rule.lower_is_better { mb - ma } else { ma - mb } / ma.abs().max(1e-12);
    match rule.bound {
        Some(bound) if spread / ma.abs().max(1e-12) > bound => {
            if all_better {
                Verdict::Better
            } else {
                Verdict::Unresolved
            }
        }
        _ if gain => Verdict::Better,
        Some(bound) if worse_by > bound => Verdict::Worse,
        None if worse_by > 0.0 && (mb - ma).abs() > spread => Verdict::Worse,
        _ => Verdict::Within,
    }
}

/// `perfbench compare <a> <b> [--bench BENCHMARK.json]`; returns the exit
/// code (1 when any bounded metric is worse).
pub fn main(argv: &[String]) -> i32 {
    let (Some(a), Some(b)) = (argv.first(), argv.get(1)) else {
        eprintln!("usage: perfbench compare <results-a> <results-b> [--bench BENCHMARK.json]");
        return 2;
    };
    let bench_path = match argv.get(2).map(String::as_str) {
        Some("--bench") => argv.get(3).cloned().unwrap_or_default(),
        _ => "BENCHMARK.json".to_string(),
    };
    let bench: Value = match std::fs::read_to_string(&bench_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench compare: cannot read {bench_path}: {e}");
            return 2;
        }
    };
    let rules = rules(&bench);
    let (runs_a, runs_b) = match (read_runs(Path::new(a)), read_runs(Path::new(b))) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    // (workload, metric) → values in run order, paired by seed when both
    // sets ran the same seeds.
    let mut keys: Vec<(String, String)> = runs_a
        .iter()
        .flat_map(|r| r.metrics.keys().map(move |m| (r.workload.clone(), m.clone())))
        .collect();
    keys.sort();
    keys.dedup();
    println!(
        "{:<10} {:<34} {:>12} {:>25} {:>12} {:>25}  verdict",
        "workload", "metric", "median A", "[q1, q3] A", "median B", "[q1, q3] B"
    );
    let mut worse = false;
    for (workload, metric) in keys {
        let pick = |runs: &[Run]| -> Vec<(u64, f64)> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(&metric).map(|v| (r.seed, *v)))
                .collect()
        };
        let (mut va, mut vb) = (pick(&runs_a), pick(&runs_b));
        if vb.is_empty() {
            continue;
        }
        let seeds = |v: &[(u64, f64)]| {
            let mut s: Vec<u64> = v.iter().map(|x| x.0).collect();
            s.sort();
            s
        };
        if seeds(&va) == seeds(&vb) {
            va.sort_by_key(|x| x.0);
            vb.sort_by_key(|x| x.0);
        }
        let a: Vec<f64> = va.iter().map(|x| x.1).collect();
        let b: Vec<f64> = vb.iter().map(|x| x.1).collect();
        let rule =
            rules.get(&metric).copied().unwrap_or(Rule { lower_is_better: true, bound: None });
        let v = verdict(&a, &b, rule);
        worse |= v == Verdict::Worse && rule.bound.is_some();
        let (a1, am, a3) = quartiles(&a);
        let (b1, bm, b3) = quartiles(&b);
        println!(
            "{workload:<10} {metric:<34} {am:>12.4} [{a1:>11.4}, {a3:>11.4}] {bm:>12.4} [{b1:>11.4}, \
             {b3:>11.4}]  {}{}",
            format!("{v:?}").to_lowercase(),
            if rule.bound.is_none() { " (no bound)" } else { "" }
        );
    }
    i32::from(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule { lower_is_better: true, bound: Some(0.1) };

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(verdict(&a, &faster, LOWER), Verdict::Better);
        assert_eq!(verdict(&a, &slower, LOWER), Verdict::Worse);
        assert_eq!(verdict(&a, &same, LOWER), Verdict::Within);
        let higher = Rule { lower_is_better: false, bound: Some(0.1) };
        assert_eq!(verdict(&a, &faster, higher), Verdict::Worse);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&noisy, &slower, LOWER), Verdict::Unresolved);
    }

    #[test]
    fn runs_are_read_from_captured_output() {
        let text = "provenance: {\"workload\":\"explore\",\"seed\":3}\nmetric x\n\
                    {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"latency_p50_ms\":\
                    {\"value\":1.5,\"unit\":\"ms\"}}}\n";
        let runs = parse_runs(text);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "explore");
        assert_eq!(runs[0].seed, 3);
        assert_eq!(runs[0].metrics["latency_p50_ms"], 1.5);
    }
}
