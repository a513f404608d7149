//! `compare A B`: applies the benchmark's own bounds to two result files
//! (each a series of `--out` records, one JSON object per line; several
//! runs of a workload in one file give the spread).

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats;
use crate::workload::{Better, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread wider than the bound: neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `base` the candidate median is worse (negative when
/// it is better).
fn worse_by(base: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// The verdict for one (metric, workload) pairing. `a` is the base
/// (parent), `b` the candidate. A spread is the distance between the
/// quartiles as a share of the median, known only with two or more runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = worse_by(stats::median(a), stats::median(b), better);
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |pred: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| pred(y, x)));
    if worse_by > bound && all(&|y, x| is_better(x, y)) {
        return Verdict::Regressed;
    }
    let spread = [stats::iqr_share(a), stats::iqr_share(b)]
        .into_iter()
        .flatten()
        .fold(0.0, f64::max);
    if spread > bound {
        return if all(&|y, x| is_better(y, x)) {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Metric samples of one result file: (workload, metric) → one value per
/// run, split by traced/untraced; plus the canonical digests seen.
#[derive(Default)]
struct ResultFile {
    untraced: BTreeMap<(String, String), Vec<f64>>,
    traced: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<(String, u64), Vec<String>>,
    failed_ops: f64,
    incorrect_runs: usize,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = ResultFile::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("{path}:{}: no {k:?}", i + 1));
        let workload = field("workload")?.as_str().unwrap_or("").to_string();
        let traced = field("trace")? == &Json::Bool(true);
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        out.failed_ops += field("ops_failed")?.as_f64().unwrap_or(0.0);
        out.incorrect_runs += usize::from(field("correct")? != &Json::Bool(true));
        out.digests
            .entry((workload.clone(), seed))
            .or_default()
            .push(field("digest")?.as_str().unwrap_or("").to_string());
        let into = if traced {
            &mut out.traced
        } else {
            &mut out.untraced
        };
        for (name, m) in field("metrics")?.as_obj() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                into.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn fmt_spread(values: &[f64]) -> String {
    stats::iqr_share(values).map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0))
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("nab-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("base A = {path_a}\ncandidate B = {path_b}");
    println!(
        "{:<14} {:<12} {:>4} {:>13} {:>13} {:>8} {:>9} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "runs",
        "A median",
        "B median",
        "B/A",
        "worse by",
        "bound",
        "spread A",
        "spread B"
    );
    let (mut regressed, mut unresolved, mut mismatched) = (0, 0, 0);
    for w in &WORKLOADS {
        for (m, bound) in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.untraced.get(&key), b.untraced.get(&key)) else {
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let v = verdict(va, vb, m.better, *bound);
            regressed += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<14} {:<12} {:>4} {:>13.4} {:>13.4} {:>8.4} {:>+8.1}% {:>5.0}% {:>8} {:>8}  {}",
                w.name,
                m.name,
                format!("{}/{}", va.len(), vb.len()),
                ma,
                mb,
                mb / ma,
                worse_by(ma, mb, m.better) * 100.0,
                bound * 100.0,
                fmt_spread(va),
                fmt_spread(vb),
                v.as_str()
            );
        }
    }
    // Deterministic quantities must be bit-equal: the canonical digests
    // per (workload, seed), and the traced run's sim_throughput / counts.
    for (key, da) in &a.digests {
        if let Some(db) = b.digests.get(key) {
            if da.iter().chain(db).any(|d| d != &da[0]) {
                mismatched += 1;
                println!(
                    "{:<14} digest (seed {}) differs: {da:?} vs {db:?}",
                    key.0, key.1
                );
            }
        }
    }
    for (key, va) in &a.traced {
        let exact = key.1 == "sim_throughput" || key.1.starts_with("count.");
        if let (true, Some(vb)) = (exact, b.traced.get(key)) {
            let equal = va.iter().chain(vb).all(|x| x.to_bits() == va[0].to_bits());
            if !equal {
                mismatched += 1;
                println!("{:<14} {} not bit-equal: {va:?} vs {vb:?}", key.0, key.1);
            }
        }
    }
    let failed = a.failed_ops + b.failed_ops;
    let incorrect = a.incorrect_runs + b.incorrect_runs;
    println!(
        "{regressed} regressed, {unresolved} unresolved, {mismatched} exact mismatches, \
         {failed} failed operations, {incorrect} incorrect runs"
    );
    if regressed + mismatched + incorrect > 0 || failed > 0.0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 4] = [100.0, 101.0, 99.0, 100.5];

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let slower = [104.0, 105.0, 103.5, 104.2];
        assert_eq!(verdict(&TIGHT_A, &slower, Better::Lower, 0.08), Verdict::Ok);
        let much_slower = [112.0, 113.0, 111.0, 112.5];
        assert_eq!(
            verdict(&TIGHT_A, &much_slower, Better::Lower, 0.08),
            Verdict::Regressed
        );
        // Direction matters: for a higher-is-better metric the same
        // numbers are an improvement.
        assert_eq!(
            verdict(&TIGHT_A, &much_slower, Better::Higher, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&much_slower, &TIGHT_A, Better::Higher, 0.08),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy_a = [100.0, 130.0, 90.0, 120.0];
        let noisy_b = [105.0, 125.0, 95.0, 118.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        let all_better = [80.0, 85.0, 70.0, 88.0];
        assert_eq!(
            verdict(&noisy_a, &all_better, Better::Lower, 0.08),
            Verdict::Ok
        );
        // Every run worse and the median beyond the bound: regressed even
        // though the spread is wide.
        let all_worse = [140.0, 170.0, 135.0, 150.0];
        assert_eq!(
            verdict(&noisy_a, &all_worse, Better::Lower, 0.08),
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_are_judged_on_the_values_alone() {
        assert_eq!(verdict(&[10.0], &[10.5], Better::Lower, 0.08), Verdict::Ok);
        assert_eq!(
            verdict(&[10.0], &[11.0], Better::Lower, 0.08),
            Verdict::Regressed
        );
    }
}
