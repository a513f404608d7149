//! One run's result: what it prints, what the driver reads off the last
//! line, and the full record `--out` appends for `compare`.

use std::io::Write as _;

use crate::json::Json;
use crate::run::{digest, EndToEnd};
use crate::stats;
use crate::workload::WorkloadDef;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub iterations: usize,
    pub setups: usize,
    /// FNV-1a of the warm-up iteration's canonical output.
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (sample counts, tail).
    pub notes: Vec<String>,
    pub problems: Vec<String>,
    /// Raw samples kept for `compare`'s spread rule.
    pub iter_ms: Vec<f64>,
}

pub fn from_end_to_end(
    w: &WorkloadDef,
    seed: u64,
    seconds: f64,
    quick: bool,
    e: &EndToEnd,
) -> RunRecord {
    let n = e.iter_ms.len();
    let mut notes = vec![format!(
        "iterations: {n} timed ({:.3} s), {} set-ups; {} operations per iteration",
        e.timed_wall_s(),
        e.setup_s.len(),
        e.reference.ops
    )];
    notes.push(match stats::supported_tail(&e.iter_ms) {
        Some((p, v)) => format!("iter_ms tail: p{p} = {v:.3} ms (n = {n}, >= 10 samples beyond)"),
        None => {
            format!("iter_ms tail: n = {n} is too few for any percentile with 10 samples beyond")
        }
    });
    RunRecord {
        workload: w.name,
        seed,
        seconds,
        quick,
        trace: false,
        correct: e.correct(),
        attempted: e.ops_total,
        failed: e.ops_failed,
        iterations: n,
        setups: e.setup_s.len(),
        digest: digest(&e.reference.canonical),
        metrics: vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: e.setup_s_median(),
            },
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: e.ops_per_s(),
            },
            Metric {
                name: "iter_ms_p50",
                unit: "ms",
                value: stats::median(&e.iter_ms),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: e.peak_rss_mb,
            },
        ],
        notes,
        problems: e.problems.clone(),
        iter_ms: e.iter_ms.clone(),
    }
}

/// Output of a child process's first line, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl RunRecord {
    /// Every metric by name with its unit, one per line.
    pub fn human(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {} run{})\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            if self.quick { ", quick" } else { "" }
        );
        if let Some(w) = crate::workload::find_workload(self.workload) {
            out.push_str(&format!("   why: {}\n", w.why));
        }
        for note in &self.notes {
            out.push_str(&format!("   {note}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!("   {:<34} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "   {:<34} {:>16}\n   {:<34} {:>16}\n",
            "ops_total", self.attempted, "ops_failed", self.failed
        ));
        for p in &self.problems {
            out.push_str(&format!("   FAILED CHECK: {p}\n"));
        }
        out
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The last line of standard output: exactly the four contract keys.
    pub fn contract_line(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The full record, with the environment it was measured in.
    fn full(&self) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("ops_total", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("iterations", Json::Num(self.iterations as f64)),
            ("setups", Json::Num(self.setups as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("metrics", self.metrics_json()),
            (
                "iter_ms",
                Json::Arr(self.iter_ms.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            (
                "env",
                Json::obj(vec![
                    ("nproc", Json::Num(nproc as f64)),
                    ("threads", Json::Num(1.0)),
                    ("simd_tier", Json::str(nab_gf::simd::tier())),
                    ("cpu_features", Json::str(nab_gf::simd::cpu_features())),
                    ("rustc", Json::str(tool_line("rustc", &["-V"]))),
                    (
                        "git_commit",
                        Json::str(tool_line("git", &["rev-parse", "HEAD"])),
                    ),
                ]),
            ),
        ])
    }

    /// Appends the full record as one JSON line.
    pub fn append_to(&self, path: &str) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(format!("{}\n", self.full().render()).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Counts, IterOutcome};
    use crate::workload::{END_TO_END, WORKLOADS};

    #[test]
    fn untraced_record_prints_exactly_the_declared_end_to_end_metrics() {
        let e = EndToEnd {
            setup_s: vec![0.3, 0.2, 0.25],
            iter_ms: vec![100.0, 110.0, 90.0],
            ops_total: 30,
            ops_failed: 0,
            reference: IterOutcome {
                canonical: vec!["{}".into()],
                ops: 10,
                failed: 0,
                sim_throughput: 1.0,
                counts: Counts::default(),
                failures: Vec::new(),
            },
            peak_rss_mb: 5.0,
            problems: Vec::new(),
        };
        let rec = from_end_to_end(&WORKLOADS[0], 11, 20.0, false, &e);
        let printed: Vec<(&str, &str)> = rec.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let declared: Vec<(&str, &str)> =
            END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect();
        assert_eq!(printed, declared);
        assert_eq!(rec.metrics[0].value, 0.25); // median set-up
        assert_eq!(rec.metrics[1].value, 100.0); // 30 ops / 0.3 s
        assert_eq!(rec.metrics[2].value, 100.0);

        let line = rec.contract_line();
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for (m, _) in &END_TO_END {
            assert!(rec.human().contains(m.name));
        }
    }
}
