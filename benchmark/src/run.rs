//! The closed-loop end-to-end run: one process, one workload, one worker
//! thread. An *iteration* serves every `.scenario` text of the workload
//! exactly as the CLI would; an *operation* is one broadcast instance
//! (one plan on `plan-cold`).

use std::time::Instant;

use nab::plan::PlanCache;
use nab_obs::clock;
use nab_scenario::sweep::{expand_jobs, run_sweep, Job};
use nab_scenario::topology::ResolveCtx;
use nab_scenario::{parse_str, ScenarioSpec, SweepReport};

use crate::span::Recorder;
use crate::stats;
use crate::workload::{self, Kind, WorkloadDef, QUICK_ITERATIONS, SETUPS};

/// Exact counts read off one iteration's canonical reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub instances: u64,
    pub dispute_rounds: u64,
    pub plan_builds: u64,
    pub plan_repairs: u64,
    pub plan_full_recomputes: u64,
    pub report_bytes: u64,
}

/// What one iteration produced, after the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct IterOutcome {
    /// The canonical output per file: the sweep report's JSON, or on
    /// `plan-cold` one line per plan.
    pub canonical: Vec<String>,
    pub ops: u64,
    pub failed: u64,
    /// Mean over jobs of simulated NAB throughput (planned
    /// `γ₁ρ₁/(γ₁+ρ₁)` on `plan-cold`).
    pub sim_throughput: f64,
    pub counts: Counts,
    /// Why operations failed, one line per failing job.
    pub failures: Vec<String>,
}

/// What the timed part of an iteration returns before it is checked.
pub enum RawIteration {
    Sweep(Vec<(ScenarioSpec, SweepReport, String)>),
    Plans(Vec<Vec<Result<PlanSummary, String>>>),
}

#[derive(Debug, Clone, Copy)]
pub struct PlanSummary {
    pub gamma: u64,
    pub rho: u64,
    pub trees: usize,
    pub router_copies: usize,
}

/// The grid point a job's topology template is resolved against.
pub fn resolve_ctx(job: &Job) -> ResolveCtx {
    ResolveCtx {
        n: job.n,
        cap: job.cap,
        f: job.f,
        seed: job.seed,
    }
}

/// Serves every text once. `rec`, when given, gets a span around each
/// call into the scenario layer; the untraced run passes `None`.
pub fn serve(
    w: &WorkloadDef,
    texts: &[String],
    mut rec: Option<&mut Recorder>,
) -> Result<RawIteration, String> {
    macro_rules! spanned {
        ($name:expr, $body:expr) => {{
            let id = rec.as_deref_mut().map(|r| r.enter($name));
            let out = $body;
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), id) {
                r.exit(id);
            }
            out
        }};
    }
    match w.kind {
        Kind::Sweep => {
            let mut out = Vec::with_capacity(texts.len());
            for text in texts {
                let spec =
                    spanned!("scenario.parse", parse_str(text)).map_err(|e| e.to_string())?;
                let report = spanned!("scenario.run_sweep", run_sweep(&spec, 1))?;
                let json = spanned!("scenario.report_json", report.to_json());
                out.push((spec, report, json));
            }
            Ok(RawIteration::Sweep(out))
        }
        Kind::PlanOnly => {
            let mut out = Vec::with_capacity(texts.len());
            for text in texts {
                let spec =
                    spanned!("scenario.parse", parse_str(text)).map_err(|e| e.to_string())?;
                let cache = PlanCache::new();
                let mut plans = Vec::new();
                for job in expand_jobs(&spec) {
                    let ctx = resolve_ctx(&job);
                    let planned = spanned!("netgraph.topology_build", spec.topology.build(&ctx))
                        .map_err(|e| format!("topology rejected: {e}"))
                        .and_then(|g| {
                            spanned!("core.plan_fetch", cache.fetch(&g, job.f))
                                .map_err(|e| format!("network rejected: {e}"))
                        })
                        .map(|fetch| PlanSummary {
                            gamma: fetch.plan.gamma0(),
                            rho: fetch.plan.rho0(),
                            trees: fetch.plan.trees0().len(),
                            router_copies: fetch.plan.router().copies(),
                        });
                    plans.push(planned);
                }
                out.push(plans);
            }
            Ok(RawIteration::Plans(out))
        }
    }
}

/// Whether a fault-free job sits inside the paper's envelope: Theorem 2
/// caps throughput at `min(γ*, 2ρ*)`; the per-network rate
/// `γ₁ρ₁/(γ₁+ρ₁)` must reach Eq. 6's `γ*ρ*/(γ*+ρ*)`; and the coding
/// phases must cost no more than Eq. 6's `L/γ₁ + L/ρ₁` at whole-symbol
/// granularity (Phase 1 streams ⌈S/γ⌉-symbol blocks, the equality check
/// ⌈S/ρ⌉ columns).
fn envelope_violation(symbols: usize, m: &nab_scenario::JobMetrics) -> Option<String> {
    const EPS: f64 = 1e-6;
    let Some(b) = &m.bounds else {
        return Some("no bounds reported".into());
    };
    if !(m.throughput > 0.0 && m.throughput <= b.thm2_upper as f64 + EPS) {
        return Some(format!(
            "throughput {} outside (0, Theorem 2 bound {}]",
            m.throughput, b.thm2_upper
        ));
    }
    let (g, r) = (m.gamma1 as f64, m.rho1 as f64);
    if g * r / (g + r) + EPS < b.eq6_lower {
        return Some(format!(
            "per-network rate {} below Eq. 6 bound {}",
            g * r / (g + r),
            b.eq6_lower
        ));
    }
    let per_instance = nab::value::SYMBOL_BITS as usize
        * (symbols.div_ceil(m.gamma1 as usize) + symbols.div_ceil(m.rho1 as usize));
    let budget = (m.instances * per_instance) as f64;
    if m.phase1_time + m.equality_time > budget + EPS {
        return Some(format!(
            "coding phases took {} > Eq. 6 budget {budget}",
            m.phase1_time + m.equality_time
        ));
    }
    None
}

/// Applies the output checks to one served iteration.
pub fn check(w: &WorkloadDef, raw: RawIteration) -> IterOutcome {
    let mut out = IterOutcome {
        canonical: Vec::new(),
        ops: 0,
        failed: 0,
        sim_throughput: 0.0,
        counts: Counts::default(),
        failures: Vec::new(),
    };
    let mut throughputs = Vec::new();
    match raw {
        RawIteration::Sweep(files) => {
            for (spec, report, json) in files {
                let per_job = (spec.q * spec.streams) as u64;
                for job in &report.jobs {
                    out.ops += per_job;
                    let failure = match &job.result {
                        Err(e) => Some(format!("rejected: {e}")),
                        Ok(m) if !m.all_correct => Some("agreement/validity violated".into()),
                        Ok(m) if m.dispute_budget_exceeded => {
                            Some("f(f+1) dispute budget exceeded".into())
                        }
                        Ok(m) if w.check_envelope => envelope_violation(job.symbols, m),
                        Ok(_) => None,
                    };
                    if let Some(why) = failure {
                        out.failed += per_job;
                        out.failures
                            .push(format!("{} job {}: {why}", report.scenario, job.index));
                    }
                    if let Ok(m) = &job.result {
                        throughputs.push(m.throughput);
                    }
                }
                let a = &report.aggregate;
                out.counts.instances += a.total_instances as u64;
                out.counts.dispute_rounds += a.total_dispute_rounds as u64;
                out.counts.plan_builds += a.plan_misses;
                out.counts.plan_repairs += a.plan_repairs;
                out.counts.plan_full_recomputes += a.plan_full_recomputes;
                out.counts.report_bytes += json.len() as u64;
                out.canonical.push(json);
            }
        }
        RawIteration::Plans(files) => {
            for (i, plans) in files.into_iter().enumerate() {
                let mut lines = String::new();
                for (j, planned) in plans.into_iter().enumerate() {
                    out.ops += 1;
                    match planned {
                        Ok(p) => {
                            out.counts.plan_builds += 1;
                            let (g, r) = (p.gamma as f64, p.rho as f64);
                            throughputs.push(g * r / (g + r));
                            lines.push_str(&format!(
                                "gamma={} rho={} trees={} router-copies={}\n",
                                p.gamma, p.rho, p.trees, p.router_copies
                            ));
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.failures.push(format!("file {i} job {j}: {e}"));
                            lines.push_str(&format!("FAIL: {e}\n"));
                        }
                    }
                }
                out.counts.report_bytes += lines.len() as u64;
                out.canonical.push(lines);
            }
        }
    }
    if !throughputs.is_empty() {
        out.sim_throughput = throughputs.iter().sum::<f64>() / throughputs.len() as f64;
    }
    out
}

/// One set-up: read and template the workload from disk, then one untimed
/// warm-up iteration (GF tables, SIMD detection, allocator growth).
pub fn set_up(w: &WorkloadDef, seed: u64) -> Result<(Vec<String>, IterOutcome), String> {
    let texts: Vec<String> = workload::load(w, seed)?
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    let reference = check(w, serve(w, &texts, None)?);
    Ok((texts, reference))
}

/// FNV-1a over the canonical outputs, recorded so two result files can be
/// told apart at a glance.
pub fn digest(canonical: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.iter().flat_map(|s| s.bytes().chain([0xff])) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the untraced run measured.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub iter_ms: Vec<f64>,
    pub ops_total: u64,
    pub ops_failed: u64,
    pub reference: IterOutcome,
    pub peak_rss_mb: f64,
    /// Workload-level check failures (beyond failed operations).
    pub problems: Vec<String>,
}

impl EndToEnd {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.problems.is_empty()
    }

    pub fn timed_wall_s(&self) -> f64 {
        self.iter_ms.iter().sum::<f64>() / 1e3
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops_total as f64 / self.timed_wall_s()
    }

    pub fn setup_s_median(&self) -> f64 {
        stats::median(&self.setup_s)
    }
}

/// Workload-level requirements on what one iteration must exercise.
pub fn workload_problems(w: &WorkloadDef, reference: &IterOutcome) -> Vec<String> {
    let c = &reference.counts;
    let mut problems = Vec::new();
    if c.dispute_rounds < w.min_disputes {
        problems.push(format!(
            "{} dispute rounds per iteration, workload needs >= {}",
            c.dispute_rounds, w.min_disputes
        ));
    }
    if c.plan_repairs + c.plan_full_recomputes < w.min_replans {
        problems.push(format!(
            "{} replans per iteration, workload needs >= {}",
            c.plan_repairs + c.plan_full_recomputes,
            w.min_replans
        ));
    }
    problems
}

/// One timed, checked iteration.
pub struct IterSample {
    pub ms: f64,
    pub ops: u64,
    pub failed: u64,
    /// Set when the canonical bytes differ from the reference's; all of
    /// the iteration's operations then count as failed.
    pub problem: Option<String>,
}

/// Serves the workload once under the clock, then checks the output
/// (outside the clock). With `rec`, the iteration and each scenario-layer
/// call inside it get a span.
pub fn iterate(
    w: &WorkloadDef,
    texts: &[String],
    reference: &IterOutcome,
    mut rec: Option<&mut Recorder>,
) -> Result<IterSample, String> {
    let id = rec.as_deref_mut().map(|r| r.enter("iteration"));
    let t0 = clock::mono_now();
    let raw = serve(w, texts, rec.as_deref_mut())?;
    let ms = clock::elapsed_ns(t0) as f64 / 1e6;
    if let (Some(r), Some(id)) = (rec, id) {
        r.exit(id);
    }
    let outcome = check(w, raw);
    let differs = outcome.canonical != reference.canonical;
    Ok(IterSample {
        ms,
        ops: outcome.ops,
        failed: if differs { outcome.ops } else { outcome.failed },
        problem: differs.then(|| "canonical output differs from the warm-up's".to_string()),
    })
}

/// Times iterations until `seconds` of iteration wall have accumulated
/// (or exactly [`QUICK_ITERATIONS`] under `quick`), checking each one.
pub fn timed_loop(
    w: &WorkloadDef,
    texts: &[String],
    reference: &IterOutcome,
    seconds: f64,
    quick: bool,
) -> Result<(Vec<f64>, u64, u64, Vec<String>), String> {
    let mut iter_ms = Vec::new();
    let (mut ops_total, mut ops_failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    loop {
        let sample = iterate(w, texts, reference, None)?;
        iter_ms.push(sample.ms);
        ops_total += sample.ops;
        ops_failed += sample.failed;
        if let Some(p) = sample.problem {
            problems.push(format!("iteration {}: {p}", iter_ms.len()));
        }
        let done = if quick {
            iter_ms.len() >= QUICK_ITERATIONS
        } else {
            iter_ms.iter().sum::<f64>() >= seconds * 1e3
        };
        if done {
            return Ok((iter_ms, ops_total, ops_failed, problems));
        }
    }
}

/// The untraced end-to-end run. `process_start` is when `main` began, so
/// the first set-up sample includes everything before it.
pub fn run(
    w: &WorkloadDef,
    seed: u64,
    seconds: f64,
    quick: bool,
    process_start: Instant,
) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::new();
    let mut first: Option<(Vec<String>, IterOutcome)> = None;
    let mut problems = Vec::new();
    for k in 0..if quick { 1 } else { SETUPS } {
        let t0 = if k == 0 {
            process_start
        } else {
            clock::mono_now()
        };
        let (texts, outcome) = set_up(w, seed)?;
        setup_s.push(clock::elapsed_ns(t0) as f64 / 1e9);
        match &first {
            None => first = Some((texts, outcome)),
            Some((_, reference)) if reference.canonical != outcome.canonical => {
                problems.push(format!(
                    "set-up {k}: canonical output differs from the first"
                ));
            }
            Some(_) => {}
        }
    }
    let (texts, reference) = first.expect("at least one set-up ran");
    problems.extend(workload_problems(w, &reference));
    problems.extend(reference.failures.iter().cloned());

    let (iter_ms, ops_total, ops_failed, loop_problems) =
        timed_loop(w, &texts, &reference, seconds, quick)?;
    problems.extend(loop_problems);
    Ok(EndToEnd {
        setup_s,
        iter_ms,
        ops_total,
        ops_failed,
        reference,
        peak_rss_mb: peak_rss_mb(),
        problems,
    })
}
