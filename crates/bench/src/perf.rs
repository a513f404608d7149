//! The perf-report subsystem: wall-clock benchmarks of the GF kernel
//! tiers and a bundled scenario sweep, emitting deterministic-schema JSON
//! (`BENCH_gf.json`, `BENCH_sweep.json`).
//!
//! "Deterministic schema" means the key set and key order of the emitted
//! documents never change between runs — only the measured nanosecond
//! values do — so perf reports diff cleanly across commits and the CI
//! smoke job can validate them structurally. The JSON is rendered with
//! the same hand-rolled writer the sweep reports use
//! ([`nab_scenario::json::Json`]); regeneration instructions live in
//! `docs/perf.md`.

use nab_obs::clock;
use std::hint::black_box;

use nab::equality::CodingScheme;
use nab::value::Value;
use nab_gf::kernel::{scalar_mul_row_add, FastOps};
use nab_gf::matrix::Matrix;
use nab_gf::words::WordMatrix;
use nab_gf::{simd, Field, Gf2_16};
use nab_netgraph::gen;
use nab_scenario::json::Json;
use nab_scenario::{parse_str, PhaseLatency, SweepReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bumped whenever a key is added to / removed from the emitted JSON.
/// v2: plan-cache stats in timed sweep metrics/aggregate plus the
/// `plan_cache` cold-vs-cached comparison section.
/// v3: per-phase latency-distribution `percentiles` section, plus the
/// `latency` histograms and `metrics` registry inside the embedded timed
/// sweep report (see `docs/observability.md`).
/// v4: top-level `tier`/`cpu` kernel metadata (the detected arch-SIMD
/// tier and CPU features), batched-op cases (batched row add, slab
/// encode/check, word-slab `mat_mul`) with SIMD tier names, and
/// min-of-[`MIN_REPS`] timing per case.
/// v5: the `plan_repair` A/B section (dispute-heavy replanning with
/// incremental repair on vs. off), disk-tier fields in the `plan_cache`
/// section (`disk_scenario`, `disk_grid_points`, `disk_cold_wall_ns`,
/// `disk_warm_wall_ns`, `disk_hits`, `disk_stores` — the `dc-grid`
/// planning pass, built+persisted vs. loaded), and per-job/aggregate
/// `plan_repairs` / `plan_full_recomputes` / `plan_repair_ns` counters
/// inside the embedded timed sweep.
/// v6: one production path — the GF op set loses v4's three batched-op
/// cases and the `gf256/bytes` / `gf2_16/kernel` `mat_mul` and
/// `gf256/bytes` `invert` cases (their kernels are gone), and the sweep
/// report loses the `plan_repair` A/B section (the repair-off path is
/// gone; the per-job/aggregate counters stay).
/// v7: one production field — the GF op set is `mul_row_add`, `mat_mul`,
/// `encode` and every tier is `gf2_16/*`: the `gf256/*` cases and the
/// `invert`/`solve` kernel-vs-scalar pairs went with the GF(256) tier and
/// the kernelized elimination, and `encode` is labeled by the slab
/// product it runs (`gf2_16/words`).
/// v8: a `net` distribution — message-level timing outside the broadcast
/// phases, empty unless a job ran `net = on` — in `percentiles` and in
/// every `latency` block of the embedded timed sweep, `wall_net_ns` next
/// to the other `wall_*_ns` sums, and the event kernel's `net.rounds` /
/// `net.deliveries` / `net.retransmits` counters in `metrics`.
pub const SCHEMA_VERSION: u64 = 8;

/// Repetitions of every timed loop; the reported `total_ns` is the
/// **minimum** over these (min-of-N filters scheduler and frequency
/// noise, so committed baselines diff stably across regenerations).
pub const MIN_REPS: u32 = 5;

/// The bundled scenario the sweep benchmark runs (the E3 complete-graph
/// grid), embedded so the `perf` binary works from any directory.
pub const SWEEP_SCENARIO: &str = include_str!("../../../scenarios/complete-sweep.scenario");

/// The scenario the plan-cache benchmark runs: the 120-job `scale-grid`,
/// whose 12 distinct networks make plan sharing measurable.
pub const PLAN_CACHE_SCENARIO: &str = include_str!("../../../scenarios/scale-grid.scenario");

/// The scenario whose planning pass the disk-tier benchmark times: the
/// 1024-node `dc-grid` torus, where plan construction — not execution —
/// is the cold-start cost the persistent cache exists to amortize.
pub const PLAN_DISK_SCENARIO: &str = include_str!("../../../scenarios/dc-grid.scenario");

/// One timed GF micro-benchmark case.
#[derive(Debug, Clone)]
pub struct GfCase {
    /// Operation: `mul_row_add`, `mat_mul`, `encode`.
    pub op: &'static str,
    /// Implementation tier, `<field>/<kernel>` (e.g. `gf2_16/simd-avx2`,
    /// `gf2_16/log16`, `gf2_16/scalar`).
    pub tier: &'static str,
    /// Problem size: row length for the row kernel, matrix dimension for
    /// `mat_mul`, symbol count for `encode`.
    pub n: u64,
    /// Timed iterations per repetition (after one warmup iteration).
    pub iters: u64,
    /// Minimum total nanoseconds over [`MIN_REPS`] repetitions of the
    /// `iters`-iteration loop.
    pub total_ns: u64,
}

impl GfCase {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.total_ns as f64 / self.iters.max(1) as f64
    }
}

/// Times `iters` iterations of `f`, repeated [`MIN_REPS`] times after one
/// warmup call, and returns the minimum repetition total (min-of-N).
fn time<R>(iters: u64, mut f: impl FnMut() -> R) -> u64 {
    black_box(f());
    let mut best = u64::MAX;
    for _ in 0..MIN_REPS {
        let t0 = clock::mono_now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn case<R>(
    op: &'static str,
    tier: &'static str,
    n: u64,
    iters: u64,
    f: impl FnMut() -> R,
) -> GfCase {
    GfCase {
        op,
        tier,
        n,
        iters,
        total_ns: time(iters, f),
    }
}

/// The tier label `<Gf2_16 as FastOps>::mul_row_add` actually takes for
/// rows of `len` elements: the detected arch-SIMD kernel when one exists
/// and the row clears the dispatch threshold, otherwise the log-domain
/// loop. Labels are static so `GfCase` stays `&'static str` throughout.
fn row_tier(len: usize) -> &'static str {
    match simd::tier() {
        "avx2" if len >= simd::SIMD_THRESHOLD => "gf2_16/simd-avx2",
        "ssse3" if len >= simd::SIMD_THRESHOLD => "gf2_16/simd-ssse3",
        _ => "gf2_16/log16",
    }
}

/// Runs the GF micro-benchmark grid: the production kernels (the SIMD row
/// kernel, the word-slab GEMM) against the scalar reference on the row
/// kernel and matrix multiply, plus the Algorithm-1 encode.
///
/// `quick` shrinks sizes and iteration counts for smoke runs (CI, tests).
pub fn run_gf_bench(quick: bool) -> Vec<GfCase> {
    let mut rng = StdRng::seed_from_u64(0xBEAC);
    let mut cases = Vec::new();

    // --- Row kernel: dst += s * src over a long row. -------------------
    let row_lens: &[usize] = if quick { &[1024] } else { &[256, 4096] };
    let row_iters = |len: usize| {
        if quick {
            2_000
        } else {
            2_000_000 / len.max(1) as u64 + 1_000
        }
    };
    for &len in row_lens {
        let iters = row_iters(len);
        let src16: Vec<Gf2_16> = (0..len)
            .map(|i| Gf2_16::from_u64(i as u64 * 257 + 11))
            .collect();
        let mut dst16: Vec<Gf2_16> = (0..len)
            .map(|i| Gf2_16::from_u64(i as u64 * 41 + 5))
            .collect();
        // Label the tier that actually runs, so BENCH_gf.json attributes
        // timings to the right kernel.
        cases.push(case(
            "mul_row_add",
            row_tier(len),
            len as u64,
            iters,
            || <Gf2_16 as FastOps>::mul_row_add(&mut dst16, &src16, Gf2_16(0xABCD)),
        ));
        let mut dst16s = dst16.clone();
        cases.push(case(
            "mul_row_add",
            "gf2_16/scalar",
            len as u64,
            iters,
            || scalar_mul_row_add(&mut dst16s, &src16, Gf2_16(0xABCD)),
        ));
    }

    // --- Matrix multiply: the word-slab GEMM vs. the scalar triple loop. --
    let dims: &[usize] = if quick { &[24] } else { &[48, 96] };
    for &n in dims {
        let iters = if quick {
            10
        } else {
            2_000_000 / (n * n * n) as u64 + 5
        };
        let a = Matrix::<Gf2_16>::random(n, n, &mut rng);
        let b = Matrix::<Gf2_16>::random(n, n, &mut rng);
        let aw = WordMatrix::from_matrix(&a);
        let bw = WordMatrix::from_matrix(&b);
        cases.push(case("mat_mul", "gf2_16/words", n as u64, iters, || {
            aw.mat_mul(&bw)
        }));
        cases.push(case("mat_mul", "gf2_16/scalar", n as u64, iters, || {
            a.mul(&b)
        }));
    }

    // --- Algorithm-1 encode on the full coding-scheme path. ------------
    let symbols = if quick { 64 } else { 512 };
    let enc_iters = if quick { 50 } else { 500 };
    let g = gen::complete(6, 4);
    let scheme = CodingScheme::random(&g, 4, 29);
    let value = Value::random(symbols, &mut rng);
    cases.push(case(
        "encode",
        "gf2_16/words",
        symbols as u64,
        enc_iters,
        || scheme.encode(0, 1, &value),
    ));

    cases
}

/// Renders the GF micro-benchmark report (`BENCH_gf.json`): the selected
/// arch-SIMD tier and detected CPU features (so baselines from different
/// machines stay comparable), then every timed case.
pub fn gf_report_json(cases: &[GfCase], quick: bool) -> Json {
    Json::obj(vec![
        ("report", Json::str("gf")),
        ("schema", Json::U64(SCHEMA_VERSION)),
        ("quick", Json::Bool(quick)),
        ("tier", Json::str(simd::tier())),
        ("cpu", Json::str(simd::cpu_features())),
        (
            "cases",
            Json::Arr(
                cases
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("op", Json::str(c.op)),
                            ("tier", Json::str(c.tier)),
                            ("n", Json::U64(c.n)),
                            ("iters", Json::U64(c.iters)),
                            ("total_ns", Json::U64(c.total_ns)),
                            ("ns_per_iter", Json::F64(c.ns_per_iter())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs the bundled scenario sweep under timing instrumentation.
///
/// `quick` shrinks the grid to a smoke-sized subset. Returns the report,
/// the elapsed wall nanoseconds, and the **resolved** worker count
/// (`threads == 0` means one per CPU, resolved here exactly as the sweep
/// runner resolves it, so the recorded metadata matches the run).
///
/// # Errors
///
/// Returns the scenario parse/validation failure, if any.
pub fn run_sweep_bench(quick: bool, threads: usize) -> Result<(SweepReport, u64, usize), String> {
    let mut spec = parse_str(SWEEP_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        spec.q = spec.q.min(2);
        spec.seeds = spec.seeds.min(1);
        spec.symbols.truncate(1);
        spec.n.truncate(1);
        spec.cap.truncate(1);
        spec.bounds = false;
    }
    let resolved = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let t0 = clock::mono_now();
    let report = nab_scenario::sweep::run_sweep(&spec, resolved)?;
    Ok((report, t0.elapsed().as_nanos() as u64, resolved))
}

/// The cold-vs-cached plan-cache comparison: the same sweep measured
/// with per-engine planning (cache off), with a fresh sweep-private
/// cache, and against a pre-warmed external cache.
#[derive(Debug, Clone)]
pub struct PlanCacheBench {
    /// Scenario name the comparison ran.
    pub scenario: String,
    /// Jobs in the sweep grid.
    pub jobs: usize,
    /// Worker threads used for all three runs.
    pub threads: usize,
    /// Wall ns with `plan_cache = false` (every engine plans privately).
    pub cold_wall_ns: u64,
    /// Wall ns with a fresh cache (plans built once, then shared).
    pub cache_cold_wall_ns: u64,
    /// Wall ns re-running against the already-populated cache.
    pub cache_warm_wall_ns: u64,
    /// Cache stats after the fresh-cache run (distinct networks built).
    pub plan_misses: u64,
    /// Cache hits during the fresh-cache run (shared fetches).
    pub plan_hits: u64,
    /// Wall ns the fresh-cache run spent building plans.
    pub plan_build_ns: u64,
    /// Scenario whose *planning pass* the disk-tier timings measure
    /// (`dc-grid`: 1024-node torus — the regime where planning, not
    /// execution, dominates cold start).
    pub disk_scenario: String,
    /// Grid points planned per disk-tier pass.
    pub disk_grid_points: usize,
    /// Wall ns to plan every grid point with a fresh disk-backed cache
    /// over an empty directory: every distinct plan is built *and*
    /// persisted (write-then-rename) — the no-cache cold start plus
    /// persistence overhead.
    pub disk_cold_wall_ns: u64,
    /// Wall ns of the same planning pass in a fresh process-equivalent
    /// cache over the populated directory: in-memory cache empty, every
    /// plan loaded (and re-verified) from disk instead of built.
    pub disk_warm_wall_ns: u64,
    /// Plans loaded from disk during the disk-warm pass.
    pub disk_hits: u64,
    /// Plans persisted during the disk-cold pass.
    pub disk_stores: u64,
    /// Whether all runs produced byte-identical canonical JSON
    /// (the tentpole guarantee; recorded so a regression is visible in
    /// the committed baseline).
    pub reports_identical: bool,
}

/// Runs the plan-cache comparison on the `scale-grid` scenario, plus the
/// disk-tier A/B on the `dc-grid` planning pass (build+persist vs. load
/// at 1024 nodes — the cold-start cost the disk cache amortizes).
///
/// `quick` shrinks the grids to smoke-sized subsets that still contain
/// duplicate networks (so hits stay observable).
///
/// # Errors
///
/// Returns the scenario parse/validation failure, if any.
/// Plans every grid point of `spec` through `cache` — the `--validate`
/// code path without the printing. Returns the number of grid points.
fn plan_grid(
    spec: &nab_scenario::ScenarioSpec,
    cache: &nab::plan::PlanCache,
) -> Result<usize, String> {
    let jobs = nab_scenario::sweep::expand_jobs(spec);
    for job in &jobs {
        let ctx = nab_scenario::topology::ResolveCtx {
            n: job.n,
            cap: job.cap,
            f: job.f,
            seed: job.seed,
        };
        let g = spec
            .topology
            .build(&ctx)
            .map_err(|e| format!("{} grid point {}: {e}", spec.name, job.index))?;
        cache
            .fetch(&g, job.f)
            .map_err(|e| format!("{} grid point {}: {e}", spec.name, job.index))?;
    }
    Ok(jobs.len())
}

pub fn run_plan_cache_bench(quick: bool, threads: usize) -> Result<PlanCacheBench, String> {
    let mut spec = parse_str(PLAN_CACHE_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        spec.q = 1;
        spec.seeds = spec.seeds.min(2);
        spec.symbols.truncate(1);
        spec.n.truncate(2);
        spec.cap.truncate(2);
    }
    let resolved = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };

    spec.plan_cache = false;
    let t0 = clock::mono_now();
    let cold = nab_scenario::sweep::run_sweep(&spec, resolved)?;
    let cold_wall_ns = t0.elapsed().as_nanos() as u64;

    spec.plan_cache = true;
    let cache = nab::plan::PlanCache::new();
    let t0 = clock::mono_now();
    let cached = nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&cache))?;
    let cache_cold_wall_ns = t0.elapsed().as_nanos() as u64;
    let stats = cache.stats();

    let t0 = clock::mono_now();
    let warm = nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&cache))?;
    let cache_warm_wall_ns = t0.elapsed().as_nanos() as u64;

    // Disk tier, identity half: run the same sweep through a disk-backed
    // cache (empty directory, then the populated one) and fold both
    // reports into the byte-identity check — the disk path must never
    // perturb results.
    let dir = std::env::temp_dir().join(format!("nab-plan-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_sweep_cold_cache = nab::plan::PlanCache::with_dir(&dir);
    let disk_cold =
        nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&disk_sweep_cold_cache))?;
    let disk_sweep_warm_cache = nab::plan::PlanCache::with_dir(&dir);
    let disk_warm =
        nab_scenario::run_sweep_with_cache(&spec, resolved, Some(&disk_sweep_warm_cache))?;
    let _ = std::fs::remove_dir_all(&dir);

    // Disk tier, timing half: the datacenter-scale `dc-grid` planning
    // pass — plan every grid point against an empty directory (build +
    // persist), then again from a fresh cache over the populated one
    // (load + verify). Execution is deliberately absent: the disk tier
    // amortizes cold-start *planning*, which at 1024 nodes dwarfs a plan
    // load; timing the whole sweep would mostly measure execution.
    let mut disk_spec = parse_str(PLAN_DISK_SCENARIO).map_err(|e| e.to_string())?;
    if quick {
        disk_spec.cap.truncate(1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let disk_cold_cache = nab::plan::PlanCache::with_dir(&dir);
    let t0 = clock::mono_now();
    let disk_grid_points = plan_grid(&disk_spec, &disk_cold_cache)?;
    let disk_cold_wall_ns = t0.elapsed().as_nanos() as u64;
    let disk_stores = disk_cold_cache.stats().disk_stores;

    let disk_warm_cache = nab::plan::PlanCache::with_dir(&dir);
    let t0 = clock::mono_now();
    plan_grid(&disk_spec, &disk_warm_cache)?;
    let disk_warm_wall_ns = t0.elapsed().as_nanos() as u64;
    let disk_hits = disk_warm_cache.stats().disk_hits;
    let _ = std::fs::remove_dir_all(&dir);

    let reference = cold.to_json();
    Ok(PlanCacheBench {
        scenario: spec.name.clone(),
        jobs: spec.job_count(),
        threads: resolved,
        cold_wall_ns,
        cache_cold_wall_ns,
        cache_warm_wall_ns,
        plan_misses: stats.misses,
        plan_hits: stats.hits,
        plan_build_ns: stats.build_ns,
        disk_scenario: disk_spec.name.clone(),
        disk_grid_points,
        disk_cold_wall_ns,
        disk_warm_wall_ns,
        disk_hits,
        disk_stores,
        reports_identical: reference == cached.to_json()
            && reference == warm.to_json()
            && reference == disk_cold.to_json()
            && reference == disk_warm.to_json(),
    })
}

/// Renders the sweep-wide latency percentiles (`p50`/`p90`/`p99` wall
/// nanoseconds per phase) from the aggregate latency histograms.
fn percentiles_json(latency: &PhaseLatency) -> Json {
    Json::obj(
        latency
            .phases()
            .into_iter()
            .map(|(name, h)| {
                (
                    name,
                    Json::obj(vec![
                        ("count", Json::U64(h.count())),
                        ("p50_ns", Json::U64(h.percentile(50.0))),
                        ("p90_ns", Json::U64(h.percentile(90.0))),
                        ("p99_ns", Json::U64(h.percentile(99.0))),
                    ]),
                )
            })
            .collect(),
    )
}

/// Renders the sweep benchmark report (`BENCH_sweep.json`): run metadata,
/// per-phase latency percentiles, the full timed sweep report (per-job
/// `wall_*_ns`, latency histograms, plan-cache and plan-repair stats
/// included) and the cold-vs-cached-vs-disk `plan_cache` comparison.
pub fn sweep_report_json(
    report: &SweepReport,
    wall_ns: u64,
    threads: usize,
    quick: bool,
    plan_cache: &PlanCacheBench,
) -> Json {
    Json::obj(vec![
        ("report", Json::str("sweep")),
        ("schema", Json::U64(SCHEMA_VERSION)),
        ("quick", Json::Bool(quick)),
        ("threads", Json::U64(threads as u64)),
        ("wall_ns", Json::U64(wall_ns)),
        ("percentiles", percentiles_json(&report.aggregate.latency)),
        (
            "plan_cache",
            Json::obj(vec![
                ("scenario", Json::str(&plan_cache.scenario)),
                ("jobs", Json::U64(plan_cache.jobs as u64)),
                ("threads", Json::U64(plan_cache.threads as u64)),
                ("cold_wall_ns", Json::U64(plan_cache.cold_wall_ns)),
                (
                    "cache_cold_wall_ns",
                    Json::U64(plan_cache.cache_cold_wall_ns),
                ),
                (
                    "cache_warm_wall_ns",
                    Json::U64(plan_cache.cache_warm_wall_ns),
                ),
                ("plan_misses", Json::U64(plan_cache.plan_misses)),
                ("plan_hits", Json::U64(plan_cache.plan_hits)),
                ("plan_build_ns", Json::U64(plan_cache.plan_build_ns)),
                ("disk_scenario", Json::str(&plan_cache.disk_scenario)),
                (
                    "disk_grid_points",
                    Json::U64(plan_cache.disk_grid_points as u64),
                ),
                ("disk_cold_wall_ns", Json::U64(plan_cache.disk_cold_wall_ns)),
                ("disk_warm_wall_ns", Json::U64(plan_cache.disk_warm_wall_ns)),
                ("disk_hits", Json::U64(plan_cache.disk_hits)),
                ("disk_stores", Json::U64(plan_cache.disk_stores)),
                (
                    "reports_identical",
                    Json::Bool(plan_cache.reports_identical),
                ),
            ]),
        ),
        ("sweep", report.to_json_value(true)),
    ])
}

/// A terminal summary table of GF cases (op, tier, n, ns/iter).
pub fn gf_summary_table(cases: &[GfCase]) -> String {
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.op.to_string(),
                c.tier.to_string(),
                c.n.to_string(),
                format!("{:.0}", c.ns_per_iter()),
            ]
        })
        .collect();
    crate::format_table(&["op", "tier", "n", "ns/iter"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_report_schema_is_stable() {
        let cases = vec![GfCase {
            op: "mul_row_add",
            tier: "gf2_16/log16",
            n: 64,
            iters: 10,
            total_ns: 1234,
        }];
        let j = gf_report_json(&cases, true).render();
        assert!(j.starts_with("{\"report\":\"gf\",\"schema\":8,\"quick\":true,\"tier\":\""));
        for key in [
            "\"cpu\":\"",
            "\"cases\":[",
            "\"op\":",
            "\"tier\":",
            "\"n\":64",
            "\"iters\":10",
            "\"total_ns\":1234",
            "\"ns_per_iter\":123.4",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn quick_gf_bench_covers_every_op_and_tier_pair() {
        let cases = run_gf_bench(true);
        let ops: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.op).collect();
        assert_eq!(
            ops.into_iter().collect::<Vec<_>>(),
            vec!["encode", "mat_mul", "mul_row_add"]
        );
        assert!(cases.iter().all(|c| c.tier.starts_with("gf2_16/")));
        // Every specialized tier appears alongside its scalar baseline,
        // with the row cases labeled by the kernel that actually runs on
        // this machine (arch-SIMD when detected, log-domain otherwise).
        assert!(cases.iter().any(|c| c.tier == "gf2_16/words"));
        assert!(cases.iter().any(|c| c.tier == "gf2_16/scalar"));
        let expected_row = match simd::tier() {
            "avx2" => "gf2_16/simd-avx2",
            "ssse3" => "gf2_16/simd-ssse3",
            _ => "gf2_16/log16",
        };
        assert!(
            cases
                .iter()
                .any(|c| c.op == "mul_row_add" && c.tier == expected_row),
            "row tier must track the detected kernel ({expected_row})"
        );
        for c in &cases {
            assert!(c.iters > 0, "{c:?}");
        }
    }

    fn fixture_plan_cache_bench() -> PlanCacheBench {
        PlanCacheBench {
            scenario: "scale-grid".into(),
            jobs: 8,
            threads: 2,
            cold_wall_ns: 300,
            cache_cold_wall_ns: 200,
            cache_warm_wall_ns: 100,
            plan_misses: 4,
            plan_hits: 4,
            plan_build_ns: 50,
            disk_scenario: "dc-grid".into(),
            disk_grid_points: 2,
            disk_cold_wall_ns: 250,
            disk_warm_wall_ns: 120,
            disk_hits: 4,
            disk_stores: 4,
            reports_identical: true,
        }
    }

    #[test]
    fn quick_sweep_bench_produces_timed_report() {
        let (report, wall_ns, threads) = run_sweep_bench(true, 2).expect("bundled scenario runs");
        assert_eq!(threads, 2, "explicit thread counts pass through");
        assert!(report.aggregate.ok_jobs > 0);
        assert!(report.aggregate.all_correct);
        let j = sweep_report_json(&report, wall_ns, threads, true, &fixture_plan_cache_bench())
            .render();
        assert!(j.starts_with("{\"report\":\"sweep\",\"schema\":8"));
        assert!(
            j.contains("\"wall_total_ns\":"),
            "timed sweep embedded: {j}"
        );
        assert!(
            j.contains("\"plan_cache_hits\":"),
            "per-job cache stats embedded: {j}"
        );
        // The v3 percentile section covers every phase plus the
        // whole-instance distribution, in declaration order.
        assert!(
            j.contains("\"percentiles\":{\"phase1\":{\"count\":"),
            "latency percentiles embedded: {j}"
        );
        for phase in ["phase1", "equality", "flags", "dispute", "net", "instance"] {
            assert!(
                j.contains(&format!("\"{phase}\":{{\"count\":")),
                "percentiles cover {phase}: {j}"
            );
        }
        for p in ["p50_ns", "p90_ns", "p99_ns"] {
            assert!(j.contains(&format!("\"{p}\":")), "{p} present");
        }
        // The timed sweep inside carries per-job latency histograms and
        // the sweep-wide metrics registry.
        assert!(j.contains("\"latency\":{\"phase1\":{"), "job latency: {j}");
        assert!(
            j.contains("\"metrics\":{\"counters\":{"),
            "metrics registry: {j}"
        );
        assert!(j.contains(
            "\"plan_cache\":{\"scenario\":\"scale-grid\",\"jobs\":8,\"threads\":2,\
             \"cold_wall_ns\":300,\"cache_cold_wall_ns\":200,\"cache_warm_wall_ns\":100,\
             \"plan_misses\":4,\"plan_hits\":4,\"plan_build_ns\":50,\
             \"disk_scenario\":\"dc-grid\",\"disk_grid_points\":2,\
             \"disk_cold_wall_ns\":250,\"disk_warm_wall_ns\":120,\
             \"disk_hits\":4,\"disk_stores\":4,\
             \"reports_identical\":true}"
        ));
        assert!(!j.contains("\"plan_repair\":"), "v6 drops the A/B section");
        // The timed sweep carries the per-job repair counters.
        assert!(j.contains("\"plan_repairs\":"), "repair counters: {j}");
        assert!(
            j.contains("\"plan_full_recomputes\":"),
            "recompute counters: {j}"
        );
        assert!(j.contains("\"sweep\":{\"scenario\":\"complete-sweep\""));
    }

    #[test]
    fn quick_plan_cache_bench_shares_plans_and_stays_identical() {
        let b = run_plan_cache_bench(true, 2).expect("scale-grid runs");
        assert_eq!(b.scenario, "scale-grid");
        assert!(b.jobs >= 8, "quick grid keeps duplicate networks");
        assert!(b.plan_misses > 0);
        assert!(
            b.plan_hits > 0,
            "duplicate networks must hit the cache: {b:?}"
        );
        assert!(b.plan_build_ns > 0);
        assert_eq!(b.disk_scenario, "dc-grid");
        assert!(b.disk_grid_points >= 1, "dc-grid plans at least once");
        assert!(b.disk_stores > 0, "disk-cold pass persists plans: {b:?}");
        assert_eq!(
            b.disk_hits, b.disk_stores,
            "warm pass loads every persisted plan: {b:?}"
        );
        assert!(
            b.disk_warm_wall_ns < b.disk_cold_wall_ns,
            "loading a 1024-node plan beats building it: {b:?}"
        );
        assert!(
            b.reports_identical,
            "cache state must not perturb canonical JSON"
        );
    }

    #[test]
    fn default_thread_count_is_resolved_before_recording() {
        let (_, _, threads) = run_sweep_bench(true, 0).expect("bundled scenario runs");
        assert!(threads >= 1, "0 must resolve to the actual worker count");
    }
}
