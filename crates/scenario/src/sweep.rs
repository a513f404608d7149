//! Grid expansion and the parallel sweep runner.
//!
//! A scenario's grid (`n × cap × f × symbols × seeds`) expands into
//! [`Job`]s in a fixed deterministic order. Jobs are fully independent:
//! every random choice a job makes (topology, inputs, adversary coin
//! flips) derives from a per-job seed mixed from `seed0` and the job
//! index, so a sweep produces **bit-identical results for any worker
//! thread count** — the property the determinism property tests pin down.
//!
//! Execution uses a work-stealing loop over `std::thread::scope`: an
//! atomic cursor hands out job indices, each worker writes its result
//! into the job's slot, and the report assembles slots in index order.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use nab::dispute::DisputeState;
use nab::engine::{instance_correct, NabConfig, NabEngine};
use nab::plan::{PlanCache, PlanFetch};
use nab::value::{Value, SYMBOL_BITS};
use nab_netgraph::{DiGraph, NodeId};
use nab_obs::trace::{self, EventKind, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::grammar::Arg;
use crate::report::{Aggregate, JobBounds, JobMetrics, JobOutcome, SweepReport};
use crate::spec::ScenarioSpec;
use crate::topology::ResolveCtx;

/// One grid point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Position in the expanded grid (stable across thread counts).
    pub index: usize,
    /// Node count (`$n`).
    pub n: usize,
    /// Capacity scale (`$cap`).
    pub cap: u64,
    /// Fault bound (`$f`).
    pub f: usize,
    /// Input size in 16-bit symbols.
    pub symbols: usize,
    /// Seed repetition index (`0..spec.seeds`).
    pub seed_index: u64,
    /// The job's derived deterministic seed.
    pub seed: u64,
}

impl Job {
    /// The grid point the scenario's topology template resolves against.
    pub fn ctx(&self) -> ResolveCtx {
        ResolveCtx {
            n: self.n,
            cap: self.cap,
            f: self.f,
            seed: self.seed,
        }
    }
}

/// SplitMix64-style mixing for per-job seed derivation.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a scenario's grid into jobs, in deterministic order
/// (`n`, then `cap`, then `f`, then `symbols`, then seed index).
pub fn expand_jobs(spec: &ScenarioSpec) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(spec.job_count());
    for &n in &spec.n {
        for &cap in &spec.cap {
            for &f in &spec.f {
                for &symbols in &spec.symbols {
                    for seed_index in 0..spec.seeds {
                        let index = jobs.len();
                        jobs.push(Job {
                            index,
                            n,
                            cap,
                            f,
                            symbols,
                            seed_index,
                            seed: mix(spec.seed0, index as u64),
                        });
                    }
                }
            }
        }
    }
    jobs
}

/// Runs every job of a scenario across `threads` workers and aggregates
/// the results.
///
/// `threads = 0` uses one worker per available CPU. Results are
/// independent of the worker count *and* of the plan-cache state: the
/// workers share a content-addressed [`PlanCache`] of network plans,
/// which changes wall clock but never canonical output.
///
/// # Errors
///
/// Returns the scenario validation failure, if any; per-job failures
/// (impossible grid points, rejected networks) are recorded in the
/// report instead of aborting the sweep.
pub fn run_sweep(spec: &ScenarioSpec, threads: usize) -> Result<SweepReport, String> {
    run_sweep_with_options(
        spec,
        &SweepOptions {
            threads,
            ..SweepOptions::default()
        },
    )
}

/// A point-in-time view of sweep progress, handed to the
/// [`SweepOptions::progress`] callback after every completed job. All
/// counters are cumulative over the sweep so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Jobs completed so far (measured or rejected).
    pub jobs_done: usize,
    /// Total jobs in the grid.
    pub jobs_total: usize,
    /// Broadcast instances executed so far.
    pub instances: u64,
    /// Dispute-control executions observed so far.
    pub dispute_rounds: u64,
    /// Plan-cache hits so far.
    pub plan_hits: u64,
    /// Plan builds (cache misses or direct builds) so far.
    pub plan_misses: u64,
    /// Jobs rejected so far (impossible grid points).
    pub rejected: u64,
}

/// Execution options for [`run_sweep_with_options`]. Everything here is a
/// pure observer: none of the fields can change canonical sweep results.
#[derive(Default)]
pub struct SweepOptions<'a> {
    /// Worker threads; 0 = one per available CPU.
    pub threads: usize,
    /// Externally owned plan cache, so callers (long-lived services
    /// sweeping many scenarios over the same topology family, the CLI's
    /// `--plan-cache-dir`) can keep plans warm across sweeps. `None` uses
    /// a cache private to the sweep.
    pub cache: Option<&'a PlanCache>,
    /// Trace sink installed on every worker thread for the duration of
    /// the sweep. Workers emit job/instance/phase/dispute/plan-cache
    /// events (see `nab_obs::trace::EventKind`).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Called after each completed job with cumulative progress — the
    /// CLI's `--progress` reporter. Invoked from worker threads; must be
    /// `Sync`.
    pub progress: Option<&'a (dyn Fn(ProgressSnapshot) + Sync)>,
}

/// Cumulative progress counters shared by the worker threads. Updated
/// with relaxed atomics — the snapshot a callback sees is monotone but
/// only approximately ordered across workers, which is all a live
/// reporter needs.
struct ProgressState {
    jobs_total: usize,
    jobs_done: AtomicUsize,
    instances: AtomicU64,
    dispute_rounds: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    rejected: AtomicU64,
}

impl ProgressState {
    fn new(jobs_total: usize) -> Self {
        Self {
            jobs_total,
            jobs_done: AtomicUsize::new(0),
            instances: AtomicU64::new(0),
            dispute_rounds: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Fold one finished job into the counters and return the snapshot
    /// after it.
    fn account(&self, outcome: &JobOutcome) -> ProgressSnapshot {
        let jobs_done = self.jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
        let mut snapshot = ProgressSnapshot {
            jobs_done,
            jobs_total: self.jobs_total,
            ..ProgressSnapshot::default()
        };
        match &outcome.result {
            Ok(m) => {
                snapshot.instances = self
                    .instances
                    .fetch_add(m.instances as u64, Ordering::Relaxed)
                    + m.instances as u64;
                snapshot.dispute_rounds = self
                    .dispute_rounds
                    .fetch_add(m.dispute_rounds as u64, Ordering::Relaxed)
                    + m.dispute_rounds as u64;
                snapshot.plan_hits =
                    self.plan_hits.fetch_add(m.plan_hits, Ordering::Relaxed) + m.plan_hits;
                snapshot.plan_misses =
                    self.plan_misses.fetch_add(m.plan_misses, Ordering::Relaxed) + m.plan_misses;
                snapshot.rejected = self.rejected.load(Ordering::Relaxed);
            }
            Err(_) => {
                snapshot.rejected = self.rejected.fetch_add(1, Ordering::Relaxed) + 1;
                snapshot.instances = self.instances.load(Ordering::Relaxed);
                snapshot.dispute_rounds = self.dispute_rounds.load(Ordering::Relaxed);
                snapshot.plan_hits = self.plan_hits.load(Ordering::Relaxed);
                snapshot.plan_misses = self.plan_misses.load(Ordering::Relaxed);
            }
        }
        snapshot
    }
}

/// The fully general sweep entry point: [`run_sweep`] plus an externally
/// owned plan cache and observability hooks (trace sink, progress
/// callback). None of them changes canonical results — the determinism
/// proptests pin JSON byte-equality across cache states and with tracing
/// on vs. off.
///
/// # Errors
///
/// Returns the scenario validation failure, if any.
pub fn run_sweep_with_options(
    spec: &ScenarioSpec,
    opts: &SweepOptions<'_>,
) -> Result<SweepReport, String> {
    spec.validate()?;
    let private_cache = PlanCache::new();
    let cache = opts.cache.unwrap_or(&private_cache);
    let jobs = expand_jobs(spec);
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    }
    .min(jobs.len())
    .max(1);

    if let Some(sink) = &opts.trace {
        // Sweep start/end events come from the coordinating thread.
        trace::set_thread_sink(Some(Arc::clone(sink)));
        trace::emit(EventKind::SweepStart {
            jobs: jobs.len() as u64,
            tier: nab_gf::simd::tier(),
            cpu: nab_gf::simd::cpu_features(),
        });
    }
    let progress = ProgressState::new(jobs.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                if let Some(sink) = &opts.trace {
                    trace::set_thread_sink(Some(Arc::clone(sink)));
                }
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    trace::set_job(i as u64);
                    trace::emit(EventKind::JobStart);
                    // A panicking job (an engine bug, a chaos-panic
                    // adversary) becomes a job-level error: the worker
                    // survives, the remaining jobs still run, and the
                    // report records what happened. Without this, one
                    // panic poisoned every job slot behind it and the
                    // final assembly aborted the whole process.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_job(spec, &jobs[i], Some(cache))
                    }))
                    .unwrap_or_else(|payload| panicked_outcome(&jobs[i], payload.as_ref()));
                    trace::emit(EventKind::JobEnd);
                    if let Some(callback) = opts.progress {
                        callback(progress.account(&outcome));
                    }
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                }
                if opts.trace.is_some() {
                    trace::set_thread_sink(None);
                }
            });
        }
    });
    if opts.trace.is_some() {
        trace::set_job(0);
        trace::emit(EventKind::SweepEnd);
        trace::set_thread_sink(None);
    }
    #[expect(
        clippy::expect_used,
        reason = "static partition assigns every job to exactly one worker"
    )]
    let outcomes: Vec<JobOutcome> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker loop covered every job")
        })
        .collect();

    let mut report = assemble_report(spec, outcomes);
    report.aggregate.routes_extracted = cache.routes_extracted();
    Ok(report)
}

/// Assembles the report of a scenario from its jobs' outcomes, in grid
/// order, however they were produced.
pub fn assemble_report(spec: &ScenarioSpec, jobs: Vec<JobOutcome>) -> SweepReport {
    SweepReport {
        scenario: spec.name.clone(),
        topology: spec.topology.spec_string(),
        adversary: spec.adversary.spec_string(),
        faults: spec.faults.spec_string(),
        aggregate: Aggregate::from_outcomes(&jobs),
        jobs,
    }
}

/// Builds the outcome recorded for a job whose measurement panicked:
/// the panic payload (a `&str` or `String` for every `panic!` with a
/// message) becomes the job-level error string.
fn panicked_outcome(job: &Job, payload: &(dyn std::any::Any + Send)) -> JobOutcome {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    unmeasured(job, format!("job panicked: {msg}"))
}

/// `job`'s outcome before any placement is measured: no faults tried,
/// the job rejected for `error`.
fn unmeasured(job: &Job, error: String) -> JobOutcome {
    JobOutcome {
        index: job.index,
        n: job.n,
        cap: job.cap,
        f: job.f,
        symbols: job.symbols,
        seed_index: job.seed_index,
        seed: job.seed,
        faulty: Vec::new(),
        candidates_tried: 0,
        candidates_failed: 0,
        candidate_error: None,
        result: Err(error),
    }
}

/// `job`'s initial network. With `net = on`, a straggler must name one of
/// its links (dispute removal and `degrade` may drop links later).
pub fn job_network(spec: &ScenarioSpec, job: &Job) -> Result<DiGraph, String> {
    let g = (spec.topology.build(&job.ctx())).map_err(|e| format!("topology rejected: {e}"))?;
    match spec.link_model.straggler {
        Some((a, b, _)) if spec.net && g.find_edge(a, b).is_none() => Err(format!(
            "link_model straggler names link {a} -> {b}, which topology {} lacks at n={} cap={}",
            spec.topology.spec_string(),
            job.n,
            job.cap
        )),
        _ => Ok(g),
    }
}

/// Runs one job: materializes its graph, resolves the fault placement
/// (searching candidates for worst-case schedules), and measures.
/// `cache` is the sweep-shared plan cache (`None` = a cache private to
/// this job).
pub fn run_job(spec: &ScenarioSpec, job: &Job, cache: Option<&PlanCache>) -> JobOutcome {
    let private_cache;
    let cache = match cache {
        Some(c) => c,
        None => {
            private_cache = PlanCache::new();
            &private_cache
        }
    };
    let mut outcome = unmeasured(job, "unresolved".into());
    let graph = match job_network(spec, job) {
        Ok(g) => g,
        Err(e) => {
            outcome.result = Err(e);
            return outcome;
        }
    };
    let candidates = spec.faults.candidates(graph.node_count(), job.seed_index);
    if candidates.is_empty() {
        let why = match spec.faults.args.first() {
            Some(Arg::Ids(set)) => format!("names node {}", set.last().unwrap_or(&0)),
            _ => format!("places {} nodes", spec.faults.fault_count()),
        };
        outcome.result = Err(format!(
            "fault schedule {} {why}, but the network only has nodes 0..{}",
            spec.faults.spec_string(),
            graph.node_count()
        ));
        return outcome;
    }
    if spec.faults.fault_count() > job.f {
        outcome.result = Err(format!(
            "fault schedule places {} nodes but the job's fault bound is f={}",
            spec.faults.fault_count(),
            job.f
        ));
        return outcome;
    }

    // Worst-case search: measure every candidate placement, keep the
    // throughput minimizer (ties break to the earlier candidate, which is
    // deterministic because candidate order is). A candidate whose
    // measurement errors is arguably the *most* damaging placement, so it
    // is never silently dropped: the failure count and first error travel
    // in the outcome even when other candidates succeed.
    let mut worst: Option<(BTreeSet<NodeId>, JobMetrics)> = None;
    let mut first_err: Option<(Vec<NodeId>, String)> = None;
    // Plan-cache accounting is summed over *all* candidate measurements
    // (not just the selected worst one) so the job's timed report shows
    // everything the job actually paid for.
    let (mut plan_hits, mut plan_misses, mut plan_build_ns) = (0u64, 0u64, 0u64);
    for faulty in &candidates {
        match measure(spec, job, &graph, faulty, cache) {
            Ok(metrics) => {
                plan_hits += metrics.plan_hits;
                plan_misses += metrics.plan_misses;
                plan_build_ns += metrics.plan_build_ns;
                let replace = match &worst {
                    None => true,
                    Some((_, best)) => metrics.throughput < best.throughput,
                };
                if replace {
                    worst = Some((faulty.clone(), metrics));
                }
            }
            Err(e) => {
                outcome.candidates_failed += 1;
                if first_err.is_none() {
                    first_err = Some((faulty.iter().copied().collect(), e));
                }
            }
        }
    }
    outcome.candidates_tried = candidates.len();
    outcome.candidate_error = first_err
        .as_ref()
        .map(|(faulty, e)| format!("placement {faulty:?}: {e}"));
    match worst {
        Some((faulty, mut metrics)) => {
            metrics.plan_hits = plan_hits;
            metrics.plan_misses = plan_misses;
            metrics.plan_build_ns = plan_build_ns;
            outcome.faulty = faulty.into_iter().collect();
            outcome.result = Ok(metrics);
        }
        None => {
            let (faulty, e) =
                first_err.unwrap_or_else(|| (Vec::new(), "no candidate measured".into()));
            outcome.faulty = faulty;
            outcome.result = Err(e);
        }
    }
    outcome
}

/// Folds one plan fetch into a job's plan-cache accounting.
fn record_fetch(metrics: &mut JobMetrics, fetch: &PlanFetch) {
    if fetch.hit {
        metrics.plan_hits += 1;
    } else {
        metrics.plan_misses += 1;
        metrics.plan_build_ns += fetch.build_ns;
    }
}

/// Measures one (graph, faulty-set) pair: one engine runs `spec.q`
/// instances. The network plan is fetched from the cache; whether that
/// fetch hit, loaded from disk or built, the measured protocol behavior
/// is bit-identical — plans are deterministic functions of `(G, f)`.
fn measure(
    spec: &ScenarioSpec,
    job: &Job,
    graph: &DiGraph,
    faulty: &BTreeSet<NodeId>,
    cache: &PlanCache,
) -> Result<JobMetrics, String> {
    spec.adversary.validate_for(graph.node_count(), faulty)?;
    let job_start = nab_obs::clock::mono_now();
    let cfg = NabConfig {
        f: job.f,
        symbols: job.symbols,
        seed: job.seed,
    };
    let fetch = cache
        .fetch(graph, job.f)
        .map_err(|e| format!("network rejected: {e}"))?;
    let mut engine = NabEngine::from_plan(Arc::clone(&fetch.plan), cfg)
        .map_err(|e| format!("network rejected: {e}"))?;
    engine.set_broadcast_kind(spec.broadcast);
    if spec.net {
        // The jitter/loss stream derives from the job seed exactly like
        // the adversary and input RNGs — never from wall-clock.
        engine.set_net(Some(nab::NetExec {
            model: spec.link_model.build(),
            seed: mix(job.seed, 0x7E7),
        }));
    }
    let mut adv = spec.adversary.build(mix(job.seed, 0x0AD));
    let mut input_rng = StdRng::seed_from_u64(mix(job.seed, 0x1A7));

    let bits_per_instance = job.symbols as u64 * SYMBOL_BITS;
    let mut metrics = JobMetrics {
        dispute_budget: DisputeState::max_executions(job.f),
        all_correct: true,
        delivered: spec.net.then(nab::DeliveredTimes::default),
        ..JobMetrics::default()
    };
    record_fetch(&mut metrics, &fetch);
    // Steady state: the instances after the last dispute round — the
    // regime the paper's f(f+1) amortization argument converges to. A
    // dispute round restarts the tail.
    let (mut steady_time, mut steady_bits) = (0.0, 0u64);

    let mut cur_epoch = 0usize;
    for inst in 0..spec.q {
        // Epoch boundary: the mutation schedule re-provisions link
        // capacities (node/edge sets unchanged) and the engine migrates to
        // the new network's plan, carrying its dispute state — a live
        // deployment following an OCS reconfiguration. Mutated graphs are
        // content-addressed like any other, so a schedule that revisits a
        // profile (flap) hits the plan cache.
        let epoch = spec.mutations.epoch(inst);
        if epoch != cur_epoch {
            cur_epoch = epoch;
            let mutated = spec.mutations.graph_for_epoch(graph, epoch, job.seed);
            let fetch = cache
                .fetch(&mutated, job.f)
                .map_err(|e| format!("mutated network rejected: {e}"))?;
            record_fetch(&mut metrics, &fetch);
            engine
                .migrate_to_plan(Arc::clone(&fetch.plan))
                .map_err(|e| format!("mutated network rejected: {e}"))?;
        }
        let input = Value::random(job.symbols, &mut input_rng);
        let rep = engine
            .run_instance(&input, faulty, adv.as_mut())
            .map_err(|e| format!("instance failed: {e}"))?;
        if inst == 0 {
            metrics.gamma1 = rep.gamma_k;
            metrics.rho1 = rep.rho_k;
        }
        let t = rep.times.total();
        // A defaulted instance (source already exposed) delivers the
        // default value, not the payload, at zero simulated cost — it must
        // count zero useful bits, or source-faulty placements would report
        // *inflated* throughput and a worst-case search would never select
        // them.
        let useful_bits = if rep.defaulted { 0 } else { bits_per_instance };
        metrics.instances += 1;
        metrics.total_bits += useful_bits;
        metrics.total_time += t;
        metrics.phase1_time += rep.times.phase1;
        metrics.equality_time += rep.times.equality;
        metrics.flags_time += rep.times.flags;
        metrics.dispute_time += rep.times.dispute;
        metrics.latency.record_instance(&rep);
        if let (Some(acc), Some(d)) = (metrics.delivered.as_mut(), rep.delivered.as_ref()) {
            acc.merge(d);
        }
        metrics.dispute_rounds += usize::from(rep.dispute_ran);
        metrics.mismatch_instances += usize::from(rep.mismatch_detected);
        metrics.defaulted_instances += usize::from(rep.defaulted);
        for &v in &rep.newly_removed {
            metrics.exposed_history.push((inst, v));
        }
        if rep.dispute_ran {
            (steady_time, steady_bits) = (0.0, 0);
        } else {
            steady_time += t;
            steady_bits += useful_bits;
        }

        if !instance_correct(&rep, faulty, &input) {
            metrics.all_correct = false;
        }
    }

    // Accumulated dispute state and replanning counters.
    metrics.pairs = engine.disputes().pairs.iter().copied().collect();
    metrics.removed = engine.disputes().removed.iter().copied().collect();
    let rs = engine.repair_stats();
    metrics.plan_repairs = rs.repairs;
    metrics.plan_full_recomputes = rs.full_recomputes;
    metrics.plan_repair_ns = rs.repair_ns;

    metrics.throughput = if metrics.total_time > 0.0 {
        metrics.total_bits as f64 / metrics.total_time
    } else {
        0.0
    };
    metrics.dispute_budget_exceeded = metrics.dispute_rounds > metrics.dispute_budget;
    if steady_bits > 0 && steady_time > 0.0 {
        metrics.steady_throughput = Some(steady_bits as f64 / steady_time);
    }
    // Amortized overhead: time beyond the optimal unreliable broadcast
    // (everything Phase 2/3 adds), per instance.
    metrics.amortized_overhead = if metrics.instances > 0 {
        (metrics.total_time - metrics.phase1_time) / metrics.instances as f64
    } else {
        0.0
    };

    if spec.bounds {
        // The γ*/ρ* enumeration is cached in the plan: worst-case
        // candidate searches on the same network pay for it once (the
        // computed values are identical either way).
        metrics.bounds = engine
            .plan()
            .bounds_report(spec.bounds_budget)
            .map(|r| JobBounds {
                eq6_lower: r.tnab_lower,
                thm2_upper: r.capacity_upper,
                fraction_of_lower: if r.tnab_lower > 0.0 {
                    metrics.throughput / r.tnab_lower
                } else {
                    0.0
                },
                fraction_of_upper: if r.capacity_upper > 0 {
                    metrics.throughput / r.capacity_upper as f64
                } else {
                    0.0
                },
                gamma_star_exact: r.gamma_star.exact,
            });
    }
    metrics.wall_ns = job_start.elapsed().as_nanos() as u64;
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversarySpec;
    use crate::faults::FaultSchedule;
    use crate::spec::ScenarioSpec;
    use crate::topology::TopologyTemplate;

    fn adv(spec: &str) -> AdversarySpec {
        AdversarySpec::parse(spec).unwrap()
    }

    fn faults(spec: &str) -> FaultSchedule {
        FaultSchedule::parse(spec).unwrap()
    }

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            topology: TopologyTemplate::parse("complete:$n:$cap").unwrap(),
            q: 2,
            n: vec![4, 5],
            cap: vec![1, 2],
            symbols: vec![8],
            seeds: 2,
            ..ScenarioSpec::new("unit")
        }
    }

    /// The cold-plan oracle: every job plans on a fresh cache of its own,
    /// so no plan (or memo inside one) is shared between jobs.
    fn cold_plan_sweep(spec: &ScenarioSpec) -> SweepReport {
        let jobs = expand_jobs(spec);
        let cold = |job| run_job(spec, job, Some(&PlanCache::new()));
        assemble_report(spec, jobs.iter().map(cold).collect())
    }

    fn sweep_on(spec: &ScenarioSpec, threads: usize, cache: &PlanCache) -> SweepReport {
        let opts = SweepOptions {
            threads,
            cache: Some(cache),
            ..SweepOptions::default()
        };
        run_sweep_with_options(spec, &opts).unwrap()
    }

    #[test]
    fn grid_expansion_order_and_seeds_are_stable() {
        let jobs = expand_jobs(&small_spec());
        assert_eq!(jobs.len(), 8);
        assert_eq!((jobs[0].n, jobs[0].cap, jobs[0].seed_index), (4, 1, 0));
        assert_eq!((jobs[1].n, jobs[1].cap, jobs[1].seed_index), (4, 1, 1));
        assert_eq!((jobs[2].n, jobs[2].cap, jobs[2].seed_index), (4, 2, 0));
        assert_eq!((jobs[7].n, jobs[7].cap, jobs[7].seed_index), (5, 2, 1));
        // Seeds differ per job but reproduce exactly.
        let again = expand_jobs(&small_spec());
        assert_eq!(jobs, again);
        let seeds: BTreeSet<u64> = jobs.iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn fault_free_sweep_measures_throughput() {
        let report = run_sweep(&small_spec(), 1).unwrap();
        assert_eq!(report.jobs.len(), 8);
        assert_eq!(report.aggregate.rejected_jobs, 0);
        assert!(report.aggregate.all_correct);
        assert_eq!(report.aggregate.total_dispute_rounds, 0);
        for job in &report.jobs {
            let m = job.result.as_ref().unwrap();
            assert!(m.throughput > 0.0);
            assert_eq!(m.instances, 2);
            assert_eq!(m.total_bits, 2 * 8 * 16, "16 bits per symbol");
            // No disputes → the whole run is steady state.
            assert_eq!(m.steady_throughput, Some(m.throughput));
        }
    }

    #[test]
    fn options_hooks_observe_the_sweep() {
        use nab_obs::trace::EventKind;
        use nab_obs::BufferSink;
        use std::sync::Mutex;

        let spec = small_spec(); // 8 jobs
        let sink = Arc::new(BufferSink::new());
        let snapshots: Mutex<Vec<ProgressSnapshot>> = Mutex::new(Vec::new());
        let progress = |s: ProgressSnapshot| snapshots.lock().unwrap().push(s);
        let opts = SweepOptions {
            threads: 2,
            trace: Some(sink.clone()),
            progress: Some(&progress),
            ..SweepOptions::default()
        };
        let report = run_sweep_with_options(&spec, &opts).unwrap();

        // One progress callback per finished job, culminating in done == total.
        let snaps = snapshots.into_inner().unwrap();
        assert_eq!(snaps.len(), 8);
        assert!(snaps.iter().any(|s| s.jobs_done == 8));
        assert!(snaps.iter().all(|s| s.jobs_total == 8 && s.rejected == 0));
        let instances = snaps.iter().map(|s| s.instances).max().unwrap();
        assert_eq!(instances as usize, report.aggregate.total_instances);

        // The trace stream brackets the sweep, every job, and every phase.
        let events = sink.take_sorted();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::SweepStart { jobs: 8, .. }))
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::SweepEnd))
                .count(),
            1
        );
        let started: BTreeSet<u64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JobStart))
            .map(|e| e.job)
            .collect();
        assert_eq!(started.len(), 8, "every job emits JobStart");
        let phase_starts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PhaseStart(_)))
            .count();
        let phase_ends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PhaseEnd(_)))
            .count();
        assert!(phase_starts > 0);
        assert_eq!(phase_starts, phase_ends, "phase spans close on all paths");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::InstanceStart)));
    }

    #[test]
    fn corruptor_sweep_finds_disputes_and_stays_correct() {
        let spec = ScenarioSpec {
            adversary: adv("corruptor"),
            faults: faults("fixed:2"),
            q: 3,
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        assert!(report.aggregate.all_correct);
        assert!(report.aggregate.total_dispute_rounds > 0);
        for job in &report.jobs {
            let m = job.result.as_ref().unwrap();
            assert!(m.dispute_rounds <= m.dispute_budget, "f(f+1) exceeded");
            // The truthful corruptor gets exposed.
            assert_eq!(m.removed, vec![2]);
            assert!(m.exposed_history.iter().any(|&(_, v)| v == 2));
        }
    }

    #[test]
    fn rotating_schedule_covers_distinct_placements() {
        let spec = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            faults: faults("rotating:1"),
            adversary: adv("corruptor"),
            seeds: 4,
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        let placements: BTreeSet<Vec<usize>> =
            report.jobs.iter().map(|j| j.faulty.clone()).collect();
        assert_eq!(placements.len(), 4, "4 seed indices → 4 placements");
        assert!(report.aggregate.all_correct);
    }

    #[test]
    fn worst_case_search_picks_throughput_minimizer() {
        let spec = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            seeds: 1,
            adversary: adv("corruptor"),
            faults: faults("worst-case:1:4"),
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        let job = &report.jobs[0];
        assert_eq!(job.candidates_tried, 4);
        let chosen = job.result.as_ref().unwrap().throughput;
        // Verify minimality by re-measuring each candidate.
        let jobs = expand_jobs(&spec);
        for cand in spec.faults.candidates(4, 0) {
            let g = spec
                .topology
                .build(&ResolveCtx {
                    n: 4,
                    cap: 2,
                    f: 1,
                    seed: jobs[0].seed,
                })
                .unwrap();
            let m = measure(&spec, &jobs[0], &g, &cand, &PlanCache::new()).unwrap();
            assert!(chosen <= m.throughput + 1e-12);
        }
    }

    #[test]
    fn worst_case_search_can_select_the_source() {
        // An equivocating source gets exposed after a couple of disputes;
        // the remaining instances default with zero *useful* bits. If
        // defaulted instances counted full payload bits (at zero cost),
        // the source placement would look artificially fast and the
        // search would always avoid it.
        let spec = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            seeds: 1,
            q: 6,
            adversary: adv("equivocate"),
            faults: faults("worst-case:1:4"),
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        let job = &report.jobs[0];
        let m = job.result.as_ref().unwrap();
        assert!(m.all_correct);
        assert_eq!(
            job.faulty,
            vec![0],
            "a faulty source that stops delivering payload is the worst placement"
        );
        assert!(m.defaulted_instances > 0, "exposure defaults the tail");
        assert_eq!(
            m.total_bits,
            (m.instances - m.defaulted_instances) as u64 * 8 * 16,
            "defaulted instances count zero useful bits"
        );
    }

    #[test]
    fn impossible_grid_points_are_recorded_not_fatal() {
        // A ring is never 3-connected: engine must reject, sweep must go on.
        let spec = ScenarioSpec {
            topology: TopologyTemplate::parse("ring:$n:$cap").unwrap(),
            n: vec![5],
            cap: vec![1],
            q: 1,
            ..ScenarioSpec::new("rejects")
        };
        let report = run_sweep(&spec, 1).unwrap();
        assert_eq!(report.aggregate.rejected_jobs, 1);
        let job = &report.jobs[0];
        let err = job.result.as_ref().unwrap_err();
        assert!(err.contains("network rejected"), "{err}");
        // The failed candidate is accounted for, not silently dropped.
        assert_eq!(job.candidates_failed, 1);
        assert!(job.candidate_error.as_ref().unwrap().contains("placement"));
    }

    #[test]
    fn fault_count_above_f_is_rejected_cleanly() {
        let spec = ScenarioSpec {
            faults: faults("fixed:1,2"),
            f: vec![1],
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        assert_eq!(report.aggregate.rejected_jobs, report.jobs.len());
        assert!(report.jobs[0]
            .result
            .as_ref()
            .unwrap_err()
            .contains("fault bound"));
    }

    #[test]
    fn panicking_jobs_become_job_errors_not_process_aborts() {
        // Every job's adversary panics mid-instance (faulty node 2 acts
        // in every Phase 1). The sweep must finish all 8 jobs, record
        // each panic as a job-level error, and keep the report sound.
        let spec = ScenarioSpec {
            adversary: adv("chaos-panic"),
            faults: faults("fixed:2"),
            ..small_spec()
        };
        let report = run_sweep(&spec, 2).unwrap();
        assert_eq!(report.jobs.len(), 8);
        assert_eq!(report.aggregate.rejected_jobs, 8);
        for job in &report.jobs {
            let err = job.result.as_ref().unwrap_err();
            assert!(err.contains("job panicked"), "{err}");
            assert!(err.contains("chaos-panic"), "{err}");
        }
    }

    #[test]
    fn net_zero_model_matches_formula_and_carries_delivered_times() {
        let base = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            seeds: 1,
            ..small_spec()
        };
        let off = run_sweep(&base, 1).unwrap();
        let zero = run_sweep(
            &ScenarioSpec {
                net: true,
                ..base.clone()
            },
            1,
        )
        .unwrap();
        let m_off = off.jobs[0].result.as_ref().unwrap();
        let m_zero = zero.jobs[0].result.as_ref().unwrap();
        // Zero-latency lossless links: message-level time equals the
        // formula charge within per-message rounding.
        assert!(
            (m_off.total_time - m_zero.total_time).abs() < 1e-2,
            "{} vs {}",
            m_off.total_time,
            m_zero.total_time
        );
        assert!(m_off.delivered.is_none(), "formula path records nothing");
        let d = m_zero.delivered.as_ref().expect("net mode records");
        assert_eq!(d.instance.count() as usize, m_zero.instances);
        assert!(m_zero.all_correct);
    }

    #[test]
    fn a_straggler_on_a_link_the_network_lacks_is_rejected() {
        // `circulant:10:2:2` links each node to its neighbours at distance
        // 1 and 2: it has `0 -> 1` but not `0 -> 5`.
        let spec = |straggler: &str, net| ScenarioSpec {
            topology: TopologyTemplate::parse("circulant:10:2:2").unwrap(),
            n: vec![10],
            cap: vec![2],
            seeds: 1,
            q: 1,
            net,
            link_model: crate::link_model::parse(&format!("uniform:20000000:5000000{straggler}"))
                .unwrap(),
            ..small_spec()
        };
        let bad = spec("+straggler:0:5:8", true);
        let err = job_network(&bad, &expand_jobs(&bad)[0]).unwrap_err();
        assert!(
            err.contains("0 -> 5") && err.contains("circulant:10:2:2"),
            "{err}"
        );
        let report = run_sweep(&bad, 1).unwrap();
        assert_eq!(report.aggregate.rejected_jobs, 1);
        assert_eq!(report.jobs[0].result.as_ref().unwrap_err(), &err);
        // A link the network has runs; so does any straggler with `net` off,
        // where link models are inert.
        for ok in [
            spec("+straggler:0:1:8", true),
            spec("+straggler:0:5:8", false),
        ] {
            assert!(run_sweep(&ok, 1).unwrap().jobs[0].result.is_ok());
        }
    }

    #[test]
    fn net_latency_slows_jobs_without_changing_outcomes() {
        let base = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            seeds: 1,
            adversary: adv("corruptor"),
            faults: faults("fixed:2"),
            q: 3,
            ..small_spec()
        };
        let off = run_sweep(&base, 1).unwrap();
        let spec = ScenarioSpec {
            net: true,
            link_model: crate::link_model::parse("uniform:1000000:500000+loss:0.2:2:2000000")
                .unwrap(),
            ..base
        };
        let on = run_sweep(&spec, 1).unwrap();
        let m_off = off.jobs[0].result.as_ref().unwrap();
        let m_on = on.jobs[0].result.as_ref().unwrap();
        // Latency strictly slows simulated time but never perturbs the
        // protocol: same dispute history, same exposures, same validity.
        assert!(m_on.total_time > m_off.total_time);
        assert!(m_on.throughput < m_off.throughput);
        assert_eq!(m_on.removed, m_off.removed);
        assert_eq!(m_on.dispute_rounds, m_off.dispute_rounds);
        assert!(m_on.all_correct);
        let d = m_on.delivered.as_ref().unwrap();
        assert!(d.phase1.count() > 0);

        // The kernel's counters reach the timed `aggregate` — one kernel
        // delivery per recorded delivery, retransmits under 20 % loss — and
        // stay out of canonical JSON; the formula sweep's are 0.
        let deliveries =
            d.phase1.count() + d.equality.count() + d.flags.count() + d.dispute.count();
        let kernel = on.aggregate.delivered.as_ref().unwrap().kernel;
        assert_eq!(kernel.deliveries, deliveries);
        assert!((1..=deliveries).contains(&kernel.rounds));
        assert!(kernel.retransmits > 0);
        assert!(off.aggregate.delivered.is_none());
        assert!(off.to_json_timed().contains("\"net_deliveries\":0,"));
        let timed = on.to_json_timed();
        assert!(timed.contains(&format!("\"net_deliveries\":{deliveries},")));
        assert!(timed.contains("\"wall_net_ns\":"), "{timed}");
        assert!(!on.to_json().contains("net_"), "observability only");
        // Every message-level instance lands in the `net` wall bucket.
        assert_eq!(m_on.latency.net.count(), d.instance.count());
        assert_eq!(m_off.latency.net.count(), 0);
    }

    #[test]
    fn net_mode_is_thread_invariant() {
        let spec = ScenarioSpec {
            adversary: adv("corruptor"),
            faults: faults("rotating:1"),
            net: true,
            link_model: crate::link_model::parse("lognormal:1000000:0.5+loss:0.1:2:2000000")
                .unwrap(),
            ..small_spec()
        };
        let a = run_sweep(&spec, 1).unwrap();
        let b = run_sweep(&spec, 4).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = ScenarioSpec {
            adversary: adv("random:0.4"),
            faults: faults("rotating:1"),
            ..small_spec()
        };
        let a = run_sweep(&spec, 1).unwrap();
        let b = run_sweep(&spec, 4).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        // First-use routing is counted per distinct plan, whichever worker
        // routed a pair first: the flag broadcasts route every ordered pair
        // of the four plans K4 and K5 at capacities 1 and 2.
        assert_eq!(a.aggregate.routes_extracted, 2 * (4 * 3 + 5 * 4));
        assert_eq!(b.aggregate.routes_extracted, a.aggregate.routes_extracted);
        assert!(b.to_json_timed().contains("\"routes_extracted\":64,"));
        assert!(!b.to_json().contains("routes_extracted"), "timed JSON only");
    }

    #[test]
    fn plan_cache_state_does_not_change_results() {
        let spec = ScenarioSpec {
            adversary: adv("corruptor"),
            faults: faults("rotating:1"),
            seeds: 3,
            ..small_spec()
        };
        let cold = cold_plan_sweep(&spec).to_json();
        assert_eq!(run_sweep(&spec, 1).unwrap().to_json(), cold);
        assert_eq!(run_sweep(&spec, 4).unwrap().to_json(), cold);
        // An externally warmed cache changes nothing either.
        let cache = PlanCache::new();
        let warm1 = sweep_on(&spec, 2, &cache);
        let warm2 = sweep_on(&spec, 2, &cache);
        assert_eq!(warm1.to_json(), cold);
        assert_eq!(warm2.to_json(), cold);
        // The second pass over a warmed cache is all hits.
        let w2 = &warm2.aggregate;
        assert_eq!(w2.plan_misses, 0, "warm cache rebuilds nothing");
        assert!(w2.plan_hits > 0);
        assert_eq!(w2.plan_build_ns, 0);
    }

    #[test]
    fn plan_stats_account_for_sharing() {
        // 2 n-values × 2 caps × 3 seeds on a deterministic topology:
        // 4 distinct networks, 12 jobs → 4 misses, 8 hits.
        let spec = ScenarioSpec {
            seeds: 3,
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        let a = &report.aggregate;
        assert_eq!(a.plan_misses, 4);
        assert_eq!(a.plan_hits, 8);
        assert!(a.plan_build_ns > 0);
        // The stats live in timed JSON only; canonical JSON is identical
        // to privately planned jobs' despite the differing counters.
        let cold = cold_plan_sweep(&spec);
        assert_eq!(cold.aggregate.plan_hits, 0);
        assert_eq!(report.to_json(), cold.to_json());
        assert!(report.to_json_timed().contains("\"plan_cache_hits\":8"));
    }

    #[test]
    fn replan_counters_surface_in_timed_json_only() {
        // Dispute-heavy: a corruptor forces replans on the shrunken G_k.
        let spec = ScenarioSpec {
            adversary: adv("corruptor"),
            faults: faults("rotating:1"),
            q: 4,
            seeds: 2,
            ..small_spec()
        };
        let report = run_sweep(&spec, 2).unwrap();
        assert!(
            report.aggregate.plan_repairs + report.aggregate.plan_full_recomputes > 0,
            "disputes forced replans"
        );
        assert!(report.to_json_timed().contains("\"plan_repairs\":"));
        assert!(
            !report.to_json().contains("plan_repair"),
            "canonical stays clean"
        );
    }

    #[test]
    fn mutations_migrate_plans_mid_job_and_stay_correct() {
        // 8 instances, flapping every 2: epochs 0..3 alternate between the
        // base and one degraded profile, so the shared cache sees exactly
        // 2 distinct networks and the revisits all hit.
        let spec = ScenarioSpec {
            n: vec![5],
            cap: vec![4],
            seeds: 1,
            q: 8,
            mutations: crate::mutations::MutationSchedule::parse("flap:2:3:50").unwrap(),
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        assert!(report.aggregate.all_correct);
        let m = report.jobs[0].result.as_ref().unwrap();
        assert_eq!(m.instances, 8);
        assert_eq!(m.plan_misses, 2, "base + one degraded profile");
        assert_eq!(m.plan_hits, 2, "epochs 2 and 3 revisit cached profiles");
        // Thread count still cannot perturb results under mutations.
        let again = run_sweep(&spec, 4).unwrap();
        assert_eq!(report.to_json(), again.to_json());
        // Mutations change measured behavior vs. the static network
        // (degraded links slow instances down).
        let static_net = run_sweep(
            &ScenarioSpec {
                mutations: crate::mutations::MutationSchedule::parse("none").unwrap(),
                ..spec.clone()
            },
            1,
        )
        .unwrap();
        assert_ne!(report.to_json(), static_net.to_json());
    }

    #[test]
    fn mutations_carry_dispute_state_across_migrations() {
        let spec = ScenarioSpec {
            n: vec![5],
            cap: vec![4],
            seeds: 1,
            q: 6,
            adversary: adv("corruptor"),
            faults: faults("fixed:2"),
            mutations: crate::mutations::MutationSchedule::parse("flap:3:2:50").unwrap(),
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        assert!(report.aggregate.all_correct);
        let m = report.jobs[0].result.as_ref().unwrap();
        // The corruptor is exposed once and STAYS exposed after the epoch
        // switch: dispute state survived the plan migration.
        assert_eq!(m.removed, vec![2]);
        assert!(
            m.dispute_rounds <= m.dispute_budget,
            "migrations must not reset the f(f+1) amortization"
        );
    }

    #[test]
    fn disk_warm_cache_reproduces_cold_results_byte_for_byte() {
        #[expect(
            clippy::disallowed_methods,
            reason = "names a fresh temp directory; the time reaches nothing else"
        )]
        let dir = std::env::temp_dir().join(format!(
            "nab-sweep-disk-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let spec = ScenarioSpec {
            adversary: adv("corruptor"),
            faults: faults("rotating:1"),
            ..small_spec()
        };
        let cold = run_sweep(&spec, 2).unwrap();
        // First disk-backed sweep populates the directory…
        let store = PlanCache::with_dir(&dir);
        let warm1 = sweep_on(&spec, 2, &store);
        assert!(store.stats().disk_stores > 0, "plans persisted");
        // …a FRESH cache over the same directory loads instead of building.
        let reload = PlanCache::with_dir(&dir);
        let warm2 = sweep_on(&spec, 2, &reload);
        assert!(reload.stats().disk_hits > 0, "disk tier served plans");
        assert_eq!(reload.stats().misses, 0, "nothing rebuilt from scratch");
        assert_eq!(cold.to_json(), warm1.to_json());
        assert_eq!(cold.to_json(), warm2.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounds_attach_when_requested() {
        let spec = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            seeds: 1,
            bounds: true,
            ..small_spec()
        };
        let report = run_sweep(&spec, 1).unwrap();
        let m = report.jobs[0].result.as_ref().unwrap();
        let b = m.bounds.as_ref().expect("bounds computed");
        assert!(b.eq6_lower > 0.0);
        assert!(b.thm2_upper > 0);
        assert!(b.fraction_of_upper <= 1.0 + 1e-9, "Theorem 2 violated?");
        assert!(b.gamma_star_exact);
        assert!(!report.summary_table().contains('≤'));
    }

    #[test]
    fn inexact_bounds_are_marked_outside_canonical_json() {
        let mut spec = ScenarioSpec {
            n: vec![4],
            cap: vec![2],
            seeds: 1,
            bounds: true,
            ..small_spec()
        };
        let exact = run_sweep(&spec, 1).unwrap();
        spec.bounds_budget = 2; // K4 has 9 closed dispute sets at f = 1
        let report = run_sweep(&spec, 1).unwrap();
        let m = report.jobs[0].result.as_ref().unwrap();
        assert!(!m.bounds.as_ref().unwrap().gamma_star_exact);
        assert!(report
            .to_json_timed()
            .contains("\"gamma_star_exact\":false"));
        assert!(exact.to_json_timed().contains("\"gamma_star_exact\":true"));
        assert!(!report.to_json().contains("gamma_star_exact"));
        let table = report.summary_table();
        assert!(table.contains("| yes | ≤ "), "{table}");
        assert!(table.contains("≤ 1 job(s)"), "{table}");
    }
}
