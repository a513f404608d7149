//! Sweep results: per-job metrics, the aggregated report, and its
//! deterministic JSON rendering.
//!
//! Two serialization flavors exist:
//!
//! - [`SweepReport::to_json`] / [`SweepReport::to_json_pretty`] — the
//!   **canonical** form, byte-identical for identical sweeps regardless of
//!   thread count (the determinism tests pin this). Wall-clock timings are
//!   excluded, because they vary run to run.
//! - [`SweepReport::to_json_timed`] / [`SweepReport::to_json_pretty_timed`]
//!   — the same document plus the measured per-phase wall-clock
//!   nanoseconds (`wall_*_ns` keys). This is what `nab-sim --timings`
//!   emits; the *schema* is still deterministic (fixed keys in a fixed
//!   order), only the nanosecond values vary.

// NAB005: a float minted here from an integer must argue it is a
// deterministic function of the inputs (see docs/lint.md).
#![deny(clippy::cast_precision_loss)]

use nab::engine::InstanceReport;
use nab::DeliveredTimes;
use nab_netgraph::NodeId;
use nab_obs::{Histogram, Registry};

use crate::json::Json;

/// Per-phase wall-clock **latency distributions** over a set of broadcast
/// instances. Replaces the old sum-only `PhaseWallNanos` accumulation in
/// job metrics: the exact per-phase sums are still available
/// ([`Histogram::sum`] backs the legacy `wall_*_ns` keys), but the
/// histograms additionally carry p50/p90/p99 and min/max.
///
/// A phase's histogram only receives a sample when that phase actually
/// ran: defaulted instances record nothing per phase, instances served by
/// the phase-1-only fast path skip `equality`/`flags`, `dispute` only
/// records when dispute control executed, and `net` only when the instance
/// ran message-level. The `instance` histogram records every instance's
/// total (0 for defaulted ones). Merging is commutative
/// and associative (see [`Histogram::merge`]), so aggregation is
/// deterministic for any worker-thread partition of the jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseLatency {
    /// Phase 1 (arborescence streaming) wall nanoseconds per instance.
    pub phase1: Histogram,
    /// Equality-check wall nanoseconds per instance.
    pub equality: Histogram,
    /// Flag-broadcast wall nanoseconds per instance.
    pub flags: Histogram,
    /// Dispute-control wall nanoseconds per instance that disputed.
    pub dispute: Histogram,
    /// Message-level timing wall nanoseconds outside the broadcast phases
    /// (the Phase-1 and equality kernel rounds), per `net = on` instance.
    pub net: Histogram,
    /// Whole-instance wall nanoseconds (sum of the phases that ran).
    pub instance: Histogram,
}

impl PhaseLatency {
    /// Record one instance's measured wall-clock breakdown.
    pub fn record_instance(&mut self, rep: &InstanceReport) {
        let wall = &rep.wall;
        self.instance
            .record(wall.phase1 + wall.equality + wall.flags + wall.dispute + wall.net);
        if rep.defaulted {
            return;
        }
        self.phase1.record(rep.wall.phase1);
        if rep.rho_k > 0 {
            self.equality.record(rep.wall.equality);
            self.flags.record(rep.wall.flags);
        }
        if rep.dispute_ran {
            self.dispute.record(rep.wall.dispute);
        }
        if rep.delivered.is_some() {
            self.net.record(rep.wall.net);
        }
    }

    /// Merge another job's distributions into this one.
    pub fn merge(&mut self, other: &PhaseLatency) {
        self.phase1.merge(&other.phase1);
        self.equality.merge(&other.equality);
        self.flags.merge(&other.flags);
        self.dispute.merge(&other.dispute);
        self.net.merge(&other.net);
        self.instance.merge(&other.instance);
    }

    /// `(name, histogram)` pairs in the fixed serialization order.
    pub fn phases(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("phase1", &self.phase1),
            ("equality", &self.equality),
            ("flags", &self.flags),
            ("dispute", &self.dispute),
            ("net", &self.net),
            ("instance", &self.instance),
        ]
    }
}

/// The paper's bounds evaluated for one job's network.
#[derive(Debug, Clone, PartialEq)]
pub struct JobBounds {
    /// Eq. 6 throughput lower bound `γ*ρ*/(γ*+ρ*)`.
    pub eq6_lower: f64,
    /// Theorem 2 capacity upper bound `min(γ*, 2ρ*)`.
    pub thm2_upper: u64,
    /// `throughput / eq6_lower` (≥ 1 once `L` is large enough).
    pub fraction_of_lower: f64,
    /// `throughput / thm2_upper` (≤ 1 always, per Theorem 2).
    pub fraction_of_upper: f64,
    /// Whether `γ*` was enumerated exactly. `false` means the job's
    /// `bounds_budget` tripped and both bounds above come from an upper
    /// bound on `γ*`. Timed JSON and the text summary carry it; it joins
    /// the canonical schema at the next declared bump (with the envelope
    /// oracle), so canonical JSON stays byte-identical until then.
    pub gamma_star_exact: bool,
}

/// Everything measured for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Broadcast instances executed (`q × streams`).
    pub instances: usize,
    /// Useful payload bits broadcast: `L` per instance, except defaulted
    /// instances (source already exposed), which deliver the default
    /// value instead of a payload and count zero.
    pub total_bits: u64,
    /// Total simulated time.
    pub total_time: f64,
    /// `total_bits / total_time`.
    pub throughput: f64,
    /// Throughput over the instances after each stream's last dispute
    /// round. `None` when no such instance carries simulated time: every
    /// instance disputed, or the post-dispute tail consists only of
    /// zero-cost defaulted instances (source exposed as faulty).
    pub steady_throughput: Option<f64>,
    /// Summed Phase-1 time.
    pub phase1_time: f64,
    /// Summed equality-check time.
    pub equality_time: f64,
    /// Summed flag-broadcast time.
    pub flags_time: f64,
    /// Summed dispute-control time.
    pub dispute_time: f64,
    /// Dispute-control executions observed (summed over streams).
    pub dispute_rounds: usize,
    /// Job-level dispute budget: `streams × f(f+1)` (each stream is an
    /// independent deployment with its own paper bound).
    pub dispute_budget: usize,
    /// Whether any single stream exceeded its own `f(f+1)` budget.
    pub dispute_budget_exceeded: bool,
    /// Instances whose equality check raised MISMATCH.
    pub mismatch_instances: usize,
    /// Instances served by the known-faulty-source fast path.
    pub defaulted_instances: usize,
    /// All dispute pairs accumulated (union across streams).
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Nodes exposed as faulty (union across streams).
    pub removed: Vec<NodeId>,
    /// `(instance, node)` exposure events in execution order.
    pub exposed_history: Vec<(usize, NodeId)>,
    /// Per-instance time beyond Phase 1 (the overhead the `f(f+1)` bound
    /// amortizes away).
    pub amortized_overhead: f64,
    /// Agreement, validity and dispute soundness (blame only on faulty
    /// nodes) held in every instance ([`nab::engine::instance_correct`]).
    pub all_correct: bool,
    /// `γ_k` of the first instance.
    pub gamma1: u64,
    /// `ρ_k` of the first instance.
    pub rho1: u64,
    /// The paper's bounds, when the scenario asked for them.
    pub bounds: Option<JobBounds>,
    /// Per-phase **wall-clock** latency distributions across the job's
    /// instances (measured, not simulated; excluded from canonical JSON).
    /// The per-phase sums back the legacy `wall_*_ns` keys.
    pub latency: PhaseLatency,
    /// Per-phase **delivered-time** distributions (virtual nanoseconds)
    /// from message-level execution, merged over the job's instances.
    /// `Some` only when the scenario ran with `net = on`; rendered in
    /// timed JSON alongside the wall-clock latency block.
    pub delivered: Option<DeliveredTimes>,
    /// Total measured wall-clock nanoseconds for the job's measurement
    /// loop (includes engine setup and input generation).
    pub wall_ns: u64,
    /// Plan-cache hits across the job's candidate measurements (excluded
    /// from canonical JSON: under multiple worker threads, *which* job
    /// misses first is scheduling-dependent).
    pub plan_hits: u64,
    /// Plan builds (cache misses, or direct builds when the cache is
    /// disabled) across the job's candidate measurements.
    pub plan_misses: u64,
    /// Wall nanoseconds this job spent building network plans.
    pub plan_build_ns: u64,
    /// Disputed-`G_k` replans that found `γ_k = γ_1` and `ρ_k = ρ_1`,
    /// across the job's engines (timed JSON only).
    pub plan_repairs: u64,
    /// Disputed-`G_k` replans where `γ_k` or `ρ_k` moved (the same work,
    /// another outcome).
    pub plan_full_recomputes: u64,
    /// Wall nanoseconds spent replanning disputed `G_k`s.
    pub plan_repair_ns: u64,
}

/// One job's parameters and outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Grid position.
    pub index: usize,
    /// Node count.
    pub n: usize,
    /// Capacity scale.
    pub cap: u64,
    /// Fault bound.
    pub f: usize,
    /// Symbols per value.
    pub symbols: usize,
    /// Seed repetition index.
    pub seed_index: u64,
    /// Derived job seed.
    pub seed: u64,
    /// The fault placement used (the worst one, for search schedules; the
    /// first erroring one when every candidate failed).
    pub faulty: Vec<NodeId>,
    /// Fault placements evaluated.
    pub candidates_tried: usize,
    /// Candidate placements whose measurement errored (a worst-case
    /// search never silently drops them — see [`crate::sweep::run_job`]).
    pub candidates_failed: usize,
    /// The first candidate failure (placement + reason), if any.
    pub candidate_error: Option<String>,
    /// Metrics, or why the grid point was rejected.
    pub result: Result<JobMetrics, String>,
}

/// Whole-sweep summary statistics (over successfully measured jobs).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Total jobs in the grid.
    pub jobs: usize,
    /// Jobs measured successfully.
    pub ok_jobs: usize,
    /// Jobs rejected (impossible grid points).
    pub rejected_jobs: usize,
    /// Instances across all measured jobs.
    pub total_instances: usize,
    /// Bits across all measured jobs.
    pub total_bits: u64,
    /// Simulated time across all measured jobs.
    pub total_time: f64,
    /// Unweighted mean of per-job throughput.
    pub mean_throughput: f64,
    /// Minimum per-job throughput.
    pub min_throughput: f64,
    /// Maximum per-job throughput.
    pub max_throughput: f64,
    /// Dispute-control executions across all jobs.
    pub total_dispute_rounds: usize,
    /// Largest per-job dispute count.
    pub max_dispute_rounds: usize,
    /// Whether any job exceeded its `f(f+1)` dispute budget.
    pub dispute_budget_violated: bool,
    /// Every job's [`JobMetrics::all_correct`] held.
    pub all_correct: bool,
    /// Total exposure events.
    pub exposed_nodes: usize,
    /// Summed measured wall-clock nanoseconds over all measured jobs
    /// (excluded from canonical JSON).
    pub wall_ns: u64,
    /// Plan-cache hits summed over measured jobs (timed JSON only).
    pub plan_hits: u64,
    /// Plan builds summed over measured jobs (timed JSON only).
    pub plan_misses: u64,
    /// Plan-build wall nanoseconds summed over measured jobs (timed JSON
    /// only).
    pub plan_build_ns: u64,
    /// Incremental plan repairs summed over measured jobs (timed JSON
    /// only).
    pub plan_repairs: u64,
    /// Full `G_k` recomputes summed over measured jobs (timed JSON only).
    pub plan_full_recomputes: u64,
    /// Replanning wall nanoseconds summed over measured jobs (timed JSON
    /// only).
    pub plan_repair_ns: u64,
    /// Path systems extracted by the routers of the distinct plans in the
    /// sweep's cache at the end ([`nab::plan::PlanCache::routes_extracted`];
    /// 0 for a report assembled from outcomes alone). Timed JSON only.
    pub routes_extracted: u64,
    /// Per-phase latency distributions merged over all measured jobs
    /// (timed JSON only; the merge is partition-invariant, so this is
    /// identical for any worker-thread count).
    pub latency: PhaseLatency,
    /// Delivered-time distributions merged over all measured jobs that
    /// ran message-level (`None` when no job did).
    pub delivered: Option<DeliveredTimes>,
}

impl Aggregate {
    /// Computes the aggregate over a slice of outcomes (deterministic:
    /// pure folds in index order).
    pub fn from_outcomes(outcomes: &[JobOutcome]) -> Aggregate {
        let mut agg = Aggregate {
            jobs: outcomes.len(),
            ok_jobs: 0,
            rejected_jobs: 0,
            total_instances: 0,
            total_bits: 0,
            total_time: 0.0,
            mean_throughput: 0.0,
            min_throughput: f64::INFINITY,
            max_throughput: 0.0,
            total_dispute_rounds: 0,
            max_dispute_rounds: 0,
            dispute_budget_violated: false,
            all_correct: true,
            exposed_nodes: 0,
            wall_ns: 0,
            plan_hits: 0,
            plan_misses: 0,
            plan_build_ns: 0,
            plan_repairs: 0,
            plan_full_recomputes: 0,
            plan_repair_ns: 0,
            routes_extracted: 0,
            latency: PhaseLatency::default(),
            delivered: None,
        };
        let mut throughput_sum = 0.0;
        for outcome in outcomes {
            match &outcome.result {
                Ok(m) => {
                    agg.ok_jobs += 1;
                    agg.total_instances += m.instances;
                    agg.total_bits += m.total_bits;
                    agg.total_time += m.total_time;
                    throughput_sum += m.throughput;
                    agg.min_throughput = agg.min_throughput.min(m.throughput);
                    agg.max_throughput = agg.max_throughput.max(m.throughput);
                    agg.total_dispute_rounds += m.dispute_rounds;
                    agg.max_dispute_rounds = agg.max_dispute_rounds.max(m.dispute_rounds);
                    if m.dispute_budget_exceeded {
                        agg.dispute_budget_violated = true;
                    }
                    if !m.all_correct {
                        agg.all_correct = false;
                    }
                    agg.exposed_nodes += m.exposed_history.len();
                    agg.wall_ns += m.wall_ns;
                    agg.plan_hits += m.plan_hits;
                    agg.plan_misses += m.plan_misses;
                    agg.plan_build_ns += m.plan_build_ns;
                    agg.plan_repairs += m.plan_repairs;
                    agg.plan_full_recomputes += m.plan_full_recomputes;
                    agg.plan_repair_ns += m.plan_repair_ns;
                    agg.latency.merge(&m.latency);
                    if let Some(d) = &m.delivered {
                        agg.delivered
                            .get_or_insert_with(DeliveredTimes::default)
                            .merge(d);
                    }
                }
                Err(_) => agg.rejected_jobs += 1,
            }
        }
        #[expect(
            clippy::cast_precision_loss,
            reason = "mean over the outcome slice in its fixed job order — a deterministic function of the inputs"
        )]
        if agg.ok_jobs > 0 {
            agg.mean_throughput = throughput_sum / agg.ok_jobs as f64;
        } else {
            agg.min_throughput = 0.0;
        }
        agg
    }
}

/// The full result of running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Scenario name.
    pub scenario: String,
    /// Canonical topology spec string.
    pub topology: String,
    /// Canonical adversary spec string.
    pub adversary: String,
    /// Canonical fault-schedule spec string.
    pub faults: String,
    /// Per-job outcomes in grid order.
    pub jobs: Vec<JobOutcome>,
    /// Whole-sweep summary.
    pub aggregate: Aggregate,
}

impl SweepReport {
    /// Serializes to compact JSON. Byte-identical for identical sweeps
    /// regardless of worker-thread count (wall-clock timings excluded).
    pub fn to_json(&self) -> String {
        self.to_json_value(false).render()
    }

    /// Serializes to pretty-printed JSON (same determinism guarantee).
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value(false).render_pretty()
    }

    /// Compact JSON including measured `wall_*_ns` timing fields (schema
    /// deterministic, values run-dependent).
    pub fn to_json_timed(&self) -> String {
        self.to_json_value(true).render()
    }

    /// Pretty JSON including measured `wall_*_ns` timing fields.
    pub fn to_json_pretty_timed(&self) -> String {
        self.to_json_value(true).render_pretty()
    }

    /// The report as a JSON value tree, optionally with wall-clock
    /// timings.
    fn to_json_value(&self, with_timings: bool) -> Json {
        let mut doc = Json::obj(vec![
            ("scenario", Json::str(&self.scenario)),
            ("topology", Json::str(&self.topology)),
            ("adversary", Json::str(&self.adversary)),
            ("faults", Json::str(&self.faults)),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| job_json(j, with_timings))
                        .collect(),
                ),
            ),
            ("aggregate", aggregate_json(&self.aggregate, with_timings)),
        ]);
        if with_timings {
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("metrics".into(), registry_json(&self.metrics_registry())));
            }
        }
        doc
    }

    /// The sweep's fixed-schema metrics registry: counters for the things
    /// the sweep did and per-phase latency histograms merged over all
    /// measured jobs. This is what the timed JSON's `metrics` section
    /// renders; future subsystems (the stats endpoint of a serving layer)
    /// can consume it directly.
    pub fn metrics_registry(&self) -> Registry {
        let a = &self.aggregate;
        let mut reg = Registry::new();
        reg.counter_add("jobs", a.jobs as u64);
        reg.counter_add("jobs_ok", a.ok_jobs as u64);
        reg.counter_add("jobs_rejected", a.rejected_jobs as u64);
        reg.counter_add("instances", a.total_instances as u64);
        reg.counter_add("dispute_rounds", a.total_dispute_rounds as u64);
        reg.counter_add("nodes_exposed", a.exposed_nodes as u64);
        reg.counter_add("plan_cache_hits", a.plan_hits);
        reg.counter_add("plan_cache_misses", a.plan_misses);
        reg.counter_add("plan_repairs", a.plan_repairs);
        reg.counter_add("plan_full_recomputes", a.plan_full_recomputes);
        reg.counter_add("router.routes_extracted", a.routes_extracted);
        let (mut mismatch, mut defaulted) = (0u64, 0u64);
        for job in &self.jobs {
            if let Ok(m) = &job.result {
                mismatch += m.mismatch_instances as u64;
                defaulted += m.defaulted_instances as u64;
            }
        }
        reg.counter_add("mismatch_instances", mismatch);
        reg.counter_add("defaulted_instances", defaulted);
        reg.counter_add("bounds.inexact", self.inexact_bounds() as u64);
        // Event-kernel work behind the `net = on` jobs (all zero without one).
        let kernel = a.delivered.as_ref().map(|d| d.kernel).unwrap_or_default();
        reg.counter_add("net.rounds", kernel.rounds);
        reg.counter_add("net.deliveries", kernel.deliveries);
        reg.counter_add("net.retransmits", kernel.retransmits);
        for (name, histogram) in a.latency.phases() {
            reg.set_histogram(&format!("latency_{name}_ns"), histogram.clone());
        }
        reg
    }

    /// Jobs whose Eq. 6 / Theorem 2 envelope rests on an upper bound on
    /// `γ*` (their `bounds_budget` tripped).
    fn inexact_bounds(&self) -> usize {
        let inexact = |j: &&JobOutcome| {
            let bounds = j.result.as_ref().ok().and_then(|m| m.bounds.as_ref());
            bounds.is_some_and(|b| !b.gamma_star_exact)
        };
        self.jobs.iter().filter(inexact).count()
    }

    /// A terminal-friendly summary table of the per-job outcomes. A `≤`
    /// after the `ok` column marks a job whose bounds are inexact.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "  job |  n | cap | f | symbols | seed# | faulty      | throughput | disputes | ok\n",
        );
        out.push_str(
            "------+----+-----+---+---------+-------+-------------+------------+----------+----\n",
        );
        for job in &self.jobs {
            let faulty = format!("{:?}", job.faulty);
            match &job.result {
                Ok(m) => out.push_str(&format!(
                    "{:>5} | {:>2} | {:>3} | {} | {:>7} | {:>5} | {:<11} | {:>10.3} | {:>8} | {}{}\n",
                    job.index,
                    job.n,
                    job.cap,
                    job.f,
                    job.symbols,
                    job.seed_index,
                    faulty,
                    m.throughput,
                    m.dispute_rounds,
                    if m.all_correct { "yes" } else { "NO" },
                    match &m.bounds {
                        Some(b) if !b.gamma_star_exact => " ≤",
                        _ => "",
                    },
                )),
                Err(e) => out.push_str(&format!(
                    "{:>5} | {:>2} | {:>3} | {} | {:>7} | {:>5} | {:<11} | {:>10} | {:>8} | --  ({e})\n",
                    job.index, job.n, job.cap, job.f, job.symbols, job.seed_index, faulty, "rejected", "-",
                )),
            }
        }
        let inexact = self.inexact_bounds();
        if inexact > 0 {
            out.push_str(&format!(
                "≤ {inexact} job(s): bounds_budget tripped, the Eq. 6 / Theorem 2 envelope uses an upper bound on γ*\n"
            ));
        }
        out
    }
}

fn job_json(job: &JobOutcome, with_timings: bool) -> Json {
    let mut pairs = vec![
        ("index", Json::U64(job.index as u64)),
        ("n", Json::U64(job.n as u64)),
        ("cap", Json::U64(job.cap)),
        ("f", Json::U64(job.f as u64)),
        ("symbols", Json::U64(job.symbols as u64)),
        ("seed_index", Json::U64(job.seed_index)),
        ("seed", Json::U64(job.seed)),
        (
            "faulty",
            Json::Arr(job.faulty.iter().map(|&v| Json::U64(v as u64)).collect()),
        ),
        ("candidates_tried", Json::U64(job.candidates_tried as u64)),
    ];
    if job.candidates_failed > 0 {
        pairs.push(("candidates_failed", Json::U64(job.candidates_failed as u64)));
        if let Some(e) = &job.candidate_error {
            pairs.push(("candidate_error", Json::str(e)));
        }
    }
    match &job.result {
        Ok(m) => pairs.push(("metrics", metrics_json(m, with_timings))),
        Err(e) => pairs.push(("error", Json::str(e))),
    }
    Json::obj(pairs)
}

fn metrics_json(m: &JobMetrics, with_timings: bool) -> Json {
    let mut pairs = vec![
        ("instances", Json::U64(m.instances as u64)),
        ("total_bits", Json::U64(m.total_bits)),
        ("total_time", Json::F64(m.total_time)),
        ("throughput", Json::F64(m.throughput)),
        (
            "steady_throughput",
            m.steady_throughput.map(Json::F64).unwrap_or(Json::Null),
        ),
        ("phase1_time", Json::F64(m.phase1_time)),
        ("equality_time", Json::F64(m.equality_time)),
        ("flags_time", Json::F64(m.flags_time)),
        ("dispute_time", Json::F64(m.dispute_time)),
        ("dispute_rounds", Json::U64(m.dispute_rounds as u64)),
        ("dispute_budget", Json::U64(m.dispute_budget as u64)),
        (
            "dispute_budget_exceeded",
            Json::Bool(m.dispute_budget_exceeded),
        ),
        ("mismatch_instances", Json::U64(m.mismatch_instances as u64)),
        (
            "defaulted_instances",
            Json::U64(m.defaulted_instances as u64),
        ),
        (
            "pairs",
            Json::Arr(
                m.pairs
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::U64(a as u64), Json::U64(b as u64)]))
                    .collect(),
            ),
        ),
        (
            "removed",
            Json::Arr(m.removed.iter().map(|&v| Json::U64(v as u64)).collect()),
        ),
        (
            "exposed_history",
            Json::Arr(
                m.exposed_history
                    .iter()
                    .map(|&(i, v)| Json::Arr(vec![Json::U64(i as u64), Json::U64(v as u64)]))
                    .collect(),
            ),
        ),
        ("amortized_overhead", Json::F64(m.amortized_overhead)),
        ("all_correct", Json::Bool(m.all_correct)),
        ("gamma1", Json::U64(m.gamma1)),
        ("rho1", Json::U64(m.rho1)),
    ];
    if let Some(b) = &m.bounds {
        pairs.push((
            "bounds",
            Json::obj(vec![
                ("eq6_lower", Json::F64(b.eq6_lower)),
                ("thm2_upper", Json::U64(b.thm2_upper)),
                ("fraction_of_lower", Json::F64(b.fraction_of_lower)),
                ("fraction_of_upper", Json::F64(b.fraction_of_upper)),
            ]),
        ));
    }
    if with_timings {
        if let Some(b) = &m.bounds {
            pairs.push(("gamma_star_exact", Json::Bool(b.gamma_star_exact)));
        }
        pairs.push(("wall_phase1_ns", Json::U64(m.latency.phase1.sum())));
        pairs.push(("wall_equality_ns", Json::U64(m.latency.equality.sum())));
        pairs.push(("wall_flags_ns", Json::U64(m.latency.flags.sum())));
        pairs.push(("wall_dispute_ns", Json::U64(m.latency.dispute.sum())));
        pairs.push(("wall_net_ns", Json::U64(m.latency.net.sum())));
        pairs.push(("wall_total_ns", Json::U64(m.wall_ns)));
        pairs.push(("plan_cache_hits", Json::U64(m.plan_hits)));
        pairs.push(("plan_cache_misses", Json::U64(m.plan_misses)));
        pairs.push(("plan_build_ns", Json::U64(m.plan_build_ns)));
        pairs.push(("plan_repairs", Json::U64(m.plan_repairs)));
        pairs.push(("plan_full_recomputes", Json::U64(m.plan_full_recomputes)));
        pairs.push(("plan_repair_ns", Json::U64(m.plan_repair_ns)));
        pairs.push(("latency", latency_json(&m.latency)));
        if let Some(d) = &m.delivered {
            pairs.push(("delivered", delivered_json(d)));
        }
    }
    Json::obj(pairs)
}

/// Histogram summary in the fixed timed-JSON schema: exact count/sum and
/// min/max plus the log2-bucket percentile estimates. An empty histogram
/// (a phase that never ran) renders zeroed exact stats and **omits** the
/// percentile keys — percentiles of nothing are meaningless, and `min`
/// must never surface the internal `u64::MAX` sentinel.
fn histogram_json(h: &Histogram) -> Json {
    let mut pairs = vec![
        ("count", Json::U64(h.count())),
        ("sum_ns", Json::U64(h.sum())),
        ("min_ns", Json::U64(h.min())),
        ("max_ns", Json::U64(h.max())),
    ];
    if h.count() > 0 {
        // The values serialized are the u64 bucket bounds, not floats.
        pairs.push(("p50_ns", Json::U64(h.percentile(50.0))));
        pairs.push(("p90_ns", Json::U64(h.percentile(90.0))));
        pairs.push(("p99_ns", Json::U64(h.percentile(99.0))));
    }
    Json::obj(pairs)
}

fn latency_json(latency: &PhaseLatency) -> Json {
    Json::obj(
        latency
            .phases()
            .into_iter()
            .map(|(name, h)| (name, histogram_json(h)))
            .collect(),
    )
}

fn delivered_json(delivered: &DeliveredTimes) -> Json {
    Json::obj(
        delivered
            .phases()
            .into_iter()
            .map(|(name, h)| (name, histogram_json(h)))
            .collect(),
    )
}

fn registry_json(reg: &Registry) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::obj(reg.counters().map(|(n, v)| (n, Json::U64(v))).collect()),
        ),
        (
            "histograms",
            Json::obj(
                reg.histograms()
                    .map(|(n, h)| (n, histogram_json(h)))
                    .collect(),
            ),
        ),
    ])
}

fn aggregate_json(a: &Aggregate, with_timings: bool) -> Json {
    let mut pairs = vec![
        ("jobs", Json::U64(a.jobs as u64)),
        ("ok_jobs", Json::U64(a.ok_jobs as u64)),
        ("rejected_jobs", Json::U64(a.rejected_jobs as u64)),
        ("total_instances", Json::U64(a.total_instances as u64)),
        ("total_bits", Json::U64(a.total_bits)),
        ("total_time", Json::F64(a.total_time)),
        ("mean_throughput", Json::F64(a.mean_throughput)),
        ("min_throughput", Json::F64(a.min_throughput)),
        ("max_throughput", Json::F64(a.max_throughput)),
        (
            "total_dispute_rounds",
            Json::U64(a.total_dispute_rounds as u64),
        ),
        ("max_dispute_rounds", Json::U64(a.max_dispute_rounds as u64)),
        (
            "dispute_budget_violated",
            Json::Bool(a.dispute_budget_violated),
        ),
        ("all_correct", Json::Bool(a.all_correct)),
        ("exposed_nodes", Json::U64(a.exposed_nodes as u64)),
    ];
    if with_timings {
        pairs.push(("wall_phase1_ns", Json::U64(a.latency.phase1.sum())));
        pairs.push(("wall_equality_ns", Json::U64(a.latency.equality.sum())));
        pairs.push(("wall_flags_ns", Json::U64(a.latency.flags.sum())));
        pairs.push(("wall_dispute_ns", Json::U64(a.latency.dispute.sum())));
        pairs.push(("wall_net_ns", Json::U64(a.latency.net.sum())));
        pairs.push(("wall_total_ns", Json::U64(a.wall_ns)));
        pairs.push(("plan_cache_hits", Json::U64(a.plan_hits)));
        pairs.push(("plan_cache_misses", Json::U64(a.plan_misses)));
        pairs.push(("plan_build_ns", Json::U64(a.plan_build_ns)));
        pairs.push(("plan_repairs", Json::U64(a.plan_repairs)));
        pairs.push(("plan_full_recomputes", Json::U64(a.plan_full_recomputes)));
        pairs.push(("plan_repair_ns", Json::U64(a.plan_repair_ns)));
        pairs.push(("latency", latency_json(&a.latency)));
        if let Some(d) = &a.delivered {
            pairs.push(("delivered", delivered_json(d)));
        }
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> PhaseLatency {
        // One fault-free instance measured at 100/50/25 ns: same sums the
        // old `PhaseWallNanos { 100, 50, 25, 0 }` fixture carried.
        let mut lat = PhaseLatency::default();
        lat.phase1.record(100);
        lat.equality.record(50);
        lat.flags.record(25);
        lat.instance.record(175);
        lat
    }

    fn metrics() -> JobMetrics {
        JobMetrics {
            instances: 2,
            total_bits: 256,
            total_time: 64.0,
            throughput: 4.0,
            steady_throughput: Some(4.0),
            phase1_time: 32.0,
            equality_time: 16.0,
            flags_time: 16.0,
            dispute_time: 0.0,
            dispute_rounds: 0,
            dispute_budget: 2,
            dispute_budget_exceeded: false,
            mismatch_instances: 0,
            defaulted_instances: 0,
            pairs: vec![(1, 2)],
            removed: vec![2],
            exposed_history: vec![(0, 2)],
            amortized_overhead: 16.0,
            all_correct: true,
            gamma1: 6,
            rho1: 4,
            bounds: None,
            latency: latency(),
            delivered: None,
            wall_ns: 200,
            plan_hits: 1,
            plan_misses: 1,
            plan_build_ns: 40,
            plan_repairs: 3,
            plan_full_recomputes: 1,
            plan_repair_ns: 60,
        }
    }

    fn outcome(index: usize, result: Result<JobMetrics, String>) -> JobOutcome {
        JobOutcome {
            index,
            n: 4,
            cap: 2,
            f: 1,
            symbols: 8,
            seed_index: 0,
            seed: 9,
            faulty: vec![2],
            candidates_tried: 1,
            candidates_failed: 0,
            candidate_error: None,
            result,
        }
    }

    #[test]
    fn aggregate_folds_ok_and_rejected() {
        let outcomes = vec![
            outcome(0, Ok(metrics())),
            outcome(1, Err("nope".into())),
            outcome(
                2,
                Ok(JobMetrics {
                    throughput: 2.0,
                    all_correct: false,
                    dispute_rounds: 3,
                    dispute_budget_exceeded: true,
                    ..metrics()
                }),
            ),
        ];
        let a = Aggregate::from_outcomes(&outcomes);
        assert_eq!((a.jobs, a.ok_jobs, a.rejected_jobs), (3, 2, 1));
        assert_eq!(a.mean_throughput, 3.0);
        assert_eq!((a.min_throughput, a.max_throughput), (2.0, 4.0));
        assert!(!a.all_correct);
        assert!(a.dispute_budget_violated, "3 > budget 2");
        assert_eq!(a.exposed_nodes, 2);
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let a = Aggregate::from_outcomes(&[]);
        assert_eq!(a.min_throughput, 0.0);
        assert_eq!(a.mean_throughput, 0.0);
        assert!(a.all_correct);
    }

    #[test]
    fn json_shape_is_stable() {
        let report = SweepReport {
            scenario: "s".into(),
            topology: "complete:$n:$cap".into(),
            adversary: "honest".into(),
            faults: "none".into(),
            jobs: vec![outcome(0, Ok(metrics())), outcome(1, Err("bad".into()))],
            aggregate: Aggregate::from_outcomes(&[outcome(0, Ok(metrics()))]),
        };
        let j = report.to_json();
        assert!(j.starts_with("{\"scenario\":\"s\""));
        assert!(j.contains("\"metrics\":{\"instances\":2"));
        assert!(j.contains("\"error\":\"bad\""));
        // Candidate-failure fields only appear when a placement errored.
        assert!(!j.contains("candidates_failed"));
        let mut failing = outcome(2, Ok(metrics()));
        failing.candidates_failed = 1;
        failing.candidate_error = Some("placement [0]: boom".into());
        let solo = SweepReport {
            jobs: vec![failing],
            ..report.clone()
        };
        let j3 = solo.to_json();
        assert!(j3.contains("\"candidates_failed\":1"));
        assert!(j3.contains("\"candidate_error\":\"placement [0]: boom\""));
        assert!(j.contains("\"pairs\":[[1,2]]"));
        assert!(j.contains("\"aggregate\":{"));
        // Pretty form carries the same data.
        assert!(report.to_json_pretty().contains("\"throughput\": 4.0"));
        // The table renders one line per job.
        let t = report.summary_table();
        assert!(t.contains("rejected"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn wall_timings_only_appear_in_timed_json() {
        let report = SweepReport {
            scenario: "t".into(),
            topology: "complete:$n:$cap".into(),
            adversary: "honest".into(),
            faults: "none".into(),
            jobs: vec![outcome(0, Ok(metrics()))],
            aggregate: Aggregate::from_outcomes(&[outcome(0, Ok(metrics()))]),
        };
        // Canonical JSON stays timing- and cache-stat-free (the
        // determinism guarantee: cache state and scheduling must not
        // perturb it).
        let canonical = report.to_json();
        assert!(!canonical.contains("wall_"), "{canonical}");
        assert!(!canonical.contains("plan_"), "{canonical}");
        assert!(!canonical.contains("latency"), "{canonical}");
        assert!(!canonical.contains("delivered"), "{canonical}");
        assert!(
            !canonical.contains("\"metrics\":{\"counters\""),
            "{canonical}"
        );
        // Timed JSON carries the full per-phase breakdown plus totals
        // and the plan-cache counters.
        let timed = report.to_json_timed();
        for key in [
            "\"wall_phase1_ns\":100",
            "\"wall_equality_ns\":50",
            "\"wall_flags_ns\":25",
            "\"wall_dispute_ns\":0",
            "\"wall_total_ns\":200",
            "\"plan_cache_hits\":1",
            "\"plan_cache_misses\":1",
            "\"plan_build_ns\":40",
            "\"plan_repairs\":3",
            "\"plan_full_recomputes\":1",
            "\"plan_repair_ns\":60",
        ] {
            assert!(timed.contains(key), "missing {key} in {timed}");
        }
        // Per-job and aggregate latency distributions with percentiles.
        assert!(
            timed.contains("\"latency\":{\"phase1\":{\"count\":1,\"sum_ns\":100"),
            "{timed}"
        );
        for key in ["\"p50_ns\":", "\"p90_ns\":", "\"p99_ns\":"] {
            assert!(timed.contains(key), "missing {key} in {timed}");
        }
        // The report-level metrics section closes the timed document.
        assert!(timed.contains("\"metrics\":{\"counters\":{"), "{timed}");
        assert!(timed.contains("\"latency_phase1_ns\":{"), "{timed}");
        assert!(timed.ends_with("}}}"), "{timed}");
        assert!(report
            .to_json_pretty_timed()
            .contains("\"wall_total_ns\": 200"));
    }

    #[test]
    fn empty_histogram_serializes_zeroed_without_percentiles() {
        // A phase that never ran must not leak the internal u64::MAX
        // min sentinel or fabricate percentiles from zero samples.
        let empty = histogram_json(&Histogram::new()).render();
        assert_eq!(
            empty,
            "{\"count\":0,\"sum_ns\":0,\"min_ns\":0,\"max_ns\":0}"
        );
        assert!(!empty.contains("18446744073709551615"));
        assert!(!empty.contains("p50_ns"));
        // One sample brings the percentile keys back.
        let mut h = Histogram::new();
        h.record(7);
        let one = histogram_json(&h).render();
        assert!(one.contains("\"min_ns\":7"), "{one}");
        assert!(one.contains("\"p99_ns\":7"), "{one}");
        // The timed report renders the never-run dispute phase that way.
        let report = SweepReport {
            scenario: "t".into(),
            topology: "complete:$n:$cap".into(),
            adversary: "honest".into(),
            faults: "none".into(),
            jobs: vec![outcome(0, Ok(metrics()))],
            aggregate: Aggregate::from_outcomes(&[outcome(0, Ok(metrics()))]),
        };
        let timed = report.to_json_timed();
        assert!(
            timed.contains("\"dispute\":{\"count\":0,\"sum_ns\":0,\"min_ns\":0,\"max_ns\":0}"),
            "{timed}"
        );
        assert!(!timed.contains("18446744073709551615"), "{timed}");
    }

    #[test]
    fn delivered_times_appear_in_timed_json_only() {
        let mut m = metrics();
        let mut d = DeliveredTimes::default();
        d.phase1.record(1_000);
        d.instance.record(1_000);
        m.delivered = Some(d);
        let report = SweepReport {
            scenario: "net".into(),
            topology: "complete:$n:$cap".into(),
            adversary: "honest".into(),
            faults: "none".into(),
            jobs: vec![outcome(0, Ok(m.clone()))],
            aggregate: Aggregate::from_outcomes(&[outcome(0, Ok(m))]),
        };
        assert!(!report.to_json().contains("delivered"));
        let timed = report.to_json_timed();
        assert!(
            timed.contains("\"delivered\":{\"phase1\":{\"count\":1,\"sum_ns\":1000"),
            "{timed}"
        );
        // The aggregate block carries the merged distributions too.
        assert_eq!(timed.matches("\"delivered\":{").count(), 2, "{timed}");
    }

    #[test]
    fn phase_latency_records_only_phases_that_ran() {
        use nab::engine::{PhaseTimes, PhaseWallNanos};
        use std::collections::BTreeMap;
        let rep = |defaulted: bool, rho_k: u64, dispute_ran: bool| InstanceReport {
            outputs: BTreeMap::new(),
            times: PhaseTimes::default(),
            wall: PhaseWallNanos {
                phase1: 10,
                equality: 20,
                flags: 30,
                dispute: 40,
                net: 0,
            },
            gamma_k: 1,
            rho_k,
            mismatch_detected: dispute_ran,
            dispute_ran,
            new_pairs: Vec::new(),
            newly_removed: Vec::new(),
            defaulted,
            delivered: None,
        };
        let mut lat = PhaseLatency::default();
        lat.record_instance(&rep(false, 4, true)); // full instance
        lat.record_instance(&rep(false, 0, false)); // phase-1-only fast path
        lat.record_instance(&rep(true, 0, false)); // defaulted
        assert_eq!(lat.phase1.count(), 2);
        assert_eq!(lat.equality.count(), 1);
        assert_eq!(lat.flags.count(), 1);
        assert_eq!(lat.dispute.count(), 1);
        assert_eq!(lat.instance.count(), 3);
        assert_eq!(lat.phase1.sum(), 20);
        assert_eq!(lat.dispute.sum(), 40);

        // Aggregate merge accumulates distributions over jobs.
        let a = Aggregate::from_outcomes(&[outcome(0, Ok(metrics())), outcome(1, Ok(metrics()))]);
        assert_eq!(a.latency.phase1.count(), 2);
        assert_eq!(a.latency.phase1.sum(), 200);
    }
}
