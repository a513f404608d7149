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
use nab_obs::Histogram;

use crate::json::Json;

/// Per-phase wall-clock **latency distributions** over a set of broadcast
/// instances: exact per-phase sums ([`Histogram::sum`] backs the
/// `wall_*_ns` keys) plus p50/p90/p99 and min/max.
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    /// Broadcast instances executed (`q`).
    pub instances: usize,
    /// Useful payload bits broadcast: `L` per instance, except defaulted
    /// instances (source already exposed), which deliver the default
    /// value instead of a payload and count zero.
    pub total_bits: u64,
    /// Total simulated time.
    pub total_time: f64,
    /// `total_bits / total_time`.
    pub throughput: f64,
    /// Throughput over the instances after the last dispute round. `None`
    /// when no such instance carries simulated time: every instance
    /// disputed, or the post-dispute tail consists only of zero-cost
    /// defaulted instances (source exposed as faulty).
    pub steady_throughput: Option<f64>,
    /// Summed Phase-1 time.
    pub phase1_time: f64,
    /// Summed equality-check time.
    pub equality_time: f64,
    /// Summed flag-broadcast time.
    pub flags_time: f64,
    /// Summed dispute-control time.
    pub dispute_time: f64,
    /// Dispute-control executions observed.
    pub dispute_rounds: usize,
    /// The paper's dispute budget, `f(f+1)`.
    pub dispute_budget: usize,
    /// Whether the job exceeded its `f(f+1)` budget.
    pub dispute_budget_exceeded: bool,
    /// Instances whose equality check raised MISMATCH.
    pub mismatch_instances: usize,
    /// Instances served by the known-faulty-source fast path.
    pub defaulted_instances: usize,
    /// All dispute pairs accumulated.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Nodes exposed as faulty.
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
    /// The per-phase sums back the `wall_*_ns` keys.
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
#[derive(Debug, Clone, Default, PartialEq)]
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
            min_throughput: f64::INFINITY,
            all_correct: true,
            ..Aggregate::default()
        };
        let mut throughput_sum = 0.0;
        for m in outcomes.iter().filter_map(measured) {
            agg.ok_jobs += 1;
            agg.total_instances += m.instances;
            agg.total_bits += m.total_bits;
            agg.total_time += m.total_time;
            throughput_sum += m.throughput;
            agg.min_throughput = agg.min_throughput.min(m.throughput);
            agg.max_throughput = agg.max_throughput.max(m.throughput);
            agg.total_dispute_rounds += m.dispute_rounds;
            agg.max_dispute_rounds = agg.max_dispute_rounds.max(m.dispute_rounds);
            agg.dispute_budget_violated |= m.dispute_budget_exceeded;
            agg.all_correct &= m.all_correct;
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
        agg.rejected_jobs = agg.jobs - agg.ok_jobs;
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
        self.to_json_value(Canonical).render()
    }

    /// Serializes to pretty-printed JSON (same determinism guarantee).
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value(Canonical).render_pretty()
    }

    /// Compact JSON including measured `wall_*_ns` timing fields (schema
    /// deterministic, values run-dependent).
    pub fn to_json_timed(&self) -> String {
        self.to_json_value(Timed).render()
    }

    /// Pretty JSON including measured `wall_*_ns` timing fields.
    pub fn to_json_pretty_timed(&self) -> String {
        self.to_json_value(Timed).render_pretty()
    }

    /// The report as a JSON value tree: the rows of `tier` and below.
    fn to_json_value(&self, tier: Tier) -> Json {
        let jobs = self.jobs.iter().map(|j| job_json(j, tier)).collect();
        Json::obj(vec![
            ("scenario", Json::str(&self.scenario)),
            ("topology", Json::str(&self.topology)),
            ("adversary", Json::str(&self.adversary)),
            ("faults", Json::str(&self.faults)),
            ("jobs", Json::Arr(jobs)),
            ("aggregate", object(AGGREGATE, &self.aggregate, tier)),
        ])
    }

    /// A terminal-friendly table of the per-job outcomes. A `≤` in the
    /// `γ*` column marks a job whose bounds are inexact.
    pub fn summary_table(&self) -> String {
        let cols = "job | grid point | faulty | T | disputes / f(f+1) | ok | γ*";
        let mut out = table(cols, std::slice::from_ref(self));
        // Jobs whose Eq. 6 / Theorem 2 envelope rests on an upper bound on
        // `γ*` (their `bounds_budget` tripped).
        let inexact_job = |j: &&JobOutcome| bounds(j).is_some_and(|b| !b.gamma_star_exact);
        let inexact = self.jobs.iter().filter(inexact_job).count();
        if inexact > 0 {
            out.push_str(&format!(
                "≤ {inexact} job(s): bounds_budget tripped, the Eq. 6 / Theorem 2 envelope uses an upper bound on γ*\n"
            ));
        }
        out
    }
}

/// Which JSON rendering a report key belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// A deterministic function of the scenario: in every rendering.
    Canonical,
    /// Measured (wall clock, cache and scheduling state): timed JSON only.
    Timed,
}

use Tier::{Canonical, Timed};

/// One key of a report object: its name, its tier, and its value
/// (`None` omits the key).
type Row<T> = (&'static str, Tier, fn(&T) -> Option<Json>);

/// The [`Row`] of `field`, under the field's own name, valued by `json`.
macro_rules! field {
    ($tier:ident, $field:ident, $json:expr) => {
        (stringify!($field), $tier, |x| $json(&x.$field))
    };
}

/// Renders `value` through `rows`, in row order, keeping the rows of
/// `tier` and below.
fn object<T>(rows: &[Row<T>], value: &T, tier: Tier) -> Json {
    let kept = rows.iter().filter(|(_, row_tier, _)| *row_tier <= tier);
    let pairs = kept.filter_map(|(key, _, json)| Some((key.to_string(), json(value)?)));
    Json::Obj(pairs.collect())
}

fn int(x: &u64) -> Option<Json> {
    Some(Json::U64(*x))
}

fn count(x: &usize) -> Option<Json> {
    Some(Json::U64(*x as u64))
}

fn real(x: &f64) -> Option<Json> {
    Some(Json::F64(*x))
}

fn flag(x: &bool) -> Option<Json> {
    Some(Json::Bool(*x))
}

fn nodes(ids: &[NodeId]) -> Option<Json> {
    let ids = ids.iter().map(|&v| Json::U64(v as u64));
    Some(Json::Arr(ids.collect()))
}

fn node_pairs(pairs: &[(usize, NodeId)]) -> Option<Json> {
    let pair =
        |&(a, b): &(usize, NodeId)| Json::Arr(vec![Json::U64(a as u64), Json::U64(b as u64)]);
    Some(Json::Arr(pairs.iter().map(pair).collect()))
}

/// One [`histogram_json`] object per named histogram.
fn histograms<'a>(named: impl IntoIterator<Item = (&'a str, &'a Histogram)>) -> Json {
    let named = named.into_iter().map(|(name, h)| (name, histogram_json(h)));
    Json::obj(named.collect())
}

/// Every key of a job's `metrics` object, in order.
const METRICS: &[Row<JobMetrics>] = &[
    field!(Canonical, instances, count),
    field!(Canonical, total_bits, int),
    field!(Canonical, total_time, real),
    field!(Canonical, throughput, real),
    ("steady_throughput", Canonical, |m| {
        Some(m.steady_throughput.map_or(Json::Null, Json::F64))
    }),
    field!(Canonical, phase1_time, real),
    field!(Canonical, equality_time, real),
    field!(Canonical, flags_time, real),
    field!(Canonical, dispute_time, real),
    field!(Canonical, dispute_rounds, count),
    field!(Canonical, dispute_budget, count),
    field!(Canonical, dispute_budget_exceeded, flag),
    field!(Canonical, mismatch_instances, count),
    field!(Canonical, defaulted_instances, count),
    field!(Canonical, pairs, node_pairs),
    field!(Canonical, removed, nodes),
    field!(Canonical, exposed_history, node_pairs),
    field!(Canonical, amortized_overhead, real),
    field!(Canonical, all_correct, flag),
    field!(Canonical, gamma1, int),
    field!(Canonical, rho1, int),
    ("bounds", Canonical, |m| {
        Some(object(BOUNDS, m.bounds.as_ref()?, Canonical))
    }),
    // Joins the canonical schema at the next declared bump.
    ("gamma_star_exact", Timed, |m| {
        flag(&m.bounds.as_ref()?.gamma_star_exact)
    }),
    ("wall_phase1_ns", Timed, |m| int(&m.latency.phase1.sum())),
    ("wall_equality_ns", Timed, |m| {
        int(&m.latency.equality.sum())
    }),
    ("wall_flags_ns", Timed, |m| int(&m.latency.flags.sum())),
    ("wall_dispute_ns", Timed, |m| int(&m.latency.dispute.sum())),
    ("wall_net_ns", Timed, |m| int(&m.latency.net.sum())),
    ("wall_total_ns", Timed, |m| int(&m.wall_ns)),
    ("plan_cache_hits", Timed, |m| int(&m.plan_hits)),
    ("plan_cache_misses", Timed, |m| int(&m.plan_misses)),
    field!(Timed, plan_build_ns, int),
    field!(Timed, plan_repairs, int),
    field!(Timed, plan_full_recomputes, int),
    field!(Timed, plan_repair_ns, int),
    ("latency", Timed, |m| Some(histograms(m.latency.phases()))),
    ("delivered", Timed, |m| {
        Some(histograms(m.delivered.as_ref()?.phases()))
    }),
];

/// Every key of a job's `bounds` object, in order.
const BOUNDS: &[Row<JobBounds>] = &[
    field!(Canonical, eq6_lower, real),
    field!(Canonical, thm2_upper, int),
    field!(Canonical, fraction_of_lower, real),
    field!(Canonical, fraction_of_upper, real),
];

/// Every key of the report's `aggregate` object, in order.
const AGGREGATE: &[Row<Aggregate>] = &[
    field!(Canonical, jobs, count),
    field!(Canonical, ok_jobs, count),
    field!(Canonical, rejected_jobs, count),
    field!(Canonical, total_instances, count),
    field!(Canonical, total_bits, int),
    field!(Canonical, total_time, real),
    field!(Canonical, mean_throughput, real),
    field!(Canonical, min_throughput, real),
    field!(Canonical, max_throughput, real),
    field!(Canonical, total_dispute_rounds, count),
    field!(Canonical, max_dispute_rounds, count),
    field!(Canonical, dispute_budget_violated, flag),
    field!(Canonical, all_correct, flag),
    field!(Canonical, exposed_nodes, count),
    ("wall_phase1_ns", Timed, |a| int(&a.latency.phase1.sum())),
    ("wall_equality_ns", Timed, |a| {
        int(&a.latency.equality.sum())
    }),
    ("wall_flags_ns", Timed, |a| int(&a.latency.flags.sum())),
    ("wall_dispute_ns", Timed, |a| int(&a.latency.dispute.sum())),
    ("wall_net_ns", Timed, |a| int(&a.latency.net.sum())),
    ("wall_total_ns", Timed, |a| int(&a.wall_ns)),
    ("plan_cache_hits", Timed, |a| int(&a.plan_hits)),
    ("plan_cache_misses", Timed, |a| int(&a.plan_misses)),
    field!(Timed, plan_build_ns, int),
    field!(Timed, plan_repairs, int),
    field!(Timed, plan_full_recomputes, int),
    field!(Timed, plan_repair_ns, int),
    field!(Timed, routes_extracted, int),
    // Event-kernel work behind the `net = on` jobs (0 without one).
    ("net_rounds", Timed, |a| int(&kernel(a).rounds)),
    ("net_deliveries", Timed, |a| int(&kernel(a).deliveries)),
    ("net_retransmits", Timed, |a| int(&kernel(a).retransmits)),
    ("latency", Timed, |a| Some(histograms(a.latency.phases()))),
    ("delivered", Timed, |a| {
        Some(histograms(a.delivered.as_ref()?.phases()))
    }),
];

/// The event-kernel counters summed over the sweep's `net = on` jobs.
fn kernel(a: &Aggregate) -> nab_net::KernelStats {
    a.delivered.as_ref().map(|d| d.kernel).unwrap_or_default()
}

fn job_json(job: &JobOutcome, tier: Tier) -> Json {
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
        Ok(m) => pairs.push(("metrics", object(METRICS, m, tier))),
        Err(e) => pairs.push(("error", Json::str(e))),
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

/// A job-table cell for a job of a sweep (`None` prints `-`: a rejected
/// job, no `bounds`, no steady state).
type Cell = fn(&SweepReport, &JobOutcome) -> Option<String>;

/// One column of a job table: its header and its cell.
type Column = (&'static str, Cell);

/// Every column [`table`] prints, by header.
const COLUMNS: &[Column] = &[
    ("scenario", |r, _| Some(r.scenario.clone())),
    ("adversary", |r, _| Some(r.adversary.clone())),
    ("job", |_, j| Some(j.index.to_string())),
    ("grid point", |_, j| {
        let (n, cap, f, s, i) = (j.n, j.cap, j.f, j.symbols, j.seed_index);
        Some(format!("n={n} cap={cap} f={f} S={s} #{i}"))
    }),
    ("faulty", |_, j| Some(format!("{:?}", j.faulty))),
    ("T", |_, j| dec(measured(j)?.throughput, 3)),
    // Throughput after the last dispute round.
    ("T steady", |_, j| dec(measured(j)?.steady_throughput?, 3)),
    ("disputes / f(f+1)", |_, j| {
        let m = measured(j)?;
        Some(format!("{}/{}", m.dispute_rounds, m.dispute_budget))
    }),
    // Simulated time per instance, dispute rounds included.
    ("t / instance", |_, j| dec(per_instance(measured(j)?), 1)),
    // Time beyond Phase 1 per instance: what the f(f+1) bound amortises.
    ("overhead / instance", |_, j| {
        dec(measured(j)?.amortized_overhead, 1)
    }),
    ("Eq.6 lower", |_, j| dec(bounds(j)?.eq6_lower, 2)),
    ("Thm2 upper", |_, j| Some(bounds(j)?.thm2_upper.to_string())),
    ("T / Thm2", |_, j| dec(bounds(j)?.fraction_of_upper, 3)),
    // `≤`: the bounds rest on an upper bound on γ* (`bounds_budget` tripped).
    ("γ*", |_, j| {
        let exact = bounds(j)?.gamma_star_exact;
        Some(if exact { "=" } else { "≤" }.into())
    }),
    // Anything but `yes` is a `failures` entry.
    ("ok", |_, j| Some(verdict(j))),
];

fn measured(j: &JobOutcome) -> Option<&JobMetrics> {
    j.result.as_ref().ok()
}

fn bounds(j: &JobOutcome) -> Option<&JobBounds> {
    measured(j)?.bounds.as_ref()
}

fn dec(x: f64, places: usize) -> Option<String> {
    Some(format!("{x:.places$}"))
}

#[expect(
    clippy::cast_precision_loss,
    reason = "a display cell: the instance count of one job, far below 2^52, over its own simulated time"
)]
fn per_instance(m: &JobMetrics) -> f64 {
    m.total_time / m.instances as f64
}

/// A job's `ok` cell: `yes`, or why not.
fn verdict(j: &JobOutcome) -> String {
    match &j.result {
        Err(e) => format!("rejected: {e}"),
        Ok(m) if !m.all_correct => "NO: agreement, validity or dispute soundness broken".into(),
        Ok(m) if m.dispute_budget_exceeded => "NO: over the dispute budget".into(),
        Ok(_) => "yes".into(),
    }
}

/// Every job of `reports`, in order, with the sweep it belongs to.
fn jobs(reports: &[SweepReport]) -> impl Iterator<Item = (&SweepReport, &JobOutcome)> {
    (reports.iter()).flat_map(|r| r.jobs.iter().map(move |j| (r, j)))
}

/// One row per job of `reports`, under the header row `cols` (`a | b |
/// c`, each a header of this module's `COLUMNS` table).
///
/// # Panics
///
/// On a header that is not in `COLUMNS`.
#[expect(
    clippy::panic,
    reason = "every caller passes a literal header row: an unknown header is a typo in the program"
)]
pub fn table(cols: &str, reports: &[SweepReport]) -> String {
    let column = |header| {
        let found = COLUMNS.iter().find(|(h, _)| *h == header);
        found.unwrap_or_else(|| panic!("no job-table column is headed {header:?}"))
    };
    let cols: Vec<&Column> = cols.split(" | ").map(column).collect();
    let headers: Vec<&str> = cols.iter().map(|(h, _)| *h).collect();
    let row = |(r, j)| {
        let cell = |(_, cell): &&Column| cell(r, j).unwrap_or_else(|| "-".into());
        cols.iter().map(cell).collect()
    };
    format_table(&headers, &jobs(reports).map(row).collect::<Vec<_>>())
}

/// Every job of `reports` whose `ok` cell is not `yes`, named.
pub fn failures(reports: &[SweepReport]) -> Vec<String> {
    let named = |(r, j): (&SweepReport, &JobOutcome)| {
        let ok = Some(verdict(j)).filter(|ok| ok != "yes")?;
        Some(format!("{} job {}: {ok}", r.scenario, j.index))
    };
    jobs(reports).filter_map(named).collect()
}

/// Formats a table of rows for terminal/markdown output.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:w$} |"));
        }
        line
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
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
            dispute_budget: 2,
            pairs: vec![(1, 2)],
            removed: vec![2],
            exposed_history: vec![(0, 2)],
            amortized_overhead: 16.0,
            all_correct: true,
            gamma1: 6,
            rho1: 4,
            latency: latency(),
            wall_ns: 200,
            plan_hits: 1,
            plan_misses: 1,
            plan_build_ns: 40,
            plan_repairs: 3,
            plan_full_recomputes: 1,
            plan_repair_ns: 60,
            ..JobMetrics::default()
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

    /// A report that takes every optional branch of the JSON: inexact
    /// bounds, `delivered`, a failed candidate, a rejected job and a
    /// never-run dispute histogram.
    fn every_branch() -> SweepReport {
        let mut m = metrics();
        m.bounds = Some(JobBounds {
            eq6_lower: 2.5,
            thm2_upper: 6,
            fraction_of_lower: 1.6,
            fraction_of_upper: 0.75,
            gamma_star_exact: false,
        });
        let mut d = DeliveredTimes::default();
        d.phase1.record(1_000);
        d.instance.record(3_000);
        d.kernel.rounds = 2;
        d.kernel.deliveries = 5;
        m.delivered = Some(d);
        let mut failing = outcome(0, Ok(m));
        failing.candidates_failed = 1;
        failing.candidate_error = Some("placement [0]: boom".into());
        let jobs = vec![failing, outcome(1, Err("bad".into()))];
        SweepReport {
            scenario: "pin".into(),
            topology: "complete:$n:$cap".into(),
            adversary: "honest".into(),
            faults: "fixed:2".into(),
            aggregate: Aggregate::from_outcomes(&jobs),
            jobs,
        }
    }

    #[test]
    fn every_rendering_matches_the_pinned_bytes() {
        let r = every_branch();
        let rendered = [r.to_json(), r.to_json_timed(), r.to_json_pretty_timed()].join("\n");
        assert_eq!(rendered, include_str!("../tests/golden/report.txt"));
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

    /// The keys of the rows of `tier` in the `metrics`, `bounds` and
    /// `aggregate` tables.
    fn keys(tier: Tier) -> Vec<&'static str> {
        fn of<T>(rows: &[Row<T>], tier: Tier) -> impl Iterator<Item = &'static str> + '_ {
            rows.iter()
                .filter(move |row| row.1 == tier)
                .map(|row| row.0)
        }
        (of(METRICS, tier).chain(of(BOUNDS, tier)))
            .chain(of(AGGREGATE, tier))
            .collect()
    }

    #[test]
    fn wall_timings_only_appear_in_timed_json() {
        // Canonical JSON stays timing- and cache-stat-free (the
        // determinism guarantee: cache state and scheduling must not
        // perturb it); timed JSON carries every row of both tiers.
        let report = every_branch();
        let (canonical, timed) = (report.to_json(), report.to_json_timed());
        for key in keys(Timed) {
            let key = format!("\"{key}\":");
            assert!(!canonical.contains(&key), "{key} in {canonical}");
            assert!(timed.contains(&key), "missing {key} in {timed}");
        }
        for key in keys(Canonical) {
            let key = format!("\"{key}\":");
            assert!(canonical.contains(&key), "missing {key} in {canonical}");
        }
        // `aggregate` closes the timed document too: no section after it
        // renders its numbers a second time.
        assert!(timed.ends_with("}}}}"), "{timed}");
        assert!(!timed.contains("counters"), "{timed}");
    }

    #[test]
    fn perf_docs_name_every_timed_key() {
        let doc = include_str!("../../../docs/perf.md");
        for key in keys(Timed) {
            assert!(
                doc.contains(&format!("`{key}`")),
                "docs/perf.md lacks `{key}`"
            );
        }
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("| a   | bb |"));
        assert!(t.contains("| 333 | 4  |"));
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
