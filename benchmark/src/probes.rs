//! Per-layer probes: the harness times calls into each layer's public
//! functions at the workload's own shapes (its graph, plan, ρ, L,
//! participant set). Planning probes run on the first job of every file
//! and report the mean over files; execution probes run on the first job
//! of the first file.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;

use nab::adversary::{HonestStrategy, NabAdversary, TruthfulCorruptor};
use nab::bounds::rho_k;
use nab::engine::{NabConfig, NabEngine, SOURCE};
use nab::persist::{load_plan, save_plan, LoadOutcome};
use nab::phase1::run_phase1;
use nab::phase2::{broadcast_value, run_equality_phase_batched, run_flag_broadcast};
use nab::plan::{ExecutionPlan, PlanCache, PlanKey};
use nab::value::Value;
use nab_bb::baselines::RoutedChannel;
use nab_bb::router::{PathRouter, Routed};
use nab_gf::{FastOps, Gf2_16, WordMatrix};
use nab_net::EventNet;
use nab_netgraph::arborescence::pack_arborescences;
use nab_netgraph::canon::{canonical_key, labeled_key};
use nab_netgraph::connectivity::supports_byzantine_broadcast;
use nab_netgraph::flow::broadcast_rate;
use nab_netgraph::{DiGraph, NodeId};
use nab_obs::clock;
use nab_scenario::sweep::{expand_jobs, run_job, Job};
use nab_scenario::ScenarioSpec;
use nab_sim::NetSim;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::run::resolve_ctx;
use crate::span::Recorder;
use crate::stats;
use crate::stepped::{dispute_control, DisputeInput};

/// Repetition policy of one probe: repeat until `budget_ns` of wall time
/// (set-up included) has gone, and up to `min_reps` calls even past the
/// budget unless that would take more than four budgets (so a probe whose
/// single call is slow still gets one or two samples, not a long stall).
pub struct Prober<'a> {
    pub rec: &'a mut Recorder,
    pub budget_ns: u64,
    pub min_reps: usize,
}

const MAX_REPS: usize = 100_000;

impl Prober<'_> {
    fn wants_more(&self, reps: usize, total_ns: u64) -> bool {
        reps == 0
            || (reps < MAX_REPS && total_ns < self.budget_ns)
            || (reps < self.min_reps && total_ns < 4 * self.budget_ns)
    }

    /// Times `call` on a fresh `setup()` value per repetition (set-up is
    /// outside the span) and returns the median duration in nanoseconds.
    pub fn time<S, T>(
        &mut self,
        name: &'static str,
        mut setup: impl FnMut() -> S,
        mut call: impl FnMut(S) -> T,
    ) -> f64 {
        let mut samples = Vec::new();
        let started = clock::mono_now();
        while self.wants_more(samples.len(), clock::elapsed_ns(started)) {
            let state = setup();
            let id = self.rec.enter(name);
            let out = call(state);
            self.rec.exit(id);
            black_box(out);
            samples.push(self.rec.spans()[id].duration_ns() as f64);
        }
        stats::median(&samples)
    }
}

fn first_job(spec: &ScenarioSpec) -> Result<(Job, DiGraph), String> {
    let job = *expand_jobs(spec).first().ok_or("scenario has no jobs")?;
    let graph = spec
        .topology
        .build(&resolve_ctx(&job))
        .map_err(|e| format!("topology rejected: {e}"))?;
    Ok((job, graph))
}

/// A scratch directory inside the checkout for the plan persistence probe.
fn scratch_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".tmp")
        .join(format!("plans-{}", std::process::id()))
}

/// Planning-layer probes on one `(G, f)`; adds each median (ns) into
/// `sums` under its metric name.
fn planning_probes(
    p: &mut Prober<'_>,
    spec: &ScenarioSpec,
    sums: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (job, g) = first_job(spec)?;
    let f = job.f;
    let ctx = resolve_ctx(&job);
    let mut add = |name: &'static str, ns: f64| *sums.entry(name).or_insert(0.0) += ns;

    add(
        "netgraph.topology_build",
        p.time(
            "netgraph.topology_build",
            || (),
            |()| spec.topology.build(&ctx),
        ),
    );
    add(
        "netgraph.connectivity",
        p.time(
            "netgraph.connectivity",
            || (),
            |()| supports_byzantine_broadcast(&g, f),
        ),
    );
    let gamma = broadcast_rate(&g, SOURCE);
    add(
        "netgraph.gamma",
        p.time("netgraph.gamma", || (), |()| broadcast_rate(&g, SOURCE)),
    );
    add(
        "netgraph.pack_arborescences",
        p.time(
            "netgraph.pack_arborescences",
            || (),
            |()| pack_arborescences(&g, SOURCE, gamma),
        ),
    );
    add(
        "netgraph.canon_key",
        p.time(
            "netgraph.canon_key",
            || (),
            |()| canonical_key(&g) ^ labeled_key(&g),
        ),
    );
    add(
        "bb.router_build",
        p.time("bb.router_build", || (), |()| PathRouter::build(&g, f)),
    );
    add(
        "core.rho",
        p.time("core.rho", || (), |()| rho_k(&g, f, &BTreeSet::new())),
    );
    add(
        "core.plan_build",
        p.time(
            "core.plan_build",
            || g.clone(),
            |g| ExecutionPlan::build(g, f).map(|plan| plan.gamma0()),
        ),
    );

    let plan = ExecutionPlan::build(g.clone(), f).map_err(|e| format!("network rejected: {e}"))?;
    let key = PlanKey::of(&g, f);
    let dir = scratch_dir();
    let mut io_error = None;
    add(
        "core.plan_load",
        p.time(
            "core.plan_load",
            || (),
            |()| match save_plan(&dir, &key, &plan) {
                Err(e) => io_error = Some(format!("save_plan: {e}")),
                Ok(()) => match load_plan(&dir, &key, &g, f) {
                    LoadOutcome::Loaded(loaded) => {
                        black_box(loaded.gamma0());
                    }
                    other => io_error = Some(format!("load_plan: {other:?}")),
                },
            },
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
    match io_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// One simulator round's sends: `(src, dst, bits, payload)`.
type RoundSends = Vec<(NodeId, NodeId, u64, Routed<u64>)>;

/// The sends of the busiest round of one routed 1-bit broadcast, and the
/// broadcast's total message count.
fn bit_broadcast_rounds(
    g: &DiGraph,
    plan: &ExecutionPlan,
    spec: &ScenarioSpec,
    participants: &[NodeId],
    f: usize,
) -> (RoundSends, u64) {
    let none = BTreeSet::new();
    let mut net: NetSim<Routed<u64>> = NetSim::new(g.clone());
    {
        let mut chan = RoutedChannel {
            net: &mut net,
            router: plan.router(),
            faulty: &none,
        };
        broadcast_value(
            spec.broadcast,
            participants,
            SOURCE,
            f,
            1u64,
            &none,
            &mut chan,
            1,
        );
    }
    let rounds = &net.transcript().rounds;
    let msgs = rounds.iter().map(|r| r.sends.len() as u64).sum();
    let busiest = rounds
        .iter()
        .max_by_key(|r| r.sends.len())
        .map(|r| {
            r.sends
                .iter()
                .map(|m| (m.src, m.dst, m.bits, m.payload.clone()))
                .collect()
        })
        .unwrap_or_default();
    (busiest, msgs)
}

/// Execution-layer probes on the first job of `spec`; returns metric
/// name → value in the metric's declared unit.
fn execution_probes(
    p: &mut Prober<'_>,
    spec: &ScenarioSpec,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let (job, g) = first_job(spec)?;
    let f = job.f;
    let plan =
        Arc::new(ExecutionPlan::build(g.clone(), f).map_err(|e| format!("network rejected: {e}"))?);
    let cfg = NabConfig {
        f,
        symbols: job.symbols,
        seed: job.seed,
    };
    let participants: Vec<NodeId> = g.nodes().collect();
    let none: BTreeSet<NodeId> = BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(job.seed ^ 0x9B0BE);
    let input = Value::random(job.symbols, &mut rng);
    let rho = plan.rho0() as usize;
    let cols = job.symbols.div_ceil(rho);

    // nab-gf at the equality check's shape: Cᵀ (z × ρ) times the packed
    // value slab (ρ × ⌈S/ρ⌉), and one row kernel call over a slab row.
    let z = g.edges().map(|(_, e)| e.cap as usize).max().unwrap_or(1);
    let ct = WordMatrix::random(z, rho, &mut rng);
    let slab = WordMatrix::random(rho, cols, &mut rng);
    let slab_kib = (rho * cols * 2) as f64 / 1024.0;
    let ns = p.time("gf.mat_mul", || (), |()| ct.mat_mul(&slab));
    out.insert("gf.mat_mul_ns_per_kib", ns / slab_kib);
    let src = slab.row(0).to_vec();
    let mut dst = vec![Gf2_16(0); cols];
    let ns = p.time(
        "gf.mul_row_add",
        || (),
        |()| <Gf2_16 as FastOps>::mul_row_add(&mut dst, &src, Gf2_16(0x1234)),
    );
    out.insert(
        "gf.mul_row_add_ns_per_kib",
        ns / ((cols * 2) as f64 / 1024.0),
    );

    // nab-bb: cold path extraction, one routed 1-bit broadcast.
    let pairs: Vec<(NodeId, NodeId)> = participants
        .iter()
        .filter(|&&t| t != SOURCE)
        .take(8)
        .map(|&t| (SOURCE, t))
        .collect();
    let ns = p.time(
        "bb.router_paths",
        || PathRouter::build(&g, f).expect("plan built on this graph"),
        |router| {
            pairs
                .iter()
                .map(|&(s, t)| router.paths_for(s, t).len())
                .sum::<usize>()
        },
    );
    out.insert("bb.router_paths_us", ns / pairs.len().max(1) as f64 / 1e3);
    let ns = p.time(
        "bb.bit_broadcast",
        || {
            let mut net: NetSim<Routed<u64>> = NetSim::new(g.clone());
            net.set_record_transcript(false);
            net
        },
        |mut net| {
            let mut chan = RoutedChannel {
                net: &mut net,
                router: plan.router(),
                faulty: &none,
            };
            broadcast_value(
                spec.broadcast,
                &participants,
                SOURCE,
                f,
                1u64,
                &none,
                &mut chan,
                1,
            )
        },
    );
    out.insert("bb.bit_broadcast_us", ns / 1e3);
    let (round, msgs) = bit_broadcast_rounds(&g, &plan, spec, &participants, f);
    out.insert("bb.msgs_per_bit_broadcast", msgs as f64);

    // nab-sim and nab-net carrying that broadcast's busiest round.
    let ns = p.time(
        "sim.round",
        || {
            let mut net: NetSim<Routed<u64>> = NetSim::new(g.clone());
            net.set_record_transcript(false);
            net
        },
        |mut net| {
            for (src, dst, bits, payload) in &round {
                net.send(*src, *dst, *bits, payload.clone())
                    .expect("replayed send uses an existing link");
            }
            net.deliver_round("probe")
        },
    );
    out.insert("sim.round_us", ns / 1e3);
    let ns = p.time(
        "net.events",
        || EventNet::new(&g, spec.link_model.build(), job.seed),
        |mut net| {
            for (id, (src, dst, bits, _)) in round.iter().enumerate() {
                net.schedule(id as u64, *src, *dst, *bits, 0);
            }
            net.run().len()
        },
    );
    out.insert("net.event_ns", ns / round.len().max(1) as f64);

    // nab core, fault-free: the three phases and a whole instance.
    let ns = p.time(
        "core.phase1",
        || (),
        |()| {
            run_phase1(
                &g,
                SOURCE,
                &input,
                plan.trees0(),
                &none,
                &mut HonestStrategy,
            )
        },
    );
    out.insert("core.phase1_us", ns / 1e3);
    let p1 = run_phase1(
        &g,
        SOURCE,
        &input,
        plan.trees0(),
        &none,
        &mut HonestStrategy,
    );
    let scheme = plan.instance_scheme(cfg.seed, 1);
    let ns = p.time(
        "core.equality",
        || (),
        |()| {
            run_equality_phase_batched(
                &g,
                &[&p1.values],
                &scheme,
                &none,
                &mut [&mut HonestStrategy as &mut dyn NabAdversary],
            )
        },
    );
    out.insert("core.equality_us", ns / 1e3);
    let eq = run_equality_phase_batched(
        &g,
        &[&p1.values],
        &scheme,
        &none,
        &mut [&mut HonestStrategy as &mut dyn NabAdversary],
    )
    .pop()
    .expect("one stream in, one outcome out");
    let ns = p.time(
        "core.flags",
        || (),
        |()| {
            run_flag_broadcast(
                &g,
                plan.router(),
                &participants,
                f,
                &eq.flags,
                &none,
                &mut HonestStrategy,
                spec.broadcast,
                false,
            )
        },
    );
    out.insert("core.flags_us", ns / 1e3);
    let ns = p.time(
        "core.engine_setup",
        || Arc::clone(&plan),
        |plan| NabEngine::from_plan(plan, cfg).map(|e| e.instances_run()),
    );
    out.insert("core.engine_setup_us", ns / 1e3);
    let mut engine = NabEngine::from_plan(Arc::clone(&plan), cfg).map_err(|e| e.to_string())?;
    engine.set_broadcast_kind(spec.broadcast);
    let mut failed = None;
    let ns = p.time(
        "core.instance",
        || (),
        |()| match engine.run_instance(&input, &none, &mut HonestStrategy) {
            Ok(rep) => rep.dispute_ran,
            Err(e) => {
                failed = Some(e.to_string());
                false
            }
        },
    );
    out.insert("core.instance_us", ns / 1e3);

    // Dispute control: the workload's own faulty placement and adversary
    // when it has them, else a truthful corruptor at node 1.
    let faulty = spec
        .faults
        .candidates(g.node_count(), job.seed_index)
        .into_iter()
        .next()
        .filter(|set| !set.is_empty())
        .unwrap_or_else(|| BTreeSet::from([1]));
    let from_spec = spec.faults.fault_count() > 0;
    let build_adv = || -> Box<dyn NabAdversary> {
        if from_spec {
            spec.adversary.build(job.seed)
        } else {
            Box::new(TruthfulCorruptor)
        }
    };
    let mut adv = build_adv();
    let p1 = run_phase1(&g, SOURCE, &input, plan.trees0(), &faulty, adv.as_mut());
    let eq = run_equality_phase_batched(&g, &[&p1.values], &scheme, &faulty, &mut [adv.as_mut()])
        .pop()
        .expect("one stream in, one outcome out");
    let flags = run_flag_broadcast(
        &g,
        plan.router(),
        &participants,
        f,
        &eq.flags,
        &faulty,
        adv.as_mut(),
        spec.broadcast,
        false,
    );
    let observer = *participants
        .iter()
        .find(|v| !faulty.contains(v))
        .ok_or("no fault-free participant")?;
    let dispute_input = DisputeInput {
        plan: &plan,
        gk: &g,
        trees: plan.trees0(),
        scheme: &scheme,
        p1: &p1,
        eq: &eq,
        announced: &flags.announced,
        input: &input,
        participants: &participants,
        f_res: f,
        kind: spec.broadcast,
        observer,
    };
    // `dispute_control` records its own child spans; time it as a whole
    // here and read the claims broadcasts off the children afterwards.
    let first_span = p.rec.spans().len();
    let mut dispute_ns = Vec::new();
    let started = clock::mono_now();
    while p.wants_more(dispute_ns.len(), clock::elapsed_ns(started)) {
        let id = p.rec.enter("core.dispute");
        black_box(dispute_control(p.rec, &dispute_input, &faulty, adv.as_mut()).new_pairs);
        p.rec.exit(id);
        dispute_ns.push(p.rec.spans()[id].duration_ns() as f64);
    }
    out.insert("core.dispute_ms", stats::median(&dispute_ns) / 1e6);
    let claims_ns: Vec<f64> = p.rec.spans()[first_span..]
        .iter()
        .filter(|s| s.name == "bb.claims_broadcast")
        .map(|s| s.duration_ns() as f64)
        .collect();
    out.insert("bb.claims_broadcast_ms", stats::median(&claims_ns) / 1e6);

    // The first instance after a dispute shrank G_k (repair or replan
    // included). If the adversary raises no dispute the figure is simply a
    // second undisputed instance.
    let ns = p.time(
        "core.instance_post_dispute",
        || {
            let mut engine =
                NabEngine::from_plan(Arc::clone(&plan), cfg).expect("same plan, same config");
            engine.set_broadcast_kind(spec.broadcast);
            let mut adv = build_adv();
            if let Err(e) = engine.run_instance(&input, &faulty, adv.as_mut()) {
                failed = Some(e.to_string());
            }
            (engine, adv)
        },
        |(mut engine, mut adv)| {
            engine
                .run_instance(&input, &faulty, adv.as_mut())
                .map(|rep| rep.dispute_ran)
                .ok()
        },
    );
    out.insert("core.instance_post_dispute_us", ns / 1e3);

    // nab-net replay: the same job with message-level execution on and
    // off, plans pre-built so neither side pays for planning.
    let cache = PlanCache::new();
    let mut on = spec.clone();
    on.net = true;
    let mut off = spec.clone();
    off.net = false;
    black_box(run_job(&off, &job, Some(&cache)));
    let on_ns = p.time(
        "scenario.run_job_net_on",
        || (),
        |()| run_job(&on, &job, Some(&cache)).result.is_ok(),
    );
    let off_ns = p.time(
        "scenario.run_job_net_off",
        || (),
        |()| run_job(&off, &job, Some(&cache)).result.is_ok(),
    );
    let instances = (spec.q * spec.streams) as f64;
    out.insert(
        "net.replay_ms_per_instance",
        (on_ns - off_ns) / instances / 1e6,
    );

    match failed {
        Some(e) => Err(format!("probe instance failed: {e}")),
        None => Ok(out),
    }
}

/// Runs every probe for a workload's parsed files.
pub fn run_probes(
    rec: &mut Recorder,
    specs: &[ScenarioSpec],
    budget_ns: u64,
    min_reps: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut p = Prober {
        rec,
        budget_ns,
        min_reps,
    };
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for spec in specs {
        planning_probes(&mut p, spec, &mut sums)?;
    }
    let files = specs.len() as f64;
    let mean_ms = |name: &str| sums[name] / files / 1e6;
    let first = specs.first().ok_or("workload has no files")?;
    let mut out = execution_probes(&mut p, first)?;
    out.insert(
        "netgraph.topology_build_ms",
        mean_ms("netgraph.topology_build"),
    );
    out.insert("netgraph.connectivity_ms", mean_ms("netgraph.connectivity"));
    out.insert("netgraph.gamma_ms", mean_ms("netgraph.gamma"));
    out.insert(
        "netgraph.pack_arborescences_ms",
        mean_ms("netgraph.pack_arborescences"),
    );
    out.insert("netgraph.canon_key_us", mean_ms("netgraph.canon_key") * 1e3);
    out.insert("bb.router_build_ms", mean_ms("bb.router_build"));
    out.insert("core.rho_ms", mean_ms("core.rho"));
    out.insert("core.plan_build_ms", mean_ms("core.plan_build"));
    out.insert("core.plan_load_ms", mean_ms("core.plan_load"));
    // What `ExecutionPlan::build` spends outside its five probed children.
    let children = [
        "netgraph.connectivity",
        "bb.router_build",
        "core.rho",
        "netgraph.gamma",
        "netgraph.pack_arborescences",
    ]
    .iter()
    .map(|name| sums[name])
    .sum::<f64>();
    out.insert(
        "core.plan_unattributed_share",
        1.0 - children / sums["core.plan_build"],
    );
    Ok(out)
}
