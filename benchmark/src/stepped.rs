//! A job served step by step from outside the engine.
//!
//! `nab_scenario::sweep::run_job` is one opaque call; to see where its
//! time goes without instrumenting the program, the traced run serves the
//! same job again through the layers' public functions — the same calls,
//! in the same order, on the same graph, plan, ρ, L and participant set
//! as `NabEngine::run_instance` makes — with a span around each. The
//! adversaries the workloads use are deterministic, so the dispute
//! evolution (and therefore the work) matches the engine's; the traced
//! run checks that by comparing dispute-round and replan counts with the
//! report. Transcripts are never recorded here: for `net = on` jobs the
//! whole cost of message-level execution (recording and replay) is
//! measured as `run_job` with `net` on minus off.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nab::adversary::NabAdversary;
use nab::bounds::{gamma_k, rho_k};
use nab::dispute::{dc2_disputes, dc3_exposed, DisputeState, NodeClaims};
use nab::engine::{NabConfig, SOURCE};
use nab::equality::CodingScheme;
use nab::phase1::{run_phase1, Phase1Output};
use nab::phase2::{
    broadcast_value, honest_claims, run_equality_phase_batched, run_flag_broadcast, BroadcastKind,
    EqOutcome,
};
use nab::plan::{ExecutionPlan, PlanCache};
use nab::value::Value;
use nab_bb::baselines::RoutedChannel;
use nab_bb::router::Routed;
use nab_netgraph::arborescence::{pack_arborescences, Arborescence};
use nab_netgraph::{DiGraph, NodeId};
use nab_scenario::sweep::Job;
use nab_scenario::ScenarioSpec;
use nab_sim::NetSim;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::run::resolve_ctx;
use crate::span::Recorder;

/// Per-`G_k` artefacts, kept while the dispute state stands (what the
/// engine memoises between disputed instances).
struct GkMemo {
    pairs: BTreeSet<(NodeId, NodeId)>,
    removed: BTreeSet<NodeId>,
    trees: Arc<Vec<Arborescence>>,
    rho: Option<u64>,
}

/// One deployment's execution state, mirrored outside the engine.
pub struct Deployment {
    plan: Arc<ExecutionPlan>,
    cfg: NabConfig,
    kind: BroadcastKind,
    disputes: DisputeState,
    instance: usize,
    memo: Option<GkMemo>,
    replans: u64,
}

/// What one stepped instance decided.
pub struct SteppedInstance {
    pub outputs: BTreeMap<NodeId, Value>,
    pub defaulted: bool,
    pub dispute_ran: bool,
}

impl Deployment {
    pub fn new(plan: Arc<ExecutionPlan>, cfg: NabConfig, kind: BroadcastKind) -> Self {
        Deployment {
            plan,
            cfg,
            kind,
            disputes: DisputeState::new(),
            instance: 0,
            memo: None,
            replans: 0,
        }
    }

    /// Re-seats the deployment on a re-provisioned network's plan.
    pub fn migrate(&mut self, plan: Arc<ExecutionPlan>) {
        self.plan = plan;
        self.memo = None;
    }

    fn residual_f(&self) -> usize {
        self.cfg.f.saturating_sub(self.disputes.removed.len())
    }

    /// One NAB instance through the public phase functions.
    pub fn step(
        &mut self,
        rec: &mut Recorder,
        input: &Value,
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
    ) -> Result<SteppedInstance, String> {
        self.instance += 1;
        let plan = Arc::clone(&self.plan);
        let undisputed = self.disputes.pairs.is_empty() && self.disputes.removed.is_empty();
        let gk_shrunk;
        let gk: &DiGraph = if undisputed {
            plan.graph()
        } else {
            let s = rec.enter("core.gk_derive");
            gk_shrunk = self.disputes.current_graph(plan.graph());
            rec.exit(s);
            &gk_shrunk
        };
        if !gk.is_active(SOURCE) {
            return Ok(SteppedInstance {
                outputs: gk
                    .nodes()
                    .map(|v| (v, Value::zeros(self.cfg.symbols)))
                    .collect(),
                defaulted: true,
                dispute_ran: false,
            });
        }

        let trees_memo;
        let trees: &[Arborescence] = if undisputed {
            plan.trees0()
        } else {
            let hit = self.memo.as_ref().is_some_and(|m| {
                m.pairs == self.disputes.pairs && m.removed == self.disputes.removed
            });
            if !hit {
                let s = rec.enter("core.replan");
                let gamma = gamma_k(gk, SOURCE);
                let packed = pack_arborescences(gk, SOURCE, gamma);
                rec.exit(s);
                self.replans += 1;
                self.memo = Some(GkMemo {
                    pairs: self.disputes.pairs.clone(),
                    removed: self.disputes.removed.clone(),
                    trees: Arc::new(packed.ok_or("arborescence packing failed on G_k")?),
                    rho: None,
                });
            }
            trees_memo = Arc::clone(&self.memo.as_ref().expect("memo ensured above").trees);
            &trees_memo
        };

        let s = rec.enter("core.phase1");
        let p1 = run_phase1(gk, SOURCE, input, trees, faulty, adv);
        rec.exit(s);
        if self.disputes.removed.len() >= self.cfg.f {
            // At least f nodes excluded: Phase 1 alone is reliable.
            return Ok(SteppedInstance {
                outputs: p1.values,
                defaulted: false,
                dispute_ran: false,
            });
        }

        let eq_span = rec.enter("core.equality");
        let rho = if undisputed {
            plan.rho0()
        } else {
            let m = self.memo.as_mut().expect("memo set while packing trees");
            match m.rho {
                Some(r) => r,
                None => {
                    let s = rec.enter("core.rho_k");
                    let r = rho_k(gk, self.cfg.f, &self.disputes.pairs);
                    rec.exit(s);
                    let r = r.ok_or("U_k dropped below 2")?;
                    m.rho = Some(r);
                    r
                }
            }
        };
        let s = rec.enter("core.scheme");
        let scheme = if undisputed {
            plan.instance_scheme(self.cfg.seed, self.instance as u64)
        } else {
            CodingScheme::random(
                gk,
                rho as usize,
                self.cfg.seed.wrapping_add(self.instance as u64),
            )
        };
        rec.exit(s);
        let eq = run_equality_phase_batched(gk, &[&p1.values], &scheme, faulty, &mut [&mut *adv])
            .pop()
            .expect("one stream in, one outcome out");
        rec.exit(eq_span);

        let participants: Vec<NodeId> = gk.nodes().collect();
        let f_res = self.residual_f();
        let s = rec.enter("core.flags");
        let flags = run_flag_broadcast(
            plan.graph(),
            plan.router(),
            &participants,
            f_res,
            &eq.flags,
            faulty,
            adv,
            self.kind,
            false,
        );
        rec.exit(s);
        let observer = *participants
            .iter()
            .find(|v| !faulty.contains(v))
            .ok_or("no fault-free participant")?;
        if !flags.any_mismatch(observer) {
            return Ok(SteppedInstance {
                outputs: p1.values,
                defaulted: false,
                dispute_ran: false,
            });
        }

        let s = rec.enter("core.dispute");
        let verdict = dispute_control(
            rec,
            &DisputeInput {
                plan: &plan,
                gk,
                trees,
                scheme: &scheme,
                p1: &p1,
                eq: &eq,
                announced: &flags.announced,
                input,
                participants: &participants,
                f_res,
                kind: self.kind,
                observer,
            },
            faulty,
            adv,
        );
        let d = rec.enter("core.dc4_integrate");
        self.disputes.integrate(
            plan.graph(),
            self.cfg.f,
            &verdict.new_pairs,
            &verdict.exposed,
        );
        rec.exit(d);
        rec.exit(s);
        let decided = verdict
            .source_input
            .map(Value::from_symbols)
            .unwrap_or_else(|| Value::zeros(self.cfg.symbols));
        Ok(SteppedInstance {
            outputs: participants.iter().map(|&v| (v, decided.clone())).collect(),
            defaulted: false,
            dispute_ran: true,
        })
    }
}

/// Everything DC1–DC3 read.
pub struct DisputeInput<'a> {
    pub plan: &'a ExecutionPlan,
    pub gk: &'a DiGraph,
    pub trees: &'a [Arborescence],
    pub scheme: &'a CodingScheme,
    pub p1: &'a Phase1Output,
    pub eq: &'a EqOutcome,
    pub announced: &'a BTreeMap<NodeId, bool>,
    pub input: &'a Value,
    pub participants: &'a [NodeId],
    pub f_res: usize,
    pub kind: BroadcastKind,
    pub observer: NodeId,
}

pub struct DisputeVerdict {
    pub new_pairs: Vec<(NodeId, NodeId)>,
    pub exposed: Vec<NodeId>,
    pub source_input: Option<Vec<nab_gf::Gf2_16>>,
}

/// DC1–DC3: every participant Byzantine-broadcasts its claims over the
/// routed complete-graph emulation, then the agreed claims are
/// cross-examined (DC2) and replayed (DC3).
pub fn dispute_control(
    rec: &mut Recorder,
    d: &DisputeInput<'_>,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
) -> DisputeVerdict {
    let s = rec.enter("core.honest_claims");
    let truthful = honest_claims(
        d.gk,
        SOURCE,
        d.input,
        d.trees,
        d.scheme,
        d.p1,
        d.eq,
        d.announced,
    );
    rec.exit(s);
    let claims: BTreeMap<NodeId, NodeClaims> = truthful
        .iter()
        .map(|(&v, honest)| {
            let c = if faulty.contains(&v) {
                adv.claims(v, honest)
            } else {
                honest.clone()
            };
            (v, c)
        })
        .collect();

    let mut net: NetSim<Routed<NodeClaims>> = NetSim::new(d.plan.graph().clone());
    net.set_record_transcript(false);
    let mut agreed: BTreeMap<NodeId, NodeClaims> = BTreeMap::new();
    for &b in d.participants {
        let s = rec.enter("bb.claims_broadcast");
        let decisions = {
            let mut chan = RoutedChannel {
                net: &mut net,
                router: d.plan.router(),
                faulty,
            };
            broadcast_value(
                d.kind,
                d.participants,
                b,
                d.f_res,
                claims[&b].clone(),
                faulty,
                &mut chan,
                claims[&b].bits(),
            )
        };
        rec.exit(s);
        agreed.insert(b, decisions[&d.observer].clone());
    }
    let s = rec.enter("core.dc2");
    let new_pairs = dc2_disputes(&agreed);
    rec.exit(s);
    let s = rec.enter("core.dc3");
    let exposed = dc3_exposed(d.gk, SOURCE, d.trees, d.scheme, &agreed);
    rec.exit(s);
    DisputeVerdict {
        new_pairs,
        exposed,
        source_input: agreed.get(&SOURCE).and_then(|c| c.input.clone()),
    }
}

/// Totals of one stepped job.
#[derive(Debug, Default, Clone, Copy)]
pub struct SteppedJob {
    pub instances: u64,
    pub dispute_rounds: u64,
    pub replans: u64,
    pub incorrect: u64,
}

/// Agreement among fault-free nodes always; validity when the source is
/// fault-free and the instance was not defaulted.
fn correct(inst: &SteppedInstance, faulty: &BTreeSet<NodeId>, input: &Value) -> bool {
    let honest: Vec<&Value> = inst
        .outputs
        .iter()
        .filter(|(v, _)| !faulty.contains(v))
        .map(|(_, o)| o)
        .collect();
    if honest.windows(2).any(|w| w[0] != w[1]) {
        return false;
    }
    faulty.contains(&SOURCE) || inst.defaulted || honest.first().is_some_and(|v| **v == *input)
}

/// Serves one job of `spec` step by step: topology, plan, `q` instances
/// with the mutation schedule's epoch migrations, optional bounds. Spans
/// land in `rec` under one `stepped.job` root.
pub fn run_job_stepped(
    rec: &mut Recorder,
    spec: &ScenarioSpec,
    job: &Job,
    cache: &PlanCache,
) -> Result<SteppedJob, String> {
    assert_eq!(spec.streams, 1, "workloads use one stream per job");
    rec.set_job(job.index as u32);
    let root = rec.enter("stepped.job");
    let s = rec.enter("netgraph.topology_build");
    let graph = spec.topology.build(&resolve_ctx(job));
    rec.exit(s);
    let graph = graph.map_err(|e| format!("topology rejected: {e}"))?;
    let faulty = spec
        .faults
        .candidates(graph.node_count(), job.seed_index)
        .into_iter()
        .next()
        .ok_or("fault schedule has no placement")?;

    let s = rec.enter("core.plan_fetch");
    let fetch = cache.fetch(&graph, job.f);
    rec.exit(s);
    let plan = fetch.map_err(|e| format!("network rejected: {e}"))?.plan;
    let cfg = NabConfig {
        f: job.f,
        symbols: job.symbols,
        seed: job.seed,
    };
    let mut dep = Deployment::new(plan, cfg, spec.broadcast);
    // Harness-own seeds: inputs differ from the sweep's, the work doesn't.
    let mut adv = spec.adversary.build(job.seed ^ 0xAD);
    let mut rng = StdRng::seed_from_u64(job.seed ^ 0x1A7);

    let mut totals = SteppedJob::default();
    let mut epoch = 0;
    for inst in 0..spec.q {
        let e = spec.mutations.epoch(inst);
        if e != epoch {
            epoch = e;
            let s = rec.enter("scenario.mutate");
            let mutated = spec.mutations.graph_for_epoch(&graph, epoch, job.seed);
            rec.exit(s);
            let s = rec.enter("core.plan_fetch");
            let fetch = cache.fetch(&mutated, job.f);
            rec.exit(s);
            dep.migrate(
                fetch
                    .map_err(|e| format!("mutated network rejected: {e}"))?
                    .plan,
            );
        }
        let input = Value::random(job.symbols, &mut rng);
        let s = rec.enter("stepped.instance");
        let stepped = dep.step(rec, &input, &faulty, adv.as_mut());
        rec.exit(s);
        let stepped = stepped?;
        totals.instances += 1;
        totals.dispute_rounds += u64::from(stepped.dispute_ran);
        totals.incorrect += u64::from(!correct(&stepped, &faulty, &input));
    }
    totals.replans = dep.replans;
    if spec.bounds {
        let s = rec.enter("core.bounds_report");
        std::hint::black_box(dep.plan.bounds_report(spec.bounds_budget));
        rec.exit(s);
    }
    rec.exit(root);
    Ok(totals)
}
