//! The NAB execution engine: orchestrates Phases 1–3 across repeated
//! instances, evolving `G_k` through dispute control (Section 2).
//!
//! One-time network setup (validation, γ₁/ρ₁, arborescence packing, the
//! disjoint-path router) lives in the planning layer
//! ([`crate::plan::ExecutionPlan`]); the engine borrows a plan via
//! [`Arc`] and keeps only per-instance state, so many engines — every
//! job of a grid sharing a topology, or every candidate placement of a
//! worst-case search — execute against one shared plan.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nab_bb::router::{FormulaClock, RoundSink};
use nab_netgraph::{DiGraph, NodeId};
use nab_obs::trace::{self, EventKind, InstanceSpan, Phase, PhaseSpan};

use crate::adversary::NabAdversary;
use crate::bounds::{rho_k, Pair};
use crate::detsan;
use crate::dispute::{dc2_disputes, dc3_on_routes, DisputeState, NodeClaims};
use crate::equality::{CodingScheme, RowLayout};
use crate::netexec::{BroadcastPhase, DeliveredTimes, InstanceTiming, NetExec};
use crate::phase1::{run_routes, Phase1Output};
use crate::phase2::{
    announce_flags, broadcast_claims, flag_broadcast, honest_claims, run_equality_phase,
    BroadcastKind, EqOutcome, EqScratch, FlagOutcome,
};
use crate::plan::{ExecutionPlan, Gk, MAX_TREES};
use crate::value::Value;

/// The broadcast source — the paper's "node 1" is node 0 here.
pub const SOURCE: NodeId = 0;

/// Static configuration of a NAB deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NabConfig {
    /// Upper bound on the number of faulty nodes over the system lifetime.
    pub f: usize,
    /// Input size per instance in 16-bit symbols (`L = 16 · symbols`).
    pub symbols: usize,
    /// Seed for the per-instance coding matrices (public, part of the
    /// algorithm specification).
    pub seed: u64,
}

/// Errors detectable at setup or between instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NabError {
    /// Fewer than `3f + 1` nodes.
    TooManyFaults {
        /// Nodes in the network.
        n: usize,
        /// Configured fault bound.
        f: usize,
    },
    /// Vertex connectivity below `2f + 1`.
    InsufficientConnectivity,
    /// `U_k < 2`: no integer equality-check parameter exists.
    NoEqualityParameter,
    /// Input has the wrong number of symbols.
    WrongInputSize {
        /// Expected symbol count.
        expect: usize,
        /// Provided symbol count.
        got: usize,
    },
    /// Edmonds arborescence packing failed at the computed broadcast
    /// rate — a planning failure that carries the topology/rate context
    /// so a bad scenario reports cleanly instead of aborting a sweep.
    ArborescencePacking {
        /// Active nodes of the graph being planned.
        n: usize,
        /// Live edges of the graph being planned.
        edges: usize,
        /// The rate `γ` the packing was attempted at.
        gamma: u64,
    },
    /// `γ_k`, one Phase-1 arborescence per unit, is above
    /// [`MAX_TREES`].
    TooManyTrees {
        /// The broadcast rate `γ_k`.
        gamma: u64,
    },
    /// [`NabEngine::from_plan`] was given a plan built for a different
    /// fault bound than the configuration asks for.
    PlanMismatch {
        /// The plan's fault bound.
        plan_f: usize,
        /// The configuration's fault bound.
        cfg_f: usize,
    },
}

impl std::fmt::Display for NabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NabError::TooManyFaults { n, f: ff } => {
                write!(f, "need n ≥ 3f+1: n={n}, f={ff}")
            }
            NabError::InsufficientConnectivity => {
                write!(f, "network connectivity below 2f+1")
            }
            NabError::NoEqualityParameter => {
                write!(f, "U_k < 2: equality check has no valid ρ")
            }
            NabError::WrongInputSize { expect, got } => {
                write!(f, "input must have {expect} symbols, got {got}")
            }
            NabError::ArborescencePacking { n, edges, gamma } => {
                write!(
                    f,
                    "Edmonds packing failed at rate γ={gamma} on a {n}-node, \
                     {edges}-edge graph (the rate should be achievable; this \
                     indicates an inconsistent topology)"
                )
            }
            NabError::TooManyTrees { gamma } => {
                write!(f, "γ={gamma} > {MAX_TREES} trees: scale capacities down")
            }
            NabError::PlanMismatch { plan_f, cfg_f } => {
                write!(
                    f,
                    "execution plan was built for f={plan_f} but the \
                     configuration asks for f={cfg_f}"
                )
            }
        }
    }
}

impl std::error::Error for NabError {}

/// Per-phase wall-clock breakdown of one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Phase 1 unreliable broadcast (`≈ L/γ_k`).
    pub phase1: f64,
    /// Equality check (`≈ L/ρ_k`).
    pub equality: f64,
    /// Flag broadcasts (the `O(n^α)` term).
    pub flags: f64,
    /// Dispute control (0 when not triggered).
    pub dispute: f64,
}

impl PhaseTimes {
    /// Total instance time.
    pub fn total(&self) -> f64 {
        self.phase1 + self.equality + self.flags + self.dispute
    }
}

/// Per-phase **wall-clock** nanoseconds of one instance — how long the
/// simulator itself took, as opposed to [`PhaseTimes`], which is the
/// *simulated* link-time model. This is the raw material of the timed
/// sweep report: summed per job by the sweep runner and serialized when
/// timings are requested. There is deliberately no `total()`: the per-job
/// total is `JobMetrics::wall_ns`, which also covers engine setup and
/// input generation, so a phase sum would silently disagree with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseWallNanos {
    /// Phase 1 (arborescence streaming).
    pub phase1: u64,
    /// Equality check (coding-matrix generation + encode/check).
    pub equality: u64,
    /// Flag broadcasts.
    pub flags: u64,
    /// Dispute control (claims broadcast + DC2/DC3), 0 when not run.
    pub dispute: u64,
    /// Message-level timing outside the broadcast phases: the Phase-1 and
    /// equality-check kernel rounds, 0 on the formula path. (The flag and
    /// claim broadcasts' hop rounds are timed by the kernel as they happen,
    /// inside `flags` and `dispute`.)
    pub net: u64,
}

/// Everything observable about one NAB instance.
#[derive(Debug, Clone, Default)]
pub struct InstanceReport {
    /// Output value decided by each *fault-free* node (faulty nodes'
    /// entries are present but meaningless).
    pub outputs: BTreeMap<NodeId, Value>,
    /// Simulated-time breakdown.
    pub times: PhaseTimes,
    /// Measured wall-clock breakdown (nanoseconds).
    pub wall: PhaseWallNanos,
    /// `γ_k` used for Phase 1.
    pub gamma_k: u64,
    /// `ρ_k` used for the equality check.
    pub rho_k: u64,
    /// Whether any agreed flag was MISMATCH.
    pub mismatch_detected: bool,
    /// Whether dispute control executed.
    pub dispute_ran: bool,
    /// New dispute pairs found this instance.
    pub new_pairs: Vec<Pair>,
    /// Nodes newly excluded as faulty.
    pub newly_removed: Vec<NodeId>,
    /// Whether the fast path (source known faulty → default output) ran.
    pub defaulted: bool,
    /// Per-phase delivered-time distributions from message-level
    /// execution; `None` on the default formula path (or when the
    /// instance defaulted before any message was sent).
    pub delivered: Option<DeliveredTimes>,
}

/// Counters for per-`G_k` replanning work (see
/// [`NabEngine::repair_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Replans whose `γ_k` and `ρ_k` still equal the plan's `γ_1` and
    /// `ρ_1`. The work is the same as a full recompute's — `γ_k`, the
    /// packing and `ρ_k` are derived from `G_k` alone — the two counters
    /// only tell the outcomes apart.
    pub repairs: u64,
    /// Replans where `γ_k` or `ρ_k` moved.
    pub full_recomputes: u64,
    /// Total wall nanoseconds spent replanning (repairs + recomputes).
    pub repair_ns: u64,
}

/// The NAB protocol engine (execution layer).
///
/// Create one engine per deployment and call
/// [`NabEngine::run_instance`] repeatedly; dispute state carries across
/// instances exactly as the paper's `G_k` evolution prescribes. The
/// one-time planning artifact is shared: engines built with
/// [`NabEngine::from_plan`] borrow the same [`ExecutionPlan`].
#[derive(Debug, Clone)]
pub struct NabEngine {
    plan: Arc<ExecutionPlan>,
    cfg: NabConfig,
    disputes: DisputeState,
    instance: usize,
    broadcast: BroadcastKind,
    net: Option<NetExec>,
    /// The `G_k` the last instance ran on: the plan's `G_1` until dispute
    /// control grows the dispute state.
    gk: Gk,
    repair_stats: RepairStats,
    /// The equality check's slabs and products, rewritten in place from
    /// one instance to the next.
    eq_scratch: EqScratch,
}

impl NabEngine {
    /// Validates the network against the paper's conditions (`n ≥ 3f+1`,
    /// connectivity `≥ 2f+1`, `U_1 ≥ 2`) and builds the engine with a
    /// private plan. Equivalent to [`ExecutionPlan::build`] +
    /// [`NabEngine::from_plan`].
    ///
    /// # Errors
    ///
    /// Returns the violated condition.
    pub fn new(g: DiGraph, cfg: NabConfig) -> Result<Self, NabError> {
        let plan = Arc::new(ExecutionPlan::build(g, cfg.f)?);
        Self::from_plan(plan, cfg)
    }

    /// Builds an engine executing against a shared, already-realized
    /// plan. The plan's fault bound must match the configuration's.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::PlanMismatch`] when `cfg.f != plan.f()`.
    pub fn from_plan(plan: Arc<ExecutionPlan>, cfg: NabConfig) -> Result<Self, NabError> {
        if plan.f() != cfg.f {
            return Err(NabError::PlanMismatch {
                plan_f: plan.f(),
                cfg_f: cfg.f,
            });
        }
        Ok(NabEngine {
            gk: plan.g1().clone(),
            plan,
            cfg,
            disputes: DisputeState::new(),
            instance: 0,
            broadcast: BroadcastKind::default(),
            net: None,
            repair_stats: RepairStats::default(),
            eq_scratch: EqScratch::default(),
        })
    }

    /// Re-seats the engine on a new plan — a live deployment whose
    /// network was re-provisioned mid-stream (link capacities changed,
    /// OCS-style) — while carrying forward everything it learned:
    /// dispute state, the instance counter (which seeds per-instance
    /// coding schemes), and the replanning counters. `G_k` restarts from
    /// the new plan's `G_1` (the old one was derived against the old
    /// network) and is derived again before the next instance if disputes
    /// have shrunk it. The node set must be unchanged (capacity-only
    /// mutation), or carried dispute state would reference nodes the new
    /// plan does not have.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::PlanMismatch`] when `plan.f() != cfg.f`.
    ///
    /// # Panics
    ///
    /// Panics if the new plan's node count differs from the old one's.
    pub fn migrate_to_plan(&mut self, plan: Arc<ExecutionPlan>) -> Result<(), NabError> {
        if plan.f() != self.cfg.f {
            return Err(NabError::PlanMismatch {
                plan_f: plan.f(),
                cfg_f: self.cfg.f,
            });
        }
        assert_eq!(
            plan.graph().node_count(),
            self.plan.graph().node_count(),
            "plan migration requires a capacity-only mutation"
        );
        self.gk = plan.g1().clone();
        self.plan = plan;
        Ok(())
    }

    /// Replanning counters accumulated by this engine.
    pub fn repair_stats(&self) -> &RepairStats {
        &self.repair_stats
    }

    /// Switches the engine to message-level execution: phase durations
    /// and delivered-time distributions come from timing the exact send
    /// sets, round by round, on the `nab-net` event kernel under the
    /// given link models. `None` (the default) restores the formula path.
    /// Protocol outputs and dispute evolution are identical either way
    /// — only timing differs.
    pub fn set_net(&mut self, net: Option<NetExec>) {
        self.net = net;
    }

    /// The shared planning artifact this engine executes against.
    pub fn plan(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// The configuration.
    pub fn config(&self) -> &NabConfig {
        &self.cfg
    }

    /// Selects the classic-BB primitive used for flag and claim broadcasts
    /// (default: EIG; Phase-King needs `n > 4f` and falls back to EIG
    /// otherwise).
    pub fn set_broadcast_kind(&mut self, kind: BroadcastKind) {
        self.broadcast = kind;
    }

    /// The configured `Broadcast_Default`.
    pub fn broadcast_kind(&self) -> BroadcastKind {
        self.broadcast
    }

    /// The current `G_k` after all disputes so far.
    pub fn current_graph(&self) -> DiGraph {
        self.disputes.current_graph(self.plan.graph())
    }

    /// The `G_k` (with `γ_k`, its packing and, once an instance reached
    /// the equality check on it, `ρ_k`) the last instance ran on — the
    /// plan's `G_1` until a dispute grows the dispute state. Read-only,
    /// for the oracle tests that compare it with from-scratch derivations.
    pub fn gk(&self) -> &Gk {
        &self.gk
    }

    /// Accumulated dispute state.
    pub fn disputes(&self) -> &DisputeState {
        &self.disputes
    }

    /// Number of instances run.
    pub fn instances_run(&self) -> usize {
        self.instance
    }

    /// Residual fault budget among non-excluded nodes (excluded nodes are
    /// guaranteed faulty).
    pub fn residual_f(&self) -> usize {
        self.cfg.f.saturating_sub(self.disputes.removed.len())
    }

    /// Runs one NAB instance on `G_k` (Section 2): Phase 1, the equality
    /// check, the flag broadcast and, on an agreed MISMATCH, dispute
    /// control, whose new pairs and exclusions `G_{k+1}` is derived from.
    ///
    /// `faulty` is the ground-truth faulty set (fixed across instances per
    /// the fault model; must have at most `f` members); `adv` chooses the
    /// faulty nodes' behavior.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::WrongInputSize`] on a bad input (before the
    /// engine's state is touched), [`NabError::TooManyTrees`] if a
    /// replan's `γ_k` is above [`MAX_TREES`],
    /// [`NabError::ArborescencePacking`] if `G_k` admits no packing at
    /// `γ_k`, or
    /// [`NabError::NoEqualityParameter`] if dispute evolution drove `U_k`
    /// below 2 (neither can happen on networks meeting the paper's
    /// assumptions).
    ///
    /// # Panics
    ///
    /// Panics if `faulty` has more than `f` members.
    pub fn run_instance(
        &mut self,
        input: &Value,
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
    ) -> Result<InstanceReport, NabError> {
        assert!(
            faulty.len() <= self.cfg.f,
            "faulty set exceeds configured f"
        );
        if input.len() != self.cfg.symbols {
            return Err(NabError::WrongInputSize {
                expect: self.cfg.symbols,
                got: input.len(),
            });
        }
        self.instance += 1;
        let instance = self.instance as u64;
        // Tracing: a no-op unless a sink is installed on this thread (the
        // sweep runner installs one per worker when `--trace` is active).
        let _span = InstanceSpan::enter(instance - 1);

        // Special case 1: the source is known faulty — agree on default.
        if self.disputes.removed.contains(&SOURCE) {
            trace::emit(EventKind::InstanceDefaulted);
            let removed = &self.disputes.removed;
            let zeros = Value::zeros(self.cfg.symbols);
            let outputs = self
                .plan
                .graph()
                .nodes()
                .filter(|v| !removed.contains(v))
                .map(|v| (v, zeros.clone()))
                .collect();
            return Ok(InstanceReport {
                outputs,
                defaulted: true,
                ..InstanceReport::default()
            });
        }

        if !self.gk.derived_from(&self.disputes) {
            self.gk = self.derive_gk()?;
        }
        let plan = Arc::clone(&self.plan);
        let gk = self.gk.clone();
        let (g, trees) = (gk.graph(), gk.trees());

        // Phase 1.
        let p1_span = PhaseSpan::enter(Phase::Phase1);
        let p1 = run_routes(gk.routes(), SOURCE, input, faulty, adv);
        let mut times = PhaseTimes {
            phase1: p1.duration,
            ..PhaseTimes::default()
        };
        let mut wall = PhaseWallNanos {
            phase1: p1_span.close(Some(&|| detsan::digest_values(&p1.values))),
            ..PhaseWallNanos::default()
        };

        // Special case 2: at least f nodes excluded → everyone left is
        // fault-free; Phase 1 alone is reliable.
        if self.disputes.removed.len() >= self.cfg.f {
            let timing = self
                .net
                .as_ref()
                .map(|nx| InstanceTiming::new(nx, instance));
            let delivered = message_level(timing, g, &p1, None, &mut times, &mut wall);
            return Ok(InstanceReport {
                outputs: p1.values,
                times,
                wall,
                gamma_k: gk.gamma(),
                delivered,
                ..InstanceReport::default()
            });
        }

        // Step 2.1: the equality check, with the instance's public coding
        // matrices at `ρ_k`.
        let eq_span = PhaseSpan::enter(Phase::Equality);
        let (rho, layout) = match self.gk.equality() {
            Some(equality) => equality.clone(),
            None => self.derive_rho()?,
        };
        let scheme =
            CodingScheme::drawn(layout, rho as usize, self.cfg.seed.wrapping_add(instance));
        let eq = run_equality_phase(g, &p1.values, &scheme, faulty, adv, &mut self.eq_scratch);
        times.equality = eq.duration;
        wall.equality = eq_span.close(Some(&|| detsan::digest_flags(&eq.flags)));

        // Step 2.2: every participant broadcasts its flag.
        let flags_span = PhaseSpan::enter(Phase::Flags);
        let participants: Vec<NodeId> = g.nodes().collect();
        let f_res = self.residual_f();
        // Message-level timing of this instance; `None` on the formula path.
        let mut timing = self
            .net
            .as_ref()
            .map(|nx| InstanceTiming::new(nx, instance));
        let flags = match timing.as_mut() {
            // The kernel's link models draw per round: replay every round.
            Some(t) => flag_broadcast(
                plan.router(),
                &participants,
                f_res,
                &eq.flags,
                faulty,
                adv,
                self.broadcast,
                &mut t.broadcast_phase(BroadcastPhase::Flags, plan.router()),
            ),
            None => FlagOutcome {
                announced: announce_flags(&participants, &eq.flags, faulty, adv),
                duration: gk.flag_charge(&plan, self.broadcast),
            },
        };
        times.flags = flags.duration;
        wall.flags = flags_span.close(Some(&|| detsan::digest_flags(&flags.announced)));

        // All fault-free nodes see the same set of agreed flags; evaluate
        // at an arbitrary fault-free participant.
        #[expect(
            clippy::expect_used,
            reason = "n >= 3f+1 leaves a fault-free node after f removals"
        )]
        let observer = *participants
            .iter()
            .find(|v| !faulty.contains(v))
            .expect("at least one fault-free node");
        if !flags.any_mismatch(observer) {
            let delivered = message_level(timing, g, &p1, Some(&eq), &mut times, &mut wall);
            return Ok(InstanceReport {
                outputs: p1.values,
                times,
                wall,
                gamma_k: gk.gamma(),
                rho_k: rho,
                delivered,
                ..InstanceReport::default()
            });
        }

        // Phase 3: dispute control.
        let dispute_span = PhaseSpan::enter(Phase::Dispute);
        let truthful = honest_claims(g, SOURCE, input, trees, &scheme, &p1, &eq, &flags.announced);
        let claims: BTreeMap<NodeId, NodeClaims> = truthful
            .into_iter()
            .map(|(v, honest)| {
                let c = if faulty.contains(&v) {
                    adv.claims(v, &honest)
                } else {
                    honest
                };
                (v, c)
            })
            .collect();

        // Broadcast every node's claims with the classic BB protocol and
        // charge the (large) communication time: to the event kernel with
        // net on, else to the formula, as step 2.2 does.
        let (router, kind) = (plan.router(), self.broadcast);
        let mut kernel = timing
            .as_mut()
            .map(|t| t.broadcast_phase(BroadcastPhase::Dispute, router));
        let mut formula = FormulaClock::default();
        let agreed_claims = match kernel.as_mut() {
            Some(k) => broadcast_claims(router, &participants, f_res, claims, kind, k),
            None => broadcast_claims(router, &participants, f_res, claims, kind, &mut formula),
        };
        times.dispute = kernel
            .as_ref()
            .map_or(formula.elapsed(), RoundSink::elapsed);
        drop(kernel);

        // DC2 + DC3 on the agreed claims, DC4 into the dispute state.
        let new_pairs = dc2_disputes(&agreed_claims);
        let exposed = dc3_on_routes(g, SOURCE, gk.routes(), &scheme, &agreed_claims);
        let newly_removed = self
            .disputes
            .integrate(plan.graph(), self.cfg.f, &new_pairs, &exposed);

        // Instance output: the source's broadcast input claim (agreement is
        // inherited from the claim broadcast; validity because a fault-free
        // source claims its true input), one value every node shares.
        let decided = agreed_claims
            .get(&SOURCE)
            .and_then(|c| c.input.clone())
            .map(Value::from_symbols)
            .unwrap_or_else(|| Value::zeros(self.cfg.symbols));
        let outputs = participants.iter().map(|&v| (v, decided.clone())).collect();
        wall.dispute = dispute_span.close(Some(&|| detsan::digest_disputes(&self.disputes)));

        let delivered = message_level(timing, g, &p1, Some(&eq), &mut times, &mut wall);
        Ok(InstanceReport {
            outputs,
            times,
            wall,
            gamma_k: gk.gamma(),
            rho_k: rho,
            mismatch_detected: true,
            dispute_ran: true,
            new_pairs,
            newly_removed,
            defaulted: false,
            delivered,
        })
    }

    /// Derives `G_k` for the current dispute state from the plan's `G_1`,
    /// counting the replan as a repair (`γ_k = γ_1`) or a full recompute.
    fn derive_gk(&mut self) -> Result<Gk, NabError> {
        let t0 = nab_obs::clock::mono_now();
        let gk = Gk::derive(self.plan.graph(), &self.disputes)?;
        let ns = t0.elapsed().as_nanos() as u64;
        if gk.gamma() == self.plan.gamma0() {
            self.repair_stats.repairs += 1;
            trace::emit(EventKind::PlanRepair { ns });
        } else {
            self.repair_stats.full_recomputes += 1;
            trace::emit(EventKind::PlanFullRecompute { ns });
        }
        self.repair_stats.repair_ns += ns;
        Ok(gk)
    }

    /// `ρ_k` and the row layout of a derived `G_k`, computed by the first
    /// instance on it that reaches the equality check.
    fn derive_rho(&mut self) -> Result<(u64, Arc<RowLayout>), NabError> {
        let t0 = nab_obs::clock::mono_now();
        let rho = rho_k(self.gk.graph(), self.cfg.f, &self.disputes.pairs)
            .ok_or(NabError::NoEqualityParameter)?;
        let equality = self.gk.set_rho(rho).clone();
        self.repair_stats.repair_ns += t0.elapsed().as_nanos() as u64;
        if self.gk.gamma() == self.plan.gamma0() && rho != self.plan.rho0() {
            // The ρ bound moved after all: the derivation counted as a
            // repair was a full recompute.
            self.repair_stats.repairs -= 1;
            self.repair_stats.full_recomputes += 1;
        }
        Ok(equality)
    }
}

/// Closes an instance's message-level timing, if it has one: times Phase 1
/// and the equality check on the kernel, replaces the formula `times` by
/// the latency-aware ones, and returns the delivered-time distributions.
fn message_level(
    timing: Option<InstanceTiming<'_>>,
    gk: &DiGraph,
    p1: &Phase1Output,
    eq: Option<&EqOutcome>,
    times: &mut PhaseTimes,
    wall: &mut PhaseWallNanos,
) -> Option<DeliveredTimes> {
    let mut timing = timing?;
    let span = PhaseSpan::enter(Phase::Net);
    timing.streaming_phases(gk, p1, eq);
    let (net_times, delivered) = timing.finish();
    *times = net_times;
    wall.net = span.close(None);
    Some(delivered)
}

/// The paper's per-instance correctness conditions: *agreement* among
/// fault-free nodes always, and *validity* (every fault-free output equals
/// the input) whenever the source is fault-free — a defaulted instance
/// included, since only a faulty source may ever be excluded. Dispute
/// control must be *sound* too: every node it newly excludes is faulty,
/// and every new dispute pair has a faulty member.
pub fn instance_correct(rep: &InstanceReport, faulty: &BTreeSet<NodeId>, input: &Value) -> bool {
    let is_faulty = |v: &NodeId| faulty.contains(v);
    if !rep.newly_removed.iter().all(is_faulty)
        || !rep
            .new_pairs
            .iter()
            .all(|(a, b)| is_faulty(a) || is_faulty(b))
    {
        return false;
    }
    let honest: Vec<&Value> = rep
        .outputs
        .iter()
        .filter(|(v, _)| !faulty.contains(v))
        .map(|(_, o)| o)
        .collect();
    if honest.windows(2).any(|w| w[0] != w[1]) {
        return false;
    }
    faulty.contains(&SOURCE) || honest.first().is_some_and(|v| **v == *input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        EquivocatingSource, FalseAlarm, HonestStrategy, LyingCorruptor, TruthfulCorruptor,
    };
    use nab_netgraph::gen;

    fn engine(symbols: usize) -> NabEngine {
        NabEngine::new(
            gen::complete(4, 2),
            NabConfig {
                f: 1,
                symbols,
                seed: 42,
            },
        )
        .unwrap()
    }

    fn input(symbols: usize) -> Value {
        Value::from_u64s(&(0..symbols as u64).map(|i| i * 7 + 1).collect::<Vec<_>>())
    }

    #[test]
    fn fault_free_instance_is_fast_path() {
        let mut e = engine(12);
        let x = input(12);
        let rep = e
            .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        assert!(!rep.mismatch_detected);
        assert!(!rep.dispute_ran);
        for v in rep.outputs.values() {
            assert_eq!(*v, x);
            assert_eq!(v.symbols().as_ptr(), x.symbols().as_ptr(), "shares x");
        }
        assert!(rep.times.phase1 > 0.0);
        assert!(rep.times.equality > 0.0);
        assert!(rep.times.flags > 0.0);
        assert_eq!(rep.times.dispute, 0.0);
    }

    #[test]
    fn setup_rejects_bad_networks() {
        let cfg = NabConfig {
            f: 1,
            symbols: 4,
            seed: 0,
        };
        // Too few nodes for f=1.
        assert!(matches!(
            NabEngine::new(gen::complete(3, 1), cfg),
            Err(NabError::TooManyFaults { .. })
        ));
        // A ring is 2-connected at best — not enough for 2f+1=3.
        assert!(matches!(
            NabEngine::new(gen::ring(5, 1), cfg),
            Err(NabError::InsufficientConnectivity)
        ));
    }

    #[test]
    fn engines_sharing_a_plan_match_private_plan_engines() {
        // The plan/execute split must be invisible to results: an engine
        // borrowing a shared plan behaves bit-identically to one that
        // built its own.
        let g = gen::complete(4, 2);
        let cfg = NabConfig {
            f: 1,
            symbols: 12,
            seed: 42,
        };
        let plan = Arc::new(ExecutionPlan::build(g.clone(), 1).unwrap());
        let mut shared1 = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
        let mut shared2 = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
        let mut private = NabEngine::new(g, cfg).unwrap();
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        for _ in 0..3 {
            let a = shared1
                .run_instance(&x, &faulty, &mut TruthfulCorruptor)
                .unwrap();
            let b = shared2
                .run_instance(&x, &faulty, &mut TruthfulCorruptor)
                .unwrap();
            let c = private
                .run_instance(&x, &faulty, &mut TruthfulCorruptor)
                .unwrap();
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.outputs, c.outputs);
            assert_eq!((a.gamma_k, a.rho_k), (c.gamma_k, c.rho_k));
            assert_eq!(a.times, c.times);
            assert_eq!(a.new_pairs, c.new_pairs);
            assert_eq!(a.newly_removed, c.newly_removed);
        }
        assert_eq!(shared1.disputes().pairs, private.disputes().pairs);
        assert_eq!(shared1.disputes().removed, private.disputes().removed);
    }

    #[test]
    fn from_plan_rejects_fault_bound_mismatch() {
        let plan = Arc::new(ExecutionPlan::build(gen::complete(7, 2), 2).unwrap());
        let cfg = NabConfig {
            f: 1,
            symbols: 4,
            seed: 0,
        };
        assert!(matches!(
            NabEngine::from_plan(plan, cfg),
            Err(NabError::PlanMismatch {
                plan_f: 2,
                cfg_f: 1
            })
        ));
    }

    #[test]
    fn packing_error_carries_topology_context() {
        let e = NabError::ArborescencePacking {
            n: 5,
            edges: 9,
            gamma: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("γ=3"), "{msg}");
        assert!(msg.contains("5-node"), "{msg}");
        assert!(msg.contains("9-edge"), "{msg}");
    }

    #[test]
    fn wrong_input_size_rejected() {
        let mut e = engine(12);
        let bad = input(5);
        assert!(matches!(
            e.run_instance(&bad, &BTreeSet::new(), &mut HonestStrategy),
            Err(NabError::WrongInputSize { expect: 12, got: 5 })
        ));
    }

    #[test]
    fn corrupting_relay_triggers_dispute_and_correct_output() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let rep = e.run_instance(&x, &faulty, &mut TruthfulCorruptor).unwrap();
        assert!(rep.mismatch_detected);
        assert!(rep.dispute_ran);
        // Validity: fault-free nodes still output the source's input.
        for (&v, out) in &rep.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x, "node {v}");
            }
        }
        // The truthful corruptor exposes itself via DC3.
        assert_eq!(rep.newly_removed, vec![2]);
        assert_eq!(storages(&rep).len(), 1, "one decided value, shared");
        assert!(instance_correct(&rep, &faulty, &x));
    }

    /// The distinct allocations behind a report's outputs.
    fn storages(rep: &InstanceReport) -> BTreeSet<*const nab_gf::Gf2_16> {
        rep.outputs.values().map(|o| o.symbols().as_ptr()).collect()
    }

    #[test]
    fn a_defaulted_instance_shares_one_zero_value() {
        let mut e = engine(8);
        e.disputes.removed.insert(SOURCE);
        let faulty = BTreeSet::from([SOURCE]);
        let rep = e
            .run_instance(&input(8), &faulty, &mut HonestStrategy)
            .unwrap();
        assert!(rep.defaulted);
        assert_eq!(rep.outputs.len(), 3);
        assert!(rep.outputs.values().all(|o| *o == Value::zeros(8)));
        assert_eq!(storages(&rep).len(), 1);
    }

    #[test]
    fn lying_relay_lands_in_dispute_pair() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let rep = e.run_instance(&x, &faulty, &mut LyingCorruptor).unwrap();
        assert!(rep.dispute_ran);
        assert!(
            rep.new_pairs.iter().any(|&(a, b)| a == 2 || b == 2),
            "the liar must appear in a dispute pair: {:?}",
            rep.new_pairs
        );
        for (&v, out) in &rep.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x);
            }
        }
    }

    #[test]
    fn equivocating_source_still_reaches_agreement() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([0]);
        let rep = e
            .run_instance(&x, &faulty, &mut EquivocatingSource)
            .unwrap();
        assert!(rep.mismatch_detected, "equality check must catch the split");
        // Agreement among fault-free nodes (validity not required: source
        // is faulty).
        let honest: Vec<&Value> = rep
            .outputs
            .iter()
            .filter(|(v, _)| !faulty.contains(v))
            .map(|(_, o)| o)
            .collect();
        assert!(honest.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn false_alarm_wastes_a_dispute_round_then_stops() {
        let mut e = engine(12);
        let x = input(12);
        let faulty = BTreeSet::from([3]);
        let mut adv = FalseAlarm;
        let rep1 = e.run_instance(&x, &faulty, &mut adv).unwrap();
        assert!(rep1.dispute_ran);
        // DC3 exposes the false-alarmist (its claims show clean receives
        // yet it announced MISMATCH).
        assert_eq!(rep1.newly_removed, vec![3]);
        // Next instance: f nodes removed → fast path, no equality check.
        let rep2 = e.run_instance(&x, &faulty, &mut adv).unwrap();
        assert!(!rep2.dispute_ran);
        for (&v, out) in &rep2.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x);
            }
        }
    }

    /// The `G_k` an instance ran on must equal a from-scratch derivation
    /// (`gamma_k`, the reference packer, `rho_k`) on `before`, the `G_k`
    /// the engine held when the instance started.
    fn assert_gk_matches_from_scratch(e: &NabEngine, before: &DiGraph, pairs: &BTreeSet<Pair>) {
        use crate::bounds::gamma_k;
        use nab_oracle::arborescence::pack_arborescences_naive;
        let gk = e.gk();
        assert_eq!(gk.graph(), before, "G_k");
        assert_eq!(gk.gamma(), gamma_k(before, SOURCE), "γ_k");
        let want = pack_arborescences_naive(before, SOURCE, gk.gamma()).unwrap();
        assert_eq!(gk.trees(), want.as_slice(), "arborescences");
        if let Some(rho) = gk.rho() {
            assert_eq!(Some(rho), rho_k(before, e.cfg.f, pairs), "ρ_k");
        }
    }

    #[test]
    fn plan_repair_is_bit_identical_to_full_recompute() {
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let mut e = engine(12);
        // Raise a dispute, then keep running so later instances replan on
        // the shrunken G_k.
        let (mut disputed_instances, mut states) = (0, BTreeSet::new());
        for i in 0..5 {
            let adv: &mut dyn NabAdversary = if i < 2 {
                &mut LyingCorruptor
            } else {
                &mut HonestStrategy
            };
            let before = e.current_graph();
            let state = e.disputes().clone();
            let rep = e.run_instance(&x, &faulty, adv).unwrap();
            assert_gk_matches_from_scratch(&e, &before, &state.pairs);
            assert_eq!(rep.gamma_k, e.gk().gamma());
            assert_eq!(rep.rho_k, e.gk().rho().unwrap_or(0));
            if state != DisputeState::new() {
                disputed_instances += 1;
                states.insert((state.pairs, state.removed));
            }
        }
        // One derivation per dispute state a disputed instance started
        // from, however many instances ran on it.
        assert!(disputed_instances >= 4);
        let stats = *e.repair_stats();
        assert_eq!(stats.repairs + stats.full_recomputes, states.len() as u64);
    }

    #[test]
    fn phase_king_broadcast_kind_end_to_end() {
        // K5 has n = 5 > 4f = 4, so Phase-King is usable as
        // Broadcast_Default; the full adversarial round-trip must behave
        // identically to EIG.
        let mut e = NabEngine::new(
            gen::complete(5, 2),
            NabConfig {
                f: 1,
                symbols: 12,
                seed: 21,
            },
        )
        .unwrap();
        e.set_broadcast_kind(crate::phase2::BroadcastKind::PhaseKing);
        assert_eq!(e.broadcast_kind(), crate::phase2::BroadcastKind::PhaseKing);
        let x = input(12);
        let faulty = BTreeSet::from([2]);
        let rep = e.run_instance(&x, &faulty, &mut TruthfulCorruptor).unwrap();
        assert!(rep.mismatch_detected);
        assert!(rep.dispute_ran);
        for (&v, out) in &rep.outputs {
            if !faulty.contains(&v) {
                assert_eq!(*out, x, "node {v}");
            }
        }
        assert_eq!(rep.newly_removed, vec![2]);
    }

    #[test]
    fn source_removal_defaults_all_outputs() {
        let mut e = engine(8);
        let x = input(8);
        let faulty = BTreeSet::from([0]);
        // An equivocating source that also lies in claims ends up removed…
        // simplest: force removal via dispute state by running with a
        // source that corrupts both trees and lies.
        let rep = e
            .run_instance(&x, &faulty, &mut EquivocatingSource)
            .unwrap();
        assert!(rep.dispute_ran);
        if e.disputes().removed.contains(&0) {
            let rep2 = e
                .run_instance(&x, &faulty, &mut EquivocatingSource)
                .unwrap();
            assert!(rep2.defaulted);
            for out in rep2.outputs.values() {
                assert_eq!(*out, Value::zeros(8));
            }
        }
    }

    /// Node 2 corrupts its Phase-1 forwards as [`TruthfulCorruptor`] does;
    /// every other faulty node follows the protocol.
    struct Node2Corrupts;

    impl NabAdversary for Node2Corrupts {
        fn phase1_forward(
            &mut self,
            node: NodeId,
            tree: usize,
            child: NodeId,
            honest: &[nab_gf::Gf2_16],
        ) -> Vec<nab_gf::Gf2_16> {
            if node == 2 {
                TruthfulCorruptor.phase1_forward(node, tree, child, honest)
            } else {
                honest.to_vec()
            }
        }
    }

    /// One engine's equality slab and product are rewritten where they lie
    /// whenever they hold no more symbols than they have held before —
    /// through the disputed instance too, whose `honest_claims` reads
    /// `eq.sends()` — and every report equals that of the same engine state
    /// running on fresh buffers.
    #[test]
    fn equality_scratch_is_reused_across_instances_and_disputes() {
        // f = 2, so the equality check still runs once a node is exposed.
        let cfg = NabConfig {
            f: 2,
            symbols: 720,
            seed: 42,
        };
        let mut e = NabEngine::new(gen::complete(7, 1), cfg).unwrap();
        let x = input(720);
        // Node 2 corrupts in instance 2 and is exposed; node 5 stays in
        // G_k, so its out-edges are compared (stacked and multiplied) in
        // every instance, before the dispute and after it.
        let faulty = BTreeSet::from([2, 5]);
        // Class 0's slab and product: where each lies, and the most
        // symbols it has held.
        let mut held: Option<[(*const nab_gf::Gf2_16, usize); 2]> = None;
        let mut in_place = Vec::new();
        let mut disputed = Vec::new();
        for i in 0..6 {
            let mut fresh = e.clone();
            fresh.eq_scratch = EqScratch::default();
            let [got, want] = [&mut e, &mut fresh].map(|engine| {
                let adv: &mut dyn NabAdversary = if i == 2 {
                    &mut Node2Corrupts
                } else {
                    &mut HonestStrategy
                };
                engine.run_instance(&x, &faulty, adv).unwrap()
            });
            assert_reports_match(&got, &want, &format!("instance {i}"));
            assert!(got.rho_k > 0, "instance {i} ran the equality check");
            if got.dispute_ran {
                disputed.push(i);
            }
            // Class 0 (the source's) exists in every instance.
            let now = e.eq_scratch.storage()[0];
            assert!(now[1].1 > 0, "instance {i} multiplied class 0");
            assert_ne!(
                now.map(|(at, _)| at),
                fresh.eq_scratch.storage()[0].map(|(at, _)| at),
                "the oracle is fresh"
            );
            if let Some(held) = &mut held {
                if now.iter().zip(held.iter()).all(|(n, h)| n.1 <= h.1) {
                    assert_eq!(
                        now.map(|(at, _)| at),
                        held.map(|(at, _)| at),
                        "instance {i}"
                    );
                    in_place.push(i);
                }
                for (h, n) in held.iter_mut().zip(now) {
                    *h = (n.0, h.1.max(n.1));
                }
            } else {
                held = Some(now);
            }
        }
        assert_eq!(disputed, [2]);
        assert_eq!(in_place, [1, 3, 4, 5]);
        assert_eq!(e.disputes().removed, BTreeSet::from([2]));
        assert!(
            e.gk().graph() != e.plan().graph(),
            "the later instances ran on a shrunken G_k"
        );
    }

    /// Everything deterministic in a report (wall-clock excluded).
    fn assert_reports_match(a: &InstanceReport, b: &InstanceReport, ctx: &str) {
        assert_eq!(a.outputs, b.outputs, "{ctx}: outputs");
        assert_eq!(a.times, b.times, "{ctx}: times");
        assert_eq!((a.gamma_k, a.rho_k), (b.gamma_k, b.rho_k), "{ctx}: rates");
        assert_eq!(a.mismatch_detected, b.mismatch_detected, "{ctx}: mismatch");
        assert_eq!(a.dispute_ran, b.dispute_ran, "{ctx}: dispute_ran");
        assert_eq!(a.new_pairs, b.new_pairs, "{ctx}: new_pairs");
        assert_eq!(a.newly_removed, b.newly_removed, "{ctx}: removed");
        assert_eq!(a.defaulted, b.defaulted, "{ctx}: defaulted");
    }

    /// The pinned cross-check: the formula clock and the event kernel are
    /// two sinks of one primitive, so with zero-latency lossless links the
    /// kernel must reproduce the synchronous formula charges up to the
    /// kernel's integer nanoseconds — a transmission takes
    /// `⌈bits · UNIT_NS / cap⌉`, at most one ns (1e-6 time units) more than
    /// the formula's share for it. On direct and multi-hop routes, for EIG
    /// (two and three levels) and Phase-King, on the clean fast path and
    /// through a full dispute round alike, and again once a `degrade`-style
    /// mutation has migrated both engines to a re-provisioned network's
    /// plan.
    #[test]
    fn message_level_zero_model_matches_formula() {
        type MkAdv = fn() -> Box<dyn NabAdversary>;
        let honest: (BTreeSet<NodeId>, MkAdv) = (BTreeSet::new(), || Box::new(HonestStrategy));
        let corrupt: (BTreeSet<NodeId>, MkAdv) =
            (BTreeSet::from([2]), || Box::new(TruthfulCorruptor));
        let cases: [(&str, DiGraph, usize, BroadcastKind); 4] = [
            ("complete:4/eig", gen::complete(4, 4), 1, BroadcastKind::Eig),
            (
                "circulant:10:2/eig",
                gen::circulant(10, 2, 4),
                1,
                BroadcastKind::Eig,
            ),
            (
                "circulant:10:2/phase-king",
                gen::circulant(10, 2, 4),
                1,
                BroadcastKind::PhaseKing,
            ),
            ("complete:7/eig", gen::complete(7, 4), 2, BroadcastKind::Eig),
        ];
        let x = input(12);
        for (name, g, f, kind) in cases {
            for (faulty, mk_adv) in [&honest, &corrupt] {
                let cfg = NabConfig {
                    f,
                    symbols: 12,
                    seed: 42,
                };
                let mut formula = NabEngine::new(g.clone(), cfg).unwrap();
                let mut event = NabEngine::new(g.clone(), cfg).unwrap();
                event.set_net(Some(crate::netexec::NetExec {
                    model: nab_net::NetModel::default(),
                    seed: 99,
                }));
                let (mut disputed, mut retimed_thirds) = (false, false);
                for inst in 0..5 {
                    if inst == 3 {
                        // Every third link loses a quarter of its capacity
                        // (4 → 3): a rate that no longer divides UNIT_NS,
                        // and a new plan for both engines.
                        let mut degraded = g.clone();
                        let thinned: Vec<_> = g.edges().step_by(3).collect();
                        for (id, e) in thinned {
                            degraded.set_edge_cap(id, e.cap * 3 / 4);
                        }
                        let plan = Arc::new(ExecutionPlan::build(degraded, f).unwrap());
                        formula.migrate_to_plan(Arc::clone(&plan)).unwrap();
                        event.migrate_to_plan(plan).unwrap();
                    }
                    formula.set_broadcast_kind(kind);
                    event.set_broadcast_kind(kind);
                    let a = formula.run_instance(&x, faulty, mk_adv().as_mut()).unwrap();
                    let b = event.run_instance(&x, faulty, mk_adv().as_mut()).unwrap();
                    let at = format!("{name}, faulty {faulty:?}, instance {inst}");
                    assert_eq!(a.outputs, b.outputs, "{at}: net mode changed outputs");
                    assert_eq!(a.dispute_ran, b.dispute_ran, "{at}");
                    assert_eq!(a.newly_removed, b.newly_removed, "{at}");
                    assert!(a.delivered.is_none());
                    assert_eq!(b.defaulted, b.delivered.is_none(), "{at}");
                    let Some(d) = b.delivered.as_ref() else {
                        continue;
                    };
                    assert!(d.phase1.count() > 0);
                    assert_eq!(d.instance.count(), 1);
                    assert_eq!(d.kernel.retransmits, 0);
                    for (fa, fb, deliveries, phase) in [
                        (a.times.phase1, b.times.phase1, &d.phase1, "phase1"),
                        (a.times.equality, b.times.equality, &d.equality, "equality"),
                        (a.times.flags, b.times.flags, &d.flags, "flags"),
                        (a.times.dispute, b.times.dispute, &d.dispute, "dispute"),
                    ] {
                        // The kernel only ever rounds up, once per message.
                        let late = fb - fa;
                        let bound = deliveries.count() as f64 * 1e-6 + 1e-9;
                        assert!(
                            (-1e-9..=bound).contains(&late),
                            "{at}, {phase}: formula {fa} vs message-level {fb}"
                        );
                        retimed_thirds |= late > 1e-7;
                    }
                    disputed |= b.dispute_ran;
                    assert_eq!(d.dispute.count() > 0, b.dispute_ran, "{at}");
                }
                assert_eq!(disputed, !faulty.is_empty(), "{name}");
                assert!(retimed_thirds, "{name}: no rate ever left a remainder");
            }
        }
    }

    #[test]
    fn message_level_latency_slows_instances_deterministically() {
        let x = input(12);
        let model = nab_net::NetSpec {
            latency: nab_net::Latency::Uniform {
                base_ns: 1_000_000,
                jitter_ns: 500_000,
            },
            loss: Some(nab_net::Loss {
                p: 0.2,
                max_retries: 2,
                rto_ns: 2_000_000,
            }),
            straggler: None,
        }
        .build();
        let run = |seed: u64| {
            let mut e = engine(12);
            e.set_net(Some(crate::netexec::NetExec {
                model: model.clone(),
                seed,
            }));
            e.run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap()
        };
        let base = {
            let mut e = engine(12);
            e.run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap()
        };
        let a = run(5);
        // Latency and loss can only push completion later.
        assert!(a.times.total() > base.times.total());
        for v in a.outputs.values() {
            assert_eq!(*v, x, "timing must not affect outputs");
        }
        // Same seed → identical timings; different seed → different jitter.
        let b = run(5);
        assert_eq!(a.times, b.times);
        assert_eq!(a.delivered, b.delivered);
        let c = run(6);
        assert_ne!(a.delivered, c.delivered);
    }

    /// The formula-clock flag charge of `kind` on `plan`'s `G_1`, replayed
    /// on `sink` by a fresh `flag_broadcast`.
    fn replayed_flags<S: RoundSink>(
        plan: &ExecutionPlan,
        kind: BroadcastKind,
        sink: &mut S,
    ) -> f64 {
        let participants: Vec<NodeId> = plan.graph().nodes().collect();
        let computed = participants.iter().map(|&v| (v, false)).collect();
        let (faulty, f) = (BTreeSet::new(), plan.f());
        let router = plan.router();
        flag_broadcast(
            router,
            &participants,
            f,
            &computed,
            &faulty,
            &mut HonestStrategy,
            kind,
            sink,
        )
        .duration
    }

    /// Two engines on one plan charge bit-equal flag phases: the first
    /// instance fills `G_1`'s slot for its kind with a fresh replay's
    /// f64, and the second engine reads it. The adversary still announces
    /// its flag: a false alarm on the second engine is agreed and
    /// disputed.
    #[test]
    fn flag_charge_is_shared_by_engines_on_one_plan() {
        let x = input(8);
        let cfg = NabConfig {
            f: 1,
            symbols: 8,
            seed: 3,
        };
        for kind in [BroadcastKind::Eig, BroadcastKind::PhaseKing] {
            let plan = Arc::new(ExecutionPlan::build(gen::complete(5, 2), 1).unwrap());
            let mut a = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
            let mut b = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
            a.set_broadcast_kind(kind);
            b.set_broadcast_kind(kind);
            assert_eq!(plan.g1().cached_flag_charge(kind), None);
            let ra = a
                .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap();
            let cached = plan.g1().cached_flag_charge(kind).map(f64::to_bits);
            assert_eq!(cached, Some(ra.times.flags.to_bits()), "{kind:?}");
            let fresh = replayed_flags(&plan, kind, &mut FormulaClock::default());
            assert_eq!(ra.times.flags.to_bits(), fresh.to_bits(), "{kind:?}");
            let rb = b
                .run_instance(&x, &BTreeSet::from([3]), &mut FalseAlarm)
                .unwrap();
            assert_eq!(
                ra.times.flags.to_bits(),
                rb.times.flags.to_bits(),
                "{kind:?}"
            );
            assert!(!ra.mismatch_detected);
            assert!(rb.mismatch_detected && rb.dispute_ran, "{kind:?}");
        }
    }

    /// With message-level timing the flag phase is replayed on the event
    /// kernel every instance, under jittered links: `times.flags` is what
    /// `flag_broadcast` gives on that instance's kernel sink, with the
    /// formula slot cold or warm, and the kernel path never fills it.
    #[test]
    fn flag_charge_memo_is_bypassed_on_the_kernel_clock() {
        let x = input(8);
        let cfg = NabConfig {
            f: 1,
            symbols: 8,
            seed: 3,
        };
        let nx = crate::netexec::NetExec {
            model: nab_net::NetSpec {
                latency: nab_net::Latency::Uniform {
                    base_ns: 1_000_000,
                    jitter_ns: 500_000,
                },
                loss: None,
                straggler: None,
            }
            .build(),
            seed: 5,
        };
        let kind = BroadcastKind::Eig;
        let plan = Arc::new(ExecutionPlan::build(gen::complete(5, 2), 1).unwrap());
        let kernel_flags = |instance: u64| {
            let mut timing = InstanceTiming::new(&nx, instance);
            let sink = &mut timing.broadcast_phase(BroadcastPhase::Flags, plan.router());
            replayed_flags(&plan, kind, sink)
        };
        let net_engine = || {
            let mut e = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
            e.set_net(Some(nx.clone()));
            e
        };
        let mut cold = net_engine();
        let c = cold
            .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        assert_eq!(c.times.flags.to_bits(), kernel_flags(1).to_bits());
        assert_eq!(plan.g1().cached_flag_charge(kind), None);

        let mut formula = NabEngine::from_plan(Arc::clone(&plan), cfg).unwrap();
        let warm_up = formula
            .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        assert!(plan.g1().cached_flag_charge(kind).is_some());
        assert!(
            warm_up.times.flags < c.times.flags,
            "latency slows the flags"
        );

        let mut warm = net_engine();
        for instance in 1..=2 {
            let w = warm
                .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
                .unwrap();
            assert_eq!(w.times.flags.to_bits(), kernel_flags(instance).to_bits());
        }
    }

    #[test]
    fn a_defaulted_instance_is_valid_only_when_the_source_is_faulty() {
        // A fault-free source wrongly excluded defaults every output to
        // zeros: agreement holds, validity does not.
        let x = input(4);
        let rep = InstanceReport {
            outputs: (0..4).map(|v| (v, Value::zeros(4))).collect(),
            defaulted: true,
            ..InstanceReport::default()
        };
        assert!(!instance_correct(&rep, &BTreeSet::new(), &x));
        assert!(instance_correct(&rep, &BTreeSet::from([SOURCE]), &x));
    }

    /// Agreement and validity hold in each report below; only the blame
    /// differs.
    fn blamed(newly_removed: Vec<NodeId>, new_pairs: Vec<Pair>) -> InstanceReport {
        InstanceReport {
            outputs: (0..4).map(|v| (v, input(4))).collect(),
            dispute_ran: true,
            newly_removed,
            new_pairs,
            ..InstanceReport::default()
        }
    }

    #[test]
    fn an_instance_blaming_a_fault_free_node_is_incorrect() {
        let (x, faulty) = (input(4), BTreeSet::from([2]));
        assert!(instance_correct(&blamed(vec![2], vec![]), &faulty, &x));
        assert!(
            !instance_correct(&blamed(vec![3], vec![]), &faulty, &x),
            "a fault-free node exposed"
        );
        assert!(
            !instance_correct(&blamed(vec![], vec![(1, 3)]), &faulty, &x),
            "a pair of fault-free nodes"
        );
        assert!(
            instance_correct(&blamed(vec![], vec![(1, 2), (2, 3)]), &faulty, &x),
            "a pair with one faulty member"
        );
    }

    #[test]
    fn phase_times_reproduce_paper_costs() {
        // K4 cap 2: γ=6, U=12 → ρ=6… check L/γ and L/ρ shape.
        let mut e = engine(12);
        let x = input(12);
        let rep = e
            .run_instance(&x, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        let l = x.bits() as f64;
        assert!((rep.times.phase1 - l / rep.gamma_k as f64).abs() < 1e-6);
        // Equality time is L/ρ rounded up to whole 16-bit columns.
        let cols = (12usize).div_ceil(rep.rho_k as usize) as f64;
        assert!((rep.times.equality - cols * 16.0).abs() < 1e-6);
    }
}
