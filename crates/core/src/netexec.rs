//! Message-level execution: times every phase's exact send sets on the
//! `nab-net` discrete-event kernel, producing latency-aware phase
//! durations and per-phase delivered-time distributions.
//!
//! The protocol logic itself is untouched — outputs, flags, disputes,
//! and `G_k` evolution come from the synchronous path as always; this
//! layer times the *same messages* under a [`nab_net::NetModel`]
//! (latency, jitter, loss with bounded retransmit). The paper's protocol is
//! synchronous, so phases and broadcast rounds are barrier-sequenced:
//! a phase (or BB round) begins when the previous one has fully
//! completed everywhere, and *within* it messages flow through FIFO
//! link serialization plus sampled propagation delay. Under the zero
//! model (zero latency, lossless) every phase duration collapses to the
//! synchronous formula charge — pinned by the cross-check test below.
//!
//! Nothing is recorded and replayed. The flag and claim broadcasts charge
//! their hop rounds to a [`RoundSink`]; with `net = on` that sink is a
//! `PhaseKernel` — one [`EventNet`] per phase, fed sizes only, its
//! deliveries folded straight into the phase histogram — where the formula
//! path has a [`nab_bb::router::FormulaClock`]. Phase 1 and the equality
//! check are one kernel round each. A hop round's copies travel
//! vertex-disjoint paths and the equality check sends once per link, so
//! those rounds are exclusive and [`EventNet::serve_exclusive`] serves them
//! in closed form, by edge id: a hop round's come with its route (so a
//! broadcast phase's kernel is built on the router's graph), the equality
//! check's are ids of `G_k`. Only Phase 1, whose trees share links,
//! runs through the event queue. Seeds: a phase's is `mix(mix(nx.seed,
//! instance), phase tag)`, a round's is `mix(phase seed, i)` with `i` the
//! round's index within the phase, and a queued message's id is its
//! route's index; indices run tree-major, so messages that tie on a link
//! still pop in tree order.
//! The transcript replay this replaced is kept below as the
//! differential-test oracle: it queues every round on a fresh kernel.

use nab_bb::router::{HopRound, PathRouter, RoundSink};
use nab_net::{mix, EventNet, KernelStats, UNIT_NS};
use nab_netgraph::DiGraph;
use nab_obs::metrics::Histogram;

use crate::engine::PhaseTimes;
use crate::phase1::Phase1Output;
use crate::phase2::EqOutcome;
use crate::value::SYMBOL_BITS;

/// Message-level execution config: the link models plus the seed all
/// jitter/loss randomness derives from (per-instance streams are mixed
/// from it; never wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub struct NetExec {
    /// Per-link latency/jitter/loss models.
    pub model: nab_net::NetModel,
    /// Base seed for all sampled delays and losses.
    pub seed: u64,
}

/// Per-phase delivered-time distributions of message-level execution,
/// in virtual nanoseconds relative to each phase's start (`instance` is
/// the whole-instance completion time), plus the kernel work behind them.
/// Merging is commutative, so per-job aggregation is thread-order
/// invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveredTimes {
    /// Phase-1 block deliveries (per arborescence edge, tail-arrival).
    pub phase1: Histogram,
    /// Equality-check symbol deliveries.
    pub equality: Histogram,
    /// Flag-broadcast message deliveries.
    pub flags: Histogram,
    /// Dispute-control claim-broadcast deliveries.
    pub dispute: Histogram,
    /// Whole-instance completion times.
    pub instance: Histogram,
    /// Kernel rounds, deliveries and retransmits (observability only: the
    /// sweep registers them as `net.*` counters, never in canonical JSON).
    pub kernel: KernelStats,
}

impl Default for DeliveredTimes {
    fn default() -> Self {
        DeliveredTimes {
            phase1: Histogram::new(),
            equality: Histogram::new(),
            flags: Histogram::new(),
            dispute: Histogram::new(),
            instance: Histogram::new(),
            kernel: KernelStats::default(),
        }
    }
}

impl DeliveredTimes {
    /// Accumulates another instance's (or job's) distributions.
    pub fn merge(&mut self, other: &DeliveredTimes) {
        self.phase1.merge(&other.phase1);
        self.equality.merge(&other.equality);
        self.flags.merge(&other.flags);
        self.dispute.merge(&other.dispute);
        self.instance.merge(&other.instance);
        self.kernel.accumulate(&other.kernel);
    }

    /// Named access to every distribution, in serialization order.
    pub fn phases(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("phase1", &self.phase1),
            ("equality", &self.equality),
            ("flags", &self.flags),
            ("dispute", &self.dispute),
            ("instance", &self.instance),
        ]
    }
}

/// The two broadcast phases whose hop rounds stream through a
/// [`PhaseKernel`], with the tags their seeds are mixed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BroadcastPhase {
    /// Step 2.2, the flag broadcasts.
    Flags = 0xF1,
    /// Phase 3, the claim broadcasts.
    Dispute = 0xD1,
}

/// Seed tags of the two single-round phases.
const PHASE1_TAG: u64 = 0xF1A5E1;
const EQUALITY_TAG: u64 = 0xE0;

/// Message-level timing of one instance: hands out the broadcast phases'
/// sinks, times the two streaming phases, and ends as the instance's
/// [`PhaseTimes`] and [`DeliveredTimes`].
pub(crate) struct InstanceTiming<'a> {
    nx: &'a NetExec,
    seed: u64,
    /// Completion time of each phase in virtual ns, in [`PhaseTimes`] order.
    ends: [u64; 4],
    delivered: DeliveredTimes,
}

impl<'a> InstanceTiming<'a> {
    pub(crate) fn new(nx: &'a NetExec, instance: u64) -> Self {
        InstanceTiming {
            nx,
            seed: mix(nx.seed, instance),
            ends: [0; 4],
            delivered: DeliveredTimes::default(),
        }
    }

    /// The sink for one broadcast phase's hop rounds: a kernel on the
    /// router's own graph, which the rounds' edge ids index.
    pub(crate) fn broadcast_phase(
        &mut self,
        phase: BroadcastPhase,
        router: &PathRouter,
    ) -> PhaseKernel<'_> {
        let (end_ns, hist) = match phase {
            BroadcastPhase::Flags => (&mut self.ends[2], &mut self.delivered.flags),
            BroadcastPhase::Dispute => (&mut self.ends[3], &mut self.delivered.dispute),
        };
        let seed = mix(self.seed, phase as u64);
        PhaseKernel {
            net: EventNet::new(router.graph(), self.nx.model.clone(), seed),
            seed,
            rounds: 0,
            end_ns,
            hist,
            kernel: &mut self.delivered.kernel,
        }
    }

    /// Times Phase 1 and, when it ran, the equality check on `gk`: one
    /// kernel round each, every link transmitting at once — Phase 1 through
    /// the queue of a fresh kernel, the equality check (one send per link)
    /// in closed form, by `gk`'s edge ids.
    pub(crate) fn streaming_phases(
        &mut self,
        gk: &DiGraph,
        p1: &Phase1Output,
        eq: Option<&EqOutcome>,
    ) {
        let mut net = EventNet::new(gk, self.nx.model.clone(), mix(self.seed, PHASE1_TAG));
        self.ends[0] = time_phase1(&mut net, p1, &mut self.delivered.phase1);
        if let Some(eq) = eq {
            let seed = mix(mix(self.seed, EQUALITY_TAG), 0);
            let hist = &mut self.delivered.equality;
            self.ends[1] = net.serve_exclusive(seed, eq.link_bits(), |t| hist.record(t));
        }
        self.delivered.kernel.accumulate(&net.stats());
    }

    /// The instance's latency-aware [`PhaseTimes`] (in the formula path's
    /// time units) and its delivered-time distributions.
    pub(crate) fn finish(mut self) -> (PhaseTimes, DeliveredTimes) {
        let total = self.ends.into_iter().fold(0, u64::saturating_add);
        self.delivered.instance.record(total);
        let [phase1, equality, flags, dispute] = self.ends.map(units);
        (
            PhaseTimes {
                phase1,
                equality,
                flags,
                dispute,
            },
            self.delivered,
        )
    }
}

/// Virtual nanoseconds in the formula path's capacity time-units.
fn units(ns: u64) -> f64 {
    ns as f64 / UNIT_NS as f64
}

/// The message-level [`RoundSink`]: one broadcast phase's hop rounds, each
/// an exclusive barrier round served in closed form on one kernel. A
/// round's deliveries are recorded at the sum of the earlier rounds'
/// completion times, which is also the phase's clock.
pub(crate) struct PhaseKernel<'a> {
    net: EventNet,
    seed: u64,
    /// Hop rounds served so far — the next round's index within the phase.
    rounds: u64,
    end_ns: &'a mut u64,
    hist: &'a mut Histogram,
    kernel: &'a mut KernelStats,
}

impl RoundSink for PhaseKernel<'_> {
    fn hop_round(&mut self, round: &HopRound<'_>) {
        let (seed, offset) = (mix(self.seed, self.rounds), *self.end_ns);
        self.rounds += 1;
        let sends = round.edges().iter().map(|&edge| (edge, round.bits));
        let hist = &mut *self.hist;
        let end = self
            .net
            .serve_exclusive(seed, sends, |t| hist.record(offset.saturating_add(t)));
        *self.end_ns = offset.saturating_add(end);
    }

    fn elapsed(&self) -> f64 {
        units(*self.end_ns)
    }
}

impl Drop for PhaseKernel<'_> {
    fn drop(&mut self) {
        self.kernel.accumulate(&self.net.stats());
    }
}

/// Times Phase 1's streamed blocks. All tree edges transmit
/// concurrently (the paper's cut-through streaming model); a node's
/// block on tree `t` counts as delivered no earlier than its parent's
/// (the tail of a stream cannot overtake the stream), which is how
/// per-hop latency accumulates down each arborescence.
fn time_phase1(net: &mut EventNet, p1: &Phase1Output, hist: &mut Histogram) -> u64 {
    let routes = p1.routes().routes();
    for ((i, r), len) in routes.iter().enumerate().zip(p1.send_lens()) {
        net.schedule(i as u64, r.parent, r.child, len as u64 * SYMBOL_BITS, 0);
    }
    let mut arrived = vec![None; routes.len()];
    net.drain(|d| arrived[d.id as usize] = Some(d.delivered_ns));
    // The root is no route's child, so it stays at 0 on every tree; any
    // other parent is set earlier in its own tree's BFS order.
    let (mut done, mut end) = (vec![0; p1.routes().node_bound()], 0);
    for (r, arrived) in routes.iter().zip(arrived) {
        let du = done[r.parent];
        let arrived = arrived.unwrap_or(du).max(du);
        done[r.child] = arrived;
        hist.record(arrived);
        end = end.max(arrived);
    }
    end
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adversary::TruthfulCorruptor;
    use crate::equality::CodingScheme;
    use crate::phase1::run_phase1;
    use crate::phase2::{
        broadcast_claims, flag_broadcast, honest_claims, run_equality_phase_batched, BroadcastKind,
    };
    use crate::plan::ExecutionPlan;
    use crate::value::Value;
    use nab_bb::baselines::Recording;
    use nab_bb::router::Routed;
    use nab_netgraph::{gen, NodeId};
    use nab_sim::{NetSim, Transcript};
    use std::collections::BTreeSet;

    // The transcript replay that streaming replaced, kept as its oracle:
    // record every hop round of a phase in a `Transcript`, flatten it, and
    // serve each round on a kernel built for that round alone.

    /// Per-round send lists `(src, dst, bits)`.
    pub(crate) type Rounds = Vec<Vec<(NodeId, NodeId, u64)>>;

    /// Runs `phase` against the recording sink — a `NetSim`'s clock plus
    /// transcript — and returns its result with the recorded rounds.
    pub(crate) fn recorded<R>(
        g0: &DiGraph,
        phase: impl FnOnce(&mut Recording<'_, ()>) -> R,
    ) -> (R, Rounds) {
        let mut net: NetSim<Routed<()>> = NetSim::new(g0.clone());
        let out = phase(&mut Recording {
            net: &mut net,
            value: &(),
        });
        (out, transcript_rounds(net.transcript()))
    }

    /// Flattens a recorded transcript into per-round send lists
    /// `(src, dst, bits)` for replay.
    fn transcript_rounds<M>(t: &Transcript<M>) -> Rounds {
        t.rounds
            .iter()
            .map(|r| r.sends.iter().map(|s| (s.src, s.dst, s.bits)).collect())
            .collect()
    }

    /// Replays a sequence of barrier-synchronized rounds on `g`, each on a
    /// fresh kernel, recording every delivery (offset to the phase start)
    /// and returning the phase's completion time.
    fn replay_rounds(
        nx: &NetExec,
        seed: u64,
        g: &DiGraph,
        rounds: &[Vec<(NodeId, NodeId, u64)>],
        hist: &mut Histogram,
    ) -> u64 {
        let mut offset = 0u64;
        for (i, round) in rounds.iter().enumerate() {
            if round.is_empty() {
                continue;
            }
            let mut net = EventNet::new(g, nx.model.clone(), mix(seed, i as u64));
            for (id, &(src, dst, bits)) in round.iter().enumerate() {
                net.schedule(id as u64, src, dst, bits, 0);
            }
            for d in net.run() {
                hist.record(offset + d.delivered_ns);
            }
            offset += net.clock_ns();
        }
        offset
    }

    /// One disputed instance's flag and claim broadcasts on `g`, streamed
    /// into the phase kernels and — the oracle — recorded as transcripts and
    /// replayed round by round on fresh kernels: same phase end-times, same
    /// delivered-time histograms, same number of deliveries.
    fn streamed_matches_replayed_transcript(g: DiGraph, f: usize, kind: BroadcastKind) {
        let plan = ExecutionPlan::build(g, f).unwrap();
        let (g0, router) = (plan.graph(), plan.router());
        let participants: Vec<NodeId> = g0.nodes().collect();
        let faulty = BTreeSet::from([2]);
        let observer = 0;
        let nx = NetExec {
            model: nab_net::NetSpec {
                latency: nab_net::Latency::LogNormal {
                    median_ns: 2_000_000,
                    sigma: 0.4,
                },
                loss: Some(nab_net::Loss {
                    p: 0.25,
                    max_retries: 3,
                    rto_ns: 5_000_000,
                }),
                straggler: Some((0, 1, 8)),
            }
            .build(),
            seed: 0xD1FF,
        };
        let instance = 3;

        // Phases 1 and 2.1 of an instance the corruptor disputes.
        let input = Value::from_u64s(&(1..=12).collect::<Vec<_>>());
        let scheme = CodingScheme::random(g0, plan.rho0() as usize, 17);
        let mut adv = TruthfulCorruptor;
        let p1 = run_phase1(g0, 0, &input, plan.trees0(), &faulty, &mut adv);
        let eq = run_equality_phase_batched(g0, &[&p1.values], &scheme, &faulty, &mut [&mut adv])
            .pop()
            .unwrap();

        // Streamed.
        let mut timing = InstanceTiming::new(&nx, instance);
        let flags = flag_broadcast(
            router,
            &participants,
            f,
            &eq.flags,
            &faulty,
            &mut adv,
            kind,
            &mut timing.broadcast_phase(BroadcastPhase::Flags, router),
        );
        assert!(flags.any_mismatch(observer), "the instance must dispute");
        let claims = honest_claims(
            g0,
            0,
            &input,
            plan.trees0(),
            &scheme,
            &p1,
            &eq,
            &flags.announced,
        );
        let agreed = broadcast_claims(
            router,
            &participants,
            f,
            claims.clone(),
            kind,
            &mut timing.broadcast_phase(BroadcastPhase::Dispute, router),
        );
        let (times, delivered) = timing.finish();
        assert_eq!(times.flags, flags.duration, "the sink is the phase's clock");

        // Recorded, then replayed.
        let (logged, flag_rounds) = recorded(g0, |log| {
            flag_broadcast(
                router,
                &participants,
                f,
                &eq.flags,
                &faulty,
                &mut adv,
                kind,
                log,
            )
        });
        assert_eq!(logged.announced, flags.announced);
        let (logged, claim_rounds) = recorded(g0, |log| {
            broadcast_claims(router, &participants, f, claims, kind, log)
        });
        assert_eq!(logged, agreed);

        let seed = mix(nx.seed, instance);
        let mut retransmitted = false;
        for (name, rounds, tag, end, hist) in [
            ("flags", &flag_rounds, 0xF1, times.flags, &delivered.flags),
            (
                "dispute",
                &claim_rounds,
                0xD1,
                times.dispute,
                &delivered.dispute,
            ),
        ] {
            let mut want = Histogram::new();
            let want_end = replay_rounds(&nx, mix(seed, tag), g0, rounds, &mut want);
            assert_eq!(end, units(want_end), "{name}: phase end-time");
            assert_eq!(hist, &want, "{name}: delivered-time histogram");
            let sends: usize = rounds.iter().map(Vec::len).sum();
            assert_eq!(hist.count(), sends as u64, "{name}: one delivery per send");
            assert!(rounds.len() > participants.len(), "{name}: relays ran");
            retransmitted |= hist.max() > 5_000_000;
        }
        assert_eq!(
            delivered.kernel.deliveries,
            delivered.flags.count() + delivered.dispute.count()
        );
        assert!(retransmitted && delivered.kernel.retransmits > 0);
    }

    #[test]
    fn streamed_phases_match_the_transcript_replay_on_a_multi_hop_network() {
        for kind in [BroadcastKind::Eig, BroadcastKind::PhaseKing] {
            streamed_matches_replayed_transcript(gen::circulant(10, 2, 2), 1, kind);
        }
    }

    /// `complete:7` at `f = 2`: three EIG levels, so second-level relays.
    /// Phase-King needs `n > 4f` and falls back to EIG here, which is the
    /// engine's behaviour too.
    #[test]
    fn streamed_phases_match_the_transcript_replay_at_f2() {
        for kind in [BroadcastKind::Eig, BroadcastKind::PhaseKing] {
            streamed_matches_replayed_transcript(gen::complete(7, 2), 2, kind);
        }
    }
}
