//! Message-level execution: replays the phases' exact send sets through
//! the `nab-net` discrete-event kernel, producing latency-aware phase
//! durations and per-phase delivered-time distributions.
//!
//! The protocol logic itself is untouched — outputs, flags, disputes,
//! and `G_k` evolution come from the synchronous path as always; this
//! layer re-times the *same messages* under a [`nab_net::NetModel`]
//! (latency, jitter, loss with bounded retransmit). The paper's protocol is
//! synchronous, so phases and broadcast rounds are barrier-sequenced:
//! a phase (or BB round) begins when the previous one has fully
//! completed everywhere, and *within* it messages flow through FIFO
//! link serialization plus sampled propagation delay. Under the zero
//! model (zero latency, lossless) every phase duration collapses to the
//! synchronous formula charge — pinned by the cross-check test below.

use std::collections::BTreeMap;

use nab_net::{mix, EventNet, UNIT_NS};
use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::{DiGraph, NodeId};
use nab_obs::metrics::Histogram;
use nab_sim::Transcript;

use crate::engine::PhaseTimes;
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
/// the whole-instance completion time). Merging is commutative, so
/// per-job aggregation is thread-order invariant.
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
}

impl Default for DeliveredTimes {
    fn default() -> Self {
        DeliveredTimes {
            phase1: Histogram::new(),
            equality: Histogram::new(),
            flags: Histogram::new(),
            dispute: Histogram::new(),
            instance: Histogram::new(),
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

/// Flattens a recorded transcript into per-round send lists
/// `(src, dst, bits)` for replay.
pub(crate) fn transcript_rounds<M>(t: &Transcript<M>) -> Vec<Vec<(NodeId, NodeId, u64)>> {
    t.rounds
        .iter()
        .map(|r| r.sends.iter().map(|s| (s.src, s.dst, s.bits)).collect())
        .collect()
}

/// Everything the replay needs from one executed instance. Send sets
/// are the *actual* transmissions (adversarial corruption included —
/// corrupted blocks have the same sizes, so timing sees the same load).
pub(crate) struct ReplayInput<'a> {
    /// `G_k` the streaming phases ran on.
    pub gk: &'a DiGraph,
    /// The original network the BB phases route over.
    pub g0: &'a DiGraph,
    /// The arborescences of Phase 1 (for tail-arrival causality).
    pub trees: &'a [Arborescence],
    /// Phase-1 blocks per `(tree, src, dst)`.
    pub p1_sends: &'a BTreeMap<(usize, NodeId, NodeId), crate::phase1::Block>,
    /// The equality check's outcome; `None` when the phase did not run.
    pub eq: Option<&'a EqOutcome>,
    /// Flag-broadcast rounds (from the `NetSim` transcript).
    pub flag_rounds: &'a [Vec<(NodeId, NodeId, u64)>],
    /// Dispute claim-broadcast rounds; empty when no dispute ran.
    pub dispute_rounds: &'a [Vec<(NodeId, NodeId, u64)>],
}

/// Replays one instance's messages through the event kernel, returning
/// latency-aware [`PhaseTimes`] (in the formula path's time units) and
/// the delivered-time distributions.
pub(crate) fn replay_instance(
    nx: &NetExec,
    instance: u64,
    inp: &ReplayInput<'_>,
) -> (PhaseTimes, DeliveredTimes) {
    let seed = mix(nx.seed, instance);
    let mut delivered = DeliveredTimes::default();

    let p1_end = replay_phase1(nx, mix(seed, 0xF1A5E1), inp, &mut delivered.phase1);
    let eq_end = match inp.eq {
        Some(eq) => {
            let round: Vec<(NodeId, NodeId, u64)> = eq.link_bits().collect();
            replay_rounds(
                nx,
                mix(seed, 0xE0),
                inp.gk,
                std::slice::from_ref(&round),
                &mut delivered.equality,
            )
        }
        None => 0,
    };
    let flags_end = replay_rounds(
        nx,
        mix(seed, 0xF1),
        inp.g0,
        inp.flag_rounds,
        &mut delivered.flags,
    );
    let dispute_end = replay_rounds(
        nx,
        mix(seed, 0xD1),
        inp.g0,
        inp.dispute_rounds,
        &mut delivered.dispute,
    );

    delivered
        .instance
        .record(p1_end + eq_end + flags_end + dispute_end);
    let units = |ns: u64| ns as f64 / UNIT_NS as f64;
    (
        PhaseTimes {
            phase1: units(p1_end),
            equality: units(eq_end),
            flags: units(flags_end),
            dispute: units(dispute_end),
        },
        delivered,
    )
}

/// Replays Phase 1's streamed blocks. All tree edges transmit
/// concurrently (the paper's cut-through streaming model); a node's
/// block on tree `t` counts as delivered no earlier than its parent's
/// (the tail of a stream cannot overtake the stream), which is how
/// per-hop latency accumulates down each arborescence.
fn replay_phase1(nx: &NetExec, seed: u64, inp: &ReplayInput<'_>, hist: &mut Histogram) -> u64 {
    if inp.p1_sends.is_empty() {
        return 0;
    }
    let mut net = EventNet::new(inp.gk, nx.model.clone(), seed);
    for (&(t, src, dst), block) in inp.p1_sends {
        net.schedule(t as u64, src, dst, block.len() as u64 * SYMBOL_BITS, 0);
    }
    let mut by_edge: BTreeMap<(u64, NodeId, NodeId), u64> = BTreeMap::new();
    for d in net.run() {
        by_edge.insert((d.id, d.src, d.dst), d.delivered_ns);
    }
    let mut end = 0;
    for (t, tree) in inp.trees.iter().enumerate() {
        let mut done: BTreeMap<NodeId, u64> = BTreeMap::new();
        for u in tree.bfs_order() {
            let du = done.get(&u).copied().unwrap_or(0);
            for child in tree.children(u) {
                let arrived = by_edge
                    .get(&(t as u64, u, child))
                    .copied()
                    .unwrap_or(du)
                    .max(du);
                done.insert(child, arrived);
                hist.record(arrived);
                end = end.max(arrived);
            }
        }
    }
    end
}

/// Replays a sequence of barrier-synchronized rounds on `g`, recording
/// every delivery (offset to the phase start) and returning the phase's
/// completion time.
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
