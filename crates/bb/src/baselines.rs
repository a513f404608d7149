//! Capacity-oblivious baselines NAB is measured against (experiment E5).
//!
//! Section 1 of the paper: "When capacities of the different links are not
//! identical, previously proposed algorithms can perform poorly. In fact,
//! one can easily construct example networks in which previously proposed
//! algorithms achieve throughput that is arbitrarily worse than the optimal
//! throughput." The canonical prior algorithm broadcasts the whole `L`-bit
//! value through a classic BB protocol (EIG) over the emulated complete
//! graph, ignoring link capacities entirely — every logical message carries
//! all `L` bits regardless of how thin the links it crosses are. The
//! baseline is EIG's schedule ([`crate::eig::schedule`]) charged at
//! `bits = L`.

use std::collections::BTreeSet;

use nab_netgraph::{DiGraph, NodeId};
use nab_sim::{NetSim, SentMsg};

use crate::eig::{self, EigChannel};
use crate::router::{FormulaClock, HopChannel, HopRound, PathRouter, RoundSink, Routed};

/// An [`EigChannel`] that transports every logical unicast over `2f+1`
/// vertex-disjoint paths of the real network and charges the hop rounds to
/// a [`NetSim`]'s clock — and, when the simulator records, writes each
/// round's copies into its transcript ([`Recording`]). Tests, the oracle
/// replay and the benchmark harness's probes use it; the engine charges a
/// [`HopChannel`] instead and never builds a payload.
///
/// The transfer is evaluated on ground truth
/// ([`PathRouter::try_charge_unicast`]): relay corruption cannot defeat the
/// `2f+1` majority, so what arrives is what was sent — adversarial
/// *content* is injected a layer up, by the sender itself — and the cost is
/// the route's hop rounds.
///
/// Of `net` only the clock and the transcript are used (the route, not
/// `net`'s graph, decides links and capacities), and `faulty` feeds a
/// `debug_assert` alone. No caller in this workspace depends on either any
/// more; `benchmark/` builds the channel by struct literal, so the graph
/// dependence and the `faulty` field go in the benchmark-only PR that
/// ROADMAP pairs with this one.
pub struct RoutedChannel<'a, V> {
    /// The simulator whose clock (and transcript, if recording) the traffic
    /// is charged to; it must simulate the router's graph.
    pub net: &'a mut NetSim<Routed<V>>,
    /// Pre-built disjoint-path routing tables.
    pub router: &'a PathRouter,
    /// The faulty set: at most `f` nodes, so at most `f` of a unicast's
    /// `2f+1` copies cross a faulty relay.
    pub faulty: &'a BTreeSet<NodeId>,
}

/// The recording [`RoundSink`]: charges hop rounds to a [`NetSim`]'s clock
/// and, while the simulator records, writes each round into its transcript
/// with every copy carrying `value`. [`RoutedChannel`] makes one per
/// unicast; with a fixed `value` (say `&()`) it serves a whole phase.
pub struct Recording<'a, V> {
    /// The simulator to charge.
    pub net: &'a mut NetSim<Routed<V>>,
    /// What every recorded copy carries.
    pub value: &'a V,
}

impl<V: Clone> RoundSink for Recording<'_, V> {
    fn hop_round(&mut self, round: &HopRound<'_>) {
        let (origin, target, bits) = (round.origin, round.target, round.bits);
        self.net.charge_round(round.duration(), || {
            let sends = round
                .copies()
                .map(|(path_idx, src, dst)| SentMsg {
                    src,
                    dst,
                    bits,
                    payload: Routed {
                        origin,
                        target,
                        path_idx,
                        value: self.value.clone(),
                    },
                })
                .collect();
            (format!("route/{origin}->{target}/hop{}", round.hop), sends)
        });
    }

    fn elapsed(&self) -> f64 {
        self.net.clock()
    }
}

impl<V: Clone> EigChannel<V> for RoutedChannel<'_, V> {
    fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, value: &V) {
        debug_assert!(
            2 * self.faulty.len() < self.router.copies(),
            "ground-truth delivery needs a fault-free majority of copies"
        );
        let mut sink = Recording {
            net: &mut *self.net,
            value,
        };
        HopChannel {
            router: self.router,
            sink: &mut sink,
        }
        .unicast(from, to, bits, value);
    }
}

/// The formula clock plus a count of the bits the network carried.
#[derive(Debug, Default)]
struct BitCounter {
    clock: FormulaClock,
    bits: u64,
}

impl RoundSink for BitCounter {
    fn hop_round(&mut self, round: &HopRound<'_>) {
        self.clock.hop_round(round);
        self.bits += round.bits * round.copies().count() as u64;
    }

    fn elapsed(&self) -> f64 {
        self.clock.elapsed()
    }
}

/// Report from one baseline broadcast run.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Simulated wall-clock time for one `L`-bit broadcast.
    pub time: f64,
    /// Total bits carried by the network.
    pub bits_carried: u64,
}

/// Runs the capacity-oblivious baseline: one EIG broadcast of an `L`-bit
/// value over the emulated complete graph of `g`.
///
/// Returns `None` if `g` lacks the `2f+1` connectivity the emulation needs.
pub fn oblivious_full_value_broadcast(
    g: &DiGraph,
    source: NodeId,
    f: usize,
    l_bits: u64,
) -> Option<BaselineReport> {
    let router = PathRouter::build(g, f)?;
    Some(oblivious_broadcast_with_router(
        g, &router, source, f, l_bits,
    ))
}

/// [`oblivious_full_value_broadcast`] against a pre-built routing table —
/// the shared-setup entry point: callers that already realized a network
/// plan (e.g. the NAB planning layer, which owns a `2f+1`-disjoint-path
/// router per network) lend it here instead of paying the all-pairs
/// vertex-disjoint-path construction again per baseline run.
pub fn oblivious_broadcast_with_router(
    g: &DiGraph,
    router: &PathRouter,
    source: NodeId,
    f: usize,
    l_bits: u64,
) -> BaselineReport {
    let mut sink = BitCounter::default();
    let participants: Vec<NodeId> = g.nodes().collect();
    let mut chan = HopChannel {
        router,
        sink: &mut sink,
    };
    eig::schedule(&participants, source, f, |from, to| {
        chan.unicast(from, to, l_bits, &());
    });
    BaselineReport {
        time: sink.elapsed(),
        bits_carried: sink.bits,
    }
}

/// Throughput (bits per time unit) of the oblivious baseline on `g` in the
/// fault-free execution: `L / time(L)`. The per-instance EIG round
/// structure is independent of `L`, so this is also the large-`L` limit.
pub fn oblivious_throughput(g: &DiGraph, source: NodeId, f: usize, l_bits: u64) -> Option<f64> {
    let rep = oblivious_full_value_broadcast(g, source, f, l_bits)?;
    Some(l_bits as f64 / rep.time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    #[test]
    fn baseline_charges_time_and_bits() {
        let g = gen::complete(4, 1);
        let rep = oblivious_full_value_broadcast(&g, 0, 1, 64).unwrap();
        assert!(rep.time > 0.0);
        assert!(rep.bits_carried >= 64);
    }

    #[test]
    fn baseline_time_scales_linearly_in_l() {
        let g = gen::complete(4, 2);
        let t1 = oblivious_throughput(&g, 0, 1, 100).unwrap();
        let t2 = oblivious_throughput(&g, 0, 1, 10_000).unwrap();
        // Throughput is L-independent because every message carries L bits.
        assert!((t1 - t2).abs() / t1 < 1e-9, "t1={t1} t2={t2}");
    }

    #[test]
    fn baseline_ignores_fat_links() {
        // Upgrade one link to huge capacity: oblivious throughput barely
        // moves, because the protocol still pushes L bits over thin links.
        let g_thin = gen::complete(4, 1);
        let mut g_fat = gen::complete(4, 1);
        g_fat.remove_edges_between(0, 1);
        g_fat.add_edge(0, 1, 1000);
        g_fat.add_edge(1, 0, 1000);
        let t_thin = oblivious_throughput(&g_thin, 0, 1, 1000).unwrap();
        let t_fat = oblivious_throughput(&g_fat, 0, 1, 1000).unwrap();
        assert!(
            t_fat <= t_thin * 1.5,
            "oblivious baseline should not exploit the fat link: {t_thin} vs {t_fat}"
        );
    }

    #[test]
    fn insufficient_connectivity_yields_none() {
        let mut g = DiGraph::new(4);
        // A directed ring is only 1-connected.
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4, 1);
        }
        assert!(oblivious_full_value_broadcast(&g, 0, 1, 8).is_none());
    }

    #[test]
    fn borrowed_router_matches_private_router() {
        let g = gen::complete(4, 2);
        let router = PathRouter::build(&g, 1).unwrap();
        let via_shared = oblivious_broadcast_with_router(&g, &router, 0, 1, 64);
        let via_private = oblivious_full_value_broadcast(&g, 0, 1, 64).unwrap();
        assert_eq!(via_shared.time, via_private.time);
        assert_eq!(via_shared.bits_carried, via_private.bits_carried);
    }

    /// The sink-counted report against a recording simulator carrying the
    /// same broadcast: same clock to the bit, same bits on the wire.
    #[test]
    fn counted_bits_and_time_match_a_recorded_transcript() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let sparse = gen::random_k_connected(9, 3, 9, 0.2, &mut rng);
        for (g, f) in [(sparse, 1), (gen::complete(7, 3), 2)] {
            let router = PathRouter::build(&g, f).unwrap();
            let none = BTreeSet::new();
            let rep = oblivious_broadcast_with_router(&g, &router, 0, f, 96);
            let mut net: NetSim<Routed<u64>> = NetSim::new(g.clone());
            let participants: Vec<NodeId> = g.nodes().collect();
            let mut chan = RoutedChannel {
                net: &mut net,
                router: &router,
                faulty: &none,
            };
            eig::schedule(&participants, 0, f, |from, to| {
                chan.unicast(from, to, 96, &7u64)
            });
            assert_eq!(rep.time.to_bits(), net.clock().to_bits());
            assert_eq!(rep.bits_carried, net.transcript().total_bits());
        }
    }
}
