//! Complete-graph emulation: reliable unicast over `2f+1` vertex-disjoint
//! paths with receiver-side majority voting (Appendix D).
//!
//! With at most `f` faulty nodes and `2f + 1` internally-vertex-disjoint
//! paths between `u` and `v`, at most `f` path copies can be corrupted
//! (each faulty node lies on at most one path), so the majority copy is
//! always the sender's value. This turns any `2f+1`-connected network into
//! a virtual complete graph on which classic BB protocols run unchanged.
//!
//! [`PathRouter::build`] proves the precondition once and planning takes
//! that proof as its validation of the paper's connectivity assumption.
//! The proof is the pivot check of [`nab_netgraph::connectivity`]: a
//! separator of fewer than `2f + 1` nodes misses one of any `2f + 1` fixed
//! pivots, so it is enough that every pivot has `2f + 1` disjoint paths to
//! and from every other node — `2(2f+1)(n−1)` capped flows on two split
//! networks built once (lemma and proof in that module's docs). Paths are
//! then extracted per pair on first use (Menger's theorem says they
//! exist), all on one reused split network, into a per-source table that
//! later unicasts read without a lock.

use std::sync::{Mutex, OnceLock, PoisonError};

use nab_netgraph::connectivity::{strongly_connected, vertex_connectivity_at_least, PathExtractor};
use nab_netgraph::{DiGraph, EdgeId, NodeId};
use nab_sim::SendError;

use crate::eig::EigChannel;

/// Errors surfaced by the fallible routing entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The pair has no `2f+1` disjoint paths: `src == dst`, or a node was
    /// removed after [`PathRouter::build`] proved connectivity, or never
    /// existed.
    Unroutable {
        /// Requested source.
        src: NodeId,
        /// Requested destination.
        dst: NodeId,
    },
    /// A hop of an extracted path no longer exists in the simulator.
    Send(SendError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Unroutable { src, dst } => {
                write!(f, "no disjoint path system from {src} to {dst}")
            }
            RouterError::Send(e) => write!(f, "routed hop failed: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Send(e) => Some(e),
            RouterError::Unroutable { .. } => None,
        }
    }
}

impl From<SendError> for RouterError {
    fn from(e: SendError) -> Self {
        RouterError::Send(e)
    }
}

/// A pair's memoized route: its disjoint paths and, per hop round of one
/// unicast over them (round `h` forwards every copy whose path has an `h`-th
/// link), the links it crosses and the capacity that sets its duration.
#[derive(Debug)]
struct PairRoute {
    /// The `2f + 1` internally-vertex-disjoint paths, each `src, …, dst`.
    paths: Vec<Vec<NodeId>>,
    /// Per hop round, in delivery order: its thinnest link's capacity, and
    /// where its links end in `edges`. Each link of a round carries exactly
    /// one copy (a simple graph, internally vertex-disjoint paths), so the
    /// simulator's `max_e(bits_e / z_e)` is `bits` over the thinnest link.
    hops: Vec<(u64, usize)>,
    /// Hop-major: the router graph's ids of each round's links, path order.
    edges: Vec<EdgeId>,
}

/// One source's routes, indexed by target id.
type Row = Box<[OnceLock<PairRoute>]>;

/// `n` empty write-once cells.
fn slots<T>(n: usize) -> Box<[OnceLock<T>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Routes logical unicasts over vertex-disjoint path systems, computed
/// lazily per ordered pair.
///
/// [`PathRouter::build`] only proves the `2f+1`-connectivity precondition
/// (so path existence is guaranteed by Menger's theorem) and each pair's
/// route is extracted on first use into a dense table: one row per source,
/// allocated on the first route from it, one write-once cell per target. A
/// routed unicast reads its cell with no lock, map lookup or refcount; a
/// first use extracts on the router's one split network under a mutex. The
/// extraction is deterministic per pair, so lazy evaluation is invisible
/// to results regardless of which thread routes a pair first.
#[derive(Debug)]
pub struct PathRouter {
    g: DiGraph,
    /// The table (a slot per source id) and the extractor are made on the
    /// first route: a router that is only a connectivity proof — a plan
    /// nobody broadcasts on — allocates neither and stays small. (Slots
    /// allocated at build time, or the extractor held inline, each raised
    /// a planning-only run's peak RSS by ≈ 0.2–0.3 MB.)
    rows: OnceLock<Box<[OnceLock<Row>]>>,
    extractor: Mutex<Option<Box<PathExtractor>>>,
    copies: usize,
}

/// A payload in flight along one path: the logical value plus routing
/// metadata so receivers can group copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routed<V> {
    /// Logical sender.
    pub origin: NodeId,
    /// Logical receiver.
    pub target: NodeId,
    /// Index of the disjoint path carrying this copy.
    pub path_idx: usize,
    /// The value (possibly corrupted by a faulty relay).
    pub value: V,
}

/// One hop round of a routed unicast: every copy whose path has a
/// `hop`-th link crosses it, all copies at once. This is the unit every
/// timing consumer sees — a [`RoundSink`] is handed one per round, in the
/// order the rounds happen, and never anything larger.
#[derive(Debug, Clone, Copy)]
pub struct HopRound<'a> {
    /// Logical sender of the unicast.
    pub origin: NodeId,
    /// Logical receiver of the unicast.
    pub target: NodeId,
    /// Which link of each path this round crosses (0 = out of `origin`).
    pub hop: usize,
    /// Size of every copy.
    pub bits: u64,
    /// The thinnest capacity among the round's links.
    pub min_cap: u64,
    route: &'a PairRoute,
}

impl<'a> HopRound<'a> {
    /// The copies in flight this round as `(path index, src, dst)`, in path
    /// order. The paths are internally vertex-disjoint on a simple graph,
    /// so every copy has a link to itself.
    pub fn copies(&self) -> impl Iterator<Item = (usize, NodeId, NodeId)> + 'a {
        let hop = self.hop;
        self.route
            .paths
            .iter()
            .enumerate()
            .filter(move |(_, path)| hop + 1 < path.len())
            .map(move |(idx, path)| (idx, path[hop], path[hop + 1]))
    }

    /// The round's links as ids of [`PathRouter::graph`], one per copy, in
    /// the order of [`copies`](HopRound::copies).
    pub fn edges(&self) -> &'a [EdgeId] {
        let (hops, hop) = (&self.route.hops, self.hop);
        let start = hop.checked_sub(1).map_or(0, |h| hops[h].1);
        &self.route.edges[start..hops[hop].1]
    }

    /// The synchronous charge for the round, `max_e(bits_e / z_e)`: `bits`
    /// over the thinnest link (the same f64 the per-link maximum yields,
    /// division being monotone in the divisor).
    pub fn duration(&self) -> f64 {
        self.bits as f64 / self.min_cap as f64
    }
}

/// A consumer of hop rounds, and the clock they advance.
///
/// The paper's network is synchronous with zero propagation delay, so the
/// formula clock ([`FormulaClock`]) is the whole timing model by default;
/// a recording simulator and the message-level event kernel are the other
/// two implementations of the same primitive.
pub trait RoundSink {
    /// Charges one hop round. Rounds arrive in protocol order and are
    /// barrier-sequenced: a round starts when the previous one is over.
    fn hop_round(&mut self, round: &HopRound<'_>);

    /// Time charged so far, in capacity time-units.
    fn elapsed(&self) -> f64;
}

/// The synchronous formula clock: each round lasts [`HopRound::duration`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FormulaClock {
    time: f64,
}

impl RoundSink for FormulaClock {
    fn hop_round(&mut self, round: &HopRound<'_>) {
        self.time += round.duration();
    }

    fn elapsed(&self) -> f64 {
        self.time
    }
}

/// An [`EigChannel`] that transports every logical unicast over the
/// router's `2f+1` disjoint paths on ground truth and charges its hop
/// rounds to `sink`. Sizes only: the value is never looked at, because
/// relay corruption cannot defeat the majority vote — what arrives is what
/// was sent.
pub struct HopChannel<'a, S> {
    /// Pre-built disjoint-path routing tables.
    pub router: &'a PathRouter,
    /// Where the hop rounds go.
    pub sink: &'a mut S,
}

impl<V, S: RoundSink> EigChannel<V> for HopChannel<'_, S> {
    fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, _value: &V) {
        #[expect(
            clippy::expect_used,
            reason = "routing over the build-time graph cannot fail (Menger); a removed node is a caller bug"
        )]
        self.router
            .try_charge_unicast(self.sink, from, to, bits)
            .expect("routing over the build-time graph cannot fail");
    }
}

impl PathRouter {
    /// Prepares `2f + 1`-disjoint-path routing between every ordered pair
    /// of active nodes.
    ///
    /// Returns `None` if the graph's vertex connectivity is below `2f + 1`
    /// — i.e. the network violates the paper's connectivity assumption.
    /// When it holds, Menger's theorem guarantees every pair has the
    /// required paths, so they are extracted lazily on first use instead of
    /// eagerly for all `n(n−1)` pairs.
    pub fn build(g: &DiGraph, f: usize) -> Option<Self> {
        let copies = 2 * f + 1;
        let routable = if f == 0 {
            strongly_connected(g)
        } else {
            vertex_connectivity_at_least(g, copies as u64)
        };
        routable.then(|| PathRouter {
            g: g.clone(),
            rows: OnceLock::new(),
            extractor: Mutex::new(None),
            copies,
        })
    }

    /// The graph the router routes on, which hop rounds' edge ids index.
    pub fn graph(&self) -> &DiGraph {
        &self.g
    }

    /// Number of copies (`2f + 1`) each unicast travels on.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// How many pairs' path systems have been extracted so far — the
    /// planning work routing has done on first use. Every routed pair is
    /// extracted exactly once, so this is the number of distinct pairs
    /// routed, whichever threads routed them.
    pub fn routes_extracted(&self) -> u64 {
        let rows = self.rows.get().into_iter().flatten();
        rows.filter_map(OnceLock::get)
            .flat_map(|row| row.iter().filter(|cell| cell.get().is_some()))
            .count() as u64
    }

    /// The route of the ordered pair, extracting it on first use.
    fn route(&self, s: NodeId, t: NodeId) -> Result<&PairRoute, RouterError> {
        let row = self.rows.get().and_then(|rows| rows.get(s)?.get());
        match row.and_then(|row| row.get(t)?.get()) {
            Some(route) => Ok(route),
            None => self.extract(s, t),
        }
    }

    /// A route's first use: extracts the pair's paths on the shared split
    /// network and fills its cell. An inactive endpoint has no paths.
    #[cold]
    fn extract(&self, s: NodeId, t: NodeId) -> Result<&PairRoute, RouterError> {
        let n = self.g.node_count();
        if s == t || s >= n || t >= n {
            return Err(RouterError::Unroutable { src: s, dst: t });
        }
        let row = self.rows.get_or_init(|| slots(n))[s].get_or_init(|| slots(n));
        // Poison-tolerant: every extraction starts from a reset network,
        // so a panicked holder cannot leave state the next one reads.
        let mut extractor = self
            .extractor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Another thread may have extracted the pair while this one waited.
        if let Some(route) = row[t].get() {
            return Ok(route);
        }
        let paths = extractor
            .get_or_insert_with(|| Box::new(PathExtractor::new(&self.g)))
            .extract(s, t, self.copies)
            .ok_or(RouterError::Unroutable { src: s, dst: t })?;
        let max_hops = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
        let links = paths.iter().map(|p| p.len() - 1).sum();
        let (mut hops, mut edges) = (Vec::with_capacity(max_hops), Vec::with_capacity(links));
        for hop in 0..max_hops {
            let mut min_cap = u64::MAX;
            for link in paths.iter().filter_map(|p| p.get(hop..hop + 2)) {
                let (a, b) = (link[0], link[1]);
                let (id, e) =
                    (self.g.find_edge(a, b)).ok_or(SendError::NoSuchLink { src: a, dst: b })?;
                min_cap = min_cap.min(e.cap);
                edges.push(id);
            }
            hops.push((min_cap, edges.len()));
        }
        Ok(row[t].get_or_init(|| PairRoute { paths, hops, edges }))
    }

    /// The disjoint paths used for the ordered pair, computing and
    /// memoizing them on first use.
    ///
    /// Returns [`RouterError::Unroutable`] if the pair cannot be routed:
    /// `s == t`, an id outside the graph, or an inactive node. Otherwise
    /// routing cannot fail while the graph that passed
    /// [`PathRouter::build`] is intact, by Menger's theorem.
    pub fn try_paths_for(&self, s: NodeId, t: NodeId) -> Result<&[Vec<NodeId>], RouterError> {
        Ok(&self.route(s, t)?.paths)
    }

    /// Infallible convenience over [`PathRouter::try_paths_for`].
    ///
    /// # Panics
    ///
    /// Panics if the pair cannot be routed.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience; fallible callers use try_paths_for"
    )]
    pub fn paths_for(&self, s: NodeId, t: NodeId) -> &[Vec<NodeId>] {
        self.try_paths_for(s, t)
            .expect("connectivity was proven at build time")
    }

    /// Performs one reliable unicast of `bits` bits from `origin` to `target`
    /// on ground truth: links are reliable and at most `f` of the `2f + 1`
    /// disjoint copies cross a faulty relay, so what the receiver's majority
    /// vote yields is by construction what was sent, and what the transfer
    /// costs is a function of the pair's route and `bits` alone. Each hop
    /// round is handed to `sink` in delivery order; the formula clock adds
    /// the same f64s the message-level simulation does.
    ///
    /// Fails with [`RouterError::Unroutable`] exactly where
    /// [`PathRouter::try_paths_for`] does.
    pub fn try_charge_unicast<S: RoundSink>(
        &self,
        sink: &mut S,
        origin: NodeId,
        target: NodeId,
        bits: u64,
    ) -> Result<(), RouterError> {
        let route = self.route(origin, target)?;
        for (hop, &(min_cap, _)) in route.hops.iter().enumerate() {
            sink.hop_round(&HopRound {
                origin,
                target,
                hop,
                bits,
                min_cap,
                route,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::baselines::RoutedChannel;
    use nab_netgraph::gen;
    use nab_sim::NetSim;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The strict-majority element of a slice, if one exists.
    ///
    /// Runs the Boyer–Moore majority-vote scan (one candidate pass plus one
    /// verification pass, `O(n)` comparisons) instead of the naive quadratic
    /// count. The oracles vote with it: `eig::tests`' resolve over value ids,
    /// and the message-level unicast below.
    pub(crate) fn majority<V: Clone + Eq>(items: &[V]) -> Option<V> {
        let mut candidate: Option<&V> = None;
        let mut count = 0usize;
        for x in items {
            match candidate {
                Some(c) if c == x => count += 1,
                _ if count == 0 => {
                    candidate = Some(x);
                    count = 1;
                }
                _ => count -= 1,
            }
        }
        // Only a strict majority (not a mere plurality) wins; verify.
        let c = candidate?;
        if 2 * items.iter().filter(|x| *x == c).count() > items.len() {
            Some(c.clone())
        } else {
            None
        }
    }

    /// The message-level unicast that [`PathRouter::try_charge_unicast`]
    /// evaluates on ground truth, kept as its differential-test oracle: every
    /// copy really travels through the simulator's inboxes, faulty relays
    /// really corrupt, the receiver really votes.
    impl PathRouter {
        /// Performs one reliable unicast of `value` (`bits` wide) from `origin`
        /// to `target`, hop-by-hop through the simulator.
        ///
        /// `corrupt` is the Byzantine interposition hook: called whenever a
        /// *faulty relay* forwards a copy, it returns the (possibly altered)
        /// value to forward. Fault-free relays forward verbatim.
        ///
        /// Returns the majority value among delivered copies, or `None` if no
        /// strict majority exists (cannot happen when at most `f` of `2f+1`
        /// copies are corrupted). Fails with [`RouterError`] if the pair has no
        /// path system or a path hop lost its link — both impossible while the
        /// graph proven connected at build time is intact.
        #[expect(
            clippy::too_many_arguments,
            reason = "mirrors the paper's parameter list"
        )]
        pub(crate) fn try_unicast<V, FC>(
            &self,
            net: &mut NetSim<Routed<V>>,
            faulty: &BTreeSet<NodeId>,
            origin: NodeId,
            target: NodeId,
            bits: u64,
            value: V,
            corrupt: &mut FC,
        ) -> Result<Option<V>, RouterError>
        where
            V: Clone + Eq,
            FC: FnMut(NodeId, &V) -> V,
        {
            let paths = self.try_paths_for(origin, target)?;
            // Current position and carried value per copy.
            let mut carried: Vec<V> = vec![value.clone(); paths.len()];
            let max_hops = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
            for hop in 0..max_hops {
                for (idx, path) in paths.iter().enumerate() {
                    if hop + 1 >= path.len() {
                        continue;
                    }
                    let (a, b) = (path[hop], path[hop + 1]);
                    // A faulty relay (not the origin: origin equivocation is
                    // modeled a layer up) may corrupt the copy before
                    // forwarding.
                    if hop > 0 && faulty.contains(&a) {
                        carried[idx] = corrupt(a, &carried[idx]);
                    }
                    let msg = Routed {
                        origin,
                        target,
                        path_idx: idx,
                        value: carried[idx].clone(),
                    };
                    net.send(a, b, bits, msg)?;
                }
                net.deliver_round(&format!("route/{origin}->{target}/hop{hop}"));
            }
            // Collect the copies that arrived at the target.
            let inbox = net.take_inbox(target);
            let mut final_copies: Vec<V> = Vec::new();
            let mut leftovers = Vec::new();
            for (from, m) in inbox {
                if m.origin == origin && m.target == target {
                    // Only the last hop of each path terminates at target.
                    final_copies.push(m.value);
                } else {
                    leftovers.push((from, m));
                }
            }
            // Intermediate inboxes along paths were consumed implicitly: the
            // simulator delivers to inboxes, but relays in this router forward
            // from `carried`, so drain stale entries to keep inboxes clean.
            for v in net.graph().nodes().collect::<Vec<_>>() {
                if v != target {
                    let _ = net.take_inbox(v);
                }
            }
            for m in leftovers {
                // Copies addressed to other logical receivers should not occur
                // within a single unicast call.
                debug_assert!(false, "unexpected routed message {:?}", (m.0));
            }
            Ok(majority(&final_copies))
        }
    }

    #[test]
    fn majority_basic() {
        assert_eq!(majority(&[1, 1, 2]), Some(1));
        assert_eq!(majority(&[1, 2, 3]), None);
        assert_eq!(majority::<u64>(&[]), None);
        assert_eq!(majority(&[5]), Some(5));
    }

    #[test]
    fn build_requires_connectivity() {
        // K4 is 3-connected: f=1 works, f=2 does not.
        let g = gen::complete(4, 1);
        assert!(PathRouter::build(&g, 1).is_some());
        assert!(PathRouter::build(&g, 2).is_none());
    }

    #[test]
    fn unicast_delivers_without_faults() {
        let g = gen::complete(4, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let mut net = NetSim::new(g);
        let faulty = BTreeSet::new();
        let got = router
            .try_unicast(&mut net, &faulty, 0, 3, 1, 42u64, &mut |_, v| *v)
            .unwrap();
        assert_eq!(got, Some(42));
        assert!(net.clock() > 0.0, "routing must consume time");
    }

    #[test]
    fn unicast_survives_faulty_relay() {
        let g = gen::complete(4, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let mut net = NetSim::new(g);
        // Node 1 is faulty and flips every value it relays.
        let faulty = BTreeSet::from([1]);
        let got = router
            .try_unicast(&mut net, &faulty, 0, 3, 1, 42u64, &mut |_, _| 999)
            .unwrap();
        assert_eq!(
            got,
            Some(42),
            "majority over 3 disjoint paths beats 1 fault"
        );
    }

    #[test]
    fn unicast_survives_two_faulty_relays_with_f2() {
        let g = gen::complete(7, 1);
        let router = PathRouter::build(&g, 2).unwrap();
        let mut net = NetSim::new(g);
        let faulty = BTreeSet::from([2, 3]);
        let got = router
            .try_unicast(&mut net, &faulty, 0, 6, 1, 7u64, &mut |_, _| 0)
            .unwrap();
        assert_eq!(got, Some(7), "5 disjoint paths beat 2 faults");
    }

    /// A random `2f+1`-connected network with heterogeneous capacities:
    /// a sparse random one, a circulant with re-drawn capacities, or a
    /// heterogeneous complete graph.
    fn random_network(family: u8, n: usize, f: usize, rng: &mut StdRng) -> DiGraph {
        match family % 3 {
            0 => gen::random_k_connected(n, 2 * f + 1, 9, 0.2, rng),
            1 => {
                let mut g = gen::circulant(n, f + 1, 1);
                let ids: Vec<_> = g.edges().map(|(id, _)| id).collect();
                for id in ids {
                    g.set_edge_cap(id, rng.gen_range(1..=12));
                }
                g
            }
            _ => gen::complete_heterogeneous(n, 1, 7, rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The schedule-driven channel against the message-level oracle,
        /// over recording simulators: same delivered value, same clock to
        /// the bit (the recording sink's and the bare formula clock's),
        /// same `(src, dst, bits)` rounds — with up to `f` faulty relays
        /// corrupting every copy they forward in the oracle.
        #[test]
        fn charged_unicast_matches_message_level_oracle(
            family in 0u8..3,
            f in 0usize..=2,
            extra in 0usize..4,
            seed in any::<u64>(),
        ) {
            let n = 3 * f + 3 + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_network(family, n, f, &mut rng);
            let router = PathRouter::build(&g, f).expect("2f+1-connected by construction");
            let mut faulty = BTreeSet::new();
            for _ in 0..rng.gen_range(0..=f) {
                faulty.insert(rng.gen_range(0..n));
            }
            let mut charged: NetSim<Routed<u64>> = NetSim::new(g.clone());
            let mut oracle: NetSim<Routed<u64>> = NetSim::new(g.clone());
            let mut formula = FormulaClock::default();
            for _ in 0..12 {
                let origin = rng.gen_range(0..n);
                let target = (origin + rng.gen_range(1..n)) % n;
                let bits = rng.gen_range(1..=4096u64);
                let value: u64 = rng.gen();
                RoutedChannel { net: &mut charged, router: &router, faulty: &faulty }
                    .unicast(origin, target, bits, &value);
                HopChannel { router: &router, sink: &mut formula }
                    .unicast(origin, target, bits, &value);
                let want = router
                    .try_unicast(&mut oracle, &faulty, origin, target, bits, value, &mut |relay, v| {
                        v ^ (relay as u64 + 1)
                    })
                    .unwrap();
                // The channel delivers what was sent; so must the vote.
                prop_assert_eq!(want, Some(value));
                prop_assert_eq!(charged.clock().to_bits(), oracle.clock().to_bits());
                prop_assert_eq!(formula.elapsed().to_bits(), oracle.clock().to_bits());
            }
            let rounds = |net: &NetSim<Routed<u64>>| -> Vec<_> {
                net.transcript()
                    .rounds
                    .iter()
                    .map(|r| {
                        let sends: Vec<_> = r
                            .sends
                            .iter()
                            .map(|m| (m.src, m.dst, m.bits, m.payload.path_idx))
                            .collect();
                        (r.label.clone(), r.duration.to_bits(), sends)
                    })
                    .collect()
            };
            prop_assert_eq!(rounds(&charged), rounds(&oracle));
        }
    }

    /// A sink that checks each hop round's edge ids against its copies:
    /// through the router's graph, `edges()` names exactly the links
    /// `copies()` does, in order.
    struct EdgeCheck<'a> {
        g: &'a DiGraph,
        rounds: usize,
    }

    impl RoundSink for EdgeCheck<'_> {
        fn hop_round(&mut self, round: &HopRound<'_>) {
            let by_id: Vec<_> = (round.edges().iter())
                .map(|&id| self.g.edge(id).map(|e| (e.src, e.dst)))
                .collect();
            let by_path: Vec<_> = round.copies().map(|(_, a, b)| Some((a, b))).collect();
            assert_eq!(
                by_id, by_path,
                "{} -> {} hop {}",
                round.origin, round.target, round.hop
            );
            self.rounds += 1;
        }

        fn elapsed(&self) -> f64 {
            0.0
        }
    }

    /// Charges one unicast between every ordered pair of the router's
    /// graph to an [`EdgeCheck`]; returns the rounds checked.
    fn check_every_pairs_edges(router: &PathRouter) -> usize {
        let mut check = EdgeCheck {
            g: router.graph(),
            rounds: 0,
        };
        for (s, t) in all_pairs(router.graph()) {
            router.try_charge_unicast(&mut check, s, t, 1).unwrap();
        }
        check.rounds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every hop round of every ordered pair, on each family at `f ≤ 2`.
        #[test]
        fn hop_round_edges_are_its_copies_links(
            family in 0u8..3,
            f in 0usize..=2,
            extra in 0usize..4,
            seed in any::<u64>(),
        ) {
            let n = 3 * f + 3 + extra;
            let g = random_network(family, n, f, &mut StdRng::seed_from_u64(seed));
            let router = PathRouter::build(&g, f).expect("2f+1-connected by construction");
            prop_assert!(check_every_pairs_edges(&router) >= n * (n - 1));
        }
    }

    #[test]
    fn recorded_copies_carry_the_value_and_skip_inboxes() {
        let g = gen::complete(4, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let mut net: NetSim<Routed<String>> = NetSim::new(g);
        let faulty = BTreeSet::new();
        RoutedChannel {
            net: &mut net,
            router: &router,
            faulty: &faulty,
        }
        .unicast(0, 3, 5, &"v".to_string());
        let sends: Vec<_> = net
            .transcript()
            .rounds
            .iter()
            .flat_map(|r| &r.sends)
            .collect();
        assert_eq!(sends.len(), 5, "one direct copy, two two-hop copies");
        assert!(sends.iter().all(|m| m.payload.value == "v" && m.bits == 5));
        assert!(g_nodes(&net).all(|v| net.inbox(v).is_empty()));
    }

    fn g_nodes<M: Clone>(net: &NetSim<M>) -> impl Iterator<Item = NodeId> + '_ {
        net.graph().nodes()
    }

    #[test]
    fn paths_are_internally_disjoint() {
        let g = gen::complete(5, 1);
        let router = PathRouter::build(&g, 1).unwrap();
        let paths = router.paths_for(0, 4);
        assert_eq!(paths.len(), 3);
        // A second lookup reads the memoized route.
        assert!(std::ptr::eq(paths, router.paths_for(0, 4)));
        assert_eq!(router.routes_extracted(), 1);
        #[expect(
            clippy::disallowed_types,
            reason = "a membership oracle; never iterated"
        )]
        let mut internal = std::collections::HashSet::new();
        for p in paths.iter() {
            for &v in &p[1..p.len() - 1] {
                assert!(internal.insert(v));
            }
        }
    }

    #[test]
    fn unroutable_pairs_are_errors_not_panics() {
        let mut g = gen::complete(5, 1);
        let full = PathRouter::build(&g, 1).unwrap();
        g.remove_node(3);
        let punctured = PathRouter::build(&g, 1).unwrap();
        for (router, s, t) in [
            (&full, 0, 0),
            (&full, 0, 9),
            (&full, 9, 0),
            (&punctured, 0, 3),
        ] {
            let unroutable = Some(RouterError::Unroutable { src: s, dst: t });
            assert_eq!(router.try_paths_for(s, t).err(), unroutable);
            let mut clock = FormulaClock::default();
            let charged = router.try_charge_unicast(&mut clock, s, t, 8);
            assert_eq!(charged.err(), unroutable);
            assert_eq!(clock.elapsed(), 0.0, "nothing charged");
        }
        assert_eq!(punctured.paths_for(0, 4).len(), 3);
        assert_eq!(full.routes_extracted() + punctured.routes_extracted(), 1);
        // The removed node's links keep their ids, so the live ones are not
        // dense: the rounds must still name the links their copies cross.
        assert!(check_every_pairs_edges(&punctured) >= 12);
    }

    /// Every ordered pair of `g`'s active nodes.
    fn all_pairs(g: &DiGraph) -> Vec<(NodeId, NodeId)> {
        g.nodes()
            .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
            .collect()
    }

    #[test]
    fn racing_first_uses_build_the_routes_one_thread_builds() {
        let mut rng = StdRng::seed_from_u64(11);
        for (g, f) in [
            (gen::random_k_connected(12, 3, 9, 0.2, &mut rng), 1),
            (gen::complete_heterogeneous(8, 1, 7, &mut rng), 2),
        ] {
            let pairs = all_pairs(&g);
            let alone = PathRouter::build(&g, f).unwrap();
            let raced = PathRouter::build(&g, f).unwrap();
            let start = std::sync::Barrier::new(2);
            let route_all = |order: &mut dyn Iterator<Item = &(NodeId, NodeId)>| {
                start.wait();
                for &(s, t) in order {
                    raced.paths_for(s, t);
                }
            };
            std::thread::scope(|scope| {
                scope.spawn(|| route_all(&mut pairs.iter()));
                scope.spawn(|| route_all(&mut pairs.iter().rev()));
            });
            for &(s, t) in &pairs {
                assert_eq!(raced.paths_for(s, t), alone.paths_for(s, t), "{s} -> {t}");
            }
            assert_eq!(raced.routes_extracted(), pairs.len() as u64);
        }
    }

    #[test]
    fn a_route_allocates_its_source_row_only() {
        let g = gen::circulant(1024, 2, 1);
        let router = PathRouter::build(&g, 0).unwrap();
        assert_eq!(router.routes_extracted(), 0);
        assert_eq!(router.paths_for(5, 700).len(), 1);
        let rows = router.rows.get().unwrap().iter();
        assert_eq!(rows.filter(|row| row.get().is_some()).count(), 1);
        assert_eq!(router.routes_extracted(), 1);
    }
}
