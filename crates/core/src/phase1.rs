//! Phase 1: unreliable broadcast over spanning arborescences (Appendix A).
//!
//! The `L`-bit input splits into `γ_k` blocks, one streamed down each
//! capacity-respecting spanning arborescence of `G_k`. No fault tolerance
//! is attempted: a faulty relay can corrupt everything downstream of it on
//! its tree. With zero propagation delay the whole phase takes `L/γ_k`
//! time — each link `e` carries `(uses of e) · L/γ_k ≤ z_e · L/γ_k` bits.
//!
//! The routes depend on `G_k` alone: a [`RouteTable`] lays them out once
//! per `G_k` ([`crate::plan::Gk`] holds it) and every instance walks it.
//! When no faulty node sends on any tree, every node holds the input — the
//! very allocation — and nothing is split, copied or recorded. Otherwise
//! the walk asks the adversary for each faulty sender's block in (tree,
//! BFS) order and records only those blocks and the values below them;
//! [`Phase1Output::sends`] rebuilds the send map from them on request.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nab_gf::Gf2_16;
use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::{DiGraph, EdgeId, NodeId};

use crate::adversary::NabAdversary;
use crate::value::{Value, SYMBOL_BITS};

/// A Phase-1 block as carried by the network. Honest relays forward the
/// block they received unchanged, so only faulty senders materialize new
/// blocks. A node holding the source's own block on every tree holds the
/// input and shares the input's [`Value`] storage; only a node below a
/// faulty sender gets a value of its own.
pub type Block = Arc<Vec<Gf2_16>>;

/// One tree edge of a [`RouteTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The arborescence the edge belongs to.
    pub tree: usize,
    /// The sending end.
    pub parent: NodeId,
    /// The receiving end.
    pub child: NodeId,
    /// The id of the link `parent → child` in `G_k`.
    pub edge: EdgeId,
}

/// Phase 1's routes on one `G_k`: every tree's edges in BFS order, tree
/// after tree, in one flat array, plus which nodes send on some tree.
#[derive(Debug, Clone)]
pub struct RouteTable {
    routes: Vec<Route>,
    trees: usize,
    /// Whether each node id sends on some tree.
    senders: Vec<bool>,
    /// Capacity of each link a route uses, by edge id (0 for the others).
    caps: Vec<u64>,
    /// The active nodes of `G_k`.
    nodes: Vec<NodeId>,
    /// Whether every tree reaches every active node.
    spans: bool,
}

impl RouteTable {
    /// Lays out `trees`' edges on `gk`.
    ///
    /// # Panics
    ///
    /// Panics if a tree edge is missing from `gk`.
    pub fn new(gk: &DiGraph, trees: &[Arborescence]) -> RouteTable {
        let nodes: Vec<NodeId> = gk.nodes().collect();
        let (mut routes, mut caps, mut senders) =
            (Vec::new(), Vec::new(), vec![false; gk.node_count()]);
        let mut spans = !trees.is_empty() || nodes.len() <= 1;
        for (tree, arborescence) in trees.iter().enumerate() {
            let edges = arborescence.bfs_edges();
            spans &= edges.len() + 1 == nodes.len();
            for (parent, child) in edges {
                #[expect(
                    clippy::expect_used,
                    reason = "packed trees only use edges of G_k by construction"
                )]
                let (edge, e) = gk
                    .find_edge(parent, child)
                    .expect("tree edges exist in G_k");
                caps.resize(caps.len().max(edge + 1), 0);
                caps[edge] = e.cap;
                senders[parent] = true;
                routes.push(Route {
                    tree,
                    parent,
                    child,
                    edge,
                });
            }
        }
        let trees = trees.len();
        RouteTable {
            routes,
            trees,
            senders,
            caps,
            nodes,
            spans,
        }
    }

    /// Every route, tree after tree, each tree's in BFS order: parents
    /// before their children.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// How many trees the routes run on.
    pub(crate) fn tree_count(&self) -> usize {
        self.trees
    }

    /// One past the largest node id of `G_k`.
    pub(crate) fn node_bound(&self) -> usize {
        self.senders.len()
    }

    /// Symbols of tree `t`'s block of an `s`-symbol input (the sizes
    /// [`Value::split_blocks`] cuts).
    fn block_len(&self, s: usize, t: usize) -> usize {
        let parts = self.trees.max(1);
        s / parts + usize::from(t < s % parts)
    }

    /// The phase's duration when the routes carry `lens` symbols each. All
    /// transmissions happen concurrently (zero propagation delay), so the
    /// phase lasts as long as its busiest link — `max_e(bits_e / z_e)`
    /// with per-link bit totals, exactly the round charge
    /// `NetSim::deliver_round` computes.
    fn duration(&self, lens: impl Iterator<Item = usize>) -> f64 {
        let mut bits = vec![0u64; self.caps.len()];
        for (r, len) in self.routes.iter().zip(lens) {
            bits[r.edge] += len as u64 * SYMBOL_BITS;
        }
        let loaded = bits.iter().zip(&self.caps).filter(|&(&b, _)| b > 0);
        loaded.fold(0.0, |d, (&b, &cap)| d.max(b as f64 / cap as f64))
    }

    /// Walks the routes in order, handing `visit` each one's payload:
    /// `own(i, route, received)` if that returns one (a faulty sender's
    /// block), else what the route's parent holds — `honest(t)` at the
    /// source of tree `t`.
    fn walk<B: Clone + Default>(
        &self,
        source: NodeId,
        honest: impl Fn(usize) -> B,
        mut own: impl FnMut(usize, &Route, &B) -> Option<B>,
        mut visit: impl FnMut(&Route, &B),
    ) {
        // One slot per node serves every tree: a parent other than the
        // source is written earlier in its own tree's BFS order.
        let mut held = vec![B::default(); self.senders.len()];
        for (i, r) in self.routes.iter().enumerate() {
            let received = if r.parent == source {
                honest(r.tree)
            } else {
                held[r.parent].clone()
            };
            let payload = own(i, r, &received).unwrap_or(received);
            visit(r, &payload);
            held[r.child] = payload;
        }
    }
}

/// Ground truth of one Phase-1 execution.
#[derive(Debug, Clone)]
pub struct Phase1Output {
    /// The value each active node holds at the end of the phase (the
    /// source holds its input).
    pub values: BTreeMap<NodeId, Value>,
    /// Wall-clock duration charged (`≈ L/γ_k`).
    pub duration: f64,
    routes: Arc<RouteTable>,
    source: NodeId,
    input: Value,
    /// The blocks faulty senders put on a route, by route index, ascending.
    substituted: Vec<(usize, Block)>,
}

impl Phase1Output {
    /// The routes the phase ran on.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Every block actually transmitted: `(tree, src, dst) → block`, the
    /// network's ground truth — each receiver's local view equals the
    /// sender's transmission because links are reliable. Built on each
    /// call from the routes, the input and the recorded substitutions.
    pub fn sends(&self) -> BTreeMap<(usize, NodeId, NodeId), Block> {
        let honest = split(&self.input, self.routes.trees);
        let mut sends = BTreeMap::new();
        self.replay(
            |t| Arc::clone(&honest[t]),
            Arc::clone,
            |r, block| {
                sends.insert((r.tree, r.parent, r.child), Arc::clone(block));
            },
        );
        sends
    }

    /// The symbols each route carried, in [`RouteTable::routes`] order.
    pub(crate) fn send_lens(&self) -> Vec<usize> {
        let (mut lens, s) = (
            Vec::with_capacity(self.routes.routes.len()),
            self.input.len(),
        );
        self.replay(
            |t| self.routes.block_len(s, t),
            |b| b.len(),
            |_, &len| lens.push(len),
        );
        lens
    }

    /// [`RouteTable::walk`] with the recorded substitutions.
    fn replay<B: Clone + Default>(
        &self,
        honest: impl Fn(usize) -> B,
        own: impl Fn(&Block) -> B,
        visit: impl FnMut(&Route, &B),
    ) {
        let mut substituted = self.substituted.iter().peekable();
        let mut recorded = |i: usize, _: &Route, _: &B| {
            substituted.next_if(|(at, _)| *at == i).map(|(_, b)| own(b))
        };
        self.routes.walk(self.source, honest, &mut recorded, visit);
    }
}

/// `input`'s blocks, one per tree (one for no tree).
fn split(input: &Value, trees: usize) -> Vec<Block> {
    let blocks = input.split_blocks(trees.max(1));
    blocks.into_iter().map(Arc::new).collect()
}

/// Runs Phase 1 on `gk` over `trees`: lays out a [`RouteTable`] and runs
/// [`run_routes`] on it.
///
/// # Panics
///
/// Panics if `source` is inactive in `gk` or a tree edge is missing from
/// `gk`.
pub fn run_phase1(
    gk: &DiGraph,
    source: NodeId,
    input: &Value,
    trees: &[Arborescence],
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
) -> Phase1Output {
    assert!(gk.is_active(source), "source must be active in G_k");
    let routes = Arc::new(RouteTable::new(gk, trees));
    run_routes(&routes, source, input, faulty, adv)
}

/// Runs Phase 1 over `routes`.
///
/// Faulty nodes (including a faulty source) choose their transmissions via
/// `adv`, hook by hook in route order; fault-free nodes follow the
/// protocol.
pub fn run_routes(
    routes: &Arc<RouteTable>,
    source: NodeId,
    input: &Value,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
) -> Phase1Output {
    let (s, mut substituted, mut values) = (input.len(), Vec::new(), BTreeMap::new());
    let duration = if routes.spans && !faulty.iter().any(|&v| routes.senders.get(v) == Some(&true))
    {
        values = routes.nodes.iter().map(|&v| (v, input.clone())).collect();
        routes.duration(routes.routes.iter().map(|r| routes.block_len(s, r.tree)))
    } else {
        // Each tree's block at each node, `tree · node_bound + node`.
        let (honest, n) = (split(input, routes.trees), routes.node_bound());
        let (mut held, mut lens) = (vec![None; routes.trees * n], Vec::new());
        let own = |i: usize, r: &Route, received: &Block| {
            let (t, u) = (r.tree, r.parent);
            faulty.contains(&u).then(|| {
                let block = Arc::new(if u == source {
                    adv.phase1_source_block(t, r.child, received)
                } else {
                    adv.phase1_forward(u, t, r.child, received)
                });
                substituted.push((i, Arc::clone(&block)));
                block
            })
        };
        routes.walk(
            source,
            |t| Arc::clone(&honest[t]),
            own,
            |r, payload: &Block| {
                lens.push(payload.len());
                held[r.tree * n + r.child] = Some(Arc::clone(payload));
            },
        );
        // A node that holds the source's blocks — the very allocations,
        // not a copy — holds the input; any other node joins what it holds.
        for &v in &routes.nodes {
            let block = |t: usize| held[t * n + v].as_ref();
            let intact = routes.trees > 0
                && (0..routes.trees).all(|t| block(t).is_some_and(|b| Arc::ptr_eq(b, &honest[t])));
            let value = if v == source || intact {
                input.clone()
            } else {
                let symbols = (0..routes.trees)
                    .filter_map(block)
                    .flat_map(|b| b.iter().copied());
                Value::from_symbols(symbols.collect())
            };
            values.insert(v, value);
        }
        routes.duration(lens.into_iter())
    };
    let (routes, input) = (Arc::clone(routes), input.clone());
    Phase1Output {
        values,
        duration,
        routes,
        source,
        input,
        substituted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{EquivocatingSource, HonestStrategy, TruthfulCorruptor};
    use nab_gf::field::Field;
    use nab_netgraph::arborescence::pack_arborescences;
    use nab_netgraph::flow::broadcast_rate;
    use nab_netgraph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(g: &DiGraph) -> (Vec<Arborescence>, Value) {
        let gamma = broadcast_rate(g, 0);
        let trees = pack_arborescences(g, 0, gamma).unwrap();
        let input = Value::from_u64s(&[11, 22, 33, 44, 55, 66]);
        (trees, input)
    }

    #[test]
    fn fault_free_run_delivers_input_everywhere() {
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        for v in g.nodes() {
            assert_eq!(out.values[&v], input, "node {v} got wrong value");
            let storage = out.values[&v].symbols().as_ptr();
            assert_eq!(storage, input.symbols().as_ptr(), "node {v} copied");
        }
    }

    #[test]
    fn duration_is_l_over_gamma() {
        // figure_2a: γ=2, S=6 symbols → L=96 bits → L/γ = 48 time units.
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        assert!(
            (out.duration - 48.0).abs() < 1e-9,
            "duration {}",
            out.duration
        );
    }

    #[test]
    fn corrupt_relay_poisons_its_subtree_only() {
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let faulty = BTreeSet::from([1]);
        let out = run_phase1(&g, 0, &input, &trees, &faulty, &mut TruthfulCorruptor);
        // Node 1 corrupts everything it forwards; some downstream node must
        // end up with a value differing from the input.
        let poisoned = g.nodes().filter(|&v| out.values[&v] != input).count();
        assert!(poisoned > 0, "corruption must reach someone");
        // The source always holds its own input.
        assert_eq!(out.values[&0], input);
        // Node 1's subtrees, node 1 excluded: it received honest blocks.
        let mut below = BTreeSet::new();
        for tree in &trees {
            let mut reached = BTreeSet::from([1]);
            for (u, child) in tree.bfs_edges() {
                if reached.contains(&u) {
                    reached.insert(child);
                    below.insert(child);
                }
            }
        }
        for v in g.nodes() {
            let shares = out.values[&v].symbols().as_ptr() == input.symbols().as_ptr();
            assert_eq!(shares, !below.contains(&v), "node {v}");
            if out.values[&v] != input {
                assert!(!shares, "node {v} differs, so it cannot share");
            }
        }
    }

    #[test]
    fn equivocating_source_creates_disagreement() {
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let faulty = BTreeSet::from([0]);
        let out = run_phase1(&g, 0, &input, &trees, &faulty, &mut EquivocatingSource);
        #[expect(
            clippy::disallowed_types,
            reason = "counts distinct values; `Value` is not `Ord`, and the set is never iterated"
        )]
        let distinct: std::collections::HashSet<_> = g
            .nodes()
            .filter(|&v| v != 0)
            .map(|v| out.values[&v].clone())
            .collect();
        // Tree 0 is corrupted, so at least one non-source node differs from
        // the honest input.
        assert!(
            g.nodes()
                .filter(|&v| v != 0)
                .any(|v| out.values[&v] != input),
            "equivocation must corrupt someone: {distinct:?}"
        );
    }

    #[test]
    fn sends_ground_truth_covers_every_tree_edge() {
        let g = gen::complete(4, 1);
        let (trees, input) = setup(&g);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let expected: usize = trees.iter().map(|t| t.edges.len()).sum();
        assert_eq!(out.sends().len(), expected);
    }

    #[test]
    fn single_tree_graph() {
        // A directed path has γ=1.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        let trees = pack_arborescences(&g, 0, 1).unwrap();
        let input = Value::from_u64s(&[1, 2, 3]);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        assert_eq!(out.values[&2], input);
        // 48 bits over unit links: 48 time units on each of 2 links, in
        // parallel → 48.
        assert!((out.duration - 48.0).abs() < 1e-9);
    }

    /// The eager Phase 1 the route table replaced, kept as the oracle:
    /// splits the input, walks each tree's `bfs_edges`, records every send
    /// and charges every link by its edge id.
    struct Eager {
        values: BTreeMap<NodeId, Value>,
        sends: BTreeMap<(usize, NodeId, NodeId), Block>,
        duration: f64,
    }

    fn eager_phase1(
        gk: &DiGraph,
        source: NodeId,
        input: &Value,
        trees: &[Arborescence],
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
    ) -> Eager {
        let honest_blocks: Vec<Block> = input
            .split_blocks(trees.len().max(1))
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut sends = BTreeMap::new();
        let mut held: Vec<Vec<Option<Block>>> = vec![vec![None; gk.node_count()]; trees.len()];
        let mut link_bits: Vec<u64> = Vec::new();
        for (t, tree) in trees.iter().enumerate() {
            held[t][source] = Some(Arc::clone(&honest_blocks[t]));
            for (u, child) in tree.bfs_edges() {
                let received = held[t][u].clone().unwrap_or_default();
                let payload = if u == source {
                    if faulty.contains(&source) {
                        Arc::new(adv.phase1_source_block(t, child, &honest_blocks[t]))
                    } else {
                        Arc::clone(&honest_blocks[t])
                    }
                } else if faulty.contains(&u) {
                    Arc::new(adv.phase1_forward(u, t, child, &received))
                } else {
                    received
                };
                let (link, _) = gk.find_edge(u, child).unwrap();
                if link >= link_bits.len() {
                    link_bits.resize(link + 1, 0);
                }
                link_bits[link] += payload.len() as u64 * SYMBOL_BITS;
                sends.insert((t, u, child), Arc::clone(&payload));
                held[t][child] = Some(payload);
            }
        }
        let mut duration: f64 = 0.0;
        for (link, &bits) in link_bits.iter().enumerate().filter(|&(_, &bits)| bits > 0) {
            let cap = gk.edge(link).unwrap().cap;
            duration = duration.max(bits as f64 / cap as f64);
        }
        let mut values = BTreeMap::new();
        for v in gk.nodes() {
            let intact = !trees.is_empty()
                && held.iter().zip(&honest_blocks).all(|(per_tree, honest)| {
                    per_tree[v].as_ref().is_some_and(|b| Arc::ptr_eq(b, honest))
                });
            if v == source || intact {
                values.insert(v, input.clone());
            } else {
                let mut symbols = Vec::new();
                for block in held.iter().filter_map(|per_tree| per_tree[v].as_ref()) {
                    symbols.extend_from_slice(block);
                }
                values.insert(v, Value::from_symbols(symbols));
            }
        }
        Eager {
            values,
            sends,
            duration,
        }
    }

    /// One adversary hook call: `(source hook?, node, tree, child, the
    /// honest block it was handed)`.
    type Hook = (bool, NodeId, usize, NodeId, Vec<Gf2_16>);

    /// Logs every hook call, then lets `inner` answer it.
    struct Logged {
        inner: Box<dyn NabAdversary>,
        calls: Vec<Hook>,
    }

    impl NabAdversary for Logged {
        fn phase1_source_block(
            &mut self,
            tree: usize,
            child: NodeId,
            honest: &[Gf2_16],
        ) -> Vec<Gf2_16> {
            self.calls.push((true, 0, tree, child, honest.to_vec()));
            self.inner.phase1_source_block(tree, child, honest)
        }

        fn phase1_forward(
            &mut self,
            node: NodeId,
            tree: usize,
            child: NodeId,
            honest: &[Gf2_16],
        ) -> Vec<Gf2_16> {
            self.calls.push((false, node, tree, child, honest.to_vec()));
            self.inner.phase1_forward(node, tree, child, honest)
        }
    }

    /// Per hook, from a seeded stream: pass the block on as a copy, flip
    /// a symbol, drop the last symbol, or append one.
    struct Tamperer(StdRng);

    impl Tamperer {
        fn tamper(&mut self, honest: &[Gf2_16]) -> Vec<Gf2_16> {
            let mut out = honest.to_vec();
            match self.0.gen_range(0..4) {
                0 => {}
                1 if !out.is_empty() => {
                    let i = self.0.gen_range(0..out.len());
                    out[i] = out[i].add(Gf2_16(1));
                }
                2 => {
                    out.pop();
                }
                _ => out.push(Gf2_16(self.0.gen_range(0..=0xFFFF))),
            }
            out
        }
    }

    impl NabAdversary for Tamperer {
        fn phase1_source_block(&mut self, _: usize, _: NodeId, honest: &[Gf2_16]) -> Vec<Gf2_16> {
            self.tamper(honest)
        }

        fn phase1_forward(
            &mut self,
            _: NodeId,
            _: usize,
            _: NodeId,
            honest: &[Gf2_16],
        ) -> Vec<Gf2_16> {
            self.tamper(honest)
        }
    }

    fn adversary(code: u8, seed: u64) -> Logged {
        let inner: Box<dyn NabAdversary> = match code % 3 {
            0 => Box::new(TruthfulCorruptor),
            1 => Box::new(EquivocatingSource),
            _ => Box::new(Tamperer(StdRng::seed_from_u64(seed))),
        };
        Logged {
            inner,
            calls: Vec::new(),
        }
    }

    /// Whether `v` holds the input's own storage.
    fn shares(values: &BTreeMap<NodeId, Value>, v: NodeId, input: &Value) -> bool {
        values[&v].symbols().as_ptr() == input.symbols().as_ptr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The route-table walk against the eager oracle on random
        /// `2f+1`-connected graphs (n ≤ 10, f ≤ 2), some with a node or a
        /// node pair's links removed as a dispute would, under faulty sets
        /// of the source, of relays or of leaves only: equal values (and
        /// the same nodes sharing the input's storage), equal sends, the
        /// same duration bit for bit, and the same adversary hook calls in
        /// the same order.
        #[test]
        fn route_walk_matches_the_eager_oracle(
            seed in any::<u64>(),
            f in 0usize..=2,
            extra in 0usize..=9,
            symbols in 0usize..40,
            shrink in 0u8..3,
            kind in 0u8..3,
            code in 0u8..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = 2 * f + 1;
            let n = (3 * f + 1).max(2 * k.div_ceil(2) + 1);
            let n = n + extra % (11 - n);
            let mut g = gen::random_k_connected(n, k, 3, 0.2, &mut rng);
            let (a, b) = (rng.gen_range(1..n), rng.gen_range(1..n));
            match shrink {
                1 if f > 0 => g.remove_node(a),
                2 if a != b => g.remove_edges_between(a, b),
                _ => {}
            }
            let trees = pack_arborescences(&g, 0, broadcast_rate(&g, 0)).unwrap();
            let senders: BTreeSet<NodeId> =
                trees.iter().flat_map(|t| t.edges.iter().map(|&(s, _)| s)).collect();
            let pool: Vec<NodeId> = match kind {
                0 => vec![0],
                1 => senders.iter().copied().filter(|&v| v != 0).collect(),
                _ => g.nodes().filter(|v| !senders.contains(v)).collect(),
            };
            let faulty: BTreeSet<NodeId> = (0..f.max(1))
                .filter(|_| !pool.is_empty())
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let input = Value::random(symbols, &mut rng);

            let mut want_adv = adversary(code, seed);
            let want = eager_phase1(&g, 0, &input, &trees, &faulty, &mut want_adv);
            let mut got_adv = adversary(code, seed);
            let got = run_phase1(&g, 0, &input, &trees, &faulty, &mut got_adv);
            let case = format!("n={n} f={f} faulty={faulty:?} symbols={symbols} code={code}");
            prop_assert_eq!(&got.values, &want.values, "{}", case);
            for &v in want.values.keys() {
                let (a, b) = (shares(&got.values, v, &input), shares(&want.values, v, &input));
                prop_assert_eq!(a, b, "node {} shares the input: {}", v, case);
            }
            prop_assert_eq!(got.sends(), want.sends, "{}", case);
            prop_assert_eq!(got.duration.to_bits(), want.duration.to_bits(), "{}", case);
            prop_assert_eq!(got_adv.calls, want_adv.calls, "{}", case);
        }
    }

    #[test]
    fn faulty_leaves_record_no_substitution() {
        // Node 3 has no out-link, so it is a leaf of every tree.
        let mut g = DiGraph::new(4);
        for (s, d) in [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)] {
            g.add_edge(s, d, 1);
        }
        let (trees, input) = setup(&g);
        assert_eq!(trees.len(), 2);
        let leaves = BTreeSet::from([3]);
        let mut adv = adversary(0, 0);
        let out = run_phase1(&g, 0, &input, &trees, &leaves, &mut adv);
        assert!(out.substituted.is_empty());
        assert!(adv.calls.is_empty());
        assert!(g.nodes().all(|v| shares(&out.values, v, &input)));
        let want = eager_phase1(&g, 0, &input, &trees, &leaves, &mut HonestStrategy);
        assert_eq!(out.sends(), want.sends);
    }
}
