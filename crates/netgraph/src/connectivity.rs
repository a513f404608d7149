//! Vertex connectivity and vertex-disjoint path routing.
//!
//! The paper assumes network connectivity at least `2f + 1`, and Appendix D
//! uses the classical construction: with `≤ f` faults and `2f + 1`
//! internally-vertex-disjoint paths between two nodes, sending a copy of a
//! message along every path and taking the majority at the receiver yields
//! reliable end-to-end communication between fault-free nodes — a *complete
//! graph emulation* on which any classic BB protocol can run.
//!
//! # Even's check
//!
//! Write `κ(s, t)` for the number of internally-vertex-disjoint `s → t`
//! paths (a direct link counts as one) and `κ(G) = min_{s ≠ t} κ(s, t)`.
//!
//! **Lemma** (S. Even, *An algorithm for determining whether the
//! connectivity of a graph is at least k*, SIAM J. Comput. 4(3), 1975).
//! Order the nodes `v₁, …, vₙ`, `n > k`. Then `κ(G) ≥ k` iff (a)
//! `κ(vᵢ, vⱼ) ≥ k` for all `i ≠ j ≤ k`, and (b) for every `j > k`, `k`
//! paths disjoint but at `vⱼ` lead into `vⱼ` from distinct nodes of
//! `{v₁, …, vⱼ₋₁}`, and `k` lead out of `vⱼ` to distinct nodes of it.
//!
//! *Proof.* "Only if": if a set `S`, `|S| < k`, `vⱼ ∉ S`, meets every path
//! into `vⱼ` from that set (Menger's fan lemma), some `vᵢ ∉ S`, `i < j`,
//! remains (`j − 1 ≥ k`); it has no link to `vⱼ`, and `S` separates the
//! two, so `κ(vᵢ, vⱼ) < k`; likewise out of `vⱼ`. "If": let `κ(s, t) < k`.
//! Then some `S` with `|S| < k` separates nonempty sides `A` and `B`, with
//! no link from `A` to `B`. Without a link `s → t`, Menger gives it. With
//! one, Menger in `G − (s → t)` gives `|S| ≤ k − 2`, `A` what `s` reaches
//! in `G − S − (s → t)` and `B` the rest; then `S ∪ {s}` separates
//! `A ∖ {s}` from `B`, and `S ∪ {t}` separates `A` from `B ∖ {t}`, and
//! both sides cannot be singletons, because `n > k`. If the first `k`
//! nodes include a node of `A` and a node of `B`, that pair fails (a).
//! Otherwise let `j` be the first index with `vⱼ` on the side that holds
//! none of them: every path into `vⱼ ∈ B` from an earlier node, or out of
//! `vⱼ ∈ A` to one, crosses `S`, and (b) fails. ∎
//!
//! So [`vertex_connectivity_at_least`] runs `k(k − 1) + 2(n − k)` flows
//! capped at `k` instead of `n(n − 1)`, all on two networks built once:
//! the unit split network of `G` and of its transpose, each with a hub
//! that has a unit arc into every node. (a) closes the hub's arcs; (b)
//! at `j` opens those into `v₁, …, vⱼ₋₁` and pushes from the hub, and
//! the unit split arcs make its units leave from distinct nodes. A flow
//! from `s_out` (or the hub) to `t_in` never uses `t`'s split arc (it
//! starts at the sink) nor `s`'s (it ends at the source), so the same
//! network serves every query.

use crate::flow::FlowNet;
use crate::graph::{DiGraph, NodeId};

/// The node-split flow network for internally-vertex-disjoint path
/// counting, of `g` or of its transpose: every active node `v` becomes
/// `v_in = v`, `v_out = v + n` joined by a unit arc, and every live edge
/// `(u, v)` a unit arc `u_out → v_in` (`v_out → u_in` transposed). The
/// `s → t` paths are the flow from `s_out` to `t_in`.
///
/// Arcs come in [`DiGraph::nodes`] then [`DiGraph::edges`] order, so the
/// `k`-th live edge is arc `2 · (active_count + k)`. With `hub`, node
/// `2n` follows with a unit arc to every active `v_in`, in node order.
fn split_network(g: &DiGraph, transpose: bool, hub: bool) -> FlowNet {
    let n = g.node_count();
    let mut net = FlowNet::new(2 * n + usize::from(hub));
    for v in g.nodes() {
        net.add_arc(v, v + n, 1);
    }
    for (_, e) in g.edges() {
        let (u, v) = if transpose {
            (e.dst, e.src)
        } else {
            (e.src, e.dst)
        };
        net.add_arc(u + n, v, 1);
    }
    if hub {
        for v in g.nodes() {
            net.add_arc(2 * n, v, 1);
        }
    }
    net
}

/// The maximum number of internally-vertex-disjoint directed paths from `s`
/// to `t` (a direct edge counts as one path).
///
/// # Panics
///
/// Panics if `s` or `t` is inactive or `s == t`.
pub fn vertex_connectivity_pair(g: &DiGraph, s: NodeId, t: NodeId) -> u64 {
    assert!(
        g.is_active(s) && g.is_active(t) && s != t,
        "bad connectivity query"
    );
    split_network(g, false, false).max_flow(s + g.node_count(), t)
}

/// Whether every active node can reach every other active node — directed
/// vertex connectivity `≥ 1`, checked with two breadth-first sweeps
/// (forward and reverse from one pivot) in `O(V + E)` instead of `n²`
/// max-flows. Vacuously true with fewer than two active nodes.
pub fn strongly_connected(g: &DiGraph) -> bool {
    let Some(pivot) = g.nodes().next() else {
        return true;
    };
    let n = g.node_count();
    let mut fwd: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (_, e) in g.edges() {
        fwd[e.src].push(e.dst);
        rev[e.dst].push(e.src);
    }
    let reach = |adj: &[Vec<NodeId>]| {
        let mut seen = vec![false; n];
        seen[pivot] = true;
        let mut stack = vec![pivot];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    };
    let down = reach(&fwd);
    let up = reach(&rev);
    g.nodes().all(|v| down[v] && up[v])
}

/// Whether the directed vertex connectivity is at least `k`, by Even's
/// check of the module docs: `k` paths between every two of the first
/// `k` active nodes, and into and out of every later node from and to
/// distinct earlier ones.
///
/// Returns `false` with at most `k` active nodes (in particular with fewer
/// than two, where no pair exists), and trivially `true` for `k = 0`.
pub fn vertex_connectivity_at_least(g: &DiGraph, k: u64) -> bool {
    if k == 0 {
        return true;
    }
    // A pair has at most one direct path and one per other node.
    if g.active_count() as u64 <= k {
        return false;
    }
    let (n, nodes) = (g.node_count(), g.nodes().collect::<Vec<_>>());
    let (pivots, later) = nodes.split_at(k as usize);
    // The hub's arcs follow the split and edge arcs.
    let hub_arcs = 2 * (nodes.len() + g.edge_count());
    let mut out = split_network(g, false, true);
    let pairs = pivots.iter().all(|&p| {
        let others = pivots.iter().copied().filter(|&v| v != p);
        out.min_cut_to_sinks(p + n, others, |a| a < hub_arcs, k) == k
    });
    let mut back = split_network(g, true, true);
    pairs
        && later.iter().zip(pivots.len()..).all(|(&v, j)| {
            [&mut out, &mut back].into_iter().all(|net| {
                net.reset(|a| u64::from(a < hub_arcs + 2 * j));
                net.max_flow_limited(2 * n, v, k) == k
            })
        })
}

/// Extracts internally-vertex-disjoint path systems pair after pair on one
/// unit split network of a graph, built once: every query returns the net
/// to zero flow, runs the same uncapped max-flow a fresh network would
/// (same arcs, same order, hence the same flow and the same paths), and
/// decomposes it without allocating anything but the paths themselves.
#[derive(Debug, Clone)]
pub struct PathExtractor {
    net: FlowNet,
    /// The graph's node universe: node `v` is split into `v` and `v + n`.
    n: usize,
    /// Live edges `(src, dst)` in [`DiGraph::edges`] order: edge `i` is
    /// arc `first_edge_arc + 2i` of `net`.
    edges: Vec<(NodeId, NodeId)>,
    first_edge_arc: usize,
    /// Per node other than the query's source, the head of the edge its
    /// unit of flow leaves by (an internal node's split arc admits one).
    succ: Vec<NodeId>,
    /// The source's flow-carrying successors, in edge order.
    firsts: Vec<NodeId>,
}

impl PathExtractor {
    /// The extractor over `g`'s split network.
    pub fn new(g: &DiGraph) -> Self {
        let n = g.node_count();
        PathExtractor {
            net: split_network(g, false, false),
            n,
            edges: g.edges().map(|(_, e)| (e.src, e.dst)).collect(),
            first_edge_arc: 2 * g.active_count(),
            succ: vec![0; n],
            firsts: Vec::new(),
        }
    }

    /// `k` internally-vertex-disjoint directed paths from `s` to `t`, each
    /// the node sequence `s, …, t`, or `None` if fewer than `k` exist (an
    /// inactive endpoint has none). The paths leave `s` by its
    /// flow-carrying edges taken from the last.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is outside the graph, or `s == t`.
    pub fn extract(&mut self, s: NodeId, t: NodeId, k: usize) -> Option<Vec<Vec<NodeId>>> {
        assert!(s < self.n && t < self.n && s != t, "bad path query");
        self.net.reset(|_| 1);
        let flow = self.net.max_flow(s + self.n, t);
        if (flow as usize) < k {
            return None;
        }
        self.firsts.clear();
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let f = self.net.flow_on(self.first_edge_arc + 2 * i);
            debug_assert!(f <= 1);
            if f == 1 {
                if u == s {
                    self.firsts.push(v);
                } else {
                    self.succ[u] = v;
                }
            }
        }
        // Flow enters no internal node it does not leave, and none of it
        // passes the sink, so each walk from `s` ends at `t`.
        let paths = self.firsts.iter().rev().take(k).map(|&first| {
            let mut path = vec![s, first];
            let mut cur = first;
            while cur != t {
                cur = self.succ[cur];
                path.push(cur);
            }
            path
        });
        Some(paths.collect())
    }
}

/// Checks the existence conditions for Byzantine broadcast from the paper's
/// system model: `n ≥ 3f + 1` active nodes and vertex connectivity
/// `≥ 2f + 1`.
pub fn supports_byzantine_broadcast(g: &DiGraph, f: usize) -> bool {
    let n = g.active_count();
    if n < 3 * f + 1 {
        return false;
    }
    if n < 2 {
        return f == 0;
    }
    if f == 0 {
        // κ ≥ 1 is exactly strong connectivity — linear-time check, which
        // is what keeps 1000-node fault-free fabrics plannable.
        return strongly_connected(g);
    }
    vertex_connectivity_at_least(g, (2 * f + 1) as u64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The directed vertex connectivity of the graph: the minimum over all
    /// ordered pairs of active nodes of [`vertex_connectivity_pair`], each
    /// pair's flow capped at the best minimum seen so far; `None` with
    /// fewer than two active nodes.
    pub(crate) fn vertex_connectivity(g: &DiGraph) -> Option<u64> {
        if g.active_count() < 2 {
            return None;
        }
        let n = g.node_count();
        let mut net = split_network(g, false, false);
        let mut best = u64::MAX;
        for s in g.nodes() {
            let sinks = g.nodes().filter(|&t| t != s);
            best = net.min_cut_to_sinks(s + n, sinks, |_| true, best);
        }
        Some(best)
    }

    /// The pivot check Even's replaced, kept as its oracle: the first `k`
    /// active nodes each need `k` internally-disjoint paths to and from
    /// every other node (`2k(n − 1)` flows).
    fn pivot_check(g: &DiGraph, k: u64) -> bool {
        if k == 0 {
            return true;
        }
        if g.active_count() as u64 <= k {
            return false;
        }
        let n = g.node_count();
        let mut out = split_network(g, false, false);
        let mut back = split_network(g, true, false);
        g.nodes().take(k as usize).all(|p| {
            [&mut out, &mut back].into_iter().all(|net| {
                let others = g.nodes().filter(|&v| v != p);
                net.min_cut_to_sinks(p + n, others, |_| true, k) == k
            })
        })
    }

    #[test]
    fn complete_graph_connectivity_is_n_minus_1() {
        let g = gen::complete(5, 1);
        assert_eq!(vertex_connectivity(&g), Some(4));
    }

    #[test]
    fn path_graph_connectivity_is_1() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 1, 1);
        g.add_edge(1, 0, 1);
        assert_eq!(vertex_connectivity(&g), Some(1));
    }

    #[test]
    fn disjoint_paths_in_complete_graph() {
        let g = gen::complete(6, 1);
        let paths = PathExtractor::new(&g)
            .extract(0, 5, 5)
            .expect("K6 has 5 disjoint paths");
        assert_eq!(paths.len(), 5);
        // Internal nodes must be distinct across paths.
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            assert_eq!(*p.first().unwrap(), 0);
            assert_eq!(*p.last().unwrap(), 5);
            for &v in &p[1..p.len() - 1] {
                assert!(seen.insert(v), "internal node {v} reused");
            }
        }
    }

    #[test]
    fn disjoint_paths_paths_are_edges() {
        let g = gen::complete(4, 1);
        let paths = PathExtractor::new(&g).extract(0, 3, 3).unwrap();
        for p in &paths {
            for w in p.windows(2) {
                assert!(g.find_edge(w[0], w[1]).is_some(), "non-edge {w:?} in path");
            }
        }
    }

    #[test]
    fn too_many_paths_requested_returns_none() {
        let g = gen::complete(4, 1);
        assert!(PathExtractor::new(&g).extract(0, 3, 4).is_none());
    }

    #[test]
    fn bb_support_conditions() {
        // K4 supports f=1 (n=4≥4, κ=3≥3) but not f=2.
        let g = gen::complete(4, 1);
        assert!(supports_byzantine_broadcast(&g, 1));
        assert!(!supports_byzantine_broadcast(&g, 2));
        // K7 supports f=2 (n=7≥7, κ=6≥5).
        let g7 = gen::complete(7, 1);
        assert!(supports_byzantine_broadcast(&g7, 2));
    }

    #[test]
    fn strong_connectivity_matches_kappa_at_least_one() {
        let ring = gen::ring(6, 1);
        assert!(strongly_connected(&ring));
        let mut one_way = DiGraph::new(3);
        one_way.add_edge(0, 1, 1);
        one_way.add_edge(1, 2, 1);
        assert!(!strongly_connected(&one_way));
        // A single active node is vacuously strongly connected.
        let mut lone = DiGraph::new(2);
        lone.remove_node(1);
        assert!(strongly_connected(&lone));
    }

    /// The all-pairs scan the pivot check replaced, kept as its oracle: a
    /// fresh split network per ordered pair, the endpoints' own split arcs
    /// uncapped.
    fn connectivity_by_all_pairs(g: &DiGraph) -> Option<u64> {
        let n = g.node_count();
        let mut best = None::<u64>;
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let mut net = FlowNet::new(2 * n);
                for v in g.nodes() {
                    let cap = if v == s || v == t { u64::MAX / 4 } else { 1 };
                    net.add_arc(v, v + n, cap);
                }
                for (_, e) in g.edges() {
                    net.add_arc(e.src + n, e.dst, 1);
                }
                let pair = net.max_flow(s + n, t);
                assert_eq!(vertex_connectivity_pair(g, s, t), pair, "{s}→{t} {g:?}");
                best = Some(best.map_or(pair, |b| b.min(pair)));
            }
        }
        best
    }

    /// Every threshold around `κ`, `n − 1` and `n` (where `n` is the
    /// active count), and the `f = 0` entry point, against the oracles.
    fn check_thresholds(g: &DiGraph) {
        let exact = connectivity_by_all_pairs(g);
        assert_eq!(vertex_connectivity(g), exact, "{g:?}");
        let n = g.active_count() as u64;
        for k in (0..=exact.unwrap_or(0) + 2).chain([n.saturating_sub(1), n]) {
            let at_least = vertex_connectivity_at_least(g, k);
            let expected = k == 0 || exact.is_some_and(|x| k <= x);
            assert_eq!(
                at_least, expected,
                "threshold {k} vs exact {exact:?} on {g:?}"
            );
            assert_eq!(pivot_check(g, k), expected, "pivot oracle at {k} on {g:?}");
        }
        if g.active_count() >= 2 {
            assert_eq!(supports_byzantine_broadcast(g, 0), exact >= Some(1));
        }
    }

    #[test]
    fn threshold_check_agrees_with_exact_connectivity() {
        for g in [
            gen::complete(5, 1),
            gen::circulant(7, 2, 1),
            gen::ring(5, 2),
            gen::figure_1a(),
            gen::figure_2a(),
            // n ≤ k: two and three nodes against thresholds up to κ + 2.
            gen::complete(2, 1),
            gen::complete(3, 1),
        ] {
            check_thresholds(&g);
        }
        // Fewer than two active nodes: no pair, so no threshold but 0.
        let mut lone = gen::complete(2, 1);
        lone.remove_node(0);
        check_thresholds(&lone);
    }

    /// A graph of `n ≤ max_n` nodes from one of five families: `complete`,
    /// `circulant`, `random_k_connected`, and `random_k_connected` or
    /// `random_connected` with one-way links (each direction of each link
    /// kept on its own coin, so in- and out-connectivity differ and the
    /// transposed hub flows matter). Half the graphs lose node 0 and one
    /// random node: ids stop being contiguous and the pivots start past 0.
    fn arb_threshold_graph(max_n: usize) -> impl Strategy<Value = DiGraph> {
        (0u8..5, 3..=max_n, any::<u64>(), any::<bool>()).prop_map(|(family, n, seed, punch)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(1..=(n - 1) / 2);
            let k = 2 * m - rng.gen_range(0..2usize);
            let dense = match family {
                0 => gen::complete(n, 1),
                1 => gen::circulant(n, m, 1),
                2 | 3 => gen::random_k_connected(n, k, 2, 0.3, &mut rng),
                _ => gen::random_connected(n, 0.8, 2, &mut rng),
            };
            let mut g = DiGraph::new(n);
            for (_, e) in dense.edges() {
                if family < 3 || rng.gen_bool(0.85) {
                    g.add_edge(e.src, e.dst, e.cap);
                }
            }
            if punch {
                g.remove_node(rng.gen_range(0..n));
                g.remove_node(0);
            }
            g
        })
    }

    proptest! {
        // Debug builds keep the small cases; CI's release-mode run of
        // this crate adds the larger ones.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 96 } else { 600 }
        ))]

        /// Even's check equals the all-pairs connectivity and the pivot
        /// check at every threshold from 0 to `κ + 2`, and at `n − 1` and
        /// `n`.
        #[test]
        fn even_check_matches_all_pairs_and_pivot_oracles(
            g in arb_threshold_graph(if cfg!(debug_assertions) { 9 } else { 14 }),
        ) {
            check_thresholds(&g);
        }

        /// Route extraction is the one `FlowNet` user whose output is the
        /// flow itself: the paths the early-stop Dinic gives equal those
        /// of a fresh split network under the whole-network levelling, for
        /// every ordered pair at its full connectivity, and one more path
        /// is refused.
        #[test]
        fn extracted_paths_match_the_full_levelling_dinic(
            case in (5usize..if cfg!(debug_assertions) { 10 } else { 16 }, 1usize..5, any::<u64>()),
        ) {
            let (n, k, seed) = case;
            let mut rng = StdRng::seed_from_u64(seed);
            let k = k.min((n - 1) / 2 * 2);
            let g = gen::random_k_connected(n, k, 3, 0.25, &mut rng);
            let mut extractor = PathExtractor::new(&g);
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let (flow, paths) = full_levelling_paths(&g, s, t);
                    prop_assert_eq!(extractor.extract(s, t, flow), Some(paths));
                    prop_assert_eq!(extractor.extract(s, t, flow + 1), None);
                }
            }
        }
    }

    /// The oracle of `extracted_paths_match_the_full_levelling_dinic`: a
    /// fresh split network, the whole-network levelling Dinic uncapped,
    /// and the flow decomposed into paths leaving `s` by its
    /// flow-carrying edges from the last, each internal node followed by
    /// the head of its one flow-carrying out-edge.
    fn full_levelling_paths(g: &DiGraph, s: NodeId, t: NodeId) -> (usize, Vec<Vec<NodeId>>) {
        let n = g.node_count();
        let mut net = split_network(g, false, false);
        let flow = net.max_flow_levelling_all(s + n, t, u64::MAX) as usize;
        let first_edge_arc = 2 * g.active_count();
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, (_, e)) in g.edges().enumerate() {
            if net.flow_on(first_edge_arc + 2 * i) == 1 {
                out[e.src].push(e.dst);
            }
        }
        let paths = (0..flow)
            .map(|_| {
                let mut path = vec![s];
                while path[path.len() - 1] != t {
                    let next = out[path[path.len() - 1]].pop();
                    path.push(next.expect("flow enters no node it does not leave"));
                }
                path
            })
            .collect();
        (flow, paths)
    }

    #[test]
    fn connectivity_pair_counts_direct_edge() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 2, 1); // direct
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1); // via node 1
        assert_eq!(vertex_connectivity_pair(&g, 0, 2), 2);
    }
}
