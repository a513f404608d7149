//! Packing capacity-respecting spanning arborescences (Appendix A).
//!
//! Edmonds' theorem: a digraph whose min cut from root `r` to every other
//! node is at least `k` contains `k` edge-disjoint spanning arborescences
//! rooted at `r` (with integer capacities, "edge-disjoint" means each edge
//! `e` is used by at most `z_e` arborescences in total). Phase 1 of NAB
//! splits the `L`-bit input into `γ` blocks and streams one block down each
//! arborescence, achieving the optimal unreliable-broadcast rate `γ`.
//!
//! This module implements the constructive proof due to Lovász: grow each
//! arborescence one edge at a time, only ever adding a *safe* edge — one
//! whose removal from the residual graph keeps the root min cut at
//! `k − 1` for every node, which guarantees the remaining `k − 1`
//! arborescences can still be completed.

use std::collections::{BTreeSet, HashMap};

use crate::flow::FlowNet;
use crate::graph::{DiGraph, EdgeId, NodeId};

/// A spanning arborescence: `parent_edge[v] = Some((u, v))` for every
/// non-root active node `v`, forming a tree directed away from the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arborescence {
    /// The root (broadcast source).
    pub root: NodeId,
    /// Tree edges as `(src, dst)` pairs; every active non-root node appears
    /// exactly once as a `dst`.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl Arborescence {
    /// The parent of `v` in the tree, if `v` is not the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.edges.iter().find(|&&(_, d)| d == v).map(|&(s, _)| s)
    }

    /// Children of `u`.
    pub fn children(&self, u: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|&&(s, _)| s == u)
            .map(|&(_, d)| d)
            .collect()
    }

    /// Nodes in BFS order from the root (root first). Each node appears
    /// after its parent, so forwarding in this order respects causality.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut order = vec![self.root];
        let mut i = 0;
        while i < order.len() {
            let u = order[i];
            order.extend(self.children(u));
            i += 1;
        }
        order
    }

    /// Depth (number of hops) of the deepest node.
    pub fn depth(&self) -> usize {
        fn depth_of(t: &Arborescence, v: NodeId) -> usize {
            match t.parent(v) {
                None => 0,
                Some(p) => 1 + depth_of(t, p),
            }
        }
        self.edges
            .iter()
            .map(|&(_, d)| depth_of(self, d))
            .max()
            .unwrap_or(0)
    }
}

/// Computes the residual min cut from `root` to `target` given per-edge
/// remaining capacities.
fn residual_min_cut(g: &DiGraph, rem: &[u64], root: NodeId, target: NodeId) -> u64 {
    let mut net = FlowNet::new(g.node_count());
    for (id, e) in g.edges() {
        if rem[id] > 0 {
            net.add_arc(e.src, e.dst, rem[id]);
        }
    }
    net.max_flow(root, target)
}

/// Whether, with remaining capacities `rem`, every active node still has
/// min cut ≥ `need` from the root.
fn invariant_holds(g: &DiGraph, rem: &[u64], root: NodeId, need: u64) -> bool {
    if need == 0 {
        return true;
    }
    g.nodes()
        .filter(|&v| v != root)
        .all(|v| residual_min_cut(g, rem, root, v) >= need)
}

/// The flow network of `g`, built once per packing and returned to the
/// shrinking residual capacities `rem` before every witness solve.
struct WitnessSolver {
    net: FlowNet,
    /// The id of the `k`-th live edge, which is arc `2k` of `net` — live
    /// ids are sparse once a node has been removed.
    edge_of_arc: Vec<EdgeId>,
}

impl WitnessSolver {
    fn new(g: &DiGraph) -> WitnessSolver {
        WitnessSolver {
            net: FlowNet::from_digraph(g),
            edge_of_arc: g.edges().map(|(id, _)| id).collect(),
        }
    }

    /// Computes a sparse flow witness: a feasible `root → target` flow of
    /// value `need` in the residual graph `rem`, as `edge id → units
    /// shipped`, or `None` if the residual min cut is below `need`.
    fn capped_witness(
        &mut self,
        rem: &[u64],
        root: NodeId,
        target: NodeId,
        need: u64,
    ) -> Option<HashMap<EdgeId, u64>> {
        let edge_of_arc = &self.edge_of_arc;
        self.net.reset(|arc| rem[edge_of_arc[arc / 2]]);
        if self.net.max_flow_limited(root, target, need) < need {
            return None;
        }
        let shipped = edge_of_arc
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, self.net.flow_on(2 * k)));
        Some(shipped.filter(|&(_, f)| f > 0).collect())
    }
}

/// Packs `k` capacity-respecting spanning arborescences rooted at `root`.
///
/// Returns `None` if the graph's broadcast rate from `root` is below `k`
/// (Edmonds' condition fails) — callers should pick
/// `k = flow::broadcast_rate(g, root)`.
///
/// This is the witness-incremental implementation: instead of re-running a
/// full max-flow from the root to *every* node after each tentative edge
/// decrement (as [`pack_arborescences_naive`] does), it keeps a sparse flow
/// witness of value ≥ `need` per node. Decrementing edge `e` can only break
/// witnesses that ship more than the new residual over `e`, so exactly those
/// nodes are re-solved (with a flow capped at `need`, on one flow network
/// whose capacities are reset to the residuals before each solve); all
/// others provably still meet the cut bound. The safety decision for every
/// candidate edge is the same boolean the naive checker computes — it does
/// not depend on which witness was found — so the produced packing is
/// **identical**, a fact the differential tests (and the engine's
/// repair-vs-recompute proptests) pin down.
///
/// # Panics
///
/// Panics if `root` is inactive.
pub fn pack_arborescences(g: &DiGraph, root: NodeId, k: u64) -> Option<Vec<Arborescence>> {
    assert!(g.is_active(root), "root must be active");
    if k == 0 {
        return Some(Vec::new());
    }
    let max_id = g.edges().map(|(id, _)| id + 1).max().unwrap_or(0);
    let mut rem = vec![0u64; max_id];
    for (id, e) in g.edges() {
        rem[id] = e.cap;
    }

    // Entry check doubling as witness construction: every node gets a flow
    // witness of value `k` (exactly Edmonds' condition).
    let n = g.node_count();
    let mut wit: Vec<HashMap<EdgeId, u64>> = vec![HashMap::new(); n];
    let mut users: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); max_id];
    let mut solver = WitnessSolver::new(g);
    for v in g.nodes() {
        if v == root {
            continue;
        }
        let w = solver.capped_witness(&rem, root, v, k)?;
        for &e in w.keys() {
            users[e].insert(v);
        }
        wit[v] = w;
    }

    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut trees = Vec::with_capacity(k as usize);

    for tree_idx in 0..k {
        // Remaining trees to build after this one.
        let need = k - tree_idx - 1;
        let mut in_tree = vec![false; g.node_count()];
        in_tree[root] = true;
        let mut covered = 1usize;
        let mut edges = Vec::new();

        while covered < nodes.len() {
            let mut advanced = false;
            'candidates: for (id, e) in g.edges() {
                if rem[id] == 0 || !in_tree[e.src] || in_tree[e.dst] {
                    continue;
                }
                // Tentatively take one unit of edge `id`.
                rem[id] -= 1;
                let safe = if need == 0 {
                    true
                } else {
                    // Only witnesses shipping more than the new residual
                    // over `id` can have dropped below `need`; re-solve
                    // exactly those and commit on success.
                    let affected: Vec<NodeId> = users[id]
                        .iter()
                        .copied()
                        .filter(|&v| wit[v][&id] > rem[id])
                        .collect();
                    let mut rebuilt = Vec::with_capacity(affected.len());
                    let mut feasible = true;
                    for &v in &affected {
                        match solver.capped_witness(&rem, root, v, need) {
                            Some(w) => rebuilt.push((v, w)),
                            None => {
                                feasible = false;
                                break;
                            }
                        }
                    }
                    if feasible {
                        for (v, w) in rebuilt {
                            for &e2 in wit[v].keys() {
                                users[e2].remove(&v);
                            }
                            for &e2 in w.keys() {
                                users[e2].insert(v);
                            }
                            wit[v] = w;
                        }
                    }
                    feasible
                };
                if safe {
                    in_tree[e.dst] = true;
                    covered += 1;
                    edges.push((e.src, e.dst));
                    advanced = true;
                    break 'candidates;
                }
                // Unsafe: restore the unit. The untouched witnesses are
                // feasible again under the restored residuals.
                rem[id] += 1;
            }
            if !advanced {
                // Cannot happen when Edmonds' condition held at entry; kept
                // as a defensive bail-out rather than a panic.
                return None;
            }
        }
        trees.push(Arborescence { root, edges });
    }
    Some(trees)
}

/// Reference implementation of [`pack_arborescences`]: Lovász's constructive
/// proof with a full `O(V)`-max-flow invariant check per candidate edge.
///
/// Kept as the differential oracle — the witness-incremental packer must
/// produce bit-identical output — and as the deliberately-unoptimized
/// baseline the benches contrast against.
///
/// # Panics
///
/// Panics if `root` is inactive.
pub fn pack_arborescences_naive(g: &DiGraph, root: NodeId, k: u64) -> Option<Vec<Arborescence>> {
    assert!(g.is_active(root), "root must be active");
    if k == 0 {
        return Some(Vec::new());
    }
    let max_id = g.edges().map(|(id, _)| id + 1).max().unwrap_or(0);
    let mut rem = vec![0u64; max_id];
    for (id, e) in g.edges() {
        rem[id] = e.cap;
    }
    if !invariant_holds(g, &rem, root, k) {
        return None;
    }

    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut trees = Vec::with_capacity(k as usize);

    for tree_idx in 0..k {
        // Remaining trees to build after this one.
        let need = k - tree_idx - 1;
        let mut in_tree = vec![false; g.node_count()];
        in_tree[root] = true;
        let mut covered = 1usize;
        let mut edges = Vec::new();

        while covered < nodes.len() {
            // Find a safe frontier edge: src in tree, dst not, and removing
            // one unit of its capacity keeps every node's residual min cut
            // ≥ `need`.
            let mut advanced = false;
            'candidates: for (id, e) in g.edges() {
                if rem[id] == 0 || !in_tree[e.src] || in_tree[e.dst] {
                    continue;
                }
                rem[id] -= 1;
                if invariant_holds(g, &rem, root, need) {
                    in_tree[e.dst] = true;
                    covered += 1;
                    edges.push((e.src, e.dst));
                    advanced = true;
                    break 'candidates;
                }
                rem[id] += 1;
            }
            if !advanced {
                // Cannot happen when Edmonds' condition held at entry; kept
                // as a defensive bail-out rather than a panic.
                return None;
            }
        }
        trees.push(Arborescence { root, edges });
    }
    Some(trees)
}

/// Validates an arborescence packing: each tree spans all active nodes from
/// the root, and total per-edge usage respects capacities. Returns a
/// human-readable error on failure (used by tests and benches).
pub fn validate_packing(g: &DiGraph, root: NodeId, trees: &[Arborescence]) -> Result<(), String> {
    let mut usage: std::collections::BTreeMap<(NodeId, NodeId), u64> =
        std::collections::BTreeMap::new();
    let active: Vec<NodeId> = g.nodes().collect();
    for (i, t) in trees.iter().enumerate() {
        if t.root != root {
            return Err(format!("tree {i} has wrong root"));
        }
        let mut indeg = vec![0usize; g.node_count()];
        for &(s, d) in &t.edges {
            if g.find_edge(s, d).is_none() {
                return Err(format!("tree {i} uses non-edge ({s}, {d})"));
            }
            indeg[d] += 1;
            *usage.entry((s, d)).or_insert(0) += 1;
        }
        for &v in &active {
            let expect = usize::from(v != root);
            if indeg[v] != expect {
                return Err(format!("tree {i}: node {v} has in-degree {}", indeg[v]));
            }
        }
        // Reachability from root within tree edges.
        let order = t.bfs_order();
        if order.len() != active.len() {
            return Err(format!("tree {i} does not span: covers {}", order.len()));
        }
    }
    for ((s, d), used) in usage {
        let cap = g.find_edge(s, d).map(|(_, e)| e.cap).unwrap_or(0);
        if used > cap {
            return Err(format!("edge ({s}, {d}) used {used} > cap {cap}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::broadcast_rate;
    use crate::gen;

    #[test]
    fn figure_2a_packs_two_trees() {
        // The paper's Figure 2(a)/(c): γ = 2, and two unit-capacity spanning
        // trees exist with link (1,2) used by both.
        let g = gen::figure_2a();
        let k = broadcast_rate(&g, 0);
        assert_eq!(k, 2);
        let trees = pack_arborescences(&g, 0, k).expect("packing exists");
        assert_eq!(trees.len(), 2);
        validate_packing(&g, 0, &trees).unwrap();
    }

    #[test]
    fn figure_1a_packs_gamma_trees() {
        let g = gen::figure_1a();
        let k = broadcast_rate(&g, 0);
        assert_eq!(k, 2);
        let trees = pack_arborescences(&g, 0, k).expect("packing exists");
        validate_packing(&g, 0, &trees).unwrap();
    }

    #[test]
    fn complete_graph_packs_n_minus_1_unit_trees() {
        let g = gen::complete(5, 1);
        let k = broadcast_rate(&g, 0);
        assert_eq!(k, 4);
        let trees = pack_arborescences(&g, 0, k).expect("packing exists");
        assert_eq!(trees.len(), 4);
        validate_packing(&g, 0, &trees).unwrap();
    }

    #[test]
    fn over_requesting_returns_none() {
        let g = gen::complete(4, 1);
        let k = broadcast_rate(&g, 0);
        assert!(pack_arborescences(&g, 0, k + 1).is_none());
    }

    #[test]
    fn zero_trees_is_trivially_ok() {
        let g = gen::complete(3, 1);
        assert_eq!(pack_arborescences(&g, 0, 0).unwrap().len(), 0);
    }

    #[test]
    fn high_capacity_edge_reused_across_trees() {
        // Line 0 -> 1 with cap 3 fanning to 2 and 3 each cap 3: rate 3 uses
        // (0,1) three times.
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 3);
        let trees = pack_arborescences(&g, 0, 3).expect("packing exists");
        assert_eq!(trees.len(), 3);
        validate_packing(&g, 0, &trees).unwrap();
    }

    #[test]
    fn random_graphs_always_pack_their_broadcast_rate() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..15 {
            let g = gen::random_connected(6, 0.6, 3, &mut rng);
            let k = broadcast_rate(&g, 0);
            if k == 0 {
                continue;
            }
            let trees =
                pack_arborescences(&g, 0, k).unwrap_or_else(|| panic!("trial {trial}: no packing"));
            assert_eq!(trees.len() as u64, k);
            validate_packing(&g, 0, &trees).unwrap();
        }
    }

    #[test]
    fn witness_packer_is_bit_identical_to_naive() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let mut nontrivial = 0;
        for trial in 0..20 {
            let g = if trial % 2 == 0 {
                gen::random_connected(6, 0.5, 3, &mut rng)
            } else {
                gen::random_k_connected(7, 3, 4, 0.2, &mut rng)
            };
            let k = broadcast_rate(&g, 0);
            for req in [k, k + 1] {
                assert_eq!(
                    pack_arborescences(&g, 0, req),
                    pack_arborescences_naive(&g, 0, req),
                    "trial {trial} diverged at k={req}"
                );
            }
            if k > 1 {
                nontrivial += 1;
            }
        }
        assert!(nontrivial >= 5, "test exercised only trivial packings");
    }

    #[test]
    fn witness_packer_matches_naive_after_edge_removals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut sparse_nontrivial = 0;
        for trial in 0..16 {
            let mut g = gen::random_k_connected(8, 3, 3, 0.3, &mut rng);
            // An exposed node leaves its edges in the id space, so the
            // live ids are sparse (arc 2k of the shared net is the k-th
            // *live* edge, not edge k).
            let sparse = trial % 2 == 1;
            if sparse {
                g.remove_node(rng.gen_range(1..8));
                let ids: Vec<EdgeId> = g.edges().map(|(id, _)| id).collect();
                assert!(ids.iter().enumerate().any(|(k, &id)| k != id));
            }
            // Dispute-style removals shrink the graph between packings.
            for _ in 0..3 {
                let a = rng.gen_range(1..8);
                let b = rng.gen_range(1..8);
                if a != b {
                    g.remove_edges_between(a, b);
                }
                let k = broadcast_rate(&g, 0);
                let packed = pack_arborescences(&g, 0, k);
                assert_eq!(
                    packed,
                    pack_arborescences_naive(&g, 0, k),
                    "trial {trial} diverged after removal"
                );
                validate_packing(&g, 0, &packed.unwrap()).unwrap();
                sparse_nontrivial += usize::from(sparse && k > 1);
            }
        }
        assert!(sparse_nontrivial >= 8, "sparse-id cases were trivial");
    }

    /// FNV-1a over `root` and every tree's edge list in order, as
    /// little-endian `u64` words.
    fn packing_hash(trees: &[Arborescence]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: usize| {
            for b in (w as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for t in trees {
            word(t.root);
            word(t.edges.len());
            for &(s, d) in &t.edges {
                word(s);
                word(d);
            }
        }
        h
    }

    /// The n = 1024 packings `tests/plan_golden.rs` (≤ 64 nodes) does not
    /// reach; seconds in release, minutes in debug.
    #[cfg(not(debug_assertions))]
    #[test]
    fn torus_1024_packings_are_pinned() {
        for (cap, want) in [(1, 0x551d_fe0d_890d_2416u64), (2, 0xe091_9d2b_97de_2499)] {
            let g = gen::torus(32, 32, cap);
            let k = broadcast_rate(&g, 0);
            assert_eq!(k, 4 * cap);
            let trees = pack_arborescences(&g, 0, k).expect("packing exists");
            assert_eq!(
                packing_hash(&trees),
                want,
                "torus:32:32:{cap} packing moved: {:#018x}",
                packing_hash(&trees)
            );
        }
    }

    #[test]
    fn bfs_order_parents_precede_children() {
        let g = gen::complete(5, 1);
        let trees = pack_arborescences(&g, 0, 2).unwrap();
        for t in &trees {
            let order = t.bfs_order();
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            for &(s, d) in &t.edges {
                assert!(pos[&s] < pos[&d]);
            }
        }
    }

    #[test]
    fn arborescence_accessors() {
        let t = Arborescence {
            root: 0,
            edges: vec![(0, 1), (1, 2), (0, 3)],
        };
        assert_eq!(t.parent(2), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.children(0), vec![1, 3]);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.bfs_order(), vec![0, 1, 3, 2]);
    }
}
