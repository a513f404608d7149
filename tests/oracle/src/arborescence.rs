//! The reference arborescence packer.
//!
//! [`pack_arborescences_naive`] decides each candidate edge's safety by
//! re-running a max-flow from the root to every node on the remaining
//! capacities. The production packer decides the same boolean by
//! repairing flow witnesses in place (see [`nab_netgraph::arborescence`]),
//! so the two must return the same trees in the same order.

use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::flow::FlowNet;
use nab_netgraph::{DiGraph, NodeId};

/// Reference implementation of [`pack_arborescences`]: Lovász's constructive
/// proof with a full `O(V)`-max-flow invariant check per candidate edge.
///
/// The differential oracle: [`pack_arborescences`] must produce
/// bit-identical output.
///
/// # Panics
///
/// Panics if `root` is inactive.
///
/// [`pack_arborescences`]: nab_netgraph::arborescence::pack_arborescences
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

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::arborescence::{pack_arborescences, validate_packing};
    use nab_netgraph::flow::broadcast_rate;
    use nab_netgraph::gen;

    /// Asserts `packed == naive` on `g` for `k − 1`, `k` and `k + 1` trees
    /// (`k` the broadcast rate) and returns `k`.
    fn assert_matches_naive(g: &DiGraph, what: &str) -> u64 {
        let k = broadcast_rate(g, 0);
        for req in k.saturating_sub(1)..=k + 1 {
            let packed = pack_arborescences(g, 0, req);
            assert_eq!(
                packed,
                pack_arborescences_naive(g, 0, req),
                "{what} diverged at k={req}"
            );
            assert_eq!(packed.is_some(), req <= k, "{what} at k={req}");
            if let Some(trees) = packed {
                validate_packing(g, 0, &trees).unwrap();
            }
        }
        k
    }

    // Debug builds keep a sample of the differential cases; CI's
    // release-mode run of this crate covers ≥ 500 (a case is one graph at
    // one `k`).

    #[test]
    fn witness_packer_is_bit_identical_to_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let heavy = !cfg!(debug_assertions);
        let mut rng = StdRng::seed_from_u64(77);
        let mut nontrivial = 0;
        let trials = if heavy { 180 } else { 24 };
        for trial in 0..trials {
            let n = rng.gen_range(5..=if heavy { 9 } else { 7 });
            let g = match trial % 3 {
                0 => gen::random_connected(n, 0.5, 3, &mut rng),
                1 => gen::random_k_connected(n, 3, 4, 0.2, &mut rng),
                _ => gen::complete_heterogeneous(n.min(6), 1, 3, &mut rng),
            };
            let k = assert_matches_naive(&g, &format!("trial {trial}"));
            nontrivial += usize::from(k > 1);
        }
        assert!(nontrivial >= trials / 2, "mostly trivial packings");
    }

    #[test]
    fn witness_packer_matches_naive_after_edge_removals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let heavy = !cfg!(debug_assertions);
        let mut rng = StdRng::seed_from_u64(41);
        let mut sparse_nontrivial = 0;
        let trials = if heavy { 64 } else { 16 };
        for trial in 0..trials {
            let mut g = gen::random_k_connected(8, 3, 3, 0.3, &mut rng);
            // An exposed node leaves its edges in the id space, so the
            // live ids are sparse (the packer's edge `k` is the k-th
            // *live* edge, not edge id `k`).
            let sparse = trial % 2 == 1;
            if sparse {
                g.remove_node(rng.gen_range(1..8));
                let ids: Vec<nab_netgraph::EdgeId> = g.edges().map(|(id, _)| id).collect();
                assert!(ids.iter().enumerate().any(|(k, &id)| k != id));
            }
            // Dispute-style removals shrink the graph between packings.
            for _ in 0..3 {
                let a = rng.gen_range(1..8);
                let b = rng.gen_range(1..8);
                if a != b {
                    g.remove_edges_between(a, b);
                }
                let k = assert_matches_naive(&g, &format!("trial {trial} after removal"));
                sparse_nontrivial += usize::from(sparse && k > 1);
            }
        }
        assert!(
            sparse_nontrivial >= trials / 2,
            "sparse-id cases were trivial"
        );
    }

    #[test]
    fn witness_packer_matches_naive_on_the_rollback_case() {
        // `nab_netgraph::arborescence`'s rollback test graph: in the second
        // tree, edge 11 breaks three witnesses and is rejected after two
        // of them were rerouted.
        let links = [
            (0, 1, 2),
            (1, 0, 1),
            (1, 2, 2),
            (2, 1, 2),
            (2, 3, 2),
            (3, 2, 2),
            (3, 4, 1),
            (4, 3, 1),
            (4, 5, 1),
            (5, 4, 1),
            (5, 0, 2),
            (0, 5, 1),
            (0, 2, 1),
            (0, 4, 1),
            (2, 4, 1),
            (3, 0, 1),
            (3, 5, 2),
            (5, 2, 2),
            (5, 3, 1),
        ];
        let mut g = DiGraph::new(6);
        for (s, d, cap) in links {
            g.add_edge(s, d, cap);
        }
        assert_eq!(assert_matches_naive(&g, "rollback case"), 4);
    }
}
