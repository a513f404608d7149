//! Property-based tests for flows, packings, and connectivity.

use nab_netgraph::arborescence::{pack_arborescences, validate_packing};
use nab_netgraph::connectivity::{vertex_connectivity_pair, PathExtractor};
use nab_netgraph::flow::{
    broadcast_rate, min_cut, min_cut_undirected, min_pairwise_cut_undirected, FlowNet,
};
use nab_netgraph::gen;
use nab_netgraph::treepack::{max_spanning_trees, pack_spanning_trees, validate_tree_packing};
use nab_netgraph::{DiGraph, NodeId, UnGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The path extraction [`PathExtractor`] replaced, kept as its oracle: a
/// fresh split network for the one pair (every node `v` split into `v`
/// and `v + n` by a unit arc, every live edge a unit arc `u + n → v`), an
/// uncapped max-flow, and per node a list of flow-carrying successors
/// popped from the back.
fn paths_on_a_fresh_network(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    k: usize,
) -> Option<Vec<Vec<NodeId>>> {
    let n = g.node_count();
    let mut net = FlowNet::new(2 * n);
    for v in g.nodes() {
        net.add_arc(v, v + n, 1);
    }
    let arcs: Vec<_> = g
        .edges()
        .map(|(_, e)| (net.add_arc(e.src + n, e.dst, 1), e.src, e.dst))
        .collect();
    if (net.max_flow(s + n, t) as usize) < k {
        return None;
    }
    let mut flow_out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (arc, src, dst) in arcs {
        if net.flow_on(arc) == 1 {
            flow_out[src].push(dst);
        }
    }
    let mut paths = Vec::with_capacity(k);
    for _ in 0..k {
        let mut path = vec![s];
        let mut cur = s;
        while cur != t {
            cur = flow_out[cur].pop().expect("flow decomposition ran dry");
            path.push(cur);
        }
        paths.push(path);
    }
    Some(paths)
}

/// Strategy: a random strongly-connected digraph described by (n, seed,
/// density, max capacity).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (4usize..8, any::<u64>(), 0.2f64..0.9, 1u64..5).prop_map(|(n, seed, p, cap)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::random_connected(n, p, cap, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mincut_bounded_by_degree_cuts(g in arb_graph()) {
        for t in 1..g.node_count() {
            let cut = min_cut(&g, 0, t);
            let in_cap: u64 = g.in_edges(t).map(|(_, e)| e.cap).sum();
            let out_cap: u64 = g.out_edges(0).map(|(_, e)| e.cap).sum();
            prop_assert!(cut <= in_cap);
            prop_assert!(cut <= out_cap);
        }
    }

    #[test]
    fn broadcast_rate_is_min_of_mincuts(g in arb_graph()) {
        let rate = broadcast_rate(&g, 0);
        let direct = (1..g.node_count()).map(|t| min_cut(&g, 0, t)).min().unwrap();
        prop_assert_eq!(rate, direct);
    }

    #[test]
    fn edmonds_packing_achieves_broadcast_rate(g in arb_graph()) {
        let rate = broadcast_rate(&g, 0);
        let trees = pack_arborescences(&g, 0, rate).expect("Edmonds guarantees a packing");
        prop_assert_eq!(trees.len() as u64, rate);
        prop_assert!(validate_packing(&g, 0, &trees).is_ok());
    }

    #[test]
    fn undirected_cut_at_least_directed(g in arb_graph()) {
        let u = UnGraph::from_digraph(&g);
        for t in 1..g.node_count() {
            prop_assert!(min_cut_undirected(&u, 0, t) >= min_cut(&g, 0, t));
        }
    }

    #[test]
    fn tutte_half_cut_trees_pack(g in arb_graph()) {
        let u = UnGraph::from_digraph(&g);
        let cut = min_pairwise_cut_undirected(&u).unwrap();
        let k = (cut / 2) as usize;
        if k > 0 {
            let trees = pack_spanning_trees(&u, k).expect("Tutte/Nash-Williams");
            prop_assert!(validate_tree_packing(&u, &trees).is_ok());
        }
    }

    #[test]
    fn strength_at_least_half_min_cut(g in arb_graph()) {
        let u = UnGraph::from_digraph(&g);
        let cut = min_pairwise_cut_undirected(&u).unwrap();
        let strength = max_spanning_trees(&u) as u64;
        prop_assert!(strength >= cut / 2);
        // And strength can never exceed the min cut itself.
        prop_assert!(strength <= cut);
    }

    #[test]
    fn disjoint_paths_match_connectivity(g in arb_graph()) {
        let k = vertex_connectivity_pair(&g, 0, g.node_count() - 1) as usize;
        if k > 0 {
            let paths = PathExtractor::new(&g).extract(0, g.node_count() - 1, k)
                .expect("connectivity many paths");
            prop_assert_eq!(paths.len(), k);
            // Pairwise internal disjointness.
            #[expect(clippy::disallowed_types, reason = "a membership oracle; never iterated")]
            let mut internal = std::collections::HashSet::new();
            for p in &paths {
                for &v in &p[1..p.len() - 1] {
                    prop_assert!(internal.insert(v));
                }
            }
        }
        prop_assert!(PathExtractor::new(&g).extract(0, g.node_count() - 1, k + 1).is_none());
    }

    /// One extractor reused over every ordered pair, in a shuffled order,
    /// against the decomposition it replaced (a fresh split network per
    /// pair) and against the one-shot wrapper: the same paths, in the same
    /// order, or `None` alike — on sparse, re-capped circulant and
    /// heterogeneous complete graphs, some with nodes removed.
    #[test]
    fn reused_extractor_matches_a_fresh_network_per_pair(
        family in 0u8..3,
        f in 0usize..=2,
        extra in 0usize..4,
        removed in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n = 3 * f + 3 + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = match family {
            0 => gen::random_k_connected(n, 2 * f + 1, 9, 0.2, &mut rng),
            1 => {
                let mut g = gen::circulant(n, f + 1, 1);
                let ids: Vec<_> = g.edges().map(|(id, _)| id).collect();
                for id in ids {
                    g.set_edge_cap(id, rng.gen_range(1..=12));
                }
                g
            }
            _ => gen::complete_heterogeneous(n, 1, 7, &mut rng),
        };
        for _ in 0..removed {
            g.remove_node(rng.gen_range(0..n));
        }
        let k = 2 * f + 1;
        let mut pairs: Vec<(usize, usize)> = g
            .nodes()
            .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        let mut extractor = PathExtractor::new(&g);
        for (s, t) in pairs {
            let want = paths_on_a_fresh_network(&g, s, t, k);
            prop_assert_eq!(&extractor.extract(s, t, k), &want, "{} -> {}", s, t);
            prop_assert_eq!(&PathExtractor::new(&g).extract(s, t, k), &want, "{} -> {}", s, t);
        }
    }

    #[test]
    fn removing_an_edge_never_raises_rate(g in arb_graph()) {
        let before = broadcast_rate(&g, 0);
        let Some((_, e)) = g.edges().next() else { return Ok(()); };
        let (src, dst) = (e.src, e.dst);
        let mut g2 = g.clone();
        g2.remove_edges_between(src, dst);
        if g2.all_reachable_from(0) {
            prop_assert!(broadcast_rate(&g2, 0) <= before);
        }
    }
}
