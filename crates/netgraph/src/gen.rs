//! Graph generators: the paper's worked examples plus families used by the
//! experiments.

use rand::Rng;

use crate::graph::DiGraph;

/// The 4-node directed graph of Figure 1(a).
///
/// Reconstructed from the constraints the paper states for it:
/// `MINCUT(G,1,2) = MINCUT(G,1,4) = 2`, `MINCUT(G,1,3) = 3`, hence `γ = 2`;
/// no link between nodes 2 and 4; and after nodes 2 and 3 are found in
/// dispute (Figure 1(b)), the two candidate fault-free subgraphs
/// `{1,2,4}` and `{1,3,4}` have `U_k = 2`.
///
/// Node ids are zero-based: paper node `i` is `i − 1` here.
pub fn figure_1a() -> DiGraph {
    let mut g = DiGraph::new(4);
    g.add_edge(0, 1, 2); // 1 -> 2, cap 2
    g.add_edge(0, 2, 2); // 1 -> 3, cap 2
    g.add_edge(0, 3, 1); // 1 -> 4, cap 1
    g.add_edge(1, 2, 1); // 2 -> 3, cap 1
    g.add_edge(2, 3, 1); // 3 -> 4, cap 1
    g.add_edge(3, 0, 1); // 4 -> 1, cap 1
    g
}

/// Figure 1(b): the graph of Figure 1(a) after nodes 2 and 3 (ids 1 and 2)
/// have been found in dispute, removing the links between them.
pub fn figure_1b() -> DiGraph {
    let mut g = figure_1a();
    g.remove_edges_between(1, 2);
    g
}

/// The 4-node directed graph of Figure 2(a).
///
/// Reconstructed from the paper's description of Figure 2(c): `γ = 2` and
/// two unit-capacity spanning trees embed in the graph with link (1,2) used
/// by both (so `z_(1,2) = 2`); and of Figure 2(d)/Appendix C.3: directed
/// edges (2,3), (1,4), (4,3) exist and their undirected versions form a
/// spanning tree of the undirected view.
pub fn figure_2a() -> DiGraph {
    let mut g = DiGraph::new(4);
    g.add_edge(0, 1, 2); // 1 -> 2, cap 2 (used by both spanning trees)
    g.add_edge(1, 2, 1); // 2 -> 3
    g.add_edge(1, 3, 1); // 2 -> 4
    g.add_edge(0, 3, 1); // 1 -> 4
    g.add_edge(3, 2, 1); // 4 -> 3
    g
}

/// The complete digraph on `n` nodes with uniform link capacity `cap`.
pub fn complete(n: usize, cap: u64) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(i, j, cap);
            }
        }
    }
    g
}

/// A complete digraph with capacities drawn uniformly from
/// `lo..=hi` — the heterogeneous-capacity setting where capacity-oblivious
/// protocols lose badly (Section 1).
pub fn complete_heterogeneous<R: Rng + ?Sized>(n: usize, lo: u64, hi: u64, rng: &mut R) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(i, j, rng.gen_range(lo..=hi));
            }
        }
    }
    g
}

/// A bidirectional ring on `n` nodes with uniform capacity.
pub fn ring(n: usize, cap: u64) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        g.add_edge(i, j, cap);
        g.add_edge(j, i, cap);
    }
    g
}

/// A random digraph: every ordered pair gets an edge with probability `p`
/// and capacity uniform in `1..=max_cap`; a bidirectional unit-capacity ring
/// is always included so the graph is strongly connected.
pub fn random_connected<R: Rng + ?Sized>(n: usize, p: f64, max_cap: u64, rng: &mut R) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        if g.find_edge(i, j).is_none() {
            g.add_edge(i, j, rng.gen_range(1..=max_cap));
        }
        if g.find_edge(j, i).is_none() {
            g.add_edge(j, i, rng.gen_range(1..=max_cap));
        }
    }
    for i in 0..n {
        for j in 0..n {
            if i != j && g.find_edge(i, j).is_none() && rng.gen_bool(p) {
                g.add_edge(i, j, rng.gen_range(1..=max_cap));
            }
        }
    }
    g
}

/// A "barbell": two complete clusters of size `half` joined by `bridges`
/// bidirectional links of capacity `bridge_cap` — a family whose broadcast
/// rate is throttled by the bridge, used to stress capacity-awareness.
pub fn barbell(half: usize, cluster_cap: u64, bridges: usize, bridge_cap: u64) -> DiGraph {
    assert!(bridges <= half, "at most one bridge per node pair");
    let n = 2 * half;
    let mut g = DiGraph::new(n);
    for i in 0..half {
        for j in 0..half {
            if i != j {
                g.add_edge(i, j, cluster_cap);
                g.add_edge(half + i, half + j, cluster_cap);
            }
        }
    }
    for b in 0..bridges {
        g.add_edge(b, half + b, bridge_cap);
        g.add_edge(half + b, b, bridge_cap);
    }
    g
}

/// A circulant digraph: every node `i` gets bidirectional links to
/// `i ± 1, …, i ± m (mod n)`, all with capacity `cap`.
///
/// For `n > 2m` this is the Harary construction `H_{2m,n}`: vertex
/// connectivity exactly `2m` with the minimum possible number of edges —
/// the cheapest family meeting NAB's `2f+1`-connectivity prerequisite.
///
/// # Panics
///
/// Panics unless `1 ≤ m` and `2m < n`.
pub fn circulant(n: usize, m: usize, cap: u64) -> DiGraph {
    assert!(m >= 1 && 2 * m < n, "circulant needs 1 ≤ m and 2m < n");
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for d in 1..=m {
            let j = (i + d) % n;
            g.add_edge(i, j, cap);
            g.add_edge(j, i, cap);
        }
    }
    g
}

/// A random digraph guaranteed `k`-vertex-connected: a circulant
/// `H_{2⌈k/2⌉,n}` backbone (connectivity `≥ k`) with heterogeneous backbone
/// capacities in `1..=max_cap` plus extra random links, each ordered pair
/// added with probability `extra_p`.
///
/// This is the parameterized family the scenario engine sweeps to exercise
/// NAB on networks that *just* clear the `2f+1`-connectivity prerequisite
/// (`k = 2f+1`) instead of the comfortable complete graph.
///
/// # Panics
///
/// Panics unless `1 ≤ k`, `2⌈k/2⌉ < n`, `max_cap ≥ 1`, and
/// `0.0 ≤ extra_p ≤ 1.0`.
pub fn random_k_connected<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    max_cap: u64,
    extra_p: f64,
    rng: &mut R,
) -> DiGraph {
    assert!(k >= 1, "k-connected needs k ≥ 1");
    assert!(max_cap >= 1, "capacities must be positive");
    assert!(
        (0.0..=1.0).contains(&extra_p),
        "extra_p must be a probability in [0, 1]"
    );
    let m = k.div_ceil(2);
    assert!(2 * m < n, "random_k_connected needs 2⌈k/2⌉ < n");
    let mut g = DiGraph::new(n);
    // Backbone: circulant links with random capacities (both directions
    // drawn independently — the model is directed).
    for i in 0..n {
        for d in 1..=m {
            let j = (i + d) % n;
            g.add_edge(i, j, rng.gen_range(1..=max_cap));
            g.add_edge(j, i, rng.gen_range(1..=max_cap));
        }
    }
    // Extra random chords on top of the guaranteed backbone.
    for i in 0..n {
        for j in 0..n {
            if i != j && g.find_edge(i, j).is_none() && rng.gen_bool(extra_p) {
                g.add_edge(i, j, rng.gen_range(1..=max_cap));
            }
        }
    }
    g
}

/// A `k`-ary fat-tree (Clos) switch fabric: `(k/2)²` core switches plus
/// `k` pods of `k/2` aggregation and `k/2` edge switches, all links
/// bidirectional with capacity `cap`.
///
/// Hosts are omitted — every node is a switch, so the graph stays
/// `k/2`-vertex-connected (an edge switch's only neighbours are its pod's
/// aggregation layer). Node ids: cores first (`0..(k/2)²`, so the broadcast
/// SOURCE is a core switch), then per pod the aggregation switches followed
/// by the edge switches. Total nodes: `(k/2)² + k²`; `k = 32` gives the
/// 1280-node datacenter fabric used by `dc-grid`.
///
/// # Panics
///
/// Panics unless `k` is even and `k ≥ 2`.
pub fn fat_tree(k: usize, cap: u64) -> DiGraph {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree needs even k ≥ 2");
    let half = k / 2;
    let cores = half * half;
    let n = cores + k * k;
    let mut g = DiGraph::new(n);
    let agg = |pod: usize, i: usize| cores + pod * k + i;
    let edge = |pod: usize, j: usize| cores + pod * k + half + j;
    for pod in 0..k {
        // Every edge switch uplinks to every aggregation switch in its pod.
        for j in 0..half {
            for i in 0..half {
                g.add_edge(edge(pod, j), agg(pod, i), cap);
                g.add_edge(agg(pod, i), edge(pod, j), cap);
            }
        }
        // Aggregation switch `i` uplinks to core stripe `i`.
        for i in 0..half {
            for c in 0..half {
                let core = i * half + c;
                g.add_edge(agg(pod, i), core, cap);
                g.add_edge(core, agg(pod, i), cap);
            }
        }
    }
    g
}

/// A 2-D torus: node `(r, c)` is `r·cols + c` and links bidirectionally to
/// its four wraparound grid neighbours with capacity `cap` — the sparse
/// constant-degree fabric (vertex connectivity 4) whose planning cost is
/// dominated by diameter, not degree.
///
/// # Panics
///
/// Panics unless `rows ≥ 3` and `cols ≥ 3` (smaller wraps collapse into
/// duplicate links).
pub fn torus(rows: usize, cols: usize, cap: u64) -> DiGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs rows ≥ 3 and cols ≥ 3");
    let mut g = DiGraph::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            let right = id(r, (c + 1) % cols);
            let down = id((r + 1) % rows, c);
            g.add_edge(id(r, c), right, cap);
            g.add_edge(right, id(r, c), cap);
            g.add_edge(id(r, c), down, cap);
            g.add_edge(down, id(r, c), cap);
        }
    }
    g
}

/// A dragonfly: `groups` groups of `routers` routers, complete inside each
/// group, one bidirectional global link per group pair. The router carrying
/// the global link for the pair `(i, j)` is chosen by the pair's distance
/// `d = j − i`, spreading global links round-robin over a group's routers.
/// All links have capacity `cap`.
///
/// # Panics
///
/// Panics unless `groups ≥ 2` and `routers ≥ 2`.
pub fn dragonfly(groups: usize, routers: usize, cap: u64) -> DiGraph {
    assert!(
        groups >= 2 && routers >= 2,
        "dragonfly needs groups ≥ 2 and routers ≥ 2"
    );
    let mut g = DiGraph::new(groups * routers);
    let id = |grp: usize, r: usize| grp * routers + r;
    for grp in 0..groups {
        for a in 0..routers {
            for b in 0..routers {
                if a != b {
                    g.add_edge(id(grp, a), id(grp, b), cap);
                }
            }
        }
    }
    for i in 0..groups {
        for j in (i + 1)..groups {
            let d = j - i;
            let u = id(i, (d - 1) % routers);
            let v = id(j, (d - 1) % routers);
            g.add_edge(u, v, cap);
            g.add_edge(v, u, cap);
        }
    }
    g
}

/// A random expander: a bidirectional ring backbone (so the graph is always
/// strongly connected) plus `⌈(degree − 2) / 2⌉` rounds of random
/// bidirectional chords, one attempted per node per round, with capacities
/// uniform in `1..=max_cap`. Random constant-degree graphs of this shape are
/// expanders with high probability — the sparse reconfigurable-fabric model
/// of the OCS literature.
///
/// # Panics
///
/// Panics unless `n ≥ 3`, `degree ≥ 2`, and `max_cap ≥ 1`.
pub fn random_expander<R: Rng + ?Sized>(
    n: usize,
    degree: usize,
    max_cap: u64,
    rng: &mut R,
) -> DiGraph {
    assert!(n >= 3, "random_expander needs n ≥ 3");
    assert!(degree >= 2, "random_expander needs degree ≥ 2");
    assert!(max_cap >= 1, "capacities must be positive");
    let mut g = DiGraph::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        g.add_edge(i, j, rng.gen_range(1..=max_cap));
        g.add_edge(j, i, rng.gen_range(1..=max_cap));
    }
    let rounds = (degree - 2).div_ceil(2);
    for _ in 0..rounds {
        for i in 0..n {
            let j = rng.gen_range(0..n);
            if i != j && g.find_edge(i, j).is_none() && g.find_edge(j, i).is_none() {
                g.add_edge(i, j, rng.gen_range(1..=max_cap));
                g.add_edge(j, i, rng.gen_range(1..=max_cap));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::strongly_connected;
    use crate::connectivity::tests::vertex_connectivity;
    use crate::flow::{broadcast_rate, min_cut};

    #[test]
    fn figure_1a_satisfies_all_stated_constraints() {
        let g = figure_1a();
        assert_eq!(min_cut(&g, 0, 1), 2);
        assert_eq!(min_cut(&g, 0, 2), 3);
        assert_eq!(min_cut(&g, 0, 3), 2);
        assert_eq!(broadcast_rate(&g, 0), 2);
        // No link between paper-nodes 2 and 4 (ids 1 and 3).
        assert!(g.find_edge(1, 3).is_none());
        assert!(g.find_edge(3, 1).is_none());
    }

    #[test]
    fn figure_1b_drops_the_disputed_links() {
        let g = figure_1b();
        assert!(g.find_edge(1, 2).is_none());
        // Still broadcasts at rate 2.
        assert_eq!(broadcast_rate(&g, 0), 2);
    }

    #[test]
    fn figure_2a_has_gamma_2() {
        let g = figure_2a();
        assert_eq!(broadcast_rate(&g, 0), 2);
        assert_eq!(g.find_edge(0, 1).unwrap().1.cap, 2);
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(5, 2);
        assert_eq!(g.edge_count(), 20);
        assert_eq!(broadcast_rate(&g, 0), 8); // (n-1) * cap on in-cut
        assert_eq!(vertex_connectivity(&g), Some(4));
    }

    #[test]
    fn ring_has_rate_cap_times_two() {
        let g = ring(5, 3);
        assert_eq!(broadcast_rate(&g, 0), 6);
    }

    #[test]
    fn barbell_rate_is_bridge_limited() {
        let g = barbell(3, 10, 1, 1);
        // Crossing to the far cluster passes the single unit bridge.
        assert_eq!(broadcast_rate(&g, 0), 1);
    }

    #[test]
    fn random_connected_is_strongly_connected() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let g = random_connected(7, 0.3, 4, &mut rng);
            for s in 0..7 {
                assert!(g.all_reachable_from(s));
            }
        }
    }

    #[test]
    fn circulant_is_harary_connectivity() {
        for (n, m) in [(5usize, 1usize), (7, 2), (9, 3), (10, 2)] {
            let g = circulant(n, m, 2);
            assert_eq!(
                vertex_connectivity(&g),
                Some(2 * m as u64),
                "H_{{{},{}}}",
                2 * m,
                n
            );
            // Minimum edge count for that connectivity: n·m in each direction.
            assert_eq!(g.edge_count(), 2 * n * m);
        }
    }

    #[test]
    fn random_k_connected_meets_its_promise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        for k in 1..=4usize {
            for _ in 0..3 {
                let g = random_k_connected(8, k, 4, 0.2, &mut rng);
                let conn = vertex_connectivity(&g).unwrap();
                assert!(conn >= k as u64, "k={k}: got connectivity {conn}");
                for (_, e) in g.edges() {
                    assert!((1..=4).contains(&e.cap));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2m < n")]
    fn circulant_rejects_overlapping_chords() {
        let _ = circulant(4, 2, 1);
    }

    #[test]
    fn fat_tree_structure_and_connectivity() {
        let g = fat_tree(4, 2);
        // (k/2)² cores + k pods × k switches.
        assert_eq!(g.node_count(), 4 + 16);
        // Per pod: (k/2)² edge-agg pairs + (k/2)² agg-core pairs, ×2 dirs.
        assert_eq!(g.edge_count(), 4 * (4 + 4) * 2);
        assert!(strongly_connected(&g));
        // Edge switches bottleneck the fabric at k/2 neighbours.
        assert_eq!(vertex_connectivity(&g), Some(2));
        assert_eq!(broadcast_rate(&g, 0), 2 * 2); // core has k/2 links of cap 2
    }

    #[test]
    fn torus_is_four_connected() {
        let g = torus(4, 5, 3);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 20 * 4); // degree 4, each dir counted once
        assert_eq!(vertex_connectivity(&g), Some(4));
        assert_eq!(broadcast_rate(&g, 0), 4 * 3);
    }

    #[test]
    #[should_panic(expected = "rows ≥ 3")]
    fn torus_rejects_degenerate_wrap() {
        let _ = torus(2, 5, 1);
    }

    #[test]
    fn dragonfly_structure() {
        let g = dragonfly(4, 3, 2);
        assert_eq!(g.node_count(), 12);
        // 4 groups × 3·2 intra edges + 6 group pairs × 2 dirs.
        assert_eq!(g.edge_count(), 4 * 6 + 6 * 2);
        assert!(strongly_connected(&g));
        assert!(vertex_connectivity(&g).unwrap() >= 1);
        assert!(broadcast_rate(&g, 0) >= 2);
    }

    #[test]
    fn random_expander_is_strongly_connected_with_bounded_caps() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..3 {
            let g = random_expander(16, 4, 5, &mut rng);
            assert!(strongly_connected(&g));
            assert!(vertex_connectivity(&g).unwrap() >= 2);
            for (_, e) in g.edges() {
                assert!((1..=5).contains(&e.cap));
            }
        }
    }

    #[test]
    fn heterogeneous_capacities_in_range() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let g = complete_heterogeneous(4, 2, 9, &mut rng);
        for (_, e) in g.edges() {
            assert!((2..=9).contains(&e.cap));
        }
    }
}
