//! Bounded global minimum cut of undirected capacitated graphs
//! (Nagamochi–Ono–Ibaraki contraction).
//!
//! `U_k` asks for the minimum over *all pairs* of undirected min cuts in
//! every candidate subgraph — the global min cut of each member of `Ω_k`,
//! of which there are `C(n, n−f)`, differing in `f` nodes. Only the
//! minimum over the members matters, so each one is asked for
//! `min(limit, mincut)` with `limit` the minimum found so far, and a
//! member that cannot beat it collapses in a phase or two.
//!
//! # The contraction rule
//!
//! A *maximum-adjacency order* `v_1, v_2, …` starts anywhere and always
//! continues with a vertex most heavily joined to those already chosen;
//! write `V_i = {v_1, …, v_i}` and `λ(u, v)` for the minimum cut
//! separating `u` from `v`.
//!
//! **Lemma.** `λ(v_i, v_j) ≥ w(V_i, v_j)` for all `i < j`.
//!
//! *Proof.* Let `H` be the subgraph induced by `V_i ∪ {v_j}`. The order
//! `v_1, …, v_i, v_j` is a maximum-adjacency order of `H`: each `v_l` was
//! the heaviest choice among everything outside `V_{l−1}`, hence among the
//! part of it in `H`, and `v_j` is all that is left at the end. By Stoer
//! and Wagner's lemma the last vertex of such an order, cut off alone, is
//! a minimum cut between the last two: `λ_H(v_i, v_j) = w(V_i, v_j)`.
//! Every cut of the whole graph that separates `v_i` from `v_j` contains a
//! cut of `H` that does, so `λ(v_i, v_j) ≥ λ_H(v_i, v_j)`. ∎
//!
//! So while an order is being built, any not-yet-chosen `u` whose
//! adjacency to the chosen part has reached an upper bound `λ̄` on the
//! answer can be merged with the vertex just chosen: no cut below `λ̄`
//! separates them. `λ̄` starts at `limit` and drops to the smallest
//! weighted degree before each phase (a vertex alone is a cut); the last
//! vertex of a phase always qualifies — Stoer–Wagner's one contraction per
//! phase — and in practice most of the graph does.

use std::collections::BinaryHeap;

use crate::graph::NodeId;
use crate::undirected::UnGraph;

/// `min(limit, c)` with `c` the global minimum cut of the subgraph of `u`
/// induced by `nodes` (distinct ids): 0 if it is disconnected, and `limit`
/// itself with fewer than two nodes, where there is no cut.
///
/// # Panics
///
/// Panics if a node is outside the universe.
pub fn bounded_min_cut(u: &UnGraph, nodes: &[NodeId], limit: u64) -> u64 {
    MinCutScratch::default().min_cut(u, nodes, limit)
}

/// The working buffers of [`bounded_min_cut`], for a caller that cuts many
/// node selections of one graph (the members of `Ω_k`) to reuse.
#[derive(Default)]
pub struct MinCutScratch {
    position: Vec<usize>,
    links: Vec<(usize, usize, u64)>,
    alive: Vec<usize>,
    parent: Vec<usize>,
    first: Vec<usize>,
    filled: Vec<usize>,
    neighbours: Vec<(usize, u64)>,
    adjacency: Vec<u64>,
    chosen: Vec<bool>,
    heap: BinaryHeap<(u64, usize)>,
}

/// Empties `buf` and refills it with `len` copies of `value`.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

impl MinCutScratch {
    /// [`bounded_min_cut`], allocating only what earlier calls did not.
    ///
    /// # Panics
    ///
    /// Panics if a node is outside the universe.
    pub fn min_cut(&mut self, u: &UnGraph, nodes: &[NodeId], limit: u64) -> u64 {
        let MinCutScratch {
            position,
            links,
            alive,
            parent,
            first,
            filled,
            neighbours,
            adjacency,
            chosen,
            heap,
        } = self;
        // Vertices are positions in `nodes`; a merged class goes by its
        // union-find root, and `alive` lists the roots.
        let k = nodes.len();
        refill(position, u.node_count(), usize::MAX);
        for (i, &v) in nodes.iter().enumerate() {
            position[v] = i;
        }
        links.clear();
        links.extend(
            u.edges()
                .map(|(_, e)| (position[e.a], position[e.b], e.cap))
                .filter(|&(a, b, _)| a != usize::MAX && b != usize::MAX),
        );
        alive.clear();
        alive.extend(0..k);
        parent.clear();
        parent.extend(0..k);
        // This phase's adjacency lists: `v`'s is
        // `neighbours[first[v]..first[v + 1]]`, filled up to `filled[v]`.
        refill(first, k + 1, 0);
        refill(filled, k, 0);
        refill(neighbours, 2 * links.len(), (0, 0));
        refill(adjacency, k, 0);
        refill(chosen, k, false);
        heap.clear();
        let mut bound = limit;
        while alive.len() > 1 {
            first.fill(0);
            for &(a, b, _) in links.iter() {
                first[a + 1] += 1;
                first[b + 1] += 1;
            }
            for v in 0..k {
                first[v + 1] += first[v];
            }
            filled.copy_from_slice(&first[..k]);
            adjacency.fill(0);
            for &(a, b, w) in links.iter() {
                for (v, u) in [(a, b), (b, a)] {
                    neighbours[filled[v]] = (u, w);
                    filled[v] += 1;
                    adjacency[v] += w;
                }
            }
            // A vertex on its own is a cut (`adjacency` holds degrees here).
            bound = alive.iter().map(|&v| adjacency[v]).fold(bound, u64::min);
            if bound == 0 {
                break;
            }
            // One maximum-adjacency order (stale heap entries are skipped);
            // `parent` collects the merges.
            for &v in alive.iter() {
                adjacency[v] = 0;
                chosen[v] = false;
            }
            heap.extend(alive.iter().map(|&v| (0, v)));
            while let Some((seen, next)) = heap.pop() {
                if chosen[next] || seen != adjacency[next] {
                    continue;
                }
                chosen[next] = true;
                for &(u, w) in &neighbours[first[next]..first[next + 1]] {
                    if chosen[u] {
                        continue;
                    }
                    adjacency[u] += w;
                    heap.push((adjacency[u], u));
                    if adjacency[u] >= bound {
                        let (a, b) = (find(parent, u), find(parent, next));
                        parent[a] = b;
                    }
                }
            }
            // Contract: links inside a class vanish, parallel ones just add.
            for link in links.iter_mut() {
                *link = (find(parent, link.0), find(parent, link.1), link.2);
            }
            links.retain(|&(a, b, _)| a != b);
            alive.retain(|&v| parent[v] == v);
        }
        bound
    }
}

/// Union-find root with path halving.
fn find(parent: &mut [usize], mut v: usize) -> usize {
    while parent[v] != v {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::min_cut_undirected;
    use crate::gen;
    use crate::graph::DiGraph;
    use std::collections::BTreeSet;

    /// Oracle: min over all pairs of `nodes` of the s–t max-flow cut in
    /// the induced undirected view.
    fn brute_force(g: &DiGraph, nodes: &[NodeId]) -> Option<u64> {
        let keep: BTreeSet<NodeId> = nodes.iter().copied().collect();
        let u = UnGraph::from_digraph(&g.induced_subgraph(&keep));
        let mut best = None::<u64>;
        for (i, &s) in nodes.iter().enumerate() {
            for &t in &nodes[i + 1..] {
                let c = min_cut_undirected(&u, s, t);
                best = Some(best.map_or(c, |b| b.min(c)));
            }
        }
        best
    }

    /// The bounded cut against the oracle at limits below, at and above
    /// the true value.
    fn check(g: &DiGraph, nodes: &[NodeId]) -> Option<u64> {
        let u = UnGraph::from_digraph(g);
        let exact = brute_force(g, nodes);
        let cut = exact.unwrap_or(u64::MAX);
        for limit in [
            0,
            cut / 2,
            cut.saturating_sub(1),
            cut,
            cut.saturating_add(1),
            u64::MAX,
        ] {
            assert_eq!(
                bounded_min_cut(&u, nodes, limit),
                limit.min(cut),
                "limit {limit}, cut {exact:?}, nodes {nodes:?} of {g:?}"
            );
        }
        exact
    }

    #[test]
    fn matches_flow_oracle_on_random_weighted_graphs_and_subsets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Debug builds keep the small cases; CI's release-mode run of this
        // crate adds the larger ones.
        let heavy = !cfg!(debug_assertions);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut cuts = BTreeSet::new();
        for trial in 0..if heavy { 300 } else { 60 } {
            let n = rng.gen_range(5..=if heavy { 14 } else { 9 });
            let dense = match trial % 3 {
                0 => gen::random_connected(n, 0.5, 4, &mut rng),
                1 => gen::complete_heterogeneous(n, 1, 5, &mut rng),
                _ => gen::random_k_connected(n, 3, 3, 0.2, &mut rng),
            };
            // Thinned so that some graphs fall apart.
            let keep_link = if trial % 2 == 0 { 1.0 } else { 0.55 };
            let mut g = DiGraph::new(n);
            for (_, e) in dense.edges() {
                if rng.gen_bool(keep_link) {
                    g.add_edge(e.src, e.dst, e.cap);
                }
            }
            let all: Vec<NodeId> = g.nodes().collect();
            cuts.extend(check(&g, &all));
            // A proper subset, as `Ω_k` selects them.
            let dropped = rng.gen_range(0..n);
            let subset: Vec<NodeId> = all.iter().copied().filter(|&v| v != dropped).collect();
            cuts.extend(check(&g, &subset));
        }
        assert!(cuts.contains(&0), "no disconnected case");
        assert!(cuts.len() >= 6, "only saw cuts {cuts:?}");
    }

    #[test]
    fn paper_example_cut() {
        // Figure 1(a) undirected: the thin corner (node 2 or 4,
        // degree-limited) gives the value.
        assert_eq!(check(&gen::figure_1a(), &[0, 1, 2, 3]), Some(3));
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 3);
        g.add_edge(2, 3, 3);
        assert_eq!(check(&g, &[0, 1, 2, 3]), Some(0));
        // Each half on its own is connected.
        assert_eq!(check(&g, &[2, 3]), Some(3));
    }

    #[test]
    fn antiparallel_capacities_add() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 0, 5);
        assert_eq!(check(&g, &[0, 1]), Some(7));
    }

    #[test]
    fn fewer_than_two_nodes_have_no_cut() {
        let u = UnGraph::from_digraph(&gen::complete(3, 1));
        assert_eq!(bounded_min_cut(&u, &[1], 9), 9);
        assert_eq!(bounded_min_cut(&u, &[], 9), 9);
    }

    #[test]
    fn respects_inactive_nodes() {
        let mut g = gen::complete(5, 1);
        g.remove_node(4);
        // K4 with doubled caps (2 per undirected edge): global cut = 6,
        // and the removed node's links are gone from the view.
        assert_eq!(check(&g, &[0, 1, 2, 3]), Some(6));
        let u = UnGraph::from_digraph(&g);
        assert_eq!(bounded_min_cut(&u, &[0, 1, 2, 3, 4], u64::MAX), 0);
    }
}
