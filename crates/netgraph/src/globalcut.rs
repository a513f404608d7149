//! Bounded global minimum cut of undirected capacitated graphs
//! (Nagamochi–Ono–Ibaraki contraction on a capped bucket queue).
//!
//! `U_k` minimises the global min cut over the members of `Ω_k`, so each
//! member is asked for `min(limit, mincut)` with `limit` the minimum so
//! far. Whether it beats `limit` or not, a member takes 2–6 contraction
//! phases on the `plan-cold` fabrics and 14–32 on `circulant:64:3:2` at
//! `f = 2`, so the phase has to be cheap.
//!
//! # The contraction rule
//!
//! For a bound `λ̄`, a *capped maximum-adjacency order* `v_1, v_2, …` always
//! continues with a vertex `v` maximising the key `min(λ̄, w(V_{l−1}, v))`,
//! where `V_l = {v_1, …, v_l}`; `λ(u, v)` is the minimum cut separating `u`
//! from `v`. With `λ̄ = ∞` it is Stoer and Wagner's order.
//!
//! **Lemma** (Nagamochi, Ono and Ibaraki's bounded priority).
//! `λ(v_i, v_j) ≥ min(λ̄, w(V_i, v_j))` for all `i < j`.
//!
//! *Proof.* Let `H` be the subgraph induced by `V_i ∪ {v_j}`: `v_1, …, v_i,
//! v_j` is a capped order of `H` (keys count only edges into `V_{l−1}`, and
//! each pick beat all of `H` left), and a cut of the graph separating `v_i`
//! from `v_j` contains one of `H`. So take `j = i + 1` and a cut `C`
//! separating them. Call `v_l` *active* if `C` separates it from `v_{l−1}`,
//! and let `C_l` be the edges of `C` inside `V_l`. Every active `v_l` has
//! `min(λ̄, w(V_{l−1}, v_l)) ≤ w(C_l)`: for the first, every edge from
//! `V_{l−1}` to `v_l` is in `C_l`; for a later one, with `v_a` the active
//! vertex before it, `v_a, …, v_{l−1}` lie across `C` from `v_l`, so the
//! edges `b = w(V_{l−1} ∖ V_{a−1}, v_l)` are in `C_l ∖ C_a`, and
//!
//! ```text
//! min(λ̄, w(V_{l−1}, v_l)) ≤ min(λ̄, w(V_{a−1}, v_l)) + b   (min(λ̄, x + b) ≤ min(λ̄, x) + b)
//!                         ≤ min(λ̄, w(V_{a−1}, v_a)) + b   (v_a was picked over v_l)
//!                         ≤ w(C_a) + b ≤ w(C_l).
//! ```
//!
//! `v_{i+1}` is active and `C_{i+1} = C`. ∎
//!
//! So a not-yet-chosen `u` whose adjacency to the chosen part reaches an
//! upper bound `λ̄` on the answer merges with the vertex just chosen. `λ̄`
//! is `limit`, lowered to the smallest weighted degree before each phase
//! (a vertex alone is a cut); the last vertex of a phase always merges.
//!
//! # The queue
//!
//! Keys lie in `0..=λ̄` and only rise. While `λ̄ ≤ 8m` for the phase's `m`
//! links, a phase keeps one bucket per key and a top pointer and skips
//! stale entries, `O(m + λ̄)`; above, where the buckets' memory would
//! outgrow the links', a binary heap of the same keys, `O(m log m)`. The
//! crossover measured in `docs/perf.md` lies at about `9m`–`11m`.

use std::collections::BinaryHeap;

use crate::graph::NodeId;
use crate::undirected::UnGraph;

/// The working buffers of [`MinCutScratch::min_cut`], for a caller that
/// cuts many node selections of one graph (the members of `Ω_k`) to reuse.
#[derive(Default)]
pub struct MinCutScratch {
    position: Vec<usize>,
    links: Vec<(usize, usize, u64)>,
    parent: Vec<usize>,
    class: Vec<usize>,
    first: Vec<usize>,
    neighbours: Vec<(usize, u64)>,
    adjacency: Vec<u64>,
    chosen: Vec<bool>,
    queue: OrderQueue,
}

/// Empties `buf` and refills it with `len` copies of `value`.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

impl MinCutScratch {
    /// `min(limit, c)` with `c` the global minimum cut of the subgraph of
    /// `u` induced by `nodes` (distinct ids): 0 if it is disconnected, and
    /// `limit` itself with fewer than two nodes, where there is no cut.
    /// Allocates only what earlier calls did not.
    ///
    /// # Panics
    ///
    /// Panics if a node is outside the universe.
    pub fn min_cut(&mut self, u: &UnGraph, nodes: &[NodeId], limit: u64) -> u64 {
        let MinCutScratch {
            position,
            links,
            parent,
            class,
            first,
            neighbours,
            adjacency,
            chosen,
            queue,
        } = self;
        // Vertices are `0..alive`: positions in `nodes` at first, then the
        // classes the last phase merged them into, numbered afresh.
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
        let mut alive = nodes.len();
        let mut bound = limit;
        while alive > 1 {
            // This phase's adjacency lists: `v`'s is
            // `neighbours[first[v]..first[v + 1]]`, filled from its end.
            refill(first, alive + 1, 0);
            for &(a, b, _) in links.iter() {
                first[a] += 1;
                first[b] += 1;
            }
            for v in 1..=alive {
                first[v] += first[v - 1];
            }
            refill(neighbours, 2 * links.len(), (0, 0));
            refill(adjacency, alive, 0);
            for &(a, b, w) in links.iter() {
                for (v, u) in [(a, b), (b, a)] {
                    first[v] -= 1;
                    neighbours[first[v]] = (u, w);
                    adjacency[v] += w;
                }
            }
            // A vertex on its own is a cut (`adjacency` holds degrees here).
            bound = adjacency.iter().copied().fold(bound, u64::min);
            if bound == 0 {
                break;
            }
            // One capped maximum-adjacency order (keys `min(bound,
            // adjacency)`, stale entries skipped, a vertex no link reached
            // when the queue runs dry); `parent` collects the merges.
            adjacency.fill(0);
            refill(chosen, alive, false);
            parent.clear();
            parent.extend(0..alive);
            queue.reset(bound, 2 * links.len());
            let mut unreached = 0..alive;
            loop {
                let next = match queue.pop() {
                    Some((seen, v)) if !chosen[v] && seen == adjacency[v].min(bound) => v,
                    Some(_) => continue,
                    None => match unreached.find(|&v| !chosen[v]) {
                        Some(v) => v,
                        None => break,
                    },
                };
                chosen[next] = true;
                // Stays a root: the merges below hang other roots on it.
                let root = find(parent, next);
                for &(u, w) in &neighbours[first[next]..first[next + 1]] {
                    if chosen[u] {
                        continue;
                    }
                    adjacency[u] += w;
                    if adjacency[u] >= bound {
                        let a = find(parent, u);
                        parent[a] = root;
                    }
                    // Below the cap before, so its key rose.
                    if adjacency[u] - w < bound {
                        queue.push(adjacency[u].min(bound), u);
                    }
                }
            }
            // Contract: number the classes; links inside one vanish,
            // parallel ones just add.
            refill(class, alive, usize::MAX);
            let mut classes = 0;
            for v in 0..alive {
                let root = find(parent, v);
                if class[root] == usize::MAX {
                    class[root] = classes;
                    classes += 1;
                }
                class[v] = class[root];
            }
            for link in links.iter_mut() {
                *link = (class[link.0], class[link.1], link.2);
            }
            links.retain(|&(a, b, _)| a != b);
            alive = classes;
        }
        bound
    }
}

/// One phase's vertices by key, highest first: one bucket per key, or a
/// heap when there are none (the module doc's *The queue*). Entries go
/// stale when a key rises; the caller skips them.
#[derive(Default)]
struct OrderQueue {
    buckets: Vec<Vec<usize>>,
    /// No bucket above this one holds an entry.
    top: usize,
    heap: BinaryHeap<(u64, usize)>,
}

impl OrderQueue {
    /// Empties the queue for keys `0..=cap`: buckets if `cap` is at most
    /// four per half-edge, else the heap.
    fn reset(&mut self, cap: u64, half_edges: usize) {
        self.buckets.iter_mut().for_each(Vec::clear);
        let cap = usize::try_from(cap).unwrap_or(usize::MAX);
        let buckets = if cap <= 4 * half_edges { cap + 1 } else { 0 };
        self.buckets.resize_with(buckets, Vec::new);
        self.top = 0;
        self.heap.clear();
    }

    fn push(&mut self, key: u64, v: usize) {
        match self.buckets.get_mut(key as usize) {
            Some(bucket) => {
                bucket.push(v);
                self.top = self.top.max(key as usize);
            }
            None => self.heap.push((key, v)),
        }
    }

    /// Removes an entry of the highest key: `(key, vertex)`.
    fn pop(&mut self) -> Option<(u64, usize)> {
        if self.buckets.is_empty() {
            return self.heap.pop();
        }
        loop {
            if let Some(v) = self.buckets[self.top].pop() {
                return Some((self.top as u64, v));
            }
            self.top = self.top.checked_sub(1)?;
        }
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
                MinCutScratch::default().min_cut(&u, nodes, limit),
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
        for trial in 0..if heavy { 500 } else { 100 } {
            let n = rng.gen_range(5..=if heavy { 14 } else { 9 });
            // Two complete halves joined by a few bridges: the cut is
            // below every degree, so only a true capped order finds it.
            let (half, bridges) = (n / 2, rng.gen_range(1..=2));
            let dense = match trial % 5 {
                0 => gen::random_connected(n, 0.5, 4, &mut rng),
                1 => gen::complete_heterogeneous(n, 1, 5, &mut rng),
                2 => gen::random_k_connected(n, 3, 3, 0.2, &mut rng),
                // Links of at most 2 keep every phase on buckets: its
                // smallest degree is at most `4m / alive ≤ 2m`.
                3 => gen::barbell(half, 1, bridges, 1),
                // Links of 2^33 and more: a phase's bound is 0 (no queue)
                // or above `8m`, so every queue is the heap.
                _ => gen::barbell(half, rng.gen_range(1 << 34..1 << 40), bridges, 1 << 33),
            };
            // Thinned so that some graphs fall apart, and relabelled so
            // that no order by id is a maximum-adjacency one.
            let keep_link = if trial % 2 == 0 { 1.0 } else { 0.55 };
            let mut label: Vec<NodeId> = dense.nodes().collect();
            for i in (1..label.len()).rev() {
                label.swap(i, rng.gen_range(0..=i));
            }
            let mut g = DiGraph::new(dense.node_count());
            for (_, e) in dense.edges() {
                if rng.gen_bool(keep_link) {
                    g.add_edge(label[e.src], label[e.dst], e.cap);
                }
            }
            let all: Vec<NodeId> = g.nodes().collect();
            cuts.extend(check(&g, &all));
            // A proper subset, as `Ω_k` selects them.
            let dropped = rng.gen_range(0..g.node_count());
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
        assert_eq!(MinCutScratch::default().min_cut(&u, &[1], 9), 9);
        assert_eq!(MinCutScratch::default().min_cut(&u, &[], 9), 9);
    }

    #[test]
    fn respects_inactive_nodes() {
        let mut g = gen::complete(5, 1);
        g.remove_node(4);
        // K4 with doubled caps (2 per undirected edge): global cut = 6,
        // and the removed node's links are gone from the view.
        assert_eq!(check(&g, &[0, 1, 2, 3]), Some(6));
        let u = UnGraph::from_digraph(&g);
        assert_eq!(
            MinCutScratch::default().min_cut(&u, &[0, 1, 2, 3, 4], u64::MAX),
            0
        );
    }
}
