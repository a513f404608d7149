//! Max-flow / min-cut (Dinic's algorithm) and the broadcast rate `γ`.
//!
//! `MINCUT(G, 1, j)` is the paper's notation for the s–t min cut from the
//! source to node `j`; the Phase-1 broadcast rate is
//! `γ_k = min_{j ∈ V_k} MINCUT(G_k, 1, j)` (Section 2), and the
//! equality-check parameter comes from pairwise min cuts of undirected
//! views (Section 3).

use crate::graph::{DiGraph, NodeId};
use crate::undirected::UnGraph;

/// A reusable Dinic max-flow solver over an explicit arc list.
///
/// Build with [`FlowNet::new`] (or [`FlowNet::from_digraph`]), add arcs,
/// then call [`FlowNet::max_flow`]. Residual state persists between
/// calls until [`FlowNet::reset`] returns the net to zero flow under new
/// capacities; that is how many queries (sinks, arc masks, shrinking
/// residual graphs) share one net and one set of scratch buffers.
#[derive(Debug, Clone)]
pub struct FlowNet {
    n: usize,
    // arcs[i] and arcs[i^1] are a residual pair.
    to: Vec<usize>,
    cap: Vec<u64>,
    /// The capacity arc `2k` was added with, at index `k`.
    cap0: Vec<u64>,
    head: Vec<Vec<usize>>, // arc indices per node
    // Scratch (BFS/DFS state, the capacities under the current arc mask,
    // indexed like `cap0`), kept so repeated queries on one net allocate
    // nothing.
    level: Vec<i32>,
    it: Vec<usize>,
    queue: Vec<usize>,
    masked: Vec<u64>,
}

impl FlowNet {
    /// An empty flow network over `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNet {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            cap0: Vec::new(),
            head: vec![Vec::new(); n],
            level: vec![-1; n],
            it: vec![0; n],
            queue: Vec::with_capacity(n),
            masked: Vec::new(),
        }
    }

    /// The network of `g`: one arc per live edge, in [`DiGraph::edges`]
    /// order, so the `k`-th live edge is arc `2k`.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut net = FlowNet::new(g.node_count());
        for (_, e) in g.edges() {
            net.add_arc(e.src, e.dst, e.cap);
        }
        net
    }

    /// Adds a directed arc `u → v` with the given capacity (and its zero
    /// residual reverse).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_arc(&mut self, u: usize, v: usize, cap: u64) -> usize {
        assert!(u < self.n && v < self.n, "arc endpoint out of range");
        let id = self.to.len();
        self.to.push(v);
        self.cap.push(cap);
        self.cap0.push(cap);
        self.head[u].push(id);
        self.to.push(u);
        self.cap.push(0);
        self.head[v].push(id + 1);
        id
    }

    /// Returns the net to zero flow with every arc `a` (the ids
    /// [`FlowNet::add_arc`] returned) at capacity `cap_of(a)` and every
    /// reverse twin at 0. Allocates nothing.
    pub fn reset(&mut self, cap_of: impl Fn(usize) -> u64) {
        for pair in 0..self.cap0.len() {
            self.cap[2 * pair] = cap_of(2 * pair);
            self.cap[2 * pair + 1] = 0;
        }
    }

    /// Flow pushed through the arc returned by [`FlowNet::add_arc`]
    /// (capacity of its reverse twin).
    pub fn flow_on(&self, arc: usize) -> u64 {
        self.cap[arc ^ 1]
    }

    /// Levels the residual graph from `s` into `self.level` until `t` is
    /// levelled; whether it was.
    ///
    /// Stopping there changes no flow. BFS levels layer by layer, so when
    /// `t` gets level `L` every node below `L` has its level, and every
    /// node left at −1 lies at `L` or beyond. Levels rise by one along a
    /// level path, so no node at `L` or beyond but `t` lies on one to
    /// `t`: levelled or not, such a node is a dead end to `dfs_push`,
    /// which tries the same arcs in the same order and finds the same
    /// augmenting paths as after a full levelling.
    fn bfs_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s);
        let mut next = 0;
        while next < self.queue.len() {
            let u = self.queue[next];
            next += 1;
            for &a in &self.head[u] {
                let v = self.to[a];
                if self.cap[a] > 0 && self.level[v] < 0 {
                    self.level[v] = self.level[u] + 1;
                    if v == t {
                        return true;
                    }
                    self.queue.push(v);
                }
            }
        }
        false
    }

    fn dfs_push(&mut self, u: usize, t: usize, pushed: u64) -> u64 {
        if u == t {
            return pushed;
        }
        while self.it[u] < self.head[u].len() {
            let a = self.head[u][self.it[u]];
            let v = self.to[a];
            if self.cap[a] > 0 && self.level[v] == self.level[u] + 1 {
                let d = self.dfs_push(v, t, pushed.min(self.cap[a]));
                if d > 0 {
                    self.cap[a] -= d;
                    self.cap[a ^ 1] += d;
                    return d;
                }
            }
            self.it[u] += 1;
        }
        0
    }

    /// Computes the max flow from `s` to `t`, consuming residual capacity.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        self.max_flow_limited(s, t, u64::MAX)
    }

    /// Like [`FlowNet::max_flow`] but stops augmenting once `limit` units
    /// have been pushed, returning `min(max_flow, limit)`.
    ///
    /// Threshold queries ("is the cut at least `k`?") and witness rebuilds
    /// only need this much flow, and capping bounds the work at
    /// `O(limit · (V + E))` instead of a full max-flow.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow_limited(&mut self, s: usize, t: usize, limit: u64) -> u64 {
        assert!(s < self.n && t < self.n && s != t, "bad flow endpoints");
        let mut total = 0u64;
        while total < limit && self.bfs_levels(s, t) {
            self.it.fill(0);
            while total < limit {
                let pushed = self.dfs_push(s, t, limit - total);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
        total
    }

    /// `min(limit, min_{t ∈ sinks} MINCUT(s, t))` over the arcs `keep`
    /// admits (it sees the ids [`FlowNet::add_arc`] returned; a rejected
    /// arc has capacity 0).
    ///
    /// Every sink starts from those capacities and zero flow, and is
    /// capped at the running minimum — a sink whose cut is not below
    /// it cannot change the answer, so its flow stops there.
    ///
    /// # Panics
    ///
    /// Panics if `s` is a sink or an endpoint is out of range.
    pub fn min_cut_to_sinks(
        &mut self,
        s: usize,
        sinks: impl IntoIterator<Item = usize>,
        keep: impl Fn(usize) -> bool,
        limit: u64,
    ) -> u64 {
        // The mask is evaluated once, not once per sink.
        let mut masked = std::mem::take(&mut self.masked);
        masked.clear();
        let caps = self.cap0.iter().enumerate();
        masked.extend(caps.map(|(pair, &cap)| if keep(2 * pair) { cap } else { 0 }));
        let mut best = limit;
        for t in sinks {
            if best == 0 {
                break;
            }
            self.reset(|a| masked[a / 2]);
            best = self.max_flow_limited(s, t, best);
        }
        self.masked = masked;
        best
    }
}

/// `MINCUT(G, s, t)`: the max-flow value from `s` to `t` in the directed
/// capacitated graph.
///
/// # Panics
///
/// Panics if `s` or `t` is inactive, or `s == t`.
pub fn min_cut(g: &DiGraph, s: NodeId, t: NodeId) -> u64 {
    assert!(
        g.is_active(s) && g.is_active(t),
        "min_cut endpoints must be active"
    );
    FlowNet::from_digraph(g).max_flow(s, t)
}

/// The broadcast rate `γ = min_{j} MINCUT(G, s, j)` over all active `j ≠ s`.
///
/// Returns 0 if some node is unreachable. By the max-flow/min-cut theorem
/// and Edmonds' theorem this is the highest rate at which `s` can stream
/// data to *all* other nodes simultaneously (Appendix A).
///
/// # Panics
///
/// Panics if `s` is inactive.
pub fn broadcast_rate(g: &DiGraph, s: NodeId) -> u64 {
    assert!(g.is_active(s), "source must be active");
    if g.active_count() < 2 {
        return 0;
    }
    let sinks = g.nodes().filter(|&j| j != s);
    FlowNet::from_digraph(g).min_cut_to_sinks(s, sinks, |_| true, u64::MAX)
}

/// `MINCUT(H̄, s, t)` in an undirected capacitated graph.
///
/// # Panics
///
/// Panics if `s` or `t` is inactive, or `s == t`.
pub fn min_cut_undirected(u: &UnGraph, s: NodeId, t: NodeId) -> u64 {
    assert!(
        u.is_active(s) && u.is_active(t),
        "min_cut endpoints must be active"
    );
    let mut net = FlowNet::new(u.node_count());
    for (_, e) in u.edges() {
        // An undirected edge behaves as a pair of independent antiparallel
        // arcs for max-flow purposes.
        net.add_arc(e.a, e.b, e.cap);
        net.add_arc(e.b, e.a, e.cap);
    }
    net.max_flow(s, t)
}

/// The minimum over all pairs of active nodes of the undirected min cut —
/// the quantity `U_H = min_{i,j∈H} MINCUT(H̄, i, j)` from Section 3.
///
/// Returns `None` when fewer than two nodes are active.
pub fn min_pairwise_cut_undirected(u: &UnGraph) -> Option<u64> {
    let nodes: Vec<NodeId> = u.nodes().collect();
    if nodes.len() < 2 {
        return None;
    }
    let mut best = u64::MAX;
    // Undirected global pairwise min cut: fixing one endpoint suffices
    // (the minimizing pair (i, j) is separated by some cut, and any fixed
    // vertex lies on one side of it, paired against a vertex on the other).
    let s = nodes[0];
    for &t in &nodes[1..] {
        best = best.min(min_cut_undirected(u, s, t));
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    impl FlowNet {
        /// After [`FlowNet::max_flow`], the set of nodes reachable from `s` in
        /// the residual graph — the source side of a minimum cut.
        fn source_side(&self, s: usize) -> BTreeSet<usize> {
            let mut seen = vec![false; self.n];
            seen[s] = true;
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &a in &self.head[u] {
                    let v = self.to[a];
                    if self.cap[a] > 0 && !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            (0..self.n).filter(|&v| seen[v]).collect()
        }

        /// Remaining capacity of the arc returned by [`FlowNet::add_arc`].
        fn residual(&self, arc: usize) -> u64 {
            self.cap[arc]
        }

        /// The Dinic that levels the whole residual network every phase,
        /// which the early stop of `bfs_levels` replaced, kept as its
        /// oracle: same phases, same `dfs_push`.
        pub(crate) fn max_flow_levelling_all(&mut self, s: usize, t: usize, limit: u64) -> u64 {
            let mut total = 0u64;
            while total < limit && self.level_everything(s, t) {
                self.it.fill(0);
                while total < limit {
                    let pushed = self.dfs_push(s, t, limit - total);
                    if pushed == 0 {
                        break;
                    }
                    total += pushed;
                }
            }
            total
        }

        fn level_everything(&mut self, s: usize, t: usize) -> bool {
            self.level.fill(-1);
            self.queue.clear();
            self.level[s] = 0;
            self.queue.push(s);
            let mut next = 0;
            while next < self.queue.len() {
                let u = self.queue[next];
                next += 1;
                for &a in &self.head[u] {
                    let v = self.to[a];
                    if self.cap[a] > 0 && self.level[v] < 0 {
                        self.level[v] = self.level[u] + 1;
                        self.queue.push(v);
                    }
                }
            }
            self.level[t] >= 0
        }
    }

    /// A random net: `n` nodes and up to `3n` arcs (parallel and
    /// antiparallel ones included) of capacity `1..=max_cap`.
    fn arb_net() -> impl Strategy<Value = FlowNet> {
        (2usize..14, any::<u64>(), 1u64..5).prop_map(|(n, seed, max_cap)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = FlowNet::new(n);
            for _ in 0..rng.gen_range(0..=3 * n) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    net.add_arc(u, v, rng.gen_range(1..=max_cap));
                }
            }
            net
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 200 } else { 2000 }
        ))]

        /// Stopping the level search at the sink leaves every arc's flow
        /// as the whole-network levelling leaves it, query after query on
        /// one residual network (later queries start from earlier flows)
        /// and at every limit.
        #[test]
        fn early_stop_dinic_pushes_the_flow_of_the_full_levelling(
            net in arb_net(),
            queries in proptest::collection::vec((0usize..14, 0usize..14, 0u64..6), 1..5),
        ) {
            let (mut fast, mut full) = (net.clone(), net);
            for (s, t, limit) in queries {
                let (s, t) = (s % fast.n, t % fast.n);
                if s == t {
                    continue;
                }
                // 0 means uncapped.
                let limit = if limit == 0 { u64::MAX } else { limit };
                prop_assert_eq!(
                    fast.max_flow_limited(s, t, limit),
                    full.max_flow_levelling_all(s, t, limit)
                );
                prop_assert_eq!(&fast.cap, &full.cap);
            }
        }
    }

    /// The source side of a minimum `s`–`t` cut in an undirected graph
    /// (used to construct the partition attacks of Theorem 2's proof).
    fn min_cut_partition_undirected(
        u: &UnGraph,
        s: NodeId,
        t: NodeId,
    ) -> (BTreeSet<NodeId>, BTreeSet<NodeId>) {
        let mut net = FlowNet::new(u.node_count());
        for (_, e) in u.edges() {
            net.add_arc(e.a, e.b, e.cap);
            net.add_arc(e.b, e.a, e.cap);
        }
        net.max_flow(s, t);
        let raw = net.source_side(s);
        let left: BTreeSet<NodeId> = u.nodes().filter(|v| raw.contains(v)).collect();
        let right: BTreeSet<NodeId> = u.nodes().filter(|v| !raw.contains(v)).collect();
        (left, right)
    }

    /// The directed graph of Figure 1(a): 4 nodes, capacities as printed.
    /// (Edge list reconstructed so that MINCUT(1,2)=MINCUT(1,4)=2,
    /// MINCUT(1,3)=3, γ=2, matching the paper's stated values.)
    fn figure_1a() -> DiGraph {
        crate::gen::figure_1a()
    }

    #[test]
    fn figure_1a_mincuts_match_paper() {
        let g = figure_1a();
        // Paper: MINCUT(G,1,2) = MINCUT(G,1,4) = 2, MINCUT(G,1,3) = 3, γ = 2.
        assert_eq!(min_cut(&g, 0, 1), 2);
        assert_eq!(min_cut(&g, 0, 3), 2);
        assert_eq!(min_cut(&g, 0, 2), 3);
        assert_eq!(broadcast_rate(&g, 0), 2);
    }

    #[test]
    fn simple_path_flow() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 3);
        assert_eq!(min_cut(&g, 0, 2), 3);
        assert_eq!(broadcast_rate(&g, 0), 3);
    }

    #[test]
    fn parallel_paths_add() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 3, 2);
        g.add_edge(0, 2, 3);
        g.add_edge(2, 3, 3);
        assert_eq!(min_cut(&g, 0, 3), 5);
    }

    #[test]
    fn unreachable_node_gives_zero_rate() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1);
        // node 2 unreachable
        assert_eq!(broadcast_rate(&g, 0), 0);
    }

    #[test]
    fn undirected_cut_counts_both_directions() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 0, 3);
        let u = UnGraph::from_digraph(&g);
        assert_eq!(min_cut_undirected(&u, 0, 1), 5);
        assert_eq!(min_pairwise_cut_undirected(&u), Some(5));
    }

    #[test]
    fn pairwise_cut_on_ring() {
        // 4-cycle with unit capacities: every pairwise cut is 2.
        let mut u = UnGraph::new(4);
        u.add_edge(0, 1, 1);
        u.add_edge(1, 2, 1);
        u.add_edge(2, 3, 1);
        u.add_edge(3, 0, 1);
        assert_eq!(min_pairwise_cut_undirected(&u), Some(2));
    }

    #[test]
    fn min_cut_partition_separates_endpoints() {
        let mut u = UnGraph::new(4);
        u.add_edge(0, 1, 1);
        u.add_edge(1, 2, 1);
        u.add_edge(2, 3, 1);
        let (l, r) = min_cut_partition_undirected(&u, 0, 3);
        assert!(l.contains(&0) && r.contains(&3));
        assert_eq!(l.len() + r.len(), 4);
    }

    #[test]
    fn source_side_after_maxflow_is_min_cut() {
        // Bottleneck edge 1->2 with cap 1.
        let mut net = FlowNet::new(4);
        net.add_arc(0, 1, 10);
        let bottleneck = net.add_arc(1, 2, 1);
        net.add_arc(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 1);
        assert_eq!(net.flow_on(bottleneck), 1);
        assert_eq!(net.residual(bottleneck), 0);
        let side = net.source_side(0);
        assert!(side.contains(&0) && side.contains(&1));
        assert!(!side.contains(&2) && !side.contains(&3));
    }

    #[test]
    fn flow_respects_inactive_nodes() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 3, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 1);
        assert_eq!(min_cut(&g, 0, 3), 2);
        g.remove_node(1);
        assert_eq!(min_cut(&g, 0, 3), 1);
    }
}
