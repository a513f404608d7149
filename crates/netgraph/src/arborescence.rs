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
//!
//! # Deciding safety
//!
//! The reference packer, `pack_arborescences_naive` in the dev-only
//! `nab-oracle` crate (`tests/oracle`), re-runs a max-flow to every node
//! per candidate. [`pack_arborescences`] keeps, per node `v`, one persistent
//! *witness*: an integral `root → v` flow inside the remaining capacities
//! whose value is at least the number of trees still to build (`need`).
//! Taking a unit of edge `e` breaks only the witnesses that ship more than
//! what is left of `e`, and each of those is repaired in place:
//!
//! - a witness with slack (value above `need`) has the unit cancelled
//!   along its own support — forward from `e`'s head to `v` and backward
//!   from `e`'s tail to the root, or round the flow cycle through `e` when
//!   the forward walk closes on the tail (then the value does not even
//!   drop). No search is run;
//! - a witness at exactly `need` has the unit taken off `e` and **one**
//!   search run, from `e`'s tail to its head in the witness's residual
//!   graph, to carry it another way. If some flow `g` of value `need`
//!   survives the decrement, `g` minus the punctured witness is a residual
//!   circulation but for one unit leaving the tail and one entering the
//!   head, so it contains such a path: the search fails exactly when the
//!   cut dropped below `need` and the candidate is unsafe. An undo log
//!   then puts every witness the candidate touched back.
//!
//! `need` drops by one per tree, so every witness starts every tree with a
//! unit of slack. Within one tree the remaining capacities only shrink and
//! `need` is fixed, so an edge found unsafe stays unsafe until the tree is
//! finished and is not tried again (the *unsafe memo*). [`PackStats`]
//! counts all of this.

use crate::graph::{DiGraph, NodeId};

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

/// A stable counting sort of `0..keys.len()` by key: bucket `b` lists, in
/// increasing order, the indices whose key is `b`.
struct Buckets {
    first: Vec<usize>,
    items: Vec<usize>,
}

impl Buckets {
    fn new(buckets: usize, keys: impl Iterator<Item = usize> + Clone) -> Buckets {
        let mut first = vec![0usize; buckets + 1];
        for key in keys.clone() {
            first[key + 1] += 1;
        }
        for b in 0..buckets {
            first[b + 1] += first[b];
        }
        let mut next = first.clone();
        let mut items = vec![0usize; first[buckets]];
        for (i, key) in keys.enumerate() {
            items[next[key]] = i;
            next[key] += 1;
        }
        Buckets { first, items }
    }

    fn of(&self, bucket: usize) -> &[usize] {
        match (self.first.get(bucket), self.first.get(bucket + 1)) {
            (Some(&lo), Some(&hi)) => &self.items[lo..hi],
            _ => &[],
        }
    }
}

impl Arborescence {
    /// Edge indices bucketed by source node: each node's child edges, in
    /// the order of [`Arborescence::edges`].
    fn by_src(&self) -> Buckets {
        let ends = self.edges.iter().map(|&(s, d)| s.max(d));
        let n = ends.max().unwrap_or(0).max(self.root) + 1;
        Buckets::new(n, self.edges.iter().map(|&(s, _)| s))
    }

    /// Tree edges `(parent, child)` in BFS order from the root: parents
    /// before their children, and the children of one node consecutive and
    /// in the order of [`Arborescence::edges`]. Forwarding in this order
    /// respects causality.
    pub fn bfs_edges(&self) -> Vec<(NodeId, NodeId)> {
        let by_src = self.by_src();
        let edges_from = |u: NodeId| by_src.of(u).iter().map(|&i| self.edges[i]);
        // The output is its own BFS queue.
        let mut out: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.edges.len());
        out.extend(edges_from(self.root));
        let mut next = 0;
        while next < out.len() {
            out.extend(edges_from(out[next].1));
            next += 1;
        }
        out
    }

    /// Nodes in BFS order from the root (root first). Each node appears
    /// after its parent.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let children = self.bfs_edges().into_iter().map(|(_, d)| d);
        std::iter::once(self.root).chain(children).collect()
    }

    /// Depth (number of hops) of the deepest node.
    pub fn depth(&self) -> usize {
        let edges = self.bfs_edges();
        let n = edges.iter().map(|&(s, d)| s.max(d) + 1).max().unwrap_or(0);
        let mut depth = vec![0usize; n];
        for (s, d) in edges {
            depth[d] = depth[s] + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// What one [`pack_arborescences`] run did, as deterministic counts (a
/// function of the graph, root and `k` only): a regression guard that is
/// not a stopwatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Candidate edges whose safety was decided.
    pub tried: u64,
    /// Candidates found safe — one per tree edge.
    pub accepted: u64,
    /// Candidates found unsafe.
    pub rejected: u64,
    /// Frontier edges passed over because this tree already rejected them.
    pub memo_skipped: u64,
    /// Witnesses that shipped a unit over a candidate and had it cancelled
    /// or carried another way.
    pub repaired: u64,
    /// Searches run for those repairs (a witness with slack needs none).
    pub searches: u64,
}

/// The per-node flow witnesses of one packing, over the live edges of the
/// graph renumbered `0..m` in id order.
struct Witnesses {
    root: NodeId,
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    /// Remaining capacity per edge.
    rem: Vec<u64>,
    out_edges: Buckets,
    in_edges: Buckets,
    /// Row `v` (`stride = m + 1` cells) holds the units node `v`'s witness
    /// ships over each edge, then the witness's value. `u32` halves the
    /// `n × m` footprint; no cell exceeds `k`, which is checked to fit.
    cells: Vec<u32>,
    stride: usize,
    /// `(cell, previous content)` of every write since the log was last
    /// cleared, for [`Witnesses::rollback`].
    undo: Vec<(usize, u32)>,
    /// The unsafe memo: edges [`Witnesses::take`] refused since the
    /// packer last cleared it (at the start of a tree).
    known_unsafe: Vec<bool>,
    // Search scratch: `seen[x] == stamp` marks `x` reached by the current
    // search, over `via[x] = (edge, forward?)`.
    seen: Vec<u32>,
    stamp: u32,
    via: Vec<(usize, bool)>,
    queue: Vec<NodeId>,
}

impl Witnesses {
    fn new(g: &DiGraph, root: NodeId) -> Witnesses {
        let n = g.node_count();
        let src: Vec<NodeId> = g.edges().map(|(_, e)| e.src).collect();
        let dst: Vec<NodeId> = g.edges().map(|(_, e)| e.dst).collect();
        let stride = src.len() + 1;
        Witnesses {
            root,
            rem: g.edges().map(|(_, e)| e.cap).collect(),
            out_edges: Buckets::new(n, src.iter().copied()),
            in_edges: Buckets::new(n, dst.iter().copied()),
            src,
            dst,
            cells: vec![0; n * stride],
            stride,
            undo: Vec::new(),
            known_unsafe: vec![false; stride - 1],
            seen: vec![0; n],
            stamp: 0,
            via: vec![(0, false); n],
            queue: Vec::with_capacity(n),
        }
    }

    fn value(&self, v: NodeId) -> u32 {
        self.cells[v * self.stride + self.stride - 1]
    }

    fn set(&mut self, cell: usize, units: u32) {
        self.undo.push((cell, self.cells[cell]));
        self.cells[cell] = units;
    }

    /// Takes back every logged write.
    fn rollback(&mut self) {
        while let Some((cell, units)) = self.undo.pop() {
            self.cells[cell] = units;
        }
    }

    /// Gives every node but the root a witness of value `k`, from no flow
    /// at all; `false` if some node's cut from the root is below `k`.
    fn fill(&mut self, g: &DiGraph, k: u32) -> bool {
        let root = self.root;
        for v in g.nodes().filter(|&v| v != root) {
            let value = v * self.stride + self.stride - 1;
            while self.cells[value] < k {
                match self.push(v, root, v, k - self.cells[value]) {
                    0 => return false,
                    units => self.cells[value] += units,
                }
            }
            self.undo.clear();
        }
        true
    }

    /// Removes from `v`'s witness one of the units it ships over `e`,
    /// together with the rest of a path or cycle of its support through
    /// `e`, so that what remains is again a flow. Its value drops by one
    /// unless that was a cycle.
    fn cancel(&mut self, v: NodeId, e: usize) {
        let row = v * self.stride;
        #[expect(
            clippy::expect_used,
            reason = "a node that got a unit ships it on, and one that ships a unit got it"
        )]
        let shipped = |w: &Witnesses, edges: &[usize]| -> usize {
            let found = edges.iter().copied().find(|&a| w.cells[row + a] > 0);
            found.expect("a flow is conserved at every inner node")
        };
        self.set(row + e, self.cells[row + e] - 1);
        let (tail, head) = (self.src[e], self.dst[e]);
        // The head now ships one unit more than it gets: follow it on, to
        // the sink or round to the tail.
        let mut x = head;
        while x != v && x != tail {
            let a = shipped(self, self.out_edges.of(x));
            self.set(row + a, self.cells[row + a] - 1);
            x = self.dst[a];
        }
        if x == tail {
            return;
        }
        // The tail gets one unit more than it ships: follow it back, to
        // the root or (a cycle through the sink) to the sink.
        let mut y = tail;
        while y != self.root && y != v {
            let a = shipped(self, self.in_edges.of(y));
            self.set(row + a, self.cells[row + a] - 1);
            y = self.src[a];
        }
        if y == self.root {
            let value = row + self.stride - 1;
            self.set(value, self.cells[value] - 1);
        }
    }

    /// One breadth-first search from `from` to `to` in the residual graph
    /// of `v`'s witness; ships up to `want` more units along the path
    /// found and returns how many (0: there is no path).
    fn push(&mut self, v: NodeId, from: NodeId, to: NodeId, want: u32) -> u32 {
        let row = v * self.stride;
        self.stamp += 1;
        self.queue.clear();
        self.queue.push(from);
        self.seen[from] = self.stamp;
        let mut next = 0;
        'search: while next < self.queue.len() {
            let x = self.queue[next];
            next += 1;
            let forward = self.out_edges.of(x).iter().map(|&a| (a, true));
            let backward = self.in_edges.of(x).iter().map(|&a| (a, false));
            for (a, fwd) in forward.chain(backward) {
                let (y, open) = if fwd {
                    (self.dst[a], u64::from(self.cells[row + a]) < self.rem[a])
                } else {
                    (self.src[a], self.cells[row + a] > 0)
                };
                if open && self.seen[y] != self.stamp {
                    self.seen[y] = self.stamp;
                    self.via[y] = (a, fwd);
                    if y == to {
                        break 'search;
                    }
                    self.queue.push(y);
                }
            }
        }
        if self.seen[to] != self.stamp {
            return 0;
        }
        let before = |w: &Witnesses, y: NodeId| {
            let (a, fwd) = w.via[y];
            (a, fwd, if fwd { w.src[a] } else { w.dst[a] })
        };
        let mut units = want;
        let mut y = to;
        while y != from {
            let (a, fwd, x) = before(self, y);
            let shipped = self.cells[row + a];
            let room = if fwd {
                u32::try_from(self.rem[a] - u64::from(shipped)).unwrap_or(u32::MAX)
            } else {
                shipped
            };
            units = units.min(room);
            y = x;
        }
        y = to;
        while y != from {
            let (a, fwd, x) = before(self, y);
            let shipped = self.cells[row + a];
            self.set(
                row + a,
                if fwd {
                    shipped + units
                } else {
                    shipped - units
                },
            );
            y = x;
        }
        units
    }

    /// Takes one unit of edge `e` if every witness can be kept at value
    /// `need` without it; otherwise only notes `e` as unsafe and returns
    /// `false`.
    fn take(&mut self, e: usize, need: u32, stats: &mut PackStats) -> bool {
        self.rem[e] -= 1;
        // The last tree leaves nothing to witness. Otherwise every node's
        // row is looked at: the root's and removed nodes' are all zero.
        let rows = if need == 0 { 0 } else { self.seen.len() };
        for v in 0..rows {
            if u64::from(self.cells[v * self.stride + e]) <= self.rem[e] {
                continue;
            }
            stats.repaired += 1;
            if self.value(v) > need {
                self.cancel(v, e);
                continue;
            }
            // No slack: take the unit off `e` and look for another way to
            // carry it from `e`'s tail to its head.
            stats.searches += 1;
            self.set(v * self.stride + e, self.cells[v * self.stride + e] - 1);
            if self.push(v, self.src[e], self.dst[e], 1) == 0 {
                self.rollback();
                self.rem[e] += 1;
                self.known_unsafe[e] = true;
                return false;
            }
        }
        self.undo.clear();
        true
    }
}

/// Packs `k` capacity-respecting spanning arborescences rooted at `root`.
///
/// Returns `None` if the graph's broadcast rate from `root` is below `k`
/// (Edmonds' condition fails) — callers should pick
/// `k = flow::broadcast_rate(g, root)`.
///
/// Safety of a candidate edge is decided by repairing persistent flow
/// witnesses in place (see the [module docs](self)). The decision is the
/// same boolean the reference packer (`nab-oracle`'s
/// `pack_arborescences_naive`) computes — it does not depend on which
/// witness was found — so the produced packing is **identical**, a fact
/// that crate's differential tests (and the engine's replan proptests) pin
/// down.
///
/// # Panics
///
/// Panics if `root` is inactive, or if `k` exceeds `u32::MAX` (that many
/// trees could not be held in memory either).
pub fn pack_arborescences(g: &DiGraph, root: NodeId, k: u64) -> Option<Vec<Arborescence>> {
    pack_arborescences_with_stats(g, root, k).map(|(trees, _)| trees)
}

/// [`pack_arborescences`], also reporting the work it took.
///
/// # Panics
///
/// As [`pack_arborescences`].
pub fn pack_arborescences_with_stats(
    g: &DiGraph,
    root: NodeId,
    k: u64,
) -> Option<(Vec<Arborescence>, PackStats)> {
    assert!(g.is_active(root), "root must be active");
    assert!(k <= u64::from(u32::MAX), "k must fit the witness cells");
    let k = k as u32;
    let mut stats = PackStats::default();
    let mut w = Witnesses::new(g, root);

    // Entry check doubling as witness construction: every node gets a flow
    // witness of value `k` (exactly Edmonds' condition).
    if !w.fill(g, k) {
        return None;
    }

    let active = g.active_count();
    let mut trees = Vec::with_capacity(k as usize);
    for tree_idx in 0..k {
        // Remaining trees to build after this one.
        let need = k - tree_idx - 1;
        let mut in_tree = vec![false; g.node_count()];
        in_tree[root] = true;
        w.known_unsafe.fill(false);
        let mut edges = Vec::with_capacity(active - 1);

        while edges.len() + 1 < active {
            let mut advanced = false;
            for e in 0..w.rem.len() {
                let (s, d) = (w.src[e], w.dst[e]);
                if w.rem[e] == 0 || !in_tree[s] || in_tree[d] {
                    continue;
                }
                if w.known_unsafe[e] {
                    stats.memo_skipped += 1;
                    continue;
                }
                stats.tried += 1;
                if w.take(e, need, &mut stats) {
                    stats.accepted += 1;
                    in_tree[d] = true;
                    edges.push((s, d));
                    advanced = true;
                    break;
                }
                stats.rejected += 1;
            }
            if !advanced {
                // Cannot happen when Edmonds' condition held at entry; kept
                // as a defensive bail-out rather than a panic.
                return None;
            }
        }
        trees.push(Arborescence { root, edges });
    }
    Some((trees, stats))
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

    /// Asserts that every node's witness is a flow of its recorded value,
    /// at least `need`, inside the remaining capacities.
    fn assert_witnesses_hold(w: &Witnesses, g: &DiGraph, need: u32) {
        let m = w.rem.len();
        for v in g.nodes().filter(|&v| v != w.root) {
            let row = &w.cells[v * w.stride..][..w.stride];
            assert!(row[m] >= need, "witness of {v} below {need}");
            let mut gained = vec![0i64; g.node_count()];
            for e in 0..m {
                assert!(
                    u64::from(row[e]) <= w.rem[e],
                    "witness of {v} overfills {e}"
                );
                gained[w.dst[e]] += i64::from(row[e]);
                gained[w.src[e]] -= i64::from(row[e]);
            }
            gained[v] -= i64::from(row[m]);
            gained[w.root] += i64::from(row[m]);
            assert!(gained.iter().all(|&x| x == 0), "witness of {v} leaks");
        }
    }

    #[test]
    fn a_unit_on_a_flow_cycle_is_cancelled_without_losing_value() {
        // 0 → 1 → 3 carries the flow to sink 3; 1 → 2 → 1 is a cycle the
        // witness also ships a unit round.
        let mut g = DiGraph::new(4);
        for (s, d, cap) in [(0, 1, 2), (1, 3, 2), (1, 2, 1), (2, 1, 1)] {
            g.add_edge(s, d, cap);
        }
        // With slack the unit is cancelled; without, it is rerouted (back
        // over the cycle's other edge). Neither may cost a unit of value.
        for (value, searches) in [(2, 0), (1, 1)] {
            let mut w = Witnesses::new(&g, 0);
            let row = 3 * w.stride;
            w.cells[row..row + w.stride].copy_from_slice(&[value, value, 1, 1, value]);
            let mut stats = PackStats::default();
            assert!(w.take(2, 1, &mut stats));
            assert_eq!((stats.repaired, stats.searches), (1, searches));
            assert_eq!(w.cells[row..row + w.stride], [value, value, 0, 0, value]);
        }
    }

    #[test]
    fn a_rejected_candidate_restores_every_witness_it_touched() {
        // Found by search: in the second tree (`need = 2`), edge 11 breaks
        // three witnesses; two are rerouted before the third cannot be.
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
        assert_eq!(broadcast_rate(&g, 0), 4);

        let mut w = Witnesses::new(&g, 0);
        assert!(w.fill(&g, 4));
        let mut stats = PackStats::default();
        for (e, need) in [
            (0, 3),
            (2, 3),
            (4, 3),
            (6, 3),
            (8, 3),
            (0, 2),
            (2, 2),
            (4, 2),
        ] {
            assert!(w.take(e, need, &mut stats), "edge {e} is safe");
            assert_witnesses_hold(&w, &g, need);
        }
        let (cells, rem) = (w.cells.clone(), w.rem.clone());
        let before = stats;
        assert!(!w.take(11, 2, &mut stats), "edge 11 is unsafe");
        assert_eq!(stats.repaired - before.repaired, 3);
        assert_eq!(stats.searches - before.searches, 3);
        assert!(w.undo.is_empty() && w.known_unsafe[11]);
        assert_eq!((&w.cells, &w.rem), (&cells, &rem));
        // The next candidate in id order meets the witnesses as they were.
        assert!(w.take(13, 2, &mut stats), "edge 13 is safe");
        assert_witnesses_hold(&w, &g, 2);
    }

    #[test]
    fn pack_stats_are_pinned() {
        // Losing the unsafe memo moves `tried`/`rejected`/`memo_skipped`;
        // losing the slack shortcut moves `searches` up to `repaired`.
        let stats = |tried, accepted, rejected, memo_skipped, repaired, searches| PackStats {
            tried,
            accepted,
            rejected,
            memo_skipped,
            repaired,
            searches,
        };
        let pins = [
            (gen::complete(7, 2), stats(102, 72, 30, 80, 96, 30)),
            (gen::torus(8, 8, 2), stats(512, 504, 8, 54, 3355, 2914)),
        ];
        for (g, want) in pins {
            let k = broadcast_rate(&g, 0);
            let (trees, stats) = pack_arborescences_with_stats(&g, 0, k).unwrap();
            assert_eq!(stats, want);
            assert_eq!(stats.tried, stats.accepted + stats.rejected);
            assert_eq!(
                stats.accepted,
                trees.iter().map(|t| t.edges.len() as u64).sum()
            );
        }
    }

    /// FNV-1a over `root` and every tree's edge list in order, as
    /// little-endian `u64` words.
    #[cfg(not(debug_assertions))]
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
        assert_eq!(t.depth(), 2);
        assert_eq!(t.bfs_edges(), vec![(0, 1), (0, 3), (1, 2)]);
        assert_eq!(t.bfs_order(), vec![0, 1, 3, 2]);
    }
}
