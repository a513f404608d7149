//! Packing edge-disjoint spanning trees in undirected graphs (Appendix C).
//!
//! Theorem 1's proof needs, for every candidate fault-free subgraph `H̄`
//! with min cut `U`, a set of `⌊U/2⌋` edge-disjoint undirected spanning
//! trees (Tutte/Nash-Williams, cited as \[16\] in the paper); the columns of
//! the check matrix `C_H` indexed by each tree form the invertible blocks of
//! `M_H`. This module packs those trees with the classic matroid-union
//! augmenting-path algorithm on `k` copies of the graphic matroid.

use std::collections::{HashMap, VecDeque};

use crate::graph::NodeId;
use crate::undirected::UnGraph;

/// One packed spanning tree: a list of undirected edges `(a, b)` with the
/// multiplicity-copy index they came from.
pub type Tree = Vec<(NodeId, NodeId)>;

/// An element of the matroid-union ground set: one unit of capacity of one
/// undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Element {
    a: NodeId,
    b: NodeId,
}

/// Disjoint-set forest for cycle detection.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

/// State of the matroid-union computation: `k` edge-disjoint forests.
struct Packer {
    node_count: usize,
    k: usize,
    elements: Vec<Element>,
    /// forest index each element currently belongs to, if any.
    assignment: Vec<Option<usize>>,
}

impl Packer {
    /// Members of forest `i`.
    fn forest(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |(_, a)| **a == Some(i))
            .map(|(id, _)| id)
    }

    /// Whether forest `i` plus element `x` stays acyclic.
    fn independent_with(&self, i: usize, x: usize) -> bool {
        let mut dsu = Dsu::new(self.node_count);
        for id in self.forest(i) {
            if id != x {
                let e = self.elements[id];
                dsu.union(e.a, e.b);
            }
        }
        let e = self.elements[x];
        dsu.find(e.a) != dsu.find(e.b)
    }

    /// The circuit created by adding `x` to forest `i`: the elements of the
    /// forest on the path between `x`'s endpoints. Empty when independent.
    fn circuit(&self, i: usize, x: usize) -> Vec<usize> {
        let e = self.elements[x];
        // BFS in forest i from e.a to e.b, tracking the element used.
        let mut adj: HashMap<NodeId, Vec<(NodeId, usize)>> = HashMap::new();
        for id in self.forest(i) {
            if id == x {
                continue;
            }
            let f = self.elements[id];
            adj.entry(f.a).or_default().push((f.b, id));
            adj.entry(f.b).or_default().push((f.a, id));
        }
        let mut prev: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        let mut q = VecDeque::from([e.a]);
        let mut seen = std::collections::HashSet::from([e.a]);
        while let Some(u) = q.pop_front() {
            if u == e.b {
                break;
            }
            if let Some(nbrs) = adj.get(&u) {
                for &(v, id) in nbrs {
                    if seen.insert(v) {
                        prev.insert(v, (u, id));
                        q.push_back(v);
                    }
                }
            }
        }
        if !prev.contains_key(&e.b) && e.a != e.b {
            return Vec::new(); // endpoints disconnected: independent
        }
        let mut out = Vec::new();
        let mut cur = e.b;
        while cur != e.a {
            let (p, id) = prev[&cur];
            out.push(id);
            cur = p;
        }
        out
    }

    /// Attempts to bring unassigned element `e0` into some forest via a
    /// shortest augmenting swap sequence. Returns whether it succeeded.
    fn augment(&mut self, e0: usize) -> bool {
        debug_assert!(self.assignment[e0].is_none());
        // BFS over elements; parent[x] = (predecessor element, forest where
        // x lies on predecessor's circuit).
        let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut q = VecDeque::from([e0]);
        let mut visited = std::collections::HashSet::from([e0]);

        while let Some(x) = q.pop_front() {
            for i in 0..self.k {
                if Some(i) == self.assignment[x] {
                    continue;
                }
                if self.independent_with(i, x) {
                    // Unwind the swap chain: x enters forest i; its parent
                    // (if any) takes x's old slot, and so on up to e0.
                    let mut cur = x;
                    let mut dest = i;
                    loop {
                        let old = self.assignment[cur];
                        self.assignment[cur] = Some(dest);
                        match parent.get(&cur) {
                            None => return true, // cur == e0
                            Some(&(pred, forest)) => {
                                debug_assert_eq!(old, Some(forest));
                                dest = forest;
                                cur = pred;
                            }
                        }
                    }
                }
                for y in self.circuit(i, x) {
                    if visited.insert(y) {
                        parent.insert(y, (x, i));
                        q.push_back(y);
                    }
                }
            }
        }
        false
    }
}

/// Attempts to pack `k` edge-disjoint spanning trees in `u` (each edge used
/// by at most `cap` trees in total across its capacity units).
///
/// Returns `None` if no such packing exists — by Nash-Williams/Tutte this
/// happens exactly when some partition of the nodes has fewer than
/// `k · (parts − 1)` crossing capacity; in particular `k = ⌊U/2⌋` (half the
/// pairwise min cut) always succeeds.
pub fn pack_spanning_trees(u: &UnGraph, k: usize) -> Option<Vec<Tree>> {
    let nodes: Vec<NodeId> = u.nodes().collect();
    if nodes.len() <= 1 || k == 0 {
        return Some(vec![Vec::new(); k]);
    }
    let mut elements = Vec::new();
    for (_, e) in u.edges() {
        for _ in 0..e.cap {
            elements.push(Element { a: e.a, b: e.b });
        }
    }
    let n_elem = elements.len();
    let mut p = Packer {
        node_count: u.node_count(),
        k,
        elements,
        assignment: vec![None; n_elem],
    };
    for e0 in 0..n_elem {
        // One attempt per element: if no augmenting sequence exists now, the
        // element stays spanned by the union forever (closure is monotone).
        p.augment(e0);
    }
    let need = nodes.len() - 1;
    let mut trees = Vec::with_capacity(k);
    for i in 0..k {
        let tree: Tree = p
            .forest(i)
            .map(|id| (p.elements[id].a, p.elements[id].b))
            .collect();
        if tree.len() != need {
            return None;
        }
        trees.push(tree);
    }
    Some(trees)
}

/// The maximum number of edge-disjoint spanning trees packable in `u`
/// (the graph's *strength*, Nash-Williams/Tutte number).
pub fn max_spanning_trees(u: &UnGraph) -> usize {
    let nodes: Vec<NodeId> = u.nodes().collect();
    if nodes.len() <= 1 {
        return 1 << 20; // vacuously unbounded; cap for sanity
    }
    // The strength is at most total_cap / (n-1); binary search the largest
    // feasible k.
    let total: u64 = u.edges().map(|(_, e)| e.cap).sum();
    let mut lo = 0usize;
    let mut hi = (total / (nodes.len() as u64 - 1)) as usize;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if pack_spanning_trees(u, mid).is_some() {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Validates a packing: each tree spans the active nodes and total usage of
/// each undirected edge stays within its capacity.
pub fn validate_tree_packing(u: &UnGraph, trees: &[Tree]) -> Result<(), String> {
    let nodes: Vec<NodeId> = u.nodes().collect();
    let mut usage: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for (i, t) in trees.iter().enumerate() {
        if t.len() != nodes.len().saturating_sub(1) {
            return Err(format!(
                "tree {i} has {} edges, want {}",
                t.len(),
                nodes.len() - 1
            ));
        }
        let mut dsu = Dsu::new(u.node_count());
        for &(a, b) in t {
            if u.find_edge(a, b).is_none() {
                return Err(format!("tree {i} uses non-edge ({a}, {b})"));
            }
            if !dsu.union(a, b) {
                return Err(format!("tree {i} has a cycle at ({a}, {b})"));
            }
            *usage.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    }
    for ((a, b), used) in usage {
        let cap = u.find_edge(a, b).map(|(_, e)| e.cap).unwrap_or(0);
        if used > cap {
            return Err(format!("edge ({a}, {b}) used {used} > cap {cap}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::min_pairwise_cut_undirected;
    use crate::gen;

    /// Exhaustive Nash-Williams bound for small graphs: the minimum over
    /// all partitions `P` of active nodes of `⌊ cross(P) / (|P| − 1) ⌋`.
    /// Exponential in node count — the oracle for `max_spanning_trees`.
    fn nash_williams_bound_exhaustive(u: &UnGraph) -> usize {
        let nodes: Vec<NodeId> = u.nodes().collect();
        let n = nodes.len();
        assert!(
            n <= 10,
            "exhaustive partition enumeration is for small graphs"
        );
        if n <= 1 {
            return 1 << 20;
        }
        // Enumerate set partitions via restricted growth strings.
        let mut best = usize::MAX;
        let mut rgs = vec![0usize; n];
        loop {
            let parts = rgs.iter().copied().max().unwrap() + 1;
            if parts >= 2 {
                let mut cross = 0u64;
                for (_, e) in u.edges() {
                    let ia = nodes.iter().position(|&v| v == e.a).unwrap();
                    let ib = nodes.iter().position(|&v| v == e.b).unwrap();
                    if rgs[ia] != rgs[ib] {
                        cross += e.cap;
                    }
                }
                best = best.min((cross / (parts as u64 - 1)) as usize);
            }
            // Next restricted growth string.
            let mut i = n - 1;
            loop {
                if i == 0 {
                    return best;
                }
                let max_prefix = rgs[..i].iter().copied().max().unwrap();
                if rgs[i] <= max_prefix {
                    rgs[i] += 1;
                    for r in rgs[i + 1..].iter_mut() {
                        *r = 0;
                    }
                    break;
                }
                i -= 1;
            }
        }
    }

    #[test]
    fn k4_packs_two_unit_trees() {
        // K4 with unit capacities: strength 2 (6 edges / 3 per tree).
        let u = UnGraph::from_digraph(&gen::complete(4, 1));
        // Each undirected edge has cap 2 (two directions); K4 doubled has
        // strength 4: 12 units / 3 = 4 and it is achievable.
        let trees = pack_spanning_trees(&u, 4).expect("4 trees in doubled K4");
        validate_tree_packing(&u, &trees).unwrap();
    }

    #[test]
    fn strength_matches_exhaustive_nash_williams() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..12 {
            let g = gen::random_connected(5, 0.7, 2, &mut rng);
            let u = UnGraph::from_digraph(&g);
            let strength = max_spanning_trees(&u);
            let bound = nash_williams_bound_exhaustive(&u);
            assert_eq!(strength, bound, "strength mismatch on {u:?}");
        }
    }

    #[test]
    fn half_mincut_trees_always_pack() {
        // Tutte/Nash-Williams corollary used by Theorem 1: ⌊U/2⌋ spanning
        // trees exist when the pairwise min cut is U.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..12 {
            let g = gen::random_connected(6, 0.6, 3, &mut rng);
            let u = UnGraph::from_digraph(&g);
            let cut = min_pairwise_cut_undirected(&u).unwrap();
            let k = (cut / 2) as usize;
            if k == 0 {
                continue;
            }
            let trees = pack_spanning_trees(&u, k)
                .unwrap_or_else(|| panic!("no {k}-tree packing with U={cut} in {u:?}"));
            validate_tree_packing(&u, &trees).unwrap();
        }
    }

    #[test]
    fn figure_2b_packs_a_spanning_tree() {
        let u = UnGraph::from_digraph(&gen::figure_2a());
        let trees = pack_spanning_trees(&u, 1).expect("one spanning tree");
        validate_tree_packing(&u, &trees).unwrap();
    }

    #[test]
    fn infeasible_k_returns_none() {
        // A path graph has strength 1.
        let mut u = UnGraph::new(3);
        u.add_edge(0, 1, 1);
        u.add_edge(1, 2, 1);
        assert!(pack_spanning_trees(&u, 1).is_some());
        assert!(pack_spanning_trees(&u, 2).is_none());
        assert_eq!(max_spanning_trees(&u), 1);
    }

    #[test]
    fn capacity_multiplicity_is_honored() {
        // Two nodes joined by one cap-3 edge: 3 "spanning trees" of K2.
        let mut u = UnGraph::new(2);
        u.add_edge(0, 1, 3);
        let trees = pack_spanning_trees(&u, 3).unwrap();
        assert_eq!(trees.len(), 3);
        validate_tree_packing(&u, &trees).unwrap();
        assert!(pack_spanning_trees(&u, 4).is_none());
    }

    #[test]
    fn disconnected_graph_packs_nothing() {
        let mut u = UnGraph::new(4);
        u.add_edge(0, 1, 5);
        u.add_edge(2, 3, 5);
        assert!(pack_spanning_trees(&u, 1).is_none());
        assert_eq!(max_spanning_trees(&u), 0);
    }

    #[test]
    fn single_node_graph_trivial() {
        let u = UnGraph::new(1);
        assert!(pack_spanning_trees(&u, 3).is_some());
    }
}
