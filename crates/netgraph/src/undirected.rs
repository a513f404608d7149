//! The undirected view of a network (Figure 2(b) of the paper).
//!
//! For a directed graph `H(V, E)` the paper defines the undirected graph
//! `H̄(V, Ē)`: same vertices; undirected edge `(i, j)` present iff either
//! directed edge exists; its capacity is the *sum* of the two directed
//! capacities. The equality-check parameter `U_k` is a min-cut in this view.

use std::collections::BTreeSet;
use std::fmt;

use crate::graph::{DiGraph, NodeId};

/// An undirected capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnEdge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Combined capacity of the two directed links.
    pub cap: u64,
}

/// An undirected capacitated graph over the same stable node universe as
/// [`DiGraph`].
#[derive(Clone, PartialEq, Eq)]
pub struct UnGraph {
    node_count: usize,
    active: Vec<bool>,
    edges: Vec<UnEdge>,
}

impl UnGraph {
    /// Creates an undirected graph with nodes `0..node_count` and no edges.
    pub fn new(node_count: usize) -> Self {
        UnGraph {
            node_count,
            active: vec![true; node_count],
            edges: Vec::new(),
        }
    }

    /// Builds the undirected view of a directed graph, summing antiparallel
    /// capacities (the paper's `H̄` construction).
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut u = UnGraph {
            node_count: g.node_count(),
            active: (0..g.node_count()).map(|v| g.is_active(v)).collect(),
            edges: Vec::new(),
        };
        let mut acc: std::collections::BTreeMap<(NodeId, NodeId), u64> =
            std::collections::BTreeMap::new();
        for (_, e) in g.edges() {
            let key = (e.src.min(e.dst), e.src.max(e.dst));
            *acc.entry(key).or_insert(0) += e.cap;
        }
        for ((a, b), cap) in acc {
            u.edges.push(UnEdge { a, b, cap });
        }
        u
    }

    /// Size of the node universe.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Whether node `v` is active.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the node universe.
    pub fn is_active(&self, v: NodeId) -> bool {
        assert!(v < self.node_count, "node id out of range");
        self.active[v]
    }

    /// Active node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).filter(move |&v| self.active[v])
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range/inactive endpoints, self-loops, zero capacity,
    /// or duplicate edges.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, cap: u64) {
        assert!(
            a < self.node_count && b < self.node_count,
            "endpoint out of range"
        );
        assert!(self.active[a] && self.active[b], "endpoint inactive");
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(cap > 0, "capacities are positive integers");
        let (a, b) = (a.min(b), a.max(b));
        assert!(
            self.find_edge(a, b).is_none(),
            "duplicate undirected edge ({a}, {b})"
        );
        self.edges.push(UnEdge { a, b, cap });
    }

    /// Live edges with their indices.
    pub fn edges(&self) -> impl Iterator<Item = (usize, &UnEdge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| self.active[e.a] && self.active[e.b])
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Looks up the undirected edge between `a` and `b`.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<(usize, &UnEdge)> {
        let (a, b) = (a.min(b), a.max(b));
        self.edges().find(|(_, e)| e.a == a && e.b == b)
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for (_, e) in self.edges() {
            if e.a == v {
                out.insert(e.b);
            } else if e.b == v {
                out.insert(e.a);
            }
        }
        out
    }

    /// The subgraph induced by `keep` (node ids preserved).
    pub fn induced_subgraph(&self, keep: &BTreeSet<NodeId>) -> UnGraph {
        let mut g = self.clone();
        for v in 0..self.node_count {
            if !keep.contains(&v) {
                g.active[v] = false;
            }
        }
        g
    }
}

impl fmt::Debug for UnGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UnGraph(n={}, active={}, edges=[",
            self.node_count,
            self.active_count()
        )?;
        for (i, (_, e)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}--{}:{}", e.a, e.b, e.cap)?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UnGraph {
        /// Whether the active part of the graph is connected (ignoring isolated
        /// inactive ids). An empty graph counts as connected.
        fn is_connected(&self) -> bool {
            let Some(start) = self.nodes().next() else {
                return true;
            };
            let mut seen = vec![false; self.node_count];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            self.nodes().all(|v| seen[v])
        }
    }

    #[test]
    fn from_digraph_sums_antiparallel_capacities() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 0, 3);
        g.add_edge(1, 2, 1);
        let u = UnGraph::from_digraph(&g);
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.find_edge(0, 1).unwrap().1.cap, 5);
        assert_eq!(u.find_edge(2, 1).unwrap().1.cap, 1);
    }

    #[test]
    fn from_digraph_respects_inactive_nodes() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.remove_node(2);
        let u = UnGraph::from_digraph(&g);
        assert_eq!(u.edge_count(), 1);
        assert!(!u.is_active(2));
    }

    #[test]
    fn connectivity_detection() {
        let mut u = UnGraph::new(4);
        u.add_edge(0, 1, 1);
        u.add_edge(2, 3, 1);
        assert!(!u.is_connected());
        u.add_edge(1, 2, 1);
        assert!(u.is_connected());
    }

    #[test]
    fn induced_subgraph_drops_edges() {
        let mut u = UnGraph::new(3);
        u.add_edge(0, 1, 1);
        u.add_edge(1, 2, 1);
        let s = u.induced_subgraph(&BTreeSet::from([0, 1]));
        assert_eq!(s.edge_count(), 1);
        assert!(s.is_connected());
    }

    #[test]
    fn neighbors_symmetric() {
        let mut u = UnGraph::new(3);
        u.add_edge(0, 1, 1);
        assert_eq!(u.neighbors(0), BTreeSet::from([1]));
        assert_eq!(u.neighbors(1), BTreeSet::from([0]));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_edge_rejected_in_either_direction() {
        let mut u = UnGraph::new(2);
        u.add_edge(0, 1, 1);
        u.add_edge(1, 0, 1);
    }
}
