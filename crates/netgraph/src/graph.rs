//! The directed capacitated graph type used throughout the workspace.
//!
//! Nodes are small integer ids that stay *stable across subgraph operations*:
//! NAB repeatedly removes edges and nodes from the running graph `G_k`
//! (dispute control), and the protocol state at node `i` must keep meaning
//! "node `i`" afterwards. A [`DiGraph`] therefore keeps a fixed universe of
//! `node_count` ids plus an `active` mask, rather than renumbering.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Index of a node. The paper numbers nodes `1..n` with node 1 the source;
/// we use `0..n` with node 0 the source.
pub type NodeId = usize;

/// Index of an edge within a [`DiGraph`].
pub type EdgeId = usize;

/// A directed capacitated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Tail (transmitting node).
    pub src: NodeId,
    /// Head (receiving node).
    pub dst: NodeId,
    /// Capacity in bits per unit time; always ≥ 1 for a live edge.
    pub cap: u64,
}

/// A directed graph with integer link capacities and a stable node universe.
///
/// # Example
///
/// ```
/// use nab_netgraph::DiGraph;
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 2);
/// g.add_edge(1, 2, 1);
/// assert_eq!(g.out_edges(0).count(), 1);
/// assert_eq!(g.total_capacity(), 3);
/// ```
#[derive(Clone)]
pub struct DiGraph {
    node_count: usize,
    active: Vec<bool>,
    edges: Vec<Edge>,
    /// Derived adjacency index `(src, dst) → EdgeId`, kept in sync with
    /// `edges` so membership tests are O(1) instead of an O(E) scan —
    /// generators and packers probe candidate edges millions of times on
    /// datacenter-scale graphs. Never consulted for iteration, so it
    /// cannot perturb any deterministic edge order.
    index: HashMap<(NodeId, NodeId), EdgeId>,
}

/// Graph identity is the node universe, the active mask, and the edge
/// list (in insertion order); the adjacency index is derived state.
impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.node_count == other.node_count
            && self.active == other.active
            && self.edges == other.edges
    }
}

impl Eq for DiGraph {}

impl DiGraph {
    /// Creates a graph with nodes `0..node_count` (all active) and no edges.
    pub fn new(node_count: usize) -> Self {
        DiGraph {
            node_count,
            active: vec![true; node_count],
            edges: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Size of the node universe (including deactivated nodes).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of currently active nodes.
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

    /// Iterator over active node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).filter(move |&v| self.active[v])
    }

    /// Adds a directed edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or inactive, on self-loops, on
    /// zero capacity, or if the edge `(src, dst)` already exists (the model
    /// is a simple graph).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, cap: u64) -> EdgeId {
        assert!(
            src < self.node_count && dst < self.node_count,
            "endpoint out of range"
        );
        assert!(self.active[src] && self.active[dst], "endpoint inactive");
        assert_ne!(src, dst, "self-loops are not allowed");
        assert!(cap > 0, "link capacities are positive integers");
        assert!(
            !self.index.contains_key(&(src, dst)),
            "duplicate edge ({src}, {dst}); the network is a simple graph"
        );
        self.edges.push(Edge { src, dst, cap });
        let id = self.edges.len() - 1;
        self.index.insert((src, dst), id);
        id
    }

    /// Re-provisions the capacity of edge `id` in place (an OCS-style
    /// link degrade/boost: the edge set is untouched, only the rate
    /// changes).
    ///
    /// # Panics
    ///
    /// Panics on an unknown edge id or zero capacity.
    pub fn set_edge_cap(&mut self, id: EdgeId, cap: u64) {
        assert!(id < self.edges.len(), "unknown edge id {id}");
        assert!(cap > 0, "link capacities are positive integers");
        self.edges[id].cap = cap;
    }

    /// All edges (between active nodes), with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| self.active[e.src] && self.active[e.dst])
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Looks up the edge `(src, dst)` if it exists between active nodes.
    /// O(1) via the adjacency index.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<(EdgeId, &Edge)> {
        let &id = self.index.get(&(src, dst))?;
        let e = &self.edges[id];
        (self.active[e.src] && self.active[e.dst]).then_some((id, e))
    }

    /// The edge with the given id, if live.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        let e = self.edges.get(id)?;
        (self.active[e.src] && self.active[e.dst]).then_some(e)
    }

    /// Outgoing live edges of `v`.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().filter(move |(_, e)| e.src == v)
    }

    /// Incoming live edges of `v`.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().filter(move |(_, e)| e.dst == v)
    }

    /// Out-neighbors of `v`.
    pub fn out_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(v).map(|(_, e)| e.dst)
    }

    /// Nodes adjacent to `v` in either direction.
    pub fn neighbors(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for (_, e) in self.edges() {
            if e.src == v {
                out.insert(e.dst);
            } else if e.dst == v {
                out.insert(e.src);
            }
        }
        out
    }

    /// Sum of capacities of all live edges.
    pub fn total_capacity(&self) -> u64 {
        self.edges().map(|(_, e)| e.cap).sum()
    }

    /// Deactivates a node, removing it (and implicitly its incident edges)
    /// from all queries.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn remove_node(&mut self, v: NodeId) {
        assert!(v < self.node_count, "node id out of range");
        self.active[v] = false;
    }

    /// Removes both directed edges between `a` and `b` if present.
    ///
    /// This is the dispute-control operation: when nodes `a, b` are found in
    /// dispute, the links between them are excluded from `E_{k+1}`.
    pub fn remove_edges_between(&mut self, a: NodeId, b: NodeId) {
        self.edges
            .retain(|e| !((e.src == a && e.dst == b) || (e.src == b && e.dst == a)));
        // Compaction renumbers edge ids; rebuild the derived index.
        self.index = self
            .edges
            .iter()
            .enumerate()
            .map(|(id, e)| ((e.src, e.dst), id))
            .collect();
    }

    /// The subgraph induced by `keep` (deactivates all other nodes).
    ///
    /// Node ids are preserved.
    pub fn induced_subgraph(&self, keep: &BTreeSet<NodeId>) -> DiGraph {
        let mut g = self.clone();
        for v in 0..self.node_count {
            if !keep.contains(&v) {
                g.active[v] = false;
            }
        }
        g
    }

    /// Whether every active node is reachable from `s` following directed
    /// edges.
    pub fn all_reachable_from(&self, s: NodeId) -> bool {
        if !self.is_active(s) {
            return false;
        }
        let mut seen = vec![false; self.node_count];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for v in self.out_neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        self.nodes().all(|v| seen[v])
    }

    /// Renders the graph in Graphviz DOT format (for debugging/docs).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph G {\n");
        for v in self.nodes() {
            let _ = writeln!(s, "  n{v};");
        }
        for (_, e) in self.edges() {
            let _ = writeln!(s, "  n{} -> n{} [label=\"{}\"];", e.src, e.dst, e.cap);
        }
        s.push('}');
        s
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DiGraph(n={}, active={}, edges=[",
            self.node_count,
            self.active_count()
        )?;
        for (i, (_, e)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}->{}:{}", e.src, e.dst, e.cap)?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 3, 2);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 1);
        g
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.active_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.total_capacity(), 6);
        assert_eq!(g.out_neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.neighbors(3), BTreeSet::from([1, 2]));
        assert!(g.find_edge(0, 1).is_some());
        assert!(g.find_edge(1, 0).is_none());
    }

    #[test]
    fn removing_node_hides_incident_edges() {
        let mut g = diamond();
        g.remove_node(1);
        assert_eq!(g.active_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.find_edge(0, 1).is_none());
        assert!(g.find_edge(0, 2).is_some());
    }

    #[test]
    fn remove_edges_between_is_bidirectional() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 0, 3);
        g.remove_edges_between(0, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn induced_subgraph_preserves_ids() {
        let g = diamond();
        let sub = g.induced_subgraph(&BTreeSet::from([0, 2, 3]));
        assert!(sub.is_active(3));
        assert!(!sub.is_active(1));
        assert!(sub.find_edge(2, 3).is_some());
        assert!(sub.find_edge(0, 1).is_none());
        // Original untouched.
        assert!(g.is_active(1));
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.all_reachable_from(0));
        assert!(!g.all_reachable_from(3)); // 3 has no outgoing edges
        let mut g2 = g.clone();
        g2.remove_node(1);
        assert!(g2.all_reachable_from(0)); // still via 2
        g2.remove_node(2);
        assert!(!g2.all_reachable_from(0));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g = DiGraph::new(2);
        g.add_edge(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 0);
    }

    #[test]
    fn dot_output_mentions_edges() {
        let g = diamond();
        let dot = g.to_dot();
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("label=\"2\""));
    }
}
