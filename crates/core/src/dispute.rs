//! Dispute control (Phase 3, Appendix B) and the evolving dispute state.
//!
//! When any node announces a MISMATCH, every node Byzantine-broadcasts its
//! *claims*: everything it sent and received during Phases 1–2 (plus, for
//! the source, its input). Then:
//!
//! - **DC2**: a send-claim that contradicts the matching receive-claim puts
//!   the two endpoints *in dispute* — at least one of them is faulty,
//!   because the links themselves are reliable.
//! - **DC3**: NAB is deterministic, so a node whose claimed sends are not
//!   the protocol-prescribed function of its claimed receives (and input)
//!   is *exposed* as faulty outright.
//! - **DC4**: a node contained in every cardinality-`≤ f` explanation of
//!   the accumulated dispute pairs is necessarily faulty and is excluded
//!   from `V_{k+1}`; links between disputed pairs are excluded from
//!   `E_{k+1}`.

use std::collections::{BTreeMap, BTreeSet};

use nab_gf::{Gf2_16, Matrix};
use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::{DiGraph, NodeId};

use crate::bounds::{k_subsets, pair, Pair};
use crate::equality::{pack_slab, CodingScheme};
use crate::value::Value;

/// A node's broadcast claims about one instance's Phases 1–2.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct NodeClaims {
    /// The source's claimed input (source only).
    pub input: Option<Vec<Gf2_16>>,
    /// Phase-1 blocks claimed received: `(tree, from) → block`.
    pub p1_received: BTreeMap<(usize, NodeId), Vec<Gf2_16>>,
    /// Phase-1 blocks claimed sent: `(tree, to) → block`.
    pub p1_sent: BTreeMap<(usize, NodeId), Vec<Gf2_16>>,
    /// Equality-check coded symbols claimed received: `from → symbols`.
    pub eq_received: BTreeMap<NodeId, Vec<Gf2_16>>,
    /// Equality-check coded symbols claimed sent: `to → symbols`.
    pub eq_sent: BTreeMap<NodeId, Vec<Gf2_16>>,
    /// The 1-bit flag the node announced in step 2.2.
    pub flag: bool,
}

impl NodeClaims {
    /// Approximate wire size in bits (for link-time accounting).
    pub fn bits(&self) -> u64 {
        let symbols: usize = self.input.as_ref().map_or(0, Vec::len)
            + self.p1_received.values().map(Vec::len).sum::<usize>()
            + self.p1_sent.values().map(Vec::len).sum::<usize>()
            + self.eq_received.values().map(Vec::len).sum::<usize>()
            + self.eq_sent.values().map(Vec::len).sum::<usize>();
        (symbols as u64) * crate::value::SYMBOL_BITS + 64
    }

    /// The value this node's claims imply it holds after Phase 1: the
    /// source's input, or the join of its claimed per-tree received blocks.
    pub fn implied_value(&self, tree_count: usize) -> Value {
        if let Some(input) = &self.input {
            return Value::from_symbols(input.clone());
        }
        let mut blocks: Vec<Vec<Gf2_16>> = Vec::with_capacity(tree_count);
        for t in 0..tree_count {
            let block = self
                .p1_received
                .iter()
                .find(|((tt, _), _)| *tt == t)
                .map(|(_, b)| b.clone())
                .unwrap_or_default();
            blocks.push(block);
        }
        Value::join_blocks(&blocks)
    }
}

/// DC2: cross-examines all claims, returning the dispute pairs found.
pub fn dc2_disputes(claims: &BTreeMap<NodeId, NodeClaims>) -> Vec<Pair> {
    let mut pairs = BTreeSet::new();
    for (&a, ca) in claims {
        for (&b, cb) in claims {
            if a == b {
                continue;
            }
            // Phase-1 sends from a to b vs b's receives from a.
            for t in tree_indices(ca, cb) {
                let sent = ca.p1_sent.get(&(t, b));
                let recv = cb.p1_received.get(&(t, a));
                match (sent, recv) {
                    (None, None) => {}
                    (Some(s), Some(r)) if s == r => {}
                    _ => {
                        pairs.insert(pair(a, b));
                    }
                }
            }
            // Equality-check symbols.
            match (ca.eq_sent.get(&b), cb.eq_received.get(&a)) {
                (None, None) => {}
                (Some(s), Some(r)) if s == r => {}
                _ => {
                    pairs.insert(pair(a, b));
                }
            }
        }
    }
    pairs.into_iter().collect()
}

/// Tree indices mentioned by either claim set (Phase-1 traffic between the
/// two nodes).
fn tree_indices(a: &NodeClaims, b: &NodeClaims) -> BTreeSet<usize> {
    a.p1_sent
        .keys()
        .chain(a.p1_received.keys())
        .chain(b.p1_sent.keys())
        .chain(b.p1_received.keys())
        .map(|&(t, _)| t)
        .collect()
}

/// DC3: replays the deterministic protocol against each node's claims and
/// exposes nodes whose claimed sends don't follow from their claimed
/// receives (and input).
pub fn dc3_exposed(
    gk: &DiGraph,
    source: NodeId,
    trees: &[Arborescence],
    scheme: &CodingScheme,
    claims: &BTreeMap<NodeId, NodeClaims>,
) -> Vec<NodeId> {
    let mut exposed = BTreeSet::new();
    let indices: Vec<_> = trees.iter().map(Arborescence::index).collect();
    let mut xt = Matrix::default();
    for (&v, c) in claims {
        // Phase 1 discipline: on tree t, the source must send its t-th
        // input block identically to every child; a relay must forward the
        // block it claims to have received from its tree parent.
        let input_blocks = c
            .input
            .as_ref()
            .filter(|_| v == source)
            .map(|i| Value::from_symbols(i.clone()).split_blocks(trees.len().max(1)));
        for (t, tree) in indices.iter().enumerate() {
            let prescribed = match &input_blocks {
                Some(blocks) => Some(&blocks[t]),
                None => tree.parent(v).and_then(|p| c.p1_received.get(&(t, p))),
            };
            for child in tree.children(v) {
                let claimed = c.p1_sent.get(&(t, child));
                match (prescribed, claimed) {
                    (Some(p), Some(s)) if p == s => {}
                    (None, None) => {}
                    // A relay that claims to have received nothing must
                    // send nothing (default-value rule); any other
                    // combination is inconsistent.
                    (None, Some(s)) if s.is_empty() => {}
                    _ => {
                        exposed.insert(v);
                    }
                }
            }
        }
        // Phase 2 discipline: coded symbols must encode the value implied
        // by the node's own claims, and the announced flag must equal the
        // outcome of checking the claimed received symbols. The implied
        // value is packed once for all its incident edges.
        pack_slab(&c.implied_value(trees.len()), scheme.rho(), &mut xt);
        for (_, e) in gk.out_edges(v) {
            let prescribed = scheme.encode_packed(v, e.dst, &xt);
            match c.eq_sent.get(&e.dst) {
                Some(s) if *s == prescribed => {}
                _ => {
                    exposed.insert(v);
                }
            }
        }
        let mut should_flag = false;
        for (_, e) in gk.in_edges(v) {
            let got = c.eq_received.get(&e.src).map_or(&[][..], Vec::as_slice);
            if scheme.encode_packed(e.src, v, &xt) != got {
                should_flag = true;
            }
        }
        if c.flag != should_flag {
            exposed.insert(v);
        }
    }
    exposed.into_iter().collect()
}

/// The cumulative dispute state across NAB instances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisputeState {
    /// All node pairs ever found in dispute.
    pub pairs: BTreeSet<Pair>,
    /// Nodes excluded as necessarily faulty.
    pub removed: BTreeSet<NodeId>,
}

impl DisputeState {
    /// An empty dispute state.
    pub fn new() -> Self {
        Self::default()
    }

    /// DC4: integrates newly found pairs and directly exposed nodes,
    /// recomputing the implied-faulty set. Returns the nodes newly removed.
    pub fn integrate(
        &mut self,
        g0: &DiGraph,
        f: usize,
        new_pairs: &[Pair],
        exposed: &[NodeId],
    ) -> Vec<NodeId> {
        nab_obs::trace::emit(nab_obs::trace::EventKind::DisputeRaised {
            new_pairs: new_pairs.len() as u32,
        });
        self.pairs.extend(new_pairs.iter().copied());
        // An exposed node is "in dispute with all its neighbors".
        for &x in exposed {
            for nbr in g0.neighbors(x) {
                self.pairs.insert(pair(x, nbr));
            }
        }
        let before = self.removed.clone();
        // Intersection of all explanations of size ≤ f.
        let nodes: Vec<NodeId> = g0.nodes().collect();
        let mut implied: Option<BTreeSet<NodeId>> = None;
        for size in 0..=f {
            for fset in k_subsets(&nodes, size) {
                if self
                    .pairs
                    .iter()
                    .all(|&(a, b)| fset.contains(&a) || fset.contains(&b))
                {
                    implied = Some(match implied {
                        None => fset,
                        Some(acc) => acc.intersection(&fset).copied().collect(),
                    });
                }
            }
        }
        if let Some(imp) = implied {
            self.removed.extend(imp);
        }
        self.removed.extend(exposed.iter().copied());
        let newly_removed: Vec<NodeId> = self.removed.difference(&before).copied().collect();
        for &node in &newly_removed {
            nab_obs::trace::emit(nab_obs::trace::EventKind::NodeExposed { node: node as u32 });
        }
        newly_removed
    }

    /// The graph `G_{k+1}`: the original graph minus removed nodes and
    /// minus links between disputed pairs.
    pub fn current_graph(&self, g0: &DiGraph) -> DiGraph {
        let mut g = g0.clone();
        for &v in &self.removed {
            g.remove_node(v);
        }
        for &(a, b) in &self.pairs {
            g.remove_edges_between(a, b);
        }
        g
    }

    /// Number of dispute-control executions this state could still absorb:
    /// the paper bounds total executions by `f(f+1)`.
    pub fn max_executions(f: usize) -> usize {
        f * (f + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    fn sym(v: u64) -> Vec<Gf2_16> {
        vec![Gf2_16(v as u16)]
    }

    #[test]
    fn dc2_detects_send_receive_mismatch() {
        let mut claims = BTreeMap::new();
        let mut a = NodeClaims::default();
        a.p1_sent.insert((0, 2), sym(5));
        let mut b = NodeClaims::default();
        b.p1_received.insert((0, 1), sym(6)); // b claims a sent 6
        claims.insert(1, a);
        claims.insert(2, b);
        assert_eq!(dc2_disputes(&claims), vec![(1, 2)]);
    }

    #[test]
    fn dc2_consistent_claims_no_disputes() {
        let mut claims = BTreeMap::new();
        let mut a = NodeClaims::default();
        a.p1_sent.insert((0, 2), sym(5));
        a.eq_sent.insert(2, sym(9));
        let mut b = NodeClaims::default();
        b.p1_received.insert((0, 1), sym(5));
        b.eq_received.insert(1, sym(9));
        claims.insert(1, a);
        claims.insert(2, b);
        assert!(dc2_disputes(&claims).is_empty());
    }

    #[test]
    fn dc2_missing_receive_is_a_dispute() {
        let mut claims = BTreeMap::new();
        let mut a = NodeClaims::default();
        a.p1_sent.insert((0, 2), sym(5));
        claims.insert(1, a);
        claims.insert(2, NodeClaims::default());
        assert_eq!(dc2_disputes(&claims), vec![(1, 2)]);
    }

    #[test]
    fn integrate_exposes_single_cover_node() {
        // Disputes (0,1) and (2,1): with f=1 the only explanation is {1}.
        let g = gen::complete(4, 1);
        let mut st = DisputeState::new();
        let newly = st.integrate(&g, 1, &[pair(0, 1), pair(2, 1)], &[]);
        assert_eq!(newly, vec![1]);
        assert!(st.removed.contains(&1));
        let gk = st.current_graph(&g);
        assert!(!gk.is_active(1));
        assert_eq!(gk.active_count(), 3);
    }

    #[test]
    fn integrate_single_pair_removes_nobody() {
        // One dispute (0,1) with f=1: both {0} and {1} explain it;
        // intersection is empty.
        let g = gen::complete(4, 1);
        let mut st = DisputeState::new();
        let newly = st.integrate(&g, 1, &[pair(0, 1)], &[]);
        assert!(newly.is_empty());
        let gk = st.current_graph(&g);
        assert_eq!(gk.active_count(), 4);
        assert!(gk.find_edge(0, 1).is_none(), "disputed link removed");
        assert!(gk.find_edge(1, 0).is_none());
    }

    #[test]
    fn exposed_node_disputes_all_neighbors() {
        let g = gen::complete(4, 1);
        let mut st = DisputeState::new();
        let newly = st.integrate(&g, 1, &[], &[2]);
        assert_eq!(newly, vec![2]);
        // 2 is disputed with everyone.
        for n in [0, 1, 3] {
            assert!(st.pairs.contains(&pair(2, n)));
        }
    }

    #[test]
    fn f1_dispute_budget() {
        assert_eq!(DisputeState::max_executions(1), 2);
        assert_eq!(DisputeState::max_executions(2), 6);
    }

    #[test]
    fn dc3_honest_claims_expose_nobody() {
        use crate::adversary::HonestStrategy;
        use crate::phase1::run_phase1;
        use nab_netgraph::arborescence::pack_arborescences;

        let g = gen::figure_2a();
        let trees = pack_arborescences(&g, 0, 2).unwrap();
        let scheme = CodingScheme::random(&g, 1, 3);
        let input = Value::from_u64s(&[1, 2, 3, 4]);
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = crate::phase2::run_equality_phase_batched(
            &g,
            &[&p1.values],
            &scheme,
            &BTreeSet::new(),
            &mut [&mut HonestStrategy],
        )
        .pop()
        .unwrap();
        let claims =
            crate::phase2::honest_claims(&g, 0, &input, &trees, &scheme, &p1, &eq, &eq.flags);
        assert!(dc2_disputes(&claims).is_empty());
        assert!(dc3_exposed(&g, 0, &trees, &scheme, &claims).is_empty());
    }
}
