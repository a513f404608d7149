//! Phase 1: unreliable broadcast over spanning arborescences (Appendix A).
//!
//! The `L`-bit input splits into `γ_k` blocks, one streamed down each
//! capacity-respecting spanning arborescence of `G_k`. No fault tolerance
//! is attempted: a faulty relay can corrupt everything downstream of it on
//! its tree. With zero propagation delay the whole phase takes `L/γ_k`
//! time — each link `e` carries `(uses of e) · L/γ_k ≤ z_e · L/γ_k` bits.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nab_gf::Gf2_16;
use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::{DiGraph, NodeId};

use crate::adversary::NabAdversary;
use crate::value::{Value, SYMBOL_BITS};

/// A Phase-1 block as carried by the network. Honest relays forward the
/// block they received unchanged, so the ground truth shares one
/// allocation per tree among the source, every relay, and the send
/// records — only faulty nodes materialize new blocks. The same holds for
/// the assembled values: a node holding the source's own block on every
/// tree holds the input, and shares the input's [`Value`] storage; only a
/// node below a faulty relay (or the faulty source) gets a value of its
/// own.
pub type Block = Arc<Vec<Gf2_16>>;

/// Ground truth of one Phase-1 execution.
#[derive(Debug, Clone)]
pub struct Phase1Output {
    /// The value each active node holds at the end of the phase (the
    /// source holds its input).
    pub values: BTreeMap<NodeId, Value>,
    /// Every block actually transmitted: `(tree, src, dst) → block`.
    pub sends: BTreeMap<(usize, NodeId, NodeId), Block>,
    /// Wall-clock duration charged (`≈ L/γ_k`).
    pub duration: f64,
}

/// Runs Phase 1 on `gk`.
///
/// Faulty nodes (including a faulty source) choose their transmissions via
/// `adv`; fault-free nodes follow the protocol. The returned
/// [`Phase1Output::sends`] is the network's ground truth — each receiver's
/// local view equals the sender's transmission because links are reliable.
///
/// # Panics
///
/// Panics if `source` is inactive in `gk` or a tree edge is missing from
/// `gk`.
pub fn run_phase1(
    gk: &DiGraph,
    source: NodeId,
    input: &Value,
    trees: &[Arborescence],
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
) -> Phase1Output {
    assert!(gk.is_active(source), "source must be active in G_k");
    let honest_blocks: Vec<Block> = input
        .split_blocks(trees.len().max(1))
        .into_iter()
        .map(Arc::new)
        .collect();

    let mut sends: BTreeMap<(usize, NodeId, NodeId), Block> = BTreeMap::new();
    // Per-tree block held at each node, and the bits each link (by edge
    // id) carries over all trees.
    let mut held: Vec<Vec<Option<Block>>> = vec![vec![None; gk.node_count()]; trees.len()];
    let mut link_bits: Vec<u64> = Vec::new();

    for (t, tree) in trees.iter().enumerate() {
        held[t][source] = Some(Arc::clone(&honest_blocks[t]));
        for (u, child) in tree.bfs_edges() {
            let received = held[t][u].clone().unwrap_or_default();
            let payload = if u == source {
                if faulty.contains(&source) {
                    Arc::new(adv.phase1_source_block(t, child, &honest_blocks[t]))
                } else {
                    Arc::clone(&honest_blocks[t])
                }
            } else if faulty.contains(&u) {
                Arc::new(adv.phase1_forward(u, t, child, &received))
            } else {
                received
            };
            #[expect(
                clippy::expect_used,
                reason = "packed trees only use edges of G_k by construction"
            )]
            let (link, _) = gk.find_edge(u, child).expect("tree edges exist in G_k");
            if link >= link_bits.len() {
                link_bits.resize(link + 1, 0);
            }
            link_bits[link] += payload.len() as u64 * SYMBOL_BITS;
            sends.insert((t, u, child), Arc::clone(&payload));
            held[t][child] = Some(payload);
        }
    }

    // Charge link time: all transmissions happen concurrently (zero
    // propagation delay), so the phase lasts as long as its busiest link
    // — `max_e(bits_e / z_e)` with per-link bit totals, exactly the
    // round charge `NetSim::deliver_round` computes.
    let mut duration: f64 = 0.0;
    for (link, &bits) in link_bits.iter().enumerate().filter(|&(_, &bits)| bits > 0) {
        #[expect(
            clippy::expect_used,
            reason = "only ids `find_edge` returned are charged"
        )]
        let cap = gk.edge(link).expect("a link that carried bits is live").cap;
        duration = duration.max(bits as f64 / cap as f64);
    }

    // Final values. The blocks the source split join back into the input,
    // so a node that holds them all — the very allocations, not a copy —
    // shares the input's storage; any other node joins what it holds.
    let mut values = BTreeMap::new();
    for v in gk.nodes() {
        let intact = !trees.is_empty()
            && held.iter().zip(&honest_blocks).all(|(per_tree, honest)| {
                per_tree[v].as_ref().is_some_and(|b| Arc::ptr_eq(b, honest))
            });
        if v == source || intact {
            values.insert(v, input.clone());
        } else {
            let mut symbols = Vec::with_capacity(input.len());
            for block in held.iter().filter_map(|per_tree| per_tree[v].as_ref()) {
                symbols.extend_from_slice(block);
            }
            values.insert(v, Value::from_symbols(symbols));
        }
    }

    Phase1Output {
        values,
        sends,
        duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{EquivocatingSource, HonestStrategy, TruthfulCorruptor};
    use nab_netgraph::arborescence::pack_arborescences;
    use nab_netgraph::flow::broadcast_rate;
    use nab_netgraph::gen;

    fn setup(g: &DiGraph) -> (Vec<Arborescence>, Value) {
        let gamma = broadcast_rate(g, 0);
        let trees = pack_arborescences(g, 0, gamma).unwrap();
        let input = Value::from_u64s(&[11, 22, 33, 44, 55, 66]);
        (trees, input)
    }

    #[test]
    fn fault_free_run_delivers_input_everywhere() {
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        for v in g.nodes() {
            assert_eq!(out.values[&v], input, "node {v} got wrong value");
            let storage = out.values[&v].symbols().as_ptr();
            assert_eq!(storage, input.symbols().as_ptr(), "node {v} copied");
        }
    }

    #[test]
    fn duration_is_l_over_gamma() {
        // figure_2a: γ=2, S=6 symbols → L=96 bits → L/γ = 48 time units.
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        assert!(
            (out.duration - 48.0).abs() < 1e-9,
            "duration {}",
            out.duration
        );
    }

    #[test]
    fn corrupt_relay_poisons_its_subtree_only() {
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let faulty = BTreeSet::from([1]);
        let out = run_phase1(&g, 0, &input, &trees, &faulty, &mut TruthfulCorruptor);
        // Node 1 corrupts everything it forwards; some downstream node must
        // end up with a value differing from the input.
        let poisoned = g.nodes().filter(|&v| out.values[&v] != input).count();
        assert!(poisoned > 0, "corruption must reach someone");
        // The source always holds its own input.
        assert_eq!(out.values[&0], input);
        // Node 1's subtrees, node 1 excluded: it received honest blocks.
        let mut below = BTreeSet::new();
        for tree in &trees {
            let mut reached = BTreeSet::from([1]);
            for (u, child) in tree.bfs_edges() {
                if reached.contains(&u) {
                    reached.insert(child);
                    below.insert(child);
                }
            }
        }
        for v in g.nodes() {
            let shares = out.values[&v].symbols().as_ptr() == input.symbols().as_ptr();
            assert_eq!(shares, !below.contains(&v), "node {v}");
            if out.values[&v] != input {
                assert!(!shares, "node {v} differs, so it cannot share");
            }
        }
    }

    #[test]
    fn equivocating_source_creates_disagreement() {
        let g = gen::figure_2a();
        let (trees, input) = setup(&g);
        let faulty = BTreeSet::from([0]);
        let out = run_phase1(&g, 0, &input, &trees, &faulty, &mut EquivocatingSource);
        #[expect(
            clippy::disallowed_types,
            reason = "counts distinct values; `Value` is not `Ord`, and the set is never iterated"
        )]
        let distinct: std::collections::HashSet<_> = g
            .nodes()
            .filter(|&v| v != 0)
            .map(|v| out.values[&v].clone())
            .collect();
        // Tree 0 is corrupted, so at least one non-source node differs from
        // the honest input.
        assert!(
            g.nodes()
                .filter(|&v| v != 0)
                .any(|v| out.values[&v] != input),
            "equivocation must corrupt someone: {distinct:?}"
        );
    }

    #[test]
    fn sends_ground_truth_covers_every_tree_edge() {
        let g = gen::complete(4, 1);
        let (trees, input) = setup(&g);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let expected: usize = trees.iter().map(|t| t.edges.len()).sum();
        assert_eq!(out.sends.len(), expected);
    }

    #[test]
    fn single_tree_graph() {
        // A directed path has γ=1.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        let trees = pack_arborescences(&g, 0, 1).unwrap();
        let input = Value::from_u64s(&[1, 2, 3]);
        let out = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        assert_eq!(out.values[&2], input);
        // 48 bits over unit links: 48 time units on each of 2 links, in
        // parallel → 48.
        assert!((out.duration - 48.0).abs() < 1e-9);
    }
}
