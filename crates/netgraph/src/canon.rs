//! Stable canonical keys for graphs — the content-addressing layer under
//! the plan cache.
//!
//! Two keys with different invariance guarantees:
//!
//! - [`labeled_key`] — a digest of the graph *as labeled*: node universe,
//!   active mask, and the sorted live edge list `(src, dst, cap)`. Two
//!   graphs get the same labeled key iff they are the same concrete
//!   network (up to edge insertion order). This is the component that
//!   makes a cache key sound for label-dependent artifacts (arborescences,
//!   routing paths are expressed in node ids).
//! - [`canonical_key`] — a relabeling-**invariant** digest computed by
//!   Weisfeiler–Leman color refinement over capacity-annotated
//!   neighborhoods: renaming nodes never changes it, while changing any
//!   link capacity (or the degree/capacity structure) does. This is the
//!   content-address that buckets isomorphic topologies together, e.g.
//!   every `complete:n:cap` instance a sweep generates hashes identically
//!   no matter how the generator happened to number the nodes.
//!
//! Neither key is persisted; both are deterministic functions of the
//! graph (no [`std::collections::hash_map::RandomState`] involved), so
//! they are stable within and across processes.

use crate::graph::{DiGraph, NodeId};

/// Seed constant for the fold-based digests (splitmix64's increment).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64-style mixing step.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(SEED).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive digest of a value sequence.
fn hash_seq(vals: impl IntoIterator<Item = u64>) -> u64 {
    vals.into_iter().fold(SEED, mix)
}

/// Digest of the graph exactly as labeled: node universe size, active
/// mask, and the live edges sorted by `(src, dst)`. Insensitive to edge
/// insertion order, sensitive to everything else — including node names.
pub fn labeled_key(g: &DiGraph) -> u64 {
    let mut edges: Vec<(NodeId, NodeId, u64)> =
        g.edges().map(|(_, e)| (e.src, e.dst, e.cap)).collect();
    edges.sort_unstable();
    let mut h = mix(g.node_count() as u64, 0x1ABE1);
    for v in 0..g.node_count() {
        h = mix(h, u64::from(g.is_active(v)));
    }
    for (s, d, c) in edges {
        h = hash_seq([h, s as u64, d as u64, c]);
    }
    h
}

/// Relabeling-invariant digest of the capacitated topology.
///
/// Runs 1-dimensional Weisfeiler–Leman refinement: every active node
/// starts with a color derived from its sorted in/out capacity multisets,
/// then repeatedly absorbs the sorted multiset of `(neighbor color,
/// link capacity)` over incoming and outgoing links. After `|V|` rounds
/// the sorted multiset of node colors — together with global invariants
/// (active count, edge count, total capacity) — is folded into the key.
///
/// Every intermediate quantity is a sorted multiset of label-independent
/// values, so the result cannot depend on node numbering. Like any
/// WL-style invariant it is not a *complete* isomorphism test (rare
/// regular non-isomorphic pairs may collide), which is why the plan cache
/// pairs it with [`labeled_key`] rather than using it alone.
pub fn canonical_key(g: &DiGraph) -> u64 {
    let n = g.node_count();
    let mut color = vec![0u64; n];
    for v in g.nodes() {
        let mut outs: Vec<u64> = g.out_edges(v).map(|(_, e)| e.cap).collect();
        let mut ins: Vec<u64> = g.in_edges(v).map(|(_, e)| e.cap).collect();
        outs.sort_unstable();
        ins.sort_unstable();
        color[v] = hash_seq([1, hash_seq(outs), hash_seq(ins)]);
    }
    // Each round's color absorbs the previous one, so the partition only
    // ever refines; once the class count stops growing it is stable and
    // no later round can separate anything new. The break condition
    // depends only on the (label-independent) partition evolution, so
    // invariance is preserved — and `PlanKey` computes this digest on
    // every cache fetch, which is why the early exit matters.
    let distinct = |color: &[u64]| {
        g.nodes()
            .map(|v| color[v])
            .collect::<std::collections::BTreeSet<u64>>()
            .len()
    };
    let mut classes = distinct(&color);
    for _ in 0..g.active_count() {
        let mut next = color.clone();
        for v in g.nodes() {
            let mut outs: Vec<u64> = g
                .out_edges(v)
                .map(|(_, e)| mix(color[e.dst], e.cap))
                .collect();
            let mut ins: Vec<u64> = g
                .in_edges(v)
                .map(|(_, e)| mix(color[e.src], e.cap))
                .collect();
            outs.sort_unstable();
            ins.sort_unstable();
            next[v] = hash_seq([color[v], hash_seq(outs), hash_seq(ins)]);
        }
        color = next;
        let refined = distinct(&color);
        if refined == classes {
            break;
        }
        classes = refined;
    }
    let mut final_colors: Vec<u64> = g.nodes().map(|v| color[v]).collect();
    final_colors.sort_unstable();
    hash_seq([
        g.active_count() as u64,
        g.edge_count() as u64,
        g.total_capacity(),
        hash_seq(final_colors),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Renames the nodes of `g` through the permutation `perm` (old id `v`
    /// becomes `perm[v]`). Exposed for canonicalization tests and tooling.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..g.node_count()`.
    fn relabel(g: &DiGraph, perm: &[NodeId]) -> DiGraph {
        assert_eq!(perm.len(), g.node_count(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
        let mut out = DiGraph::new(g.node_count());
        for (_, e) in g.edges() {
            out.add_edge(perm[e.src], perm[e.dst], e.cap);
        }
        for (v, &p) in perm.iter().enumerate() {
            if !g.is_active(v) {
                out.remove_node(p);
            }
        }
        out
    }

    fn random_perm(n: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let mut p: Vec<NodeId> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            p.swap(i, j);
        }
        p
    }

    #[test]
    fn canonical_key_is_invariant_under_relabeling() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        let graphs = [
            gen::complete(5, 2),
            gen::complete_heterogeneous(6, 1, 4, &mut StdRng::seed_from_u64(5)),
            gen::figure_1a(),
            gen::figure_2a(),
            gen::random_connected(7, 0.5, 2, &mut rng),
        ];
        for g in &graphs {
            let key = canonical_key(g);
            for _ in 0..8 {
                let perm = random_perm(g.node_count(), &mut rng);
                let h = relabel(g, &perm);
                assert_eq!(
                    canonical_key(&h),
                    key,
                    "relabeling {perm:?} changed the canonical key of {g:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_key_distinguishes_differing_capacities() {
        // Uniform capacity bumps.
        assert_ne!(
            canonical_key(&gen::complete(4, 1)),
            canonical_key(&gen::complete(4, 2))
        );
        // A single-link capacity change.
        let g = gen::complete(4, 2);
        let mut h = g.clone();
        h.remove_edges_between(1, 2);
        h.add_edge(1, 2, 3);
        h.add_edge(2, 1, 2);
        assert_ne!(canonical_key(&g), canonical_key(&h));
    }

    #[test]
    fn canonical_key_distinguishes_structure() {
        assert_ne!(
            canonical_key(&gen::complete(5, 1)),
            canonical_key(&gen::ring(5, 1))
        );
        assert_ne!(
            canonical_key(&gen::complete(5, 1)),
            canonical_key(&gen::complete(6, 1))
        );
    }

    #[test]
    fn labeled_key_pins_the_labeling() {
        let g = gen::complete_heterogeneous(5, 1, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(labeled_key(&g), labeled_key(&g.clone()));
        // A non-trivial relabeling changes the labeled key (the concrete
        // network differs) while the canonical key stays put.
        let perm = vec![1, 0, 2, 3, 4];
        let h = relabel(&g, &perm);
        assert_ne!(labeled_key(&g), labeled_key(&h));
        assert_eq!(canonical_key(&g), canonical_key(&h));
    }

    #[test]
    fn labeled_key_ignores_edge_insertion_order() {
        let mut a = DiGraph::new(3);
        a.add_edge(0, 1, 2);
        a.add_edge(1, 2, 1);
        let mut b = DiGraph::new(3);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 1, 2);
        assert_eq!(labeled_key(&a), labeled_key(&b));
    }

    #[test]
    fn labeled_key_sees_active_mask_and_caps() {
        let g = gen::complete(4, 2);
        let mut off = g.clone();
        off.remove_node(3);
        assert_ne!(labeled_key(&g), labeled_key(&off));
        assert_ne!(
            labeled_key(&gen::complete(4, 1)),
            labeled_key(&gen::complete(4, 2))
        );
    }

    #[test]
    fn relabel_rejects_non_permutations() {
        let g = gen::complete(3, 1);
        let r = std::panic::catch_unwind(|| relabel(&g, &[0, 0, 1]));
        assert!(r.is_err());
    }
}
