//! The matrix machinery of Theorem 1's proof (Appendix C), executable.
//!
//! For a candidate fault-free subgraph `H` with nodes renamed
//! `1..n−f` and differences `D_i = X_i − X_{n−f}`, the per-edge checks
//! `(X_i − X_j)C_e = 0` are equivalent to `D_H C_H = 0` where `C_H`
//! concatenates block-expanded coding matrices `B_e`. The scheme is *sound
//! on `H`* iff `C_H` has full row rank `(n−f−1)ρ`; the proof exhibits an
//! invertible square submatrix `M_H` whose columns follow `ρ ≤ U/2`
//! edge-disjoint spanning trees of `H̄`.
//!
//! This module builds `C_H` and `M_H` explicitly so the experiments can
//! measure how often random coding matrices are correct and compare against
//! the paper's probability bound.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use nab_gf::matrix::Matrix;
use nab_gf::{linalg, Field, Gf2_16};
use nab_netgraph::treepack::Tree;
use nab_netgraph::{DiGraph, NodeId};

use crate::equality::CodingScheme;

/// Maps each live directed edge of `h` to the half-open column range it
/// owns inside `C_H` (one column per capacity unit).
pub fn column_layout(h: &DiGraph) -> BTreeMap<(NodeId, NodeId), (usize, usize)> {
    let mut layout = BTreeMap::new();
    let mut next = 0usize;
    for (_, e) in h.edges() {
        let z = e.cap as usize;
        layout.insert((e.src, e.dst), (next, next + z));
        next += z;
    }
    layout
}

/// Builds the `(n_H − 1)ρ × m` check matrix `C_H` for the (induced)
/// subgraph `h`, using the last active node as the reference node `n−f`.
///
/// # Panics
///
/// Panics if `h` has fewer than two active nodes.
pub fn build_ch(h: &DiGraph, scheme: &CodingScheme) -> Matrix<Gf2_16> {
    build_ch_with(h, scheme.rho(), |src, dst| scheme.matrix(src, dst))
}

/// `C_H` over any field, from a lookup of each edge's `ρ × z_e` coding
/// matrix.
fn build_ch_with<F: Field, M: Borrow<Matrix<F>>>(
    h: &DiGraph,
    rho: usize,
    matrix_of: impl Fn(NodeId, NodeId) -> M,
) -> Matrix<F> {
    let nodes: Vec<NodeId> = h.nodes().collect();
    assert!(nodes.len() >= 2, "C_H needs at least two nodes");
    let blocks = nodes.len() - 1; // all but the reference node
    let block_of: BTreeMap<NodeId, usize> = nodes[..blocks]
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();

    let m: usize = h.edges().map(|(_, e)| e.cap as usize).sum();
    let mut ch = Matrix::zero(blocks * rho, m);
    let layout = column_layout(h);
    for (_, e) in h.edges() {
        let ce = matrix_of(e.src, e.dst);
        let (start, end) = layout[&(e.src, e.dst)];
        // Block for src gets +C_e; block for dst gets −C_e (identical in
        // characteristic 2). The reference node owns no block. C_e's rows
        // land in contiguous column ranges of C_H, so each transfers as
        // one slice copy.
        for &block in [block_of.get(&e.src), block_of.get(&e.dst)]
            .iter()
            .flatten()
        {
            for r in 0..rho {
                ch.row_mut(block * rho + r)[start..end].copy_from_slice(ce.borrow().row(r));
            }
        }
    }
    ch
}

/// Whether the equality check is sound on subgraph `h`: `D_H C_H = 0` only
/// for `D_H = 0`, i.e. `C_H` has full row rank.
pub fn ch_is_sound(h: &DiGraph, scheme: &CodingScheme) -> bool {
    sound_with(h, scheme.rho(), |src, dst| scheme.matrix(src, dst))
}

/// The rank test of [`ch_is_sound`] over any field, from a lookup of each
/// edge's coding matrix.
fn sound_with<F: Field, M: Borrow<Matrix<F>>>(
    h: &DiGraph,
    rho: usize,
    matrix_of: impl Fn(NodeId, NodeId) -> M,
) -> bool {
    if h.active_count() < 2 {
        return true;
    }
    let ch = build_ch_with(h, rho, matrix_of);
    linalg::rank(&ch) == ch.rows()
}

/// Extracts the square spanning-tree submatrix `M_H` of `C_H`: one column
/// per tree edge per tree, where `trees` is a packing of `ρ` edge-disjoint
/// spanning trees of `H̄` (from [`nab_netgraph::treepack`]).
///
/// Returns `None` if the trees over-consume some directed edge's capacity
/// (which a valid packing never does).
///
/// # Panics
///
/// Panics if `trees.len() != scheme.rho()`.
pub fn spanning_submatrix(
    h: &DiGraph,
    scheme: &CodingScheme,
    trees: &[Tree],
) -> Option<Matrix<Gf2_16>> {
    assert_eq!(
        trees.len(),
        scheme.rho(),
        "need exactly ρ spanning trees for M_H"
    );
    let ch = build_ch(h, scheme);
    let layout = column_layout(h);
    // Per-directed-edge consumption counters: an undirected tree edge
    // (a, b) consumes one capacity unit, drawn from (a→b) columns first,
    // then (b→a).
    let mut used: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    let mut cols: Vec<usize> = Vec::new();
    for tree in trees {
        for &(a, b) in tree {
            let mut took = false;
            for key in [(a, b), (b, a)] {
                if let Some(&(start, end)) = layout.get(&key) {
                    let u = used.entry(key).or_insert(0);
                    if start + *u < end {
                        cols.push(start + *u);
                        *u += 1;
                        took = true;
                        break;
                    }
                }
            }
            if !took {
                return None;
            }
        }
    }
    Some(ch.select_cols(&cols))
}

/// Constructs *colliding values* defeating the equality check on `h`, if
/// any exist: distinct per-node values (each of `ρ` symbols) for which
/// every check in Algorithm 1 passes, so no fault-free node raises
/// MISMATCH. Exists exactly when `C_H` is rank-deficient — e.g. whenever
/// `ρ > U_H/2` starves the check of coded symbols. Returns `None` when the
/// scheme is sound on `h`.
///
/// This is the *attack constructor* for the ablation experiments: it
/// demonstrates that the paper's `ρ ≤ U/2` hypothesis is load-bearing.
pub fn colliding_values(
    h: &DiGraph,
    scheme: &CodingScheme,
) -> Option<BTreeMap<NodeId, crate::value::Value>> {
    let nodes: Vec<NodeId> = h.nodes().collect();
    if nodes.len() < 2 {
        return None;
    }
    let rho = scheme.rho();
    let ch = build_ch(h, scheme);
    // Left kernel of C_H: row vectors D with D · C_H = 0.
    let kernel = linalg::kernel_basis(&ch.transpose());
    if kernel.rows() == 0 {
        return None;
    }
    let d = kernel.row(0);
    // The reference node (last) holds zero; node i holds its D_i block.
    let mut values = BTreeMap::new();
    let blocks = nodes.len() - 1;
    for (i, &v) in nodes.iter().enumerate() {
        let symbols: Vec<Gf2_16> = if i < blocks {
            d[i * rho..(i + 1) * rho].to_vec()
        } else {
            vec![Gf2_16::default(); rho]
        };
        values.insert(v, crate::value::Value::from_symbols(symbols));
    }
    Some(values)
}

/// One Monte-Carlo trial of Theorem 1 over an arbitrary field `F`
/// (standing in for `GF(2^{L/ρ})` at any symbol width): samples fresh
/// uniform coding matrices for every edge of `g` and reports whether the
/// equality check is *simultaneously sound on every* `H ∈ Ω` — the event
/// whose probability Theorem 1 lower-bounds by
/// `1 − 2^{−m}·C(n, n−f)·(n−f−1)·ρ`.
pub fn theorem1_trial<F: Field, R: rand::Rng + ?Sized>(
    g: &DiGraph,
    f: usize,
    rho: usize,
    rng: &mut R,
) -> bool {
    // Sample C_e per edge.
    let mut mats: BTreeMap<(NodeId, NodeId), Matrix<F>> = BTreeMap::new();
    for (_, e) in g.edges() {
        mats.insert((e.src, e.dst), Matrix::random(rho, e.cap as usize, rng));
    }
    for h_nodes in crate::bounds::omega_subsets(g, f, &std::collections::BTreeSet::new()) {
        let h = g.induced_subgraph(&h_nodes);
        if !sound_with(&h, rho, |src, dst| &mats[&(src, dst)]) {
            return false;
        }
    }
    true
}

/// End-to-end Theorem 1 verification for one subgraph: pack `ρ` spanning
/// trees of `H̄`, extract `M_H`, and test invertibility.
///
/// Returns `None` when no `ρ`-tree packing exists (i.e. `ρ > U_H/2` was
/// chosen too aggressively).
pub fn mh_invertible(h: &DiGraph, scheme: &CodingScheme) -> Option<bool> {
    let u = nab_netgraph::UnGraph::from_digraph(h);
    let trees = nab_netgraph::treepack::pack_spanning_trees(&u, scheme.rho())?;
    let mh = spanning_submatrix(h, scheme, &trees)?;
    Some(linalg::is_invertible(&mh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use nab_netgraph::gen;
    use std::collections::BTreeSet;

    #[test]
    fn ch_dimensions() {
        let g = gen::figure_2a();
        let scheme = CodingScheme::random(&g, 1, 1);
        let ch = build_ch(&g, &scheme);
        // 4 nodes → 3 blocks × ρ=1 rows; m = total capacity = 6 columns.
        assert_eq!(ch.rows(), 3);
        assert_eq!(ch.cols(), 6);
    }

    #[test]
    fn ch_annihilates_equal_values_only() {
        let g = gen::figure_2a();
        let scheme = CodingScheme::random(&g, 1, 2);
        assert!(ch_is_sound(&g, &scheme), "random matrices should be sound");
        // Soundness means full row rank: the left kernel (the space of
        // difference vectors D_H with D_H C_H = 0) is trivial, i.e. only
        // equal values pass all checks.
        let ch = build_ch(&g, &scheme);
        let kernel = linalg::kernel_basis(&ch.transpose());
        assert_eq!(kernel.rows(), 0, "left kernel must be trivial when sound");
    }

    #[test]
    fn mh_is_invertible_on_paper_example() {
        let g = gen::figure_2a();
        // U for figure_2a's undirected view ≥ 2 → ρ = 1 is valid.
        let scheme = CodingScheme::random(&g, 1, 3);
        assert_eq!(mh_invertible(&g, &scheme), Some(true));
    }

    #[test]
    fn mh_with_rho_2_on_dense_graph() {
        let g = gen::complete(4, 2);
        // Undirected K4 with cap 4 per edge: U = 12 ≥ 4 → ρ=2 fine.
        let scheme = CodingScheme::random(&g, 2, 4);
        assert_eq!(mh_invertible(&g, &scheme), Some(true));
        assert!(ch_is_sound(&g, &scheme));
    }

    #[test]
    fn rho_too_large_has_no_tree_packing() {
        let g = gen::figure_2a();
        // U = 2 for figure_2a's undirected view → ρ=3 cannot pack.
        let scheme = CodingScheme::random(&g, 3, 5);
        assert_eq!(mh_invertible(&g, &scheme), None);
    }

    #[test]
    fn soundness_over_all_omega_subgraphs() {
        // The full Theorem 1 statement: simultaneously sound on every
        // H ∈ Ω.
        let g = gen::complete(4, 2);
        let f = 1;
        let rho = bounds::rho_star(&g, f).expect("rho* exists");
        let scheme = CodingScheme::random(&g, rho as usize, 11);
        for h_nodes in bounds::omega_subsets(&g, f, &BTreeSet::new()) {
            let h = g.induced_subgraph(&h_nodes);
            assert!(ch_is_sound(&h, &scheme), "unsound on {h_nodes:?}");
        }
    }

    #[test]
    fn colliding_values_none_when_sound() {
        let g = gen::complete(4, 2);
        let scheme = CodingScheme::random(&g, 2, 7);
        assert!(ch_is_sound(&g, &scheme));
        assert!(colliding_values(&g, &scheme).is_none());
    }

    #[test]
    fn colliding_values_defeat_overgreedy_rho() {
        use crate::equality::tests::equality_check_flags;
        use std::collections::BTreeSet;
        // figure_2a's undirected view has U = 2 → the paper requires
        // ρ ≤ 1. With ρ = 2, the candidate fault-free subgraph
        // H = {1, 3, 4} (ids 0, 2, 3) has only m = 2 coded symbols against
        // 4 difference dimensions: property (EC) is information-
        // theoretically unachievable. The attack: honest nodes hold a
        // kernel collision of C_H, and the faulty node (id 1) sends each
        // neighbor exactly what that neighbor expects.
        let g = gen::figure_2a();
        let scheme = CodingScheme::random(&g, 2, 13);
        let h_nodes: BTreeSet<NodeId> = BTreeSet::from([0, 2, 3]);
        let h = g.induced_subgraph(&h_nodes);
        let collision = colliding_values(&h, &scheme).expect("ρ > U_H/2 must be attackable on H");
        #[expect(
            clippy::disallowed_types,
            reason = "counts distinct values; `Value` is not `Ord`, and the set is never iterated"
        )]
        let distinct: std::collections::HashSet<_> = collision.values().collect();
        assert!(distinct.len() > 1, "attack must produce disagreement");

        // Full-graph values: honest nodes take the collision; faulty node
        // 1 holds anything (say zeros).
        let mut values = collision.clone();
        values.insert(1, crate::value::Value::zeros(2));
        // The faulty sender forges coded symbols per receiver.
        let forged: std::collections::BTreeMap<NodeId, Vec<Gf2_16>> = g
            .out_edges(1)
            .map(|(_, e)| (e.dst, scheme.encode(1, e.dst, &values[&e.dst])))
            .collect();
        let mut tamper = |src: NodeId, dst: NodeId, honest: Vec<Gf2_16>| {
            if src == 1 {
                forged[&dst].clone()
            } else {
                honest
            }
        };
        let flags = equality_check_flags(&g, &values, &scheme, &mut tamper);
        // No *fault-free* node raises a flag: the mismatch among honest
        // nodes goes entirely undetected — the (EC) violation the ρ ≤ U/2
        // hypothesis exists to prevent. (The faulty node's own flag is
        // meaningless; it would simply announce NULL.)
        for (&v, &flag) in &flags {
            if v != 1 {
                assert!(!flag, "fault-free node {v} flagged; attack failed");
            }
        }
    }

    #[test]
    fn vandermonde_scheme_is_sound_on_paper_graphs() {
        // Ablation: the deterministic construction also achieves soundness
        // on the worked examples at the paper-prescribed ρ.
        for (g, rho) in [(gen::figure_2a(), 1usize), (gen::complete(4, 2), 2)] {
            let scheme = CodingScheme::vandermonde(&g, rho);
            for h_nodes in crate::bounds::omega_subsets(&g, 1, &std::collections::BTreeSet::new()) {
                let h = g.induced_subgraph(&h_nodes);
                assert!(ch_is_sound(&h, &scheme), "unsound on {h_nodes:?}");
            }
        }
    }

    #[test]
    fn too_few_check_columns_are_unsound() {
        // Soundness needs m ≥ (n_H − 1)ρ columns; with only two coded
        // symbols in play the rank predicate must fail — demonstrating
        // that the capacity budget (not just randomness) carries Theorem 1.
        let g = gen::figure_2a();
        let scheme = CodingScheme::random(&g, 1, 6);
        let ch = build_ch(&g, &scheme);
        let fewer = ch.select_cols(&[0, 1]);
        assert!(linalg::rank(&fewer) < ch.rows());
    }
}
