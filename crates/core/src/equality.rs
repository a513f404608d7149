//! The Equality Check algorithm with local linear coding (Algorithm 1).
//!
//! Each node `i` holds an `L`-bit value `x_i` (what it received in
//! Phase 1), viewed as `ρ` symbols `X_i ∈ GF(2^{L/ρ})^ρ`. On every outgoing
//! link `e = (i, j)` of capacity `z_e`, node `i` transmits `Y_e = X_i C_e`,
//! where `C_e` is a `ρ × z_e` coding matrix fixed by the algorithm; node
//! `j` checks `Y_e = X_j C_e` against its own value and raises a MISMATCH
//! flag on failure. One round, no forwarding — a faulty node can send bad
//! coded symbols but cannot tamper with symbols exchanged between
//! fault-free nodes.
//!
//! Theorem 1: when `ρ ≤ U/2` and the `C_e` entries are uniform random, the
//! scheme is *correct* — any two fault-free nodes with different values
//! cause a MISMATCH at some fault-free node — with probability at least
//! `1 − 2^{−L/ρ}·C(n, n−f)·(n−f−1)·ρ`.

use std::collections::BTreeMap;
use std::ops::Range;

use nab_gf::field::Field;
use nab_gf::matrix::Matrix;
use nab_gf::{Gf2_16, WordMatrix};
use nab_netgraph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::value::{Value, SYMBOL_BITS};

/// The per-edge coding matrices `{C_e | e ∈ E_k}` for one instance.
///
/// The matrices are part of the *algorithm specification*: every node knows
/// all of them (they are generated from a public seed), so a receiver can
/// recompute the expected coded symbols from its own value.
#[derive(Debug, Clone)]
pub struct CodingScheme {
    rho: usize,
    /// Every `C_eᵀ` (`z_e × ρ`) stacked row-wise, edges in `g.edges()`
    /// order: the left operand of the slab product `Yᵀ = Cᵀ · Xᵀ`, stored
    /// in the layout the multiply reads — so when every node holds the
    /// same value the whole check is this matrix times that value's slab.
    stacked: WordMatrix,
    /// The rows of `stacked` that are edge `(src, dst)`'s `C_eᵀ`.
    rows: BTreeMap<(NodeId, NodeId), Range<usize>>,
}

impl CodingScheme {
    /// The all-zero scheme on `g`'s live edges: the row layout, entries
    /// still to be written.
    fn zeroed(g: &DiGraph, rho: usize) -> Self {
        assert!(rho > 0, "equality-check parameter ρ must be positive");
        let mut rows = BTreeMap::new();
        let mut total = 0;
        for (_, e) in g.edges() {
            rows.insert((e.src, e.dst), total..total + e.cap as usize);
            total += e.cap as usize;
        }
        CodingScheme {
            rho,
            stacked: WordMatrix::zero(total, rho),
            rows,
        }
    }

    /// Samples uniform random coding matrices for every live edge of `g`,
    /// with equality-check parameter `rho`, from a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is zero.
    pub fn random(g: &DiGraph, rho: usize, seed: u64) -> Self {
        let mut scheme = Self::zeroed(g, rho);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut start = 0;
        for (_, e) in g.edges() {
            // Entries are drawn in `C_e`'s row-major order.
            for r in 0..rho {
                for c in 0..e.cap as usize {
                    scheme.stacked.set(start + c, r, Gf2_16::random(&mut rng));
                }
            }
            start += e.cap as usize;
        }
        scheme
    }

    /// Builds a *deterministic* Vandermonde coding scheme: the `t`-th
    /// coded symbol of edge `e` uses the column `(1, α, α², …, α^{ρ−1})`
    /// for a globally distinct evaluation point `α` (consecutive powers of
    /// the field generator). An ablation alternative to random matrices —
    /// structured, reproducible without a seed, and empirically sound on
    /// well-provisioned graphs, though Theorem 1's probabilistic guarantee
    /// only covers the random construction.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is zero or the graph needs more than `2^16 − 1`
    /// distinct evaluation points.
    pub fn vandermonde(g: &DiGraph, rho: usize) -> Self {
        let mut scheme = Self::zeroed(g, rho);
        assert!(
            scheme.stacked.rows() < 65_535,
            "graph too large for distinct GF(2^16) points"
        );
        let gen_elt = Gf2_16::from_u64(2); // generator of GF(2^16)* for 0x1100B
        let mut alpha = Gf2_16::from_u64(1);
        // Row `i` of the stack is the `i`-th coded symbol overall.
        for row in 0..scheme.stacked.rows() {
            alpha = alpha.mul(gen_elt);
            let mut p = Gf2_16::from_u64(1);
            for r in 0..rho {
                scheme.stacked.set(row, r, p);
                p = p.mul(alpha);
            }
        }
        scheme
    }

    /// The equality-check parameter `ρ`.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// All of `Cᵀ`: every edge's `C_eᵀ` stacked, `Σ_e z_e × ρ`.
    pub(crate) fn stacked(&self) -> &WordMatrix {
        &self.stacked
    }

    /// The rows of [`CodingScheme::stacked`] that are `C_eᵀ` of edge
    /// `(src, dst)`. Panics if the edge has no matrix (edge absent at
    /// generation time).
    #[expect(
        clippy::panic,
        reason = "plan construction emits a matrix for every live edge"
    )]
    pub(crate) fn rows(&self, src: NodeId, dst: NodeId) -> Range<usize> {
        self.rows
            .get(&(src, dst))
            .cloned()
            .unwrap_or_else(|| panic!("no coding matrix for edge ({src}, {dst})"))
    }

    /// The coding matrix `C_e` of edge `(src, dst)`: `ρ × z_e`.
    ///
    /// # Panics
    ///
    /// Panics if the edge has no matrix (edge absent at generation time).
    pub fn matrix(&self, src: NodeId, dst: NodeId) -> Matrix<Gf2_16> {
        let rows = self.rows(src, dst);
        Matrix::from_fn(self.rho, rows.len(), |r, c| {
            self.stacked.get(rows.start + c, r)
        })
    }

    /// Encodes a value for transmission on edge `(src, dst)`:
    /// `Y_e = X C_e` computed per 16-bit column, flattened column-major —
    /// the one-value case of the slab product the equality phase runs.
    pub fn encode(&self, src: NodeId, dst: NodeId, value: &Value) -> Vec<Gf2_16> {
        let mut xt = WordMatrix::default();
        pack_slab(value, self.rho, &mut xt);
        self.encode_packed(src, dst, &xt)
    }

    /// [`CodingScheme::encode`] of a value already packed by `pack_slab`,
    /// for a caller encoding one value on several edges.
    pub(crate) fn encode_packed(&self, src: NodeId, dst: NodeId, xt: &WordMatrix) -> Vec<Gf2_16> {
        let yt = self.encode_slab(src, dst, xt);
        wire_order(&yt, 0..yt.rows(), yt.cols())
    }

    /// Test oracle for the slab path: encodes pre-reshaped symbol columns
    /// (from [`Value::reshape`] with this scheme's `ρ`) one vector product
    /// per column.
    pub fn encode_cols(&self, src: NodeId, dst: NodeId, cols: &[Vec<Gf2_16>]) -> Vec<Gf2_16> {
        let c = self.matrix(src, dst);
        let mut out = Vec::with_capacity(cols.len() * c.cols());
        for x in cols {
            out.extend(c.left_mul_vec(x));
        }
        out
    }

    /// `Y_eᵀ = C_eᵀ · Xᵀ` for one edge, where `xt` is a `ρ × W` row-major
    /// slab whose columns are a value's columns (see `pack_slab`): the
    /// edge's rows of the stack times the slab, one
    /// [`WordMatrix::mat_mul`] with `W`-long rows. Entry `(r, c)` of the
    /// result is coded symbol `r` of packed column `c`, bit-identical to
    /// [`CodingScheme::encode_cols`] on the same columns. (The equality
    /// phase multiplies the whole stack at once instead.)
    ///
    /// # Panics
    ///
    /// Panics if the edge has no matrix or `xt` has `!= ρ` rows.
    pub fn encode_slab(&self, src: NodeId, dst: NodeId, xt: &WordMatrix) -> WordMatrix {
        assert_eq!(xt.rows(), self.rho, "packed slab must have ρ rows");
        let rows = self.rows(src, dst);
        WordMatrix::from_fn(rows.len(), self.rho, |r, c| {
            self.stacked.get(rows.start + r, c).0
        })
        .mat_mul(xt)
    }

    /// Number of coded symbols [`CodingScheme::encode`] produces on an edge
    /// for a value of `s` symbols.
    pub fn encoded_len(&self, src: NodeId, dst: NodeId, s: usize) -> usize {
        s.div_ceil(self.rho) * self.rows(src, dst).len()
    }

    /// Bits transmitted on the edge for a value of `s` symbols
    /// (`z_e · L/ρ`, rounded up to whole columns).
    pub fn encoded_bits(&self, src: NodeId, dst: NodeId, s: usize) -> u64 {
        self.encoded_len(src, dst, s) as u64 * SYMBOL_BITS
    }

    /// Test oracle for the receiver check of step 2, on pre-reshaped
    /// columns: does `received` equal `X_j C_e` for the receiver's own
    /// value?
    pub fn check_cols(
        &self,
        src: NodeId,
        dst: NodeId,
        own_cols: &[Vec<Gf2_16>],
        received: &[Gf2_16],
    ) -> bool {
        self.encode_cols(src, dst, own_cols) == received
    }
}

/// Packs `value` into `xt`, the `Xᵀ` operand of the slab product: a
/// row-major `ρ × ⌈len/ρ⌉` slab where symbol `j·ρ + r` lands at `(r, j)`,
/// zero-padded to whole columns — the layout of [`Value::reshape`], written
/// straight from the symbols. Whatever `xt` held is overwritten; its
/// allocation is kept. Returns the column count.
pub(crate) fn pack_slab(value: &Value, rho: usize, xt: &mut WordMatrix) -> usize {
    let width = value.len().div_ceil(rho);
    xt.reset(rho, width);
    let slab = xt.as_mut_slice();
    for (j, col) in value.symbols().chunks(rho).enumerate() {
        for (r, &sym) in col.iter().enumerate() {
            slab[r * width + j] = sym;
        }
    }
    width
}

/// The coded symbols on one edge — rows `rows`, the first `cols` columns
/// of a `Yᵀ = Cᵀ · Xᵀ` product — in the order they go on the wire,
/// column-major like [`CodingScheme::encode_cols`]: with `z = rows.len()`,
/// symbol `j·z + r` is `Yᵀ(rows.start + r, j)`.
pub(crate) fn wire_order(yt: &WordMatrix, rows: Range<usize>, cols: usize) -> Vec<Gf2_16> {
    let z = rows.len();
    let mut out = vec![Gf2_16::ZERO; cols * z];
    for (r, row) in rows.enumerate() {
        for (j, &sym) in yt.row(row)[..cols].iter().enumerate() {
            out[j * z + r] = sym;
        }
    }
    out
}

/// Pure (simulator-free) execution of Algorithm 1 on graph `g` with the
/// values held by each node, one vector product per column — the test
/// oracle for the slab-product equality check of [`crate::phase2`].
///
/// `tamper(i, j, honest)` lets a Byzantine sender substitute the coded
/// symbols it puts on edge `(i, j)`; pass [`no_tamper`] for fault-free
/// runs. Returns each node's 1-bit flag: `true` = MISMATCH.
///
/// # Panics
///
/// Panics if some active node is missing from `values`.
pub fn equality_check_flags(
    g: &DiGraph,
    values: &BTreeMap<NodeId, Value>,
    scheme: &CodingScheme,
    tamper: &mut dyn FnMut(NodeId, NodeId, Vec<Gf2_16>) -> Vec<Gf2_16>,
) -> BTreeMap<NodeId, bool> {
    let mut flags: BTreeMap<NodeId, bool> = g.nodes().map(|v| (v, false)).collect();
    // Reshape each node's value once, not once per incident edge.
    let reshaped: BTreeMap<NodeId, Vec<Vec<Gf2_16>>> = g
        .nodes()
        .map(|v| (v, values[&v].reshape(scheme.rho())))
        .collect();
    for (_, e) in g.edges() {
        let honest = scheme.encode_cols(e.src, e.dst, &reshaped[&e.src]);
        let sent = tamper(e.src, e.dst, honest);
        if !scheme.check_cols(e.src, e.dst, &reshaped[&e.dst], &sent) {
            flags.insert(e.dst, true);
        }
    }
    flags
}

/// A pass-through tamper function (all nodes follow the protocol).
pub fn no_tamper(_: NodeId, _: NodeId, honest: Vec<Gf2_16>) -> Vec<Gf2_16> {
    honest
}

/// The Theorem 1 failure-probability bound
/// `2^{−m} · C(n, n−f) · (n−f−1) · ρ`, where `m` is the per-symbol bit
/// width (the paper's `L/ρ`; 16 in this implementation's machine field).
pub fn theorem1_failure_bound(n: usize, f: usize, rho: usize, m_bits: u32) -> f64 {
    let choose = binomial(n, n - f) as f64;
    choose * (n - f - 1) as f64 * rho as f64 / 2f64.powi(m_bits as i32)
}

/// Binomial coefficient (saturating; fine for the small `n` used here).
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: u128 = 1;
    for i in 0..k {
        num = num * (n - i) as u128 / (i + 1) as u128;
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    fn values_all_equal(g: &DiGraph, v: &Value) -> BTreeMap<NodeId, Value> {
        g.nodes().map(|n| (n, v.clone())).collect()
    }

    #[test]
    fn equal_values_raise_no_flags() {
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 99);
        let v = Value::from_u64s(&[10, 20, 30, 40]);
        let flags = equality_check_flags(&g, &values_all_equal(&g, &v), &scheme, &mut no_tamper);
        assert!(flags.values().all(|f| !f));
    }

    #[test]
    fn single_deviant_value_is_detected() {
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 7);
        let v = Value::from_u64s(&[10, 20, 30, 40]);
        let mut vals = values_all_equal(&g, &v);
        vals.insert(2, v.corrupt_symbol(1, 4));
        let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
        assert!(
            flags.values().any(|f| *f),
            "a mismatching neighbor must raise a flag"
        );
    }

    #[test]
    fn detection_probability_matches_theorem1_shape() {
        // Random coding over GF(2^16): a single differing pair is missed
        // with probability ~2^-16 per coded symbol; over many trials we
        // must see (essentially) perfect detection.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = gen::complete(4, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut detected = 0;
        let trials = 200;
        for t in 0..trials {
            let scheme = CodingScheme::random(&g, 2, t as u64);
            let v = Value::random(8, &mut rng);
            let mut vals = values_all_equal(&g, &v);
            let idx = rng.gen_range(0..8);
            vals.insert(3, v.corrupt_symbol(idx, rng.gen::<u64>() & 0xFFFF));
            let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
            if flags.values().any(|f| *f) {
                detected += 1;
            }
        }
        assert_eq!(detected, trials, "missed detections far above 2^-16 rate");
    }

    #[test]
    fn tampered_symbols_flag_the_receiver() {
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 3);
        let v = Value::from_u64s(&[1, 2, 3, 4]);
        let vals = values_all_equal(&g, &v);
        // Node 1 garbles what it sends to node 2 (edge (1,2) exists in
        // figure_1a).
        let mut tamper = |src: NodeId, dst: NodeId, mut y: Vec<Gf2_16>| {
            if src == 1 && dst == 2 {
                y[0] = y[0].add(Gf2_16::ONE);
            }
            y
        };
        let flags = equality_check_flags(&g, &vals, &scheme, &mut tamper);
        assert!(flags[&2], "tampered edge must flag node 2");
        assert!(!flags[&0] && !flags[&3]);
    }

    #[test]
    fn encode_check_roundtrip() {
        let g = gen::complete(3, 2);
        let scheme = CodingScheme::random(&g, 2, 5);
        let v = Value::from_u64s(&[9, 8, 7, 6]);
        let y = scheme.encode(0, 1, &v);
        assert!(scheme.check_cols(0, 1, &v.reshape(2), &y));
        let w = v.corrupt_symbol(0, 2);
        assert_ne!(scheme.encode(0, 1, &w), y);
        assert!(!scheme.check_cols(0, 1, &w.reshape(2), &y));
    }

    #[test]
    fn encoded_sizes_match_capacity() {
        let g = gen::complete(3, 4); // z_e = 4
        let scheme = CodingScheme::random(&g, 2, 5);
        // 8 symbols, ρ=2 → 4 columns × z_e=4 coded symbols = 16.
        assert_eq!(scheme.encoded_len(0, 1, 8), 16);
        assert_eq!(scheme.encoded_bits(0, 1, 8), 256);
        let v = Value::from_u64s(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(scheme.encode(0, 1, &v).len(), 16);
    }

    #[test]
    fn vandermonde_scheme_detects_deviations() {
        let g = gen::complete(4, 2);
        let scheme = CodingScheme::vandermonde(&g, 2);
        let v = Value::from_u64s(&[1, 2, 3, 4, 5, 6]);
        let mut vals = values_all_equal(&g, &v);
        let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
        assert!(flags.values().all(|f| !f));
        vals.insert(2, v.corrupt_symbol(3, 9));
        let flags = equality_check_flags(&g, &vals, &scheme, &mut no_tamper);
        assert!(flags.values().any(|f| *f));
    }

    #[test]
    fn vandermonde_is_deterministic() {
        let g = gen::figure_2a();
        let a = CodingScheme::vandermonde(&g, 1);
        let b = CodingScheme::vandermonde(&g, 1);
        let v = Value::from_u64s(&[7, 8]);
        assert_eq!(a.encode(0, 1, &v), b.encode(0, 1, &v));
    }

    #[test]
    fn vandermonde_columns_are_vandermonde() {
        use nab_gf::linalg;
        // Any ρ distinct columns of a ρ-row Vandermonde scheme on one edge
        // are linearly independent.
        let g = gen::complete(3, 4);
        let scheme = CodingScheme::vandermonde(&g, 3);
        let m = scheme.matrix(0, 1);
        let sub = m.select_cols(&[0, 1, 2]);
        assert!(linalg::is_invertible(&sub));
    }

    #[test]
    fn encode_matches_the_column_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = gen::complete(3, 4);
        let mut rng = StdRng::seed_from_u64(21);
        for rho in [1, 3, 4] {
            let scheme = CodingScheme::random(&g, rho, 77);
            // Empty, shorter than one column, ragged, and wide enough for
            // the vector kernel.
            for len in [0, 1, rho, 4 * rho + 1, 997] {
                let v = Value::random(len, &mut rng);
                let expect = scheme.encode_cols(1, 2, &v.reshape(rho));
                assert_eq!(scheme.encode(1, 2, &v), expect, "rho={rho} len={len}");
                assert_eq!(expect.len(), scheme.encoded_len(1, 2, len));
            }
        }
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(4, 3), 4);
        assert_eq!(binomial(7, 5), 21);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn failure_bound_shrinks_with_symbol_width() {
        let b8 = theorem1_failure_bound(4, 1, 1, 8);
        let b16 = theorem1_failure_bound(4, 1, 1, 16);
        assert!(b16 < b8);
        // n=4, f=1, ρ=1: C(4,3)·2·1 = 8 over 2^m.
        assert!((b8 - 8.0 / 256.0).abs() < 1e-12);
    }
}
