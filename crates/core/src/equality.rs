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

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use nab_gf::field::Field;
use nab_gf::matrix::Matrix;
use nab_gf::Gf2_16;
use nab_netgraph::{DiGraph, EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::value::Value;

/// The per-edge coding matrices `{C_e | e ∈ E_k}` for one instance.
///
/// The matrices are part of the *algorithm specification*: every node knows
/// all of them (they are generated from a public seed), so a receiver can
/// recompute the expected coded symbols from its own value.
///
/// A clone shares the row layout and the entries, so it costs two
/// reference-count bumps.
#[derive(Debug, Clone)]
pub struct CodingScheme {
    rho: usize,
    layout: Arc<RowLayout>,
    /// Every `C_eᵀ` (`z_e × ρ`) stacked row-wise: the left operand of the
    /// slab product `Yᵀ = Cᵀ · Xᵀ`, stored in the layout the multiply
    /// reads — so when every node holds the same value the whole check is
    /// this matrix times that value's slab.
    stacked: Arc<Stack>,
}

/// Which rows of the stacked `Cᵀ` are each live edge's `C_eᵀ`: one entry
/// per live edge in `g.edges()` order, each edge's rows after the last
/// one's. It depends on the graph alone, so one layout serves every
/// instance on a `G_k` ([`crate::plan::Gk`] holds it).
#[derive(Debug, PartialEq, Eq)]
pub struct RowLayout {
    edges: Vec<LaidEdge>,
    /// Rows of the stack: `Σ_e z_e`.
    height: usize,
}

/// One live edge of a [`RowLayout`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LaidEdge {
    pub(crate) id: EdgeId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    /// Its `z_e` rows of the stack.
    pub(crate) rows: Range<usize>,
}

impl RowLayout {
    /// The layout of `g`'s live edges.
    pub fn new(g: &DiGraph) -> RowLayout {
        let mut height = 0;
        let edges = g
            .edges()
            .map(|(id, e)| {
                let rows = height..height + e.cap as usize;
                height = rows.end;
                LaidEdge {
                    id,
                    src: e.src,
                    dst: e.dst,
                    rows,
                }
            })
            .collect();
        RowLayout { edges, height }
    }
}

/// Where a scheme's stacked `Cᵀ` comes from.
#[derive(Debug)]
enum Stack {
    /// Uniform random entries from `seed`, drawn on first read.
    Drawn {
        seed: u64,
        entries: OnceLock<Matrix<Gf2_16>>,
    },
    /// Entries built with the layout.
    Built(Matrix<Gf2_16>),
}

impl CodingScheme {
    /// A scheme on `layout` with the stacked `Cᵀ` from `stack`.
    fn new(layout: Arc<RowLayout>, rho: usize, stack: Stack) -> Self {
        assert!(rho > 0, "equality-check parameter ρ must be positive");
        let stacked = Arc::new(stack);
        CodingScheme {
            rho,
            layout,
            stacked,
        }
    }

    /// Uniform random coding matrices for every live edge of `g`, with
    /// equality-check parameter `rho`, from a deterministic seed:
    /// [`CodingScheme::drawn`] on `g`'s [`RowLayout`].
    ///
    /// # Panics
    ///
    /// Panics if `rho` is zero.
    pub fn random(g: &DiGraph, rho: usize, seed: u64) -> Self {
        Self::drawn(Arc::new(RowLayout::new(g)), rho, seed)
    }

    /// Uniform random coding matrices on `layout`. Nothing is drawn here;
    /// the entries are drawn on first read, in the same order whoever
    /// reads first.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is zero.
    pub fn drawn(layout: Arc<RowLayout>, rho: usize, seed: u64) -> Self {
        let entries = OnceLock::new();
        Self::new(layout, rho, Stack::Drawn { seed, entries })
    }

    /// Draws the random stack from `seed`: edges in `g.edges()` order,
    /// each `C_e`'s entries in its row-major order.
    fn draw(&self, seed: u64) -> Matrix<Gf2_16> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Edges stack in draw order, so edge `e`'s `C_e` is the `z_e·ρ`
        // draws from `start·ρ` on.
        let draws: Vec<Gf2_16> = (0..self.layout.height * self.rho)
            .map(|_| Gf2_16::random(&mut rng))
            .collect();
        let mut stacked = Matrix::zero(self.layout.height, self.rho);
        for LaidEdge { rows, .. } in &self.layout.edges {
            let c_e = &draws[rows.start * self.rho..rows.end * self.rho];
            for (r, c_row) in c_e.chunks_exact(rows.len()).enumerate() {
                for (c, &entry) in c_row.iter().enumerate() {
                    stacked[(rows.start + c, r)] = entry;
                }
            }
        }
        stacked
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
        let layout = RowLayout::new(g);
        let height = layout.height;
        assert!(
            height <= 65_535,
            "graph too large for distinct GF(2^16) points"
        );
        let mut stacked = Matrix::zero(height, rho);
        let gen_elt = Gf2_16::from_u64(2); // generator of GF(2^16)* for 0x1100B
        let mut alpha = Gf2_16::from_u64(1);
        // Row `i` of the stack is the `i`-th coded symbol overall.
        for row in 0..height {
            alpha = alpha.mul(gen_elt);
            let mut p = Gf2_16::from_u64(1);
            for r in 0..rho {
                stacked[(row, r)] = p;
                p = p.mul(alpha);
            }
        }
        Self::new(Arc::new(layout), rho, Stack::Built(stacked))
    }

    /// The equality-check parameter `ρ`.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// All of `Cᵀ`: every edge's `C_eᵀ` stacked, `Σ_e z_e × ρ`; a random
    /// stack is drawn here on the first read of any clone.
    pub(crate) fn stacked(&self) -> &Matrix<Gf2_16> {
        match &*self.stacked {
            Stack::Drawn { seed, entries } => entries.get_or_init(|| self.draw(*seed)),
            Stack::Built(stacked) => stacked,
        }
    }

    /// Every live edge of the graph the scheme was laid out on, in
    /// `g.edges()` order, with its rows of [`CodingScheme::stacked`].
    pub(crate) fn layout(&self) -> &[LaidEdge] {
        &self.layout.edges
    }

    /// The rows of [`CodingScheme::stacked`] that are `C_eᵀ` of edge
    /// `(src, dst)`, found by a scan of the layout: `matrix`, `encode` and
    /// tests ask by endpoints. Panics if the edge has no matrix (edge
    /// absent at generation time).
    #[expect(
        clippy::panic,
        reason = "plan construction emits a matrix for every live edge"
    )]
    pub(crate) fn rows(&self, src: NodeId, dst: NodeId) -> Range<usize> {
        let laid = self.layout().iter().find(|e| (e.src, e.dst) == (src, dst));
        laid.map(|e| e.rows.clone())
            .unwrap_or_else(|| panic!("no coding matrix for edge ({src}, {dst})"))
    }

    /// The rows of [`CodingScheme::stacked`] that are `C_eᵀ` of edge `id`,
    /// found by a binary search of the layout, which is in edge-id order.
    /// Panics if the edge has no matrix.
    #[expect(
        clippy::panic,
        reason = "plan construction emits a matrix for every live edge"
    )]
    pub(crate) fn edge_rows(&self, id: EdgeId) -> Range<usize> {
        let at = self.layout().binary_search_by_key(&id, |e| e.id);
        at.map(|i| self.layout()[i].rows.clone())
            .unwrap_or_else(|_| panic!("no coding matrix for edge {id}"))
    }

    /// The coding matrix `C_e` of edge `(src, dst)`: `ρ × z_e`, the
    /// transpose of the edge's rows of the stack.
    ///
    /// # Panics
    ///
    /// Panics if the edge has no matrix (edge absent at generation time).
    pub fn matrix(&self, src: NodeId, dst: NodeId) -> Matrix<Gf2_16> {
        let (rows, stacked) = (self.rows(src, dst), self.stacked());
        Matrix::from_fn(self.rho, rows.len(), |r, c| stacked[(rows.start + c, r)])
    }

    /// Encodes a value for transmission on edge `(src, dst)`:
    /// `Y_e = X C_e` computed per 16-bit column, flattened column-major —
    /// the one-value case of the slab product the equality phase runs.
    pub fn encode(&self, src: NodeId, dst: NodeId, value: &Value) -> Vec<Gf2_16> {
        let mut xt = Matrix::default();
        pack_slab(value, self.rho, &mut xt);
        self.encode_packed(self.rows(src, dst), &xt)
    }

    /// [`CodingScheme::encode`] of a value already packed by `pack_slab`,
    /// for a caller encoding one value on several edges: `Y_eᵀ = C_eᵀ ·
    /// Xᵀ` for the edge whose rows of the stack are `rows`, those rows
    /// times the `ρ × W` slab `xt`, in wire order. (The equality phase
    /// multiplies a class's rows at once instead.)
    ///
    /// # Panics
    ///
    /// Panics if `xt` has `!= ρ` rows.
    pub(crate) fn encode_packed(&self, rows: Range<usize>, xt: &Matrix<Gf2_16>) -> Vec<Gf2_16> {
        assert_eq!(xt.rows(), self.rho, "packed slab must have ρ rows");
        let stacked = self.stacked();
        let ct = Matrix::from_fn(rows.len(), self.rho, |r, c| stacked[(rows.start + r, c)]);
        let yt = ct.mat_mul(xt);
        wire_order(&yt, 0..yt.rows(), yt.cols())
    }
}

/// Packs `value` into `xt`, the `Xᵀ` operand of the slab product: a
/// row-major `ρ × ⌈len/ρ⌉` slab where symbol `j·ρ + r` lands at `(r, j)`,
/// zero-padded to whole columns, written straight from the symbols.
/// Whatever `xt` held is overwritten; its allocation is kept.
pub(crate) fn pack_slab(value: &Value, rho: usize, xt: &mut Matrix<Gf2_16>) {
    let width = value.len().div_ceil(rho);
    xt.reset(rho, width);
    let slab = xt.as_mut_slice();
    for (j, col) in value.symbols().chunks(rho).enumerate() {
        for (r, &sym) in col.iter().enumerate() {
            slab[r * width + j] = sym;
        }
    }
}

/// The coded symbols on one edge — rows `rows`, the first `cols` columns
/// of a `Yᵀ = Cᵀ · Xᵀ` product — in the order they go on the wire,
/// column-major, one `z`-symbol product after another: with
/// `z = rows.len()`, symbol `j·z + r` is `Yᵀ(rows.start + r, j)`.
pub(crate) fn wire_order(yt: &Matrix<Gf2_16>, rows: Range<usize>, cols: usize) -> Vec<Gf2_16> {
    let z = rows.len();
    let mut out = vec![Gf2_16::ZERO; cols * z];
    for (r, row) in rows.enumerate() {
        for (j, &sym) in yt.row(row)[..cols].iter().enumerate() {
            out[j * z + r] = sym;
        }
    }
    out
}

/// The Theorem 1 failure-probability bound
/// `2^{−m} · C(n, n−f) · (n−f−1) · ρ`, where `m` is the per-symbol bit
/// width (the paper's `L/ρ`; 16 in this implementation's machine field).
pub fn theorem1_failure_bound(n: usize, f: usize, rho: usize, m_bits: u32) -> f64 {
    let choose = binomial(n, n - f) as f64;
    choose * (n - f - 1) as f64 * rho as f64 / 2f64.powi(m_bits as i32)
}

/// Binomial coefficient `C(n, k)`: exact whenever it fits in a `u128`,
/// `u128::MAX` when it does not.
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    // After step `i`, `c = C(n, i + 1)`, which never exceeds `C(n, k)` for
    // `i < k ≤ n/2`: an overflow at any step means the result overflows.
    // `i+1` divides `c·(n−i)`; once `c` and `i+1` are divided by their gcd
    // `g`, `(i+1)/g` is coprime to `c/g`, so it divides `n−i` exactly.
    let mut c: u128 = 1;
    for i in 0..k {
        let (d, m) = ((i + 1) as u128, (n - i) as u128);
        let g = gcd(c, d);
        match (c / g).checked_mul(m / (d / g)) {
            Some(next) => c = next,
            None => return u128::MAX,
        }
    }
    c
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::value::tests::arb_value;
    use crate::value::SYMBOL_BITS;
    use nab_gf::kernel::scalar_gemm_acc;
    use nab_netgraph::gen;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
    pub(crate) fn equality_check_flags(
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
    pub(crate) fn no_tamper(_: NodeId, _: NodeId, honest: Vec<Gf2_16>) -> Vec<Gf2_16> {
        honest
    }

    impl CodingScheme {
        /// Test oracle for the slab path: encodes pre-reshaped symbol
        /// columns (from [`Value::reshape`] with this scheme's `ρ`) one
        /// vector product per column, one [`Field::mul`] at a time.
        pub(crate) fn encode_cols(
            &self,
            src: NodeId,
            dst: NodeId,
            cols: &[Vec<Gf2_16>],
        ) -> Vec<Gf2_16> {
            let c = self.matrix(src, dst);
            let mut out = Vec::with_capacity(cols.len() * c.cols());
            for x in cols {
                let mut y = vec![Gf2_16::ZERO; c.cols()];
                scalar_gemm_acc(&mut y, x, c.as_slice(), 1, self.rho, c.cols());
                out.extend(y);
            }
            out
        }

        /// Test oracle for the receiver check of step 2, on pre-reshaped
        /// columns: does `received` equal `X_j C_e` for the receiver's own
        /// value?
        pub(crate) fn check_cols(
            &self,
            src: NodeId,
            dst: NodeId,
            own_cols: &[Vec<Gf2_16>],
            received: &[Gf2_16],
        ) -> bool {
            self.encode_cols(src, dst, own_cols) == received
        }

        /// Number of coded symbols [`CodingScheme::encode`] produces on an edge
        /// for a value of `s` symbols.
        fn encoded_len(&self, src: NodeId, dst: NodeId, s: usize) -> usize {
            s.div_ceil(self.rho) * self.rows(src, dst).len()
        }

        /// Bits transmitted on the edge for a value of `s` symbols
        /// (`z_e · L/ρ`, rounded up to whole columns).
        fn encoded_bits(&self, src: NodeId, dst: NodeId, s: usize) -> u64 {
            self.encoded_len(src, dst, s) as u64 * SYMBOL_BITS
        }

        /// Whether the entries have been drawn (or built).
        pub(crate) fn is_drawn(&self) -> bool {
            match &*self.stacked {
                Stack::Drawn { entries, .. } => entries.get().is_some(),
                Stack::Built(_) => true,
            }
        }
    }

    fn values_all_equal(g: &DiGraph, v: &Value) -> BTreeMap<NodeId, Value> {
        g.nodes().map(|n| (n, v.clone())).collect()
    }

    proptest! {
        #[test]
        fn equal_values_never_flag(v in arb_value(32), seed in any::<u64>(), rho in 1usize..4) {
            let g = gen::complete(4, 2);
            let scheme = CodingScheme::random(&g, rho, seed);
            let values = g.nodes().map(|n| (n, v.clone())).collect();
            let flags = equality_check_flags(&g, &values, &scheme, &mut no_tamper);
            prop_assert!(flags.values().all(|f| !f));
        }

        #[test]
        fn single_symbol_deviation_always_detected(
            v in arb_value(32),
            idx_seed in any::<u64>(),
            delta in 1u64..0xFFFF,
            seed in any::<u64>(),
        ) {
            // Over GF(2^16) a one-symbol deviation escapes a single coded
            // check with probability 2^-16; over the whole graph and test run
            // this should never fire.
            let g = gen::complete(4, 2);
            let scheme = CodingScheme::random(&g, 2, seed);
            let idx = (idx_seed as usize) % v.len();
            let mut values: std::collections::BTreeMap<_, _> =
                g.nodes().map(|n| (n, v.clone())).collect();
            values.insert(3, v.corrupt_symbol(idx, delta));
            let flags = equality_check_flags(&g, &values, &scheme, &mut no_tamper);
            prop_assert!(flags.values().any(|f| *f));
        }
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

    /// `2` has order `2^16 − 1` under `0x1100B`, so a stack of 65,535
    /// coded symbols gets 65,535 distinct points `2^1 … 2^65535`.
    #[test]
    fn vandermonde_gives_65535_symbols_distinct_points() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 65_535);
        assert_eq!(CodingScheme::vandermonde(&g, 1).matrix(0, 1).cols(), 65_535);
        // At ρ = 2 the second row holds the points.
        let m = CodingScheme::vandermonde(&g, 2).matrix(0, 1);
        assert!(m.row(0).iter().all(|&one| one == Gf2_16::ONE));
        let mut points: Vec<u64> = m.row(1).iter().map(|p| p.to_u64()).collect();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), 65_535);
    }

    #[test]
    #[should_panic(expected = "graph too large for distinct GF(2^16) points")]
    fn vandermonde_rejects_a_65536th_symbol() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 65_536);
        let _ = CodingScheme::vandermonde(&g, 1);
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
    fn binomials_are_exact_up_to_u128_and_saturate_past_it() {
        // Fits, though `C(126, 60)·66`, a product on the way to it, does
        // not.
        assert_eq!(
            binomial(126, 63),
            6_034_934_435_761_406_706_427_864_636_568_328_000
        );
        // The largest central binomial that fits.
        assert_eq!(
            binomial(131, 65),
            188_694_833_082_770_476_622_296_176_145_946_360_850
        );
        assert_eq!(binomial(132, 66), u128::MAX);
        assert_eq!(binomial(200, 100), u128::MAX);
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
