//! Row-major `GF(2^16)` word-slab linear algebra.
//!
//! The equality check packs the value-columns of many broadcast
//! instances/streams into one flat slab so encode/check on every edge
//! becomes a single matrix multiply over long contiguous rows — the shape the
//! arch-SIMD GEMM micro-kernel ([`crate::simd`]) is built for. Rows are
//! contiguous `Gf2_16` (repr(transparent) over `u16`), so products run on
//! whichever kernel tier the process detected.
//!
//! Every operation is bit-identical to the generic
//! [`crate::matrix::Matrix`] path (pinned by `tests/differential.rs`).

use rand::Rng;

use crate::gf2m::Gf2_16;
use crate::matrix::Matrix;
use crate::simd::gf2_16_gemm_acc;

/// A dense row-major `GF(2^16)` matrix stored as a flat word slab.
///
/// # Example
///
/// ```
/// use nab_gf::words::WordMatrix;
/// let i = WordMatrix::identity(3);
/// let a = WordMatrix::from_fn(3, 3, |r, c| (r * 3 + c) as u16);
/// assert_eq!(i.mat_mul(&a), a);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct WordMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf2_16>,
}

impl WordMatrix {
    /// The all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let mut m = Self::default();
        m.reset(rows, cols);
        m
    }

    /// Makes `self` the all-zero `rows × cols` matrix, keeping its
    /// allocation when that is large enough.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        #[expect(
            clippy::expect_used,
            reason = "dimension overflow is unrecoverable misuse; documented panic"
        )]
        let len = rows
            .checked_mul(cols)
            .expect("WordMatrix dimensions overflow usize");
        (self.rows, self.cols) = (rows, cols);
        self.data.clear();
        self.data.resize(len, Gf2_16(0));
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.data[i * n + i] = Gf2_16(1);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> u16) -> Self {
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = Gf2_16(f(r, c));
            }
        }
        m
    }

    /// A matrix with independently uniform random entries.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen::<u64>() as u16)
    }

    /// Converts from the generic element representation.
    pub fn from_matrix(m: &Matrix<Gf2_16>) -> Self {
        Self::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)].0)
    }

    /// Converts back to the generic element representation.
    pub fn to_matrix(&self) -> Matrix<Gf2_16> {
        Matrix::from_fn(self.rows, self.cols, |r, c| self.data[r * self.cols + c])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics (with the offending indices) when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Gf2_16 {
        assert!(
            r < self.rows && c < self.cols,
            "WordMatrix index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Entry setter.
    ///
    /// # Panics
    ///
    /// Panics (with the offending indices) when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Gf2_16) {
        assert!(
            r < self.rows && c < self.cols,
            "WordMatrix index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as an element slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[Gf2_16] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as an element slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Gf2_16] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix multiplication `self * rhs` as one `GF(2^16)` GEMM: the
    /// kernel tier's tables built once per coefficient of `self`, up to
    /// four output rows accumulated in registers per pass over `rhs`.
    /// Bit-identical to [`Matrix::mul`].
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.rows()`.
    pub fn mat_mul(&self, rhs: &WordMatrix) -> WordMatrix {
        let mut out = Self::default();
        self.mat_mul_into(rhs, &mut out);
        out
    }

    /// [`WordMatrix::mat_mul`] into a caller-owned matrix: `out` becomes
    /// `self * rhs` whatever it held (any shape), and allocates only when
    /// its buffer is smaller than the product.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.rows()`.
    pub fn mat_mul_into(&self, rhs: &WordMatrix, out: &mut WordMatrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "mat_mul dim mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset(self.rows, rhs.cols);
        gf2_16_gemm_acc(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// Row-vector × matrix product `v * self` (the Algorithm-1 encode
    /// shape): the one-row GEMM.
    ///
    /// # Panics
    ///
    /// Panics unless `v.len() == self.rows()`.
    pub fn left_mul_vec(&self, v: &[Gf2_16]) -> Vec<Gf2_16> {
        assert_eq!(
            v.len(),
            self.rows,
            "left_mul_vec dim mismatch: vector of {} over {} rows",
            v.len(),
            self.rows
        );
        let mut out = vec![Gf2_16(0); self.cols];
        gf2_16_gemm_acc(&mut out, v, &self.data, 1, self.rows, self.cols);
        out
    }

    /// Borrow the whole slab (row-major, rows contiguous).
    #[inline]
    pub fn as_slice(&self) -> &[Gf2_16] {
        &self.data
    }

    /// Mutably borrow the whole slab (row-major, rows contiguous).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Gf2_16] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mat_mul_matches_scalar_matrix() {
        let mut rng = StdRng::seed_from_u64(7);
        for (r, k, c) in [(3, 4, 5), (1, 1, 1), (7, 2, 9), (4, 4, 1024 + 37)] {
            let a = WordMatrix::random(r, k, &mut rng);
            let b = WordMatrix::random(k, c, &mut rng);
            let fast = a.mat_mul(&b);
            let slow = a.to_matrix().mul(&b.to_matrix());
            assert_eq!(fast.to_matrix(), slow);
        }
    }

    #[test]
    fn left_mul_vec_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = WordMatrix::random(5, 40, &mut rng);
        let v: Vec<Gf2_16> = (0..5).map(|_| Gf2_16::random(&mut rng)).collect();
        assert_eq!(a.left_mul_vec(&v), a.to_matrix().left_mul_vec(&v));
    }

    #[test]
    fn identity_and_accessors() {
        let i = WordMatrix::identity(4);
        assert_eq!(i.get(2, 2), Gf2_16(1));
        assert_eq!(i.get(2, 3), Gf2_16(0));
        let mut m = WordMatrix::zero(2, 3);
        m.set(1, 2, Gf2_16(0xABCD));
        assert_eq!(m.row(1), &[Gf2_16(0), Gf2_16(0), Gf2_16(0xABCD)]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    #[should_panic(expected = "mat_mul dim mismatch")]
    fn mat_mul_rejects_bad_shapes() {
        let a = WordMatrix::zero(2, 3);
        let b = WordMatrix::zero(2, 3);
        let _ = a.mat_mul(&b);
    }
}
