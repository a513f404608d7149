//! Dense matrices over an arbitrary [`Field`].
//!
//! The equality-check machinery of NAB is naturally phrased in matrix
//! language: per-edge coding matrices `C_e` (`ρ × z_e`), their block
//! expansions `B_e`, the concatenated check matrix `C_H`, and the square
//! spanning-tree submatrix `M_H` whose invertibility Theorem 1 establishes.
//! The equality check itself runs as one product of such matrices: the
//! stacked `Cᵀ` times a value's packed `Xᵀ` slab, rewritten in place with
//! [`Matrix::mat_mul_into`].
//!
//! Every product goes through the field's [`FastOps::gemm_acc`], so
//! `Matrix<Gf2_16>` multiplies on the arch-SIMD GEMM micro-kernel and every
//! other field one [`Field::mul`] at a time.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

use crate::field::Field;
use crate::kernel::FastOps;

/// A dense row-major matrix over a finite field `F`.
///
/// # Example
///
/// ```
/// use nab_gf::{Matrix, Gf2_16, Field};
/// let i = Matrix::<Gf2_16>::identity(3);
/// let a = Matrix::from_fn(3, 3, |r, c| Gf2_16::from_u64((r * 3 + c) as u64));
/// assert_eq!(i.mat_mul(&a), a);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// The all-zero `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
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
            .expect("matrix dimensions overflow usize");
        (self.rows, self.cols) = (rows, cols);
        self.data.clear();
        self.data.resize(len, F::ZERO);
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F) -> Self {
        let mut m = Self::zero(rows, cols);
        for (i, x) in m.data.iter_mut().enumerate() {
            *x = f(i / cols, i % cols);
        }
        m
    }

    /// Builds a matrix from a row-major nested vector.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows_in: Vec<Vec<F>>) -> Self {
        let rows = rows_in.len();
        let cols = rows_in.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows * cols);
        for row in &rows_in {
            assert_eq!(row.len(), cols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix { rows, cols, data }
    }

    /// A matrix with independently uniform random entries.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| F::random(rng))
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

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|x| x.is_zero())
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[F] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [F] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow every entry, row-major (rows contiguous).
    #[inline]
    pub fn as_slice(&self) -> &[F] {
        &self.data
    }

    /// Mutably borrow every entry, row-major (rows contiguous).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [F] {
        &mut self.data
    }

    /// Extracts column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<F> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix addition.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add dim mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a.add(b))
                .collect(),
        }
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: F) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x.mul(s)).collect(),
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Panics
    ///
    /// Panics unless row counts match.
    pub fn hstack(&self, rhs: &Self) -> Self {
        assert_eq!(self.rows, rhs.rows, "hstack row mismatch");
        Self::from_fn(self.rows, self.cols + rhs.cols, |r, c| {
            if c < self.cols {
                self[(r, c)]
            } else {
                rhs[(r, c - self.cols)]
            }
        })
    }

    /// Vertical concatenation `[self; rhs]`.
    ///
    /// # Panics
    ///
    /// Panics unless column counts match.
    pub fn vstack(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.cols, "vstack col mismatch");
        Self::from_fn(self.rows + rhs.rows, self.cols, |r, c| {
            if r < self.rows {
                self[(r, c)]
            } else {
                rhs[(r - self.rows, c)]
            }
        })
    }

    /// The submatrix selecting the given rows and columns (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Self {
        Self::from_fn(rows.len(), cols.len(), |r, c| self[(rows[r], cols[c])])
    }

    /// The submatrix selecting the given columns (all rows).
    pub fn select_cols(&self, cols: &[usize]) -> Self {
        let all_rows: Vec<usize> = (0..self.rows).collect();
        self.submatrix(&all_rows, cols)
    }

    /// Swaps two rows in place (no-op when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(
            a < self.rows && b < self.rows,
            "swap_rows({a}, {b}) out of bounds ({} rows)",
            self.rows
        );
        if a == b {
            return;
        }
        let w = self.cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * w);
        head[lo * w..(lo + 1) * w].swap_with_slice(&mut tail[..w]);
    }
}

impl<F: FastOps> Matrix<F> {
    /// Matrix multiplication `self * rhs`: one [`FastOps::gemm_acc`] into
    /// a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.rows()`.
    pub fn mat_mul(&self, rhs: &Self) -> Self {
        let mut out = Self::default();
        self.mat_mul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::mat_mul`] into a caller-owned matrix: `out` becomes
    /// `self * rhs` whatever it held (any shape), and allocates only when
    /// its buffer is smaller than the product.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.rows()`.
    pub fn mat_mul_into(&self, rhs: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, rhs.rows,
            "mat_mul dim mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset(self.rows, rhs.cols);
        F::gemm_acc(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// Row-vector × matrix product `v * self`, a vector of length
    /// `self.cols()`: the one-row product.
    ///
    /// This is the shape used by Algorithm 1 (`Y_e = X_i · C_e`).
    ///
    /// # Panics
    ///
    /// Panics unless `v.len() == self.rows()`.
    pub fn left_mul_vec(&self, v: &[F]) -> Vec<F> {
        assert_eq!(
            v.len(),
            self.rows,
            "left_mul_vec dim mismatch: vector of {} over {} rows",
            v.len(),
            self.rows
        );
        let mut out = vec![F::ZERO; self.cols];
        F::gemm_acc(&mut out, v, &self.data, 1, self.rows, self.cols);
        out
    }
}

impl<F: Field> Index<(usize, usize)> for Matrix<F> {
    type Output = F;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &F {
        debug_assert!(
            r < self.rows && c < self.cols,
            "matrix index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<F: Field> IndexMut<(usize, usize)> for Matrix<F> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut F {
        debug_assert!(
            r < self.rows && c < self.cols,
            "matrix index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<F: Field> fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:x} ", self[(r, c)].to_u64())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2m::Gf2m;

    type F = Gf2m<8>;
    type M = Matrix<F>;

    fn m(rows: &[&[u64]]) -> M {
        Matrix::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|&x| F::from_u64(x)).collect())
                .collect(),
        )
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let i = M::identity(3);
        assert_eq!(i.mat_mul(&a), a);
        assert_eq!(a.mat_mul(&i), a);
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
        assert_eq!(a.transpose().cols(), 2);
    }

    #[test]
    fn left_mul_vec_matches_full_mul() {
        let a = m(&[&[1, 2], &[3, 4], &[5, 6]]);
        let v = [F::from_u64(9), F::from_u64(8), F::from_u64(7)];
        let as_row = Matrix::from_rows(vec![v.to_vec()]);
        assert_eq!(a.left_mul_vec(&v), as_row.mat_mul(&a).row(0).to_vec());
    }

    #[test]
    fn hstack_vstack_shapes_and_content() {
        let a = m(&[&[1, 2]]);
        let b = m(&[&[3, 4]]);
        let h = a.hstack(&b);
        assert_eq!(h, m(&[&[1, 2, 3, 4]]));
        let v = a.vstack(&b);
        assert_eq!(v, m(&[&[1, 2], &[3, 4]]));
    }

    #[test]
    fn submatrix_picks_requested_entries() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let s = a.submatrix(&[0, 2], &[1, 2]);
        assert_eq!(s, m(&[&[2, 3], &[8, 9]]));
        let c = a.select_cols(&[0]);
        assert_eq!(c, m(&[&[1], &[4], &[7]]));
    }

    #[test]
    fn addition_is_xor_in_char_2() {
        let a = m(&[&[1, 2]]);
        assert!(a.add(&a).is_zero());
    }

    #[test]
    fn mat_mul_associates() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[5, 6], &[7, 8]]);
        let c = m(&[&[9, 10], &[11, 12]]);
        assert_eq!(a.mat_mul(&b).mat_mul(&c), a.mat_mul(&b.mat_mul(&c)));
    }

    #[test]
    #[should_panic(expected = "mat_mul dim mismatch")]
    fn mat_mul_rejects_bad_shapes() {
        let a = m(&[&[1, 2, 3]]);
        let b = m(&[&[1, 2]]);
        let _ = a.mat_mul(&b);
    }

    #[test]
    fn reset_keeps_the_allocation_and_zeroes_every_entry() {
        let mut a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        let at = a.as_slice().as_ptr();
        a.reset(3, 2);
        assert_eq!((a.rows(), a.cols()), (3, 2));
        assert!(a.is_zero());
        assert_eq!(
            a.as_slice().as_ptr(),
            at,
            "a shape no larger reuses the buffer"
        );
        a.reset(0, 5);
        assert_eq!(a, M::zero(0, 5));
    }

    #[test]
    fn swap_rows_exchanges_rows_in_either_order() {
        let mut a = m(&[&[1, 2], &[3, 4], &[5, 6]]);
        a.swap_rows(0, 2);
        assert_eq!(a, m(&[&[5, 6], &[3, 4], &[1, 2]]));
        a.swap_rows(1, 1); // no-op
        a.swap_rows(2, 1);
        assert_eq!(a, m(&[&[5, 6], &[1, 2], &[3, 4]]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds for 2x3 matrix")]
    fn index_out_of_bounds_panics_with_shape() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        let _ = a[(2, 0)];
    }

    #[test]
    fn identity_and_accessors_over_the_production_field() {
        use crate::gf2m::Gf2_16;
        let i = Matrix::<Gf2_16>::identity(4);
        assert_eq!(i[(2, 2)], Gf2_16(1));
        assert_eq!(i[(2, 3)], Gf2_16(0));
        let mut a = Matrix::<Gf2_16>::zero(2, 3);
        a[(1, 2)] = Gf2_16(0xABCD);
        assert_eq!(a.row(1), &[Gf2_16(0), Gf2_16(0), Gf2_16(0xABCD)]);
        assert_eq!(a.as_slice().len(), 6);
        a.as_mut_slice()[0] = Gf2_16(7);
        assert_eq!(a[(0, 0)], Gf2_16(7));
    }

    #[test]
    fn row_and_col_accessors() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(
            a.row(1).iter().map(|x| x.to_u64()).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(
            a.col(2).iter().map(|x| x.to_u64()).collect::<Vec<_>>(),
            vec![3, 6]
        );
    }
}
