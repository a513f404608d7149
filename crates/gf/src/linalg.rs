//! Gaussian elimination over finite fields: rank, inversion, solving, and
//! kernel computation.
//!
//! Theorem 1 of the paper reduces equality-check soundness to the
//! invertibility of the spanning-tree submatrix `M_H`; [`rank`] and
//! [`invert`] are the executable versions of that argument.

use crate::field::Field;
use crate::matrix::Matrix;

/// Result of reducing a matrix to row-echelon form.
#[derive(Debug, Clone)]
pub struct Echelon<F: Field> {
    /// The reduced matrix (fully reduced row-echelon form).
    pub matrix: Matrix<F>,
    /// Column index of the pivot in each pivot row, in order.
    pub pivots: Vec<usize>,
}

impl<F: Field> Echelon<F> {
    /// The rank of the original matrix.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }
}

/// Reduces `a` to *reduced* row-echelon form.
pub fn echelon<F: Field>(a: &Matrix<F>) -> Echelon<F> {
    let mut m = a.clone();
    let (rows, cols) = (m.rows(), m.cols());
    let mut pivots = Vec::new();
    let mut pr = 0; // next pivot row

    for pc in 0..cols {
        // Find a row at or below pr with non-zero entry in column pc.
        let Some(sel) = (pr..rows).find(|&r| !m[(r, pc)].is_zero()) else {
            continue;
        };
        // Swap into place.
        m.swap_rows(sel, pr);
        // Normalize pivot row.
        #[expect(
            clippy::expect_used,
            reason = "pivot was selected non-zero by the search above"
        )]
        let inv = m[(pr, pc)].inv().expect("pivot is non-zero");
        for c in 0..cols {
            m[(pr, c)] = m[(pr, c)].mul(inv);
        }
        // Eliminate everywhere else.
        for r in 0..rows {
            if r != pr && !m[(r, pc)].is_zero() {
                let factor = m[(r, pc)];
                for c in 0..cols {
                    let sub = factor.mul(m[(pr, c)]);
                    m[(r, c)] = m[(r, c)].sub(sub);
                }
            }
        }
        pivots.push(pc);
        pr += 1;
        if pr == rows {
            break;
        }
    }

    Echelon { matrix: m, pivots }
}

/// The rank of `a`.
pub fn rank<F: Field>(a: &Matrix<F>) -> usize {
    echelon(a).rank()
}

/// Whether a square matrix is invertible (full rank).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn is_invertible<F: Field>(a: &Matrix<F>) -> bool {
    assert_eq!(a.rows(), a.cols(), "invertibility requires a square matrix");
    rank(a) == a.rows()
}

/// Inverts a square matrix, returning `None` if it is singular.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn invert<F: Field>(a: &Matrix<F>) -> Option<Matrix<F>> {
    assert_eq!(a.rows(), a.cols(), "inversion requires a square matrix");
    let n = a.rows();
    let aug = a.hstack(&Matrix::identity(n));
    let e = echelon(&aug);
    // Invertible iff the left block reduced to the identity, i.e. the first
    // n pivots are exactly columns 0..n.
    if e.pivots.len() < n || e.pivots[..n] != (0..n).collect::<Vec<_>>()[..] {
        return None;
    }
    let right: Vec<usize> = (n..2 * n).collect();
    Some(e.matrix.select_cols(&right))
}

/// Solves `a · x = b` for a single solution, returning `None` if
/// inconsistent. When the system is under-determined an arbitrary solution
/// (free variables set to zero) is returned.
///
/// # Panics
///
/// Panics unless `b.len() == a.rows()`.
pub fn solve<F: Field>(a: &Matrix<F>, b: &[F]) -> Option<Vec<F>> {
    assert_eq!(b.len(), a.rows(), "rhs length must equal row count");
    let bm = Matrix::from_fn(a.rows(), 1, |r, _| b[r]);
    let aug = a.hstack(&bm);
    let e = echelon(&aug);
    // Inconsistent iff a pivot landed in the augmented column.
    if e.pivots.last() == Some(&a.cols()) {
        return None;
    }
    let mut x = vec![F::ZERO; a.cols()];
    for (row, &pc) in e.pivots.iter().enumerate() {
        x[pc] = e.matrix[(row, a.cols())];
    }
    Some(x)
}

/// A basis for the right null space of `a` (vectors `v` with `a · v = 0`),
/// returned as the rows of a matrix with `a.cols()` columns.
pub fn kernel_basis<F: Field>(a: &Matrix<F>) -> Matrix<F> {
    let e = echelon(a);
    let n = a.cols();
    let pivot_set: std::collections::HashSet<usize> = e.pivots.iter().copied().collect();
    let free: Vec<usize> = (0..n).filter(|c| !pivot_set.contains(c)).collect();

    let mut rows = Vec::with_capacity(free.len());
    for &fc in &free {
        let mut v = vec![F::ZERO; n];
        v[fc] = F::ONE;
        // For each pivot row: pivot_col value = -(entry at free col) = entry
        // (char 2).
        for (row, &pc) in e.pivots.iter().enumerate() {
            v[pc] = e.matrix[(row, fc)];
        }
        rows.push(v);
    }
    if rows.is_empty() {
        Matrix::zero(0, n)
    } else {
        Matrix::from_rows(rows)
    }
}

/// Determinant via elimination (field version, sign-free in char 2).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn determinant<F: Field>(a: &Matrix<F>) -> F {
    assert_eq!(a.rows(), a.cols(), "determinant requires a square matrix");
    let n = a.rows();
    let mut m = a.clone();
    let mut det = F::ONE;
    for pc in 0..n {
        let Some(sel) = (pc..n).find(|&r| !m[(r, pc)].is_zero()) else {
            return F::ZERO;
        };
        // In characteristic 2 a row swap does not change the determinant.
        m.swap_rows(sel, pc);
        det = det.mul(m[(pc, pc)]);
        #[expect(
            clippy::expect_used,
            reason = "pivot was selected non-zero by the search above"
        )]
        let inv = m[(pc, pc)].inv().expect("pivot non-zero");
        for r in (pc + 1)..n {
            if !m[(r, pc)].is_zero() {
                let factor = m[(r, pc)].mul(inv);
                for c in pc..n {
                    let sub = factor.mul(m[(pc, c)]);
                    m[(r, c)] = m[(r, c)].sub(sub);
                }
            }
        }
    }
    det
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2m::{Gf2_16, Gf2m};
    use crate::kernel::FastOps;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type F8 = Gf2m<8>;

    /// `a · x`, as the one-row product `xᵀ · aᵀ`.
    fn mul_vec<F: FastOps>(a: &Matrix<F>, x: &[F]) -> Vec<F> {
        let xt = Matrix::from_rows(vec![x.to_vec()]);
        xt.mat_mul(&a.transpose()).row(0).to_vec()
    }

    fn m(rows: &[&[u64]]) -> Matrix<F8> {
        Matrix::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|&x| F8::from_u64(x)).collect())
                .collect(),
        )
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(rank(&Matrix::<F8>::identity(5)), 5);
        assert_eq!(rank(&Matrix::<F8>::zero(4, 6)), 0);
    }

    #[test]
    fn rank_detects_dependent_rows() {
        // Row 2 = row 0 + row 1 (XOR per entry in char 2).
        let a = m(&[&[1, 2, 3], &[4, 5, 6], &[1 ^ 4, 2 ^ 5, 3 ^ 6]]);
        assert_eq!(rank(&a), 2);
    }

    #[test]
    fn invert_roundtrip_random() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut found = 0;
        for _ in 0..20 {
            let a = Matrix::<Gf2_16>::random(6, 6, &mut rng);
            if let Some(inv) = invert(&a) {
                assert_eq!(a.mat_mul(&inv), Matrix::identity(6));
                assert_eq!(inv.mat_mul(&a), Matrix::identity(6));
                found += 1;
            }
        }
        // Random 6x6 over GF(2^16) is invertible w.p. ~ 1 - 2^-16.
        assert!(found >= 19, "too many singular random matrices: {found}");
    }

    #[test]
    fn invert_singular_returns_none() {
        let a = m(&[&[1, 2], &[1, 2]]);
        assert!(invert(&a).is_none());
        assert!(!is_invertible(&a));
    }

    #[test]
    fn solve_consistent_system() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::<Gf2_16>::random(5, 5, &mut rng);
        let x_true: Vec<Gf2_16> = (0..5).map(|i| Gf2_16::from_u64(i as u64 + 1)).collect();
        let b = mul_vec(&a, &x_true);
        if let Some(x) = solve(&a, &b) {
            let ax = mul_vec(&a, &x);
            assert_eq!(ax, b);
        }
    }

    #[test]
    fn solve_inconsistent_returns_none() {
        // [1 0; 1 0] x = [1, 0] is inconsistent (x0 = 1 and x0 = 0).
        let a = m(&[&[1, 0], &[1, 0]]);
        let b = [F8::ONE, F8::ZERO];
        assert!(solve(&a, &b).is_none());
    }

    #[test]
    fn kernel_vectors_annihilate() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        let k = kernel_basis(&a);
        assert_eq!(k.rows() + rank(&a), a.cols(), "rank-nullity");
        for r in 0..k.rows() {
            let v = k.row(r).to_vec();
            let av = mul_vec(&a, &v);
            assert!(
                av.iter().all(|x| x.is_zero()),
                "kernel vector not annihilated"
            );
        }
    }

    #[test]
    fn determinant_zero_iff_singular() {
        let sing = m(&[&[1, 2], &[1, 2]]);
        assert!(determinant(&sing).is_zero());
        let nonsing = m(&[&[1, 0], &[0, 1]]);
        assert_eq!(determinant(&nonsing), F8::ONE);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let a = Matrix::<F8>::random(4, 4, &mut rng);
            assert_eq!(determinant(&a).is_zero(), !is_invertible(&a));
        }
    }

    #[test]
    fn echelon_pivots_are_increasing() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::<F8>::random(5, 8, &mut rng);
        let e = echelon(&a);
        for w in e.pivots.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
