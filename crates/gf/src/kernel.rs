//! Row-kernel linear algebra over generic fields: the [`FastOps`]
//! specialization trait and kernelized Gaussian elimination.
//!
//! The scalar [`crate::matrix`]/[`crate::linalg`] path multiplies one
//! element at a time through the [`Field`] vtable of operations. Every hot
//! loop in the NAB pipeline, however, has the same *row shape* — "add a
//! scalar multiple of one row into another" — so this module factors that
//! shape out as [`FastOps::mul_row_add`] and lets each field supply its
//! best implementation:
//!
//! - [`crate::gf256::Gf256`] — one 256-entry product-table row per scalar
//!   (shared with [`crate::bytes`]),
//! - [`crate::gf2m::Gf2_16`] — the 1×1 case of the arch-SIMD GEMM
//!   micro-kernel ([`crate::simd`]) on rows long enough to fill vectors, a
//!   log-domain loop on short rows, row tails and the portable tier,
//! - [`crate::gf2m::Gf2m`] (any degree) — the scalar default, so generic
//!   field code keeps working unchanged.
//!
//! The functions here ([`echelon`], [`invert`], [`solve`],
//! [`kernel_basis`], [`left_mul_vec`]) mirror [`crate::linalg`]
//! operation-for-operation — same pivot choices, same elimination order —
//! so their results are **bit-identical** to the scalar path for every
//! field (pinned by `tests/differential.rs`).

use crate::bytes;
use crate::field::Field;
use crate::gf256::Gf256;
use crate::gf2m::{Gf2_16, Gf2m};
use crate::linalg::Echelon;
use crate::matrix::Matrix;
use crate::simd;

/// The scalar reference implementation of the fused row kernel:
/// `dst[i] += s · src[i]` one element at a time. This is both the default
/// body of [`FastOps::mul_row_add`] and the baseline the differential
/// tests and the `perf` binary compare specialized kernels against.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn scalar_mul_row_add<F: Field>(dst: &mut [F], src: &[F], s: F) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_row_add length mismatch: dst has {} elements, src has {}",
        dst.len(),
        src.len()
    );
    if s.is_zero() {
        return;
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = d.add(s.mul(x));
    }
}

/// The scalar reference implementation of in-place row scaling.
pub fn scalar_scale_row<F: Field>(row: &mut [F], s: F) {
    if s == F::ONE {
        return;
    }
    for x in row.iter_mut() {
        *x = x.mul(s);
    }
}

/// Per-field row kernels — the specialization seam between generic
/// [`Field`] code and table-driven byte loops.
///
/// Every provided field implements this trait; fields without a special
/// kernel inherit the scalar defaults, so `F: FastOps` is no more
/// restrictive than `F: Field` in practice. All implementations must be
/// *exact*: specialized kernels may not change results, only speed
/// (enforced by the differential test suite).
pub trait FastOps: Field {
    /// Human-readable kernel name, surfaced by the perf report.
    const KERNEL: &'static str = "scalar";

    /// Fused multiply-add row kernel: `dst[i] += s · src[i]`
    /// (equivalently `-=` in characteristic 2).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn mul_row_add(dst: &mut [Self], src: &[Self], s: Self) {
        scalar_mul_row_add(dst, src, s);
    }

    /// In-place row scaling: `row[i] = s · row[i]`.
    fn scale_row(row: &mut [Self], s: Self) {
        scalar_scale_row(row, s);
    }
}

impl FastOps for Gf256 {
    const KERNEL: &'static str = "table256";

    fn mul_row_add(dst: &mut [Self], src: &[Self], s: Self) {
        assert_eq!(
            dst.len(),
            src.len(),
            "mul_row_add length mismatch: dst has {} elements, src has {}",
            dst.len(),
            src.len()
        );
        match s.0 {
            0 => {}
            1 => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    d.0 ^= x.0;
                }
            }
            // `Gf256` is repr(transparent) over `u8`, so the element rows
            // reinterpret as byte rows and share the SIMD-dispatched byte
            // kernel ([`bytes::mul_row_add`]).
            _ => bytes::mul_row_add(gf256_bytes_mut(dst), gf256_bytes(src), s.0),
        }
    }

    fn scale_row(row: &mut [Self], s: Self) {
        match s.0 {
            0 => row.fill(Gf256(0)),
            1 => {}
            _ => bytes::scale_row(gf256_bytes_mut(row), s.0),
        }
    }
}

/// Reinterprets a `Gf256` slice as raw bytes (sound: repr(transparent)).
#[inline]
fn gf256_bytes(s: &[Gf256]) -> &[u8] {
    // SAFETY: `Gf256` is `#[repr(transparent)]` over `u8`, so the slice
    // shares its layout, alignment, and length with a byte slice.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, s.len()) }
}

/// Mutable variant of [`gf256_bytes`].
#[inline]
fn gf256_bytes_mut(s: &mut [Gf256]) -> &mut [u8] {
    // SAFETY: `Gf256` is `#[repr(transparent)]` over `u8` (see above),
    // and the mutable borrow is exclusive for the returned lifetime.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut u8, s.len()) }
}

impl FastOps for Gf2_16 {
    const KERNEL: &'static str = "nibble-gemm16";

    fn mul_row_add(dst: &mut [Self], src: &[Self], s: Self) {
        assert_eq!(
            dst.len(),
            src.len(),
            "mul_row_add length mismatch: dst has {} elements, src has {}",
            dst.len(),
            src.len()
        );
        match s.0 {
            0 => {}
            1 => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    d.0 ^= x.0;
                }
            }
            _ => simd::gf2_16_mul_row_add(dst, src, s),
        }
    }

    fn scale_row(row: &mut [Self], s: Self) {
        match s.0 {
            0 => row.fill(Gf2_16(0)),
            1 => {}
            _ => crate::gf2m::scale_row_log16(row, s),
        }
    }
}

// Every other degree: scalar defaults (carry-less multiplication has no
// table representation worth building at runtime).
impl<const M: u32> FastOps for Gf2m<M> {}

/// Kernelized row-vector × matrix product `v * m` (the Algorithm-1 encode
/// shape). Bit-identical to [`Matrix::left_mul_vec`].
///
/// # Panics
///
/// Panics unless `v.len() == m.rows()`.
pub fn left_mul_vec<F: FastOps>(m: &Matrix<F>, v: &[F]) -> Vec<F> {
    assert_eq!(
        v.len(),
        m.rows(),
        "left_mul_vec dim mismatch: vector of {} over {} rows",
        v.len(),
        m.rows()
    );
    let mut out = vec![F::ZERO; m.cols()];
    for (r, &x) in v.iter().enumerate() {
        if !x.is_zero() {
            F::mul_row_add(&mut out, m.row(r), x);
        }
    }
    out
}

/// Reduces `m` to reduced row-echelon form in place, returning the pivot
/// columns. Pivot selection and elimination order match
/// [`crate::linalg::echelon`] exactly.
pub fn echelon_in_place<F: FastOps>(m: &mut Matrix<F>) -> Vec<usize> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut pivots = Vec::new();
    let mut pr = 0;
    for pc in 0..cols {
        let Some(sel) = (pr..rows).find(|&r| !m[(r, pc)].is_zero()) else {
            continue;
        };
        if sel != pr {
            m.swap_rows(sel, pr);
        }
        let inv = m[(pr, pc)].inv().expect("pivot is non-zero"); // nab-lint: allow(NAB003): pivot was selected non-zero by the search above
        F::scale_row(m.row_mut(pr), inv);
        for r in 0..rows {
            if r != pr {
                let factor = m[(r, pc)];
                if !factor.is_zero() {
                    let (dst, src) = m.two_rows_mut(r, pr);
                    // add == sub in characteristic 2.
                    F::mul_row_add(dst, src, factor);
                }
            }
        }
        pivots.push(pc);
        pr += 1;
        if pr == rows {
            break;
        }
    }
    pivots
}

/// Kernelized [`crate::linalg::echelon`].
pub fn echelon<F: FastOps>(a: &Matrix<F>) -> Echelon<F> {
    let mut m = a.clone();
    let pivots = echelon_in_place(&mut m);
    Echelon { matrix: m, pivots }
}

/// Kernelized [`crate::linalg::rank`].
pub fn rank<F: FastOps>(a: &Matrix<F>) -> usize {
    let mut m = a.clone();
    echelon_in_place(&mut m).len()
}

/// Kernelized [`crate::linalg::is_invertible`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn is_invertible<F: FastOps>(a: &Matrix<F>) -> bool {
    assert_eq!(a.rows(), a.cols(), "invertibility requires a square matrix");
    rank(a) == a.rows()
}

/// Kernelized [`crate::linalg::invert`]: Gauss–Jordan on the augmented
/// matrix `[A | I]` with row kernels, in place.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn invert<F: FastOps>(a: &Matrix<F>) -> Option<Matrix<F>> {
    assert_eq!(a.rows(), a.cols(), "inversion requires a square matrix");
    let n = a.rows();
    let mut aug = a.hstack(&Matrix::identity(n));
    let pivots = echelon_in_place(&mut aug);
    // Invertible iff the left block reduced to the identity, i.e. the
    // first n pivots are exactly columns 0..n.
    if pivots.len() < n || pivots.iter().take(n).enumerate().any(|(i, &pc)| pc != i) {
        return None;
    }
    let right: Vec<usize> = (n..2 * n).collect();
    Some(aug.select_cols(&right))
}

/// Kernelized [`crate::linalg::solve`].
///
/// # Panics
///
/// Panics unless `b.len() == a.rows()`.
pub fn solve<F: FastOps>(a: &Matrix<F>, b: &[F]) -> Option<Vec<F>> {
    assert_eq!(b.len(), a.rows(), "rhs length must equal row count");
    let bm = Matrix::from_fn(a.rows(), 1, |r, _| b[r]);
    let mut aug = a.hstack(&bm);
    let pivots = echelon_in_place(&mut aug);
    if pivots.last() == Some(&a.cols()) {
        return None;
    }
    let mut x = vec![F::ZERO; a.cols()];
    for (row, &pc) in pivots.iter().enumerate() {
        x[pc] = aug[(row, a.cols())];
    }
    Some(x)
}

/// Kernelized [`crate::linalg::kernel_basis`].
pub fn kernel_basis<F: FastOps>(a: &Matrix<F>) -> Matrix<F> {
    let e = echelon(a);
    let n = a.cols();
    let pivot_set: std::collections::HashSet<usize> = e.pivots.iter().copied().collect();
    let free: Vec<usize> = (0..n).filter(|c| !pivot_set.contains(c)).collect();

    let mut rows = Vec::with_capacity(free.len());
    for &fc in &free {
        let mut v = vec![F::ZERO; n];
        v[fc] = F::ONE;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_names_reflect_specialization() {
        assert_eq!(<Gf256 as FastOps>::KERNEL, "table256");
        assert_eq!(<Gf2_16 as FastOps>::KERNEL, "nibble-gemm16");
        assert_eq!(<Gf2m<13> as FastOps>::KERNEL, "scalar");
    }

    #[test]
    fn gf2_16_kernel_matches_scalar_at_all_lengths() {
        // Both sides of the SIMD dispatch threshold, with and without a
        // log-domain tail.
        let mut rng = StdRng::seed_from_u64(71);
        for len in [
            0,
            1,
            7,
            simd::SIMD_THRESHOLD - 1,
            simd::SIMD_THRESHOLD,
            200,
            1024,
        ] {
            let src: Vec<Gf2_16> = (0..len).map(|_| Gf2_16::random(&mut rng)).collect();
            let base: Vec<Gf2_16> = (0..len).map(|_| Gf2_16::random(&mut rng)).collect();
            for s in [0u64, 1, 2, 0xFFFF, 0xABCD] {
                let s = Gf2_16::from_u64(s);
                let mut fast = base.clone();
                let mut slow = base.clone();
                Gf2_16::mul_row_add(&mut fast, &src, s);
                scalar_mul_row_add(&mut slow, &src, s);
                assert_eq!(fast, slow, "len={len} s={s:?}");
                let mut fast = base.clone();
                let mut slow = base.clone();
                Gf2_16::scale_row(&mut fast, s);
                scalar_scale_row(&mut slow, s);
                assert_eq!(fast, slow, "scale len={len} s={s:?}");
            }
        }
    }

    #[test]
    fn gf256_kernel_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(13);
        let src: Vec<Gf256> = (0..300).map(|_| Gf256::random(&mut rng)).collect();
        let base: Vec<Gf256> = (0..300).map(|_| Gf256::random(&mut rng)).collect();
        for s in [0u64, 1, 2, 0x1D, 0xFF] {
            let s = Gf256::from_u64(s);
            let mut fast = base.clone();
            let mut slow = base.clone();
            Gf256::mul_row_add(&mut fast, &src, s);
            scalar_mul_row_add(&mut slow, &src, s);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn kernel_linalg_matches_scalar_linalg() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..8 {
            let a = Matrix::<Gf2_16>::random(5, 8, &mut rng);
            let e_fast = echelon(&a);
            let e_slow = linalg::echelon(&a);
            assert_eq!(e_fast.pivots, e_slow.pivots);
            assert_eq!(e_fast.matrix, e_slow.matrix);
            assert_eq!(rank(&a), linalg::rank(&a));
            assert_eq!(kernel_basis(&a), linalg::kernel_basis(&a));

            let sq = Matrix::<Gf2_16>::random(6, 6, &mut rng);
            assert_eq!(invert(&sq), linalg::invert(&sq));
            let b: Vec<Gf2_16> = (0..6).map(|_| Gf2_16::random(&mut rng)).collect();
            assert_eq!(solve(&sq, &b), linalg::solve(&sq, &b));
        }
    }

    #[test]
    fn left_mul_vec_matches_scalar_for_generic_fields() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = Matrix::<Gf2m<13>>::random(4, 6, &mut rng);
        let v: Vec<Gf2m<13>> = (0..4).map(|_| Gf2m::random(&mut rng)).collect();
        assert_eq!(left_mul_vec(&a, &v), a.left_mul_vec(&v));
    }
}
