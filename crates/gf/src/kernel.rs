//! The two vector-shaped operations of the crate and their per-field
//! specialization seam, [`FastOps`].
//!
//! Generic [`Field`] code multiplies one element at a time. Two shapes are
//! factored out so the production field answers them with its vector
//! kernel:
//!
//! - [`FastOps::gemm_acc`], the product `out += a · b` of row-major
//!   slices: every [`crate::Matrix`] multiply (`mat_mul`, `mat_mul_into`)
//!   is one call of it;
//! - [`FastOps::mul_row_add`], the row kernel `dst += s · src`: the
//!   one-row, one-coefficient case of the product. No product code calls
//!   it; every field runs its scalar default ([`scalar_mul_row_add`]),
//!   which the `benchmark/` probes time per row.
//!
//! Per field, the product kernel is:
//!
//! - [`crate::gf2m::Gf2_16`] — the arch-SIMD GEMM micro-kernel
//!   ([`crate::simd`]) on rows long enough to fill vectors, a log-domain
//!   loop on short rows, row tails and the portable tier;
//! - [`crate::gf2m::Gf2m`] (any degree) — the scalar default
//!   ([`scalar_gemm_acc`]).
//!
//! Specialized kernels are exact: they may change speed, never values
//! (pinned against the scalar defaults by `tests/differential.rs`).

use crate::field::Field;
use crate::gf2m::{Gf2_16, Gf2m};
use crate::simd;

/// The scalar reference implementation of the fused row kernel:
/// `dst[i] += s · src[i]` one element at a time. This is the body of
/// [`FastOps::mul_row_add`] for every field and the inner loop of
/// [`scalar_gemm_acc`].
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

/// The scalar reference implementation of the product kernel:
/// `out += a · b`, where `out` is `m × n`, `a` `m × k` and `b` `k × n`, all
/// row-major, one [`Field::mul`] at a time. This is both the default body
/// of [`FastOps::gemm_acc`] and the baseline the differential tests
/// compare the specialized kernel against.
///
/// # Panics
///
/// Panics unless the slice lengths are `m·n`, `m·k` and `k·n`.
pub fn scalar_gemm_acc<F: Field>(out: &mut [F], a: &[F], b: &[F], m: usize, k: usize, n: usize) {
    assert_eq!(
        (out.len(), a.len(), b.len()),
        (m * n, m * k, k * n),
        "gemm_acc length mismatch for an {m}x{k} by {k}x{n} product"
    );
    if k == 0 || n == 0 {
        return;
    }
    for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (brow, &s) in b.chunks_exact(n).zip(arow) {
            scalar_mul_row_add(orow, brow, s);
        }
    }
}

/// The per-field product and row kernels — the specialization seam
/// between generic [`Field`] code and the vector kernels. Fields without a
/// special kernel inherit the scalar defaults.
pub trait FastOps: Field {
    /// Product kernel: `out += a · b`, where `out` is `m × n`, `a` `m × k`
    /// and `b` `k × n`, all row-major.
    ///
    /// # Panics
    ///
    /// Panics unless the slice lengths are `m·n`, `m·k` and `k·n`.
    fn gemm_acc(out: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize) {
        scalar_gemm_acc(out, a, b, m, k, n);
    }

    /// Fused multiply-add row kernel: `dst[i] += s · src[i]`
    /// (equivalently `-=` in characteristic 2).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn mul_row_add(dst: &mut [Self], src: &[Self], s: Self) {
        scalar_mul_row_add(dst, src, s);
    }
}

impl FastOps for Gf2_16 {
    fn gemm_acc(out: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize) {
        simd::gf2_16_gemm_acc(out, a, b, m, k, n);
    }
}

// Every other degree: the scalar default (carry-less multiplication has no
// table representation worth building at runtime).
impl<const M: u32> FastOps for Gf2m<M> {}
