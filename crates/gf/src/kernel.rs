//! The row kernel `dst += s · src` and its per-field specialization seam,
//! [`FastOps`].
//!
//! Generic [`Field`] code multiplies one element at a time; the row shape
//! "add a scalar multiple of one row into another" — the one-row,
//! one-coefficient case of the slab product, and what the `benchmark/`
//! probes time per row — is factored out as
//! [`FastOps::mul_row_add`] so the production field answers it with its
//! vector kernel:
//!
//! - [`crate::gf2m::Gf2_16`] — the 1×1 case of the arch-SIMD GEMM
//!   micro-kernel ([`crate::simd`]) on rows long enough to fill vectors, a
//!   log-domain loop on short rows, row tails and the portable tier,
//! - [`crate::gf2m::Gf2m`] (any degree) — the scalar default
//!   ([`scalar_mul_row_add`]).
//!
//! Specialized kernels are exact: they may change speed, never values
//! (pinned against the scalar default by `tests/differential.rs`).

use crate::field::Field;
use crate::gf2m::{Gf2_16, Gf2m};
use crate::simd;

/// The scalar reference implementation of the fused row kernel:
/// `dst[i] += s · src[i]` one element at a time. This is both the default
/// body of [`FastOps::mul_row_add`] and the baseline the differential
/// tests compare the specialized kernel against.
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

/// The per-field row kernel — the specialization seam between generic
/// [`Field`] code and the vector kernels. Fields without a special kernel
/// inherit the scalar default.
pub trait FastOps: Field {
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
}

// Every other degree: the scalar default (carry-less multiplication has no
// table representation worth building at runtime).
impl<const M: u32> FastOps for Gf2m<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            }
        }
    }
}
