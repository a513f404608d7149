//! Differential test suite: the production `GF(2^16)` path must be
//! **bit-identical** to the generic scalar `Matrix` path, across random
//! shapes and seeds.
//!
//! This is the contract that lets the NAB hot paths route through
//! [`nab_gf::words::WordMatrix`] and [`nab_gf::kernel::FastOps`] without
//! changing a single simulation result: the vector kernels may only change
//! speed, never values. Each property draws random shapes (including
//! degenerate 0/1 dimensions and rows straddling the SIMD dispatch
//! threshold) and compares the kernel output against the scalar reference
//! element-for-element.

use nab_gf::field::Field;
use nab_gf::kernel::{scalar_mul_row_add, FastOps};
use nab_gf::{Gf2_16, WordMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn vec_of(len: usize, seed: u64) -> Vec<Gf2_16> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| Gf2_16::random(&mut rng)).collect()
}

/// Row lengths covering both sides of the SIMD dispatch threshold
/// ([`nab_gf::simd::SIMD_THRESHOLD`], 64 elements): half the draws are
/// short rows (0..200), half are long rows (1000..1100) that end in a
/// log-domain tail.
fn row_len() -> impl Strategy<Value = usize> {
    (any::<bool>(), 0usize..200).prop_map(|(long, l)| if long { 1000 + l % 100 } else { l })
}

// ---------------------------------------------------------------------------
// The GF(2^16) row kernel vs. the scalar row loop.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mul_row_add_matches_scalar(
        len in row_len(),
        seed in any::<u64>(),
        s in any::<u64>(),
    ) {
        let s = Gf2_16::from_u64(s);
        let src = vec_of(len, seed);
        let mut fast = vec_of(len, seed ^ 1);
        let mut slow = fast.clone();
        <Gf2_16 as FastOps>::mul_row_add(&mut fast, &src, s);
        scalar_mul_row_add(&mut slow, &src, s);
        prop_assert_eq!(fast, slow);
    }
}

// ---------------------------------------------------------------------------
// WordMatrix (GF(2^16) word slab) vs. the scalar Matrix<Gf2_16> path.
// ---------------------------------------------------------------------------

fn word_mat(rows: usize, cols: usize, seed: u64) -> WordMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    WordMatrix::random(rows, cols, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn word_mat_mul_matches_matrix(
        r in 1usize..8, k in 1usize..8,
        // Output widths on both sides of the SIMD dispatch threshold (the
        // batched-execution shape: few rows, very wide slabs).
        c in (any::<bool>(), 1usize..12).prop_map(|(wide, c)| if wide { 1018 + c } else { c }),
        seed in any::<u64>(),
    ) {
        let a = word_mat(r, k, seed);
        let b = word_mat(k, c, seed ^ 0xC0DE);
        prop_assert_eq!(
            a.mat_mul(&b).to_matrix(),
            a.to_matrix().mul(&b.to_matrix())
        );
    }

    /// `mat_mul_into` owns nothing of what the buffer held: a dirty
    /// product of a *different* earlier shape (smaller or larger, so the
    /// buffer is both grown and reused) must not leak into the result.
    #[test]
    fn word_mat_mul_into_a_dirty_buffer_matches_matrix(
        r in 1usize..8, k in 1usize..8,
        c in (any::<bool>(), 1usize..12).prop_map(|(wide, c)| if wide { 1018 + c } else { c }),
        prev_rows in 0usize..12, prev_cols in 0usize..300,
        seed in any::<u64>(),
    ) {
        let a = word_mat(r, k, seed);
        let b = word_mat(k, c, seed ^ 0xC0DE);
        let mut out = word_mat(prev_rows, prev_cols, seed ^ 0xD127);
        for _ in 0..2 {
            a.mat_mul_into(&b, &mut out);
            prop_assert_eq!((out.rows(), out.cols()), (r, c));
            prop_assert_eq!(out.to_matrix(), a.to_matrix().mul(&b.to_matrix()));
        }
    }

    #[test]
    fn word_left_mul_vec_matches_matrix(
        r in 1usize..12, c in 1usize..12,
        seed in any::<u64>(),
    ) {
        let m = word_mat(r, c, seed);
        let v = vec_of(r, seed ^ 0xF00D);
        prop_assert_eq!(m.left_mul_vec(&v), m.to_matrix().left_mul_vec(&v));
    }
}
