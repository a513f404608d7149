//! Differential test suite: the production `GF(2^16)` kernels must be
//! **bit-identical** to the scalar kernels, one `Field::mul` at a time,
//! across random shapes and seeds.
//!
//! This is the contract that lets the NAB hot paths multiply
//! `Matrix<Gf2_16>` through [`nab_gf::kernel::FastOps`] without changing a
//! single simulation result: the vector kernels may only change speed,
//! never values. Each property draws random shapes (including degenerate
//! 0/1 dimensions and rows straddling the SIMD dispatch threshold) and
//! compares the kernel output against the scalar reference
//! ([`scalar_gemm_acc`], [`scalar_mul_row_add`]) element-for-element.

use nab_gf::field::Field;
use nab_gf::kernel::{scalar_gemm_acc, scalar_mul_row_add, FastOps};
use nab_gf::{Gf2_16, Gf2m, Matrix};
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
// Matrix<Gf2_16> products (the GEMM micro-kernel) vs. the scalar GEMM.
// ---------------------------------------------------------------------------

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix<Gf2_16> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random(rows, cols, &mut rng)
}

/// `a · b`, row-major, one `Field::mul` at a time.
fn scalar_product(a: &Matrix<Gf2_16>, b: &Matrix<Gf2_16>) -> Vec<Gf2_16> {
    let mut out = vec![Gf2_16::ZERO; a.rows() * b.cols()];
    scalar_gemm_acc(
        &mut out,
        a.as_slice(),
        b.as_slice(),
        a.rows(),
        a.cols(),
        b.cols(),
    );
    out
}

/// Output widths on both sides of the SIMD dispatch threshold (the
/// batched-execution shape: few rows, very wide slabs).
fn product_cols() -> impl Strategy<Value = usize> {
    (any::<bool>(), 1usize..12).prop_map(|(wide, c)| if wide { 1018 + c } else { c })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mat_mul_matches_the_scalar_gemm(
        r in 1usize..8, k in 1usize..8, c in product_cols(), seed in any::<u64>(),
    ) {
        let a = mat(r, k, seed);
        let b = mat(k, c, seed ^ 0xC0DE);
        let product = a.mat_mul(&b);
        prop_assert_eq!((product.rows(), product.cols()), (r, c));
        prop_assert_eq!(product.as_slice(), &scalar_product(&a, &b)[..]);
    }

    /// `mat_mul_into` owns nothing of what the buffer held: a dirty
    /// product of a *different* earlier shape (smaller or larger, so the
    /// buffer is both grown and reused) must not leak into the result.
    #[test]
    fn mat_mul_into_a_dirty_buffer_matches_the_scalar_gemm(
        r in 1usize..8, k in 1usize..8, c in product_cols(),
        prev_rows in 0usize..12, prev_cols in 0usize..300,
        seed in any::<u64>(),
    ) {
        let a = mat(r, k, seed);
        let b = mat(k, c, seed ^ 0xC0DE);
        let mut out = mat(prev_rows, prev_cols, seed ^ 0xD127);
        for _ in 0..2 {
            a.mat_mul_into(&b, &mut out);
            prop_assert_eq!((out.rows(), out.cols()), (r, c));
            prop_assert_eq!(out.as_slice(), &scalar_product(&a, &b)[..]);
        }
    }

    #[test]
    fn one_row_mat_mul_matches_the_scalar_gemm(
        r in 1usize..12, c in 1usize..12,
        seed in any::<u64>(),
    ) {
        let m = mat(r, c, seed);
        let v = Matrix::from_rows(vec![vec_of(r, seed ^ 0xF00D)]);
        prop_assert_eq!(v.mat_mul(&m).as_slice(), &scalar_product(&v, &m)[..]);
    }

    /// `GF(2^16)` twice over: log/antilog tables on the GEMM micro-kernel,
    /// and carry-less multiplication on the scalar default. Their moduli
    /// differ (`0x1100B` and `0x1002B`), so each `Gf2_16` entry is mapped
    /// through the field isomorphism before the products are compared.
    #[test]
    fn carry_less_mat_mul_matches_the_table_field_mat_mul(
        r in 1usize..8, k in 1usize..8, c in product_cols(), seed in any::<u64>(),
    ) {
        let a = mat(r, k, seed);
        let b = mat(k, c, seed ^ 0xC0DE);
        let want = to_carry_less(&a).mat_mul(&to_carry_less(&b));
        prop_assert_eq!(to_carry_less(&a.mat_mul(&b)), want);
    }
}

/// `m` entry by entry under the isomorphism from `Gf2_16`'s
/// `GF(2)[x]/(x^16 + x^12 + x^3 + x + 1)` onto `Gf2m<16>`'s
/// `GF(2)[x]/(x^16 + x^5 + x^3 + x + 1)` that sends `x` to a root `β` of the
/// first modulus: `Σ a_i x^i ↦ Σ a_i β^i`.
fn to_carry_less(m: &Matrix<Gf2_16>) -> Matrix<Gf2m<16>> {
    static POWERS: std::sync::OnceLock<Vec<Gf2m<16>>> = std::sync::OnceLock::new();
    let powers = POWERS.get_or_init(|| {
        let modulus = |y: Gf2m<16>| {
            [16, 12, 3, 1, 0]
                .map(|e| y.pow(e))
                .into_iter()
                .fold(Gf2m::ZERO, Gf2m::add)
        };
        let beta = (2..1u64 << 16)
            .map(Gf2m::from_u64)
            .find(|&y| modulus(y).is_zero())
            .expect("an irreducible polynomial of degree 16 splits in GF(2^16)");
        (0..16).map(|i| beta.pow(i)).collect()
    });
    Matrix::from_fn(m.rows(), m.cols(), |i, j| {
        let x = m[(i, j)].0;
        (0..16)
            .filter(|bit| x >> bit & 1 == 1)
            .fold(Gf2m::ZERO, |acc, bit| acc.add(powers[bit]))
    })
}
