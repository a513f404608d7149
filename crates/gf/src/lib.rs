//! Finite fields `GF(2^m)` and dense linear algebra over them.
//!
//! The NAB equality-check algorithm (Algorithm 1 of Liang & Vaidya 2012)
//! interprets an `L`-bit broadcast value as `ρ` symbols of `GF(2^{L/ρ})` and
//! transmits random linear combinations of those symbols on every link. This
//! crate provides that machinery in two layers.
//!
//! **The production path** — the one field an instance executes
//! (`nab::value::SYMBOL_BITS` pins the symbol at 16 bits) and its vector
//! kernels:
//!
//! - [`gf2m::Gf2_16`] — log/antilog-table `GF(2^16)`,
//! - [`kernel`] — the per-field kernel seam ([`kernel::FastOps`]): the
//!   product `out += a · b` behind every [`matrix::Matrix`] multiply, and
//!   the row kernel `dst += s · src`,
//! - [`simd`] — the runtime-detected arch-SIMD GEMM micro-kernel that
//!   answers both for `Gf2_16` (`GF2P8AFFINEQB` bit-matrices on
//!   GFNI + AVX-512 CPUs, nibble-split `PSHUFB` tables on AVX2 ones; a
//!   log-domain loop elsewhere, identical in results).
//!
//! **The generic scalar path** — the oracle the production path is tested
//! against, and what the Theorem-1 field-size experiments and the `C_H`
//! rank tests run on:
//!
//! - [`field::Field`] — the abstract field interface,
//! - [`gf2m::Gf2m`] — generic `GF(2^m)` for any `1 ≤ m ≤ 64` via carry-less
//!   multiplication and a built-in table of low-weight irreducible
//!   polynomials,
//! - [`kernel::scalar_gemm_acc`] / [`kernel::scalar_mul_row_add`] — the
//!   kernels one [`Field::mul`] at a time, [`kernel::FastOps`]'s defaults,
//! - [`linalg`] — Gaussian elimination: rank, determinant-zero testing,
//!   inversion, solving, and kernel bases.
//!
//! Both paths share one matrix type, [`matrix::Matrix`]: dense row-major
//! storage with multiplication (in place or allocating), stacking and
//! slicing. A `Matrix<Gf2_16>` multiplies on the vector kernel, any other
//! `Matrix<F>` on the scalar one.
//!
//! # Example
//!
//! ```
//! use nab_gf::gf2m::Gf2_16;
//! use nab_gf::matrix::Matrix;
//! use nab_gf::field::Field;
//!
//! # fn main() {
//! let mut rng = rand::thread_rng();
//! let a = Matrix::<Gf2_16>::random(4, 4, &mut rng);
//! if let Some(inv) = nab_gf::linalg::invert(&a) {
//!     assert_eq!(a.mat_mul(&inv), Matrix::identity(4));
//! }
//! # }
//! ```

#![expect(clippy::disallowed_types, reason = "emits no canonical JSON")]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod field;
pub mod gf2m;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod poly2;
pub mod simd;

pub use field::Field;
pub use gf2m::{Gf2_16, Gf2_32, Gf2m};
pub use kernel::FastOps;
pub use matrix::Matrix;

/// `Matrix<Gf2_16>` under its former name, which the `benchmark/`
/// harness's probes still import (`WordMatrix::random`, `mat_mul`, `row`).
/// It goes when the harness's probe surface is next changed (ROADMAP item
/// 1b); new code names `Matrix<Gf2_16>`.
pub type WordMatrix = Matrix<Gf2_16>;
