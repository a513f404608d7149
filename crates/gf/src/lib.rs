//! Finite fields `GF(2^m)` and dense linear algebra over them.
//!
//! The NAB equality-check algorithm (Algorithm 1 of Liang & Vaidya 2012)
//! interprets an `L`-bit broadcast value as `ρ` symbols of `GF(2^{L/ρ})` and
//! transmits random linear combinations of those symbols on every link. This
//! crate provides that machinery in two layers.
//!
//! **The production path** — the one field an instance executes
//! (`nab::value::SYMBOL_BITS` pins the symbol at 16 bits) and its one
//! vector kernel:
//!
//! - [`gf2m::Gf2_16`] — log/antilog-table `GF(2^16)`,
//! - [`words`] — row-major word-slab storage ([`words::WordMatrix`]): the
//!   slab product of the equality check,
//! - [`simd`] — the runtime-detected arch-SIMD GEMM micro-kernel behind
//!   [`words::WordMatrix::mat_mul`] (`GF2P8AFFINEQB` bit-matrices on
//!   GFNI + AVX-512 CPUs, nibble-split `PSHUFB` tables on AVX2 ones; a
//!   log-domain loop elsewhere, identical in results),
//! - [`kernel`] — the row kernel `dst += s · src` ([`kernel::FastOps`]),
//!   for `Gf2_16` the micro-kernel's 1×1 case.
//!
//! **The generic scalar path** — the oracle the production path is tested
//! against, and what the Theorem-1 field-size experiments and the `C_H`
//! rank tests run on:
//!
//! - [`field::Field`] — the abstract field interface,
//! - [`gf2m::Gf2m`] — generic `GF(2^m)` for any `1 ≤ m ≤ 64` via carry-less
//!   multiplication and a built-in table of low-weight irreducible
//!   polynomials,
//! - [`matrix::Matrix`] — dense matrices with multiplication, stacking and
//!   slicing,
//! - [`linalg`] — Gaussian elimination: rank, determinant-zero testing,
//!   inversion, solving, and kernel bases.
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
//!     assert_eq!(a.mul(&inv), Matrix::identity(4));
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
pub mod words;

pub use field::Field;
pub use gf2m::{Gf2_16, Gf2_32, Gf2m};
pub use kernel::FastOps;
pub use matrix::Matrix;
pub use words::WordMatrix;
