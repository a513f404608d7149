//! Finite fields `GF(2^m)` and dense linear algebra over them.
//!
//! The NAB equality-check algorithm (Algorithm 1 of Liang & Vaidya 2012)
//! interprets an `L`-bit broadcast value as `ρ` symbols of `GF(2^{L/ρ})` and
//! transmits random linear combinations of those symbols on every link. This
//! crate provides everything that machinery needs:
//!
//! - [`field::Field`] — the abstract field interface,
//! - [`gf256::Gf256`] and [`gf2m::Gf2_16`] — fast table-based fields,
//! - [`gf2m::Gf2m`] — generic `GF(2^m)` for any `1 ≤ m ≤ 64` via carry-less
//!   multiplication and a built-in table of low-weight irreducible
//!   polynomials,
//! - [`matrix::Matrix`] — dense matrices with multiplication, stacking and
//!   slicing,
//! - [`linalg`] — scalar Gaussian elimination: rank, determinant-zero
//!   testing, inversion, solving, and kernel bases (the reference path),
//! - [`kernel`] — the [`kernel::FastOps`] row-kernel specialization trait
//!   and kernelized linear algebra, bit-identical to [`linalg`] but
//!   table-driven for `GF(256)` and `GF(2^16)`,
//! - [`bytes`] — the table-driven `GF(256)` byte-row kernels behind
//!   `Gf256`'s [`kernel::FastOps`] implementation,
//! - [`words`] — row-major `GF(2^16)` word-slab storage
//!   ([`words::WordMatrix`]): the slab product of the equality check,
//! - [`simd`] — the runtime-detected arch-SIMD row-kernel tier
//!   (nibble-split PSHUFB tables via SSSE3/AVX2 intrinsics, with a
//!   portable fallback identical in results).
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

pub mod bytes;
pub mod field;
pub mod gf256;
pub mod gf2m;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod poly2;
pub mod simd;
pub mod words;

pub use field::Field;
pub use gf256::Gf256;
pub use gf2m::{Gf2_16, Gf2_32, Gf2m};
pub use kernel::FastOps;
pub use matrix::Matrix;
pub use words::WordMatrix;
