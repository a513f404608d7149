//! Field-axiom property tests for `Gf2_16` and the generic `Gf2m` family:
//! associativity, distributivity, inverse round-trips, and the Frobenius
//! endomorphism.
//!
//! The crate-internal proptests cover the basic abelian-group laws; this
//! suite adds the characteristic-2 structure the equality-check algebra
//! leans on:
//!
//! - the **Frobenius map** `x ↦ x²` is additive (`(x+y)² = x² + y²`) and
//!   multiplicative, i.e. a field endomorphism;
//! - iterating Frobenius `m` times is the identity on `GF(2^m)`
//!   (equivalently `x^(2^m) = x`, Fermat's little theorem for the field);
//! - inversion round-trips through multiplication and division, and
//!   distributes over products (`(xy)⁻¹ = y⁻¹ x⁻¹`).

use nab_gf::field::Field;
use nab_gf::{Gf2_16, Gf2m};
use proptest::prelude::*;

/// Applies the Frobenius endomorphism `x ↦ x²`, `k` times.
fn frobenius<F: Field>(x: F, k: u32) -> F {
    let mut y = x;
    for _ in 0..k {
        y = y.mul(y);
    }
    y
}

macro_rules! axiom_suite {
    ($modname:ident, $ty:ty) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn add_associates(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
                    let (x, y, z) = (<$ty>::from_u64(a), <$ty>::from_u64(b), <$ty>::from_u64(c));
                    prop_assert_eq!(x.add(y).add(z), x.add(y.add(z)));
                }

                #[test]
                fn mul_associates(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
                    let (x, y, z) = (<$ty>::from_u64(a), <$ty>::from_u64(b), <$ty>::from_u64(c));
                    prop_assert_eq!(x.mul(y).mul(z), x.mul(y.mul(z)));
                }

                #[test]
                fn mul_distributes_over_add(
                    a in any::<u64>(), b in any::<u64>(), c in any::<u64>()
                ) {
                    let (x, y, z) = (<$ty>::from_u64(a), <$ty>::from_u64(b), <$ty>::from_u64(c));
                    prop_assert_eq!(x.mul(y.add(z)), x.mul(y).add(x.mul(z)));
                    // Right distributivity too (multiplication commutes,
                    // but check the law independently).
                    prop_assert_eq!(y.add(z).mul(x), y.mul(x).add(z.mul(x)));
                }

                #[test]
                fn inverse_round_trip(a in any::<u64>()) {
                    let x = <$ty>::from_u64(a);
                    match x.inv() {
                        Some(ix) => {
                            prop_assert_eq!(x.mul(ix), <$ty>::ONE);
                            // inv is an involution.
                            prop_assert_eq!(ix.inv(), Some(x));
                            // Division round-trips: (x / x) = 1, y·x/x = y.
                            prop_assert_eq!(x.div(x), Some(<$ty>::ONE));
                        }
                        None => prop_assert_eq!(x, <$ty>::ZERO),
                    }
                }

                #[test]
                fn inverse_of_product(a in any::<u64>(), b in any::<u64>()) {
                    let (x, y) = (<$ty>::from_u64(a), <$ty>::from_u64(b));
                    if let (Some(ix), Some(iy)) = (x.inv(), y.inv()) {
                        prop_assert_eq!(x.mul(y).inv(), Some(iy.mul(ix)));
                    }
                }

                #[test]
                fn frobenius_is_additive(a in any::<u64>(), b in any::<u64>()) {
                    // Freshman's dream, valid in characteristic 2:
                    // (x + y)² = x² + y².
                    let (x, y) = (<$ty>::from_u64(a), <$ty>::from_u64(b));
                    prop_assert_eq!(
                        frobenius(x.add(y), 1),
                        frobenius(x, 1).add(frobenius(y, 1))
                    );
                }

                #[test]
                fn frobenius_is_multiplicative(a in any::<u64>(), b in any::<u64>()) {
                    let (x, y) = (<$ty>::from_u64(a), <$ty>::from_u64(b));
                    prop_assert_eq!(
                        frobenius(x.mul(y), 1),
                        frobenius(x, 1).mul(frobenius(y, 1))
                    );
                }

                #[test]
                fn frobenius_order_is_field_degree(a in any::<u64>()) {
                    // x^(2^m) = x for every x in GF(2^m): iterating the
                    // Frobenius endomorphism BITS times is the identity.
                    let x = <$ty>::from_u64(a);
                    prop_assert_eq!(frobenius(x, <$ty>::BITS), x);
                }
            }
        }
    };
}

axiom_suite!(axioms_gf2_16, Gf2_16);
axiom_suite!(axioms_gf2m_1, Gf2m<1>);
axiom_suite!(axioms_gf2m_8, Gf2m<8>);
axiom_suite!(axioms_gf2m_16, Gf2m<16>);
axiom_suite!(axioms_gf2m_24, Gf2m<24>);
axiom_suite!(axioms_gf2m_48, Gf2m<48>);
axiom_suite!(axioms_gf2m_64, Gf2m<64>);

/// The Frobenius fixed field of `GF(2^m)` is `GF(2)`: only 0 and 1 square
/// to themselves (deterministic exhaustive check on a small field).
#[test]
fn frobenius_fixed_points_are_the_prime_field() {
    let fixed: Vec<u64> = (0..256u64)
        .filter(|&a| {
            let x = Gf2m::<8>::from_u64(a);
            frobenius(x, 1) == x
        })
        .collect();
    assert_eq!(fixed, vec![0, 1]);
}
