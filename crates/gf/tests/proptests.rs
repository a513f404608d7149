//! Property-based tests: field axioms and linear-algebra invariants.

use nab_gf::field::Field;
use nab_gf::gf2m::{Gf2_16, Gf2m};
use nab_gf::linalg;
use nab_gf::matrix::Matrix;
use proptest::prelude::*;

macro_rules! field_axioms {
    ($modname:ident, $ty:ty) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn add_commutes(a in any::<u64>(), b in any::<u64>()) {
                    let (x, y) = (<$ty>::from_u64(a), <$ty>::from_u64(b));
                    prop_assert_eq!(x.add(y), y.add(x));
                }

                #[test]
                fn mul_commutes(a in any::<u64>(), b in any::<u64>()) {
                    let (x, y) = (<$ty>::from_u64(a), <$ty>::from_u64(b));
                    prop_assert_eq!(x.mul(y), y.mul(x));
                }

                #[test]
                fn mul_associates(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
                    let (x, y, z) = (<$ty>::from_u64(a), <$ty>::from_u64(b), <$ty>::from_u64(c));
                    prop_assert_eq!(x.mul(y).mul(z), x.mul(y.mul(z)));
                }

                #[test]
                fn distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
                    let (x, y, z) = (<$ty>::from_u64(a), <$ty>::from_u64(b), <$ty>::from_u64(c));
                    prop_assert_eq!(x.mul(y.add(z)), x.mul(y).add(x.mul(z)));
                }

                #[test]
                fn additive_self_inverse(a in any::<u64>()) {
                    let x = <$ty>::from_u64(a);
                    prop_assert_eq!(x.add(x), <$ty>::ZERO);
                }

                #[test]
                fn inverse_roundtrip(a in any::<u64>()) {
                    let x = <$ty>::from_u64(a);
                    if let Some(ix) = x.inv() {
                        prop_assert_eq!(x.mul(ix), <$ty>::ONE);
                    } else {
                        prop_assert_eq!(x, <$ty>::ZERO);
                    }
                }

                #[test]
                fn one_is_identity(a in any::<u64>()) {
                    let x = <$ty>::from_u64(a);
                    prop_assert_eq!(x.mul(<$ty>::ONE), x);
                    prop_assert_eq!(x.add(<$ty>::ZERO), x);
                }

                #[test]
                fn pow_adds_exponents(a in any::<u64>(), e1 in 0u64..50, e2 in 0u64..50) {
                    let x = <$ty>::from_u64(a);
                    prop_assert_eq!(x.pow(e1).mul(x.pow(e2)), x.pow(e1 + e2));
                }
            }
        }
    };
}

field_axioms!(axioms_gf2m_8, Gf2m<8>);
field_axioms!(axioms_gf2_16, Gf2_16);
field_axioms!(axioms_gf2m_13, Gf2m<13>);
field_axioms!(axioms_gf2m_32, Gf2m<32>);
field_axioms!(axioms_gf2m_64, Gf2m<64>);

type F8 = Gf2m<8>;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<F8>> {
    proptest::collection::vec(any::<u8>(), rows * cols).prop_map(move |data| {
        Matrix::from_fn(rows, cols, |r, c| F8::from_u64(data[r * cols + c].into()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_bounded_by_dims(m in arb_matrix(4, 6)) {
        let r = linalg::rank(&m);
        prop_assert!(r <= 4);
    }

    #[test]
    fn rank_invariant_under_transpose(m in arb_matrix(4, 6)) {
        prop_assert_eq!(linalg::rank(&m), linalg::rank(&m.transpose()));
    }

    #[test]
    fn inverse_is_two_sided(m in arb_matrix(5, 5)) {
        if let Some(inv) = linalg::invert(&m) {
            prop_assert_eq!(m.mat_mul(&inv), Matrix::identity(5));
            prop_assert_eq!(inv.mat_mul(&m), Matrix::identity(5));
        } else {
            prop_assert!(linalg::rank(&m) < 5);
        }
    }

    #[test]
    fn rank_nullity(m in arb_matrix(4, 7)) {
        let k = linalg::kernel_basis(&m);
        prop_assert_eq!(linalg::rank(&m) + k.rows(), 7);
    }

    #[test]
    fn determinant_multiplicative(a in arb_matrix(3, 3), b in arb_matrix(3, 3)) {
        let da = linalg::determinant(&a);
        let db = linalg::determinant(&b);
        let dab = linalg::determinant(&a.mat_mul(&b));
        prop_assert_eq!(dab, da.mul(db));
    }

    #[test]
    fn solve_produces_solutions(a in arb_matrix(4, 4), xs in proptest::collection::vec(any::<u8>(), 4)) {
        let x: Vec<F8> = xs.into_iter().map(|x| F8::from_u64(x.into())).collect();
        // b = a * x
        let b = a.transpose().left_mul_vec(&x);
        if let Some(sol) = linalg::solve(&a, &b) {
            let asol = a.transpose().left_mul_vec(&sol);
            prop_assert_eq!(asol, b);
        } else {
            // a*x = b always has solution x; solve must not return None.
            prop_assert!(false, "solve returned None for a consistent system");
        }
    }
}
