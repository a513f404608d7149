//! The [`Field`] trait: the minimal algebraic interface the rest of the
//! workspace needs from a finite field.

use std::fmt::Debug;
use std::hash::Hash;

use rand::Rng;

/// A finite field of characteristic 2.
///
/// Implementors are small `Copy` value types (a wrapped integer). All
/// arithmetic is total except [`Field::inv`], which returns `None` for zero.
///
/// # Laws
///
/// Implementations must satisfy the usual field axioms; these are checked by
/// property tests in this crate for every provided implementation:
///
/// - `(F, add)` is an abelian group with identity [`Field::ZERO`]; in
///   characteristic 2, every element is its own additive inverse.
/// - `(F \ {0}, mul)` is an abelian group with identity [`Field::ONE`].
/// - Multiplication distributes over addition.
pub trait Field:
    Copy + Clone + Eq + PartialEq + Debug + Hash + Default + Send + Sync + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of bits per element, i.e. the `m` in `GF(2^m)`.
    const BITS: u32;

    /// Field addition (XOR in characteristic 2).
    fn add(self, rhs: Self) -> Self;

    /// Field subtraction. In characteristic 2 this equals [`Field::add`].
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.add(rhs)
    }

    /// Field multiplication.
    fn mul(self, rhs: Self) -> Self;

    /// Multiplicative inverse, or `None` if `self` is zero.
    fn inv(self) -> Option<Self>;

    /// Field division.
    ///
    /// Returns `None` when `rhs` is zero.
    #[inline]
    fn div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|r| self.mul(r))
    }

    /// Exponentiation by squaring.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Whether this element is the additive identity.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Construct an element from the low `BITS` bits of `x`.
    fn from_u64(x: u64) -> Self;

    /// The canonical integer representation of this element.
    fn to_u64(self) -> u64;

    /// Sample a uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_u64(rng.gen::<u64>())
    }

    /// Sample a uniformly random *non-zero* field element.
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Self::random(rng);
            if !x.is_zero() {
                return x;
            }
        }
    }
}

/// Convenience: sum of an iterator of field elements.
pub fn sum<F: Field, I: IntoIterator<Item = F>>(iter: I) -> F {
    iter.into_iter().fold(F::ZERO, F::add)
}

/// Convenience: dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<F: Field>(a: &[F], b: &[F]) -> F {
    assert_eq!(a.len(), b.len(), "dot product of unequal-length slices");
    a.iter()
        .zip(b.iter())
        .fold(F::ZERO, |acc, (&x, &y)| acc.add(x.mul(y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf2m::Gf2m;

    type F8 = Gf2m<8>;

    #[test]
    fn dot_product_matches_manual_expansion() {
        let a = [F8::from_u64(3), F8::from_u64(5)];
        let b = [F8::from_u64(7), F8::from_u64(11)];
        let expected = a[0].mul(b[0]).add(a[1].mul(b[1]));
        assert_eq!(dot(&a, &b), expected);
    }

    #[test]
    fn sum_of_pairs_cancels_in_char_2() {
        let x = F8::from_u64(123);
        assert_eq!(sum([x, x]), F8::ZERO);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn dot_panics_on_length_mismatch() {
        let a = [F8::ONE];
        let b = [F8::ONE, F8::ONE];
        let _ = dot(&a, &b);
    }
}
