//! Generic `GF(2^m)` for `1 ≤ m ≤ 64`, plus a fast table-based `GF(2^16)`.
//!
//! The equality-check soundness bound of Theorem 1 improves exponentially in
//! the symbol size `L/ρ`; experiments sweep that size, so the field degree
//! must be a runtime-choosable *type* parameter. [`Gf2m<M>`] provides every
//! degree up to 64 from a built-in table of low-weight irreducible
//! polynomials (validated by Rabin's test in this crate's test suite).

use std::fmt;
use std::sync::OnceLock;

use crate::field::Field;
use crate::poly2;

/// Low-order tap masks of irreducible polynomials `x^m + taps` for
/// `m = 1..=64` (index `m-1`), following the usual low-weight tables
/// (trinomials where they exist, else pentanomials).
///
/// Entry `m` encodes the polynomial `(1 << m) | TAPS[m-1]`.
pub const TAPS: [u64; 64] = [
    0x1,        // m=1:  x + 1
    0x3,        // m=2:  x^2+x+1
    0x3,        // m=3:  x^3+x+1
    0x3,        // m=4:  x^4+x+1
    0x5,        // m=5:  x^5+x^2+1
    0x3,        // m=6:  x^6+x+1
    0x3,        // m=7:  x^7+x+1
    0x1B,       // m=8:  x^8+x^4+x^3+x+1
    0x3,        // m=9:  x^9+x+1
    0x9,        // m=10: x^10+x^3+1
    0x5,        // m=11: x^11+x^2+1
    0x9,        // m=12: x^12+x^3+1
    0x1B,       // m=13: x^13+x^4+x^3+x+1
    0x21,       // m=14: x^14+x^5+1
    0x3,        // m=15: x^15+x+1
    0x2B,       // m=16: x^16+x^5+x^3+x+1
    0x9,        // m=17: x^17+x^3+1
    0x9,        // m=18: x^18+x^3+1
    0x27,       // m=19: x^19+x^5+x^2+x+1
    0x9,        // m=20: x^20+x^3+1
    0x5,        // m=21: x^21+x^2+1
    0x3,        // m=22: x^22+x+1
    0x21,       // m=23: x^23+x^5+1
    0x1B,       // m=24: x^24+x^4+x^3+x+1
    0x9,        // m=25: x^25+x^3+1
    0x1B,       // m=26: x^26+x^4+x^3+x+1
    0x27,       // m=27: x^27+x^5+x^2+x+1
    0x3,        // m=28: x^28+x+1
    0x5,        // m=29: x^29+x^2+1
    0x3,        // m=30: x^30+x+1
    0x9,        // m=31: x^31+x^3+1
    0x8D,       // m=32: x^32+x^7+x^3+x^2+1
    0x401,      // m=33: x^33+x^10+1
    0x81,       // m=34: x^34+x^7+1
    0x5,        // m=35: x^35+x^2+1
    0x201,      // m=36: x^36+x^9+1
    0x53,       // m=37: x^37+x^6+x^4+x+1
    0x63,       // m=38: x^38+x^6+x^5+x+1
    0x11,       // m=39: x^39+x^4+1
    0x39,       // m=40: x^40+x^5+x^4+x^3+1
    0x9,        // m=41: x^41+x^3+1
    0x81,       // m=42: x^42+x^7+1
    0x59,       // m=43: x^43+x^6+x^4+x^3+1
    0x21,       // m=44: x^44+x^5+1
    0x1B,       // m=45: x^45+x^4+x^3+x+1
    0x3,        // m=46: x^46+x+1
    0x21,       // m=47: x^47+x^5+1
    0x2D,       // m=48: x^48+x^5+x^3+x^2+1
    0x201,      // m=49: x^49+x^9+1
    0x1D,       // m=50: x^50+x^4+x^3+x^2+1
    0x4B,       // m=51: x^51+x^6+x^3+x+1
    0x9,        // m=52: x^52+x^3+1
    0x47,       // m=53: x^53+x^6+x^2+x+1
    0x201,      // m=54: x^54+x^9+1
    0x81,       // m=55: x^55+x^7+1
    0x95,       // m=56: x^56+x^7+x^4+x^2+1
    0x11,       // m=57: x^57+x^4+1
    0x80001,    // m=58: x^58+x^19+1
    0x95,       // m=59: x^59+x^7+x^4+x^2+1
    0x3,        // m=60: x^60+x+1
    0x27,       // m=61: x^61+x^5+x^2+x+1
    0x20000001, // m=62: x^62+x^29+1
    0x3,        // m=63: x^63+x+1
    0x1B,       // m=64: x^64+x^4+x^3+x+1
];

/// The full modulus polynomial for `GF(2^m)` as a bit-packed `u128`.
///
/// # Panics
///
/// Panics if `m` is 0 or greater than 64.
pub const fn modulus(m: u32) -> u128 {
    assert!(m >= 1 && m <= 64, "GF(2^m) supported only for 1 <= m <= 64");
    (1u128 << m) | TAPS[(m - 1) as usize] as u128
}

/// An element of `GF(2^M)` for any `1 ≤ M ≤ 64`.
///
/// Arithmetic uses software carry-less multiplication with reduction modulo
/// the built-in irreducible polynomial for degree `M`; inversion uses
/// Fermat's little theorem (`x^(2^M − 2)`).
///
/// # Example
///
/// ```
/// use nab_gf::{Field, Gf2m};
/// type F = Gf2m<20>;
/// let a = F::from_u64(0xABCDE);
/// assert_eq!(a.mul(a.inv().unwrap()), F::ONE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf2m<const M: u32>(pub u64);

impl<const M: u32> Gf2m<M> {
    /// Bit mask selecting the `M` low bits.
    pub const MASK: u64 = if M == 64 { u64::MAX } else { (1u64 << M) - 1 };

    /// The modulus polynomial of this field.
    pub const MODULUS: u128 = modulus(M);

    /// Number of elements in the field, saturating at `u64::MAX` for `M=64`.
    pub const fn order_minus_one() -> u64 {
        if M == 64 {
            u64::MAX
        } else {
            (1u64 << M) - 1
        }
    }
}

impl<const M: u32> fmt::Debug for Gf2m<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2m<{M}>({:#x})", self.0)
    }
}

impl<const M: u32> fmt::Display for Gf2m<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

impl<const M: u32> Field for Gf2m<M> {
    const ZERO: Self = Gf2m(0);
    const ONE: Self = Gf2m(1);
    const BITS: u32 = M;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf2m(self.0 ^ rhs.0)
    }

    fn mul(self, rhs: Self) -> Self {
        let p = poly2::mul_mod(self.0 as u128, rhs.0 as u128, Self::MODULUS);
        Gf2m(p as u64)
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        // x^(2^M - 2) = x^(-1). 2^M - 2 = order_minus_one() - 1.
        Some(self.pow(Self::order_minus_one() - 1))
    }

    #[inline]
    fn from_u64(x: u64) -> Self {
        Gf2m(x & Self::MASK)
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Fast table-based GF(2^16)
// ---------------------------------------------------------------------------

/// The primitive polynomial `x^16 + x^12 + x^3 + x + 1` (`0x1100B`), for
/// which `x` is a multiplicative generator.
pub const GF2_16_MODULUS: u32 = 0x1100B;

struct Tables16 {
    exp: Vec<u16>,
    log: Vec<u32>,
}

#[expect(
    clippy::needless_range_loop,
    reason = "the index is the discrete log itself"
)]
fn tables16() -> &'static Tables16 {
    static TABLES: OnceLock<Tables16> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = vec![0u16; 131072];
        let mut log = vec![0u32; 65536];
        let mut x: u32 = 1;
        for i in 0..65535 {
            exp[i] = x as u16;
            log[x as usize] = i as u32;
            x <<= 1;
            if x & 0x10000 != 0 {
                x ^= GF2_16_MODULUS;
            }
        }
        for i in 65535..131072 {
            exp[i] = exp[i - 65535];
        }
        Tables16 { exp, log }
    })
}

/// An element of `GF(2^16)` with log/antilog-table arithmetic.
///
/// This is the workhorse field for equality-check simulations: 16-bit
/// symbols give a per-check soundness error around `2^-16` scaled by the
/// union-bound factor of Theorem 1, while staying fast enough to run
/// millions of trials.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Gf2_16(pub u16);

impl fmt::Debug for Gf2_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2_16({:#06x})", self.0)
    }
}

impl fmt::Display for Gf2_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}", self.0)
    }
}

impl Field for Gf2_16 {
    const ZERO: Self = Gf2_16(0);
    const ONE: Self = Gf2_16(1);
    const BITS: u32 = 16;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf2_16(self.0 ^ rhs.0)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf2_16(0);
        }
        let t = tables16();
        let idx = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf2_16(t.exp[idx])
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        let t = tables16();
        let l = t.log[self.0 as usize] as usize;
        Some(Gf2_16(t.exp[65535 - l]))
    }

    #[inline]
    fn from_u64(x: u64) -> Self {
        Gf2_16(x as u16)
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self.0 as u64
    }
}

/// Log-domain fused row kernel for `GF(2^16)`: `dst[i] ^= s · src[i]`
/// with the scalar's discrete log hoisted out of the loop. The
/// [`crate::simd`] GEMM runs it on rows under
/// [`crate::simd::SIMD_THRESHOLD`], on the columns past the `avx2`
/// tier's last whole vector block, and for every column on the portable
/// tier.
///
/// Caller guarantees `s != 0` and equal slice lengths.
pub(crate) fn mul_row_add_log16(dst: &mut [Gf2_16], src: &[Gf2_16], s: Gf2_16) {
    debug_assert!(s.0 != 0);
    let t = tables16();
    let ls = t.log[s.0 as usize] as usize;
    for (d, &x) in dst.iter_mut().zip(src) {
        if x.0 != 0 {
            d.0 ^= t.exp[ls + t.log[x.0 as usize] as usize];
        }
    }
}

/// `GF(2^32)` via the generic carry-less implementation.
pub type Gf2_32 = Gf2m<32>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_entry_is_irreducible() {
        for m in 1..=64u32 {
            assert!(
                poly2::is_irreducible(modulus(m)),
                "modulus for m={m} is reducible: {:#x}",
                modulus(m)
            );
        }
    }

    #[test]
    fn gf2_16_modulus_is_irreducible() {
        assert!(poly2::is_irreducible(GF2_16_MODULUS as u128));
    }

    #[test]
    fn gf2_16_table_matches_generic_field() {
        // Both implementations use different moduli, so compare the *algebra*
        // instead: commutativity with a fixed isomorphic check is overkill;
        // instead verify the table field against direct polynomial math on
        // its own modulus.
        for (a, b) in [(3u64, 7u64), (0xFFFF, 0x8001), (12345, 54321), (1, 0xFFFF)] {
            let fast = Gf2_16::from_u64(a).mul(Gf2_16::from_u64(b)).to_u64();
            let slow = poly2::mul_mod(a as u128, b as u128, GF2_16_MODULUS as u128) as u64;
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn gf2_16_inverses_spot_check() {
        for a in [1u64, 2, 0x8000, 0xFFFF, 31337] {
            let x = Gf2_16::from_u64(a);
            assert_eq!(x.mul(x.inv().unwrap()), Gf2_16::ONE);
        }
        assert_eq!(Gf2_16::ZERO.inv(), None);
    }

    #[test]
    fn generic_field_inverses_at_various_degrees() {
        fn check<const M: u32>() {
            for raw in [1u64, 2, 3, 0xDEADBEEF_u64, u64::MAX] {
                let x = Gf2m::<M>::from_u64(raw);
                if x.is_zero() {
                    continue;
                }
                let ix = x.inv().expect("non-zero invertible");
                assert_eq!(x.mul(ix), Gf2m::<M>::ONE, "m={M} raw={raw}");
            }
        }
        check::<1>();
        check::<2>();
        check::<5>();
        check::<8>();
        check::<13>();
        check::<16>();
        check::<24>();
        check::<32>();
        check::<48>();
        check::<63>();
        check::<64>();
    }

    #[test]
    fn generic_mul_is_commutative_and_associative() {
        type F = Gf2m<24>;
        let a = F::from_u64(0xABCDEF);
        let b = F::from_u64(0x123456);
        let c = F::from_u64(0xF0F0F0);
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn from_u64_masks_to_field_width() {
        let x = Gf2m::<4>::from_u64(0xFF);
        assert_eq!(x.to_u64(), 0xF);
    }

    #[test]
    fn gf2m_8_matches_its_own_modulus_reference() {
        // Gf2m<8> uses 0x11B; verify against poly arithmetic.
        type F = Gf2m<8>;
        for a in 0..=255u64 {
            let b = (a * 7 + 13) & 0xFF;
            let fast = F::from_u64(a).mul(F::from_u64(b)).to_u64();
            let slow = poly2::mul_mod(a as u128, b as u128, modulus(8)) as u64;
            assert_eq!(fast, slow);
        }
    }
}
