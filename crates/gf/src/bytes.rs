//! `GF(256)` byte-row kernels.
//!
//! When the field is exactly `GF(2^8)`, a field element *is* a byte, so
//! every row operation becomes a table-driven byte loop:
//! `dst[i] ^= MUL[s][src[i]]`. These are the kernels behind
//! `Gf256`'s [`crate::kernel::FastOps`] implementation and the table
//! source of the arch-SIMD tier ([`crate::simd`]).
//!
//! Every operation here is bit-identical to the generic scalar path (the
//! differential test suite in `tests/differential.rs` pins this).

use std::sync::OnceLock;

use crate::field::Field;
use crate::gf256::Gf256;

/// The full 256×256 `GF(256)` product table (64 KiB, built once).
fn product_table() -> &'static [[u8; 256]; 256] {
    static TABLE: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([[0u8; 256]; 256]);
        for a in 0..256 {
            for b in a..256 {
                let p = Gf256(a as u8).mul(Gf256(b as u8)).0;
                t[a][b] = p;
                t[b][a] = p;
            }
        }
        t
    })
}

/// The 256-entry product row for one scalar: `mul_table(s)[x] == s·x`.
#[inline]
pub fn mul_table(s: u8) -> &'static [u8; 256] {
    &product_table()[s as usize]
}

/// Fused multiply-add row kernel: `dst[i] ^= s · src[i]`.
///
/// In characteristic 2 this is simultaneously `dst += s·src` and
/// `dst -= s·src`, which is all Gaussian elimination ever needs.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_row_add(dst: &mut [u8], src: &[u8], s: u8) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_row_add length mismatch: dst has {} bytes, src has {}",
        dst.len(),
        src.len()
    );
    match s {
        0 => {}
        1 => {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d ^= x;
            }
        }
        _ if dst.len() >= crate::simd::SIMD_THRESHOLD => {
            crate::simd::gf256_mul_row_add(dst, src, s);
        }
        _ => {
            let t = mul_table(s);
            for (d, &x) in dst.iter_mut().zip(src) {
                *d ^= t[x as usize];
            }
        }
    }
}

/// In-place row scaling: `row[i] = s · row[i]`.
pub fn scale_row(row: &mut [u8], s: u8) {
    match s {
        0 => row.fill(0),
        1 => {}
        _ if row.len() >= crate::simd::SIMD_THRESHOLD => {
            crate::simd::gf256_scale_row(row, s);
        }
        _ => {
            let t = mul_table(s);
            for x in row.iter_mut() {
                *x = t[*x as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_table_matches_field_mul() {
        for s in [0u8, 1, 2, 0x53, 0xFF] {
            let t = mul_table(s);
            for x in 0..=255u8 {
                assert_eq!(t[x as usize], Gf256(s).mul(Gf256(x)).0, "{s} * {x}");
            }
        }
    }

    #[test]
    fn mul_row_add_is_fused_multiply_add() {
        let src = [1u8, 2, 3, 0xFF];
        let mut dst = [9u8, 8, 7, 6];
        let expect: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(&d, &x)| Gf256(d).add(Gf256(0x1D).mul(Gf256(x))).0)
            .collect();
        mul_row_add(&mut dst, &src, 0x1D);
        assert_eq!(dst.to_vec(), expect);
        // s = 0 is a no-op; s = 1 is plain XOR.
        let before = dst;
        mul_row_add(&mut dst, &src, 0);
        assert_eq!(dst, before);
        mul_row_add(&mut dst, &src, 1);
        for i in 0..4 {
            assert_eq!(dst[i], before[i] ^ src[i]);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_row_add_rejects_length_mismatch() {
        let mut dst = [0u8; 3];
        mul_row_add(&mut dst, &[0u8; 4], 2);
    }
}
