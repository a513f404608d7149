//! The arch-SIMD `GF(2^16)` GEMM micro-kernel: nibble-split PSHUFB-style
//! table lookups.
//!
//! `GF(2^m)` multiplication by a fixed scalar `s` is `GF(2)`-linear, so it
//! splits over any basis of the operand: `s·x = Σ_k s·(nibble_k(x) << 4k)`.
//! Each 4-bit nibble has only 16 possible values, and a 16-entry byte table
//! is exactly one `PSHUFB` (`_mm_shuffle_epi8`) register, so one fused
//! multiply-add over a row becomes a handful of shuffles and XORs per
//! 16/32-byte vector. This is the classic SIMD erasure-coding kernel
//! (ISA-L, klauspost/reedsolomon).
//!
//! There is one kernel per tier, `out ^= a·b`: tables are built once per
//! coefficient of `a`, each source block is split into its nibble planes
//! once, and up to four output rows accumulate in registers across the
//! whole inner dimension; the row kernel `dst ^= s·src` is its 1×1 case.
//!
//! The tier is picked **once per process** by runtime CPU-feature
//! detection ([`tier`]): `avx2` → 32-byte vectors, `ssse3` → 16-byte
//! vectors, `portable` → the log-domain loop (non-x86 builds compile only
//! the portable path). Every tier is **bit-identical**: characteristic-2
//! addition is XOR, so vectorization changes neither values nor any
//! accumulation result. This module's tests pin every tier the CPU can run
//! against [`crate::matrix::Matrix::mul`]; `tests/differential.rs` pins
//! the detected one through the public entry points.

use std::sync::OnceLock;

use crate::gf2m::Gf2_16;

/// Rows shorter than this (in elements) skip the SIMD dispatch: below a
/// couple of vectors the table-build and tail handling dominate, and the
/// log-domain loop is already fast.
pub const SIMD_THRESHOLD: usize = 64;

/// The kernel tier selected for this process.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Tier {
    Avx2,
    Ssse3,
    Portable,
}

fn detect() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return Tier::Ssse3;
        }
    }
    Tier::Portable
}

fn tier_enum() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

/// The selected SIMD tier name: `"avx2"`, `"ssse3"`, or `"portable"`.
/// Decided once at first use from runtime CPU-feature detection.
pub fn tier() -> &'static str {
    match tier_enum() {
        Tier::Avx2 => "avx2",
        Tier::Ssse3 => "ssse3",
        Tier::Portable => "portable",
    }
}

/// Comma-joined list of the detected CPU features relevant to the GF
/// kernels (e.g. `"sse2,ssse3,avx2"`), or `"none"` when no candidate
/// feature is present (including non-x86 builds). Recorded in perf
/// baselines and the sweep-start trace event so numbers from different
/// machines stay comparable.
pub fn cpu_features() -> &'static str {
    static FEATURES: OnceLock<String> = OnceLock::new();
    FEATURES.get_or_init(|| {
        let mut found: Vec<&str> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                found.push("sse2");
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                found.push("ssse3");
            }
            if std::arch::is_x86_feature_detected!("avx") {
                found.push("avx");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                found.push("avx2");
            }
        }
        if found.is_empty() {
            "none".to_string()
        } else {
            found.join(",")
        }
    })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `cfg`-gated intrinsics bodies. Safety contract throughout:
    //! the caller checked the CPU feature at runtime (the tier is only
    //! selected when detection succeeded), and all loads/stores are
    //! unaligned (`loadu`/`storeu`) so no alignment obligations exist.
    use super::*;
    use std::arch::x86_64::*;

    // --- GF(2^16): the GEMM micro-kernel, one body for both widths. ---
    //
    // Per block of operands (two vectors of u16): deinterleave into a
    // low-byte vector and a high-byte vector with PACKUSWB (exact — inputs
    // are pre-masked to ≤ 255, so saturation never fires) and split those
    // into the four nibble planes, once per source row. Each of the `R`
    // output rows then does 8 shuffles + XORs into its own pair of
    // byte-plane accumulators, which stay in registers across the whole
    // `k` loop and are re-interleaved with PUNPCKL/HBW only when stored.
    // Both pack and unpack operate per 128-bit lane, so the lane
    // permutation pack introduces is exactly undone by unpack and products
    // land back on their operands (`unpacklo` covers the block's first
    // vector of columns, `unpackhi` its second).
    macro_rules! gf2_16_panel_kernel {
        ($name:ident, $feature:literal, $vec:ty, $step:literal, $table:ident, $zero:ident,
         $set1_8:ident, $set1_16:ident, $load:ident, $store:ident, $and:ident, $xor:ident,
         $packus:ident, $srli16:ident, $srli64:ident, $shuffle:ident, $unpacklo:ident,
         $unpackhi:ident) => {
            /// `out[r][j] ^= Σ_kk tables[r·k + kk] · b[kk][j]` for `r < R` and
            /// `j < cols`; `out` and `b` have row stride `w`.
            ///
            /// # Safety
            ///
            /// The target feature must be available, `cols` a multiple of
            /// the step, `out` must hold `(R − 1)·w + cols` elements, `b`
            /// `(k − 1)·w + cols`, and `tables` `R·k` entries
            /// ([`super::gf2_16_panel`] asserts all of it).
            // SAFETY: every load and store below is unaligned and inside
            // the bounds the contract above names.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $name<const R: usize>(
                out: &mut [Gf2_16],
                tables: &[NibbleTables],
                b: &[Gf2_16],
                k: usize,
                w: usize,
                cols: usize,
            ) {
                let nib = $set1_8(0x0F);
                let byte = $set1_16(0x00FF);
                // `Gf2_16` is repr(transparent) over u16, so the slabs
                // reinterpret as raw u16 (little-endian byte pairs).
                let (bp, op) = (b.as_ptr(), out.as_mut_ptr());
                for j in (0..cols).step_by($step) {
                    let mut lo = [$zero(); R];
                    let mut hi = [$zero(); R];
                    for kk in 0..k {
                        let sp = bp.add(kk * w + j) as *const $vec;
                        let (v0, v1) = ($load(sp), $load(sp.add(1)));
                        let lob = $packus($and(v0, byte), $and(v1, byte));
                        let hib = $packus($srli16::<8>(v0), $srli16::<8>(v1));
                        let planes = [
                            $and(lob, nib),
                            $and($srli64::<4>(lob), nib),
                            $and(hib, nib),
                            $and($srli64::<4>(hib), nib),
                        ];
                        for r in 0..R {
                            let t = &tables[r * k + kk];
                            for (q, &plane) in planes.iter().enumerate() {
                                lo[r] = $xor(lo[r], $shuffle($table(&t.lo[q]), plane));
                                hi[r] = $xor(hi[r], $shuffle($table(&t.hi[q]), plane));
                            }
                        }
                    }
                    for r in 0..R {
                        let dp = op.add(r * w + j) as *mut $vec;
                        $store(dp, $xor($load(dp), $unpacklo(lo[r], hi[r])));
                        $store(dp.add(1), $xor($load(dp.add(1)), $unpackhi(lo[r], hi[r])));
                    }
                }
            }
        };
    }

    // SAFETY: a 16-byte unaligned load of a 16-byte array.
    #[target_feature(enable = "ssse3")]
    unsafe fn table128(t: &[u8; 16]) -> __m128i {
        _mm_loadu_si128(t.as_ptr() as *const __m128i)
    }

    // SAFETY: as `table128`, broadcast to both lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn table256(t: &[u8; 16]) -> __m256i {
        _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
    }

    #[rustfmt::skip]
    gf2_16_panel_kernel!(
        gf2_16_panel_ssse3, "ssse3", __m128i, 16, table128, _mm_setzero_si128,
        _mm_set1_epi8, _mm_set1_epi16, _mm_loadu_si128, _mm_storeu_si128, _mm_and_si128,
        _mm_xor_si128, _mm_packus_epi16, _mm_srli_epi16, _mm_srli_epi64, _mm_shuffle_epi8,
        _mm_unpacklo_epi8, _mm_unpackhi_epi8
    );
    #[rustfmt::skip]
    gf2_16_panel_kernel!(
        gf2_16_panel_avx2, "avx2", __m256i, 32, table256, _mm256_setzero_si256,
        _mm256_set1_epi8, _mm256_set1_epi16, _mm256_loadu_si256, _mm256_storeu_si256,
        _mm256_and_si256, _mm256_xor_si256, _mm256_packus_epi16, _mm256_srli_epi16,
        _mm256_srli_epi64, _mm256_shuffle_epi8, _mm256_unpacklo_epi8, _mm256_unpackhi_epi8
    );
}

#[cfg(target_arch = "x86_64")]
use x86::*;

/// Output rows one micro-kernel pass accumulates in registers.
const MR: usize = 4;

/// The nibble product tables of one `GF(2^16)` coefficient `s`:
/// `T_q[n] = s·(n << 4q)` for the four nibbles `q` of a 16-bit operand,
/// each split into its low and high product byte — eight 16-byte `PSHUFB`
/// registers; `s·x` is the XOR of the four lookups.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct NibbleTables {
    lo: [[u8; 16]; 4],
    hi: [[u8; 16]; 4],
}

impl NibbleTables {
    /// Multiplication by `s` is `GF(2)`-linear, so sixteen doublings give
    /// `s·2^b` and every table entry is the XOR of its set bits' products —
    /// no log/exp lookups.
    fn new(s: Gf2_16) -> Self {
        let mut pow = [0u16; 16];
        let mut p = u32::from(s.0);
        for slot in &mut pow {
            *slot = p as u16;
            p <<= 1;
            if p & 0x1_0000 != 0 {
                p ^= crate::gf2m::GF2_16_MODULUS;
            }
        }
        let mut t = NibbleTables {
            lo: [[0; 16]; 4],
            hi: [[0; 16]; 4],
        };
        for q in 0..4 {
            let mut prod = [0u16; 16];
            for n in 1..16usize {
                prod[n] = prod[n & (n - 1)] ^ pow[4 * q + n.trailing_zeros() as usize];
                t.lo[q][n] = prod[n] as u8;
                t.hi[q][n] = (prod[n] >> 8) as u8;
            }
        }
        t
    }
}

/// How many leading columns of a `w`-wide row `tier`'s micro-kernel takes:
/// whole vector blocks of rows that clear [`SIMD_THRESHOLD`]. The rest —
/// every column on the portable tier — goes through the log-domain loop.
fn gf2_16_vector_cols(tier: Tier, w: usize) -> usize {
    let block = match tier {
        Tier::Avx2 => 32,
        Tier::Ssse3 => 16,
        Tier::Portable => return 0,
    };
    if w < SIMD_THRESHOLD {
        0
    } else {
        w - w % block
    }
}

/// Runs `tier`'s micro-kernel: `out[r][j] ^= Σ_kk tables[r·k + kk] · b[kk][j]`
/// for each of the `tables.len() / k ≤ MR` rows `r` and `j < cols`, with
/// `out` and `b` row-major of stride `w`.
fn gf2_16_panel(
    tier: Tier,
    out: &mut [Gf2_16],
    tables: &[NibbleTables],
    b: &[Gf2_16],
    k: usize,
    w: usize,
    cols: usize,
) {
    assert!(k >= 1 && cols <= w);
    let rows = tables.len() / k;
    assert!((1..=MR).contains(&rows) && tables.len() == rows * k);
    assert_eq!(
        cols,
        gf2_16_vector_cols(tier, cols),
        "cols must be whole vector blocks"
    );
    assert!(out.len() >= (rows - 1) * w + cols && b.len() >= (k - 1) * w + cols);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: this tier is only selected after runtime detection proved
        // AVX2 is available on this CPU, and the asserts above are the
        // bounds the kernel's contract names.
        Tier::Avx2 => unsafe {
            match rows {
                1 => gf2_16_panel_avx2::<1>(out, tables, b, k, w, cols),
                2 => gf2_16_panel_avx2::<2>(out, tables, b, k, w, cols),
                3 => gf2_16_panel_avx2::<3>(out, tables, b, k, w, cols),
                _ => gf2_16_panel_avx2::<4>(out, tables, b, k, w, cols),
            }
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: this tier is only selected after runtime detection proved
        // SSSE3 is available on this CPU, and the asserts above are the
        // bounds the kernel's contract names.
        Tier::Ssse3 => unsafe {
            match rows {
                1 => gf2_16_panel_ssse3::<1>(out, tables, b, k, w, cols),
                2 => gf2_16_panel_ssse3::<2>(out, tables, b, k, w, cols),
                3 => gf2_16_panel_ssse3::<3>(out, tables, b, k, w, cols),
                _ => gf2_16_panel_ssse3::<4>(out, tables, b, k, w, cols),
            }
        },
        _ => unreachable!("the portable tier takes no vector columns"), // nab-lint: allow(NAB003): gf2_16_vector_cols gives this tier zero columns, so no caller reaches the panel with it
    }
}

/// `out ^= a · b` over `GF(2^16)`: `out` is `m × w`, `a` `m × k`, `b`
/// `k × w`, all row-major. Tables are built once per coefficient of `a`;
/// each [`MR`]-row panel of `out` streams through `b` once.
pub(crate) fn gf2_16_gemm_acc(
    out: &mut [Gf2_16],
    a: &[Gf2_16],
    b: &[Gf2_16],
    m: usize,
    k: usize,
    w: usize,
) {
    gf2_16_gemm_acc_on(tier_enum(), out, a, b, m, k, w);
}

fn gf2_16_gemm_acc_on(
    tier: Tier,
    out: &mut [Gf2_16],
    a: &[Gf2_16],
    b: &[Gf2_16],
    m: usize,
    k: usize,
    w: usize,
) {
    assert_eq!((out.len(), a.len(), b.len()), (m * w, m * k, k * w));
    if k == 0 || w == 0 {
        return;
    }
    let cols = gf2_16_vector_cols(tier, w);
    if cols > 0 {
        let mut tables = Vec::with_capacity(MR.min(m) * k);
        for (panel, coeffs) in out.chunks_mut(MR * w).zip(a.chunks(MR * k)) {
            tables.clear();
            tables.extend(coeffs.iter().map(|&s| NibbleTables::new(s)));
            gf2_16_panel(tier, panel, &tables, b, k, w, cols);
        }
    }
    if cols < w {
        for (orow, arow) in out.chunks_exact_mut(w).zip(a.chunks_exact(k)) {
            for (brow, &s) in b.chunks_exact(w).zip(arow) {
                if s.0 != 0 {
                    crate::gf2m::mul_row_add_log16(&mut orow[cols..], &brow[cols..], s);
                }
            }
        }
    }
}

/// `dst[i] ^= s · src[i]` over `GF(2^16)` — the 1×1 case of the GEMM
/// micro-kernel, with its one table on the stack.
///
/// Caller guarantees `s != 0` and equal lengths.
pub(crate) fn gf2_16_mul_row_add(dst: &mut [Gf2_16], src: &[Gf2_16], s: Gf2_16) {
    debug_assert_eq!(dst.len(), src.len());
    let (tier, w) = (tier_enum(), dst.len());
    let cols = gf2_16_vector_cols(tier, w);
    if cols > 0 {
        gf2_16_panel(tier, dst, &[NibbleTables::new(s)], src, 1, w, cols);
    }
    if cols < w {
        crate::gf2m::mul_row_add_log16(&mut dst[cols..], &src[cols..], s);
    }
}

/// `a == b`, decided by one `memcmp` over the symbol storage instead of
/// the derived element-by-element loop (21× on a 65536-symbol payload,
/// and a libc call's speed does not move with the caller's code
/// placement).
pub fn gf2_16_slices_eq(a: &[Gf2_16], b: &[Gf2_16]) -> bool {
    fn raw(s: &[Gf2_16]) -> &[u16] {
        // SAFETY: `Gf2_16` is `repr(transparent)` over `u16`, so a slice
        // of `n` symbols is `n` initialised `u16`s at the same address
        // with the same alignment, borrowed for the same lifetime.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u16>(), s.len()) }
    }
    // `[u16] == [u16]` is std's bytewise specialisation.
    raw(a) == raw(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tier_is_a_known_name_and_stable() {
        let t = tier();
        assert!(["avx2", "ssse3", "portable"].contains(&t), "{t}");
        assert_eq!(tier(), t, "tier is decided once");
    }

    #[test]
    fn cpu_features_is_nonempty_and_consistent_with_tier() {
        let f = cpu_features();
        assert!(!f.is_empty());
        match tier() {
            "avx2" => assert!(f.contains("avx2"), "{f}"),
            "ssse3" => assert!(f.contains("ssse3"), "{f}"),
            _ => {}
        }
    }

    /// Every tier this CPU can run, called directly rather than through
    /// the once-per-process detection.
    fn runnable_tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                tiers.push(Tier::Ssse3);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
        }
        tiers
    }

    #[test]
    fn nibble_tables_hold_the_field_products() {
        for s in [0u16, 1, 2, 0x100, 0x8000, 0xABCD, 0xFFFF] {
            let t = NibbleTables::new(Gf2_16(s));
            for q in 0..4 {
                for n in 0..16u16 {
                    let p = Gf2_16(s).mul(Gf2_16(n << (4 * q))).0;
                    let got = u16::from(t.lo[q][n as usize]) | u16::from(t.hi[q][n as usize]) << 8;
                    assert_eq!(got, p, "s={s:#x} q={q} n={n}");
                }
            }
        }
    }

    #[test]
    fn gf2_16_gemm_matches_matrix_mul_on_every_tier_at_awkward_shapes() {
        use crate::matrix::Matrix;
        use crate::words::WordMatrix;
        let mut rng = StdRng::seed_from_u64(0x51E);
        for tier in runnable_tiers() {
            for w in [0usize, 1, 31, 32, 63, 64, 1024 + 37] {
                for m in [1usize, 3, 4, 5, 9] {
                    for k in [1usize, 20] {
                        let b = Matrix::<Gf2_16>::random(k, w, &mut rng);
                        let base = Matrix::<Gf2_16>::random(m, w, &mut rng);
                        let random = Matrix::<Gf2_16>::random(m, k, &mut rng);
                        // Random coefficients, then the same with zeros and
                        // ones planted, then an all-zero `a`.
                        let planted = Matrix::from_fn(m, k, |r, c| match (r + c) % 3 {
                            0 => Gf2_16(0),
                            1 => Gf2_16(1),
                            _ => random[(r, c)],
                        });
                        for a in [random, planted, Matrix::zero(m, k)] {
                            let flat =
                                |x: &Matrix<Gf2_16>| WordMatrix::from_matrix(x).as_slice().to_vec();
                            let mut out = flat(&base);
                            gf2_16_gemm_acc_on(tier, &mut out, &flat(&a), &flat(&b), m, k, w);
                            let want = flat(&base.add(&a.mul(&b)));
                            assert_eq!(out, want, "{tier:?} m={m} k={k} w={w}");
                        }
                    }
                }
            }
        }
    }
}
