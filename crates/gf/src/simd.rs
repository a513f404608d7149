//! The arch-SIMD `GF(2^16)` GEMM micro-kernel, in three tiers.
//!
//! `GF(2^m)` multiplication by a fixed scalar `s` is `GF(2)`-linear in the
//! operand, and both vector tiers are ways of applying that linear map to
//! a whole vector of operands at once, after splitting the 16-bit symbols
//! into a vector of low bytes and a vector of high bytes:
//!
//! - **`gfni`** (`GFNI` + `AVX-512F/BW`, 64 symbols per step). The map is
//!   a 16 × 16 bit-matrix, i.e. four 8 × 8 blocks `M_ll, M_lh, M_hl, M_hh`
//!   (product byte ← operand byte), and `GF2P8AFFINEQB` multiplies 64 bytes
//!   by one 8 × 8 bit-matrix: `lo ^= M_ll·lob ^ M_lh·hib`,
//!   `hi ^= M_hl·lob ^ M_hh·hib` — four affine instructions and two
//!   three-way XORs per output row and block. Multiplication is linear in
//!   `s` as well, so a coefficient's four matrices are the XOR of the
//!   precomputed matrices of its set bits (`AffineTables`).
//! - **`avx2`** (32 symbols per step). The map splits over the operand's
//!   four nibbles, `s·x = Σ_q s·(nibble_q(x) << 4q)`; a nibble has 16
//!   values and a 16-entry byte table is exactly one `PSHUFB` register, so
//!   a row costs eight shuffles and XORs per block (`NibbleTables`) — the
//!   classic SIMD erasure-coding kernel (ISA-L, klauspost/reedsolomon).
//! - **`portable`**: the log-domain loop (the only tier non-x86 builds
//!   compile).
//!
//! There is one kernel per vector tier, `out ^= a·b`: tables are built once
//! per coefficient of `a` (each tier builds only its own kind), each source
//! block is split into its byte planes once, and up to four output rows
//! accumulate in registers across the whole inner dimension; the row
//! kernel `dst ^= s·src` is its 1×1 case.
//!
//! The tier is picked **once per process** by runtime CPU-feature
//! detection ([`tier`]); nothing else selects it. Every tier is
//! **bit-identical**: characteristic-2 addition is XOR, so vectorization
//! changes neither values nor any accumulation result. This module's tests
//! pin every tier the CPU can run against [`crate::kernel::scalar_gemm_acc`]
//! and both table kinds against the field's own product on every machine;
//! `tests/differential.rs` pins the detected tier through the public
//! entry points.

#![expect(unsafe_code, reason = "the workspace's one audited `unsafe` module")]

use std::sync::OnceLock;

use crate::gf2m::Gf2_16;

/// Rows shorter than this (in elements) skip the SIMD dispatch: below a
/// couple of vectors the table-build and tail handling dominate, and the
/// log-domain loop is already fast.
pub const SIMD_THRESHOLD: usize = 64;

/// The kernel tier selected for this process.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Tier {
    Gfni,
    Avx2,
    Portable,
}

/// Whether this CPU can run `tier`'s kernel.
fn runnable(tier: Tier) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        match tier {
            Tier::Gfni => has!("gfni") && has!("avx512f") && has!("avx512bw"),
            Tier::Avx2 => has!("avx2"),
            Tier::Portable => true,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        tier == Tier::Portable
    }
}

fn tier_enum() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        [Tier::Gfni, Tier::Avx2]
            .into_iter()
            .find(|&t| runnable(t))
            .unwrap_or(Tier::Portable)
    })
}

/// The selected SIMD tier name: `"gfni"`, `"avx2"`, or `"portable"`.
/// Decided once at first use from runtime CPU-feature detection.
pub fn tier() -> &'static str {
    match tier_enum() {
        Tier::Gfni => "gfni",
        Tier::Avx2 => "avx2",
        Tier::Portable => "portable",
    }
}

/// Comma-joined list of the detected CPU features relevant to the GF
/// kernels (e.g. `"sse2,ssse3,avx,avx2"`), or `"none"` when no candidate
/// feature is present (including non-x86 builds). Recorded in every
/// benchmark record and the sweep-start trace event so numbers from
/// different machines stay comparable.
pub fn cpu_features() -> &'static str {
    static FEATURES: OnceLock<String> = OnceLock::new();
    FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let found: Vec<&str> = {
            macro_rules! detected {
                ($($feature:tt),*) => {
                    [$(($feature, std::arch::is_x86_feature_detected!($feature))),*]
                };
            }
            detected!("sse2", "ssse3", "avx", "avx2", "avx512f", "avx512bw", "gfni")
                .into_iter()
                .filter_map(|(name, on)| on.then_some(name))
                .collect()
        };
        #[cfg(not(target_arch = "x86_64"))]
        let found: Vec<&str> = Vec::new();
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
    //! the caller checked the CPU feature at runtime (the safe wrappers
    //! in the parent module assert it), and all loads/stores are unaligned
    //! (`loadu`/`storeu`) so no alignment obligations exist.
    //!
    //! Both kernels share one data flow. Per block of operands (two
    //! vectors of u16): deinterleave into a low-byte vector and a high-byte
    //! vector with PACKUSWB (exact — inputs are pre-masked to ≤ 255, so
    //! saturation never fires), once per source row. Each of the `R` output
    //! rows then multiplies the two byte planes into its own pair of
    //! byte-plane accumulators, which stay in registers across the whole
    //! `k` loop and are re-interleaved with PUNPCKL/HBW only when stored.
    //! Both pack and unpack operate per 128-bit lane, so the lane
    //! permutation pack introduces is exactly undone by unpack and products
    //! land back on their operands (`unpacklo` covers the block's first
    //! vector of columns, `unpackhi` its second).
    use super::*;
    use std::arch::x86_64::*;

    /// `out[r][j] ^= Σ_kk tables[r·k + kk] · b[kk][j]` for `r < R` and
    /// `j < cols`, 32 columns per step; `out` and `b` have row stride `w`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `cols` a multiple of 32, `out` must hold
    /// `(R − 1)·w + cols` elements, `b` `(k − 1)·w + cols`, and `tables`
    /// `R·k` entries ([`super::gf2_16_panel_avx2`] asserts all of it).
    // SAFETY: every load and store below is unaligned and inside the
    // bounds the contract above names.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gf2_16_kernel_avx2<const R: usize>(
        out: &mut [Gf2_16],
        tables: &[NibbleTables],
        b: &[Gf2_16],
        k: usize,
        w: usize,
        cols: usize,
    ) {
        // SAFETY: a 16-byte unaligned load of a 16-byte array.
        let table = |t: &[u8; 16]| unsafe {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i))
        };
        let nib = _mm256_set1_epi8(0x0F);
        let byte = _mm256_set1_epi16(0x00FF);
        // `Gf2_16` is repr(transparent) over u16, so the slabs
        // reinterpret as raw u16 (little-endian byte pairs).
        let (bp, op) = (b.as_ptr(), out.as_mut_ptr());
        for j in (0..cols).step_by(32) {
            let mut lo = [_mm256_setzero_si256(); R];
            let mut hi = [_mm256_setzero_si256(); R];
            for kk in 0..k {
                let sp = bp.add(kk * w + j) as *const __m256i;
                let (v0, v1) = (_mm256_loadu_si256(sp), _mm256_loadu_si256(sp.add(1)));
                let lob =
                    _mm256_packus_epi16(_mm256_and_si256(v0, byte), _mm256_and_si256(v1, byte));
                let hib =
                    _mm256_packus_epi16(_mm256_srli_epi16::<8>(v0), _mm256_srli_epi16::<8>(v1));
                let planes = [
                    _mm256_and_si256(lob, nib),
                    _mm256_and_si256(_mm256_srli_epi64::<4>(lob), nib),
                    _mm256_and_si256(hib, nib),
                    _mm256_and_si256(_mm256_srli_epi64::<4>(hib), nib),
                ];
                for r in 0..R {
                    let t = &tables[r * k + kk];
                    for (q, &plane) in planes.iter().enumerate() {
                        lo[r] =
                            _mm256_xor_si256(lo[r], _mm256_shuffle_epi8(table(&t.lo[q]), plane));
                        hi[r] =
                            _mm256_xor_si256(hi[r], _mm256_shuffle_epi8(table(&t.hi[q]), plane));
                    }
                }
            }
            for r in 0..R {
                let dp = op.add(r * w + j) as *mut __m256i;
                let (y0, y1) = (
                    _mm256_unpacklo_epi8(lo[r], hi[r]),
                    _mm256_unpackhi_epi8(lo[r], hi[r]),
                );
                _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), y0));
                _mm256_storeu_si256(
                    dp.add(1),
                    _mm256_xor_si256(_mm256_loadu_si256(dp.add(1)), y1),
                );
            }
        }
    }

    /// `out[r][j] ^= Σ_kk tables[r·k + kk] · b[kk][j]` for `r < R` and
    /// `j < cols`, 64 columns per step; `out` and `b` have row stride `w`.
    /// Any `cols` is taken: the last block's loads and stores are masked
    /// to the columns that exist.
    ///
    /// # Safety
    ///
    /// GFNI, AVX-512F and AVX-512BW must be available, `out` must hold
    /// `(R − 1)·w + cols` elements, `b` `(k − 1)·w + cols`, and `tables`
    /// `R·k` entries ([`super::gf2_16_panel_gfni`] asserts all of it).
    // SAFETY: every load and store below is unaligned and masked to the
    // bounds the contract above names (a masked-off lane is not accessed,
    // and its address is formed with wrapping arithmetic).
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn gf2_16_kernel_gfni<const R: usize>(
        out: &mut [Gf2_16],
        tables: &[AffineTables],
        b: &[Gf2_16],
        k: usize,
        w: usize,
        cols: usize,
    ) {
        let byte = _mm512_set1_epi16(0x00FF);
        let (bp, op) = (b.as_ptr() as *const i16, out.as_mut_ptr() as *mut i16);
        for j in (0..cols).step_by(64) {
            // Lane masks of the block's two 32-symbol vectors.
            let left = (cols - j).min(64);
            let m0: __mmask32 = (!0u32) >> (32 - left.min(32));
            let m1: __mmask32 = ((1u64 << (left - left.min(32))) - 1) as u32;
            let mut lo = [_mm512_setzero_si512(); R];
            let mut hi = [_mm512_setzero_si512(); R];
            for kk in 0..k {
                let sp = bp.wrapping_add(kk * w + j);
                let v0 = _mm512_maskz_loadu_epi16(m0, sp);
                let v1 = _mm512_maskz_loadu_epi16(m1, sp.wrapping_add(32));
                let lob =
                    _mm512_packus_epi16(_mm512_and_si512(v0, byte), _mm512_and_si512(v1, byte));
                let hib =
                    _mm512_packus_epi16(_mm512_srli_epi16::<8>(v0), _mm512_srli_epi16::<8>(v1));
                for r in 0..R {
                    let [ll, lh, hl, hh] =
                        tables[r * k + kk].0.map(|m| _mm512_set1_epi64(m as i64));
                    lo[r] = _mm512_ternarylogic_epi32::<0x96>(
                        lo[r],
                        _mm512_gf2p8affine_epi64_epi8::<0>(lob, ll),
                        _mm512_gf2p8affine_epi64_epi8::<0>(hib, lh),
                    );
                    hi[r] = _mm512_ternarylogic_epi32::<0x96>(
                        hi[r],
                        _mm512_gf2p8affine_epi64_epi8::<0>(lob, hl),
                        _mm512_gf2p8affine_epi64_epi8::<0>(hib, hh),
                    );
                }
            }
            for r in 0..R {
                let dp = op.wrapping_add(r * w + j);
                let (y0, y1) = (
                    _mm512_unpacklo_epi8(lo[r], hi[r]),
                    _mm512_unpackhi_epi8(lo[r], hi[r]),
                );
                let (d0, d1) = (dp, dp.wrapping_add(32));
                _mm512_mask_storeu_epi16(
                    d0,
                    m0,
                    _mm512_xor_si512(_mm512_maskz_loadu_epi16(m0, d0), y0),
                );
                _mm512_mask_storeu_epi16(
                    d1,
                    m1,
                    _mm512_xor_si512(_mm512_maskz_loadu_epi16(m1, d1), y1),
                );
            }
        }
    }
}

/// Output rows one micro-kernel pass accumulates in registers.
#[cfg(target_arch = "x86_64")]
const MR: usize = 4;

/// The `avx2` tier's tables of one `GF(2^16)` coefficient `s`:
/// `T_q[n] = s·(n << 4q)` for the four nibbles `q` of a 16-bit operand,
/// each split into its low and high product byte — eight 16-byte `PSHUFB`
/// registers; `s·x` is the XOR of the four lookups.
#[cfg(any(target_arch = "x86_64", test))]
struct NibbleTables {
    lo: [[u8; 16]; 4],
    hi: [[u8; 16]; 4],
}

#[cfg(any(target_arch = "x86_64", test))]
impl NibbleTables {
    /// Multiplication by `s` is `GF(2)`-linear, so sixteen doublings give
    /// `s·2^b` and every table entry is the XOR of its set bits' products —
    /// no log/exp lookups.
    fn new(s: Gf2_16) -> Self {
        let pow = doublings(s.0);
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

/// `s·2^j` for `j < 16`, by doubling modulo the field polynomial.
#[cfg(any(target_arch = "x86_64", test))]
const fn doublings(s: u16) -> [u16; 16] {
    let mut pow = [0u16; 16];
    let mut p = s as u32;
    let mut j = 0;
    while j < 16 {
        pow[j] = p as u16;
        p <<= 1;
        if p & 0x1_0000 != 0 {
            p ^= crate::gf2m::GF2_16_MODULUS;
        }
        j += 1;
    }
    pow
}

/// The `gfni` tier's tables of one `GF(2^16)` coefficient `s`: the
/// 16 × 16 bit-matrix of `x ↦ s·x` as four 8 × 8 blocks in the order
/// `[M_ll, M_lh, M_hl, M_hh]` (first letter: product byte, second: operand
/// byte), each in `GF2P8AFFINEQB`'s operand layout — the matrix row that
/// produces result bit `i` is byte `7 − i` of the `u64`, and bit `j` of
/// that row multiplies operand bit `j`.
#[cfg(any(target_arch = "x86_64", test))]
struct AffineTables([u64; 4]);

/// [`AffineTables`] of the sixteen basis coefficients `2^b`.
#[cfg(any(target_arch = "x86_64", test))]
const AFFINE_BASIS: [[u64; 4]; 16] = {
    let mut basis = [[0u64; 4]; 16];
    let mut b = 0;
    while b < 16 {
        // Column `j` of the bit-matrix is the product `2^b · 2^j`.
        let pow = doublings(1 << b);
        let mut j = 0;
        while j < 16 {
            let mut i = 0;
            while i < 16 {
                if pow[j] >> i & 1 != 0 {
                    basis[b][(i / 8) * 2 + j / 8] |= 1 << ((7 - i % 8) * 8 + j % 8);
                }
                i += 1;
            }
            j += 1;
        }
        b += 1;
    }
    basis
};

#[cfg(any(target_arch = "x86_64", test))]
impl AffineTables {
    /// Multiplication is linear in the coefficient too, so the matrices of
    /// `s` are the XOR of the basis matrices of its set bits — this sits on
    /// the GEMM's critical path (a coefficient's tables serve one row of
    /// `b` only), hence no per-bit loop over the 4 × 8 × 8 entries.
    fn new(s: Gf2_16) -> Self {
        let mut m = [0u64; 4];
        let mut bits = s.0;
        while bits != 0 {
            let basis = &AFFINE_BASIS[bits.trailing_zeros() as usize];
            for (acc, block) in m.iter_mut().zip(basis) {
                *acc ^= block;
            }
            bits &= bits - 1;
        }
        AffineTables(m)
    }
}

/// How many leading columns of a `w`-wide row `tier`'s micro-kernel takes:
/// none of a row under [`SIMD_THRESHOLD`], else every column on `gfni`
/// (its last block is masked) and the whole 32-column blocks on `avx2`.
/// The rest — every column on the portable tier — goes through the
/// log-domain loop.
fn gf2_16_vector_cols(tier: Tier, w: usize) -> usize {
    match tier {
        _ if w < SIMD_THRESHOLD => 0,
        Tier::Gfni => w,
        Tier::Avx2 => w - w % 32,
        Tier::Portable => 0,
    }
}

/// Checks one micro-kernel call — `out[r][j] ^= Σ_kk tables[r·k + kk] ·
/// b[kk][j]` over `cols` columns of `out` and `b`, row-major of stride `w`
/// — against the bounds the kernels' contracts name, and returns its row
/// count `tables / k ≤ MR`.
#[cfg(target_arch = "x86_64")]
fn panel_rows(
    tier: Tier,
    out: usize,
    tables: usize,
    b: usize,
    k: usize,
    w: usize,
    cols: usize,
) -> usize {
    assert!(runnable(tier), "{tier:?} kernel on a CPU without it");
    assert!(k >= 1 && cols <= w);
    let rows = tables / k;
    assert!((1..=MR).contains(&rows) && tables == rows * k);
    assert_eq!(cols, gf2_16_vector_cols(tier, cols), "cols the tier takes");
    assert!(out >= (rows - 1) * w + cols && b >= (k - 1) * w + cols);
    rows
}

/// Runs the `avx2` micro-kernel on one panel of `tables.len() / k ≤ MR`
/// rows.
#[cfg(target_arch = "x86_64")]
fn gf2_16_panel_avx2(
    out: &mut [Gf2_16],
    tables: &[NibbleTables],
    b: &[Gf2_16],
    k: usize,
    w: usize,
    cols: usize,
) {
    let rows = panel_rows(Tier::Avx2, out.len(), tables.len(), b.len(), k, w, cols);
    // SAFETY: `panel_rows` asserted that runtime detection finds AVX2 on
    // this CPU and the bounds the kernel's contract names.
    unsafe {
        match rows {
            1 => x86::gf2_16_kernel_avx2::<1>(out, tables, b, k, w, cols),
            2 => x86::gf2_16_kernel_avx2::<2>(out, tables, b, k, w, cols),
            3 => x86::gf2_16_kernel_avx2::<3>(out, tables, b, k, w, cols),
            _ => x86::gf2_16_kernel_avx2::<4>(out, tables, b, k, w, cols),
        }
    }
}

/// Runs the `gfni` micro-kernel on one panel of `tables.len() / k ≤ MR`
/// rows.
#[cfg(target_arch = "x86_64")]
fn gf2_16_panel_gfni(
    out: &mut [Gf2_16],
    tables: &[AffineTables],
    b: &[Gf2_16],
    k: usize,
    w: usize,
    cols: usize,
) {
    let rows = panel_rows(Tier::Gfni, out.len(), tables.len(), b.len(), k, w, cols);
    // SAFETY: `panel_rows` asserted that runtime detection finds GFNI,
    // AVX-512F and AVX-512BW on this CPU and the bounds the kernel's
    // contract names.
    unsafe {
        match rows {
            1 => x86::gf2_16_kernel_gfni::<1>(out, tables, b, k, w, cols),
            2 => x86::gf2_16_kernel_gfni::<2>(out, tables, b, k, w, cols),
            3 => x86::gf2_16_kernel_gfni::<3>(out, tables, b, k, w, cols),
            _ => x86::gf2_16_kernel_gfni::<4>(out, tables, b, k, w, cols),
        }
    }
}

/// A tier's safe micro-kernel entry: `(out, tables, b, k, w, cols)`.
#[cfg(target_arch = "x86_64")]
type Panel<T> = fn(&mut [Gf2_16], &[T], &[Gf2_16], usize, usize, usize);

/// The vector columns of `out ^= a · b`, one [`MR`]-row panel at a time:
/// `table` builds the tier's tables once per coefficient of the panel,
/// `panel` streams the panel through `b` once.
#[cfg(target_arch = "x86_64")]
#[expect(
    clippy::too_many_arguments,
    reason = "the GEMM's operands plus the tier's two functions"
)]
fn gf2_16_panels<T>(
    out: &mut [Gf2_16],
    a: &[Gf2_16],
    b: &[Gf2_16],
    k: usize,
    w: usize,
    cols: usize,
    table: fn(Gf2_16) -> T,
    panel: Panel<T>,
) {
    let mut tables = Vec::with_capacity(MR.min(out.len() / w) * k);
    for (rows, coeffs) in out.chunks_mut(MR * w).zip(a.chunks(MR * k)) {
        tables.clear();
        tables.extend(coeffs.iter().map(|&s| table(s)));
        panel(rows, &tables, b, k, w, cols);
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
    assert_eq!(
        (out.len(), a.len(), b.len()),
        (m * w, m * k, k * w),
        "gemm_acc length mismatch for an {m}x{k} by {k}x{w} product"
    );
    if k == 0 || w == 0 {
        return;
    }
    let cols = gf2_16_vector_cols(tier, w);
    if cols > 0 {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Gfni => {
                gf2_16_panels(out, a, b, k, w, cols, AffineTables::new, gf2_16_panel_gfni)
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                gf2_16_panels(out, a, b, k, w, cols, NibbleTables::new, gf2_16_panel_avx2)
            }
            #[expect(
                clippy::unreachable,
                reason = "gf2_16_vector_cols gives this tier zero columns"
            )]
            _ => unreachable!("the portable tier takes no vector columns"),
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
        assert!(["gfni", "avx2", "portable"].contains(&t), "{t}");
        assert_eq!(tier(), t, "tier is decided once");
    }

    #[test]
    fn cpu_features_is_nonempty_and_consistent_with_tier() {
        let f = cpu_features();
        assert!(!f.is_empty());
        let needs: &[&str] = match tier() {
            "gfni" => &["gfni", "avx512f", "avx512bw"],
            "avx2" => &["avx2"],
            _ => &[],
        };
        for feature in needs {
            assert!(f.split(',').any(|x| x == *feature), "{feature} in {f}");
        }
    }

    /// Every tier this CPU can run, called directly rather than through
    /// the once-per-process detection.
    fn runnable_tiers() -> Vec<Tier> {
        [Tier::Portable, Tier::Avx2, Tier::Gfni]
            .into_iter()
            .filter(|&t| runnable(t))
            .collect()
    }

    /// CI runs this one with `--nocapture`, so a green log says which
    /// kernels the GEMM tests below executed on that runner — on a CPU
    /// without GFNI only the `gfni` tier's emulated tables were pinned.
    #[test]
    fn report_the_tiers_this_cpu_pins() {
        let tiers = runnable_tiers();
        println!(
            "nab-gf kernels: tier() = {}, cpu_features() = {}, runnable_tiers() = {tiers:?}",
            tier(),
            cpu_features()
        );
        assert!(tiers.contains(&tier_enum()));
    }

    /// A measurement, not a check: each runnable tier's multiplies per
    /// nanosecond at the equality check's shapes `(m, k, w)` — one edge
    /// and every edge of K5 and K7 at 65,536 symbols. It is where the
    /// per-tier table in `docs/perf.md` comes from:
    /// `cargo test -p nab-gf --release --lib -- --ignored --nocapture tier_throughput`.
    #[test]
    #[ignore = "prints a timing table; nothing to assert"]
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock measurement by design; it reaches no output but this test's"
    )]
    fn tier_throughput_at_the_engine_shapes() {
        use crate::matrix::Matrix;
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, w) in [(4, 12, 5462), (40, 6, 10923), (168, 12, 5462)] {
            let a = Matrix::<Gf2_16>::random(m, k, &mut rng);
            let b = Matrix::<Gf2_16>::random(k, w, &mut rng);
            let mut out = vec![Gf2_16(0); m * w];
            for tier in runnable_tiers() {
                let reps = if tier == Tier::Portable { 3 } else { 40 };
                let best = (0..reps)
                    .map(|_| {
                        let t0 = std::time::Instant::now();
                        gf2_16_gemm_acc_on(tier, &mut out, a.as_slice(), b.as_slice(), m, k, w);
                        t0.elapsed().as_nanos()
                    })
                    .min()
                    .unwrap();
                let rate = (m * k * w) as f64 / best as f64;
                println!("({m}, {k}, {w}) {tier:?}: {rate:.1} multiplies/ns ({best} ns)");
            }
        }
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

    /// `GF2P8AFFINEQB` on one byte, by its definition: result bit `i` is
    /// the parity of matrix byte `7 − i` ANDed with the operand.
    fn affine_emulated(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0, |y, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            y | ((row & x).count_ones() as u8 & 1) << i
        })
    }

    #[test]
    fn affine_tables_hold_the_field_products_under_the_instruction_s_convention() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xAFF1);
        let coefficients: Vec<u16> = (0..16)
            .map(|b| 1u16 << b)
            .chain([0, 0xABCD, 0xFFFF])
            .chain((0..300).map(|_| rng.gen::<u64>() as u16))
            .collect();
        for s in coefficients {
            let AffineTables([ll, lh, hl, hh]) = AffineTables::new(Gf2_16(s));
            // Every operand byte in either half, then mixed operands.
            let operands = (0..=255u16)
                .flat_map(|x| [x, x << 8])
                .chain((0..64).map(|_| rng.gen::<u64>() as u16));
            for x in operands {
                let (lob, hib) = (x as u8, (x >> 8) as u8);
                let lo = affine_emulated(ll, lob) ^ affine_emulated(lh, hib);
                let hi = affine_emulated(hl, lob) ^ affine_emulated(hh, hib);
                let want = Gf2_16(s).mul(Gf2_16(x)).0;
                assert_eq!(
                    u16::from(lo) | u16::from(hi) << 8,
                    want,
                    "s={s:#x} x={x:#x}"
                );
            }
        }
    }

    #[test]
    fn gf2_16_gemm_matches_the_scalar_gemm_on_every_tier_at_awkward_shapes() {
        use crate::kernel::scalar_gemm_acc;
        use crate::matrix::Matrix;
        let mut rng = StdRng::seed_from_u64(0x51E);
        for tier in runnable_tiers() {
            // Both sides of the 32- and 64-symbol blocks, then one
            // stacked shape (every edge of K7 at capacity 4, ρ = 12).
            let awkward = [0usize, 1, 31, 32, 63, 64, 65, 127, 128, 129, 1024 + 37]
                .into_iter()
                .flat_map(|w| [1usize, 3, 4, 5, 9].map(|m| (w, m)))
                .flat_map(|(w, m)| [1usize, 20].map(|k| (w, m, k)));
            for (w, m, k) in awkward.chain([(128 + 22, 168, 12)]) {
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
                    let mut out = base.as_slice().to_vec();
                    gf2_16_gemm_acc_on(tier, &mut out, a.as_slice(), b.as_slice(), m, k, w);
                    let mut want = base.as_slice().to_vec();
                    scalar_gemm_acc(&mut want, a.as_slice(), b.as_slice(), m, k, w);
                    assert_eq!(out, want, "{tier:?} m={m} k={k} w={w}");
                }
            }
        }
    }
}
