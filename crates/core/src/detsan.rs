//! DetSan — the runtime determinism checks: phase digests and invariants.
//!
//! The static lints (`clippy.toml`, `docs/lint.md`) keep nondeterminism
//! *sources* out of the code; DetSan checks the *effects* at runtime. In
//! every traced run the engine digests its canonical state at each
//! protocol phase boundary (FNV over a fixed serialization order), and
//! the phase's [`PhaseSpan::close`] emits the digest as an
//! [`EventKind::DetSanDigest`] trace event right after its `PhaseEnd`.
//! Two runs of the same configuration must produce identical digest
//! sequences; diffing two traces pinpoints the first phase where
//! determinism broke. An untraced run never computes a digest.
//!
//! The invariants the optimized paths rely on — packing validity after a
//! `G_k` replan, histogram merge commutativity — are re-verified on the
//! spot in every debug build. Canonical outputs are unaffected either way.
//!
//! [`PhaseSpan::close`]: nab_obs::trace::PhaseSpan::close
//! [`EventKind::DetSanDigest`]: nab_obs::trace::EventKind::DetSanDigest

use std::collections::BTreeMap;

use nab_gf::Gf2_16;
use nab_netgraph::NodeId;

use crate::dispute::DisputeState;
use crate::value::Value;

/// FNV's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Absorbs `words` into the FNV state `h`, one word per step: xor it in,
/// multiply by the prime. FNV is used (rather than `DefaultHasher`)
/// because its output is specified: digests must be stable across Rust
/// versions and platforms so that traces from different builds are
/// diffable.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Digest of a symbol payload, four symbols (one little-endian `u64`) a
/// step. Whole 16-symbol blocks run on four interleaved lanes, so their
/// steps overlap instead of waiting on one multiply chain; then the lanes
/// and the tail (its last word zero-padded) are absorbed in order.
fn digest_symbols(symbols: &[Gf2_16]) -> u64 {
    let word = |four: &[Gf2_16]| four.iter().rev().fold(0, |w, s| w << 16 | u64::from(s.0));
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = symbols.chunks_exact(16);
    for block in &mut blocks {
        for (lane, four) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = fnv(*lane, [word(four)]);
        }
    }
    let tail = blocks.remainder().chunks(4).map(word);
    fnv(FNV_OFFSET, lanes.into_iter().chain(tail))
}

/// Digest of per-node values (Phase 1 output / instance outputs).
///
/// `BTreeMap` iteration is ordered, so the serialization order is fixed:
/// `(node, len, digest of the symbols)` per entry. The symbols' digest is
/// a function of their content alone, computed once per distinct
/// allocation: fault-free holders share the source's storage, so a
/// fault-free instance hashes its payload once, and two maps that share
/// storage differently digest equally.
pub fn digest_values(values: &BTreeMap<NodeId, Value>) -> u64 {
    let mut seen: Vec<(&[Gf2_16], u64)> = Vec::new();
    let mut h = fnv(FNV_OFFSET, [values.len() as u64]);
    for (&v, val) in values {
        let symbols = val.symbols();
        let content = match seen.iter().find(|(s, _)| std::ptr::eq(*s, symbols)) {
            Some(&(_, d)) => d,
            None => {
                let d = digest_symbols(symbols);
                seen.push((symbols, d));
                d
            }
        };
        h = fnv(h, [v as u64, symbols.len() as u64, content]);
    }
    h
}

/// Digest of per-node equality flags (Phase 2 output).
pub fn digest_flags(flags: &BTreeMap<NodeId, bool>) -> u64 {
    let entries = flags.iter().flat_map(|(&v, &f)| [v as u64, u64::from(f)]);
    fnv(fnv(FNV_OFFSET, [flags.len() as u64]), entries)
}

/// Digest of the dispute state (Phase 3 output): all pairs, then all
/// removed nodes, in their `BTreeSet` order.
pub fn digest_disputes(disputes: &DisputeState) -> u64 {
    let (pairs, removed) = (&disputes.pairs, &disputes.removed);
    let h = fnv(FNV_OFFSET, [pairs.len() as u64]);
    let h = fnv(h, pairs.iter().flat_map(|&(a, b)| [a as u64, b as u64]));
    let h = fnv(h, [removed.len() as u64]);
    fnv(h, removed.iter().map(|&v| v as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // A one-byte word takes FNV-1a's standard step: "a" hashes as usual.
        assert_eq!(fnv(FNV_OFFSET, []), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(FNV_OFFSET, [u64::from(b'a')]), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn value_digest_is_order_and_content_sensitive() {
        let mut a = BTreeMap::new();
        a.insert(0, Value::from_u64s(&[1, 2, 3]));
        a.insert(1, Value::from_u64s(&[4, 5, 6]));
        let mut b = a.clone();
        assert_eq!(digest_values(&a), digest_values(&b));
        b.insert(1, Value::from_u64s(&[4, 5, 7]));
        assert_ne!(digest_values(&a), digest_values(&b));
    }

    #[test]
    fn value_digest_is_defined_by_content_not_by_sharing() {
        // Two 16-symbol blocks and a tail of five.
        let source = Value::from_u64s(&(0..37).collect::<Vec<_>>());
        let shared: BTreeMap<_, _> = (0..4).map(|v| (v, source.clone())).collect();
        let copies: BTreeMap<_, _> = (0..4)
            .map(|v| (v, Value::from_symbols(source.symbols().to_vec())))
            .collect();
        assert_eq!(digest_values(&shared), digest_values(&copies));
        // Every symbol counts: one in a lane, the zero-padded tail's last.
        for i in [5, 36] {
            let mut symbols = source.symbols().to_vec();
            symbols[i] = Gf2_16(1);
            let mut changed = shared.clone();
            changed.insert(3, Value::from_symbols(symbols));
            assert_ne!(digest_values(&shared), digest_values(&changed), "{i}");
        }
    }

    #[test]
    fn flags_digest_distinguishes_nodes_and_bits() {
        let mut a = BTreeMap::new();
        a.insert(0, false);
        a.insert(2, true);
        let mut b = a.clone();
        assert_eq!(digest_flags(&a), digest_flags(&b));
        b.insert(2, false);
        assert_ne!(digest_flags(&a), digest_flags(&b));
    }
}
