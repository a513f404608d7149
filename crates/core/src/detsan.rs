//! DetSan — the runtime determinism sanitizer (`--features sanitize`).
//!
//! The static lints (`clippy.toml`, `docs/lint.md`) keep nondeterminism
//! *sources* out of the code; DetSan checks the *effects* at runtime. With
//! the `sanitize` feature enabled, the engine digests its canonical state
//! at every phase boundary (FNV-1a over a fixed serialization order) and
//! emits the digest as an [`EventKind::DetSanDigest`] trace event, and a
//! handful of invariants that the optimized paths rely on — packing
//! validity after a `G_k` replan, histogram merge commutativity — are
//! re-verified on the spot. Two runs of the same configuration must
//! produce identical digest sequences; diffing two sanitize traces
//! pinpoints the first phase where determinism broke.
//!
//! Everything in this module is compiled out without the feature; the
//! default build carries zero cost. The canonical outputs themselves are
//! unaffected either way — a sweep under `sanitize` is byte-identical to
//! one without (CI asserts this).
//!
//! [`EventKind::DetSanDigest`]: nab_obs::trace::EventKind::DetSanDigest

use std::collections::BTreeMap;

use nab_netgraph::NodeId;

use crate::dispute::DisputeState;
use crate::value::Value;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher over little-endian words.
///
/// FNV-1a is used (rather than `DefaultHasher`) because its output is
/// specified: digests must be stable across Rust versions and platforms so
/// that traces from different builds are diffable.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one byte.
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self
    }

    /// Absorbs a `u64` as eight little-endian bytes.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of per-node values (Phase 1 output / instance outputs).
///
/// `BTreeMap` iteration is ordered, so the serialization order is fixed:
/// `(node, len, symbols...)` per entry.
pub fn digest_values(values: &BTreeMap<NodeId, Value>) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(values.len() as u64);
    for (&v, val) in values {
        h.u64(v as u64);
        h.u64(val.len() as u64);
        for s in val.symbols() {
            h.u64(u64::from(s.0));
        }
    }
    h.finish()
}

/// Digest of per-node equality flags (Phase 2 output).
pub fn digest_flags(flags: &BTreeMap<NodeId, bool>) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(flags.len() as u64);
    for (&v, &flag) in flags {
        h.u64(v as u64);
        h.byte(u8::from(flag));
    }
    h.finish()
}

/// Digest of the dispute state (Phase 3 output): all pairs, then all
/// removed nodes, in their `BTreeSet` order.
pub fn digest_disputes(disputes: &DisputeState) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(disputes.pairs.len() as u64);
    for &(a, b) in &disputes.pairs {
        h.u64(a as u64);
        h.u64(b as u64);
    }
    h.u64(disputes.removed.len() as u64);
    for &v in &disputes.removed {
        h.u64(v as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        for b in b"a" {
            h.byte(*b);
        }
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
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
