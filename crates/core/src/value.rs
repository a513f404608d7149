//! The broadcast value: an `L`-bit string viewed as symbols of `GF(2^16)`.
//!
//! The paper works with abstract `L`-bit inputs that are re-interpreted per
//! phase: Phase 1 splits them into `γ_k` blocks, the equality check
//! re-shapes them into `ρ_k` symbols of `GF(2^{L/ρ_k})`. We fix the machine
//! symbol at 16 bits ([`nab_gf::Gf2_16`]) and represent an `L`-bit value as
//! `S = L/16` symbols; the giant field `GF(2^{L/ρ})` is realized as `S/ρ`
//! independent `GF(2^16)` *columns* checked with the same coding matrices —
//! exactly the block decomposition the random-coding argument factorizes
//! over (see docs/perf.md, "One field, one kernel").

use std::fmt;
use std::sync::Arc;

use nab_gf::field::Field;
use nab_gf::Gf2_16;
use rand::Rng;

/// Bits per machine symbol.
pub const SYMBOL_BITS: u64 = 16;

/// An `L`-bit broadcast value as a vector of 16-bit field symbols.
///
/// The symbols sit behind an [`Arc`], so a clone shares them: every holder
/// of the same bits can hold one allocation. Phase 1 hands each node below
/// only fault-free relays the input itself, so in an undisputed instance
/// every output shares the source's storage. Nothing mutates shared
/// symbols ([`Value::corrupt_symbol`] copies first).
#[derive(Clone, Eq, Default)]
pub struct Value {
    symbols: Arc<Vec<Gf2_16>>,
}

/// Symbol-wise equality. Two values sharing storage are equal without a
/// look at the symbols (one allocation holds one content); otherwise the
/// payloads are compared bytewise, as the equality check's class detection
/// and `instance_correct` do per node per instance.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.symbols, &other.symbols)
            || nab_gf::simd::gf2_16_slices_eq(&self.symbols, &other.symbols)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.symbols.hash(state);
    }
}

impl Value {
    /// A value of `s` zero symbols.
    pub fn zeros(s: usize) -> Self {
        Value::from_symbols(vec![Gf2_16::ZERO; s])
    }

    /// Builds a value from raw integers (each truncated to 16 bits).
    pub fn from_u64s(raw: &[u64]) -> Self {
        Value::from_symbols(raw.iter().map(|&x| Gf2_16::from_u64(x)).collect())
    }

    /// Builds a value from field symbols (taking the vector, not copying it).
    pub fn from_symbols(symbols: Vec<Gf2_16>) -> Self {
        Value {
            symbols: Arc::new(symbols),
        }
    }

    /// A uniformly random value of `s` symbols.
    pub fn random<R: Rng + ?Sized>(s: usize, rng: &mut R) -> Self {
        Value::from_symbols((0..s).map(|_| Gf2_16::random(rng)).collect())
    }

    /// Number of symbols `S`.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the value has no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Total size in bits (`L = 16·S`).
    pub fn bits(&self) -> u64 {
        self.symbols.len() as u64 * SYMBOL_BITS
    }

    /// The symbols as a slice.
    pub fn symbols(&self) -> &[Gf2_16] {
        &self.symbols
    }

    /// Splits the value into `parts` nearly-equal contiguous blocks
    /// (Phase 1: one block per spanning arborescence).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn split_blocks(&self, parts: usize) -> Vec<Vec<Gf2_16>> {
        assert!(parts > 0, "cannot split into zero blocks");
        let s = self.symbols.len();
        let base = s / parts;
        let extra = s % parts;
        let mut out = Vec::with_capacity(parts);
        let mut idx = 0;
        for p in 0..parts {
            let take = base + usize::from(p < extra);
            out.push(self.symbols[idx..idx + take].to_vec());
            idx += take;
        }
        out
    }

    /// Reassembles a value from contiguous blocks (inverse of
    /// [`Value::split_blocks`]).
    pub fn join_blocks(blocks: &[Vec<Gf2_16>]) -> Self {
        Value::from_symbols(blocks.iter().flatten().copied().collect())
    }

    /// Flips one symbol (test helper for corruption scenarios), in a copy:
    /// the result never shares `self`'s storage.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn corrupt_symbol(&self, idx: usize, delta: u64) -> Self {
        let mut symbols = self.symbols.to_vec();
        symbols[idx] = symbols[idx].add(Gf2_16::from_u64(delta | 1));
        Value::from_symbols(symbols)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value[{} sym:", self.symbols.len())?;
        for s in self.symbols.iter().take(4) {
            write!(f, " {s}")?;
        }
        if self.symbols.len() > 4 {
            write!(f, " …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Value {
        /// Re-shapes the value into a `ρ × cols` matrix for the equality check:
        /// entry `(r, c)` is symbol `c·ρ + r`, zero-padded to a whole number of
        /// columns. Column `c` plays the role of the vector `X_i` in Algorithm 1
        /// over one 16-bit slice of `GF(2^{L/ρ})`.
        ///
        /// # Panics
        ///
        /// Panics if `rho` is zero.
        pub(crate) fn reshape(&self, rho: usize) -> Vec<Vec<Gf2_16>> {
            assert!(rho > 0, "equality-check parameter ρ must be positive");
            let cols = self.symbols.len().div_ceil(rho);
            let mut out = vec![vec![Gf2_16::ZERO; rho]; cols];
            for (i, &sym) in self.symbols.iter().enumerate() {
                out[i / rho][i % rho] = sym;
            }
            out
        }
    }

    /// Values of 1 to `max_len` arbitrary symbols.
    pub(crate) fn arb_value(max_len: usize) -> impl Strategy<Value = Value> {
        proptest::collection::vec(any::<u16>(), 1..=max_len)
            .prop_map(|v| Value::from_u64s(&v.iter().map(|&x| x as u64).collect::<Vec<_>>()))
    }

    proptest! {
        #[test]
        fn reshape_covers_all_symbols(v in arb_value(64), rho in 1usize..9) {
            let m = v.reshape(rho);
            let total: usize = m.len() * rho;
            prop_assert!(total >= v.len());
            prop_assert!(total < v.len() + rho);
            // Flattening column-major recovers the symbols (plus padding).
            let flat: Vec<_> = m.iter().flatten().copied().collect();
            prop_assert_eq!(&flat[..v.len()], v.symbols());
        }
    }

    #[test]
    fn equality_is_symbol_wise() {
        let a = Value::from_u64s(&[7, 0, 65535, 9]);
        let shared = a.clone();
        assert_eq!(shared.symbols().as_ptr(), a.symbols().as_ptr());
        assert_eq!(a, shared, "a shared clone");
        let copy = Value::from_symbols(a.symbols().to_vec());
        assert_ne!(copy.symbols().as_ptr(), a.symbols().as_ptr());
        assert_eq!(a, copy, "equal contents in distinct storage");
        assert_ne!(a, Value::from_u64s(&[7, 0, 65535, 8]), "last symbol");
        assert_ne!(a, a.corrupt_symbol(1, 4), "one symbol, copied");
        assert_ne!(a, Value::from_u64s(&[7, 0, 65535]), "a prefix");
        assert_ne!(Value::zeros(3), Value::zeros(4));
        assert_eq!(Value::zeros(0), Value::default());
    }

    #[test]
    fn bits_count_symbols() {
        let v = Value::from_u64s(&[1, 2, 3]);
        assert_eq!(v.bits(), 48);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn split_join_roundtrip_even() {
        let v = Value::from_u64s(&[1, 2, 3, 4, 5, 6]);
        let blocks = v.split_blocks(3);
        assert_eq!(
            blocks.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 2, 2]
        );
        assert_eq!(Value::join_blocks(&blocks), v);
    }

    #[test]
    fn split_join_roundtrip_uneven() {
        let v = Value::from_u64s(&[1, 2, 3, 4, 5, 6, 7]);
        let blocks = v.split_blocks(3);
        assert_eq!(
            blocks.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        assert_eq!(Value::join_blocks(&blocks), v);
    }

    #[test]
    fn reshape_is_column_major_with_padding() {
        let v = Value::from_u64s(&[1, 2, 3, 4, 5]);
        let m = v.reshape(2);
        // Columns: [1,2], [3,4], [5,0].
        assert_eq!(m.len(), 3);
        assert_eq!(m[0], vec![Gf2_16(1), Gf2_16(2)]);
        assert_eq!(m[2], vec![Gf2_16(5), Gf2_16(0)]);
    }

    #[test]
    fn distinct_values_differ_in_reshape() {
        let v = Value::from_u64s(&[1, 2, 3, 4]);
        let w = v.corrupt_symbol(2, 0);
        assert_ne!(v, w);
        let (mv, mw) = (v.reshape(2), w.reshape(2));
        assert_ne!(mv, mw);
    }

    #[test]
    fn random_values_differ() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let a = Value::random(16, &mut rng);
        let b = Value::random(16, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn zero_split_rejected() {
        Value::from_u64s(&[1]).split_blocks(0);
    }
}
