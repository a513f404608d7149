//! Classic Byzantine-broadcast primitives and capacity-oblivious baselines.
//!
//! NAB uses "a previously proposed Byzantine broadcast algorithm, such as
//! \[19\]/\[6\]" as a black box in two places: step 2.2 (agreeing on the 1-bit
//! equality-check flags) and Phase 3 (dispute-control transcript
//! broadcasts). NAB's adversary acts only through what a node broadcasts,
//! never through the relays of that black box, so by validity every
//! decision is the broadcaster's input and the only thing left to compute
//! is what the broadcast costs. This crate supplies it as a schedule,
//! charged:
//!
//! - [`eig`] — Exponential Information Gathering (Pease–Shostak–Lamport),
//!   the textbook `f+1`-round BB for `n > 3f`: [`eig::schedule`] emits its
//!   logical unicasts in protocol order;
//! - [`phaseking`] — a polynomial-message alternative `Broadcast_Default`
//!   (`O(f·n²)` messages, needs `n > 4f`), likewise [`phaseking::schedule`];
//! - [`router`] — complete-graph emulation over a `2f+1`-connected network:
//!   every logical unicast travels `2f+1` internally-vertex-disjoint paths
//!   and the receiver majority-votes (Appendix D of the paper). The vote's
//!   outcome is known in advance (at most `f` copies can be corrupted), so
//!   a unicast is charged from the pair's memoized hop-round schedule
//!   rather than simulated message by message — one
//!   [`router::HopRound`] at a time, to whichever [`router::RoundSink`]
//!   the caller times with (the formula clock, a recording simulator, the
//!   event kernel);
//! - [`baselines`] — the capacity-oblivious full-value broadcast that NAB
//!   is compared against in experiment E5 (Section 1's "previously proposed
//!   algorithms can perform poorly").
//!
//! The value-running protocols stay in the test modules, as the oracles
//! that pin both schedules' message order.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod baselines;
pub mod eig;
pub mod phaseking;
pub mod router;

pub use router::PathRouter;

#[cfg(test)]
mod tests {
    use crate::eig::tests::{listed, run_eig_oracle, HonestAdversary, Tap};
    use crate::phaseking::tests::{run_phase_king_oracle, PkHonest};
    use crate::{eig, phaseking};
    use nab_netgraph::NodeId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both schedules against the value-running oracles, for every
        /// source of a shuffled participant order (n ≤ 10, f ≤ 2 within the
        /// protocol's bound): with honest relays and any faulty set, the
        /// oracle's `(from, to, bits)` list is the schedule, every value on
        /// the wire is the input, and every participant decides the input.
        #[test]
        fn schedule_is_the_oracles_message_order(
            phase_king in any::<bool>(),
            f in 0usize..=2,
            extra in 0usize..=9,
            seed in any::<u64>(),
        ) {
            let min = if phase_king { 4 * f + 1 } else { 3 * f + 1 };
            let n = min + extra % (11 - min);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut parts: Vec<NodeId> = (0..n).collect();
            for i in (1..n).rev() {
                parts.swap(i, rng.gen_range(0..=i));
            }
            let faulty: BTreeSet<NodeId> = (0..f).map(|_| rng.gen_range(0..n)).collect();
            let (input, bits) = (rng.gen::<u64>(), rng.gen_range(1..=64u64));
            for &source in &parts {
                let want = if phase_king {
                    listed(|send| phaseking::schedule(&parts, source, f, send), bits)
                } else {
                    listed(|send| eig::schedule(&parts, source, f, send), bits)
                };
                let mut tap = Tap::default();
                let decisions = if phase_king {
                    let honest = &mut PkHonest;
                    run_phase_king_oracle(&parts, source, f, input, &faulty, honest, &mut tap, bits)
                        .decisions
                } else {
                    let honest = &mut HonestAdversary;
                    run_eig_oracle(&parts, source, f, input, &faulty, honest, &mut tap, bits)
                        .decisions
                };
                let case = format!(
                    "pk={phase_king} parts={parts:?} f={f} source={source} faulty={faulty:?}"
                );
                prop_assert_eq!(tap.wire(), want, "{}", case);
                prop_assert!(tap.0.iter().all(|&(.., v)| v == input), "{}", case);
                prop_assert_eq!(decisions.len(), n, "{}", case);
                prop_assert!(decisions.values().all(|&d| d == input), "{}", case);
            }
        }
    }
}
