//! Classic Byzantine-broadcast primitives and capacity-oblivious baselines.
//!
//! NAB uses "a previously proposed Byzantine broadcast algorithm, such as
//! \[19\]/\[6\]" as a black box in two places: step 2.2 (agreeing on the 1-bit
//! equality-check flags) and Phase 3 (dispute-control transcript
//! broadcasts). This crate supplies that black box:
//!
//! - [`eig`] — Exponential Information Gathering (Pease–Shostak–Lamport),
//!   the textbook `f+1`-round BB for `n > 3f`, generic over the value
//!   domain and over the channel it runs on;
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
//!   algorithms can perform poorly");
//! - [`phaseking`] — a polynomial-message alternative `Broadcast_Default`
//!   (`O(f·n²)` messages, needs `n > 4f`).

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

pub use eig::{run_eig, EigAdversary, EigResult, HonestAdversary};
pub use phaseking::{run_phase_king, PkAdversary, PkResult};
pub use router::PathRouter;
