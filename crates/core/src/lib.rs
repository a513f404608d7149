//! NAB — Network-Aware Byzantine broadcast (Liang & Vaidya, 2012).
//!
//! This crate implements the paper's primary contribution: a Byzantine
//! broadcast algorithm for synchronous point-to-point networks with
//! per-link capacities that achieves at least 1/3 (sometimes 1/2) of the
//! network's BB capacity. Each broadcast *instance* runs three phases:
//!
//! 1. **Unreliable broadcast** ([`phase1`]): the source streams its `L`-bit
//!    input down `γ_k` capacity-respecting spanning arborescences of the
//!    current graph `G_k` — optimal rate, zero fault tolerance.
//! 2. **Failure detection** ([`phase2`]): the *equality check* with local
//!    linear coding ([`equality`], Algorithm 1) — every node sends random
//!    linear combinations of its received symbols on every outgoing link
//!    and checks its neighbors' combinations against its own value — then
//!    a classic 1-bit Byzantine broadcast of each node's MISMATCH flag.
//! 3. **Dispute control** ([`dispute`], only on detected misbehavior):
//!    full-transcript broadcasts that always end with a new dispute pair or
//!    an exposed faulty node, shrinking `G_{k+1}`; at most `f(f+1)`
//!    executions ever, so the amortized cost vanishes.
//!
//! The analysis side of the paper is implemented in [`bounds`] (the
//! throughput lower bound `γ*ρ*/(γ*+ρ*)`, the capacity upper bound
//! `min(γ*, 2ρ*)` of Theorem 2, and the reachable-graph family Γ) and
//! [`theory`] (the `C_H`/`M_H` matrix construction of Theorem 1's proof).
//! The executable protocol is split into a planning layer
//! ([`plan::ExecutionPlan`], the one-time network setup, shareable across
//! deployments through the content-addressed [`plan::PlanCache`]) and the
//! execution layer orchestrated by [`engine::NabEngine`], with Byzantine
//! strategies in [`adversary`].
//!
//! # Quickstart
//!
//! ```
//! use nab::engine::{NabConfig, NabEngine};
//! use nab::adversary::HonestStrategy;
//! use nab::value::Value;
//! use nab_netgraph::gen;
//! use std::collections::BTreeSet;
//!
//! # fn main() {
//! let g = gen::complete(4, 2);
//! let mut engine = NabEngine::new(g, NabConfig { f: 1, symbols: 8, seed: 7 }).unwrap();
//! let input = Value::from_u64s(&[1, 2, 3, 4, 5, 6, 7, 8]);
//! let report = engine
//!     .run_instance(&input, &BTreeSet::new(), &mut HonestStrategy)
//!     .unwrap();
//! assert!(report.outputs.values().all(|v| *v == input));
//! # }
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod adversary;
pub mod bounds;
pub mod detsan;
pub mod dispute;
pub mod engine;
pub mod equality;
pub mod netexec;
pub mod persist;
pub mod phase1;
pub mod phase2;
pub mod plan;
pub mod stats;
pub mod theory;
pub mod value;

pub use engine::{InstanceReport, NabConfig, NabEngine, NabError};
pub use netexec::{DeliveredTimes, NetExec};
pub use phase2::BroadcastKind;
pub use plan::{ExecutionPlan, PlanCache, PlanCacheStats, PlanFetch, PlanKey};
pub use value::Value;
