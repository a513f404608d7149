//! The computed half of the experiment suite behind the `experiments`
//! binary, which regenerates every quantitative artifact of the paper as a
//! table pinned by `tests/golden/experiments.txt`.
//!
//! E1, E2, E6, E7 and E8 *compute* — min-cuts and bounds, Theorem-1 trials
//! over small fields, the Figure 3 pipelining model, soundness of coding
//! matrices — and each module here returns typed rows plus a table. E3, E4,
//! E5 and E7's worst-case placement *run the engine*; every such run is a
//! job of `nab-scenario`'s sweep runner described by a file under
//! `scenarios/`, and the binary only selects report columns to print, so
//! they have no module here.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod e1_examples;
pub mod e2_theorem1;
pub mod e6_pipelining;
pub mod e7_capacity;
pub mod e8_ablation;

/// The job tables' renderer, shared with the computed tables.
pub use nab_scenario::report::format_table;
