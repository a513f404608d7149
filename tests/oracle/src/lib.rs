//! Reference implementations, kept out of the production crates.
//!
//! Each item here computes what a production function computes, the
//! straightforward way and with no optimisation, so that tests can check
//! the production code against it bit for bit. Only `[dev-dependencies]`
//! may list this crate: nothing the product runs calls into it.
//!
//! - [`arborescence`] — Lovász's constructive packing with a full max-flow
//!   check per candidate edge, the oracle of
//!   `nab_netgraph::arborescence::pack_arborescences`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod arborescence;
