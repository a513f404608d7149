//! Umbrella crate for the NAB reproduction workspace.
//!
//! Re-exports the component crates so examples and integration tests can use
//! a single dependency. See the individual crates for the real APIs:
//!
//! - [`gf`] — finite fields `GF(2^m)` and dense linear algebra,
//! - [`netgraph`] — capacitated digraphs, flows, and tree packings,
//! - [`sim`] — the synchronous capacitated network simulator,
//! - [`bb`] — classic Byzantine-broadcast primitives and baselines,
//! - [`nab`] — the Network-Aware Byzantine broadcast algorithm itself,
//! - [`net`] — the deterministic discrete-event network kernel
//!   (latency/jitter/loss link models; see `docs/network-sim.md`),
//! - [`obs`] — structured event tracing and metrics (see
//!   `docs/observability.md`),
//! - [`scenario`] — declarative fault/workload scenarios and the parallel
//!   sweep runner (see `docs/scenarios.md`).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub use nab;
pub use nab_bb as bb;
pub use nab_gf as gf;
pub use nab_net as net;
pub use nab_netgraph as netgraph;
pub use nab_obs as obs;
pub use nab_scenario as scenario;
pub use nab_sim as sim;
