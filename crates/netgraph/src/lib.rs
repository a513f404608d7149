//! Capacitated graphs, flows, connectivity, and tree packings for NAB.
//!
//! The paper's network model is a directed simple graph `G(V, E)` where each
//! directed link `e` has an integer capacity `z_e` (bits per unit time).
//! Everything NAB needs from graph theory lives here:
//!
//! - [`graph::DiGraph`] / [`undirected::UnGraph`] — the two graph views of a
//!   network (Figure 2 of the paper),
//! - [`flow`] — Dinic max-flow, `MINCUT(G, s, t)`, and the broadcast rate
//!   `γ = min_j MINCUT(G, 1, j)`,
//! - [`connectivity`] — directed vertex connectivity (the `2f+1` check is
//!   a pivot scan on two shared split networks) and vertex-disjoint path
//!   extraction (used to emulate a complete graph over a `2f+1`-connected
//!   network),
//! - [`arborescence`] — Edmonds-style packing of `γ` capacity-respecting
//!   spanning arborescences (Phase 1 unreliable broadcast, Appendix A),
//! - [`treepack`] — matroid-union packing of `⌊U/2⌋` undirected spanning
//!   trees (the structure underlying Theorem 1, Appendix C),
//! - [`globalcut`] — bounded global min cut by Nagamochi–Ono–Ibaraki
//!   contraction (the all-pairs minimum `U_H` of every `(n−f)`-node
//!   subgraph, each capped at the minimum over the ones before it),
//! - [`gen`] — graph generators, including the paper's worked examples,
//! - [`canon`] — stable graph keys: a relabeling-invariant canonical
//!   digest plus a labeled digest, the content-addressing layer under the
//!   engine's plan cache.

#![expect(clippy::disallowed_types, reason = "emits no canonical JSON")]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod arborescence;
pub mod canon;
pub mod connectivity;
pub mod flow;
pub mod gen;
pub mod globalcut;
pub mod graph;
pub mod treepack;
pub mod undirected;

pub use graph::{DiGraph, Edge, EdgeId, NodeId};
pub use undirected::{UnEdge, UnGraph};
