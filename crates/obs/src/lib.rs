//! Observability layer for the NAB reproduction: structured event tracing,
//! a metrics registry, and latency-distribution histograms.
//!
//! The crate has **zero dependencies** (not even on the rest of the
//! workspace) so every other crate can depend on it, and it is built around
//! one invariant: *with no sink installed, instrumentation is a no-op* —
//! canonical `SweepReport` JSON and the determinism property tests are
//! byte-identical whether tracing is compiled in, enabled, or absent.
//!
//! Three modules:
//!
//! - [`trace`] — a structured event stream. Instrumented code calls
//!   [`trace::emit`] (or takes a [`trace::PhaseSpan`] /
//!   [`trace::InstanceSpan`] guard) with a [`trace::EventKind`]; events are
//!   `Copy`, carry a global sequence number and a monotonic nanosecond
//!   timestamp captured once per event, and are buffered in a preallocated
//!   thread-local `Vec` that is flushed to the installed [`trace::TraceSink`]
//!   in batches. Sinks are installed *per thread*
//!   ([`trace::set_thread_sink`]), which keeps parallel tests in one binary
//!   from polluting each other; the sweep runner installs the sink on each
//!   worker thread it spawns.
//! - [`metrics`] — [`metrics::Histogram`], a fixed 65-bucket log2 latency
//!   histogram with exact `count`/`sum`/`min`/`max` and p50/p90/p99
//!   extraction, whose merge is commutative and associative (so per-thread
//!   histograms merge to the same result for any work partition), plus a
//!   [`metrics::Registry`] of named counters and histograms with
//!   deterministic (sorted) iteration order.
//! - [`writer`] — renderers from a recorded event slice to JSONL (one JSON
//!   object per line) and to Chrome `trace_event` JSON loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! See `docs/observability.md` for the event taxonomy and usage.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod clock;
pub mod metrics;
pub mod trace;
pub mod writer;

pub use metrics::{Histogram, Registry};
pub use trace::{
    emit, set_thread_sink, BufferSink, Event, EventKind, InstanceSpan, Phase, PhaseSpan, TraceSink,
};
