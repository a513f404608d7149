//! Declarative fault/workload scenarios and a parallel sweep runner for
//! NAB (Liang & Vaidya, PODC 2012).
//!
//! Every experiment used to be a hand-coded Rust function; this crate
//! turns "run NAB on topology X with faults Y under adversary Z across a
//! parameter grid" into *data*:
//!
//! - [`spec::ScenarioSpec`] — the declarative scenario: a parameterized
//!   [`topology::TopologyTemplate`], a [`faults::FaultSchedule`], an
//!   [`adversary::AdversarySpec`], the broadcast backend, and the
//!   workload grid (`n × cap × f × symbols × seeds`, `q` instances per
//!   job);
//! - [`parse`] — the `.scenario` text format (see `docs/scenarios.md`
//!   for the reference and `scenarios/` for the bundled library), one row
//!   of [`parse::KEYS`] per key; the topology, adversary, fault, mutation
//!   and `link_model` values are [`grammar`] terms, one table row per form;
//! - [`sweep`] — grid expansion into jobs and the multi-threaded runner
//!   with deterministic per-job seeding: results are bit-identical for
//!   any worker-thread count;
//! - [`report`] — per-job metrics (throughput, phase times, dispute
//!   counts vs. the `f(f+1)` budget, exposure histories, the paper's
//!   Eq. 6 / Theorem 2 bounds) aggregated into a
//!   [`report::SweepReport`];
//! - [`json`] — the hand-rolled deterministic JSON serializer behind
//!   [`report::SweepReport::to_json`].
//!
//! # Quickstart
//!
//! ```
//! use nab_scenario::parse;
//! use nab_scenario::sweep::run_sweep;
//!
//! let spec = parse::parse_str(
//!     "name = demo\n\
//!      topology = complete:$n:$cap\n\
//!      adversary = corruptor\n\
//!      faults = fixed:2\n\
//!      q = 3\n\
//!      n = 4\n\
//!      cap = 2\n\
//!      symbols = 8\n",
//! )
//! .unwrap();
//! let report = run_sweep(&spec, 2).unwrap();
//! assert!(report.aggregate.all_correct);
//! assert!(report.to_json().contains("\"scenario\":\"demo\""));
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
pub mod faults;
pub mod grammar;
pub mod json;
pub mod link_model;
pub mod mutations;
pub mod parse;
pub mod report;
pub mod spec;
pub mod sweep;
pub mod topology;

pub use adversary::AdversarySpec;
pub use faults::FaultSchedule;
pub use mutations::MutationSchedule;
pub use parse::{load, parse_str, ParseError};
pub use report::{Aggregate, JobMetrics, JobOutcome, PhaseLatency, SweepReport};
pub use spec::ScenarioSpec;
pub use sweep::{
    expand_jobs, job_network, run_sweep, run_sweep_with_options, Job, ProgressSnapshot,
    SweepOptions,
};
pub use topology::{Tok, TopologyTemplate};
