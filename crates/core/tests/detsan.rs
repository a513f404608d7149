//! DetSan smoke tests. Every traced run carries the engine's phase
//! digests, in any build, so these run in every `cargo test`.
//!
//! Runs the same instance twice under a trace sink and asserts the
//! DetSan digest sequences are present and identical — the
//! property two traces of one configuration are diffed on.

use std::collections::BTreeSet;
use std::sync::Arc;

use nab::adversary::{HonestStrategy, LyingCorruptor};
use nab::engine::{NabConfig, NabEngine};
use nab::value::Value;
use nab_netgraph::gen;
use nab_obs::trace::{self, BufferSink, EventKind};

/// Runs one engine instance with `faulty` under a fresh sink and returns
/// the `(phase, digest)` pairs of all DetSan events, in emission order.
fn digest_run(faulty: &BTreeSet<usize>) -> Vec<(&'static str, u64)> {
    let sink = Arc::new(BufferSink::new());
    trace::set_thread_sink(Some(sink.clone()));
    let mut engine = NabEngine::new(
        gen::complete(4, 2),
        NabConfig {
            f: 1,
            symbols: 12,
            seed: 42,
        },
    )
    .unwrap();
    let input = Value::from_u64s(&(0..12).map(|i| i * 7 + 1).collect::<Vec<_>>());
    let report = if faulty.is_empty() {
        engine.run_instance(&input, faulty, &mut HonestStrategy)
    } else {
        engine.run_instance(&input, faulty, &mut LyingCorruptor)
    };
    report.unwrap();
    trace::set_thread_sink(None);
    sink.take_sorted()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::DetSanDigest { phase, digest } => Some((phase.name(), digest)),
            _ => None,
        })
        .collect()
}

#[test]
fn fault_free_instance_emits_identical_digests_across_runs() {
    let faulty = BTreeSet::new();
    let a = digest_run(&faulty);
    let b = digest_run(&faulty);
    assert!(!a.is_empty(), "a traced run must emit DetSan digests");
    assert_eq!(a, b, "same configuration must digest identically");
    // Fault-free: phase1 + equality run, no dispute control.
    assert!(a.iter().any(|&(p, _)| p == "phase1"));
    assert!(a.iter().any(|&(p, _)| p == "equality"));
}

#[test]
fn corrupting_instance_digests_the_dispute_phase_deterministically() {
    let faulty = BTreeSet::from([2usize]);
    let a = digest_run(&faulty);
    let b = digest_run(&faulty);
    assert_eq!(a, b);
    assert!(
        a.iter().any(|&(p, _)| p == "dispute"),
        "a corrupting relay must trigger dispute control: {a:?}"
    );
    // Different fault injection must not alias the fault-free digests.
    assert_ne!(a, digest_run(&BTreeSet::new()));
}
