//! Property tests pinning down the scenario engine's determinism
//! guarantee: a `.scenario` document with a fixed seed produces
//! byte-identical `SweepReport` JSON — run-to-run and for 1 vs. N worker
//! threads.

use nab::plan::PlanCache;
use nab_obs::trace::EventKind;
use nab_obs::BufferSink;
use nab_scenario::sweep::{assemble_report, run_job};
use nab_scenario::{
    expand_jobs, parse_str, run_sweep, run_sweep_with_options, ScenarioSpec, SweepOptions,
    SweepReport,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a random-but-valid `.scenario` document from drawn parameters.
fn scenario_text(
    topo: usize,
    adv: usize,
    faults: usize,
    q: usize,
    symbols: usize,
    seeds: u64,
    seed0: u64,
) -> String {
    // All families here are valid for n ∈ {4,5} with f = 1.
    let topology = ["complete:$n:$cap", "hetero:$n:1:$cap", "fig1a", "fig2a"][topo % 4];
    let adversary = [
        "honest",
        "corruptor",
        "liar",
        "false-alarm",
        "garbler",
        "random:0.4",
    ][adv % 6];
    let faults = ["none", "fixed:2", "rotating:1", "worst-case:1:3"][faults % 4];
    // fig1a/fig2a ignore $n/$cap; grid axes still expand.
    format!(
        "name = prop\n\
         topology = {topology}\n\
         adversary = {adversary}\n\
         faults = {faults}\n\
         q = {q}\n\
         n = 4,5\n\
         cap = 2\n\
         f = 1\n\
         symbols = {symbols}\n\
         seeds = {seeds}\n\
         seed0 = {seed0}\n"
    )
}

/// The cold-plan oracle: every job plans on a fresh cache of its own, so
/// no plan (or memo inside one) is shared between jobs.
fn cold_plan_sweep(spec: &ScenarioSpec) -> SweepReport {
    let jobs = expand_jobs(spec);
    let cold = |job| run_job(spec, job, Some(&PlanCache::new()));
    assemble_report(spec, jobs.iter().map(cold).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same document, same seed → byte-identical JSON, twice in a row and
    /// under 1 vs. 4 worker threads.
    #[test]
    fn sweep_json_is_thread_count_invariant(
        topo in 0usize..4,
        adv in 0usize..6,
        faults in 0usize..4,
        q in 1usize..4,
        symbols in 4usize..17,
        seeds in 1u64..3,
        seed0 in any::<u64>(),
    ) {
        let text = scenario_text(topo, adv, faults, q, symbols, seeds, seed0);
        let spec = parse_str(&text).unwrap();

        let single = run_sweep(&spec, 1).unwrap();
        let single_again = run_sweep(&spec, 1).unwrap();
        let parallel = run_sweep(&spec, 4).unwrap();

        prop_assert_eq!(
            single.to_json(),
            single_again.to_json(),
            "run-to-run determinism"
        );
        prop_assert_eq!(
            single.to_json(),
            parallel.to_json(),
            "thread-count invariance"
        );
        prop_assert_eq!(single.to_json_pretty(), parallel.to_json_pretty());
    }

    /// The plan cache is a pure wall-clock optimization: canonical
    /// `SweepReport` JSON of a sweep sharing one cache, at 1 and at 4
    /// worker threads, and of a sweep on an externally pre-warmed cache,
    /// is byte-identical to that of jobs that each built their own plans.
    #[test]
    fn sweep_json_is_plan_cache_invariant(
        topo in 0usize..4,
        adv in 0usize..6,
        faults in 0usize..4,
        q in 1usize..4,
        symbols in 4usize..17,
        seeds in 1u64..3,
        seed0 in any::<u64>(),
    ) {
        let text = scenario_text(topo, adv, faults, q, symbols, seeds, seed0);
        let spec = parse_str(&text).unwrap();
        let reference = cold_plan_sweep(&spec).to_json();
        prop_assert_eq!(&reference, &run_sweep(&spec, 1).unwrap().to_json(), "shared, 1 thread");
        prop_assert_eq!(&reference, &run_sweep(&spec, 4).unwrap().to_json(), "shared, 4 threads");

        // A cache warmed by a previous sweep must not perturb the next,
        // which it serves from memory alone.
        let cache = PlanCache::new();
        let opts = SweepOptions { threads: 2, cache: Some(&cache), ..SweepOptions::default() };
        let _ = run_sweep_with_options(&spec, &opts).unwrap();
        let rewarmed = run_sweep_with_options(&spec, &opts).unwrap();
        prop_assert_eq!(&reference, &rewarmed.to_json(), "pre-warmed external cache");
        prop_assert_eq!(rewarmed.aggregate.plan_misses, 0);
        prop_assert_eq!(rewarmed.aggregate.plan_build_ns, 0);
    }

    /// Event tracing is a pure observer: installing a trace sink leaves
    /// canonical JSON byte-identical, while the sink does capture the
    /// sweep's event stream.
    #[test]
    fn tracing_is_invisible_to_canonical_json(
        topo in 0usize..4,
        adv in 0usize..6,
        faults in 0usize..4,
        q in 1usize..3,
        symbols in 4usize..17,
        seed0 in any::<u64>(),
    ) {
        let text = scenario_text(topo, adv, faults, q, symbols, 1, seed0);
        let spec = parse_str(&text).unwrap();
        let plain = run_sweep(&spec, 2).unwrap();
        let sink = Arc::new(BufferSink::new());
        let opts = SweepOptions {
            threads: 2,
            trace: Some(sink.clone()),
            ..SweepOptions::default()
        };
        let traced = run_sweep_with_options(&spec, &opts).unwrap();
        prop_assert_eq!(plain.to_json(), traced.to_json(), "tracing on vs off");
        let events = sink.take_sorted();
        prop_assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SweepStart { .. })));
        prop_assert!(events.iter().any(|e| matches!(e.kind, EventKind::JobEnd)));
    }

    /// Message-level (`net = on`) execution keeps both halves of the
    /// determinism contract: with net **off** the file's `link_model` is
    /// completely inert (canonical JSON byte-identical to a spec that
    /// never mentions it), and with net **on** the sweep is byte-identical
    /// run-to-run and for 1 vs. 4 worker threads.
    #[test]
    fn net_mode_preserves_determinism(
        topo in 0usize..4,
        adv in 0usize..6,
        faults in 0usize..4,
        q in 1usize..3,
        symbols in 4usize..17,
        seed0 in any::<u64>(),
        model in 0usize..3,
    ) {
        let text = scenario_text(topo, adv, faults, q, symbols, 1, seed0);
        let mut spec = parse_str(&text).unwrap();
        let base = run_sweep(&spec, 2).unwrap();
        spec.link_model = nab_scenario::link_model::parse([
            "fixed:3000000",
            "uniform:2000000:1000000+loss:0.2:2:4000000",
            "lognormal:5000000:1.5+straggler:0:1:10",
        ][model]).unwrap();
        let off = run_sweep(&spec, 2).unwrap();
        prop_assert_eq!(base.to_json(), off.to_json(), "net off: link_model is inert");

        spec.net = true;
        let single = run_sweep(&spec, 1).unwrap();
        let again = run_sweep(&spec, 1).unwrap();
        let parallel = run_sweep(&spec, 4).unwrap();
        prop_assert_eq!(single.to_json(), again.to_json(), "net on: run-to-run");
        prop_assert_eq!(single.to_json(), parallel.to_json(), "net on: 1 vs 4 threads");
    }

    /// Changing the base seed changes per-job seeds (no accidental seed
    /// collapse), while the grid shape stays fixed.
    #[test]
    fn seed0_feeds_through(seed0 in 0u64..1_000_000) {
        let text = scenario_text(0, 0, 0, 1, 8, 1, seed0);
        let spec = parse_str(&text).unwrap();
        let report = run_sweep(&spec, 2).unwrap();
        prop_assert_eq!(report.jobs.len(), 2);
        prop_assert!(report.jobs[0].seed != report.jobs[1].seed);
        let other = parse_str(&scenario_text(0, 0, 0, 1, 8, 1, seed0 ^ 1)).unwrap();
        let other_report = run_sweep(&other, 2).unwrap();
        prop_assert!(other_report.jobs[0].seed != report.jobs[0].seed);
    }
}

/// Latency-histogram aggregation is partition-invariant: the merged
/// distributions carry identical sample *counts* for 1 vs. 4 worker
/// threads (the nanosecond values themselves are wall-clock and vary, so
/// only the counts — which phases ran how often — are pinned).
#[test]
fn latency_histogram_counts_are_thread_invariant() {
    let text = scenario_text(0, 1, 2, 2, 8, 4, 11);
    let spec = parse_str(&text).unwrap();
    let single = run_sweep(&spec, 1).unwrap();
    let parallel = run_sweep(&spec, 4).unwrap();
    for ((name, h1), (_, hn)) in single
        .aggregate
        .latency
        .phases()
        .iter()
        .zip(parallel.aggregate.latency.phases().iter())
    {
        assert_eq!(h1.count(), hn.count(), "phase {name}");
    }
    assert!(
        single.aggregate.latency.instance.count() as usize == single.aggregate.total_instances,
        "every instance lands in the instance histogram"
    );
}

/// Delivered-time histograms (net mode) are *fully* thread-invariant —
/// they record simulated nanoseconds, not wall clock, so the whole
/// distributions (not just counts) must match across worker counts.
#[test]
fn delivered_histograms_are_thread_invariant() {
    let text = scenario_text(0, 1, 2, 2, 8, 4, 11);
    let mut spec = parse_str(&text).unwrap();
    spec.net = true;
    spec.link_model =
        nab_scenario::link_model::parse("uniform:1000000:500000+loss:0.1:2:2000000").unwrap();
    let single = run_sweep(&spec, 1).unwrap();
    let parallel = run_sweep(&spec, 4).unwrap();
    let d1 = single.aggregate.delivered.as_ref().expect("net on records");
    let dn = parallel.aggregate.delivered.as_ref().unwrap();
    assert_eq!(d1, dn, "identical distributions, not just counts");
    assert!(d1.instance.count() > 0);
}

/// The bundled scenario library must parse and stay thread-invariant on a
/// down-scaled grid (full runs are the CI smoke test's job).
#[test]
fn bundled_scenarios_parse_and_shrunk_runs_are_deterministic() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut found = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("scenario") {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let mut spec = parse_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Shrink the workload so this stays a unit-scale test.
        spec.q = spec.q.min(2);
        spec.seeds = spec.seeds.min(2);
        spec.symbols.truncate(1);
        spec.bounds = false;
        let a = run_sweep(&spec, 1).unwrap();
        let b = run_sweep(&spec, 3).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "{}", path.display());
    }
    assert!(
        found >= 8,
        "bundled scenario library shrank to {found} files"
    );
}

/// DetSan digests are a function of (scenario, seed) alone: a traced
/// sweep of a dispute-bearing bundled scenario emits the same digest at
/// every (job, instance, phase) at 1 and 4 worker threads.
#[test]
fn detsan_digests_are_thread_invariant() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/collusion.scenario"
    );
    let mut spec = parse_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.q = spec.q.min(3);
    spec.seeds = spec.seeds.min(2);
    spec.symbols.truncate(1);
    let digests = |threads| {
        let sink = Arc::new(BufferSink::new());
        let opts = SweepOptions {
            threads,
            trace: Some(sink.clone()),
            ..SweepOptions::default()
        };
        run_sweep_with_options(&spec, &opts).unwrap();
        let mut d: Vec<_> = sink
            .take_sorted()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::DetSanDigest { phase, digest } => {
                    Some((e.job, e.instance, phase.name(), digest))
                }
                _ => None,
            })
            .collect();
        d.sort_unstable();
        d
    };
    let single = digests(1);
    assert_eq!(single, digests(4), "digests at 1 vs 4 threads");
    for phase in ["phase1", "equality", "flags", "dispute"] {
        assert!(
            single.iter().any(|d| d.2 == phase),
            "no {phase} digest in {single:?}"
        );
    }
}
