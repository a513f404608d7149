//! The traced run: per-layer numbers, measured separately from the
//! end-to-end run so tracing can never touch the end-to-end metrics.
//!
//! Four parts share the `--seconds` budget:
//! 1. iterations, alternately untraced and traced (the difference is the
//!    harness's own span overhead);
//! 2. passes over every job: once through `run_job` (what the sweep runner
//!    calls) and once stepped through the layers' public functions
//!    (`stepped.rs`), which together attribute a job's time to layers;
//! 3. whole-sweep comparisons on the first file (nab-obs tracing on/off,
//!    one worker vs two);
//! 4. the layer probes (`probes.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use nab::plan::{ExecutionPlan, PlanCache};
use nab_obs::clock;
use nab_obs::trace::{set_thread_sink, TraceSink};
use nab_obs::BufferSink;
use nab_scenario::sweep::{expand_jobs, run_job, run_sweep, run_sweep_with_options, SweepOptions};
use nab_scenario::{parse_str, ScenarioSpec};

use crate::probes;
use crate::record::{Metric, RunRecord};
use crate::run::{digest, iterate, resolve_ctx, serve, set_up, workload_problems};
use crate::span::{Recorder, SpanTotal};
use crate::stats;
use crate::stepped::run_job_stepped;
use crate::workload::{Kind, WorkloadDef, PER_LAYER};

/// Shares of the budget given to parts 1, 2 and 4 (part 3 runs a fixed,
/// small number of sweeps).
const ITERATION_SHARE: f64 = 0.25;
const PASS_SHARE: f64 = 0.25;
const PROBE_SHARE: f64 = 0.35;

fn total(totals: &BTreeMap<&'static str, SpanTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

/// One pass over every job of a sweep workload: `run_job` as the sweep
/// runner calls it, the same jobs stepped, and — for `net = on` files —
/// `run_job` once more with the replay off.
fn sweep_pass(rec: &mut Recorder, specs: &[ScenarioSpec]) -> Result<PassTotals, String> {
    let mut t = PassTotals::default();
    for spec in specs {
        let jobs = expand_jobs(spec);
        let cache = PlanCache::new();
        for job in &jobs {
            rec.set_job(job.index as u32);
            let on = spec.net.then(|| rec.enter("scenario.run_job_net_on"));
            let s = rec.enter("scenario.run_job");
            let outcome = run_job(spec, job, Some(&cache));
            rec.exit(s);
            if let Some(on) = on {
                rec.exit(on);
            }
            if let Ok(m) = outcome.result {
                t.report_disputes += m.dispute_rounds as u64;
                t.report_replans += m.plan_repairs + m.plan_full_recomputes;
            }
        }
        let cache = PlanCache::new();
        for job in &jobs {
            let stepped = run_job_stepped(rec, spec, job, &cache)?;
            t.stepped_instances += stepped.instances;
            t.stepped_disputes += stepped.dispute_rounds;
            t.stepped_replans += stepped.replans;
            t.stepped_incorrect += stepped.incorrect;
        }
        if spec.net {
            let mut off = spec.clone();
            off.net = false;
            let cache = PlanCache::new();
            for job in &jobs {
                rec.set_job(job.index as u32);
                let s = rec.enter("scenario.run_job_net_off");
                std::hint::black_box(run_job(&off, job, Some(&cache)));
                rec.exit(s);
            }
        }
    }
    Ok(t)
}

/// The planning-only equivalent: the `--validate` path per job, then
/// `ExecutionPlan::build`'s five children called one by one where the
/// sweep pass has its plan fetch.
fn plan_pass(rec: &mut Recorder, specs: &[ScenarioSpec]) -> Result<PassTotals, String> {
    use nab::bounds::rho_k;
    use nab::engine::SOURCE;
    use nab_bb::router::PathRouter;
    use nab_netgraph::arborescence::pack_arborescences;
    use nab_netgraph::connectivity::supports_byzantine_broadcast;
    use nab_netgraph::flow::broadcast_rate;
    use std::hint::black_box;

    for spec in specs {
        for job in expand_jobs(spec) {
            rec.set_job(job.index as u32);
            let ctx = resolve_ctx(&job);
            let s = rec.enter("scenario.run_job");
            let g = spec.topology.build(&ctx)?;
            black_box(
                ExecutionPlan::build(g, job.f)
                    .map_err(|e| e.to_string())?
                    .gamma0(),
            );
            rec.exit(s);

            let root = rec.enter("stepped.job");
            let s = rec.enter("netgraph.topology_build");
            let g = spec.topology.build(&ctx)?;
            rec.exit(s);
            let fetch = rec.enter("core.plan_fetch");
            let s = rec.enter("netgraph.connectivity");
            black_box(supports_byzantine_broadcast(&g, job.f));
            rec.exit(s);
            let s = rec.enter("bb.router_build");
            black_box(PathRouter::build(&g, job.f).is_some());
            rec.exit(s);
            let s = rec.enter("core.rho");
            black_box(rho_k(&g, job.f, &Default::default()));
            rec.exit(s);
            let s = rec.enter("netgraph.gamma");
            let gamma = broadcast_rate(&g, SOURCE);
            rec.exit(s);
            let s = rec.enter("netgraph.pack_arborescences");
            black_box(pack_arborescences(&g, SOURCE, gamma).map(|t| t.len()));
            rec.exit(s);
            rec.exit(fetch);
            rec.exit(root);
        }
    }
    Ok(PassTotals::default())
}

#[derive(Default, Clone, Copy)]
struct PassTotals {
    report_disputes: u64,
    report_replans: u64,
    stepped_replans: u64,
    stepped_instances: u64,
    stepped_disputes: u64,
    stepped_incorrect: u64,
}

/// Median wall (ms) of each closure over `reps` rounds, the closures
/// taking turns within a round so slow periods of the box hit them alike.
fn alternate(reps: usize, runs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut ms = vec![Vec::new(); runs.len()];
    for _ in 0..reps {
        for (run, samples) in runs.iter_mut().zip(&mut ms) {
            let t0 = clock::mono_now();
            run();
            samples.push(clock::elapsed_ns(t0) as f64 / 1e6);
        }
    }
    ms.iter().map(|samples| stats::median(samples)).collect()
}

/// Part 3: the first file served plainly, under a nab-obs trace sink, and
/// (sweeps only) by two workers. Returns `obs.trace_overhead_share` and
/// `scenario.pool_speedup_2t`.
fn whole_sweep_comparisons(
    w: &WorkloadDef,
    first_text: &[String],
    first: &ScenarioSpec,
    reps: usize,
) -> (f64, f64) {
    use std::hint::black_box;
    let sink = Arc::new(BufferSink::new());
    let dyn_sink = || Arc::clone(&sink) as Arc<dyn TraceSink>;
    match w.kind {
        Kind::Sweep => {
            let opts = SweepOptions {
                threads: 1,
                trace: Some(dyn_sink()),
                ..SweepOptions::default()
            };
            let ms = alternate(
                reps,
                &mut [
                    &mut || {
                        black_box(run_sweep(first, 1).map(|r| r.jobs.len()).ok());
                    },
                    &mut || {
                        black_box(
                            run_sweep_with_options(first, &opts)
                                .map(|r| r.jobs.len())
                                .ok(),
                        );
                        black_box(sink.take_sorted().len());
                    },
                    &mut || {
                        black_box(run_sweep(first, 2).map(|r| r.jobs.len()).ok());
                    },
                ],
            );
            (ms[1] / ms[0] - 1.0, ms[0] / ms[2])
        }
        Kind::PlanOnly => {
            let ms = alternate(
                reps,
                &mut [
                    &mut || {
                        black_box(serve(w, first_text, None).is_ok());
                    },
                    &mut || {
                        set_thread_sink(Some(dyn_sink()));
                        black_box(serve(w, first_text, None).is_ok());
                        set_thread_sink(None);
                        black_box(sink.take_sorted().len());
                    },
                ],
            );
            // The planning path has no worker pool.
            (ms[1] / ms[0] - 1.0, 1.0)
        }
    }
}

pub fn run(
    w: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    quick: bool,
    spans_path: Option<&str>,
) -> Result<RunRecord, String> {
    let (texts, reference) = set_up(w, seed)?;
    let specs: Vec<ScenarioSpec> = texts
        .iter()
        .map(|t| parse_str(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut problems = workload_problems(w, &reference);
    problems.extend(reference.failures.iter().cloned());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Part 1: iterations, untraced and traced alternately.
    let mut iter_rec = Recorder::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let part = clock::mono_now();
    loop {
        for traced in [false, true] {
            let sample = iterate(w, &texts, &reference, traced.then_some(&mut iter_rec))?;
            attempted += sample.ops;
            failed += sample.failed;
            problems.extend(sample.problem);
            if traced {
                &mut traced_ms
            } else {
                &mut plain_ms
            }
            .push(sample.ms);
        }
        if quick || clock::elapsed_ns(part) as f64 / 1e9 >= seconds * ITERATION_SHARE {
            break;
        }
    }
    let iter_p50 = stats::median(&plain_ms);
    values.insert(
        "harness.span_overhead_share",
        stats::median(&traced_ms) / iter_p50 - 1.0,
    );
    values.insert("harness.iter_ms_p90", stats::percentile(&plain_ms, 90.0));
    values.insert(
        "harness.iter_ms_iqr",
        stats::quartiles(&plain_ms).map_or(0.0, |[q1, _, q3]| q3 - q1),
    );
    let span_median = |name: &str| stats::median(&iter_rec.durations_ns(name));
    values.insert("scenario.parse_us", span_median("scenario.parse") / 1e3);
    values.insert(
        "scenario.report_json_ms",
        span_median("scenario.report_json") / 1e6,
    );

    // Part 2: job passes.
    let mut job_rec = Recorder::new();
    let mut passes = 0u32;
    let part = clock::mono_now();
    let pass_totals = loop {
        let t = match w.kind {
            Kind::Sweep => sweep_pass(&mut job_rec, &specs)?,
            Kind::PlanOnly => plan_pass(&mut job_rec, &specs)?,
        };
        passes += 1;
        attempted += t.stepped_instances;
        failed += t.stepped_incorrect;
        if (t.stepped_disputes, t.stepped_replans) != (t.report_disputes, t.report_replans) {
            problems.push(format!(
                "stepped jobs ran {} dispute rounds and {} replans, run_job reported {} and {}",
                t.stepped_disputes, t.stepped_replans, t.report_disputes, t.report_replans
            ));
        }
        if quick || clock::elapsed_ns(part) as f64 / 1e9 >= seconds * PASS_SHARE {
            break t;
        }
    };
    let totals = job_rec.totals();
    let run_job_ns = total(&totals, "scenario.run_job");
    let run_job_ms: Vec<f64> = job_rec
        .durations_ns("scenario.run_job")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    values.insert("scenario.run_job_ms_p50", stats::median(&run_job_ms));
    values.insert(
        "scenario.run_job_ms_p90",
        stats::percentile(&run_job_ms, 90.0),
    );
    values.insert(
        "scenario.overhead_share",
        1.0 - run_job_ns / f64::from(passes) / 1e6 / iter_p50,
    );
    // Message-level replay is the difference between the same jobs with
    // `net` on and off.
    let replay_ns =
        total(&totals, "scenario.run_job_net_on") - total(&totals, "scenario.run_job_net_off");
    // ρ_k is derived inside the engine's equality window but is
    // replanning work.
    let rho_k_ns = total(&totals, "core.rho_k");
    let shares: [(&'static str, f64); 8] = [
        (
            "share.plan",
            total(&totals, "netgraph.topology_build")
                + total(&totals, "core.plan_fetch")
                + total(&totals, "scenario.mutate"),
        ),
        ("share.bounds", total(&totals, "core.bounds_report")),
        ("share.phase1", total(&totals, "core.phase1")),
        ("share.equality", total(&totals, "core.equality") - rho_k_ns),
        ("share.flags", total(&totals, "core.flags")),
        ("share.dispute", total(&totals, "core.dispute")),
        ("share.replay", replay_ns),
        (
            "share.replan",
            total(&totals, "core.replan") + total(&totals, "core.gk_derive") + rho_k_ns,
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        attributed += ns;
        values.insert(name, ns / run_job_ns);
    }
    values.insert("scenario.unattributed_share", 1.0 - attributed / run_job_ns);

    // Part 3: whole-sweep comparisons on the first file.
    let (obs_overhead, pool_speedup) =
        whole_sweep_comparisons(w, &texts[..1], &specs[0], if quick { 1 } else { 3 });
    values.insert("obs.trace_overhead_share", obs_overhead);
    values.insert("scenario.pool_speedup_2t", pool_speedup);

    // Part 4: layer probes.
    let mut probe_rec = Recorder::new();
    let sessions = (22 + 9 * specs.len()) as f64;
    let budget_ns = if quick {
        0
    } else {
        (seconds * PROBE_SHARE / sessions * 1e9) as u64
    };
    values.extend(probes::run_probes(
        &mut probe_rec,
        &specs,
        budget_ns,
        if quick { 1 } else { 3 },
    )?);

    // Deterministic quantities from the canonical report.
    let c = &reference.counts;
    values.insert("sim_throughput", reference.sim_throughput);
    values.insert("count.instances", c.instances as f64);
    values.insert("count.dispute_rounds", c.dispute_rounds as f64);
    values.insert("count.plan_builds", c.plan_builds as f64);
    values.insert("count.plan_repairs", c.plan_repairs as f64);
    values.insert("count.plan_full_recomputes", c.plan_full_recomputes as f64);
    values.insert("count.report_bytes", c.report_bytes as f64);

    if let Some(path) = spans_path {
        let mut out = String::new();
        for (section, rec) in [
            ("iterations", &iter_rec),
            ("jobs", &job_rec),
            ("probes", &probe_rec),
        ] {
            out.push_str(&format!("{{\"section\":\"{section}\"}}\n"));
            out.push_str(&rec.to_jsonl());
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    // Printed = declared, both ways.
    if let Some(extra) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
    {
        return Err(format!("traced run produced undeclared metric {extra}"));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            values
                .get(m.name)
                .map(|&value| Metric {
                    name: m.name,
                    unit: m.unit,
                    value,
                })
                .ok_or(format!("traced run produced no {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let notes = vec![
        format!(
            "{} untraced + {} traced iterations, {passes} job passes ({} stepped instances in the last)",
            plain_ms.len(),
            traced_ms.len(),
            pass_totals.stepped_instances
        ),
        format!(
            "spans recorded: {} iteration, {} job, {} probe",
            iter_rec.spans().len(),
            job_rec.spans().len(),
            probe_rec.spans().len()
        ),
    ];
    Ok(RunRecord {
        workload: w.name,
        seed,
        seconds,
        quick,
        trace: true,
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        iterations: plain_ms.len() + traced_ms.len(),
        setups: 1,
        digest: digest(&reference.canonical),
        metrics,
        notes,
        problems,
        iter_ms: plain_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find_workload, DEFAULT_SEED};

    /// The real thing, once: a quick traced run of the cheapest workload
    /// must pass its checks and print exactly the declared per-layer set
    /// (`run` refuses both a missing and an undeclared metric).
    #[test]
    fn quick_traced_run_prints_every_declared_per_layer_metric() {
        let w = find_workload("clean-small").unwrap();
        let rec = run(w, DEFAULT_SEED, 1.0, true, None).unwrap();
        assert!(rec.correct, "{:?}", rec.problems);
        assert_eq!(rec.failed, 0);
        let printed: Vec<&str> = rec.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared);
        assert!(rec.metrics.iter().all(|m| m.value.is_finite()));
        let value = |name: &str| rec.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("count.instances"), 720.0);
        assert_eq!(value("count.dispute_rounds"), 0.0);
        assert!(value("share.flags") > value("share.equality"));
    }
}
