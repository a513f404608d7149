//! Regenerates every paper artifact as a table. The output is
//! byte-deterministic and pinned by `tests/golden/experiments.txt`. There is
//! one size and no flags: sizes live in the `.scenario` files named below
//! and in the constant passed to E2.
//!
//! E1, E2, E7 and E8 compute (`nab_bench::e*`). E3, E4, E5 and E7's
//! worst-case placement run the engine, and every row they print is a job of
//! the sweep runner, described by a file under `scenarios/` and printed by
//! `nab_scenario::report::table` from fields its report already carries.
//! Exits non-zero, after printing every table, if such a job's `ok` cell
//! is not `yes`.
//!
//! Usage: `cargo run --release -p nab-bench --bin experiments`

use std::process::ExitCode;

use nab::plan::PlanCache;
use nab::value::SYMBOL_BITS;
use nab_bb::baselines::oblivious_broadcast_with_router;
use nab_bench::format_table;
use nab_scenario::report::{failures, table};
use nab_scenario::{
    expand_jobs, parse_str, run_sweep_with_options, AdversarySpec, FaultSchedule, Job,
    ScenarioSpec, SweepOptions, SweepReport,
};

/// E3's networks: uniform K4/K5, K7 at `f = 2`, a heterogeneous K4.
const E3: [&str; 3] = [
    include_str!("../../../../scenarios/e3-throughput.scenario"),
    include_str!("../../../../scenarios/e3-k7-f2.scenario"),
    include_str!("../../../../scenarios/e3-hetero.scenario"),
];
const E4: &str = include_str!("../../../../scenarios/e4-amortization.scenario");
const E5: &str = include_str!("../../../../scenarios/e5-thinlink.scenario");
const E7_WORST_CASE: &str = include_str!("../../../../scenarios/hetero-worstcase.scenario");

/// One engine experiment as run: what it prints, and the sweeps behind it.
struct Section {
    body: String,
    reports: Vec<SweepReport>,
}

fn bundled(text: &str) -> ScenarioSpec {
    parse_str(text).expect("bundled experiment scenarios parse")
}

/// Runs `spec` on `threads` workers (0 = one per CPU), keeping its plans in
/// `cache` if one is given.
fn sweep(spec: &ScenarioSpec, threads: usize, cache: Option<&PlanCache>) -> SweepReport {
    let opts = SweepOptions {
        threads,
        cache,
        ..SweepOptions::default()
    };
    run_sweep_with_options(spec, &opts).expect("bundled experiment scenarios validate")
}

/// E3: every network fault-free against the paper's bounds, then under a
/// corruptor at node 1.
fn e3(threads: usize) -> Section {
    let attack = |mut spec: ScenarioSpec| {
        spec.adversary = AdversarySpec::parse("corruptor").expect("a bundled form");
        spec.faults = FaultSchedule::parse("fixed:1").expect("a bundled form");
        spec
    };
    let clean = E3.map(|text| sweep(&bundled(text), threads, None));
    let attacked = E3.map(|text| sweep(&attack(bundled(text)), threads, None));
    let bounds = "scenario | grid point | T | Eq.6 lower | Thm2 upper | T / Thm2 | ok";
    let disputes = "scenario | grid point | faulty | T | T steady | disputes / f(f+1) | ok";
    let body = format!(
        "Fault-free:\n\n{}\nCorruptor at node 1 (steady = after the last dispute round):\n\n{}",
        table(bounds, &clean),
        table(disputes, &attacked)
    );
    let reports = clean.into_iter().chain(attacked).collect();
    Section { body, reports }
}

/// E4: the same deployment under three dispute-forcing adversaries.
fn e4(threads: usize) -> Section {
    let mut spec = bundled(E4);
    let reports = Vec::from(["false-alarm", "corruptor", "liar"].map(|adversary| {
        spec.adversary = AdversarySpec::parse(adversary).expect("a bundled form");
        sweep(&spec, threads, None)
    }));
    let cols = "adversary | faulty | disputes / f(f+1) | T | T steady | t / instance | overhead / instance | ok";
    let body = table(cols, &reports);
    Section { body, reports }
}

/// Fault-free throughput of the capacity-oblivious EIG baseline on `job`'s
/// network, borrowing the router of the plan `cache` holds for it (`None`
/// if the network cannot host the job).
fn oblivious_throughput(spec: &ScenarioSpec, job: &Job, cache: &PlanCache) -> Option<f64> {
    let g = spec.topology.build(&job.ctx()).ok()?;
    let plan = cache.fetch(&g, job.f).ok()?.plan;
    let l_bits = job.symbols as u64 * SYMBOL_BITS;
    let rep = oblivious_broadcast_with_router(&g, plan.router(), 0, job.f, l_bits);
    Some(l_bits as f64 / rep.time)
}

/// E5 (Section 1: "one can easily construct example networks in which
/// previously proposed algorithms achieve throughput that is arbitrarily
/// worse than the optimal"): the thin-link capacity sweep with the oblivious
/// baseline beside each job. NAB routes around the thin pair, the baseline
/// pays full price on it. The sweep leaves every job's plan in `cache`, so
/// the baseline's fetch is a hit.
fn e5(threads: usize) -> Section {
    let (spec, cache) = (bundled(E5), PlanCache::new());
    let report = sweep(&spec, threads, Some(&cache));
    let dash = |cell: Option<String>| cell.unwrap_or_else(|| "-".into());
    let mut rows = Vec::new();
    for (job, outcome) in expand_jobs(&spec).iter().zip(&report.jobs) {
        let nab = outcome.result.as_ref().ok().map(|m| m.throughput);
        let oblivious = oblivious_throughput(&spec, job, &cache);
        let ratio = (nab.zip(oblivious)).map(|(nab, obl)| format!("{:.1}×", nab / obl));
        let [nab, oblivious] = [nab, oblivious].map(|t| t.map(|t| format!("{t:.3}")));
        let cells = [Some(job.cap.to_string()), nab, oblivious, ratio];
        rows.push(cells.map(dash).to_vec());
    }
    let headers = ["fat-link cap", "NAB T", "oblivious T", "NAB / oblivious"];
    let (body, reports) = (format_table(&headers, &rows), vec![report]);
    Section { body, reports }
}

/// E7's engine half: the throughput-minimising single-fault placement on
/// heterogeneous meshes.
fn e7_worst_case(threads: usize) -> Section {
    let reports = vec![sweep(&bundled(E7_WORST_CASE), threads, None)];
    let cols = "grid point | faulty | T | T steady | disputes / f(f+1) | ok";
    let body = table(cols, &reports);
    Section { body, reports }
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("experiments takes no arguments (got {arg:?}): there is one size");
        return ExitCode::from(2);
    }
    let mut failed = Vec::new();
    let mut engine = |section: Section| {
        println!("{}", section.body);
        failed.extend(failures(&section.reports));
    };

    println!("# NAB experiment suite\n");

    println!("## E1 — paper worked examples (Figures 1–2)\n");
    println!("{}", nab_bench::e1_examples::table());

    println!("## E2 — Theorem 1 soundness probability vs symbol width\n");
    let e2 = nab_bench::e2_theorem1::run_default(200);
    println!("{}", nab_bench::e2_theorem1::table(&e2));

    println!("## E3 — throughput vs Eq.6 lower bound and Theorem 2 capacity bound\n");
    engine(e3(0));

    println!("## E4 — dispute-control amortization (budget f(f+1))\n");
    engine(e4(0));

    println!("## E5 — NAB vs capacity-oblivious baseline (capacity skew sweep)\n");
    engine(e5(0));

    println!("## E7 — capacity table (Theorem 2 + Theorem 3 fractions)\n");
    let e7 = nab_bench::e7_capacity::run();
    println!("{}", nab_bench::e7_capacity::table(&e7));
    println!("Worst-case single-fault placement on heterogeneous meshes:\n");
    engine(e7_worst_case(0));

    println!("## E8 — ablations: ρ sweep, coding-matrix construction, tree packing\n");
    let rho = nab_bench::e8_ablation::rho_sweep(&nab_netgraph::gen::complete(4, 2), 960.0);
    println!("{}", nab_bench::e8_ablation::rho_table(&rho));
    let pack = nab_bench::e8_ablation::packing_ablation();
    println!("{}", nab_bench::e8_ablation::packing_table(&pack));

    for failure in &failed {
        eprintln!("experiments: {failure}");
    }
    ExitCode::from(u8::from(!failed.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_scenario::{JobMetrics, JobOutcome};
    use std::sync::OnceLock;

    /// Every engine experiment, run once at the default worker count.
    fn sections() -> &'static [Section; 4] {
        static RUN: OnceLock<[Section; 4]> = OnceLock::new();
        RUN.get_or_init(|| all(0))
    }

    fn all(threads: usize) -> [Section; 4] {
        [
            e3(threads),
            e4(threads),
            e5(threads),
            e7_worst_case(threads),
        ]
    }

    fn measured() -> impl Iterator<Item = (&'static JobOutcome, &'static JobMetrics)> {
        let reports = sections().iter().flat_map(|s| &s.reports);
        jobs_of(reports).map(|j| (j, j.result.as_ref().expect("no job is rejected")))
    }

    fn jobs_of<'a>(
        reports: impl IntoIterator<Item = &'a SweepReport>,
    ) -> impl Iterator<Item = &'a JobOutcome> {
        reports.into_iter().flat_map(|r| &r.jobs)
    }

    #[test]
    fn every_job_is_accepted_correct_and_within_its_dispute_budget() {
        for section in sections() {
            assert_eq!(failures(&section.reports), Vec::<String>::new());
            for report in &section.reports {
                assert_eq!(report.aggregate.rejected_jobs, 0, "{}", report.scenario);
                assert!(report.aggregate.all_correct, "{}", report.scenario);
                assert!(
                    !report.aggregate.dispute_budget_violated,
                    "f(f+1) must hold"
                );
            }
        }
        assert_eq!(measured().count(), 2 * 8 + 3 + 6 + 8);
    }

    #[test]
    fn fault_free_throughput_respects_both_bounds() {
        let mut checked = 0;
        for (job, m) in measured().filter(|(j, _)| j.faulty.is_empty()) {
            let Some(b) = &m.bounds else { continue };
            // Theorem 3: the lower bound is at least a third of the
            // capacity bound.
            assert!(b.eq6_lower * 3.0 + 1e-9 >= b.thm2_upper as f64, "{job:?}");
            // Measured throughput (per-instance γ_k, ρ_k can exceed the
            // worst-case γ*, ρ*) must at least achieve the Eq. 6 bound up
            // to the amortized overhead; every E3 spec has one, large, L.
            assert!(
                m.throughput >= b.eq6_lower * 0.85,
                "{job:?}: measured {} vs bound {}",
                m.throughput,
                b.eq6_lower
            );
            checked += 1;
        }
        assert_eq!(checked, 8, "every E3 network carries its bounds");
    }

    #[test]
    fn a_faulty_relay_forces_a_dispute_and_the_steady_state_recovers() {
        let mut checked = 0;
        for (job, m) in measured().filter(|(j, _)| !j.faulty.is_empty() && !j.faulty.contains(&0)) {
            assert!(m.dispute_rounds >= 1, "{job:?}");
            assert!(m.dispute_rounds <= m.dispute_budget, "{job:?}");
            let steady = m
                .steady_throughput
                .expect("instances follow the last dispute");
            assert!(
                steady > m.throughput,
                "{job:?}: no speedup after disputes stop"
            );
            checked += 1;
        }
        assert_eq!(checked, 8 + 3 + 8, "E3 attacked, E4, E7 worst case");
    }

    #[test]
    fn worst_case_search_tries_every_single_node_placement() {
        for job in jobs_of(&sections()[3].reports) {
            assert!(job.candidates_tried > 1, "worst-case search ran");
            assert_eq!(job.faulty.len(), 1);
        }
    }

    #[test]
    fn nab_advantage_grows_with_capacity_skew() {
        let (spec, cache) = (bundled(E5), PlanCache::new());
        let ratios: Vec<f64> = (expand_jobs(&spec).iter())
            .zip(jobs_of(&sections()[2].reports))
            .map(|(job, outcome)| {
                let nab = outcome.result.as_ref().unwrap().throughput;
                nab / oblivious_throughput(&spec, job, &cache).unwrap()
            })
            .collect();
        assert_eq!(ratios.len(), 6);
        assert!(ratios.windows(2).all(|w| w[1] > w[0]), "{ratios:?}");
        // At scale 16 the gap is large (the paper's "arbitrarily worse").
        assert!(ratios[4] > 4.0, "expected a big gap, got {:.2}", ratios[4]);
    }

    #[test]
    fn tables_do_not_depend_on_the_worker_count() {
        for (one, default) in all(1).iter().zip(sections()) {
            assert_eq!(one.body, default.body);
        }
        for (three, default) in all(3).iter().zip(sections()) {
            assert_eq!(three.body, default.body);
        }
    }

    #[test]
    fn failures_name_rejected_incorrect_and_over_budget_jobs() {
        let mut spec = bundled(E4);
        spec.f = vec![1, 2]; // K4 cannot host f = 2
        let mut report = sweep(&spec, 1, None);
        assert_eq!(failures(std::slice::from_ref(&report)).len(), 1);
        assert!(failures(std::slice::from_ref(&report))[0].contains("job 1: rejected"));
        assert!(table("ok", std::slice::from_ref(&report)).contains("rejected: "));
        let metrics = report.jobs[0].result.as_mut().unwrap();
        metrics.all_correct = false;
        let found = failures(std::slice::from_ref(&report));
        assert_eq!(found.len(), 2);
        assert!(
            found[0].contains("job 0: NO: agreement, validity or dispute soundness broken"),
            "{found:?}"
        );
        let metrics = report.jobs[0].result.as_mut().unwrap();
        (metrics.all_correct, metrics.dispute_budget_exceeded) = (true, true);
        let found = failures(&[report]);
        assert!(
            found[0].contains("e4-amortization job 0: NO: over the dispute budget"),
            "{found:?}"
        );
    }
}
