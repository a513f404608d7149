//! E-experiments re-expressed as declarative scenarios.
//!
//! The hand-coded experiment modules (`e3_throughput`,
//! `e4_amortization`, `e7_capacity`) predate the scenario engine; this
//! module states the same designs as [`ScenarioSpec`]s so they run on
//! the shared sweep runner (parallelism, JSON reports, deterministic
//! seeds) and so `experiments` output and `nab-sim --scenario` output
//! come from one code path. New experiments should start here — a
//! scenario first, a bespoke module only if the design cannot be
//! expressed declaratively.

// nab-lint: allow-file(NAB003): perf-harness setup; aborting on a malformed experiment configuration is the intended behavior

use std::collections::BTreeSet;

use nab_scenario::{
    run_sweep, AdversarySpec, FaultSchedule, ScenarioSpec, SweepReport, TopologyTemplate,
};

fn template(spec: &str) -> TopologyTemplate {
    TopologyTemplate::parse(spec).expect("experiment topologies are bundled families")
}

/// E3 as a scenario: fault-free throughput on the uniform complete-graph
/// grid (K4 and K5, each at capacity ×1/×2/×4) against the paper's
/// bounds. This covers the uniform entries of the hand-coded
/// `e3_throughput::network_suite`; its heterogeneous and `f = 2` entries
/// remain hand-coded (see `e7_capacity_scenario` for the heterogeneous
/// setting).
pub fn e3_throughput_scenario(symbols: usize, q: usize) -> ScenarioSpec {
    ScenarioSpec::new("e3-throughput")
        .with_topology(template("complete:$n:$cap"))
        .with_q(q)
        .with_n(vec![4, 5])
        .with_cap(vec![1, 2, 4])
        .with_symbols(vec![symbols])
        .with_bounds(true)
}

/// E4 as a scenario: the false-alarm amortization attack swept over
/// rotating fault placements; the report's per-stream budget check *is*
/// the `f(f+1)` claim.
pub fn e4_amortization_scenario(q: usize) -> ScenarioSpec {
    ScenarioSpec::new("e4-amortization")
        .with_topology(template("complete:$n:$cap"))
        .with_adversary(AdversarySpec::FalseAlarm)
        .with_faults(FaultSchedule::Rotating { count: 1 })
        .with_q(q)
        .with_n(vec![4, 5])
        .with_cap(vec![2])
        .with_symbols(vec![16])
        .with_seeds(4)
}

/// E7 as a scenario: worst-case single-fault placement on heterogeneous
/// meshes — the capacity-skew setting where placement matters most.
pub fn e7_capacity_scenario(q: usize) -> ScenarioSpec {
    ScenarioSpec::new("e7-capacity")
        .with_topology(template("hetero:$n:1:$cap"))
        .with_adversary(AdversarySpec::Corruptor)
        .with_faults(FaultSchedule::WorstCase {
            count: 1,
            max_candidates: 8,
        })
        .with_q(q)
        .with_n(vec![4, 5])
        .with_cap(vec![4, 8])
        .with_symbols(vec![24])
        .with_seeds(2)
}

/// Runs a scenario-expressed experiment and formats the standard table.
pub fn run_and_table(spec: &ScenarioSpec, threads: usize) -> (SweepReport, String) {
    let report = run_sweep(spec, threads).expect("experiment scenarios are valid");
    let rows: Vec<Vec<String>> = report
        .jobs
        .iter()
        .map(|j| match &j.result {
            Ok(m) => vec![
                format!(
                    "n={} cap={} f={} S={} #{}",
                    j.n, j.cap, j.f, j.symbols, j.seed_index
                ),
                format!("{:?}", j.faulty),
                format!("{:.3}", m.throughput),
                m.steady_throughput
                    .map(|t| format!("{t:.3}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{}/{}", m.dispute_rounds, m.dispute_budget),
                m.bounds
                    .as_ref()
                    .map(|b| format!("{:.2}", b.eq6_lower))
                    .unwrap_or_else(|| "-".into()),
                if m.all_correct {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ],
            Err(e) => vec![
                format!(
                    "n={} cap={} f={} S={} #{}",
                    j.n, j.cap, j.f, j.symbols, j.seed_index
                ),
                format!("{:?}", j.faulty),
                "rejected".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                e.clone(),
            ],
        })
        .collect();
    let table = crate::format_table(
        &[
            "grid point",
            "faulty",
            "tput",
            "steady",
            "disputes",
            "eq6",
            "ok",
        ],
        &rows,
    );
    (report, table)
}

/// Cross-check: the scenario-expressed E3 must agree with the hand-coded
/// `run_many` measurement on the same network, config, and seed.
pub fn e3_matches_handcoded(symbols: usize, q: usize) -> bool {
    use nab::adversary::HonestStrategy;
    use nab::engine::{run_many, NabConfig, NabEngine};
    use nab_netgraph::gen;

    let spec = e3_throughput_scenario(symbols, q);
    let report = run_sweep(&spec, 1).expect("valid scenario");
    report.jobs.iter().all(|job| {
        let m = match &job.result {
            Ok(m) => m,
            Err(_) => return false,
        };
        let g = gen::complete(job.n, job.cap);
        let cfg = NabConfig {
            f: job.f,
            symbols: job.symbols,
            seed: job.seed,
        };
        let mut engine = NabEngine::new(g, cfg).expect("suite networks are valid");
        let sum = run_many(
            &mut engine,
            q,
            &BTreeSet::new(),
            &mut HonestStrategy,
            job.seed,
        )
        .expect("fault-free run succeeds");
        // The two sides draw *different* input values (the sweep derives
        // its input RNG from the job seed, run_many uses the seed
        // directly), so this validates the simulated *time model*: on the
        // fault-free path every phase cost depends only on the workload
        // shape (symbols, graph, f), never on input content, hence equal
        // throughput. It is not an input-for-input replay.
        sum.all_correct && m.all_correct && (m.throughput - sum.throughput).abs() < 1e-9
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_scenario_agrees_with_handcoded_run_many() {
        assert!(e3_matches_handcoded(16, 3));
    }

    #[test]
    fn e4_scenario_respects_dispute_budget() {
        let (report, table) = run_and_table(&e4_amortization_scenario(4), 2);
        assert_eq!(report.aggregate.rejected_jobs, 0);
        assert!(report.aggregate.all_correct);
        assert!(
            !report.aggregate.dispute_budget_violated,
            "f(f+1) must hold"
        );
        // Every job saw the false alarm trigger at least one dispute.
        assert!(report
            .jobs
            .iter()
            .all(|j| j.result.as_ref().unwrap().dispute_rounds >= 1));
        assert!(table.contains("tput"));
    }

    #[test]
    fn e7_scenario_reports_worst_placement() {
        let (report, _) = run_and_table(&e7_capacity_scenario(2), 2);
        assert!(report.aggregate.all_correct);
        for job in &report.jobs {
            assert!(job.candidates_tried > 1, "worst-case search ran");
            assert_eq!(job.faulty.len(), 1);
        }
    }
}
