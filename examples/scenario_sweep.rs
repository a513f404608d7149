//! Drive the scenario engine from Rust: build a spec from its public
//! fields (no `.scenario` file needed), run it across threads, and inspect
//! the aggregated report — including the amortized-overhead story the
//! `f(f+1)` dispute bound guarantees.
//!
//! Run with: `cargo run --release --example scenario_sweep`

use nab_repro::scenario::{
    run_sweep, AdversarySpec, FaultSchedule, ScenarioSpec, TopologyTemplate,
};

fn main() {
    // A false-alarm adversary rotating around K5/K6: it burns dispute
    // rounds early, gets exposed, and steady-state throughput recovers.
    let spec = ScenarioSpec {
        topology: TopologyTemplate::parse("complete:$n:$cap").expect("a bundled family"),
        adversary: AdversarySpec::parse("false-alarm").expect("a bundled form"),
        faults: FaultSchedule::parse("rotating:1").expect("a bundled form"),
        q: 6,
        n: vec![5, 6],
        cap: vec![2],
        symbols: vec![32],
        seeds: 3,
        seed0: 17,
        bounds: true,
        ..ScenarioSpec::new("example-amortization")
    };

    let report = run_sweep(&spec, 0).expect("spec is valid");
    print!("{}", report.summary_table());

    for job in &report.jobs {
        let m = job.result.as_ref().expect("all grid points valid");
        // When the rotating fault lands on the source, its exposure makes
        // later instances default at zero simulated cost and steady-state
        // throughput is undefined — report it as such.
        let steady = m
            .steady_throughput
            .map(|t| format!("{t:.3}"))
            .unwrap_or_else(|| "n/a (defaulted)".into());
        println!(
            "n={} seed#{}: faulty {:?} exposed at instances {:?}; overall {:.3} vs steady {steady} \
             bits/unit (amortized overhead {:.1}/instance, disputes {}/{})",
            job.n,
            job.seed_index,
            job.faulty,
            m.exposed_history.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            m.throughput,
            m.amortized_overhead,
            m.dispute_rounds,
            m.dispute_budget,
        );
        assert!(m.all_correct, "BB safety must hold under false alarms");
        if let Some(steady) = m.steady_throughput {
            assert!(
                steady >= m.throughput,
                "dispute rounds only ever slow the early instances"
            );
        }
    }
    println!(
        "aggregate: {} jobs, mean {:.3} bits/unit, budget violated: {}",
        report.aggregate.ok_jobs,
        report.aggregate.mean_throughput,
        report.aggregate.dispute_budget_violated,
    );

    // The whole report serializes deterministically — same bytes for any
    // worker-thread count.
    let json = report.to_json();
    let rerun = run_sweep(&spec, 1).expect("spec is valid");
    assert_eq!(json, rerun.to_json());
    println!("report JSON: {} bytes (thread-count invariant)", json.len());
}
