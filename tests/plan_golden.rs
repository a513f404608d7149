//! Golden values of cold planning: `(γ₁, ρ₁, FNV-1a of the persisted
//! `.plan` bytes)` for the five `plan-cold` benchmark topologies at
//! seed 11 plus two small families at `f ∈ {1, 2}`.
//!
//! Captured at the commit before planning moved onto shared flow
//! networks (PR 17). A `.plan` file holds the graph, `γ₁`, `ρ₁` and every
//! arborescence of the Edmonds packing edge by edge, so one hash pins all
//! of planning's persisted output; a rewrite of the connectivity proof,
//! the packer or `U_k` must leave this file passing unmodified.

use nab_repro::nab::persist::{plan_path, save_plan};
use nab_repro::nab::plan::{ExecutionPlan, PlanKey};
use nab_repro::scenario::sweep::expand_jobs;
use nab_repro::scenario::topology::ResolveCtx;
use nab_repro::scenario::{parse_str, ScenarioSpec};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A one-topology scenario shaped like `benchmark/workloads/plan-cold/*`
/// with `{{SEED}}` = 11, so the per-job seeds (and hence the random
/// families' graphs) are the benchmark's.
fn spec(topology: &str, f: usize, seeds: u64) -> ScenarioSpec {
    parse_str(&format!(
        "name = plan-golden\ntopology = {topology}\nq = 1\nsymbols = 16\nn = 1\ncap = 1\n\
         f = {f}\nseeds = {seeds}\nseed0 = 11\n"
    ))
    .unwrap_or_else(|e| panic!("{topology}: {e}"))
}

/// Plans every job of the scenario the way `nab-sim --validate` does and
/// returns `(γ₁, ρ₁, hash of the persisted file)` per job, or the planning
/// error's text.
fn plan_all(topology: &str, f: usize, seeds: u64) -> Vec<Result<(u64, u64, u64), String>> {
    let spec = spec(topology, f, seeds);
    let dir = std::env::temp_dir().join(format!(
        "nab-plan-golden-{}-{}-f{f}",
        std::process::id(),
        topology.replace(':', "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = expand_jobs(&spec)
        .iter()
        .map(|job| {
            let g = spec.topology.build(&ResolveCtx {
                n: job.n,
                cap: job.cap,
                f: job.f,
                seed: job.seed,
            })?;
            let key = PlanKey::of(&g, job.f);
            let plan = ExecutionPlan::build(g, job.f).map_err(|e| e.to_string())?;
            save_plan(&dir, &key, &plan).map_err(|e| e.to_string())?;
            let bytes = std::fs::read(plan_path(&dir, &key)).map_err(|e| e.to_string())?;
            Ok((plan.gamma0(), plan.rho0(), fnv1a(&bytes)))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn cold_plans_match_golden_values() {
    type Gold = Result<(u64, u64, u64), String>;
    let cases: [(&str, usize, u64, &[Gold]); 9] = [
        (
            "dragonfly:8:5:2",
            1,
            1,
            &[Ok((8, 6, 0xb5a3_73a8_95c5_8448))],
        ),
        ("fattree:6:2", 1, 1, &[Ok((6, 4, 0x49cd_fd0c_c3f7_cb27))]),
        (
            "kconnected:36:3:2:25",
            1,
            2,
            &[
                Ok((10, 9, 0xbd55_aff9_d026_3f64)),
                Ok((10, 9, 0x3af3_7388_6d95_f822)),
            ],
        ),
        (
            "kconnected:48:3:3:5",
            1,
            1,
            &[Ok((6, 5, 0x6ec7_a67c_ee53_1b3d))],
        ),
        ("torus:8:8:2", 1, 1, &[Ok((8, 6, 0x72d3_9837_061f_7add))]),
        (
            "circulant:10:2:2",
            1,
            1,
            &[Ok((8, 6, 0xb94e_a314_8384_b116))],
        ),
        // Degree 4 < 2f+1 = 5: the rejection (and its text) is pinned too.
        (
            "circulant:10:2:2",
            2,
            1,
            &[Err("network connectivity below 2f+1".into())],
        ),
        ("complete:7:2", 1, 1, &[Ok((12, 10, 0x6fbe_0fec_02f4_03f1))]),
        ("complete:7:2", 2, 1, &[Ok((12, 8, 0x0c29_4b41_0feb_d2a4))]),
    ];
    for (topology, f, seeds, gold) in cases {
        assert_eq!(plan_all(topology, f, seeds), gold, "{topology} f={f}");
    }
}
