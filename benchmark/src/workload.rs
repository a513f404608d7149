//! The benchmark's declared surface — workloads and metric names, kept in
//! lock-step with `BENCHMARK.json` by the tests below — and the loading of
//! a workload's `.scenario` templates.

use std::path::PathBuf;

/// Default `--seed` and `--seconds`; the latter equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Iterations per workload under `--quick`.
pub const QUICK_ITERATIONS: usize = 2;
/// How many times a run sets up (read, template, warm-up iteration);
/// `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The placeholder every workload file carries on its `seed0` line.
pub const SEED_PLACEHOLDER: &str = "{{SEED}}";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `nab-sim --scenario F --json`: parse → run_sweep → to_json.
    Sweep,
    /// `nab-sim --validate F`: parse → expand_jobs → build → plan.
    PlanOnly,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    /// Jobs must additionally sit inside the Eq. 6 / Theorem 2 envelope.
    pub check_envelope: bool,
    /// Minimum dispute rounds and replans one iteration must record.
    pub min_disputes: u64,
    pub min_replans: u64,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "clean-small",
        kind: Kind::Sweep,
        check_envelope: true,
        min_disputes: 0,
        min_replans: 0,
        why: "fault-free 16/64-symbol payloads on K4-K7, EIG and Phase-King: the amortised common case, where flag broadcast is ~75% of the wall and coding <15%",
    },
    WorkloadDef {
        name: "clean-bulk",
        kind: Kind::Sweep,
        check_envelope: false,
        min_disputes: 0,
        min_replans: 0,
        why: "fault-free 128 KiB payloads: equality-check GF(2^16) slab products are ~90% of the wall, flags ~4%, so a GF change shows and a flag change must not",
    },
    WorkloadDef {
        name: "dispute-storm",
        kind: Kind::Sweep,
        check_envelope: false,
        min_disputes: 4,
        min_replans: 4,
        why: "colluding and rotating corruptors with a degrade schedule: dispute control (claims-sized broadcasts) plus G_k replans are ~70% of the wall",
    },
    WorkloadDef {
        name: "plan-cold",
        kind: Kind::PlanOnly,
        check_envelope: false,
        min_disputes: 0,
        min_replans: 0,
        why: "cold plans of torus, fat-tree, dragonfly and sparse/dense random 3-connected fabrics (36-64 nodes): netgraph and the router proof do all the work, execution layers none",
    },
    WorkloadDef {
        name: "wan-replay",
        kind: Kind::Sweep,
        check_envelope: false,
        min_disputes: 0,
        min_replans: 0,
        why: "the sparse dispute-storm file with net = on under 20ms +-5ms links: message-level replay over the nab-net event kernel is ~70% of the wall",
    },
];

pub fn find_workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with their regression bounds (share of the parent's
/// median by which the metric may worsen). The bounds follow the measured
/// run-to-run spread on the shared 2-CPU box (README, "Steadiness"): wall
/// times of ten 20 s runs spread 5-17% between their quartiles, so the
/// timing bounds sit at the contract's ceiling.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("iter_ms_p50", "ms"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
];

/// Per-layer metrics reported by the traced run, grouped by crate.
pub const PER_LAYER: [MetricDef; 52] = [
    // The paper's figure of merit, deterministic per seed: moves only if
    // protocol cost accounting changes.
    higher("sim_throughput", "bits/tu"),
    // nab-gf
    lower("gf.mat_mul_ns_per_kib", "ns/KiB"),
    lower("gf.mul_row_add_ns_per_kib", "ns/KiB"),
    // nab-netgraph
    lower("netgraph.topology_build_ms", "ms"),
    lower("netgraph.connectivity_ms", "ms"),
    lower("netgraph.gamma_ms", "ms"),
    lower("netgraph.pack_arborescences_ms", "ms"),
    lower("netgraph.canon_key_us", "us"),
    // nab-bb
    lower("bb.router_build_ms", "ms"),
    lower("bb.router_paths_us", "us"),
    lower("bb.bit_broadcast_us", "us"),
    lower("bb.claims_broadcast_ms", "ms"),
    lower("bb.msgs_per_bit_broadcast", "count"),
    // nab-sim
    lower("sim.round_us", "us"),
    // nab-net
    lower("net.event_ns", "ns"),
    lower("net.replay_ms_per_instance", "ms"),
    // nab (core)
    lower("core.plan_build_ms", "ms"),
    lower("core.rho_ms", "ms"),
    lower("core.plan_unattributed_share", "share"),
    lower("core.plan_load_ms", "ms"),
    lower("core.engine_setup_us", "us"),
    lower("core.phase1_us", "us"),
    lower("core.equality_us", "us"),
    lower("core.flags_us", "us"),
    lower("core.dispute_ms", "ms"),
    lower("core.instance_us", "us"),
    lower("core.instance_post_dispute_us", "us"),
    // nab-scenario
    lower("scenario.parse_us", "us"),
    lower("scenario.run_job_ms_p50", "ms"),
    lower("scenario.run_job_ms_p90", "ms"),
    lower("scenario.report_json_ms", "ms"),
    lower("scenario.overhead_share", "share"),
    lower("scenario.unattributed_share", "share"),
    higher("scenario.pool_speedup_2t", "ratio"),
    // nab-obs
    lower("obs.trace_overhead_share", "share"),
    // harness
    lower("harness.span_overhead_share", "share"),
    lower("harness.iter_ms_p90", "ms"),
    lower("harness.iter_ms_iqr", "ms"),
    // Where the jobs' time goes: stepped-job span totals (and the replay
    // difference) as shares of the `run_job` total.
    lower("share.plan", "share"),
    lower("share.bounds", "share"),
    lower("share.phase1", "share"),
    lower("share.equality", "share"),
    lower("share.flags", "share"),
    lower("share.dispute", "share"),
    lower("share.replay", "share"),
    lower("share.replan", "share"),
    // Exact counts from the canonical report of one iteration.
    higher("count.instances", "count"),
    higher("count.dispute_rounds", "count"),
    lower("count.plan_builds", "count"),
    lower("count.plan_repairs", "count"),
    lower("count.plan_full_recomputes", "count"),
    lower("count.report_bytes", "bytes"),
];

/// Where the workload files live: under the current directory when run
/// from a checkout root (how the driver and the README invoke it), else
/// next to this package's manifest.
pub fn workloads_dir() -> PathBuf {
    let from_root = PathBuf::from("benchmark/workloads");
    if from_root.is_dir() {
        from_root
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads")
    }
}

/// Substitutes `seed` into a workload template. The template must carry
/// the placeholder exactly once, on its `seed0` line, so the program
/// under test sees only generated scenario text.
pub fn template(text: &str, seed: u64) -> Result<String, String> {
    let on_seed0 = text.lines().filter(|line| {
        let code = line.split('#').next().unwrap_or("");
        code.split_once('=')
            .is_some_and(|(k, v)| k.trim() == "seed0" && v.trim() == SEED_PLACEHOLDER)
    });
    if on_seed0.count() != 1 || text.matches(SEED_PLACEHOLDER).count() != 1 {
        return Err(format!(
            "template must contain exactly one `seed0 = {SEED_PLACEHOLDER}` line"
        ));
    }
    Ok(text.replace(SEED_PLACEHOLDER, &seed.to_string()))
}

/// Reads and templates every `.scenario` file of a workload, in file-name
/// order. Returns `(file name, scenario text)` pairs.
pub fn load(workload: &WorkloadDef, seed: u64) -> Result<Vec<(String, String)>, String> {
    let dir = workloads_dir().join(workload.name);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".scenario"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no .scenario files under {}", dir.display()));
    }
    names
        .into_iter()
        .map(|name| {
            let path = dir.join(&name);
            let raw = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let text = template(&raw, seed).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((name, text))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templating_substitutes_the_seed_once() {
        let t = "name = x\nseed0 = {{SEED}}  # from --seed\nq = 2\n";
        assert_eq!(
            template(t, 42).unwrap(),
            "name = x\nseed0 = 42  # from --seed\nq = 2\n"
        );
        // Same seed, same text; another seed, another text.
        assert_eq!(template(t, 42), template(t, 42));
        assert_ne!(template(t, 42), template(t, 43));
    }

    #[test]
    fn templating_rejects_missing_duplicate_or_misplaced_placeholders() {
        assert!(template("name = x\nseed0 = 7\n", 1).is_err());
        assert!(template("seed0 = {{SEED}}\nseeds = {{SEED}}\n", 1).is_err());
        assert!(template("seeds = {{SEED}}\n", 1).is_err());
        assert!(template("# seed0 = {{SEED}}\n", 1).is_err());
    }

    #[test]
    fn every_bundled_workload_file_templates_and_parses() {
        for w in &WORKLOADS {
            let files = load(w, DEFAULT_SEED).unwrap();
            assert!(!files.is_empty(), "{}", w.name);
            for (name, text) in files {
                let spec = nab_scenario::parse_str(&text)
                    .unwrap_or_else(|e| panic!("{}/{name}: {e}", w.name));
                assert_eq!(spec.seed0, DEFAULT_SEED);
            }
        }
    }

    /// A name as the benchmark contract allows it.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_prints() {
        use crate::json::{self, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(doc.get("paths").unwrap().as_arr(), [Json::str("benchmark")]);
        assert!(doc
            .get("command")
            .unwrap()
            .as_arr()
            .contains(&Json::str("benchmark/Cargo.toml")));

        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let printed: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, printed);

        let metric = |m: &Json| (field(m, "name"), field(m, "unit"), field(m, "better"));
        let own = |m: &MetricDef| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        };
        let e2e = doc.get("end_to_end").unwrap().as_arr();
        assert_eq!(
            e2e.iter().map(metric).collect::<Vec<_>>(),
            END_TO_END.iter().map(|(m, _)| own(m)).collect::<Vec<_>>()
        );
        for (item, (_, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(*bound));
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert_eq!(
            doc.get("per_layer")
                .unwrap()
                .as_arr()
                .iter()
                .map(metric)
                .collect::<Vec<_>>(),
            PER_LAYER.iter().map(own).collect::<Vec<_>>()
        );

        // Names are well-formed and used once across the whole file.
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
    }
}
