//! The canonical byte-identity golden: one row per bundled scenario
//! (`scenarios/*.scenario`) and per benchmark workload file
//! (`benchmark/workloads/*/*.scenario`, `{{SEED}}` = 11), holding the
//! FNV-1a of the sweep's canonical JSON and one digest per job.
//!
//! Canonical JSON is byte-identical across every execution mode, so every
//! row is checked under each of [`MODES`]: 1 and 4 worker threads, tracing
//! on and off, an in-memory plan cache and the disk tier cold and warm. A
//! per-job digest is the FNV-1a of that job's report alone, so a mismatch
//! names the first job that diverges rather than just "differs".
//!
//! On a mismatch the test prints the whole new table. A change that is
//! meant to move canonical output replaces `tests/golden/canonical.tsv`
//! with it, as one reviewed diff.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nab_repro::nab::plan::PlanCache;
use nab_repro::obs::trace::TraceSink;
use nab_repro::obs::BufferSink;
use nab_repro::scenario::sweep::assemble_report;
use nab_repro::scenario::{parse_str, run_sweep_with_options, SweepOptions};

const GOLDEN: &str = include_str!("golden/canonical.tsv");

/// Rows too slow for a debug build (`dc-grid` plans 1,024-node networks):
/// release builds check them, debug builds carry the golden row over.
const RELEASE_ONLY: &[&str] = &["scenarios/dc-grid.scenario"];

/// The plan cache a mode runs through.
#[derive(Clone, Copy, Debug)]
enum Cache {
    /// A cache private to the sweep.
    Memory,
    /// The disk tier over a directory no run has written yet.
    DiskCold,
    /// The disk tier over the directory `DiskCold` filled.
    DiskWarm,
}

/// `(worker threads, traced, plan cache)`; the first mode's table is the
/// one printed on a mismatch.
const MODES: [(usize, bool, Cache); 3] = [
    (1, false, Cache::Memory),
    (4, true, Cache::DiskCold),
    (4, false, Cache::DiskWarm),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `.scenario` files directly under `dir`, sorted, as paths relative
/// to the repository root.
fn scenario_files(root: &Path, dir: &str) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(root.join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .map(|p| format!("{dir}/{}", p.file_name().unwrap().to_string_lossy()))
        .collect();
    out.sort();
    out
}

/// Every file the table covers, in table order, with its text (workload
/// files with `{{SEED}}` set to 11).
fn files() -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut paths = scenario_files(&root, "scenarios");
    let mut workloads: Vec<String> = std::fs::read_dir(root.join("benchmark/workloads"))
        .expect("benchmark/workloads")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    workloads.sort();
    for w in workloads {
        paths.extend(scenario_files(&root, &format!("benchmark/workloads/{w}")));
    }
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(root.join(&path)).expect("readable scenario");
            (path, text.replace("{{SEED}}", "11"))
        })
        .collect()
}

/// One table row: the file, its canonical digest and its job digests.
fn row(path: &str, text: &str, threads: usize, traced: bool, cache: &PlanCache) -> String {
    let spec = parse_str(text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let sink = traced.then(|| Arc::new(BufferSink::new()));
    let opts = SweepOptions {
        threads,
        cache: Some(cache),
        trace: sink.clone().map(|s| s as Arc<dyn TraceSink>),
        progress: None,
    };
    let report = run_sweep_with_options(&spec, &opts).unwrap_or_else(|e| panic!("{path}: {e}"));
    if let Some(sink) = sink {
        assert!(!sink.take_sorted().is_empty(), "{path}: a traced run emits");
    }
    let jobs: Vec<String> = (report.jobs.iter())
        .map(|job| assemble_report(&spec, vec![job.clone()]).to_json())
        .map(|json| format!("{:016x}", fnv1a(json.as_bytes())))
        .collect();
    let canonical = fnv1a(report.to_json().as_bytes());
    format!("{path}\t{canonical:016x}\t{}", jobs.join(" "))
}

/// Where `got` first differs from `want`: the first job, else the
/// canonical digest.
fn divergence(got: &str, want: &str) -> String {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.split('\t').collect(), want.split('\t').collect());
    let (gj, wj): (Vec<&str>, Vec<&str>) = (
        g.get(2).map_or(vec![], |s| s.split(' ').collect()),
        w.get(2).map_or(vec![], |s| s.split(' ').collect()),
    );
    match (0..gj.len().max(wj.len())).find(|&i| gj.get(i) != wj.get(i)) {
        Some(i) => {
            let (got, want) = (gj.get(i).unwrap_or(&"none"), wj.get(i).unwrap_or(&"none"));
            format!("job {i} diverges first ({got} vs golden {want})")
        }
        None => {
            let (got, want) = (g.get(1).unwrap_or(&"none"), w.get(1).unwrap_or(&"none"));
            format!("canonical {got} vs golden {want}")
        }
    }
}

#[test]
fn canonical_json_matches_the_golden_table_in_every_mode() {
    let golden: Vec<&str> = GOLDEN.lines().skip(1).collect();
    let header = GOLDEN.lines().next().expect("a header line");
    let golden_row = |path: &str| {
        golden
            .iter()
            .find(|r| r.split('\t').next() == Some(path))
            .copied()
    };
    let dir = std::env::temp_dir().join(format!("nab-canonical-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = files();
    let mut failures = Vec::new();
    for (threads, traced, cache) in MODES {
        let plans = match cache {
            Cache::Memory => None,
            Cache::DiskCold | Cache::DiskWarm => Some(PlanCache::with_dir(&dir)),
        };
        let mut table = vec![header.to_string()];
        let mut diverged = Vec::new();
        for (path, text) in &files {
            let carried = cfg!(debug_assertions) && RELEASE_ONLY.contains(&path.as_str());
            let got = match (carried, golden_row(path)) {
                (true, Some(want)) => want.to_string(),
                _ => {
                    let memory = PlanCache::new();
                    row(
                        path,
                        text,
                        threads,
                        traced,
                        plans.as_ref().unwrap_or(&memory),
                    )
                }
            };
            match golden_row(path) {
                Some(want) if want == got => {}
                Some(want) => diverged.push(format!("{path}: {}", divergence(&got, want))),
                None => diverged.push(format!("{path}: no golden row")),
            }
            table.push(got);
        }
        if table.len() != golden.len() + 1 {
            diverged.push(format!(
                "{} rows vs golden {}",
                table.len() - 1,
                golden.len()
            ));
        }
        if !diverged.is_empty() {
            failures.push(format!(
                "threads {threads}, traced {traced}, cache {cache:?}:\n  {}\nnew table:\n{}\n",
                diverged.join("\n  "),
                table.join("\n")
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        failures.is_empty(),
        "canonical JSON moved (rows in {RELEASE_ONLY:?} are carried over from the golden \
         in debug builds):\n{}",
        failures.join("\n")
    );
}
