//! `nab-benchmark` — the end-to-end and per-layer benchmark harness.
//!
//! ```text
//! nab-benchmark [run]   [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!                       [--quick] [--out FILE] [--spans FILE]
//! nab-benchmark trace   …                       (run --trace 1)
//! nab-benchmark compare A.json B.json
//! ```
//!
//! One process measures one workload. Without `--workload` the binary
//! re-executes itself once per workload, strictly one after another, so
//! peak memory does not leak across workloads and nothing runs
//! concurrently. See README.md for metric definitions.

mod compare;
mod json;
mod probes;
mod record;
mod run;
mod span;
mod stats;
mod stepped;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use workload::{WorkloadDef, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
nab-benchmark [run|trace] [--workload W] [--seed S] [--seconds T] [--trace 0|1]
              [--quick] [--out FILE] [--spans FILE]
nab-benchmark compare A.json B.json

  --workload W   one of: clean-small clean-bulk dispute-storm plan-cold wan-replay
                 (default: all, one child process each, sequentially)
  --seed S       substituted into every workload file's seed0 (default 11)
  --seconds T    iteration wall to accumulate per workload (default 20)
  --trace 0|1    0 = end-to-end metrics, untraced (default);
                 1 = per-layer metrics from the traced run
  --quick        2 iterations, one set-up, same checks
  --out FILE     append this run's full record (one JSON line) to FILE
  --spans FILE   traced run only: write the recorded spans as JSON lines
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_run_args(args: &[String], trace_default: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: trace_default,
        quick: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: bad number".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds: need a positive number".to_string())?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?),
            "--spans" => parsed.spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process and prints its result.
fn run_one(w: &'static WorkloadDef, args: &Args, process_start: std::time::Instant) -> ExitCode {
    let result = if args.trace {
        trace::run(
            w,
            args.seed,
            args.seconds,
            args.quick,
            args.spans.as_deref(),
        )
    } else {
        cap_malloc_arenas();
        run::run(w, args.seed, args.seconds, args.quick, process_start)
            .map(|e2e| record::from_end_to_end(w, args.seed, args.seconds, args.quick, &e2e))
    };
    let rec = match result {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("nab-benchmark: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    print!("{}", rec.human());
    if let Some(path) = &args.out {
        if let Err(e) = rec.append_to(path) {
            eprintln!("nab-benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", rec.contract_line().render());
    if rec.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this binary once per workload, one after another, echoing
/// each child's output and folding the contract lines into one summary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nab-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        if let Some(spans) = &args.spans {
            cmd.args(["--spans", &format!("{spans}.{}", w.name)]);
        }
        // `output` waits for the child, so no process outlives this loop.
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("nab-benchmark: cannot start child for {}: {e}", w.name);
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let mut lines: Vec<&str> = stdout.lines().collect();
        let line = lines.pop().and_then(|l| json::parse(l).ok());
        for l in &lines {
            println!("{l}");
        }
        let Some(line) = line else {
            eprintln!("nab-benchmark: {} printed no result", w.name);
            return ExitCode::from(2);
        };
        correct &= output.status.success() && line.get("correct") == Some(&Json::Bool(true));
        attempted += line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, value) in line.get("metrics").map_or(&[][..], Json::as_obj) {
            metrics.push((format!("{}/{name}", w.name), value.clone()));
        }
    }
    let summary = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", summary.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Caps glibc malloc at one arena, for the run that measures `peak_rss_mb`.
///
/// Every sweep spawns a fresh worker thread, and glibc hands sequentially
/// spawned threads different arenas (round-robin once a cap is reached):
/// memory freed by one iteration is not reused by the next, so a process
/// that serves many iterations reports a peak RSS up to twice that of the
/// single CLI invocation it stands for, and a different one on every run
/// (85-165 MB for the same seed on `wan-replay`; 86 +- 0.5 MB with one
/// arena). One arena makes `peak_rss_mb` the workload's own demand. The
/// traced run keeps the default allocator: it reports no memory, and two
/// workers sharing one arena would make `scenario.pool_speedup_2t` a
/// measurement of the malloc lock.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_ARENA_MAX: std::ffi::c_int = -8;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, touches no memory of ours, and is called before any
    // other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() -> ExitCode {
    let process_start = nab_obs::clock::mono_now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("trace") => ("trace", &argv[1..]),
        Some("compare") => ("compare", &argv[1..]),
        Some("-h" | "--help" | "help") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("run", &argv[..]),
    };
    if command == "compare" {
        return match rest {
            [a, b] => compare::main(a, b),
            _ => {
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_run_args(rest, command == "trace") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nab-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::find_workload(name) {
            Some(w) => run_one(w, &args, process_start),
            None => {
                eprintln!("nab-benchmark: unknown workload {name:?}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
