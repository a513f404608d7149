//! `nab-sim` — run NAB simulations from the command line.
//!
//! Two modes:
//!
//! - **Single run** (default): one topology, one fault set, one adversary,
//!   `Q` instances; prints throughput and dispute state.
//!
//!   ```text
//!   nab-sim --topology complete:5:2 --f 1 --symbols 64 --q 10 \
//!           --faulty 2 --adversary corruptor --broadcast eig --bounds
//!   ```
//!
//! - **Scenario sweep**: a declarative `.scenario` file expanded into a
//!   parameter grid and run across worker threads (see `docs/scenarios.md`
//!   and the bundled `scenarios/` library).
//!
//!   ```text
//!   nab-sim --scenario scenarios/fig1a.scenario --threads 4 --json -
//!   ```
//!
//! - **Validate**: parse a `.scenario` file and *plan* every grid point
//!   (topology realization, γ/ρ, arborescence packing, routing tables)
//!   without executing a single instance.
//!
//!   ```text
//!   nab-sim --validate scenarios/scale-grid.scenario
//!   ```

use std::collections::BTreeSet;
use std::io::IsTerminal;
use std::process::ExitCode;
use std::sync::Arc;

use nab_repro::nab::bounds::bounds_report;
use nab_repro::nab::engine::{run_many, NabConfig, NabEngine};
use nab_repro::nab::plan::PlanCache;
use nab_repro::nab::BroadcastKind;
use nab_repro::netgraph::DiGraph;
use nab_repro::obs::trace::TraceSink;
use nab_repro::obs::{writer, BufferSink};
use nab_repro::scenario::topology::ResolveCtx;
use nab_repro::scenario::{self, AdversarySpec, ProgressSnapshot, SweepOptions, TopologyTemplate};

const HELP: &str =
    "nab-sim — Network-Aware Byzantine broadcast simulator (Liang & Vaidya, PODC 2012)

USAGE:
    nab-sim [OPTIONS]                         single run
    nab-sim --scenario FILE [OPTIONS]         declarative sweep
    nab-sim --validate FILE                   plan a scenario, don't run it

Flags are mode-exclusive: scenario sweeps take their parameters from the
.scenario file, so single-run flags error under --scenario (and vice versa).

SCENARIO MODE:
    --scenario FILE     run a .scenario file (see docs/scenarios.md)
    --threads N         worker threads for the sweep (0 = one per CPU;
                        overrides the file's `threads` key)
    --net               execute message-level over the nab-net event
                        kernel: phase durations come from simulated
                        latency/jitter/loss on every link (the file's
                        `link_model` key; see docs/network-sim.md).
                        Overrides the file's `net` key to on
    --plan-cache-dir D  persist network plans under directory D,
                        content-addressed by canonical digest; later runs
                        over the same networks load plans from disk
                        instead of rebuilding them. Results are
                        byte-identical with or without the directory
                        (see docs/plan-cache.md)
    --json PATH         write the full sweep report as JSON (- = stdout)
    --timings           include measured wall-clock wall_*_ns, plan-cache,
                        latency-percentile, and metrics fields in the JSON
                        report (requires --json; omitted by default so
                        identical sweeps serialize byte-identically — see
                        docs/perf.md)
    --trace PATH        write a structured event trace of the sweep to PATH
                        (- = stdout). Default format is JSONL: one event
                        object per line, covering sweep/job/instance/phase
                        spans plus plan-cache and dispute events (see
                        docs/observability.md)
    --trace-format FMT  jsonl (default) | chrome. chrome emits a Chrome
                        trace_event file loadable in about:tracing or
                        Perfetto (requires --trace)
    --progress          live sweep progress on stderr after every finished
                        job: jobs done/total, instances/sec, dispute
                        rounds, plan-cache hit rate

VALIDATE MODE:
    --validate FILE     parse FILE and build every grid point's network
                        plan (validation, γ/ρ, arborescence packing,
                        routing tables) without executing instances.
                        Exit codes: 0 = every grid point plans, 1 = the
                        file cannot be read/parsed, 2 = some grid points
                        fail planning (each failure is reported)

SINGLE-RUN MODE:
    --topology SPEC     topology (default complete:4:2). Families:
                          complete:N:CAP      hetero:N:LO:HI
                          ring:N:CAP          barbell:HALF:CAP:BRIDGES:BCAP
                          circulant:N:M:CAP   kconnected:N:K:MAXCAP:EXTRA%
                          fig1a | fig1b | fig2a | fig2a-closed
                        (the figure graphs are too sparse for f ≥ 1; run
                        them with --f 0, and use fig2a-closed for fig2a —
                        the raw figure has no return path to the source)
    --f F               fault bound (default 1)
    --symbols S         input size in 16-bit symbols (default 64)
    --q Q               broadcast instances (default 10)
    --faulty IDS        comma-separated ground-truth faulty node ids
    --adversary SPEC    honest | corruptor | liar | false-alarm | equivocate
                        | garbler | random:P | collude:SCAPEGOAT:CORRUPTOR
    --broadcast KIND    eig | phase-king (default eig)
    --seed SEED         base RNG seed (default 7)
    --bounds            also print the paper's Eq.6/Theorem-2 bounds

GENERAL:
    -h, --help          show this help
";

/// Serialization for `--trace` output.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

struct Args {
    scenario: Option<String>,
    validate: Option<String>,
    threads: Option<usize>,
    json: Option<String>,
    timings: bool,
    trace: Option<String>,
    trace_format: Option<TraceFormat>,
    progress: bool,
    net: bool,
    plan_cache_dir: Option<String>,
    topology: String,
    f: usize,
    symbols: usize,
    q: usize,
    faulty: BTreeSet<usize>,
    adversary: String,
    broadcast: BroadcastKind,
    seed: u64,
    show_bounds: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        scenario: None,
        validate: None,
        threads: None,
        json: None,
        timings: false,
        trace: None,
        trace_format: None,
        progress: false,
        net: false,
        plan_cache_dir: None,
        topology: "complete:4:2".into(),
        f: 1,
        symbols: 64,
        q: 10,
        faulty: BTreeSet::new(),
        adversary: "honest".into(),
        broadcast: BroadcastKind::Eig,
        seed: 7,
        show_bounds: false,
    };
    // Flags only meaningful in one of the two modes, tracked so an
    // inapplicable flag errors instead of being silently ignored.
    const SINGLE_ONLY: [&str; 9] = [
        "--topology",
        "--f",
        "--symbols",
        "--q",
        "--seed",
        "--faulty",
        "--adversary",
        "--broadcast",
        "--bounds",
    ];
    const SCENARIO_ONLY: [&str; 8] = [
        "--threads",
        "--json",
        "--timings",
        "--trace",
        "--trace-format",
        "--progress",
        "--net",
        "--plan-cache-dir",
    ];
    let mut single_flags: Vec<&'static str> = Vec::new();
    let mut scenario_flags: Vec<&'static str> = Vec::new();
    let mut seen_flags: Vec<String> = Vec::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
        };
        if let Some(&flag) = SINGLE_ONLY.iter().find(|&&f| f == argv[i]) {
            single_flags.push(flag);
        }
        if let Some(&flag) = SCENARIO_ONLY.iter().find(|&&f| f == argv[i]) {
            scenario_flags.push(flag);
        }
        // Repeated flags are last-wins in naive parsers; reject them like
        // the .scenario format rejects duplicate keys.
        if argv[i].starts_with("--") && seen_flags.contains(&argv[i]) {
            return Err(format!(
                "duplicate flag {} (pass each flag at most once; \
                 --faulty takes a comma-separated list)",
                argv[i]
            ));
        }
        seen_flags.push(argv[i].clone());
        match argv[i].as_str() {
            "--scenario" => args.scenario = Some(take(&mut i)?),
            "--validate" => args.validate = Some(take(&mut i)?),
            "--threads" => {
                args.threads = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--json" => args.json = Some(take(&mut i)?),
            "--timings" => args.timings = true,
            "--trace" => args.trace = Some(take(&mut i)?),
            "--trace-format" => {
                args.trace_format = Some(match take(&mut i)?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(format!(
                            "unknown trace format {other:?} (known: jsonl, chrome)"
                        ))
                    }
                })
            }
            "--progress" => args.progress = true,
            "--net" => args.net = true,
            "--plan-cache-dir" => args.plan_cache_dir = Some(take(&mut i)?),
            "--topology" => args.topology = take(&mut i)?,
            "--f" => args.f = take(&mut i)?.parse().map_err(|e| format!("--f: {e}"))?,
            "--symbols" => {
                args.symbols = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--symbols: {e}"))?
            }
            "--q" => args.q = take(&mut i)?.parse().map_err(|e| format!("--q: {e}"))?,
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faulty" => {
                for part in take(&mut i)?.split(',') {
                    args.faulty
                        .insert(part.trim().parse().map_err(|e| format!("--faulty: {e}"))?);
                }
            }
            "--adversary" => args.adversary = take(&mut i)?,
            "--broadcast" => {
                args.broadcast = match take(&mut i)?.as_str() {
                    "eig" => BroadcastKind::Eig,
                    "phase-king" => BroadcastKind::PhaseKing,
                    other => {
                        return Err(format!(
                            "unknown broadcast kind {other:?} (known: eig, phase-king)"
                        ))
                    }
                }
            }
            "--bounds" => args.show_bounds = true,
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    if args.validate.is_some() {
        if args.scenario.is_some() {
            return Err("--validate and --scenario are mutually exclusive".into());
        }
        if let Some(&flag) = single_flags.first().or(scenario_flags.first()) {
            return Err(format!(
                "{flag} does not apply to --validate (validation only parses and plans)"
            ));
        }
    } else if args.scenario.is_some() {
        if let Some(flag) = single_flags.first() {
            return Err(format!(
                "{flag} applies to single-run mode only; with --scenario, set it in the \
                 .scenario file instead"
            ));
        }
    } else if let Some(flag) = scenario_flags.first() {
        return Err(format!("{flag} requires --scenario"));
    }
    Ok(Some(args))
}

/// Builds a single-run topology. Grid variables (`$n`, `$cap`, `$f`,
/// `2f+1`) only mean something inside a `.scenario` sweep, so they are
/// rejected here rather than silently resolved to defaults.
fn build_topology(spec: &str, f: usize, seed: u64) -> Result<DiGraph, String> {
    if spec.contains('$') || spec.contains("2f+1") {
        return Err(format!(
            "topology {spec:?} uses grid variables ($n, $cap, $f, 2f+1), which only exist \
             in .scenario sweeps; use literal values in single-run mode"
        ));
    }
    let template = TopologyTemplate::parse(spec)?;
    // With no variables left, the resolve context values are never read.
    template.build(&ResolveCtx {
        n: 0,
        cap: 0,
        f,
        seed,
    })
}

/// Validate mode: parse the scenario and *plan* every grid point through
/// the planning layer — topology realization, the paper's feasibility
/// conditions, γ/ρ, arborescence packing, routing tables — without
/// executing any broadcast instance. Duplicate networks across the grid
/// plan once (the same `PlanCache` the sweep runner uses).
///
/// Exit codes: 0 = every grid point plans; 2 = some grid points fail
/// (reported per job); parse/read failures surface as `Err` → exit 1.
fn run_validate_mode(args: &Args) -> Result<ExitCode, String> {
    let path = args.validate.as_deref().expect("validate mode");
    let spec = scenario::load(path).map_err(|e| format!("{path}: {e}"))?;
    let jobs = scenario::expand_jobs(&spec);
    let cache = PlanCache::new();
    let mut failed = 0usize;
    for job in &jobs {
        let ctx = ResolveCtx {
            n: job.n,
            cap: job.cap,
            f: job.f,
            seed: job.seed,
        };
        let planned = spec
            .topology
            .build(&ctx)
            .map_err(|e| format!("topology rejected: {e}"))
            .and_then(|g| {
                cache
                    .fetch(&g, job.f)
                    .map_err(|e| format!("network rejected: {e}"))
            });
        match planned {
            Ok(fetch) => {
                let p = &fetch.plan;
                println!(
                    "job {:>3}: n={} cap={} f={} → plan ok: gamma={} rho={} trees={} \
                     router-copies={}{}",
                    job.index,
                    job.n,
                    job.cap,
                    job.f,
                    p.gamma0(),
                    p.rho0(),
                    p.trees0().len(),
                    p.router().copies(),
                    if fetch.hit { " (cached)" } else { "" },
                );
            }
            Err(e) => {
                failed += 1;
                println!(
                    "job {:>3}: n={} cap={} f={} → FAIL: {e}",
                    job.index, job.n, job.cap, job.f
                );
            }
        }
    }
    let stats = cache.stats();
    println!(
        "validated {:?}: {} grid points, {} plan ok, {} failed ({} unique plans built)",
        spec.name,
        jobs.len(),
        jobs.len() - failed,
        failed,
        stats.misses,
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Renders one `--progress` update. Separated from the I/O so the format
/// stays testable in spirit: cumulative jobs, instance rate, disputes,
/// and plan-cache hit rate.
fn progress_line(s: &ProgressSnapshot, elapsed_secs: f64) -> String {
    let rate = s.instances as f64 / elapsed_secs.max(1e-9);
    let lookups = s.plan_hits + s.plan_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        100.0 * s.plan_hits as f64 / lookups as f64
    };
    let mut line = format!(
        "jobs {}/{} | {rate:.0} inst/s | disputes {} | cache hits {hit_rate:.0}%",
        s.jobs_done, s.jobs_total, s.dispute_rounds
    );
    if s.rejected > 0 {
        line.push_str(&format!(" | rejected {}", s.rejected));
    }
    line
}

fn run_scenario_mode(args: &Args) -> Result<ExitCode, String> {
    let path = args.scenario.as_deref().expect("scenario mode");
    if args.timings && args.json.is_none() {
        return Err(
            "--timings adds wall_*_ns fields to the JSON report; pass --json PATH (or --json -) \
             to receive it"
                .into(),
        );
    }
    if args.trace_format.is_some() && args.trace.is_none() {
        return Err(
            "--trace-format selects the --trace serialization; pass --trace PATH (or --trace -) \
             to receive it"
                .into(),
        );
    }
    let json_on_stdout = args.json.as_deref() == Some("-");
    let trace_on_stdout = args.trace.as_deref() == Some("-");
    if json_on_stdout && trace_on_stdout {
        return Err(
            "--json - and --trace - both claim stdout; write at least one of them to a file".into(),
        );
    }
    let mut spec = scenario::load(path).map_err(|e| format!("{path}: {e}"))?;
    if args.net {
        spec.net = true;
    }
    // The disk tier lives behind a sweep-external cache so plans persist
    // past this process; results stay byte-identical regardless (plans
    // are content-addressed and verified on load).
    let disk_cache = args.plan_cache_dir.as_deref().map(PlanCache::with_dir);
    let threads = args.threads.unwrap_or(spec.threads);
    eprintln!(
        "scenario {:?}: {} jobs (topology {}, adversary {}, faults {}{})",
        spec.name,
        spec.job_count(),
        spec.topology.spec_string(),
        spec.adversary.spec_string(),
        spec.faults.spec_string(),
        if spec.net {
            format!(", net {}", spec.link_model.spec_string())
        } else {
            String::new()
        },
    );
    if spec.job_count() == 0 {
        eprintln!(
            "warning: scenario {:?} expands to an empty grid (an axis or `seeds` is 0); \
             nothing to run",
            spec.name
        );
        return Ok(ExitCode::from(2));
    }

    // Observability hooks: an in-memory trace sink drained to --trace
    // after the sweep, and a live --progress reporter on stderr (carriage-
    // return rewrite on a tty, one line per finished job otherwise).
    let sink = args.trace.as_ref().map(|_| Arc::new(BufferSink::new()));
    let started = nab_obs::clock::mono_now();
    let stderr_tty = std::io::stderr().is_terminal();
    let report_progress = move |s: ProgressSnapshot| {
        let line = progress_line(&s, started.elapsed().as_secs_f64());
        if stderr_tty {
            eprint!("\r{line}\x1b[K");
        } else {
            eprintln!("{line}");
        }
    };
    let opts = SweepOptions {
        threads,
        cache: disk_cache.as_ref(),
        trace: sink.clone().map(|s| s as Arc<dyn TraceSink>),
        progress: if args.progress {
            Some(&report_progress)
        } else {
            None
        },
    };
    let report = scenario::run_sweep_with_options(&spec, &opts)?;
    if args.progress && stderr_tty {
        eprintln!();
    }
    if let Some(cache) = disk_cache.as_ref() {
        let s = cache.stats();
        eprintln!(
            "plan cache dir {:?}: {} loaded from disk, {} stored, {} rejected",
            args.plan_cache_dir.as_deref().unwrap_or("-"),
            s.disk_hits,
            s.disk_stores,
            s.disk_rejects,
        );
    }
    // With `--json -` (or `--trace -`) stdout must carry pure
    // machine-readable output (pipeable to jq), so the human-readable
    // summary moves to stderr.
    let stdout_claimed = json_on_stdout || trace_on_stdout;
    let a = &report.aggregate;
    let summary = format!(
        "{}jobs: {} ok, {} rejected | instances: {} | mean throughput: {:.3} \
         (min {:.3}, max {:.3})\n\
         disputes: {} total (max {}/job, budget violated: {}) | exposures: {} | all correct: {}\n",
        report.summary_table(),
        a.ok_jobs,
        a.rejected_jobs,
        a.total_instances,
        a.mean_throughput,
        a.min_throughput,
        a.max_throughput,
        a.total_dispute_rounds,
        a.max_dispute_rounds,
        a.dispute_budget_violated,
        a.exposed_nodes,
        a.all_correct
    );
    // Serialize only when --json asked for output.
    let render = |report: &scenario::SweepReport| {
        if args.timings {
            report.to_json_pretty_timed()
        } else {
            report.to_json_pretty()
        }
    };
    if stdout_claimed {
        eprint!("{summary}");
    } else {
        print!("{summary}");
    }
    if json_on_stdout {
        print!("{}", render(&report));
    } else if let Some(path) = args.json.as_deref() {
        std::fs::write(path, render(&report)).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    if let Some(sink) = sink {
        let events = sink.take_sorted();
        let rendered = match args.trace_format.unwrap_or(TraceFormat::Jsonl) {
            TraceFormat::Jsonl => writer::to_jsonl(&events),
            TraceFormat::Chrome => writer::to_chrome_trace(&events),
        };
        if trace_on_stdout {
            print!("{rendered}");
        } else {
            let path = args.trace.as_deref().expect("sink implies --trace");
            std::fs::write(path, rendered).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
    }
    Ok(if a.all_correct && !a.dispute_budget_violated {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_single_mode(args: &Args) -> Result<ExitCode, String> {
    let g = build_topology(&args.topology, args.f, args.seed)?;
    println!(
        "network: {} ({} nodes, {} links, total capacity {})",
        args.topology,
        g.active_count(),
        g.edge_count(),
        g.total_capacity()
    );

    if args.show_bounds {
        match bounds_report(&g, 0, args.f, 1 << 18) {
            Some(r) => {
                println!(
                    "bounds: γ1={} γ*={}{} U1={} ρ*={}  Eq.6 lower={:.2}  Thm2 upper={}  fraction={:.3}",
                    r.gamma1,
                    r.gamma_star.value,
                    if r.gamma_star.exact { "" } else { " (approx)" },
                    r.u1,
                    r.rho_star,
                    r.tnab_lower,
                    r.capacity_upper,
                    r.guaranteed_fraction
                );
            }
            None => println!("bounds: undefined (U_1 < 2)"),
        }
    }

    let cfg = NabConfig {
        f: args.f,
        symbols: args.symbols,
        seed: args.seed,
    };
    let mut engine = NabEngine::new(g, cfg).map_err(|e| format!("network rejected: {e}"))?;
    engine.set_broadcast_kind(args.broadcast);

    if args.faulty.len() > args.f {
        return Err(format!(
            "--faulty names {} nodes but --f is {}",
            args.faulty.len(),
            args.f
        ));
    }
    let n = engine.original_graph().node_count();
    if let Some(&bad) = args.faulty.iter().find(|&&v| v >= n) {
        return Err(format!(
            "--faulty names node {bad}, but the network only has nodes 0..{n}"
        ));
    }
    let adv_spec = AdversarySpec::parse(&args.adversary)?;
    adv_spec.validate_for(n, &args.faulty)?;
    let mut adv = adv_spec.build(args.seed);

    let sum = run_many(&mut engine, args.q, &args.faulty, adv.as_mut(), args.seed)
        .map_err(|e| e.to_string())?;
    println!(
        "ran {} instances of {} bits: total time {:.1}, throughput {:.3} bits/unit",
        sum.instances,
        args.symbols * 16,
        sum.total_time,
        sum.throughput
    );
    println!(
        "dispute rounds: {}  disputes: {:?}  removed: {:?}",
        sum.dispute_rounds,
        engine.disputes().pairs,
        engine.disputes().removed
    );
    println!(
        "correctness (agreement + validity in every instance): {}",
        sum.all_correct
    );
    Ok(if sum.all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.validate.is_some() {
        run_validate_mode(&args)
    } else if args.scenario.is_some() {
        run_scenario_mode(&args)
    } else {
        run_single_mode(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
