//! `nab-sim` — run NAB simulations from the command line.
//!
//! There is one run path: a [`ScenarioSpec`] handed to the sweep runner.
//! The spec is written one of two ways.
//!
//! - **Flags** describe a one-job spec — one topology, one fault set, one
//!   adversary, `Q` instances:
//!
//!   ```text
//!   nab-sim --topology complete:5:2 --f 1 --symbols 64 --q 10 \
//!           --faulty 2 --adversary corruptor --broadcast eig --bounds
//!   ```
//!
//! - **A `.scenario` file** declares a parameter grid the runner expands
//!   into jobs (see `docs/scenarios.md` and the bundled `scenarios/`):
//!
//!   ```text
//!   nab-sim --scenario scenarios/fig1a.scenario --threads 4 --json -
//!   ```
//!
//! Every output option (`--json`, `--trace`, `--progress`, …) applies to
//! both. Separately, **validate** parses a `.scenario` file and *plans*
//! every grid point (topology realization, γ/ρ, arborescence packing,
//! routing tables) without executing a single instance:
//!
//! ```text
//! nab-sim --validate scenarios/scale-grid.scenario
//! ```

use std::io::IsTerminal;
use std::process::ExitCode;
use std::sync::Arc;

use nab_repro::nab::bounds::bounds_report;
use nab_repro::nab::plan::PlanCache;
use nab_repro::nab::BroadcastKind;
use nab_repro::obs::trace::{Event, TraceSink};
use nab_repro::obs::{writer, BufferSink};
use nab_repro::scenario::grammar::forms;
use nab_repro::scenario::{
    self, link_model, AdversarySpec, FaultSchedule, ProgressSnapshot, ScenarioSpec, SweepOptions,
    TopologyTemplate,
};

/// The help text; the forms each key takes come from the grammar tables.
fn help() -> String {
    let (mut forms_text, mut last) = (String::new(), "");
    for (key, signature, about) in forms() {
        if key != last {
            forms_text.push_str(&format!("    {key}\n"));
            last = key;
        }
        forms_text.push_str(&format!("      {signature:<33} {about}\n"));
    }
    format!(
        "nab-sim — Network-Aware Byzantine broadcast simulator (Liang & Vaidya, PODC 2012)

USAGE:
    nab-sim [RUN FLAGS] [OPTIONS]             one run, described by flags
    nab-sim --scenario FILE [OPTIONS]         the runs a .scenario file declares
    nab-sim --validate FILE                   plan a scenario, don't run it

Both forms run the same way: the run flags build a one-job scenario. With
--scenario the file is the whole description, so a run flag is an error.

RUN FLAGS:
    --topology SPEC     topology with literal parameters (default
                        complete:4:2); families are listed below
    --f F               fault bound (default 1)
    --symbols S         input size in 16-bit symbols (default 64)
    --q Q               broadcast instances (default 10)
    --faulty IDS        comma-separated ground-truth faulty node ids
    --adversary SPEC    Byzantine strategy of the faulty nodes (default
                        honest); the forms are listed below
    --broadcast KIND    eig | phase-king (default eig)
    --seed SEED         base RNG seed (default 7)
    --bounds            also compute the paper's Eq.6/Theorem-2 bounds and
                        print the γ1/γ*/U1/ρ* line
    A run the network cannot host (too many faulty nodes, a faulty node
    outside the graph, connectivity < 2f+1) exits non-zero with the
    reason. Dispute pairs and removed nodes are in the --json report.

OPTIONS:
    --scenario FILE     run a .scenario file (see docs/scenarios.md)
    --threads N         worker threads (0 = one per CPU, the default)
    --plan-cache-dir D  persist network plans under directory D,
                        content-addressed by canonical digest; later runs
                        over the same networks load plans from disk
                        instead of rebuilding them. Results are
                        byte-identical with or without the directory
                        (see docs/plan-cache.md)
    --json PATH         write the full report as JSON (- = stdout)
    --timings           include measured wall-clock wall_*_ns, plan-cache,
                        latency-percentile, and metrics fields in the JSON
                        report (requires --json; omitted by default so
                        identical runs serialize byte-identically — see
                        docs/perf.md)
    --trace PATH        write a structured event trace to PATH
                        (- = stdout). Default format is JSONL: one event
                        object per line, covering sweep/job/instance/phase
                        spans plus plan-cache and dispute events (see
                        docs/observability.md)
    --trace-format FMT  jsonl (default) | chrome. chrome emits a Chrome
                        trace_event file loadable in about:tracing or
                        Perfetto (requires --trace)
    --progress          live progress on stderr after every finished
                        job: jobs done/total, instances/sec, dispute
                        rounds, plan-cache hit rate
    -h, --help          show this help

VALIDATE:
    --validate FILE     parse FILE and build every grid point's network
                        plan (validation, γ/ρ, arborescence packing,
                        routing tables) without executing instances.
                        Exit codes: 0 = every grid point plans, 1 = the
                        file cannot be read/parsed, 2 = some grid points
                        fail planning (each failure is reported)

FORMS (a file's topology, adversary, faults, mutations and link_model keys;
--topology and --adversary take the first two, and --faulty IDS is
`faults = fixed:IDS`. In a file a topology parameter may also be $n, $cap,
$f or 2f+1; the figure graphs need --f 0, and fig2a-closed for fig2a. A
[:PARAM] may be omitted for its default):
{forms_text}"
    )
}

struct Args {
    scenario: Option<String>,
    validate: Option<String>,
    threads: usize,
    json: Option<String>,
    timings: bool,
    trace: Option<String>,
    /// The `--trace-format` serializer; JSONL when not given.
    trace_format: Option<fn(&[Event]) -> String>,
    progress: bool,
    plan_cache_dir: Option<String>,
    /// The one-job spec the run flags describe (all defaults when none is
    /// given), and the first run flag seen.
    spec: ScenarioSpec,
    run_flag: Option<String>,
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        scenario: None,
        validate: None,
        threads: 0,
        json: None,
        timings: false,
        trace: None,
        trace_format: None,
        progress: false,
        plan_cache_dir: None,
        spec: ScenarioSpec {
            topology: TopologyTemplate::parse("complete:4:2")?,
            symbols: vec![64],
            q: 10,
            ..ScenarioSpec::new("nab-sim")
        },
        run_flag: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut seen_flags: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut take = || -> Result<&str, String> {
            i += 1;
            let value = argv
                .get(i)
                .ok_or_else(|| format!("missing value for {flag}"))?;
            Ok(value.as_str())
        };
        // Repeated flags are last-wins in naive parsers; reject them like
        // the .scenario format rejects duplicate keys.
        if flag.starts_with("--") && seen_flags.contains(&flag) {
            return Err(format!(
                "duplicate flag {flag} (pass each flag at most once; \
                 --faulty takes a comma-separated list)"
            ));
        }
        seen_flags.push(flag);
        match flag {
            "--scenario" => args.scenario = Some(take()?.into()),
            "--validate" => args.validate = Some(take()?.into()),
            "--threads" => args.threads = num(flag, take()?)?,
            "--json" => args.json = Some(take()?.into()),
            "--timings" => args.timings = true,
            "--trace" => args.trace = Some(take()?.into()),
            "--trace-format" => {
                args.trace_format = Some(match take()? {
                    "jsonl" => writer::to_jsonl,
                    "chrome" => writer::to_chrome_trace,
                    other => {
                        return Err(format!(
                            "unknown trace format {other:?} (known: jsonl, chrome)"
                        ))
                    }
                })
            }
            "--progress" => args.progress = true,
            "--plan-cache-dir" => args.plan_cache_dir = Some(take()?.into()),
            "--help" | "-h" => {
                print!("{}", help());
                return Ok(None);
            }
            // Every other flag describes the run itself: it sets the
            // field of the one-job spec a .scenario key would.
            _ => {
                let spec = &mut args.spec;
                match flag {
                    "--topology" => {
                        let value = take()?;
                        spec.topology = TopologyTemplate::parse(value)?;
                        if spec.topology.uses_grid_variables() {
                            return Err(format!(
                                "topology {value:?} uses grid variables ($n, $cap, $f, 2f+1), \
                                 which only exist in .scenario sweeps; use literal values with \
                                 --topology"
                            ));
                        }
                    }
                    "--f" => spec.f = vec![num(flag, take()?)?],
                    "--symbols" => spec.symbols = vec![num(flag, take()?)?],
                    "--q" => spec.q = num(flag, take()?)?,
                    "--seed" => spec.seed0 = num(flag, take()?)?,
                    "--faulty" => {
                        spec.faults = FaultSchedule::parse(&format!("fixed:{}", take()?))
                            .map_err(|e| format!("--faulty: {e}"))?
                    }
                    "--adversary" => spec.adversary = AdversarySpec::parse(take()?)?,
                    "--broadcast" => spec.broadcast = BroadcastKind::parse(take()?)?,
                    "--bounds" => spec.bounds = true,
                    other => return Err(format!("unknown flag {other:?} (try --help)")),
                }
                args.run_flag.get_or_insert_with(|| flag.to_string());
            }
        }
        i += 1;
    }
    if args.validate.is_some() {
        if let Some(flag) = seen_flags.iter().find(|f| **f != "--validate") {
            return Err(format!(
                "{flag} does not apply to --validate (validation only parses and plans)"
            ));
        }
    } else if let (Some(_), Some(flag)) = (&args.scenario, &args.run_flag) {
        return Err(format!(
            "{flag} describes the run, and with --scenario the file is the whole description; \
             set it in the .scenario file instead"
        ));
    }
    Ok(Some(args))
}

/// Validate mode: parse the scenario and *plan* every grid point through
/// the planning layer — topology realization, the paper's feasibility
/// conditions, γ/ρ, arborescence packing, routing tables — without
/// executing any broadcast instance. Duplicate networks across the grid
/// plan once (the same `PlanCache` the sweep runner uses).
///
/// Exit codes: 0 = every grid point plans; 2 = some grid points fail
/// (reported per job); parse/read failures surface as `Err` → exit 1.
fn run_validate_mode(path: &str) -> Result<ExitCode, String> {
    let spec = scenario::load(path).map_err(|e| format!("{path}: {e}"))?;
    let jobs = scenario::expand_jobs(&spec);
    let cache = PlanCache::new();
    let mut failed = 0usize;
    for job in &jobs {
        let planned = scenario::job_network(&spec, job).and_then(|g| {
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

/// The `--bounds` line of a flag-built spec: the paper's bounds on its
/// one job's network, or `None` when the topology does not build (the
/// job's rejection says why).
fn bounds_line(spec: &ScenarioSpec) -> Option<String> {
    let job = scenario::expand_jobs(spec).into_iter().next()?;
    let g = spec.topology.build(&job.ctx()).ok()?;
    Some(match bounds_report(&g, 0, job.f, spec.bounds_budget) {
        Some(r) => format!(
            "bounds: γ1={} γ*={}{} U1={} ρ*={}  Eq.6 lower={:.2}  Thm2 upper={}  fraction={:.3}\n",
            r.gamma1,
            r.gamma_star.value,
            if r.gamma_star.exact { "" } else { " (approx)" },
            r.u1,
            r.rho_star,
            r.tnab_lower,
            r.capacity_upper,
            r.guaranteed_fraction
        ),
        None => "bounds: undefined (U_1 < 2)\n".into(),
    })
}

/// Runs `spec` — loaded from `--scenario` or built from the run flags —
/// through the sweep runner and writes every requested output.
fn run_spec(args: &Args, spec: ScenarioSpec) -> Result<ExitCode, String> {
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
    // The disk tier lives behind a sweep-external cache so plans persist
    // past this process; results stay byte-identical regardless (plans
    // are content-addressed and verified on load).
    let disk_cache = args.plan_cache_dir.as_deref().map(PlanCache::with_dir);
    eprintln!(
        "scenario {:?}: {} jobs (topology {}, adversary {}, faults {}{})",
        spec.name,
        spec.job_count(),
        spec.topology.spec_string(),
        spec.adversary.spec_string(),
        spec.faults.spec_string(),
        if spec.net {
            format!(", net {}", link_model::spec_string(&spec.link_model))
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
        threads: args.threads,
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
    let flag_built = args.scenario.is_none();
    let summary = format!(
        "{}{}jobs: {} ok, {} rejected | instances: {} | mean throughput: {:.3} \
         (min {:.3}, max {:.3})\n\
         disputes: {} total (max {}/job, budget violated: {}) | exposures: {} | all correct: {}\n",
        (flag_built && spec.bounds)
            .then(|| bounds_line(&spec))
            .flatten()
            .unwrap_or_default(),
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
        let rendered = args.trace_format.unwrap_or(writer::to_jsonl)(&sink.take_sorted());
        if trace_on_stdout {
            print!("{rendered}");
        } else {
            let path = args.trace.as_deref().expect("sink implies --trace");
            std::fs::write(path, rendered).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
    }
    // A sweep records a rejected grid point and carries on; a flag-built
    // spec is its one job, so that job's rejection is the run's failure.
    if let (true, Some(Err(reason))) = (flag_built, report.jobs.first().map(|j| &j.result)) {
        return Err(format!(
            "the run was rejected: {reason} (the run is what --topology, --f, --faulty and \
             --adversary describe)"
        ));
    }
    Ok(if a.all_correct && !a.dispute_budget_violated {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args {
        None => Ok(ExitCode::SUCCESS),
        Some(Args {
            validate: Some(path),
            ..
        }) => run_validate_mode(&path),
        Some(args) => {
            let spec = match args.scenario.as_deref() {
                Some(path) => scenario::load(path).map_err(|e| format!("{path}: {e}"))?,
                None => args.spec.clone(),
            };
            run_spec(&args, spec)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
