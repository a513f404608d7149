//! Integration tests for the `nab-sim` command-line interface: help
//! output, clear errors on bad specs (no panics), and runs end to end
//! from a flag-built spec and from a `.scenario` file.

use std::process::{Command, Output};

fn nab_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nab-sim"))
        .args(args)
        .output()
        .expect("spawn nab-sim")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_flag_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = nab_sim(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let text = stdout(&out);
        assert!(text.contains("USAGE:"), "{flag}: {text}");
        assert!(
            text.contains("--scenario"),
            "{flag} documents scenario mode"
        );
        assert!(
            text.contains("--topology"),
            "{flag} documents the run flags"
        );
        // Every topology family and schedule form, from the grammar tables.
        for (_, signature, about) in nab_repro::scenario::grammar::forms() {
            let row = format!("      {signature:<33} {about}\n");
            assert!(text.contains(&row), "{flag} lacks {row:?}: {text}");
        }
    }
}

#[test]
fn unknown_topology_is_a_clear_error_not_a_panic() {
    let out = nab_sim(&["--topology", "moebius:4:2"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown topology"), "stderr: {err}");
    assert!(err.contains("known:"), "error lists valid families: {err}");
    for family in &nab_repro::scenario::topology::FAMILIES {
        assert!(err.contains(family.name), "{} missing: {err}", family.name);
    }
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn unknown_adversary_is_a_clear_error_not_a_panic() {
    let out = nab_sim(&["--adversary", "mallory"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown adversary"), "stderr: {err}");
    assert!(
        err.contains("known:"),
        "error lists valid strategies: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn malformed_topology_arity_is_a_clear_error() {
    let out = nab_sim(&["--topology", "complete:4"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("parameter"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn grid_variables_are_rejected_in_single_run_mode() {
    let out = nab_sim(&["--topology", "complete:$n:$cap"]);
    assert!(!out.status.success(), "variables must not silently default");
    let err = stderr(&out);
    assert!(err.contains("grid variables"), "stderr: {err}");
    assert!(err.contains(".scenario"), "stderr: {err}");
}

#[test]
fn single_run_flags_are_rejected_in_scenario_mode() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("modecheck.scenario");
    std::fs::write(&path, "name = modecheck\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap(), "--adversary", "liar"]);
    assert!(!out.status.success(), "flag must not be silently ignored");
    let err = stderr(&out);
    assert!(err.contains("--adversary"), "stderr: {err}");
    assert!(err.contains(".scenario file"), "stderr: {err}");
}

/// A small run described by flags, plus the output options in `extra`.
fn flag_built(extra: &[&str]) -> Output {
    let mut argv = vec!["--q", "2", "--symbols", "8", "--faulty", "2"];
    argv.extend_from_slice(&["--adversary", "corruptor"]);
    argv.extend_from_slice(extra);
    nab_sim(&argv)
}

#[test]
fn threads_and_json_work_on_a_flag_built_spec() {
    let out = flag_built(&["--threads", "2", "--json", "-"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "stdout must be a single JSON document, got: {}",
        &text[..text.len().min(120)]
    );
    assert!(text.contains("\"scenario\": \"nab-sim\""), "{text}");
    assert!(text.contains("\"ok_jobs\": 1"), "{text}");
    // Dispute pairs and removed nodes live in the report, not the summary.
    assert!(text.contains("\"removed\": ["), "{text}");
    assert!(
        stderr(&out).contains("all correct: true"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn flag_built_spec_matches_the_scenario_file_that_spells_it_out() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spelled-out.scenario");
    std::fs::write(
        &path,
        "name = nab-sim\n\
         topology = complete:5:2\n\
         f = 1\n\
         symbols = 64\n\
         q = 10\n\
         faults = fixed:2\n\
         adversary = corruptor\n\
         n = 4\n\
         cap = 2\n\
         seeds = 1\n\
         seed0 = 7\n",
    )
    .unwrap();
    let from_flags = nab_sim(&[
        "--topology",
        "complete:5:2",
        "--f",
        "1",
        "--symbols",
        "64",
        "--q",
        "10",
        "--faulty",
        "2",
        "--adversary",
        "corruptor",
        "--seed",
        "7",
        "--json",
        "-",
    ]);
    let from_file = nab_sim(&["--scenario", path.to_str().unwrap(), "--json", "-"]);
    assert!(from_flags.status.success(), "{}", stderr(&from_flags));
    assert!(from_file.status.success(), "{}", stderr(&from_file));
    assert!(stdout(&from_flags).contains("\"all_correct\": true"));
    assert_eq!(from_flags.stdout, from_file.stdout, "byte-identical JSON");
}

#[test]
fn duplicate_flags_are_rejected() {
    let out = nab_sim(&["--q", "2", "--symbols", "8", "--q", "1"]);
    assert!(
        !out.status.success(),
        "repeated flags must not be last-wins"
    );
    let err = stderr(&out);
    assert!(err.contains("duplicate flag --q"), "stderr: {err}");
}

#[test]
fn unknown_flag_suggests_help() {
    let out = nab_sim(&["--frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--help"));
}

#[test]
fn faulty_set_larger_than_f_is_rejected() {
    let out = nab_sim(&["--faulty", "1,2", "--f", "1", "--q", "1"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("--f"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn faulty_node_outside_graph_is_rejected() {
    let out = nab_sim(&["--topology", "complete:4:2", "--faulty", "9", "--q", "1"]);
    assert!(
        !out.status.success(),
        "a nonexistent faulty node must not silently report success"
    );
    let err = stderr(&out);
    assert!(err.contains("node 9"), "stderr: {err}");
    assert!(err.contains("0..4"), "stderr: {err}");
}

#[test]
fn single_run_mode_still_works() {
    let out = nab_sim(&[
        "--topology",
        "complete:4:2",
        "--q",
        "2",
        "--symbols",
        "8",
        "--faulty",
        "2",
        "--adversary",
        "corruptor",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("throughput"));
    assert!(
        text.contains("jobs: 1 ok, 0 rejected | instances: 2"),
        "{text}"
    );
    assert!(text.contains("all correct: true"), "{text}");
}

#[test]
fn bounds_flag_prints_the_bounds_line_and_fills_the_report() {
    let out = flag_built(&["--bounds", "--json", "-"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("bounds: γ1=6 γ*=4 U1=8 ρ*=4"), "{err}");
    assert!(err.contains("Eq.6 lower=2.00  Thm2 upper=4"), "{err}");
    assert!(
        stdout(&out).contains("\"eq6_lower\": 2"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn rejected_flag_built_run_exits_nonzero_where_a_sweep_records_and_exits_zero() {
    // ring:5:1 is 2-connected: f = 1 needs 3.
    let out = nab_sim(&["--topology", "ring:5:1", "--q", "1"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("error: the run was rejected"), "{err}");
    assert!(err.contains("connectivity"), "{err}");
    let sweep = nab_sim(&["--scenario", "scenarios/ring-reject.scenario"]);
    assert!(sweep.status.success(), "{}", stderr(&sweep));
    assert!(stdout(&sweep).contains("rejected"), "{}", stdout(&sweep));
}

#[test]
fn scenario_mode_runs_a_file_and_emits_json() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario_path = dir.join("smoke.scenario");
    let json_path = dir.join("smoke.json");
    std::fs::write(
        &scenario_path,
        "name = cli-smoke\n\
         topology = complete:$n:$cap\n\
         adversary = corruptor\n\
         faults = fixed:2\n\
         q = 2\n\
         n = 4\n\
         cap = 2\n\
         symbols = 8\n\
         seeds = 2\n",
    )
    .unwrap();
    let out = nab_sim(&[
        "--scenario",
        scenario_path.to_str().unwrap(),
        "--threads",
        "2",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("throughput"), "summary table: {text}");
    assert!(text.contains("all correct: true"), "{text}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"scenario\": \"cli-smoke\""));
    assert!(json.contains("\"ok_jobs\": 2"));
}

#[test]
fn removed_switch_flags_are_rejected_like_any_unknown_flag() {
    // `--no-batch` / `--no-repair` selected reference paths that no longer
    // exist, and `--net` duplicated the file's `net` key: they fail exactly
    // like a flag that never existed, in either mode, without a panic.
    let unknown = nab_sim(&["--frobnicate"]);
    for flag in ["--no-batch", "--no-repair", "--net"] {
        for args in [
            vec![flag],
            vec!["--scenario", "scenarios/fig1a.scenario", flag],
        ] {
            let out = nab_sim(&args);
            assert_eq!(out.status.code(), unknown.status.code(), "{args:?}");
            let err = stderr(&out);
            assert!(err.contains(&format!("unknown flag {flag:?}")), "{err}");
            assert!(err.contains("--help"), "{err}");
            assert!(!err.contains("panicked"), "must not panic: {err}");
        }
    }
}

#[test]
fn removed_switch_keys_are_rejected_with_line_numbers() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for key in ["batch", "plan_repair", "threads"] {
        let path = dir.join(format!("removed-{key}.scenario"));
        std::fs::write(&path, format!("name = removed\nq = 1\n{key} = off\n")).unwrap();
        let out = nab_sim(&["--scenario", path.to_str().unwrap()]);
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains(&format!("unknown key {key:?}")), "{err}");
    }
}

#[test]
fn json_to_stdout_is_pure_json() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipe.scenario");
    std::fs::write(&path, "name = pipe\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap(), "--json", "-"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "stdout must be a single JSON document, got: {}",
        &text[..text.len().min(120)]
    );
    // The human summary still reaches the user, on stderr.
    assert!(stderr(&out).contains("all correct"), "{}", stderr(&out));
}

#[test]
fn timings_flag_adds_nonnegative_wall_fields_and_keeps_stdout_pure() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("timed.scenario");
    std::fs::write(
        &path,
        "name = timed\n\
         topology = complete:$n:$cap\n\
         q = 2\n\
         n = 4\n\
         cap = 2\n\
         symbols = 8\n",
    )
    .unwrap();
    let out = nab_sim(&[
        "--scenario",
        path.to_str().unwrap(),
        "--json",
        "-",
        "--timings",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // Stdout purity must survive --timings: still exactly one JSON doc.
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "stdout must stay pure JSON under --timings, got: {}",
        &text[..text.len().min(120)]
    );
    // Every per-phase wall field is present and parses as a non-negative
    // integer (u64 syntax: no minus sign, no decimal point).
    for key in [
        "\"wall_phase1_ns\"",
        "\"wall_equality_ns\"",
        "\"wall_flags_ns\"",
        "\"wall_dispute_ns\"",
        "\"wall_total_ns\"",
    ] {
        let mut found = 0;
        for (pos, _) in text.match_indices(key) {
            let rest = &text[pos + key.len()..];
            let rest = rest.trim_start_matches([':', ' ']);
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            assert!(
                !digits.is_empty() && digits.parse::<u64>().is_ok(),
                "{key} must be a non-negative integer, context: {}",
                &rest[..rest.len().min(40)]
            );
            found += 1;
        }
        assert!(found > 0, "timing field {key} missing from --timings JSON");
    }
    // An instance that runs Phase 1 must have spent measurable time there.
    let total_key = "\"wall_total_ns\": ";
    let pos = text.rfind(total_key).unwrap();
    let digits: String = text[pos + total_key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    assert!(
        digits.parse::<u64>().unwrap() > 0,
        "aggregate wall time is zero"
    );
}

#[test]
fn timings_are_excluded_without_the_flag() {
    // Regression pin: the canonical --json output must stay byte-stable
    // across runs, so wall-clock fields may never leak into it.
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("untimed.scenario");
    std::fs::write(&path, "name = untimed\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap(), "--json", "-"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        !text.contains("wall_"),
        "canonical JSON must not contain wall-clock fields"
    );
}

#[test]
fn timings_work_on_a_flag_built_spec() {
    let out = flag_built(&["--timings", "--json", "-"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("\"wall_total_ns\": "), "timed fields");
    // ... and still need somewhere to go.
    let out = flag_built(&["--timings"]);
    assert!(!out.status.success(), "--timings must not be ignored");
    assert!(stderr(&out).contains("--json"), "{}", stderr(&out));
}

#[test]
fn timings_without_json_is_a_clear_error_not_a_silent_noop() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("timed-nojson.scenario");
    std::fs::write(&path, "name = timed-nojson\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap(), "--timings"]);
    assert!(
        !out.status.success(),
        "--timings without --json has nowhere to put the fields"
    );
    let err = stderr(&out);
    assert!(err.contains("--json"), "error must point at --json: {err}");
}

#[test]
fn validate_mode_plans_without_executing() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("validate-ok.scenario");
    std::fs::write(
        &path,
        "name = validate-ok\n\
         topology = complete:$n:$cap\n\
         q = 2\n\
         n = 4,5\n\
         cap = 2\n\
         symbols = 8\n\
         seeds = 2\n",
    )
    .unwrap();
    let out = nab_sim(&["--validate", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // Every grid point reports its planned quantities.
    assert!(text.contains("plan ok"), "{text}");
    assert!(text.contains("gamma="), "{text}");
    assert!(text.contains("rho="), "{text}");
    // 2 n-values × 2 seeds = 4 grid points but only 2 distinct networks:
    // the plan cache dedupes, and the summary says so.
    assert!(
        text.contains("4 grid points, 4 plan ok, 0 failed"),
        "{text}"
    );
    assert!(text.contains("(2 unique plans built)"), "{text}");
    assert!(text.contains("(cached)"), "{text}");
}

#[test]
fn validate_mode_reports_planning_failures_with_exit_2() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("validate-bad.scenario");
    // A ring is never 3-connected: every grid point must fail planning.
    std::fs::write(
        &path,
        "name = validate-bad\n\
         topology = ring:$n:$cap\n\
         q = 1\n\
         n = 5\n\
         cap = 1\n\
         symbols = 8\n",
    )
    .unwrap();
    let out = nab_sim(&["--validate", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "planning failures must exit 2, stderr: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("connectivity"), "{text}");
    assert!(text.contains("1 failed"), "{text}");
}

#[test]
fn validate_mode_missing_file_is_exit_1() {
    let out = nab_sim(&["--validate", "/nonexistent/x.scenario"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read scenario"));
}

#[test]
fn validate_mode_rejects_other_mode_flags() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("validate-flags.scenario");
    std::fs::write(&path, "name = vf\nq = 1\nsymbols = 8\n").unwrap();
    let p = path.to_str().unwrap();
    for extra in [
        ["--q", "2"].as_slice(),
        ["--threads", "2"].as_slice(),
        ["--scenario", p].as_slice(),
    ] {
        let mut argv = vec!["--validate", p];
        argv.extend_from_slice(extra);
        let out = nab_sim(&argv);
        assert!(!out.status.success(), "{extra:?} must not be ignored");
        let err = stderr(&out);
        assert!(
            err.contains("--validate"),
            "error must mention --validate: {err}"
        );
    }
}

#[test]
fn scenario_mode_reports_parse_errors_with_line_numbers() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    // A bad value, and a key that was removed with the path it selected.
    for (file, key, value, message) in [
        ("broken", "topology", "hypercube:4:4", "unknown topology"),
        (
            "removed-cache",
            "plan_cache",
            "off",
            "unknown key \"plan_cache\"",
        ),
    ] {
        let path = dir.join(format!("{file}.scenario"));
        std::fs::write(&path, format!("name = x\n{key} = {value}\n")).unwrap();
        let out = nab_sim(&["--scenario", path.to_str().unwrap()]);
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(err.contains("line 2"), "stderr: {err}");
        assert!(err.contains(message), "stderr: {err}");
    }
}

#[test]
fn missing_scenario_file_is_a_clear_error() {
    let out = nab_sim(&["--scenario", "/nonexistent/x.scenario"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read scenario"));
}

#[test]
fn trace_jsonl_covers_sweep_jobs_instances_and_phases() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario_path = dir.join("traced.scenario");
    let trace_path = dir.join("traced.jsonl");
    std::fs::write(
        &scenario_path,
        "name = traced\n\
         topology = complete:$n:$cap\n\
         adversary = corruptor\n\
         faults = fixed:2\n\
         q = 2\n\
         n = 4\n\
         cap = 2\n\
         symbols = 8\n\
         seeds = 2\n",
    )
    .unwrap();
    let out = nab_sim(&[
        "--scenario",
        scenario_path.to_str().unwrap(),
        "--threads",
        "2",
        "--trace",
        trace_path.to_str().unwrap(),
        "--progress",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("jobs 2/2"), "{}", stderr(&out));
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    // Every line is one event object whose first five keys are, in order,
    // `seq, ts_ns, job, instance, kind`, the first four numbers.
    for line in trace.lines() {
        assert!(line.ends_with('}'), "malformed JSONL line: {line}");
        let mut rest = line.strip_prefix('{').expect("an object per line");
        for key in ["seq", "ts_ns", "job", "instance"] {
            let value = rest
                .strip_prefix(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("{key} out of place: {line}"));
            let digits = value.find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
            assert!(digits > 0, "{key} is not a number: {line}");
            rest = value[digits..].strip_prefix(',').expect("more keys follow");
        }
        assert!(rest.starts_with("\"kind\":\""), "kind out of place: {line}");
    }
    // The stream covers every layer the ISSUE promises: sweep, job,
    // instance, phase, plan cache, and (corruptor run) disputes.
    for kind in [
        "\"kind\":\"sweep_start\"",
        "\"kind\":\"sweep_end\"",
        "\"kind\":\"job_start\"",
        "\"kind\":\"job_end\"",
        "\"kind\":\"instance_start\"",
        "\"kind\":\"instance_end\"",
        "\"kind\":\"phase_start\"",
        "\"kind\":\"phase_end\"",
        "\"kind\":\"plan_cache_miss\"",
        "\"kind\":\"plan_cache_hit\"",
        "\"kind\":\"dispute_raised\"",
        "\"kind\":\"node_exposed\"",
    ] {
        assert!(trace.contains(kind), "{kind} missing from trace");
    }
    // Phase spans close on every path.
    assert_eq!(
        trace.matches("\"kind\":\"phase_start\"").count(),
        trace.matches("\"kind\":\"phase_end\"").count(),
    );
}

#[test]
fn trace_to_stdout_is_pure_jsonl_and_moves_summary_to_stderr() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace-pipe.scenario");
    std::fs::write(&path, "name = trace-pipe\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap(), "--trace", "-"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "stdout must be pure JSONL, got: {}",
        &text[..text.len().min(120)]
    );
    assert!(stderr(&out).contains("all correct"), "{}", stderr(&out));
}

#[test]
fn trace_chrome_format_is_one_json_document_with_balanced_spans() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chrome.scenario");
    std::fs::write(&path, "name = chrome\nq = 2\nsymbols = 8\nseeds = 2\n").unwrap();
    let out = nab_sim(&[
        "--scenario",
        path.to_str().unwrap(),
        "--threads",
        "2",
        "--trace",
        "-",
        "--trace-format",
        "chrome",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with("{\"traceEvents\":["),
        "{}",
        &text[..text.len().min(80)]
    );
    assert!(
        text.trim_end().ends_with("],\"displayTimeUnit\":\"ns\"}"),
        "unterminated trace document"
    );
    // Every duration span opened (ph B) is closed (ph E).
    assert_eq!(
        text.matches("\"ph\":\"B\"").count(),
        text.matches("\"ph\":\"E\"").count(),
    );
    for span in ["sweep", "job", "instance", "phase1"] {
        let opened = format!("{{\"name\":\"{span}\",\"cat\":");
        assert!(text.contains(&opened), "no {span} span");
    }
}

#[test]
fn trace_format_without_trace_is_a_clear_error() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fmt-only.scenario");
    std::fs::write(&path, "name = fmt-only\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&[
        "--scenario",
        path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(!out.status.success(), "--trace-format must not be ignored");
    assert!(stderr(&out).contains("--trace"), "{}", stderr(&out));
}

#[test]
fn trace_and_json_cannot_both_claim_stdout() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("two-stdout.scenario");
    std::fs::write(&path, "name = two-stdout\nq = 1\nsymbols = 8\n").unwrap();
    let out = nab_sim(&[
        "--scenario",
        path.to_str().unwrap(),
        "--trace",
        "-",
        "--json",
        "-",
    ]);
    assert!(
        !out.status.success(),
        "two writers on stdout would interleave"
    );
    assert!(stderr(&out).contains("stdout"), "{}", stderr(&out));
}

#[test]
fn trace_and_progress_work_on_a_flag_built_spec() {
    let out = flag_built(&["--trace", "-", "--progress"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "stdout must be pure JSONL, got: {}",
        &text[..text.len().min(120)]
    );
    for kind in ["sweep_start", "job_end", "phase_start", "node_exposed"] {
        assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "{kind}");
    }
    assert!(stderr(&out).contains("jobs 1/1"), "{}", stderr(&out));
    let out = flag_built(&["--trace", "-", "--trace-format", "chrome"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).starts_with("{\"traceEvents\":["));
}

#[test]
fn progress_reports_every_job_on_stderr() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("progress.scenario");
    std::fs::write(&path, "name = progress\nq = 1\nsymbols = 8\nseeds = 4\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap(), "--progress"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // Captured stderr is not a tty, so the reporter prints one line per
    // finished job instead of rewriting in place.
    let err = stderr(&out);
    assert!(err.contains("jobs 4/4"), "final update missing: {err}");
    assert!(err.contains("inst/s"), "{err}");
    assert!(err.contains("cache hits"), "{err}");
    assert_eq!(
        err.matches("inst/s").count(),
        4,
        "one update per job: {err}"
    );
}

#[test]
fn empty_sweep_warns_and_exits_2() {
    let dir = std::env::temp_dir().join("nab-sim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.scenario");
    std::fs::write(&path, "name = empty\nq = 1\nsymbols = 8\nseeds = 0\n").unwrap();
    let out = nab_sim(&["--scenario", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "an empty grid is neither success nor failure, stderr: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("warning"), "{err}");
    assert!(err.contains("empty grid"), "{err}");
    assert!(err.contains("nothing to run"), "{err}");
}
