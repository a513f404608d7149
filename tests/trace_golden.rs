//! Golden-file test for the structured event trace: a fixed-seed,
//! single-threaded run of the bundled `fig1a` scenario must emit a
//! byte-stable JSONL event stream once wall-clock payloads (`ts_ns`,
//! `build_ns`) are normalized to zero. This pins the event taxonomy, the
//! fixed key order, the per-event payload shape, *and* the deterministic
//! single-thread event ordering — any intentional change to the trace
//! format must regenerate `tests/golden/fig1a.trace.jsonl`.

use std::process::Command;

/// Zeroes the run of digits following every occurrence of `key`, leaving
/// everything else byte-for-byte intact.
fn zero_after(s: &str, key: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(p) = rest.find(key) {
        let end = p + key.len();
        out.push_str(&rest[..end]);
        let tail = &rest[end..];
        let digits = tail.chars().take_while(|c| c.is_ascii_digit()).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Blanks the quoted string value following every occurrence of `key`
/// (used for machine-dependent payloads like the SIMD tier), leaving
/// everything else byte-for-byte intact.
fn blank_string_after(s: &str, key: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(p) = rest.find(key) {
        let end = p + key.len();
        out.push_str(&rest[..end]);
        let tail = &rest[end..];
        let value = tail.chars().take_while(|&c| c != '"').count();
        rest = &tail[value..];
    }
    out.push_str(rest);
    out
}

/// Strips the payloads that legitimately vary run to run (wall-clock)
/// or machine to machine (SIMD tier / CPU features).
fn normalize(s: &str) -> String {
    let s = zero_after(&zero_after(s, "\"ts_ns\":"), "\"build_ns\":");
    blank_string_after(&blank_string_after(&s, "\"tier\":\""), "\"cpu\":\"")
}

#[test]
fn fig1a_single_thread_trace_matches_golden() {
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fig1a.scenario");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig1a.trace.jsonl"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nab-sim"))
        .args(["--scenario", scenario, "--threads", "1", "--trace", "-"])
        .output()
        .expect("spawn nab-sim");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = normalize(&String::from_utf8_lossy(&out.stdout));
    let golden = std::fs::read_to_string(golden_path).expect("golden file");
    if got != golden {
        // Line-level diff beats a 20 KB string mismatch dump.
        for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(g, w, "first divergence at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            golden.lines().count(),
            "event count changed — regenerate the golden if intentional"
        );
        panic!("traces differ but no line-level divergence found");
    }
}

#[test]
fn normalize_only_touches_wall_clock_payloads() {
    let line = "{\"seq\":3,\"ts_ns\":528287,\"job\":0,\"instance\":0,\
                \"kind\":\"plan_built\",\"build_ns\":297283,\"pack_tried\":6}";
    assert_eq!(
        normalize(line),
        "{\"seq\":3,\"ts_ns\":0,\"job\":0,\"instance\":0,\
         \"kind\":\"plan_built\",\"build_ns\":0,\"pack_tried\":6}"
    );
}

#[test]
fn normalize_blanks_machine_dependent_sweep_start_payloads() {
    let line = "{\"seq\":0,\"ts_ns\":12,\"job\":0,\"instance\":0,\
                \"kind\":\"sweep_start\",\"jobs\":9,\"tier\":\"avx2\",\"cpu\":\"sse2,avx2\"}";
    assert_eq!(
        normalize(line),
        "{\"seq\":0,\"ts_ns\":0,\"job\":0,\"instance\":0,\
         \"kind\":\"sweep_start\",\"jobs\":9,\"tier\":\"\",\"cpu\":\"\"}"
    );
}
