//! Golden-fixture suite: every rule has a firing fixture and a suppressed
//! fixture under `tests/fixtures/`, linted with a purpose-built [`Config`]
//! so the expectations are independent of the real workspace layout.

use nab_lint::{lint_file, Code, Config};

/// Lints a fixture under the given virtual workspace-relative path and
/// returns `(code, line)` pairs in diagnostic order.
fn lint_fixture(name: &str, rel: &str, cfg: &Config) -> Vec<(Code, u32)> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_file(rel, &src, cfg)
        .into_iter()
        .map(|d| (d.code, d.line))
        .collect()
}

/// A config that scopes every path-sensitive rule onto the fixture's
/// virtual `crates/demo` crate.
fn demo_cfg() -> Config {
    Config {
        clock_files: vec!["crates/demo/src/clock.rs".into()],
        canonical_crates: vec!["demo".into()],
        unsafe_files: vec!["crates/demo/src/simd.rs".into()],
        float_audit_files: vec!["crates/demo/src/report.rs".into()],
        float_formatter_files: vec!["crates/demo/src/json.rs".into()],
    }
}

fn codes(found: &[(Code, u32)]) -> Vec<Code> {
    found.iter().map(|&(c, _)| c).collect()
}

#[test]
fn nab001_fires_on_clock_reads_outside_whitelist() {
    let found = lint_fixture("nab001_fire.rs", "crates/demo/src/timing.rs", &demo_cfg());
    assert_eq!(found, vec![(Code::Nab001, 4), (Code::Nab001, 8)]);
}

#[test]
fn nab001_suppressed_and_test_scoped() {
    let found = lint_fixture("nab001_allow.rs", "crates/demo/src/timing.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab001_whitelisted_file_is_exempt() {
    let found = lint_fixture("nab001_fire.rs", "crates/demo/src/clock.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab002_fires_in_canonical_crates_only() {
    let cfg = demo_cfg();
    let found = lint_fixture("nab002_fire.rs", "crates/demo/src/map.rs", &cfg);
    assert!(!found.is_empty());
    assert!(codes(&found).iter().all(|&c| c == Code::Nab002));
    // The same source in a non-canonical crate is clean.
    let found = lint_fixture("nab002_fire.rs", "crates/other/src/map.rs", &cfg);
    assert_eq!(found, vec![]);
    // The real workspace scope: the engine, the sweep runner, and the two
    // crates below them that fix message order and clock sums.
    let ws = Config::workspace_default();
    for krate in ["core", "scenario", "bb", "sim"] {
        let rel = format!("crates/{krate}/src/map.rs");
        assert!(
            !lint_fixture("nab002_fire.rs", &rel, &ws).is_empty(),
            "{rel}"
        );
    }
}

#[test]
fn nab002_file_level_allow_suppresses_all() {
    let found = lint_fixture("nab002_allow.rs", "crates/demo/src/map.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab003_fires_on_unwrap_expect_and_panic() {
    let found = lint_fixture("nab003_fire.rs", "crates/demo/src/lib.rs", &demo_cfg());
    assert_eq!(
        found,
        vec![(Code::Nab003, 2), (Code::Nab003, 6), (Code::Nab003, 10)]
    );
}

#[test]
fn nab003_suppressed_and_test_scoped() {
    let found = lint_fixture("nab003_allow.rs", "crates/demo/src/lib.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab003_exempt_in_test_files_and_bins() {
    let cfg = demo_cfg();
    for rel in [
        "crates/demo/tests/integration.rs",
        "crates/demo/src/bin/tool.rs",
        "src/main.rs",
    ] {
        let found = lint_fixture("nab003_fire.rs", rel, &cfg);
        assert_eq!(found, vec![], "{rel} should be NAB003-exempt");
    }
}

#[test]
fn nab004_fires_outside_the_unsafe_allowlist() {
    let found = lint_fixture("nab004_fire.rs", "crates/demo/src/ptr.rs", &demo_cfg());
    assert_eq!(found, vec![(Code::Nab004, 2)]);
}

#[test]
fn nab004_fires_without_safety_comment_even_in_allowlisted_file() {
    let found = lint_fixture("nab004_fire.rs", "crates/demo/src/simd.rs", &demo_cfg());
    assert_eq!(found, vec![(Code::Nab004, 2)]);
}

#[test]
fn nab004_safety_comment_justifies_allowlisted_unsafe() {
    let found = lint_fixture("nab004_allow.rs", "crates/demo/src/simd.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab005_fires_on_floats_in_audited_files() {
    let cfg = demo_cfg();
    let found = lint_fixture("nab005_fire.rs", "crates/demo/src/report.rs", &cfg);
    assert_eq!(found, vec![(Code::Nab005, 2), (Code::Nab005, 3)]);
    // The audited formatter file and unaudited files are exempt.
    for rel in ["crates/demo/src/json.rs", "crates/demo/src/other.rs"] {
        let found = lint_fixture("nab005_fire.rs", rel, &cfg);
        assert_eq!(found, vec![], "{rel} should be NAB005-exempt");
    }
}

#[test]
fn nab005_suppressed_with_reasons() {
    let found = lint_fixture("nab005_allow.rs", "crates/demo/src/report.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab006_fires_on_thread_identity_and_pointer_keys() {
    let found = lint_fixture("nab006_fire.rs", "crates/demo/src/sched.rs", &demo_cfg());
    assert_eq!(found, vec![(Code::Nab006, 2), (Code::Nab006, 6)]);
}

#[test]
fn nab006_suppressed_with_reasons() {
    let found = lint_fixture("nab006_allow.rs", "crates/demo/src/sched.rs", &demo_cfg());
    assert_eq!(found, vec![]);
}

#[test]
fn nab000_fires_on_malformed_annotations() {
    let found = lint_fixture("nab000_fire.rs", "crates/demo/src/lib.rs", &demo_cfg());
    assert_eq!(found, vec![(Code::Nab000, 1), (Code::Nab000, 4)]);
}
