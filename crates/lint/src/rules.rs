//! The rule set. Each rule is a pure function over one file's token
//! stream; scoping (which crates, test exemptions, allowlists) is part
//! of the rule's definition and documented in `docs/lint.md`.

use crate::lexer::{Tok, TokKind};
use crate::{Code, Config, Diagnostic, FileCtx};

/// Runs every rule over one file.
pub fn run_all(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    nab001_wall_clock(ctx, cfg, diags);
    nab002_hash_collections(ctx, cfg, diags);
    nab003_panics(ctx, diags);
    nab004_unsafe(ctx, cfg, diags);
    nab005_floats(ctx, cfg, diags);
    nab006_nondeterministic_identity(ctx, diags);
}

fn push(diags: &mut Vec<Diagnostic>, ctx: &FileCtx, code: Code, t: &Tok, message: String) {
    diags.push(Diagnostic {
        code,
        path: ctx.rel.clone(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// Does the token sequence starting at `i` spell `texts` exactly?
fn seq(toks: &[Tok], i: usize, texts: &[&str]) -> bool {
    toks.len() - i >= texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, s)| toks[i + k].text == *s)
}

/// Is this crate in the canonical-JSON set? Root-crate files count when
/// `"."` is configured.
fn in_canonical_crate(ctx: &FileCtx, cfg: &Config) -> bool {
    match &ctx.crate_name {
        Some(name) => cfg.canonical_crates.iter().any(|c| c == name),
        None => cfg.canonical_crates.iter().any(|c| c == "."),
    }
}

/// NAB001 — wall-clock reads (`Instant::now`, `SystemTime::now`) outside
/// the clock whitelist. Wall time observed anywhere else can leak into
/// scheduling or output and break cross-run byte-identity; every read
/// must route through `nab_obs::clock`. Test code is exempt (tests may
/// time themselves).
fn nab001_wall_clock(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if cfg.clock_files.contains(&ctx.rel) || ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.in_test(toks[i].line) {
            continue;
        }
        for clock in ["Instant", "SystemTime"] {
            if seq(toks, i, &[clock, ":", ":", "now"]) {
                push(
                    diags,
                    ctx,
                    Code::Nab001,
                    &toks[i],
                    format!(
                        "wall-clock read `{clock}::now` outside the clock whitelist; \
                         route it through `nab_obs::clock`"
                    ),
                );
            }
        }
    }
}

/// NAB002 — `HashMap`/`HashSet` in crates that emit canonical JSON.
/// Hash iteration order is randomized per process, so any hash-ordered
/// collection that feeds serialization (or any fold over one) silently
/// breaks byte-identity. Use `BTreeMap`/`BTreeSet`, or annotate the
/// site with a reason proving its iteration order never reaches output.
fn nab002_hash_collections(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if !in_canonical_crate(ctx, cfg) || ctx.is_test_file {
        return;
    }
    for t in &ctx.lexed.toks {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(t.line)
        {
            push(
                diags,
                ctx,
                Code::Nab002,
                t,
                format!(
                    "`{}` in a canonical-JSON crate: hash iteration order is \
                     nondeterministic; use the BTree equivalent or annotate why \
                     ordering never reaches serialized output",
                    t.text
                ),
            );
        }
    }
}

/// NAB003 — `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in non-test library code. A panic inside the engine
/// aborts a whole sweep job (and before the catch_unwind hardening, the
/// whole sweep); library paths must propagate `NabError`/`Result`
/// instead. Tests, benches, examples, and binary targets (which own
/// their exit) are exempt.
fn nab003_panics(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if ctx.is_test_file || ctx.is_bin {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || ctx.in_test(toks[i].line) {
            continue;
        }
        let t = &toks[i];
        let method_call = |name: &str| {
            t.text == name
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
        };
        if method_call("unwrap") || method_call("expect") {
            push(
                diags,
                ctx,
                Code::Nab003,
                t,
                format!(
                    "`.{}()` in library code: propagate the error (`NabError`/`Result`) \
                     or annotate why this cannot fail",
                    t.text
                ),
            );
        }
        let bang_macro = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.text == "!");
        if bang_macro {
            push(
                diags,
                ctx,
                Code::Nab003,
                t,
                format!(
                    "`{}!` in library code: propagate the error or annotate why \
                     this site is unreachable",
                    t.text
                ),
            );
        }
    }
}

/// NAB004 — `unsafe` outside the audited allowlist, or inside it without
/// a `SAFETY:` comment in the contiguous comment/attribute block directly
/// above it (or on the same line). The workspace confines `unsafe` to the
/// SIMD tier (`crates/gf/src/simd.rs`); every block must
/// state its proof obligation where the reviewer reads it. Applies to all
/// code, tests included.
fn nab004_unsafe(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let allowed_file = cfg.unsafe_files.contains(&ctx.rel);
    for t in &ctx.lexed.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !allowed_file {
            push(
                diags,
                ctx,
                Code::Nab004,
                t,
                "`unsafe` outside the audited allowlist (crates/gf/src/{simd,kernel}.rs)"
                    .to_string(),
            );
            continue;
        }
        // Same line, or the contiguous run of comment/attribute lines
        // immediately above (a blank or code line ends the run).
        let mut justified = ctx.line_text(t.line).contains("SAFETY:");
        let mut line = t.line;
        while !justified && line > 1 {
            line -= 1;
            let text = ctx.line_text(line).trim_start();
            if text.starts_with("//") || text.starts_with("#[") || text.starts_with("#![") {
                justified = text.contains("SAFETY:");
            } else {
                break;
            }
        }
        if !justified {
            push(
                diags,
                ctx,
                Code::Nab004,
                t,
                "`unsafe` without a `// SAFETY:` comment in the three preceding lines".to_string(),
            );
        }
    }
}

/// NAB005 — float *creation* (literals, `as f64`/`as f32` casts) in the
/// files that assemble canonical JSON, outside the audited formatter.
/// Floats that reach canonical serialization must flow through
/// `Json::F64` (whose formatter is deterministic and NaN-normalizing); a
/// float minted in the serialization layer on a line that never mentions
/// `F64(` is presumed to feed output by a path the formatter cannot
/// audit, and needs an annotation arguing its value is a deterministic
/// function of the inputs.
fn nab005_floats(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if !cfg.float_audit_files.contains(&ctx.rel)
        || ctx.is_test_file
        || cfg.float_formatter_files.contains(&ctx.rel)
    {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) || ctx.line_text(t.line).contains("F64(") {
            continue;
        }
        let float_cast = t.text == "as"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.text == "f64" || n.text == "f32");
        if t.kind == TokKind::Float || float_cast {
            push(
                diags,
                ctx,
                Code::Nab005,
                t,
                format!(
                    "float {} in a canonical-JSON crate outside the audited \
                     `Json::F64` path; floats feeding canonical serialization \
                     must be deterministic and formatter-audited",
                    if float_cast { "cast" } else { "literal" }
                ),
            );
        }
    }
}

/// NAB006 — thread-identity (`thread::current`) or pointer-as-key
/// (`as_ptr()/as *const … as usize`) patterns in non-test code. Thread
/// ids and addresses differ run to run; using either as a key, seed, or
/// tiebreaker makes results depend on scheduling and allocation.
fn nab006_nondeterministic_identity(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.in_test(toks[i].line) {
            continue;
        }
        if seq(toks, i, &["thread", ":", ":", "current"]) {
            push(
                diags,
                ctx,
                Code::Nab006,
                &toks[i],
                "`thread::current` in a deterministic path: thread identity \
                 varies across runs and schedulers"
                    .to_string(),
            );
        }
        // Pointer-as-integer on one line: `… as usize` preceded on the
        // same line by a pointer producer (`as *const/mut`, `as_ptr`).
        if toks[i].text == "usize" && i > 0 && toks[i - 1].text == "as" {
            let line = toks[i].line;
            let mut j = i - 1;
            let mut ptr_source = false;
            loop {
                if toks[j].line != line {
                    break;
                }
                if toks[j].text == "as_ptr"
                    || toks[j].text == "as_mut_ptr"
                    || (toks[j].text == "as"
                        && toks.get(j + 1).is_some_and(|n| n.text == "*")
                        && toks
                            .get(j + 2)
                            .is_some_and(|n| n.text == "const" || n.text == "mut"))
                {
                    ptr_source = true;
                    break;
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if ptr_source {
                push(
                    diags,
                    ctx,
                    Code::Nab006,
                    &toks[i - 1],
                    "pointer cast to `usize` in a deterministic path: addresses \
                     vary across runs; derive keys from content, not identity"
                        .to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_file, Code, Config};

    fn codes(rel: &str, src: &str) -> Vec<Code> {
        lint_file(rel, src, &Config::workspace_default())
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn nab001_scoping() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(codes("crates/core/src/engine.rs", src), vec![Code::Nab001]);
        assert_eq!(codes("crates/obs/src/clock.rs", src), vec![]);
        assert_eq!(codes("crates/core/tests/t.rs", src), vec![]);
        let st = "fn f() { let t = SystemTime::now(); }\n";
        assert_eq!(codes("crates/net/src/lib.rs", st), vec![Code::Nab001]);
    }

    #[test]
    fn nab001_ignores_strings_and_comments() {
        let src = "// Instant::now is discussed here\nfn f() { let s = \"Instant::now\"; }\n";
        assert_eq!(codes("crates/core/src/engine.rs", src), vec![]);
    }

    #[test]
    fn nab002_only_canonical_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes("crates/core/src/plan.rs", src), vec![Code::Nab002]);
        assert_eq!(
            codes("crates/scenario/src/sweep.rs", src),
            vec![Code::Nab002]
        );
        // The BB layer and the simulator decide message order and clock
        // sums that reach canonical JSON (a hash-ordered EIG level once
        // made `PhaseTimes.flags` vary run to run).
        assert_eq!(codes("crates/bb/src/eig.rs", src), vec![Code::Nab002]);
        assert_eq!(codes("crates/sim/src/lib.rs", src), vec![Code::Nab002]);
        assert_eq!(codes("crates/gf/src/matrix.rs", src), vec![]);
        // An oracle kept under `#[cfg(test)]` may still hash.
        let oracle = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\n";
        assert_eq!(codes("crates/bb/src/eig.rs", oracle), vec![]);
    }

    #[test]
    fn nab003_scoping() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        assert_eq!(codes("crates/core/src/plan.rs", src), vec![Code::Nab003]);
        assert_eq!(codes("src/bin/nab-sim.rs", src), vec![]);
        assert_eq!(codes("crates/core/tests/t.rs", src), vec![]);
        let test_mod = "#[cfg(test)]\nmod tests {\n  fn f(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert_eq!(codes("crates/core/src/plan.rs", test_mod), vec![]);
        let mac = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(codes("crates/core/src/plan.rs", mac), vec![Code::Nab003]);
        // Free fn named unwrap, field access, and `expect` without a
        // call are not method calls.
        let not_call = "fn unwrap() {} fn g() { let expect = 3; }\n";
        assert_eq!(codes("crates/core/src/plan.rs", not_call), vec![]);
    }

    #[test]
    fn nab004_allowlist_and_safety() {
        let bare = "fn f() { unsafe { work() } }\n";
        assert_eq!(codes("crates/core/src/engine.rs", bare), vec![Code::Nab004]);
        assert_eq!(codes("crates/gf/src/simd.rs", bare), vec![Code::Nab004]);
        let ok = "fn f() {\n    // SAFETY: the feature was detected at runtime.\n    unsafe { work() }\n}\n";
        assert_eq!(codes("crates/gf/src/simd.rs", ok), vec![]);
        assert_eq!(codes("crates/core/src/engine.rs", ok), vec![Code::Nab004]);
        let far = "fn f() {\n    // SAFETY: too far away.\n\n\n\n    unsafe { work() }\n}\n";
        assert_eq!(codes("crates/gf/src/simd.rs", far), vec![Code::Nab004]);
    }

    #[test]
    fn nab005_floats() {
        let lit = "fn f() -> f64 { 1.5 }\n";
        assert_eq!(
            codes("crates/scenario/src/report.rs", lit),
            vec![Code::Nab005]
        );
        assert_eq!(codes("crates/scenario/src/json.rs", lit), vec![]);
        assert_eq!(codes("crates/gf/src/field.rs", lit), vec![]);
        let cast = "fn f(n: u64) -> f64 { n as f64 }\n";
        assert_eq!(
            codes("crates/scenario/src/report.rs", cast),
            vec![Code::Nab005]
        );
        let audited = "fn f(n: u64) -> Json { Json::F64(n as f64) }\n";
        assert_eq!(codes("crates/scenario/src/report.rs", audited), vec![]);
        let int = "fn f() { let x = 1..5; let y = 2; }\n";
        assert_eq!(codes("crates/scenario/src/report.rs", int), vec![]);
    }

    #[test]
    fn nab006_identity() {
        let thr = "fn f() { let id = std::thread::current().id(); }\n";
        assert_eq!(codes("crates/core/src/engine.rs", thr), vec![Code::Nab006]);
        let ptr = "fn f(v: &[u8]) { let k = v.as_ptr() as usize; }\n";
        assert_eq!(codes("crates/core/src/engine.rs", ptr), vec![Code::Nab006]);
        let ptr2 = "fn f(v: &V) { let k = v as *const V as usize; }\n";
        assert_eq!(codes("crates/core/src/engine.rs", ptr2), vec![Code::Nab006]);
        // Plain integer casts and pointer casts without the usize round
        // trip stay clean.
        let ok =
            "fn f(n: u64, v: &[u8]) { let a = n as usize; let p = v.as_ptr() as *const u8; }\n";
        assert_eq!(codes("crates/core/src/engine.rs", ok), vec![]);
    }
}
