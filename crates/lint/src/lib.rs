//! `nab-lint`: token-level static analysis for the NAB workspace.
//!
//! The reproduction rests on invariants no compiler checks: canonical
//! JSON must be byte-identical across thread counts and execution modes,
//! wall-clock reads must never leak into deterministic paths, `unsafe`
//! is confined to the audited SIMD tier. The proptests catch violations
//! *after the fact*; this crate makes the rules *machine-checkable
//! without re-running the protocol* — a third party (or CI) can audit
//! that the source obeys them in milliseconds.
//!
//! Design: a hand-rolled lexer ([`lexer`]) produces tokens and comments
//! (so string/comment contents can never trigger a rule), and a rule
//! engine ([`rules`]) walks the token stream with stable error codes and
//! `file:line:col` diagnostics. Findings are suppressed site-by-site
//! with an *audited* annotation that must carry a reason:
//!
//! ```text
//! // nab-lint: allow(NAB003): poisoning is impossible — lock holders never panic
//! // nab-lint: allow-file(NAB003): measurement harness; panics abort the bench run
//! ```
//!
//! A leading comment covers the next code line, a trailing comment its
//! own line, and `allow-file` the whole file. A malformed annotation
//! (unknown code, missing reason) is itself a finding (`NAB000`), so
//! suppressions cannot silently rot.
//!
//! See `docs/lint.md` for the rule catalog and how to add a rule.

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use lexer::{lex, Lexed};

/// Stable rule codes. New rules append; codes are never reused.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Code {
    /// Malformed or unknown `nab-lint:` annotation.
    Nab000,
    /// Wall-clock read outside the clock whitelist.
    Nab001,
    /// Hash-ordered collection in a canonical-JSON crate.
    Nab002,
    /// `unwrap`/`expect`/`panic!`-family in non-test library code.
    Nab003,
    /// `unsafe` without a `SAFETY:` comment or outside the allowlist.
    Nab004,
    /// Float creation feeding canonical serialization.
    Nab005,
    /// Thread-identity or pointer-as-key in deterministic paths.
    Nab006,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Nab000 => "NAB000",
            Code::Nab001 => "NAB001",
            Code::Nab002 => "NAB002",
            Code::Nab003 => "NAB003",
            Code::Nab004 => "NAB004",
            Code::Nab005 => "NAB005",
            Code::Nab006 => "NAB006",
        }
    }

    pub fn parse(s: &str) -> Option<Code> {
        match s {
            "NAB000" => Some(Code::Nab000),
            "NAB001" => Some(Code::Nab001),
            "NAB002" => Some(Code::Nab002),
            "NAB003" => Some(Code::Nab003),
            "NAB004" => Some(Code::Nab004),
            "NAB005" => Some(Code::Nab005),
            "NAB006" => Some(Code::Nab006),
            _ => None,
        }
    }

    /// All rule codes, for `--help` and the catalog test.
    pub const ALL: [Code; 7] = [
        Code::Nab000,
        Code::Nab001,
        Code::Nab002,
        Code::Nab003,
        Code::Nab004,
        Code::Nab005,
        Code::Nab006,
    ];
}

/// One finding, anchored at `path:line:col` (1-based).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    pub code: Code,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: {} {}",
            self.path,
            self.line,
            self.col,
            self.code.as_str(),
            self.message
        )
    }

    pub fn render_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            self.code.as_str(),
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.message)
        )
    }
}

/// Renders all diagnostics as one JSON document with a summary header.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.render_json());
    }
    out.push_str(&format!("],\"count\":{}}}", diags.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Workspace-specific rule scoping. Paths are workspace-relative with
/// `/` separators.
#[derive(Clone, Debug)]
pub struct Config {
    /// The only files allowed to read the wall clock (NAB001).
    pub clock_files: Vec<String>,
    /// Crates (by `crates/<name>` directory name, or `.` for the root
    /// crate) whose data ends up in canonical JSON (NAB002, NAB005) —
    /// including the ones that only decide a message order or a clock sum
    /// that does.
    pub canonical_crates: Vec<String>,
    /// Files where `unsafe` is permitted — each block still needs a
    /// `SAFETY:` comment (NAB004).
    pub unsafe_files: Vec<String>,
    /// Files that assemble canonical JSON values: float creation there is
    /// audited by NAB005.
    pub float_audit_files: Vec<String>,
    /// The audited float-formatter files, exempt from NAB005.
    pub float_formatter_files: Vec<String>,
}

impl Config {
    /// The configuration the workspace is linted with in CI.
    pub fn workspace_default() -> Config {
        Config {
            clock_files: vec!["crates/obs/src/clock.rs".into()],
            canonical_crates: vec!["core".into(), "scenario".into(), "bb".into(), "sim".into()],
            unsafe_files: vec!["crates/gf/src/simd.rs".into()],
            float_audit_files: vec![
                "crates/scenario/src/report.rs".into(),
                "crates/scenario/src/json.rs".into(),
            ],
            float_formatter_files: vec!["crates/scenario/src/json.rs".into()],
        }
    }
}

/// Everything the rules know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// `crates/<name>/…` → `Some(name)`; root-crate files → `None`.
    pub crate_name: Option<String>,
    /// Integration tests, benches, examples, fixtures.
    pub is_test_file: bool,
    /// Binary targets (`src/bin/…`, `src/main.rs`).
    pub is_bin: bool,
    pub lines: Vec<&'a str>,
    pub lexed: Lexed,
    /// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileCtx<'_> {
    /// Is `line` inside a `#[cfg(test)]`/`#[test]` item?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }

    /// The raw source text of 1-based `line` (empty when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines.get(line as usize - 1).copied().unwrap_or("")
    }
}

fn classify(rel: &str) -> (Option<String>, bool, bool) {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(|s| s.to_string());
    let is_test_file = rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/");
    let is_bin = rel.contains("/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs";
    (crate_name, is_test_file, is_bin)
}

/// Finds the line ranges of items annotated with a `test`-bearing
/// attribute (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`).
fn test_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "#" || i + 1 >= toks.len() || toks[i + 1].text != "[" {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        // Scan the attribute body to its matching `]`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut has_test = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then find the item body.
        let mut k = j + 1;
        while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
            let mut d = 0i32;
            k += 1;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // The item ends at its matching close brace (or a `;` for
        // brace-less items like `mod tests;`).
        let mut brace = 0i32;
        let mut end_line = attr_line;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                ";" if brace == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            end_line = toks.last().map_or(attr_line, |t| t.line);
        }
        ranges.push((attr_line, end_line));
        i = k + 1;
    }
    ranges
}

/// One parsed `nab-lint:` annotation.
struct Suppression {
    code: Code,
    /// Line the annotation covers (ignored for `file_level`).
    line: u32,
    file_level: bool,
}

/// Parses suppressions out of the comments; malformed annotations become
/// `NAB000` diagnostics.
fn parse_suppressions(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) -> Vec<Suppression> {
    let mut sups = Vec::new();
    for c in &ctx.lexed.comments {
        // Suppressions live in plain comments; doc comments merely *talk
        // about* the annotation syntax.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("nab-lint:") else {
            continue;
        };
        let rest = c.text[at + "nab-lint:".len()..].trim_start();
        let (file_level, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
            (true, b)
        } else if let Some(b) = rest.strip_prefix("allow(") {
            (false, b)
        } else {
            diags.push(Diagnostic {
                code: Code::Nab000,
                path: ctx.rel.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "malformed nab-lint annotation (expected `allow(CODE): reason` \
                     or `allow-file(CODE): reason`): `{}`",
                    c.text.trim()
                ),
            });
            continue;
        };
        let Some(close) = body.find(')') else {
            diags.push(Diagnostic {
                code: Code::Nab000,
                path: ctx.rel.clone(),
                line: c.line,
                col: c.col,
                message: "unterminated nab-lint allow annotation".into(),
            });
            continue;
        };
        let code_str = body[..close].trim();
        let Some(code) = Code::parse(code_str) else {
            diags.push(Diagnostic {
                code: Code::Nab000,
                path: ctx.rel.clone(),
                line: c.line,
                col: c.col,
                message: format!("unknown rule code `{code_str}` in nab-lint annotation"),
            });
            continue;
        };
        let reason = body[close + 1..]
            .trim_start()
            .strip_prefix(':')
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            diags.push(Diagnostic {
                code: Code::Nab000,
                path: ctx.rel.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "nab-lint allow({code_str}) must carry a reason: `allow({code_str}): why`"
                ),
            });
            continue;
        }
        // A trailing comment covers its own line; a leading comment
        // covers the line of the first token after it.
        let line = if c.trailing || file_level {
            c.line
        } else {
            ctx.lexed
                .toks
                .iter()
                .find(|t| t.line > c.line || (t.line == c.line && t.col > c.col))
                .map(|t| t.line)
                .unwrap_or(c.line)
        };
        sups.push(Suppression {
            code,
            line,
            file_level,
        });
    }
    sups
}

/// Lints one file's source text under `cfg`, returning unsuppressed
/// findings. `rel` is the workspace-relative path used for scoping.
pub fn lint_file(rel: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let ranges = test_ranges(&lexed);
    let (crate_name, is_test_file, is_bin) = classify(rel);
    let ctx = FileCtx {
        rel: rel.to_string(),
        crate_name,
        is_test_file,
        is_bin,
        lines: src.lines().collect(),
        lexed,
        test_ranges: ranges,
    };
    let mut diags = Vec::new();
    let sups = parse_suppressions(&ctx, &mut diags);
    rules::run_all(&ctx, cfg, &mut diags);
    diags.retain(|d| {
        d.code == Code::Nab000
            || !sups
                .iter()
                .any(|s| s.code == d.code && (s.file_level || s.line == d.line))
    });
    diags.sort_by_key(|a| (a.line, a.col, a.code));
    diags
}

/// Directories scanned by a workspace lint, relative to the root.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Path fragments that are never scanned.
fn skip(rel: &str) -> bool {
    rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.starts_with("crates/lint/tests/fixtures/")
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        let rel = rel_path(&p, root);
        if skip(&rel) {
            continue;
        }
        if p.is_dir() {
            walk(&p, root, out)?;
        } else if rel.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_path(p: &Path, root: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Lints every workspace `.rs` file under `root` (excluding `vendor/`,
/// `target/`, and the lint fixtures). Diagnostics are sorted by path.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    let mut diags = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        let rel = rel_path(f, root);
        diags.extend(lint_file(&rel, &src, cfg));
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.code).cmp(&(&b.path, b.line, b.col, b.code)));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/core/src/engine.rs"),
            (Some("core".into()), false, false)
        );
        assert!(classify("src/bin/nab-sim.rs").2);
        assert!(classify("crates/gf/tests/differential.rs").1);
        assert!(classify("examples/scenario_sweep.rs").1);
    }

    #[test]
    fn test_ranges_cover_cfg_test_mod() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let r = test_ranges(&lexed);
        assert_eq!(r, vec![(2, 5)]);
    }

    #[test]
    fn suppression_requires_reason() {
        let cfg = Config::workspace_default();
        let src = "// nab-lint: allow(NAB003)\nfn f() { x.unwrap(); }\n";
        let d = lint_file("crates/core/src/x.rs", src, &cfg);
        assert!(d.iter().any(|d| d.code == Code::Nab000));
        assert!(d.iter().any(|d| d.code == Code::Nab003), "not suppressed");
    }

    #[test]
    fn leading_and_trailing_suppressions() {
        let cfg = Config::workspace_default();
        let lead = "// nab-lint: allow(NAB003): fixture reason\nfn f() { x.unwrap(); }\n";
        assert!(lint_file("crates/core/src/x.rs", lead, &cfg).is_empty());
        let trail = "fn f() { x.unwrap(); } // nab-lint: allow(NAB003): fixture reason\n";
        assert!(lint_file("crates/core/src/x.rs", trail, &cfg).is_empty());
        let file = "// nab-lint: allow-file(NAB003): fixture reason\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n";
        assert!(lint_file("crates/core/src/x.rs", file, &cfg).is_empty());
    }

    #[test]
    fn suppression_is_per_rule() {
        let cfg = Config::workspace_default();
        let src = "fn f() { x.unwrap(); } // nab-lint: allow(NAB001): wrong rule\n";
        let d = lint_file("crates/core/src/x.rs", src, &cfg);
        assert!(d.iter().any(|d| d.code == Code::Nab003));
    }

    #[test]
    fn json_report_shape() {
        let d = Diagnostic {
            code: Code::Nab001,
            path: "a.rs".into(),
            line: 3,
            col: 7,
            message: "\"quoted\"".into(),
        };
        assert_eq!(
            d.render_json(),
            "{\"code\":\"NAB001\",\"path\":\"a.rs\",\"line\":3,\"col\":7,\
             \"message\":\"\\\"quoted\\\"\"}"
        );
        assert!(render_json_report(&[d]).ends_with("\"count\":1}"));
    }
}
