//! The `.scenario` text format.
//!
//! One `key = value` assignment per line; `#` starts a comment; blank
//! lines are ignored. Unknown keys and malformed values are hard errors
//! with line numbers, so a typo'd scenario fails loudly instead of
//! silently running defaults. Every key is one row of [`KEYS`]. See
//! `docs/scenarios.md` for the complete reference, and `scenarios/` for
//! the bundled library.
//!
//! ```text
//! # Throughput sweep on heterogeneous meshes under a framing collusion.
//! name      = hetero-collusion
//! topology  = hetero:$n:1:$cap
//! broadcast = eig
//! adversary = collude:3:2
//! faults    = fixed:1,2
//! q         = 6
//! symbols   = 16,64
//! n         = 5,6
//! cap       = 4,8
//! f         = 2
//! seeds     = 3
//! seed0     = 11
//! bounds    = true
//! ```

use std::fmt::Display;
use std::str::FromStr;

use nab::BroadcastKind;

use crate::adversary::AdversarySpec;
use crate::faults::FaultSchedule;
use crate::grammar::Term;
use crate::link_model;
use crate::mutations::MutationSchedule;
use crate::spec::ScenarioSpec;
use crate::topology::TopologyTemplate;

/// A parse failure, locating the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// One `.scenario` key: a row of [`KEYS`].
pub struct Key {
    /// The name a line assigns, which is also the [`ScenarioSpec`] field
    /// it sets.
    pub name: &'static str,
    /// Sets the key's field of a spec from a line's value.
    set: fn(&mut ScenarioSpec, &str) -> Result<(), String>,
    /// The field's value as `set` reads it.
    get: fn(&ScenarioSpec) -> String,
}

impl Key {
    /// The value an omitted key takes, as a file writes it.
    pub fn default_value(&self) -> String {
        (self.get)(&ScenarioSpec::default())
    }
}

/// The [`Key`] for `field`: `parse` reads a value into it, `render` writes
/// it back.
macro_rules! key {
    ($field:ident, $parse:expr, $render:expr) => {
        Key {
            name: stringify!($field),
            set: |s, v| $parse(v).map(|x| s.$field = x),
            get: |s| $render(&s.$field),
        }
    };
}

/// Every key, in the order [`to_scenario_string`] writes them.
pub static KEYS: [Key; 17] = [
    key!(name, text, String::clone),
    key!(topology, TopologyTemplate::parse, Term::spec_string),
    key!(broadcast, BroadcastKind::parse, broadcast_name),
    key!(adversary, AdversarySpec::parse, Term::spec_string),
    key!(faults, FaultSchedule::parse, Term::spec_string),
    key!(mutations, MutationSchedule::parse, Term::spec_string),
    key!(q, num, ToString::to_string),
    key!(n, list, join),
    key!(cap, list, join),
    key!(f, list, join),
    key!(symbols, list, join),
    key!(seeds, num, ToString::to_string),
    key!(seed0, num, ToString::to_string),
    key!(bounds, boolean, ToString::to_string),
    key!(bounds_budget, num, ToString::to_string),
    key!(link_model, link_model::parse, link_model::spec_string),
    key!(net, boolean, ToString::to_string),
];

/// Parses a `.scenario` document.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_str(text: &str) -> Result<ScenarioSpec, ParseError> {
    let mut spec = ScenarioSpec::default();
    let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        if value.is_empty() {
            return Err(err(lineno, format!("key {key:?} has an empty value")));
        }
        if let Some(prev) = seen.insert(key.to_string(), lineno) {
            return Err(err(
                lineno,
                format!("duplicate key {key:?} (first set on line {prev})"),
            ));
        }
        let Some(row) = KEYS.iter().find(|k| k.name == key) else {
            let known: Vec<&str> = KEYS.iter().map(|k| k.name).collect();
            let known = known.join(", ");
            return Err(err(lineno, format!("unknown key {key:?} (known: {known})")));
        };
        (row.set)(&mut spec, value).map_err(|e| err(lineno, format!("key {key:?}: {e}")))?;
    }
    spec.validate().map_err(|e| err(0, e))?;
    Ok(spec)
}

/// Loads and parses a `.scenario` file.
///
/// # Errors
///
/// Returns I/O failures (as a line-0 error naming the path) and parse
/// failures.
pub fn load(path: &str) -> Result<ScenarioSpec, ParseError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(0, format!("cannot read scenario {path:?}: {e}")))?;
    parse_str(&text)
}

fn broadcast_name(kind: &BroadcastKind) -> String {
    kind.name().into()
}

fn text(value: &str) -> Result<String, String> {
    Ok(value.into())
}

fn boolean(value: &str) -> Result<bool, String> {
    match value {
        "true" | "on" | "yes" => Ok(true),
        "false" | "off" | "no" => Ok(false),
        other => Err(format!("bad boolean {other:?}")),
    }
}

fn num<T: FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad number {value:?}"))
}

fn list<T: FromStr>(value: &str) -> Result<Vec<T>, String> {
    (value.split(','))
        .map(|part| (part.trim().parse()).map_err(|_| format!("bad list entry {part:?}")))
        .collect()
}

fn join<T: Display>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    items.join(",")
}

/// Renders a spec back to the `.scenario` format (canonical form).
pub fn to_scenario_string(spec: &ScenarioSpec) -> String {
    (KEYS.iter())
        .map(|key| format!("{} = {}\n", key.name, (key.get)(spec)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A full scenario exercising every key.
name = full          # trailing comments work too
topology = kconnected:$n:2f+1:$cap:25
broadcast = phase-king
adversary = random:0.3
faults = rotating:1
mutations = flap:4:2:50
q = 5
n = 5, 7
cap = 1,2,4
f = 1
symbols = 8,32
seeds = 2
seed0 = 13
bounds = true
bounds_budget = 4096
link_model = uniform:10:20+straggler:0:1:3
net = on
"#;

    #[test]
    fn full_document_parses() {
        let s = parse_str(FULL).unwrap();
        assert_eq!(s.name, "full");
        assert_eq!(s.topology.spec_string(), "kconnected:$n:2f+1:$cap:25");
        assert_eq!(s.broadcast, BroadcastKind::PhaseKing);
        assert_eq!(s.adversary.spec_string(), "random:0.3");
        assert_eq!(s.faults.spec_string(), "rotating:1");
        assert_eq!(s.mutations.spec_string(), "flap:4:2:50");
        assert_eq!(s.q, 5);
        assert_eq!(s.n, vec![5, 7]);
        assert_eq!(s.cap, vec![1, 2, 4]);
        assert_eq!(s.symbols, vec![8, 32]);
        assert_eq!((s.seeds, s.seed0), (2, 13));
        assert!(s.bounds && s.net);
        assert_eq!(s.bounds_budget, 4096);
        assert_eq!(s.link_model.straggler, Some((0, 1, 3)));
        assert_eq!(s.job_count(), (2 * 3) * 2 * 2);
    }

    #[test]
    fn roundtrip_through_canonical_form() {
        let s = parse_str(FULL).unwrap();
        let text = to_scenario_string(&s);
        assert_eq!(text.lines().count(), KEYS.len(), "every key, once");
        assert_eq!(parse_str(&text).unwrap(), s);
    }

    /// `parse(to_scenario_string(parse(f))) == parse(f)` for every bundled
    /// scenario and every benchmark workload file.
    #[test]
    fn every_bundled_and_workload_file_roundtrips() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs = vec![root.join("scenarios")];
        for entry in std::fs::read_dir(root.join("benchmark/workloads")).unwrap() {
            dirs.push(entry.unwrap().path());
        }
        let mut files = 0;
        for dir in dirs {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                let text = std::fs::read_to_string(&path).unwrap();
                let spec = parse_str(&text.replace("{{SEED}}", "11"))
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let again = parse_str(&to_scenario_string(&spec)).unwrap();
                assert_eq!(again, spec, "{}", path.display());
                files += 1;
            }
        }
        assert_eq!(files, 22 + 11);
    }

    #[test]
    fn defaults_fill_unset_keys() {
        let s = parse_str("name = tiny\n").unwrap();
        assert_eq!(s, ScenarioSpec::new("tiny"));
        assert_eq!(s.q, 8);
        assert_eq!(s.n, vec![4]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_str("name = x\nbogus-key = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown key"));
        let known: Vec<&str> = KEYS.iter().map(|k| k.name).collect();
        assert!(e
            .message
            .ends_with(&format!("(known: {})", known.join(", "))));
        let e = parse_str("topology = torus:3\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_str("q = many\n").unwrap_err();
        assert!(e.message.contains("key \"q\": bad number"), "{e}");
        let e = parse_str("name = x\nq 9\n").unwrap_err();
        assert!(e.message.contains("key = value"));
    }

    #[test]
    fn removed_switch_keys_are_unknown_keys_with_line_numbers() {
        // `batch`, `plan_repair` and `plan_cache` selected reference paths
        // that no longer exist, `threads` duplicated the `--threads`
        // deployment setting, and `streams` ran several deployments in one
        // job where `seeds` already does; a file that still sets them must
        // say so.
        for (head, line, key) in [
            ("name = x\nq = 2\n", 3, "batch"),
            ("name = x\nq = 2\n", 3, "plan_repair"),
            ("name = x\n", 2, "plan_cache"),
            ("name = x\n", 2, "threads"),
            ("name = x\nq = 2\n", 3, "streams"),
        ] {
            let e = parse_str(&format!("{head}{key} = off\n")).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert!(e.message.contains(&format!("unknown key {key:?}")), "{e}");
            assert!(!e.message.contains(&format!(", {key},")), "{e}");
        }
        let text = to_scenario_string(&ScenarioSpec::new("x"));
        assert!(
            !text.contains("batch")
                && !text.contains("plan_")
                && !text.contains("threads")
                && !text.contains("streams"),
            "{text}"
        );
        assert_eq!(parse_str(&text).unwrap(), ScenarioSpec::new("x"));
    }

    #[test]
    fn schedule_errors_keep_their_line() {
        let e = parse_str("name = x\nmutations = degrade:4:2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("takes 3 parameter(s), got 2"), "{e}");
        let e = parse_str("name = x\n\nfaults = rotating:x\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("rotating: COUNT must be"), "{e}");
    }

    #[test]
    fn duplicate_keys_are_errors() {
        let e = parse_str("name = x\nq = 5\nq = 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate key \"q\""), "{e}");
        assert!(e.message.contains("line 2"), "{e}");
    }

    #[test]
    fn fixed_fault_sets_parse_into_sorted_sets() {
        let s = parse_str("name = x\nfaults = fixed:3, 1,3\n").unwrap();
        assert_eq!(s.faults.spec_string(), "fixed:1,3");
        assert_eq!(s.faults.fault_count(), 2);
    }

    #[test]
    fn whole_file_validation_runs() {
        let e = parse_str("name = x\nn = 4\nq = 0\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("q"));
    }

    /// `docs/scenarios.md` documents exactly the table rows, in table
    /// order: the topology families, every schedule form, and every key
    /// with its default.
    #[test]
    fn docs_list_every_table_row() {
        let doc = include_str!("../../../docs/scenarios.md");
        // The first two cells of each table row in a section.
        let rows = |heading: &str| -> Vec<(String, String)> {
            let section = (doc.split_once(heading))
                .and_then(|(_, rest)| rest.split_once("\n## "))
                .unwrap_or_else(|| panic!("docs/scenarios.md has a {heading:?} section"))
                .0;
            (section.lines().filter(|l| l.starts_with("| `")))
                .map(|l| {
                    let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                    (cells[1].to_string(), cells[2].to_string())
                })
                .collect()
        };
        let forms = crate::grammar::forms();
        let of_key = |key: &str| -> Vec<String> {
            (forms.iter().filter(|f| f.0 == key))
                .map(|f| f.1.clone())
                .collect()
        };
        for (heading, want) in [
            ("## Topology templates", of_key("topology")),
            ("## Adversaries", of_key("adversary")),
            ("## Fault schedules", of_key("faults")),
            ("## Mutation schedules", of_key("mutations")),
            ("## Link models", of_key("link_model")),
        ] {
            let documented: Vec<String> = (rows(heading).iter())
                .flat_map(|(first, _)| first.split(','))
                .map(|sig| sig.trim().trim_matches('`').to_string())
                .collect();
            assert_eq!(documented, want, "{heading}");
        }
        let keys: Vec<(String, String)> = (KEYS.iter())
            .map(|k| (format!("`{}`", k.name), format!("`{}`", k.default_value())))
            .collect();
        assert_eq!(rows("## Keys"), keys, "## Keys");
    }
}
