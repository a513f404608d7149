//! The `.scenario` text format.
//!
//! One `key = value` assignment per line; `#` starts a comment; blank
//! lines are ignored. Unknown keys and malformed values are hard errors
//! with line numbers, so a typo'd scenario fails loudly instead of
//! silently running defaults. See `docs/scenarios.md` for the complete
//! reference, and `scenarios/` for the bundled library.
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

use nab::BroadcastKind;

use crate::adversary::AdversarySpec;
use crate::faults::FaultSchedule;
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
        match key {
            "name" => spec.name = value.to_string(),
            "topology" => {
                spec.topology = TopologyTemplate::parse(value).map_err(|e| err(lineno, e))?
            }
            "broadcast" => {
                spec.broadcast = BroadcastKind::parse(value).map_err(|e| err(lineno, e))?
            }
            "adversary" => {
                spec.adversary = AdversarySpec::parse(value).map_err(|e| err(lineno, e))?
            }
            "faults" => spec.faults = FaultSchedule::parse(value).map_err(|e| err(lineno, e))?,
            "mutations" => {
                spec.mutations = MutationSchedule::parse(value).map_err(|e| err(lineno, e))?
            }
            "q" => spec.q = parse_num(lineno, key, value)?,
            "streams" => spec.streams = parse_num(lineno, key, value)?,
            "n" => spec.n = parse_list(lineno, key, value)?,
            "cap" => spec.cap = parse_list(lineno, key, value)?,
            "f" => spec.f = parse_list(lineno, key, value)?,
            "symbols" => spec.symbols = parse_list(lineno, key, value)?,
            "seeds" => spec.seeds = parse_num(lineno, key, value)?,
            "seed0" => spec.seed0 = parse_num(lineno, key, value)?,
            "bounds" => spec.bounds = parse_bool(lineno, key, value)?,
            "bounds_budget" => spec.bounds_budget = parse_num(lineno, key, value)?,
            "link_model" => {
                spec.link_model = nab_net::NetSpec::parse(value).map_err(|e| err(lineno, e))?
            }
            "net" => spec.net = parse_bool(lineno, key, value)?,
            other => {
                return Err(err(
                    lineno,
                    format!(
                        "unknown key {other:?} (known: name, topology, broadcast, adversary, \
                         faults, mutations, q, streams, n, cap, f, symbols, seeds, seed0, \
                         bounds, bounds_budget, link_model, net)"
                    ),
                ))
            }
        }
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

fn parse_bool(line: usize, key: &str, value: &str) -> Result<bool, ParseError> {
    match value {
        "true" | "on" | "yes" => Ok(true),
        "false" | "off" | "no" => Ok(false),
        other => Err(err(line, format!("key {key:?}: bad boolean {other:?}"))),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, key: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| err(line, format!("key {key:?}: bad number {value:?}")))
}

fn parse_list<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<Vec<T>, ParseError> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| err(line, format!("key {key:?}: bad list entry {part:?}")))
        })
        .collect()
}

/// Renders a spec back to the `.scenario` format (canonical form).
pub fn to_scenario_string(spec: &ScenarioSpec) -> String {
    fn list<T: std::fmt::Display>(items: &[T]) -> String {
        items
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
    format!(
        "name = {}\ntopology = {}\nbroadcast = {}\nadversary = {}\nfaults = {}\n\
         mutations = {}\nq = {}\nstreams = {}\nn = {}\ncap = {}\nf = {}\nsymbols = {}\n\
         seeds = {}\nseed0 = {}\nbounds = {}\nbounds_budget = {}\nlink_model = {}\nnet = {}\n",
        spec.name,
        spec.topology.spec_string(),
        spec.broadcast.name(),
        spec.adversary.spec_string(),
        spec.faults.spec_string(),
        spec.mutations.spec_string(),
        spec.q,
        spec.streams,
        list(&spec.n),
        list(&spec.cap),
        list(&spec.f),
        list(&spec.symbols),
        spec.seeds,
        spec.seed0,
        spec.bounds,
        spec.bounds_budget,
        spec.link_model.spec_string(),
        spec.net,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const FULL: &str = r#"
# A full scenario exercising every key.
name = full          # trailing comments work too
topology = kconnected:$n:2f+1:$cap:25
broadcast = phase-king
adversary = random:0.3
faults = rotating:1
q = 5
streams = 2
n = 5, 7
cap = 1,2,4
f = 1
symbols = 8,32
seeds = 2
seed0 = 13
bounds = true
bounds_budget = 4096
"#;

    #[test]
    fn full_document_parses() {
        let s = parse_str(FULL).unwrap();
        assert_eq!(s.name, "full");
        assert_eq!(s.topology.spec_string(), "kconnected:$n:2f+1:$cap:25");
        assert_eq!(s.broadcast, BroadcastKind::PhaseKing);
        assert_eq!(s.adversary, AdversarySpec::Random { p: 0.3 });
        assert_eq!(s.faults, FaultSchedule::Rotating { count: 1 });
        assert_eq!((s.q, s.streams), (5, 2));
        assert_eq!(s.n, vec![5, 7]);
        assert_eq!(s.cap, vec![1, 2, 4]);
        assert_eq!(s.symbols, vec![8, 32]);
        assert_eq!((s.seeds, s.seed0), (2, 13));
        assert!(s.bounds);
        assert_eq!(s.bounds_budget, 4096);
        assert_eq!(s.job_count(), (2 * 3) * 2 * 2);
    }

    #[test]
    fn roundtrip_through_canonical_form() {
        let s = parse_str(FULL).unwrap();
        let text = to_scenario_string(&s);
        assert_eq!(parse_str(&text).unwrap(), s);
    }

    #[test]
    fn defaults_fill_unset_keys() {
        let s = parse_str("name = tiny\n").unwrap();
        assert_eq!(s.q, 8);
        assert_eq!(s.n, vec![4]);
        assert_eq!(s.faults, FaultSchedule::None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_str("name = x\nbogus-key = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown key"));
        let e = parse_str("topology = torus:3\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_str("q = many\n").unwrap_err();
        assert!(e.message.contains("bad number"));
        let e = parse_str("name = x\nq 9\n").unwrap_err();
        assert!(e.message.contains("key = value"));
    }

    #[test]
    fn removed_switch_keys_are_unknown_keys_with_line_numbers() {
        // `batch`, `plan_repair` and `plan_cache` selected reference paths
        // that no longer exist, and `threads` duplicated the `--threads`
        // deployment setting; a file that still sets them must say so.
        for (head, line, key) in [
            ("name = x\nq = 2\n", 3, "batch"),
            ("name = x\nq = 2\n", 3, "plan_repair"),
            ("name = x\n", 2, "plan_cache"),
            ("name = x\n", 2, "threads"),
        ] {
            let e = parse_str(&format!("{head}{key} = off\n")).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            assert!(e.message.contains(&format!("unknown key {key:?}")), "{e}");
            assert!(!e.message.contains(&format!(", {key},")), "{e}");
        }
        let text = to_scenario_string(&ScenarioSpec::new("x"));
        assert!(
            !text.contains("batch") && !text.contains("plan_") && !text.contains("threads"),
            "{text}"
        );
        assert_eq!(parse_str(&text).unwrap(), ScenarioSpec::new("x"));
    }

    #[test]
    fn mutations_key_parses_and_defaults_none() {
        let s = parse_str("name = x\n").unwrap();
        assert_eq!(s.mutations, MutationSchedule::None);
        let s = parse_str("name = x\nmutations = flap:4:2:50\n").unwrap();
        assert_eq!(
            s.mutations,
            MutationSchedule::Flap {
                every: 4,
                links: 2,
                pct: 50
            }
        );
        let e = parse_str("name = x\nmutations = degrade:4:2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("3 parameters"), "{e}");
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
        let s = parse_str("name = x\nfaults = fixed:3,1\n").unwrap();
        assert_eq!(s.faults, FaultSchedule::Fixed(BTreeSet::from([1, 3])));
    }

    #[test]
    fn whole_file_validation_runs() {
        let e = parse_str("name = x\nn = 4\nq = 0\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("q"));
    }

    #[test]
    fn docs_list_every_adversary_fault_and_mutation_form() {
        let doc = include_str!("../../../docs/scenarios.md");
        for (heading, known) in [
            ("## Adversaries", crate::adversary::KNOWN),
            ("## Fault schedules", crate::faults::KNOWN),
            ("## Mutation schedules", crate::mutations::KNOWN),
        ] {
            let section = doc
                .split_once(heading)
                .and_then(|(_, rest)| rest.split_once("\n## "))
                .unwrap_or_else(|| panic!("docs/scenarios.md has a {heading:?} section"))
                .0;
            for form in known.split(", ") {
                let form = format!("`{form}`");
                assert!(section.contains(&form), "{heading} lacks {form}");
            }
        }
    }
}
