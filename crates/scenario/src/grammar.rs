//! The scenario grammars as data.
//!
//! The value of a `topology`, `adversary`, `faults` or `mutations` key is
//! one *term*, `NAME[:PARAM]*` (`complete:$n:$cap`, `worst-case:1:8`); a
//! `link_model` value is a latency term and `+`-separated clause terms.
//! Every form a key accepts is one [`Form`] row of its axis's table: the
//! name, the typed parameters with their ranges and defaults, a
//! description, and the builder the axis runs on a term's arguments.
//! Parsing, rendering, the unknown-form and bad-parameter errors,
//! `nab-sim --help` and the check that `docs/scenarios.md` lists every form
//! are generic over the rows, so a new fabric, adversary, schedule or link
//! clause is a new row.

use std::collections::BTreeSet;
use std::fmt;

use nab_netgraph::NodeId;

use crate::topology::Tok;

/// What a parameter accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// An unsigned integer in `min..=max`.
    Uint(u64, u64),
    /// A number in `min..=max`.
    Float(f64, f64),
    /// A node id that must be faulty (`true`) or fault-free (`false`)
    /// wherever the term runs.
    Node(bool),
    /// A comma-separated set of node ids.
    Ids,
    /// A topology [`Tok`]: a literal or a grid variable, whose resolved
    /// value must be at least the minimum (checked per grid point).
    Tok(u64),
}

/// The largest value a `usize` count or id parameter takes.
pub(crate) const USIZE: u64 = usize::MAX as u64;

/// One parameter of a [`Form`].
#[derive(Debug, PartialEq)]
pub struct Param {
    /// The name the docs, `--help` and errors use.
    pub name: &'static str,
    /// What it accepts.
    pub kind: Kind,
    /// The value an omitted trailing parameter takes.
    pub default: Option<&'static str>,
}

/// A parameter without a default.
pub(crate) const fn param(name: &'static str, kind: Kind) -> Param {
    Param {
        name,
        kind,
        default: None,
    }
}

impl Param {
    /// The same parameter, taking `default` when omitted.
    pub(crate) const fn or(self, default: &'static str) -> Param {
        Param {
            default: Some(default),
            ..self
        }
    }

    /// Parses and range-checks one argument; `Err` names the parameter.
    fn parse(&self, raw: &str) -> Result<Arg, String> {
        let (arg, what) = match self.kind {
            Kind::Uint(min, max) => (
                raw.parse()
                    .ok()
                    .filter(|v| (min..=max).contains(v))
                    .map(Arg::Uint),
                match max {
                    USIZE.. => format!("an integer ≥ {min}"),
                    _ => format!("an integer in {min}..={max}"),
                },
            ),
            Kind::Float(min, max) => (
                raw.parse()
                    .ok()
                    .filter(|v| (min..=max).contains(v))
                    .map(Arg::Float),
                format!("a number in [{min}, {max}]"),
            ),
            Kind::Node(_) => (raw.parse().ok().map(Arg::Uint), "a node id".into()),
            Kind::Ids => (
                (raw.split(',').map(|id| id.trim().parse().ok()))
                    .collect::<Option<_>>()
                    .map(Arg::Ids),
                "comma-separated node ids".into(),
            ),
            Kind::Tok(_) => (
                Tok::parse(raw).map(Arg::Tok),
                "a number, $n, $cap, $f or 2f+1".into(),
            ),
        };
        arg.ok_or_else(|| format!("{} must be {what}, got {raw:?}", self.name))
    }
}

/// One parsed, range-checked argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Of a [`Kind::Uint`] or [`Kind::Node`] parameter.
    Uint(u64),
    /// Of a [`Kind::Float`] parameter.
    Float(f64),
    /// Of a [`Kind::Ids`] parameter.
    Ids(BTreeSet<NodeId>),
    /// Of a [`Kind::Tok`] parameter.
    Tok(Tok),
}

impl Arg {
    /// The integer (0 for another kind, which a parsed term never holds
    /// where its form declares an integer).
    pub(crate) fn uint(&self) -> u64 {
        match self {
            Arg::Uint(x) => *x,
            _ => 0,
        }
    }

    /// The number (0 for another kind, as for [`Arg::uint`]).
    pub(crate) fn float(&self) -> f64 {
        match self {
            Arg::Float(x) => *x,
            _ => 0.0,
        }
    }
}

/// Renders the argument as [`Param`] parses it.
impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Uint(x) => write!(f, "{x}"),
            Arg::Float(x) => write!(f, "{x}"),
            Arg::Ids(ids) => {
                let ids: Vec<String> = ids.iter().map(|v| v.to_string()).collect();
                f.write_str(&ids.join(","))
            }
            Arg::Tok(tok) => write!(f, "{tok}"),
        }
    }
}

/// One form of a grammar: a row of an axis's table.
#[derive(PartialEq)]
pub struct Form<B: 'static> {
    /// The name a term starts with.
    pub name: &'static str,
    /// Parameters in term order; only trailing ones have defaults.
    pub params: &'static [Param],
    /// One-line description.
    pub about: &'static str,
    /// What the axis runs on a term's arguments, one per entry of
    /// `params`, each parsed and range-checked.
    pub build: B,
}

impl<B> Form<B> {
    /// The form as the docs write it: `worst-case:COUNT[:MAX_CANDIDATES]`.
    pub fn signature(&self) -> String {
        (self.params.iter()).fold(self.name.into(), |s, p| match p.default {
            None => format!("{s}:{}", p.name),
            Some(_) => format!("{s}[:{}]", p.name),
        })
    }
}

/// `name` and `args` as a term: `name:arg:arg`.
pub(crate) fn term_string(name: &str, args: &[Arg]) -> String {
    args.iter().fold(name.into(), |s, a| format!("{s}:{a}"))
}

/// A parsed term: its form and one argument per parameter.
#[derive(Clone, PartialEq)]
pub struct Term<B: 'static> {
    /// The term's form.
    pub(crate) form: &'static Form<B>,
    /// One argument per parameter of `form`.
    pub(crate) args: Vec<Arg>,
}

impl<B> Term<B> {
    /// Parses `text` against `forms`. Errors, naming the axis `what`, say
    /// which form is unknown before anything else, then whether the
    /// parameter count is wrong, then which parameter is malformed or out
    /// of range.
    pub fn read(what: &str, forms: &'static [Form<B>], text: &str) -> Result<Self, String> {
        let mut parts = text.split(':');
        let name = parts.next().unwrap_or_default();
        let Some(form) = forms.iter().find(|f| f.name == name) else {
            let known: Vec<String> = forms.iter().map(Form::signature).collect();
            let known = known.join(", ");
            return Err(format!("unknown {what} {name:?} (known: {known})"));
        };
        let given: Vec<&str> = parts.collect();
        let required = form.params.iter().filter(|p| p.default.is_none()).count();
        if !(required..=form.params.len()).contains(&given.len()) {
            let arity = match form.params.len() {
                n if n == required => n.to_string(),
                n => format!("{required} to {n}"),
            };
            let (signature, got) = (form.signature(), given.len());
            return Err(format!(
                "{what} {signature} takes {arity} parameter(s), got {got}"
            ));
        }
        let args = (form.params.iter().enumerate())
            .map(|(i, p)| p.parse(given.get(i).copied().or(p.default).unwrap_or_default()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{what} {name}: {e}"))?;
        Ok(Term { form, args })
    }

    /// The canonical spec string this term parses from: every parameter
    /// written out, defaults included.
    pub fn spec_string(&self) -> String {
        term_string(self.form.name, &self.args)
    }
}

impl<B> fmt::Debug for Term<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

/// Every form of every axis as `(key, signature, about)`, in the order
/// `nab-sim --help` and `docs/scenarios.md` list them; `link_model`
/// clauses carry their `+`.
pub fn forms() -> Vec<(&'static str, String, &'static str)> {
    fn rows<B>(
        key: &'static str,
        plus: &str,
        forms: &[Form<B>],
    ) -> Vec<(&'static str, String, &'static str)> {
        let row = |f: &Form<B>| (key, format!("{plus}{}", f.signature()), f.about);
        forms.iter().map(row).collect()
    }
    [
        rows("topology", "", &crate::topology::FAMILIES),
        rows("adversary", "", &crate::adversary::FORMS),
        rows("faults", "", &crate::faults::FORMS),
        rows("mutations", "", &crate::mutations::FORMS),
        rows("link_model", "", &crate::link_model::LATENCY),
        rows("link_model", "+", &crate::link_model::CLAUSES),
    ]
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{self, AdversarySpec};
    use crate::faults::{self, FaultSchedule};
    use crate::link_model;
    use crate::mutations::{self, MutationSchedule};
    use crate::topology::{self, TopologyTemplate};

    /// The canonical rendering of a parsed term, or the parse error.
    type Canon = fn(&str) -> Result<String, String>;

    fn topology(text: &str) -> Result<String, String> {
        TopologyTemplate::parse(text).map(|t| t.spec_string())
    }

    fn adversary(text: &str) -> Result<String, String> {
        AdversarySpec::parse(text).map(|t| t.spec_string())
    }

    fn fault(text: &str) -> Result<String, String> {
        FaultSchedule::parse(text).map(|t| t.spec_string())
    }

    fn mutation(text: &str) -> Result<String, String> {
        MutationSchedule::parse(text).map(|t| t.spec_string())
    }

    fn latency(text: &str) -> Result<String, String> {
        link_model::parse(text).map(|net| link_model::spec_string(&net))
    }

    /// A clause after the zero latency model, rendered without it.
    fn clause(text: &str) -> Result<String, String> {
        let full = latency(&format!("fixed:0+{text}"))?;
        Ok(full.trim_start_matches("fixed:0+").into())
    }

    #[derive(Clone, Copy, Debug)]
    enum Pick {
        Min,
        Max,
        Default,
    }

    /// `p`'s value at `pick`, as a term writes it; a parameter without a
    /// default takes its minimum for [`Pick::Default`].
    fn value(p: &Param, pick: Pick) -> String {
        match (pick, p.default, p.kind) {
            (Pick::Default, Some(d), _) => d.into(),
            (Pick::Max, _, Kind::Uint(_, max)) => max.to_string(),
            (Pick::Max, _, Kind::Float(_, max)) => Arg::Float(max).to_string(),
            (Pick::Max, _, Kind::Node(_) | Kind::Ids) => USIZE.to_string(),
            (Pick::Max, _, Kind::Tok(_)) => "2f+1".into(),
            (_, _, Kind::Uint(min, _) | Kind::Tok(min)) => min.to_string(),
            (_, _, Kind::Float(min, _)) => Arg::Float(min).to_string(),
            (_, _, Kind::Node(_) | Kind::Ids) => "0".into(),
        }
    }

    /// Values `p` rejects: malformed, and just outside each finite bound.
    fn rejected(p: &Param) -> Vec<String> {
        let mut bad = vec!["x".to_string(), String::new(), "-1".into()];
        match p.kind {
            Kind::Uint(min, max) => {
                bad.extend(min.checked_sub(1).map(|v| v.to_string()));
                bad.push((u128::from(max) + 1).to_string());
            }
            Kind::Float(min, max) => {
                bad.extend([Arg::Float(min - 1.0), Arg::Float(max + 1.0)].map(|a| a.to_string()));
                bad.push("NaN".into());
            }
            Kind::Node(_) => {}
            Kind::Ids => bad.push("1,,2".into()),
            // Below-minimum values are rejected per grid point, by `build`.
            Kind::Tok(_) => bad.push("$m".into()),
        }
        bad
    }

    fn term(name: &str, values: &[String]) -> String {
        values.iter().fold(name.into(), |s, v| format!("{s}:{v}"))
    }

    /// Every row of `forms`, through `canon`: rendering then parsing is the
    /// identity at each parameter's minimum, maximum and default; omitted
    /// trailing parameters take their defaults; one parameter too many or
    /// too few is rejected; and every out-of-range value is rejected with
    /// the form and parameter named.
    fn check_rows<B>(forms: &'static [Form<B>], canon: Canon) {
        for (i, form) in forms.iter().enumerate() {
            assert!(
                forms[..i].iter().all(|f| f.name != form.name),
                "{}",
                form.name
            );
            let at = |pick| -> Vec<String> { form.params.iter().map(|p| value(p, pick)).collect() };
            for pick in [Pick::Min, Pick::Max, Pick::Default] {
                let text = term(form.name, &at(pick));
                assert_eq!(canon(&text), Ok(text.clone()), "{pick:?}");
            }
            let required = form.params.iter().filter(|p| p.default.is_none()).count();
            let defaults = at(Pick::Default);
            for given in required..form.params.len() {
                let text = term(form.name, &defaults[..given]);
                assert_eq!(canon(&text), Ok(term(form.name, &defaults)), "{text}");
            }
            let mins = at(Pick::Min);
            let mut arity = vec![[&mins[..], &["0".to_string()]].concat()];
            arity.extend(required.checked_sub(1).map(|n| mins[..n].to_vec()));
            for values in arity {
                let text = term(form.name, &values);
                let e = canon(&text).unwrap_err();
                let got = format!(" parameter(s), got {}", values.len());
                assert!(
                    e.contains(&form.signature()) && e.contains(&got),
                    "{text}: {e}"
                );
            }
            for (i, p) in form.params.iter().enumerate() {
                for bad in rejected(p) {
                    let mut values = mins.clone();
                    values[i] = bad;
                    let text = term(form.name, &values);
                    let e = canon(&text).unwrap_err();
                    let named = format!("{}: {} must be", form.name, p.name);
                    assert!(e.contains(&named), "{text}: {e}");
                }
            }
        }
    }

    #[test]
    fn every_row_of_every_table_renders_parses_and_rejects_generically() {
        check_rows(&topology::FAMILIES, topology);
        check_rows(&adversary::FORMS, adversary);
        check_rows(&faults::FORMS, fault);
        check_rows(&mutations::FORMS, mutation);
        check_rows(&link_model::LATENCY, latency);
        check_rows(&link_model::CLAUSES, clause);
    }

    #[test]
    fn an_unknown_form_is_named_before_arity_or_ranges() {
        let known = |key: &str| -> String {
            let forms = forms().into_iter().filter(|f| f.0 == key);
            let signatures: Vec<String> = forms.map(|f| f.1).collect();
            signatures.join(", ")
        };
        for (text, canon, what, key) in [
            (
                "sometimes",
                mutation as Canon,
                "mutation schedule",
                "mutations",
            ),
            (
                "sometimes:0:1:1",
                mutation,
                "mutation schedule",
                "mutations",
            ),
            ("mallory", adversary, "adversary", "adversary"),
            ("rotate:x", fault, "fault schedule", "faults"),
            ("hypercube:4:4", topology, "topology", "topology"),
        ] {
            let name = text.split(':').next().unwrap();
            let want = format!("unknown {what} {name:?} (known: {})", known(key));
            assert_eq!(canon(text), Err(want));
        }
        let e = latency("gaussian:5").unwrap_err();
        assert!(
            e.starts_with("unknown link_model latency \"gaussian\" (known: fixed:"),
            "{e}"
        );
        let e = latency("fixed:1+warp:9").unwrap_err();
        assert!(
            e.starts_with("unknown link_model clause \"warp\" (known: loss:"),
            "{e}"
        );
    }

    #[test]
    fn a_bad_parameter_is_named() {
        assert_eq!(
            fault("rotating:x"),
            Err("fault schedule rotating: COUNT must be an integer ≥ 0, got \"x\"".into())
        );
        // RETRIES was cast to u32 before its range check, so 2^32 + 1
        // read as one retry and rendered as `loss:0.1:1:1000`.
        assert_eq!(
            clause("loss:0.1:4294967297:1000"),
            Err(
                "link_model clause loss: RETRIES must be an integer in 0..=16, \
                 got \"4294967297\""
                    .into()
            )
        );
    }

    /// What the axes read off a term's parameters positionally.
    #[test]
    fn positional_parameters_mean_what_the_axes_read() {
        for form in &faults::FORMS {
            let first = form.params.first().map(|p| p.kind);
            assert!(
                matches!(first, None | Some(Kind::Ids | Kind::Uint(..))),
                "{}",
                form.name
            );
        }
        for form in &mutations::FORMS {
            let first = form.params.first().map(|p| (p.name, p.kind));
            assert!(
                matches!(first, None | Some(("EVERY", Kind::Uint(1, _)))),
                "{}",
                form.name
            );
        }
        let count = |s: &str| FaultSchedule::parse(s).unwrap().fault_count();
        assert_eq!(
            [count("none"), count("fixed:4,7"), count("rotating:3")],
            [0, 2, 3]
        );
        assert_eq!(count("worst-case:2"), 2);
    }

    #[test]
    fn repeated_clauses_keep_the_last_and_render_in_table_order() {
        assert_eq!(
            latency("fixed:5+straggler:0:1:2+loss:0.5:1:9+loss:0.25:2:9"),
            Ok("fixed:5+loss:0.25:2:9+straggler:0:1:2".into())
        );
    }
}
