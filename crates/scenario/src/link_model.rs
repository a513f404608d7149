//! The `link_model` grammar: the per-link timing models message-level
//! execution (`net = on`) runs under, as a latency term and optional
//! clause terms (times in virtual nanoseconds; `nab_net::UNIT_NS` ns is one
//! capacity time-unit):
//!
//! ```text
//! link_model = <latency>[+loss:P:RETRIES:RTO_NS][+straggler:SRC:DST:FACTOR]
//! ```
//!
//! Every latency model is a row of [`LATENCY`] and every clause a row of
//! [`CLAUSES`]; a row's [`Part`] sets its part of a [`NetSpec`] and reads it
//! back for rendering. A repeated clause replaces the earlier one.

use nab_net::{Latency, Loss, NetSpec};
use nab_netgraph::NodeId;

use crate::grammar::{param, term_string, Arg, Form, Kind, Term, USIZE};

/// What a link-model form builds: the part of a [`NetSpec`] it describes.
pub struct Part {
    /// Sets the part from a term's arguments.
    set: fn(&mut NetSpec, &[Arg]),
    /// The arguments the part renders with; `None` when `net` does not
    /// use this form.
    get: fn(&NetSpec) -> Option<Vec<Arg>>,
}

const NS: u64 = u64::MAX;

/// Every latency model, in the order help and errors list them.
pub static LATENCY: [Form<Part>; 3] = [
    Form {
        name: "fixed",
        params: &[param("DELAY_NS", Kind::Uint(0, NS))],
        about: "constant propagation delay",
        build: Part {
            set: |net, a| {
                net.latency = Latency::Fixed {
                    delay_ns: a[0].uint(),
                }
            },
            get: |net| match net.latency {
                Latency::Fixed { delay_ns } => Some(vec![Arg::Uint(delay_ns)]),
                _ => None,
            },
        },
    },
    Form {
        name: "uniform",
        params: &[
            param("BASE_NS", Kind::Uint(0, NS)),
            param("JITTER_NS", Kind::Uint(0, NS)),
        ],
        about: "BASE_NS plus a uniform draw from 0..=JITTER_NS",
        build: Part {
            set: |net, a| {
                let (base_ns, jitter_ns) = (a[0].uint(), a[1].uint());
                net.latency = Latency::Uniform { base_ns, jitter_ns };
            },
            get: |net| match net.latency {
                Latency::Uniform { base_ns, jitter_ns } => {
                    Some(vec![Arg::Uint(base_ns), Arg::Uint(jitter_ns)])
                }
                _ => None,
            },
        },
    },
    Form {
        name: "lognormal",
        params: &[
            param("MEDIAN_NS", Kind::Uint(0, NS)),
            param("SIGMA", Kind::Float(0.0, 4.0)),
        ],
        about: "MEDIAN_NS · exp(SIGMA · z), z standard normal clamped to [-4, 4]",
        build: Part {
            set: |net, a| {
                let (median_ns, sigma) = (a[0].uint(), a[1].float());
                net.latency = Latency::LogNormal { median_ns, sigma };
            },
            get: |net| match net.latency {
                Latency::LogNormal { median_ns, sigma } => {
                    Some(vec![Arg::Uint(median_ns), Arg::Float(sigma)])
                }
                _ => None,
            },
        },
    },
];

/// Every clause, in the order a rendered spec writes them.
pub static CLAUSES: [Form<Part>; 2] = [
    Form {
        name: "loss",
        params: &[
            param("P", Kind::Float(0.0, 1.0)),
            param("RETRIES", Kind::Uint(0, 16)),
            param("RTO_NS", Kind::Uint(0, NS)),
        ],
        about: "each attempt on every link is lost with probability P; RETRIES retransmits, \
                RTO_NS apart, then a reliable one",
        build: Part {
            set: |net, a| {
                let (p, max_retries, rto_ns) = (a[0].float(), a[1].uint() as u32, a[2].uint());
                net.loss = Some(Loss {
                    p,
                    max_retries,
                    rto_ns,
                });
            },
            get: |net| {
                let loss = net.loss.as_ref()?;
                let retries = Arg::Uint(loss.max_retries.into());
                Some(vec![Arg::Float(loss.p), retries, Arg::Uint(loss.rto_ns)])
            },
        },
    },
    Form {
        name: "straggler",
        params: &[
            param("SRC", Kind::Uint(0, USIZE)),
            param("DST", Kind::Uint(0, USIZE)),
            param("FACTOR", Kind::Uint(1, NS)),
        ],
        about: "the one directed link SRC → DST has every latency parameter times FACTOR",
        build: Part {
            set: |net, a| {
                net.straggler = Some((a[0].uint() as NodeId, a[1].uint() as NodeId, a[2].uint()))
            },
            get: |net| {
                let (src, dst, factor) = net.straggler?;
                Some(vec![
                    Arg::Uint(src as u64),
                    Arg::Uint(dst as u64),
                    Arg::Uint(factor),
                ])
            },
        },
    },
];

/// Parses a `link_model` value like
/// `uniform:1000000:250000+loss:0.01:3:2000000`.
///
/// # Errors
///
/// Returns what is wrong with the first malformed term.
pub fn parse(text: &str) -> Result<NetSpec, String> {
    let mut terms = text.split('+');
    let latency = terms.next().unwrap_or_default();
    let mut net = NetSpec::default();
    let latency = Term::read("link_model latency", &LATENCY, latency)?;
    (latency.form.build.set)(&mut net, &latency.args);
    for clause in terms {
        let clause = Term::read("link_model clause", &CLAUSES, clause)?;
        (clause.form.build.set)(&mut net, &clause.args);
    }
    Ok(net)
}

/// The canonical spec string `net` parses back from.
pub fn spec_string(net: &NetSpec) -> String {
    let part = |form: &Form<Part>| (form.build.get)(net).map(|args| term_string(form.name, &args));
    let latency = LATENCY.iter().find_map(part).unwrap_or_default();
    (CLAUSES.iter().filter_map(part)).fold(latency, |s, clause| format!("{s}+{clause}"))
}
