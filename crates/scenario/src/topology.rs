//! Topology templates: parameterized graph families resolved per job.
//!
//! A scenario names a *family* (`complete:$n:$cap`), not a single graph;
//! the sweep runner substitutes each job's grid point into the template's
//! [`Tok`] parameters and materializes a concrete [`DiGraph`]. Random
//! families (`hetero`, `kconnected`, `expander`) draw from the job's
//! deterministic RNG, so the same job always sees the same graph.
//!
//! Every family is one row of [`FAMILIES`] (see [`crate::grammar`]): its
//! name, its parameters with their minimums, a description, and the one
//! function that checks the family's constraints and calls its generator,
//! so a new fabric is a new row.

use std::fmt;

use nab_netgraph::{gen, DiGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::grammar::{param, Arg, Form, Kind, Param, Term};

/// One template parameter: a literal or a job-grid variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    /// A literal value.
    Lit(u64),
    /// `$n` — the job's node count.
    N,
    /// `$cap` — the job's capacity scale.
    Cap,
    /// `$f` — the job's fault bound.
    F,
    /// `2f+1` — the NAB connectivity prerequisite for the job's `f`.
    TwoFPlusOne,
}

/// The grid point a template is resolved against.
#[derive(Debug, Clone, Copy)]
pub struct ResolveCtx {
    /// Node count (`$n`).
    pub n: usize,
    /// Capacity scale (`$cap`).
    pub cap: u64,
    /// Fault bound (`$f`, `2f+1`).
    pub f: usize,
    /// Seed for random families.
    pub seed: u64,
}

impl Tok {
    /// Resolves against a grid point.
    pub fn resolve(self, ctx: &ResolveCtx) -> u64 {
        match self {
            Tok::Lit(x) => x,
            Tok::N => ctx.n as u64,
            Tok::Cap => ctx.cap,
            Tok::F => ctx.f as u64,
            Tok::TwoFPlusOne => 2 * ctx.f as u64 + 1,
        }
    }

    /// Parses one template token: a number, `$n`, `$cap`, `$f`, or `2f+1`.
    pub fn parse(s: &str) -> Option<Tok> {
        match s {
            "$n" => Some(Tok::N),
            "$cap" => Some(Tok::Cap),
            "$f" => Some(Tok::F),
            "2f+1" => Some(Tok::TwoFPlusOne),
            _ => s.parse().ok().map(Tok::Lit),
        }
    }
}

/// Renders the token as [`Tok::parse`] reads it.
impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Lit(x) => write!(f, "{x}"),
            Tok::N => f.write_str("$n"),
            Tok::Cap => f.write_str("$cap"),
            Tok::F => f.write_str("$f"),
            Tok::TwoFPlusOne => f.write_str("2f+1"),
        }
    }
}

/// What a topology family builds: checks what the family needs across its
/// resolved parameters (one per parameter, each already at least its
/// minimum) and calls its generator; `Err` names the violated constraint.
pub type Generator = fn(&[u64], &mut StdRng) -> Result<DiGraph, String>;

/// A parameterized topology: a row of [`FAMILIES`] and one [`Tok`] per
/// parameter.
pub type TopologyTemplate = Term<Generator>;

/// A template parameter whose resolved value must be at least `min`.
const fn tok(name: &'static str, min: u64) -> Param {
    param(name, Kind::Tok(min))
}

fn need(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| what.into())
}

/// Every topology family, in the order help and errors list them.
pub static FAMILIES: [Form<Generator>; 15] = [
    Form {
        name: "fig1a",
        params: &[],
        about: "the paper's Figure 1(a) worked example (too sparse for f ≥ 1: run with f = 0)",
        build: |_, _| Ok(gen::figure_1a()),
    },
    Form {
        name: "fig1b",
        params: &[],
        about: "Figure 1(a) after the (2,3) dispute",
        build: |_, _| Ok(gen::figure_1b()),
    },
    Form {
        name: "fig2a",
        params: &[],
        about: "the paper's Figure 2(a) worked example (no path back to the source)",
        build: |_, _| Ok(gen::figure_2a()),
    },
    // The raw figure cannot host an engine run; the minimum reverse unit
    // links (4→1, 3→2 in paper numbering) add no in-capacity at the
    // binding node 3, so γ stays 2.
    Form {
        name: "fig2a-closed",
        params: &[],
        about: "Figure 2(a) plus two reverse unit links: strongly connected, γ = 2 preserved",
        build: |_, _| {
            let mut g = gen::figure_2a();
            g.add_edge(3, 0, 1);
            g.add_edge(2, 1, 1);
            Ok(g)
        },
    },
    Form {
        name: "complete",
        params: &[tok("N", 2), tok("CAP", 1)],
        about: "complete digraph, uniform capacity",
        build: |a, _| Ok(gen::complete(a[0] as usize, a[1])),
    },
    Form {
        name: "thinlink",
        params: &[tok("N", 2), tok("CAP", 1)],
        about: "complete:N:CAP with capacity 1 on the two links between nodes N-2 and N-1",
        build: |a, _| {
            let (n, mut g) = (a[0] as usize, gen::complete(a[0] as usize, a[1]));
            for (u, v) in [(n - 2, n - 1), (n - 1, n - 2)] {
                if let Some((id, _)) = g.find_edge(u, v) {
                    g.set_edge_cap(id, 1);
                }
            }
            Ok(g)
        },
    },
    Form {
        name: "hetero",
        params: &[tok("N", 2), tok("LO", 1), tok("HI", 1)],
        about: "complete digraph, capacities uniform in LO..=HI",
        build: |a, rng| {
            need(a[1] <= a[2], "LO ≤ HI")?;
            Ok(gen::complete_heterogeneous(a[0] as usize, a[1], a[2], rng))
        },
    },
    Form {
        name: "ring",
        params: &[tok("N", 3), tok("CAP", 1)],
        about: "bidirectional ring (2-connected: rejected for f ≥ 1)",
        build: |a, _| Ok(gen::ring(a[0] as usize, a[1])),
    },
    Form {
        name: "barbell",
        params: &[
            tok("HALF", 2),
            tok("CAP", 1),
            tok("BRIDGES", 1),
            tok("BCAP", 1),
        ],
        about: "two HALF-cliques joined by BRIDGES bidirectional bridges of capacity BCAP",
        build: |a, _| {
            need(a[2] <= a[0], "BRIDGES ≤ HALF")?;
            Ok(gen::barbell(a[0] as usize, a[1], a[2] as usize, a[3]))
        },
    },
    Form {
        name: "circulant",
        params: &[tok("N", 3), tok("M", 1), tok("CAP", 1)],
        about: "Harary circulant: vertex connectivity exactly 2M at minimum edge count",
        build: |a, _| {
            need(2 * a[1] < a[0], "2M < N")?;
            Ok(gen::circulant(a[0] as usize, a[1] as usize, a[2]))
        },
    },
    Form {
        name: "kconnected",
        params: &[tok("N", 3), tok("K", 1), tok("MAXCAP", 1), tok("EXTRA%", 0)],
        about: "random K-vertex-connected graph (use K = 2f+1): circulant backbone + EXTRA% chords",
        build: |a, rng| {
            need(
                2 * a[1].div_ceil(2) < a[0] && a[3] <= 100,
                "2⌈K/2⌉ < N and EXTRA% ≤ 100",
            )?;
            let (n, k, extra) = (a[0] as usize, a[1] as usize, a[3] as f64 / 100.0);
            Ok(gen::random_k_connected(n, k, a[2], extra, rng))
        },
    },
    Form {
        name: "fattree",
        params: &[tok("K", 2), tok("CAP", 1)],
        about: "three-tier fat-tree: (K/2)² cores, K pods of K/2 + K/2 switches, 5K²/4 nodes",
        build: |a, _| {
            need(a[0] % 2 == 0, "even K")?;
            Ok(gen::fat_tree(a[0] as usize, a[1]))
        },
    },
    Form {
        name: "torus",
        params: &[tok("ROWS", 3), tok("COLS", 3), tok("CAP", 1)],
        about: "2-D wraparound torus: four grid neighbors per node, vertex connectivity 4",
        build: |a, _| Ok(gen::torus(a[0] as usize, a[1] as usize, a[2])),
    },
    Form {
        name: "dragonfly",
        params: &[tok("GROUPS", 2), tok("ROUTERS", 2), tok("CAP", 1)],
        about: "fully meshed groups of ROUTERS routers, one global link per group pair",
        build: |a, _| Ok(gen::dragonfly(a[0] as usize, a[1] as usize, a[2])),
    },
    Form {
        name: "expander",
        params: &[tok("N", 3), tok("DEGREE", 2), tok("MAXCAP", 1)],
        about: "bidirectional ring plus random chords to degree ≈ DEGREE, caps in 1..=MAXCAP",
        build: |a, rng| {
            Ok(gen::random_expander(
                a[0] as usize,
                a[1] as usize,
                a[2],
                rng,
            ))
        },
    },
];

impl TopologyTemplate {
    /// Parses a topology spec like `complete:$n:$cap` or `fig1a`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Term::read("topology", &FAMILIES, spec)
    }

    /// Whether any parameter is a grid variable (`$n`, `$cap`, `$f`,
    /// `2f+1`) rather than a literal.
    pub fn uses_grid_variables(&self) -> bool {
        (self.args.iter()).any(|a| matches!(a, Arg::Tok(t) if !matches!(t, Tok::Lit(_))))
    }

    /// Materializes the concrete graph for one grid point.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated family constraint (instead of
    /// panicking) so a sweep can record the grid point as rejected.
    pub fn build(&self, ctx: &ResolveCtx) -> Result<DiGraph, String> {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x746F_706F_6C6F_6779); // "topology"
        let resolve = |a: &Arg| match a {
            Arg::Tok(t) => t.resolve(ctx),
            other => other.uint(),
        };
        let args: Vec<u64> = self.args.iter().map(resolve).collect();
        let params = self.form.params.iter().zip(&args);
        let below = params.clone().find_map(|(p, &v)| match p.kind {
            Kind::Tok(min) if v < min => Some(format!("{} ≥ {min}", p.name)),
            _ => None,
        });
        let built = match below {
            Some(what) => Err(what),
            None => (self.form.build)(&args, &mut rng),
        };
        built.map_err(|what| {
            let got: Vec<String> = params.map(|(p, v)| format!("{}={v}", p.name)).collect();
            format!("{}: need {what}; got {}", self.form.name, got.join(" "))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ResolveCtx {
        ResolveCtx {
            n: 5,
            cap: 3,
            f: 1,
            seed: 11,
        }
    }

    /// `family`'s spec with `arity` parameters drawn cyclically from `toks`.
    fn spec_of(family: &Form<Generator>, arity: usize, toks: &[&str]) -> String {
        let mut spec = family.name.to_string();
        for i in 0..arity {
            spec.push(':');
            spec.push_str(toks[i % toks.len()]);
        }
        spec
    }

    #[test]
    fn tokens_resolve() {
        let c = ctx();
        assert_eq!(Tok::Lit(9).resolve(&c), 9);
        assert_eq!(Tok::N.resolve(&c), 5);
        assert_eq!(Tok::Cap.resolve(&c), 3);
        assert_eq!(Tok::F.resolve(&c), 1);
        assert_eq!(Tok::TwoFPlusOne.resolve(&c), 3);
    }

    #[test]
    fn parse_roundtrips_spec_strings() {
        for family in &FAMILIES {
            let arity = family.params.len();
            for toks in [
                &["6", "2"][..],
                &["$n", "$cap", "$f", "2f+1"],
                &["2f+1", "7"],
            ] {
                let s = spec_of(family, arity, toks);
                let t = TopologyTemplate::parse(&s).unwrap();
                assert_eq!(t.spec_string(), s);
                assert_eq!(t.uses_grid_variables(), arity > 0 && toks[0] != "6", "{s}");
                assert_eq!(TopologyTemplate::parse(&t.spec_string()).unwrap(), t);
            }
        }
    }

    #[test]
    fn constraint_violations_are_errors_not_panics() {
        // Every parameterized family has a parameter with a positive
        // minimum first, so all-zero parameters violate every row.
        for family in FAMILIES.iter().filter(|f| !f.params.is_empty()) {
            let s = spec_of(family, family.params.len(), &["0"]);
            let e = TopologyTemplate::parse(&s)
                .unwrap()
                .build(&ctx())
                .unwrap_err();
            assert!(
                e.starts_with(&format!("{}: need ", family.name)),
                "{s}: {e}"
            );
            assert!(
                e.contains(&format!("got {}=0", family.params[0].name)),
                "{s}: {e}"
            );
        }
        // One violated clause at otherwise valid parameters: chords too
        // wide, more bridges than nodes, odd fat-tree k, degenerate torus,
        // 1-group dragonfly, degree-1 expander, inverted capacity range,
        // 2-ring, K ≥ N, zero capacity.
        for bad in [
            "circulant:4:2:1",
            "barbell:3:1:5:1",
            "fattree:3:2",
            "torus:2:4:1",
            "dragonfly:1:4:1",
            "expander:8:1:2",
            "hetero:4:3:2",
            "ring:2:1",
            "kconnected:4:4:2:10",
            "kconnected:8:3:2:101",
            "complete:4:0",
        ] {
            let t = TopologyTemplate::parse(bad).unwrap();
            assert!(t.build(&ctx()).is_err(), "{bad} should reject");
        }
        // Grid variables resolve before the check.
        let t = TopologyTemplate::parse("circulant:$n:$cap:1").unwrap();
        let e = t.build(&ctx()).unwrap_err();
        assert_eq!(e, "circulant: need 2M < N; got N=5 M=3 CAP=1");
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let t = TopologyTemplate::parse("kconnected:8:3:4:30").unwrap();
        let a = t.build(&ctx()).unwrap();
        let b = t.build(&ctx()).unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        let caps_a: Vec<u64> = a.edges().map(|(_, e)| e.cap).collect();
        let caps_b: Vec<u64> = b.edges().map(|(_, e)| e.cap).collect();
        assert_eq!(caps_a, caps_b);
    }

    #[test]
    fn fig2a_closed_is_strongly_connected_with_gamma_2() {
        use nab_netgraph::flow::broadcast_rate;
        let build = |s: &str| TopologyTemplate::parse(s).unwrap().build(&ctx()).unwrap();
        let raw = build("fig2a");
        assert!(!raw.all_reachable_from(2), "raw figure has no return path");
        let closed = build("fig2a-closed");
        for s in closed.nodes() {
            assert!(closed.all_reachable_from(s));
        }
        assert_eq!(broadcast_rate(&closed, 0), 2, "closure preserves γ");
    }

    #[test]
    fn substituted_build_matches_literal_build() {
        let templ = TopologyTemplate::parse("complete:$n:$cap").unwrap();
        let g = templ.build(&ctx()).unwrap();
        assert_eq!(g.active_count(), 5);
        assert_eq!(g.find_edge(0, 1).unwrap().1.cap, 3);
        let literal = TopologyTemplate::parse("complete:5:3").unwrap();
        assert_eq!(literal.build(&ctx()).unwrap(), g);
    }

    #[test]
    fn thinlink_is_complete_with_one_thin_pair() {
        let build = |s: &str| TopologyTemplate::parse(s).unwrap().build(&ctx()).unwrap();
        let g = build("thinlink:4:8");
        assert_eq!(g.edge_count(), 12);
        for (_, e) in g.edges() {
            let thin = (e.src, e.dst) == (2, 3) || (e.src, e.dst) == (3, 2);
            assert_eq!(e.cap, if thin { 1 } else { 8 }, "{}→{}", e.src, e.dst);
        }
        assert_eq!(build("thinlink:5:1"), build("complete:5:1"));
    }

    #[test]
    fn datacenter_families_build_at_scale() {
        use nab_netgraph::connectivity::strongly_connected;
        let cases = [
            ("fattree:4:8", 20),
            ("torus:4:5:2", 20),
            ("dragonfly:5:4:3", 20),
            ("expander:24:4:6", 24),
        ];
        for (spec, nodes) in cases {
            let g = TopologyTemplate::parse(spec)
                .unwrap()
                .build(&ctx())
                .unwrap();
            assert_eq!(g.active_count(), nodes, "{spec}");
            assert!(strongly_connected(&g), "{spec}");
        }
        // Random expanders are deterministic per seed.
        let t = TopologyTemplate::parse("expander:24:4:6").unwrap();
        let (a, b) = (t.build(&ctx()).unwrap(), t.build(&ctx()).unwrap());
        assert_eq!(a, b);
    }
}
