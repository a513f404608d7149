//! Topology templates: parameterized graph families resolved per job.
//!
//! A scenario names a *family* (`complete:$n:$cap`), not a single graph;
//! the sweep runner substitutes each job's grid point into the template's
//! [`Tok`] parameters and materializes a concrete [`DiGraph`]. Random
//! families (`hetero`, `kconnected`) draw from the job's deterministic
//! RNG, so the same job always sees the same graph.

use nab_netgraph::{gen, DiGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    pub fn parse(s: &str) -> Result<Tok, String> {
        match s {
            "$n" => Ok(Tok::N),
            "$cap" => Ok(Tok::Cap),
            "$f" => Ok(Tok::F),
            "2f+1" => Ok(Tok::TwoFPlusOne),
            _ => s.parse::<u64>().map(Tok::Lit).map_err(|_| {
                format!("bad parameter {s:?}: expected a number, $n, $cap, $f, or 2f+1")
            }),
        }
    }
}

/// A parameterized topology family.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyTemplate {
    /// The paper's Figure 1(a) worked example.
    Figure1a,
    /// Figure 1(a) after the (2,3) dispute.
    Figure1b,
    /// The paper's Figure 2(a) worked example.
    Figure2a,
    /// Figure 2(a) plus the minimum reverse unit links (4→1, 3→2 in paper
    /// numbering) that make the digraph strongly connected — the raw
    /// figure has no path back to the source, so only this closure can
    /// host an engine run. The closure preserves `γ = 2` (it adds no
    /// in-capacity at the binding node 3).
    Figure2aClosed,
    /// Complete digraph `complete:N:CAP`.
    Complete {
        /// Node count.
        n: Tok,
        /// Uniform capacity.
        cap: Tok,
    },
    /// Complete digraph, capacities uniform in `LO..=HI`: `hetero:N:LO:HI`.
    Hetero {
        /// Node count.
        n: Tok,
        /// Minimum capacity.
        lo: Tok,
        /// Maximum capacity.
        hi: Tok,
    },
    /// Bidirectional ring `ring:N:CAP`.
    Ring {
        /// Node count.
        n: Tok,
        /// Uniform capacity.
        cap: Tok,
    },
    /// Two cliques joined by bridges: `barbell:HALF:CAP:BRIDGES:BCAP`.
    Barbell {
        /// Nodes per cluster.
        half: Tok,
        /// Intra-cluster capacity.
        cluster_cap: Tok,
        /// Bridge count.
        bridges: Tok,
        /// Per-bridge capacity.
        bridge_cap: Tok,
    },
    /// Harary circulant `circulant:N:M:CAP` (connectivity exactly `2M`).
    Circulant {
        /// Node count.
        n: Tok,
        /// Chord half-width.
        m: Tok,
        /// Uniform capacity.
        cap: Tok,
    },
    /// Three-tier fat-tree `fattree:K:CAP` (`K` even; `(K/2)²` cores,
    /// `K` pods of `K/2` aggregation + `K/2` edge switches — the
    /// datacenter Clos fabric, `5K²/4` nodes total).
    FatTree {
        /// Pod/port parameter (even, ≥ 2).
        k: Tok,
        /// Uniform link capacity.
        cap: Tok,
    },
    /// 2-D wraparound torus `torus:ROWS:COLS:CAP` (each node links to its
    /// four grid neighbors; vertex connectivity 4).
    Torus {
        /// Grid rows (≥ 3).
        rows: Tok,
        /// Grid columns (≥ 3).
        cols: Tok,
        /// Uniform link capacity.
        cap: Tok,
    },
    /// Dragonfly `dragonfly:GROUPS:ROUTERS:CAP`: fully connected groups
    /// of `ROUTERS` routers, one global link per group pair.
    Dragonfly {
        /// Number of groups (≥ 2).
        groups: Tok,
        /// Routers per group (≥ 2).
        routers: Tok,
        /// Uniform link capacity.
        cap: Tok,
    },
    /// Random-regular-ish expander `expander:N:DEG:MAXCAP`: a
    /// bidirectional ring plus random chords to degree ≈ `DEG`, caps
    /// uniform in `1..=MAXCAP`.
    Expander {
        /// Node count (≥ 3).
        n: Tok,
        /// Target degree (≥ 2).
        degree: Tok,
        /// Maximum link capacity.
        max_cap: Tok,
    },
    /// Random guaranteed-`K`-connected family
    /// `kconnected:N:K:MAXCAP:EXTRA%` (see
    /// [`gen::random_k_connected`]).
    KConnected {
        /// Node count.
        n: Tok,
        /// Connectivity guarantee (use `2f+1` for NAB's prerequisite).
        k: Tok,
        /// Maximum link capacity.
        max_cap: Tok,
        /// Extra-chord probability in percent (0–100).
        extra_pct: Tok,
    },
}

impl TopologyTemplate {
    /// Parses a topology spec like `complete:$n:$cap` or `fig1a`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let tok = |i: usize| -> Result<Tok, String> {
            parts
                .get(i)
                .ok_or_else(|| format!("topology {spec:?}: missing parameter {i}"))
                .and_then(|s| Tok::parse(s))
        };
        let arity = |want: usize| -> Result<(), String> {
            if parts.len() == want + 1 {
                Ok(())
            } else {
                Err(format!(
                    "topology {spec:?}: {} takes {want} parameter(s), got {}",
                    parts[0],
                    parts.len() - 1
                ))
            }
        };
        match parts[0] {
            "fig1a" => arity(0).map(|_| TopologyTemplate::Figure1a),
            "fig1b" => arity(0).map(|_| TopologyTemplate::Figure1b),
            "fig2a" => arity(0).map(|_| TopologyTemplate::Figure2a),
            "fig2a-closed" => arity(0).map(|_| TopologyTemplate::Figure2aClosed),
            "complete" => {
                arity(2)?;
                Ok(TopologyTemplate::Complete {
                    n: tok(1)?,
                    cap: tok(2)?,
                })
            }
            "hetero" => {
                arity(3)?;
                Ok(TopologyTemplate::Hetero {
                    n: tok(1)?,
                    lo: tok(2)?,
                    hi: tok(3)?,
                })
            }
            "ring" => {
                arity(2)?;
                Ok(TopologyTemplate::Ring {
                    n: tok(1)?,
                    cap: tok(2)?,
                })
            }
            "barbell" => {
                arity(4)?;
                Ok(TopologyTemplate::Barbell {
                    half: tok(1)?,
                    cluster_cap: tok(2)?,
                    bridges: tok(3)?,
                    bridge_cap: tok(4)?,
                })
            }
            "circulant" => {
                arity(3)?;
                Ok(TopologyTemplate::Circulant {
                    n: tok(1)?,
                    m: tok(2)?,
                    cap: tok(3)?,
                })
            }
            "kconnected" => {
                arity(4)?;
                Ok(TopologyTemplate::KConnected {
                    n: tok(1)?,
                    k: tok(2)?,
                    max_cap: tok(3)?,
                    extra_pct: tok(4)?,
                })
            }
            "fattree" => {
                arity(2)?;
                Ok(TopologyTemplate::FatTree {
                    k: tok(1)?,
                    cap: tok(2)?,
                })
            }
            "torus" => {
                arity(3)?;
                Ok(TopologyTemplate::Torus {
                    rows: tok(1)?,
                    cols: tok(2)?,
                    cap: tok(3)?,
                })
            }
            "dragonfly" => {
                arity(3)?;
                Ok(TopologyTemplate::Dragonfly {
                    groups: tok(1)?,
                    routers: tok(2)?,
                    cap: tok(3)?,
                })
            }
            "expander" => {
                arity(3)?;
                Ok(TopologyTemplate::Expander {
                    n: tok(1)?,
                    degree: tok(2)?,
                    max_cap: tok(3)?,
                })
            }
            other => Err(format!(
                "unknown topology {other:?} (known: fig1a, fig1b, fig2a, fig2a-closed, \
                 complete, hetero, ring, barbell, circulant, kconnected, fattree, torus, \
                 dragonfly, expander)"
            )),
        }
    }

    /// The canonical spec string this template parses from.
    pub fn spec_string(&self) -> String {
        fn t(tok: &Tok) -> String {
            match tok {
                Tok::Lit(x) => x.to_string(),
                Tok::N => "$n".into(),
                Tok::Cap => "$cap".into(),
                Tok::F => "$f".into(),
                Tok::TwoFPlusOne => "2f+1".into(),
            }
        }
        match self {
            TopologyTemplate::Figure1a => "fig1a".into(),
            TopologyTemplate::Figure1b => "fig1b".into(),
            TopologyTemplate::Figure2a => "fig2a".into(),
            TopologyTemplate::Figure2aClosed => "fig2a-closed".into(),
            TopologyTemplate::Complete { n, cap } => format!("complete:{}:{}", t(n), t(cap)),
            TopologyTemplate::Hetero { n, lo, hi } => {
                format!("hetero:{}:{}:{}", t(n), t(lo), t(hi))
            }
            TopologyTemplate::Ring { n, cap } => format!("ring:{}:{}", t(n), t(cap)),
            TopologyTemplate::Barbell {
                half,
                cluster_cap,
                bridges,
                bridge_cap,
            } => format!(
                "barbell:{}:{}:{}:{}",
                t(half),
                t(cluster_cap),
                t(bridges),
                t(bridge_cap)
            ),
            TopologyTemplate::Circulant { n, m, cap } => {
                format!("circulant:{}:{}:{}", t(n), t(m), t(cap))
            }
            TopologyTemplate::KConnected {
                n,
                k,
                max_cap,
                extra_pct,
            } => format!(
                "kconnected:{}:{}:{}:{}",
                t(n),
                t(k),
                t(max_cap),
                t(extra_pct)
            ),
            TopologyTemplate::FatTree { k, cap } => format!("fattree:{}:{}", t(k), t(cap)),
            TopologyTemplate::Torus { rows, cols, cap } => {
                format!("torus:{}:{}:{}", t(rows), t(cols), t(cap))
            }
            TopologyTemplate::Dragonfly {
                groups,
                routers,
                cap,
            } => format!("dragonfly:{}:{}:{}", t(groups), t(routers), t(cap)),
            TopologyTemplate::Expander { n, degree, max_cap } => {
                format!("expander:{}:{}:{}", t(n), t(degree), t(max_cap))
            }
        }
    }

    /// Materializes the concrete graph for one grid point.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated family constraint (instead of
    /// panicking) so a sweep can record the grid point as rejected.
    pub fn build(&self, ctx: &ResolveCtx) -> Result<DiGraph, String> {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x746F_706F_6C6F_6779); // "topology"
        match self {
            TopologyTemplate::Figure1a => Ok(gen::figure_1a()),
            TopologyTemplate::Figure1b => Ok(gen::figure_1b()),
            TopologyTemplate::Figure2a => Ok(gen::figure_2a()),
            TopologyTemplate::Figure2aClosed => {
                let mut g = gen::figure_2a();
                g.add_edge(3, 0, 1);
                g.add_edge(2, 1, 1);
                Ok(g)
            }
            TopologyTemplate::Complete { n, cap } => {
                let (n, cap) = (n.resolve(ctx) as usize, cap.resolve(ctx));
                if n < 2 || cap == 0 {
                    return Err(format!(
                        "complete: need n ≥ 2 and cap ≥ 1, got n={n} cap={cap}"
                    ));
                }
                Ok(gen::complete(n, cap))
            }
            TopologyTemplate::Hetero { n, lo, hi } => {
                let (n, lo, hi) = (n.resolve(ctx) as usize, lo.resolve(ctx), hi.resolve(ctx));
                if n < 2 || lo == 0 || lo > hi {
                    return Err(format!(
                        "hetero: need n ≥ 2 and 1 ≤ lo ≤ hi, got n={n} lo={lo} hi={hi}"
                    ));
                }
                Ok(gen::complete_heterogeneous(n, lo, hi, &mut rng))
            }
            TopologyTemplate::Ring { n, cap } => {
                let (n, cap) = (n.resolve(ctx) as usize, cap.resolve(ctx));
                if n < 3 || cap == 0 {
                    return Err(format!("ring: need n ≥ 3 and cap ≥ 1, got n={n} cap={cap}"));
                }
                Ok(gen::ring(n, cap))
            }
            TopologyTemplate::Barbell {
                half,
                cluster_cap,
                bridges,
                bridge_cap,
            } => {
                let half = half.resolve(ctx) as usize;
                let cluster_cap = cluster_cap.resolve(ctx);
                let bridges = bridges.resolve(ctx) as usize;
                let bridge_cap = bridge_cap.resolve(ctx);
                if half < 2 || cluster_cap == 0 || bridge_cap == 0 || bridges == 0 {
                    return Err(format!(
                        "barbell: need half ≥ 2, bridges ≥ 1, caps ≥ 1; got \
                         half={half} cluster_cap={cluster_cap} bridges={bridges} \
                         bridge_cap={bridge_cap}"
                    ));
                }
                if bridges > half {
                    return Err(format!("barbell: bridges {bridges} > half {half}"));
                }
                Ok(gen::barbell(half, cluster_cap, bridges, bridge_cap))
            }
            TopologyTemplate::Circulant { n, m, cap } => {
                let (n, m, cap) = (
                    n.resolve(ctx) as usize,
                    m.resolve(ctx) as usize,
                    cap.resolve(ctx),
                );
                if m < 1 || 2 * m >= n || cap == 0 {
                    return Err(format!(
                        "circulant: need 1 ≤ m and 2m < n and cap ≥ 1, got n={n} m={m} cap={cap}"
                    ));
                }
                Ok(gen::circulant(n, m, cap))
            }
            TopologyTemplate::KConnected {
                n,
                k,
                max_cap,
                extra_pct,
            } => {
                let nn = n.resolve(ctx) as usize;
                let k = k.resolve(ctx) as usize;
                let max_cap = max_cap.resolve(ctx);
                let extra_pct = extra_pct.resolve(ctx);
                if k < 1 || 2 * k.div_ceil(2) >= nn || max_cap == 0 || extra_pct > 100 {
                    return Err(format!(
                        "kconnected: need 1 ≤ k, 2⌈k/2⌉ < n, max_cap ≥ 1, extra ≤ 100; \
                         got n={nn} k={k} max_cap={max_cap} extra={extra_pct}%"
                    ));
                }
                Ok(gen::random_k_connected(
                    nn,
                    k,
                    max_cap,
                    extra_pct as f64 / 100.0,
                    &mut rng,
                ))
            }
            TopologyTemplate::FatTree { k, cap } => {
                let (k, cap) = (k.resolve(ctx) as usize, cap.resolve(ctx));
                if k < 2 || k % 2 != 0 || cap == 0 {
                    return Err(format!(
                        "fattree: need even k ≥ 2 and cap ≥ 1, got k={k} cap={cap}"
                    ));
                }
                Ok(gen::fat_tree(k, cap))
            }
            TopologyTemplate::Torus { rows, cols, cap } => {
                let (rows, cols, cap) = (
                    rows.resolve(ctx) as usize,
                    cols.resolve(ctx) as usize,
                    cap.resolve(ctx),
                );
                if rows < 3 || cols < 3 || cap == 0 {
                    return Err(format!(
                        "torus: need rows ≥ 3, cols ≥ 3, cap ≥ 1; got rows={rows} \
                         cols={cols} cap={cap}"
                    ));
                }
                Ok(gen::torus(rows, cols, cap))
            }
            TopologyTemplate::Dragonfly {
                groups,
                routers,
                cap,
            } => {
                let (groups, routers, cap) = (
                    groups.resolve(ctx) as usize,
                    routers.resolve(ctx) as usize,
                    cap.resolve(ctx),
                );
                if groups < 2 || routers < 2 || cap == 0 {
                    return Err(format!(
                        "dragonfly: need groups ≥ 2, routers ≥ 2, cap ≥ 1; got \
                         groups={groups} routers={routers} cap={cap}"
                    ));
                }
                Ok(gen::dragonfly(groups, routers, cap))
            }
            TopologyTemplate::Expander { n, degree, max_cap } => {
                let (nn, degree, max_cap) = (
                    n.resolve(ctx) as usize,
                    degree.resolve(ctx) as usize,
                    max_cap.resolve(ctx),
                );
                if nn < 3 || degree < 2 || max_cap == 0 {
                    return Err(format!(
                        "expander: need n ≥ 3, degree ≥ 2, max_cap ≥ 1; got n={nn} \
                         degree={degree} max_cap={max_cap}"
                    ));
                }
                Ok(gen::random_expander(nn, degree, max_cap, &mut rng))
            }
        }
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
        for s in [
            "fig1a",
            "fig1b",
            "fig2a",
            "fig2a-closed",
            "complete:$n:$cap",
            "hetero:$n:1:$cap",
            "ring:6:2",
            "barbell:3:$cap:1:1",
            "circulant:$n:2:$cap",
            "kconnected:$n:2f+1:$cap:25",
            "fattree:4:$cap",
            "torus:4:8:$cap",
            "dragonfly:6:4:$cap",
            "expander:$n:4:$cap",
        ] {
            let t = TopologyTemplate::parse(s).unwrap();
            assert_eq!(t.spec_string(), s);
        }
    }

    #[test]
    fn unknown_family_is_an_error() {
        let e = TopologyTemplate::parse("hypercube:4:4").unwrap_err();
        assert!(e.contains("unknown topology"), "{e}");
        assert!(e.contains("known:"), "{e}");
    }

    #[test]
    fn wrong_arity_is_an_error() {
        assert!(TopologyTemplate::parse("complete:4").is_err());
        assert!(TopologyTemplate::parse("fig1a:4").is_err());
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
        let raw = TopologyTemplate::Figure2a.build(&ctx()).unwrap();
        assert!(!raw.all_reachable_from(2), "raw figure has no return path");
        let closed = TopologyTemplate::Figure2aClosed.build(&ctx()).unwrap();
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
    }

    #[test]
    fn constraint_violations_are_errors_not_panics() {
        let t = TopologyTemplate::parse("circulant:4:2:1").unwrap();
        assert!(t.build(&ctx()).is_err());
        let t = TopologyTemplate::parse("barbell:3:1:5:1").unwrap();
        assert!(t.build(&ctx()).is_err());
        // Odd fat-tree k, degenerate torus, 1-group dragonfly, degree-1
        // expander: all rejected, never panicked.
        for bad in [
            "fattree:3:2",
            "torus:2:4:1",
            "dragonfly:1:4:1",
            "expander:8:1:2",
        ] {
            let t = TopologyTemplate::parse(bad).unwrap();
            assert!(t.build(&ctx()).is_err(), "{bad} should reject");
        }
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
