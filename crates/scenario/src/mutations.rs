//! Mid-sweep topology mutation schedules.
//!
//! Datacenter fabrics are not static: optical circuit switches re-provision
//! link rates between traffic epochs, failures degrade links, and
//! maintenance restores them. A [`MutationSchedule`] models this inside one
//! job's instance stream: every `every` instances the job's network is
//! re-derived (capacity-only — the node and edge sets never change, so
//! accumulated dispute state stays meaningful) and the engines migrate to
//! the new network's plan.
//!
//! Every mutation is a deterministic function of `(base graph, epoch,
//! job seed)`, so sweeps stay bit-identical across worker-thread counts;
//! and because [`MutationSchedule::Flap`] alternates between exactly two
//! capacity profiles, its plans land on the same content-addressed
//! `PlanCache` entries every other epoch — the access pattern the
//! persistent plan cache is designed for.

use nab_netgraph::DiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every form [`MutationSchedule::parse`] reads: its unknown-schedule error
/// and `nab-sim --help` print this, and `docs/scenarios.md` must list each.
pub const KNOWN: &str =
    "none, degrade:EVERY:LINKS:PCT, boost:EVERY:LINKS:PCT, flap:EVERY:LINKS:PCT";

/// How (and how often) a job's network mutates between instance epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationSchedule {
    /// The network never changes (the default).
    None,
    /// Every `every` instances, `links` random links lose `pct`% of their
    /// capacity (cumulative across epochs, clamped to ≥ 1).
    Degrade {
        /// Instances per epoch.
        every: usize,
        /// Links mutated per epoch.
        links: usize,
        /// Capacity reduction percent (1–99).
        pct: u64,
    },
    /// Every `every` instances, `links` random links gain `pct`% capacity
    /// (cumulative across epochs, rounded up so a boost always boosts).
    Boost {
        /// Instances per epoch.
        every: usize,
        /// Links mutated per epoch.
        links: usize,
        /// Capacity increase percent (≥ 1).
        pct: u64,
    },
    /// OCS-style flapping: odd epochs degrade `links` links by `pct`%,
    /// even epochs restore the base capacities — the network alternates
    /// between exactly two profiles.
    Flap {
        /// Instances per epoch.
        every: usize,
        /// Links mutated per odd epoch.
        links: usize,
        /// Capacity reduction percent (1–99).
        pct: u64,
    },
}

impl MutationSchedule {
    /// Parses specs like `none`, `degrade:8:4:50`, `boost:8:4:100`, or
    /// `flap:8:4:50` (`KIND:EVERY:LINKS:PCT`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = match spec.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (spec, None),
        };
        if kind == "none" {
            return match rest {
                None => Ok(MutationSchedule::None),
                Some(_) => Err("mutations none takes no parameters".into()),
            };
        }
        let rest = rest
            .ok_or_else(|| format!("mutations {kind} needs EVERY:LINKS:PCT, e.g. {kind}:8:4:50"))?;
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "mutations {kind} takes 3 parameters (EVERY:LINKS:PCT), got {}",
                parts.len()
            ));
        }
        let num = |i: usize, what: &str| -> Result<u64, String> {
            parts[i]
                .parse()
                .map_err(|_| format!("mutations {kind}: bad {what} {:?}", parts[i]))
        };
        let every = num(0, "epoch length")? as usize;
        let links = num(1, "link count")? as usize;
        let pct = num(2, "percent")?;
        if every == 0 || links == 0 || pct == 0 {
            return Err(format!(
                "mutations {kind}: EVERY, LINKS, and PCT must all be ≥ 1"
            ));
        }
        match kind {
            "degrade" | "flap" if pct > 99 => Err(format!(
                "mutations {kind}: PCT must be ≤ 99 (a link never vanishes, it degrades)"
            )),
            "degrade" => Ok(MutationSchedule::Degrade { every, links, pct }),
            "boost" => Ok(MutationSchedule::Boost { every, links, pct }),
            "flap" => Ok(MutationSchedule::Flap { every, links, pct }),
            other => Err(format!(
                "unknown mutation schedule {other:?} (known: {KNOWN})"
            )),
        }
    }

    /// The canonical spec string this schedule parses from.
    pub fn spec_string(&self) -> String {
        match self {
            MutationSchedule::None => "none".into(),
            MutationSchedule::Degrade { every, links, pct } => {
                format!("degrade:{every}:{links}:{pct}")
            }
            MutationSchedule::Boost { every, links, pct } => format!("boost:{every}:{links}:{pct}"),
            MutationSchedule::Flap { every, links, pct } => format!("flap:{every}:{links}:{pct}"),
        }
    }

    /// The epoch instance `inst` falls into (always 0 for `none`).
    pub fn epoch(&self, inst: usize) -> usize {
        match self {
            MutationSchedule::None => 0,
            MutationSchedule::Degrade { every, .. }
            | MutationSchedule::Boost { every, .. }
            | MutationSchedule::Flap { every, .. } => inst / every,
        }
    }

    /// The network for `epoch`, derived from the base graph and the job
    /// seed. Epoch 0 is always the base graph; later epochs apply the
    /// schedule's capacity rewrites. Pure function — calling it twice
    /// yields equal graphs, which is what lets mutated plans share
    /// `PlanCache` entries.
    pub fn graph_for_epoch(&self, base: &DiGraph, epoch: usize, seed: u64) -> DiGraph {
        let mut g = base.clone();
        match *self {
            MutationSchedule::None => {}
            MutationSchedule::Degrade { links, pct, .. } => {
                for round in 1..=epoch {
                    rewrite_caps(&mut g, links, seed, round as u64, |cap| {
                        (cap * (100 - pct) / 100).max(1)
                    });
                }
            }
            MutationSchedule::Boost { links, pct, .. } => {
                for round in 1..=epoch {
                    rewrite_caps(&mut g, links, seed, round as u64, |cap| {
                        (cap * (100 + pct)).div_ceil(100)
                    });
                }
            }
            MutationSchedule::Flap { links, pct, .. } => {
                // Odd epochs all apply the SAME degraded profile (round
                // key 1), so the job alternates between two graphs.
                if epoch % 2 == 1 {
                    rewrite_caps(&mut g, links, seed, 1, |cap| {
                        (cap * (100 - pct) / 100).max(1)
                    });
                }
            }
        }
        g
    }
}

/// Applies `f` to the capacities of `links` deterministically chosen live
/// edges. Selection draws edge positions from an RNG keyed by `(seed,
/// round)`; duplicates re-apply `f`, which keeps the draw count fixed (and
/// therefore the selection deterministic) without rejection loops.
fn rewrite_caps(g: &mut DiGraph, links: usize, seed: u64, round: u64, f: impl Fn(u64) -> u64) {
    let ids: Vec<usize> = g.edges().map(|(id, _)| id).collect();
    if ids.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6D75_7461_7465, // "mutate"
    );
    for _ in 0..links {
        let id = ids[rng.gen_range(0..ids.len())];
        let cap = g.edge(id).expect("selected edge is live").cap; // nab-lint: allow(NAB003): edge id was drawn from the live edge list above
        g.set_edge_cap(id, f(cap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    #[test]
    fn parse_roundtrips() {
        for s in ["none", "degrade:8:4:50", "boost:4:2:100", "flap:6:3:30"] {
            let m = MutationSchedule::parse(s).unwrap();
            assert_eq!(m.spec_string(), s);
        }
    }

    #[test]
    fn bad_specs_are_errors() {
        for bad in [
            "degrade",
            "degrade:8:4",
            "degrade:8:4:0",
            "degrade:8:4:100",
            "flap:8:4:250",
            "boost:0:1:10",
            "sometimes:1:2:3",
            "none:1",
        ] {
            assert!(MutationSchedule::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn epochs_partition_the_instance_stream() {
        let m = MutationSchedule::parse("degrade:4:1:50").unwrap();
        assert_eq!(m.epoch(0), 0);
        assert_eq!(m.epoch(3), 0);
        assert_eq!(m.epoch(4), 1);
        assert_eq!(m.epoch(11), 2);
        assert_eq!(MutationSchedule::None.epoch(999), 0);
    }

    #[test]
    fn epoch_zero_is_the_base_graph() {
        let base = gen::complete(5, 8);
        for spec in ["degrade:2:3:50", "boost:2:3:50", "flap:2:3:50"] {
            let m = MutationSchedule::parse(spec).unwrap();
            assert_eq!(m.graph_for_epoch(&base, 0, 42), base, "{spec}");
        }
    }

    #[test]
    fn mutations_are_deterministic_and_capacity_only() {
        let base = gen::complete(6, 10);
        let m = MutationSchedule::parse("degrade:2:5:40").unwrap();
        let a = m.graph_for_epoch(&base, 3, 7);
        let b = m.graph_for_epoch(&base, 3, 7);
        assert_eq!(a, b, "pure function of (base, epoch, seed)");
        assert_ne!(a, base, "epoch 3 has degraded links");
        assert_eq!(a.node_count(), base.node_count());
        assert_eq!(a.edge_count(), base.edge_count());
        // Degradation is monotone per link and clamped ≥ 1.
        for ((id, ea), (_, eb)) in a.edges().zip(base.edges()) {
            assert!(ea.cap <= eb.cap, "edge {id} grew under degrade");
            assert!(ea.cap >= 1);
        }
        // A different seed mutates different links.
        let c = m.graph_for_epoch(&base, 3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn boost_raises_capacities() {
        let base = gen::complete(5, 1);
        let m = MutationSchedule::parse("boost:1:4:50").unwrap();
        let g = m.graph_for_epoch(&base, 1, 3);
        assert!(g.edges().any(|(_, e)| e.cap > 1), "cap-1 links still boost");
        for (_, e) in g.edges() {
            assert!(e.cap >= 1);
        }
    }

    #[test]
    fn flap_alternates_between_exactly_two_profiles() {
        let base = gen::complete(6, 8);
        let m = MutationSchedule::parse("flap:2:4:50").unwrap();
        let e0 = m.graph_for_epoch(&base, 0, 9);
        let e1 = m.graph_for_epoch(&base, 1, 9);
        let e2 = m.graph_for_epoch(&base, 2, 9);
        let e3 = m.graph_for_epoch(&base, 3, 9);
        assert_eq!(e0, base);
        assert_eq!(e2, base, "even epochs restore the base profile");
        assert_eq!(e1, e3, "odd epochs reuse one degraded profile");
        assert_ne!(e1, base);
    }
}
