//! Mid-sweep topology mutation schedules.
//!
//! Datacenter fabrics are not static: optical circuit switches re-provision
//! link rates between traffic epochs, failures degrade links, and
//! maintenance restores them. A [`MutationSchedule`] models this inside one
//! job's instance stream: every `EVERY` instances the job's network is
//! re-derived (capacity-only — the node and edge sets never change, so
//! accumulated dispute state stays meaningful) and the engines migrate to
//! the new network's plan. Every schedule is one row of [`FORMS`].
//!
//! Every mutation is a deterministic function of `(base graph, epoch,
//! job seed)`, so sweeps stay bit-identical across worker-thread counts;
//! and because `flap` alternates between exactly two
//! capacity profiles, its plans land on the same content-addressed
//! `PlanCache` entries every other epoch — the access pattern the
//! persistent plan cache is designed for.

use nab_netgraph::DiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grammar::{param, Arg, Form, Kind, Param, Term, USIZE};

/// What a mutation form builds: the capacity rewrites of one epoch,
/// applied to a copy of the base graph (the arguments, the graph, the
/// epoch, the job seed).
pub type Rewrite = fn(&[Arg], &mut DiGraph, usize, u64);

/// How (and how often) a job's network mutates between instance epochs:
/// a row of [`FORMS`] and its arguments.
pub type MutationSchedule = Term<Rewrite>;

/// Instances per epoch: the first parameter of every form that mutates.
const EVERY: Param = param("EVERY", Kind::Uint(1, USIZE));
/// Links rewritten per epoch.
const LINKS: Param = param("LINKS", Kind::Uint(1, USIZE));
/// A capacity cut: a link never vanishes, it degrades.
const CUT: Param = param("PCT", Kind::Uint(1, 99));

/// Every mutation schedule, in the order help and errors list them.
pub static FORMS: [Form<Rewrite>; 4] = [
    Form {
        name: "none",
        params: &[],
        about: "the network never changes",
        build: |_, _, _, _| {},
    },
    Form {
        name: "degrade",
        params: &[EVERY, LINKS, CUT],
        about: "every EVERY instances LINKS random links lose PCT% capacity, cumulatively",
        build: |a, g, epoch, seed| {
            for round in 1..=epoch as u64 {
                rewrite_caps(g, a[1].uint(), seed, round, |cap| degrade(cap, a[2].uint()));
            }
        },
    },
    Form {
        name: "boost",
        params: &[EVERY, LINKS, param("PCT", Kind::Uint(1, 1000))],
        about: "every EVERY instances LINKS random links gain PCT% capacity, cumulatively",
        build: |a, g, epoch, seed| {
            for round in 1..=epoch as u64 {
                rewrite_caps(g, a[1].uint(), seed, round, |cap| boost(cap, a[2].uint()));
            }
        },
    },
    // Odd epochs all apply the SAME degraded profile (round key 1), so the
    // job alternates between two graphs.
    Form {
        name: "flap",
        params: &[EVERY, LINKS, CUT],
        about: "odd epochs degrade LINKS links by PCT%, even epochs restore the base network",
        build: |a, g, epoch, seed| {
            if epoch % 2 == 1 {
                rewrite_caps(g, a[1].uint(), seed, 1, |cap| degrade(cap, a[2].uint()));
            }
        },
    },
];

impl MutationSchedule {
    /// Parses specs like `none`, `degrade:8:4:50`, `boost:8:4:100`, or
    /// `flap:8:4:50` (`KIND:EVERY:LINKS:PCT`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        Term::read("mutation schedule", &FORMS, spec)
    }

    /// The epoch instance `inst` falls into (always 0 for `none`).
    pub fn epoch(&self, inst: usize) -> usize {
        (self.args.first()).map_or(0, |every| inst / every.uint() as usize)
    }

    /// The network for `epoch`, derived from the base graph and the job
    /// seed. Epoch 0 is always the base graph; later epochs apply the
    /// schedule's capacity rewrites. Pure function — calling it twice
    /// yields equal graphs, which is what lets mutated plans share
    /// `PlanCache` entries.
    pub fn graph_for_epoch(&self, base: &DiGraph, epoch: usize, seed: u64) -> DiGraph {
        let mut g = base.clone();
        (self.form.build)(&self.args, &mut g, epoch, seed);
        g
    }
}

/// `cap` less `pct` percent, rounded down and never below 1.
fn degrade(cap: u64, pct: u64) -> u64 {
    let kept = u128::from(cap) * u128::from(100 - pct) / 100;
    (kept as u64).max(1)
}

/// `cap` plus `pct` percent, rounded up (a boost always boosts) and
/// saturating: epochs compound, and no capacity may wrap around.
fn boost(cap: u64, pct: u64) -> u64 {
    let grown = (u128::from(cap) * u128::from(100 + pct)).div_ceil(100);
    u64::try_from(grown).unwrap_or(u64::MAX)
}

/// Applies `f` to the capacities of `links` deterministically chosen live
/// edges. Selection draws edge positions from an RNG keyed by `(seed,
/// round)`; duplicates re-apply `f`, which keeps the draw count fixed (and
/// therefore the selection deterministic) without rejection loops.
fn rewrite_caps(g: &mut DiGraph, links: u64, seed: u64, round: u64, f: impl Fn(u64) -> u64) {
    let ids: Vec<usize> = g.edges().map(|(id, _)| id).collect();
    if ids.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6D75_7461_7465, // "mutate"
    );
    for _ in 0..links {
        let id = ids[rng.gen_range(0..ids.len())];
        #[expect(
            clippy::expect_used,
            reason = "edge id was drawn from the live edge list above"
        )]
        let cap = g.edge(id).expect("selected edge is live").cap;
        g.set_edge_cap(id, f(cap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    #[test]
    fn epochs_partition_the_instance_stream() {
        let m = MutationSchedule::parse("degrade:4:1:50").unwrap();
        assert_eq!(m.epoch(0), 0);
        assert_eq!(m.epoch(3), 0);
        assert_eq!(m.epoch(4), 1);
        assert_eq!(m.epoch(11), 2);
        assert_eq!(MutationSchedule::parse("none").unwrap().epoch(999), 0);
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

    #[test]
    fn boost_pct_is_bounded_and_compounding_saturates() {
        // `100 + PCT` used to overflow: a panic in debug builds, and in
        // release a boost that wrapped into a degrade.
        let e = MutationSchedule::parse("boost:1:1:18446744073709551615").unwrap_err();
        assert!(e.contains("PCT must be an integer in 1..=1000"), "{e}");
        let mut base = gen::complete(3, 1);
        let ids: Vec<usize> = base.edges().map(|(id, _)| id).collect();
        for id in ids {
            base.set_edge_cap(id, u64::MAX / 2);
        }
        let m = MutationSchedule::parse("boost:1:6:1000").unwrap();
        let g = m.graph_for_epoch(&base, 4, 5);
        assert!(
            g.edges().any(|(_, e)| e.cap == u64::MAX),
            "compounded boosts saturate"
        );
        for ((_, grown), (_, was)) in g.edges().zip(base.edges()) {
            assert!(grown.cap >= was.cap, "a boost never shrinks a link");
        }
    }
}
