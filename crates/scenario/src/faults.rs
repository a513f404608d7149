//! Fault-placement schedules.
//!
//! The paper's fault model fixes the faulty set for the lifetime of a
//! deployment (dispute state assumes a node exposed once is faulty
//! forever), so a schedule varies placement **across jobs**, never within
//! one engine's instance stream. Every schedule is one row of [`FORMS`];
//! `worst-case` keeps the throughput-minimizing candidate, an empirical
//! inner `min` over the adversary's placement choice.

use std::collections::BTreeSet;

use nab_netgraph::NodeId;

use crate::grammar::{param, Arg, Form, Kind, Term, USIZE};

/// What a fault form builds: the candidate faulty sets of a job on `n`
/// nodes (the arguments, `n`, the job's seed index).
pub type Placement = fn(&[Arg], usize, u64) -> Vec<BTreeSet<NodeId>>;

/// How faulty nodes are placed for each job of a sweep: a row of [`FORMS`]
/// and its arguments.
pub type FaultSchedule = Term<Placement>;

/// Every fault schedule, in the order help and errors list them. A form's
/// first parameter, if any, is its node set or its node count.
pub static FORMS: [Form<Placement>; 4] = [
    Form {
        name: "none",
        params: &[],
        about: "no faulty nodes",
        build: |_, _, _| vec![BTreeSet::new()],
    },
    Form {
        name: "fixed",
        params: &[param("IDS", Kind::Ids)],
        about: "the same explicit set in every job, e.g. fixed:2,3",
        build: |a, n, _| match &a[0] {
            Arg::Ids(set) if set.iter().all(|&v| v < n) => vec![set.clone()],
            _ => Vec::new(),
        },
    },
    Form {
        name: "rotating",
        params: &[param("COUNT", Kind::Uint(0, USIZE))],
        about: "COUNT contiguous ids starting at seed_index mod n",
        build: |a, n, seed_index| match a[0].uint() as usize {
            count if count >= n => Vec::new(),
            count => {
                let start = (seed_index as usize) % n;
                vec![(0..count).map(|i| (start + i) % n).collect()]
            }
        },
    },
    Form {
        name: "worst-case",
        params: &[
            param("COUNT", Kind::Uint(0, USIZE)),
            param("MAX_CANDIDATES", Kind::Uint(1, USIZE)).or("16"),
        ],
        about: "measure up to MAX_CANDIDATES spread COUNT-subsets, report the slowest",
        build: |a, n, _| match a[0].uint() as usize {
            count if count >= n => Vec::new(),
            count => spread_subsets(n, count, a[1].uint() as usize),
        },
    },
];

impl FaultSchedule {
    /// Parses specs like `none`, `fixed:2,3`, `rotating:1`,
    /// `worst-case:1` or `worst-case:1:12`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Term::read("fault schedule", &FORMS, spec)
    }

    /// Number of faulty nodes this schedule places.
    pub fn fault_count(&self) -> usize {
        match self.args.first() {
            Some(Arg::Ids(set)) => set.len(),
            Some(count) => count.uint() as usize,
            None => 0,
        }
    }

    /// The candidate faulty sets for a job on `n` nodes with seed index
    /// `seed_index`. Single-candidate schedules return one set;
    /// `worst-case` returns the (truncated) search space, spread across the
    /// whole node-id range when `C(n, COUNT)` exceeds `MAX_CANDIDATES`.
    ///
    /// Candidates containing node ids `≥ n` are filtered out (a `fixed`
    /// set can name nodes a small grid point does not have — the caller
    /// rejects the job in that case).
    pub fn candidates(&self, n: usize, seed_index: u64) -> Vec<BTreeSet<NodeId>> {
        (self.form.build)(&self.args, n, seed_index)
    }
}

/// Up to `max` `k`-subsets of `0..n`, deterministically **spread across
/// the whole lexicographic combination space** — when `C(n, k) ≤ max`
/// every subset is returned; otherwise `max` evenly spaced ranks are
/// unranked via the combinatorial number system. A plain lexicographic
/// prefix would confine every candidate to the lowest node ids, which on
/// asymmetric topologies (barbells, rings) systematically misses the
/// damaging placements; spreading keeps determinism while covering the
/// id range. `C(n, k)` is never materialized as a set family.
fn spread_subsets(n: usize, k: usize, max: usize) -> Vec<BTreeSet<NodeId>> {
    if k > n || max == 0 {
        return Vec::new();
    }
    let total = binom(n, k);
    let picks = (max as u128).min(total);
    // stride-first keeps `i * stride < total`, so the multiplication can
    // never overflow even when `binom` saturated to `u128::MAX`.
    let stride = total / picks;
    (0..picks)
        .map(|i| unrank_subset(n, k, i * stride))
        .collect()
}

/// Saturating binomial coefficient in `u128` (saturation is unreachable
/// for any realistic node count, and even then only compresses spacing).
fn binom(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc
            .saturating_mul((n - i) as u128)
            .checked_div((i + 1) as u128)
            .unwrap_or(u128::MAX);
    }
    acc
}

/// The `rank`-th `k`-subset of `0..n` in lexicographic order
/// (combinatorial number system unranking).
fn unrank_subset(n: usize, k: usize, mut rank: u128) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut x = 0;
    let mut remaining = k;
    while remaining > 0 {
        // Subsets starting with `x` continue with any (remaining-1)-subset
        // of the ids above it.
        let with_x = binom(n - x - 1, remaining - 1);
        if rank < with_x {
            out.insert(x);
            remaining -= 1;
        } else {
            rank -= with_x;
        }
        x += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(s: &str) -> FaultSchedule {
        FaultSchedule::parse(s).unwrap()
    }

    #[test]
    fn rotating_sweeps_placement() {
        let sched = sched("rotating:2");
        let a = &sched.candidates(5, 0)[0];
        let b = &sched.candidates(5, 1)[0];
        let wrap = &sched.candidates(5, 4)[0];
        assert_eq!(a, &BTreeSet::from([0, 1]));
        assert_eq!(b, &BTreeSet::from([1, 2]));
        assert_eq!(wrap, &BTreeSet::from([4, 0]));
    }

    #[test]
    fn worst_case_enumerates_subsets() {
        assert_eq!(sched("worst-case:1").candidates(4, 0).len(), 4);
        let capped = sched("worst-case:2:3").candidates(5, 0);
        assert_eq!(capped.len(), 3, "cap applies");
    }

    #[test]
    fn spread_subsets_cover_the_whole_family_when_it_fits() {
        let nodes: Vec<NodeId> = (0..6).collect();
        let full = nab::bounds::k_subsets(&nodes, 3);
        let spread = super::spread_subsets(6, 3, 1000);
        assert_eq!(spread.len(), 20, "C(6,3) = 20, all enumerated");
        assert_eq!(full, spread, "small families come back in lex order");
    }

    #[test]
    fn unranking_matches_lexicographic_enumeration() {
        let nodes: Vec<NodeId> = (0..7).collect();
        let full = nab::bounds::k_subsets(&nodes, 3);
        for (rank, expect) in full.iter().enumerate() {
            assert_eq!(
                &super::unrank_subset(7, 3, rank as u128),
                expect,
                "rank {rank}"
            );
        }
    }

    #[test]
    fn worst_case_on_huge_n_spreads_without_materializing_the_family() {
        // C(64, 4) ≈ 635k; the cap must bound the work, not the family —
        // and the candidates must span the id range, not cluster at the
        // low ids (a lexicographic prefix would confine all 16 candidates
        // to nodes {0..6}).
        let cands = sched("worst-case:4:16").candidates(64, 0);
        assert_eq!(cands.len(), 16);
        assert_eq!(
            cands[0],
            BTreeSet::from([0, 1, 2, 3]),
            "rank 0 is lex-first"
        );
        let touched: BTreeSet<NodeId> = cands.iter().flatten().copied().collect();
        let hi = *touched.iter().max().unwrap();
        assert!(
            hi >= 32,
            "candidates must reach the upper id range, max touched {hi}"
        );
        // Distinct ranks → distinct candidates.
        assert_eq!(cands.iter().collect::<BTreeSet<_>>().len(), 16);
    }

    #[test]
    fn saturated_binomials_do_not_overflow_rank_spacing() {
        // C(130, 65) saturates binom() to u128::MAX; spacing must stay
        // well-defined (stride-first math) and candidates distinct.
        let cands = sched("worst-case:65:8").candidates(130, 0);
        assert_eq!(cands.len(), 8);
        assert_eq!(cands.iter().collect::<BTreeSet<_>>().len(), 8);
        for c in &cands {
            assert_eq!(c.len(), 65);
            assert!(c.iter().all(|&v| v < 130));
        }
    }

    #[test]
    fn out_of_range_fixed_set_yields_no_candidates() {
        assert!(sched("fixed:6").candidates(4, 0).is_empty());
    }
}
