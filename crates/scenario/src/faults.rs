//! Fault-placement schedules.
//!
//! The paper's fault model fixes the faulty set for the lifetime of a
//! deployment (dispute state assumes a node exposed once is faulty
//! forever), so a schedule varies placement **across jobs**, never within
//! one engine's instance stream:
//!
//! - [`FaultSchedule::Fixed`] — the same explicit set in every job;
//! - [`FaultSchedule::Rotating`] — a contiguous window of `count` nodes
//!   whose start rotates with the job's seed index, sweeping placement
//!   around the network across the sweep;
//! - [`FaultSchedule::WorstCase`] — per job, try candidate `count`-subsets
//!   and keep the placement that minimizes throughput (an empirical
//!   inner `min` over the adversary's placement choice).

use std::collections::BTreeSet;

use nab_netgraph::NodeId;

/// Every form [`FaultSchedule::parse`] reads: its unknown-schedule error and
/// `nab-sim --help` print this, and `docs/scenarios.md` must list each.
pub const KNOWN: &str = "none, fixed:IDS, rotating:COUNT, worst-case:COUNT[:MAX_CANDIDATES]";

/// How faulty nodes are placed for each job of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSchedule {
    /// No faulty nodes anywhere.
    None,
    /// The same explicit faulty set in every job.
    Fixed(BTreeSet<NodeId>),
    /// `count` contiguous node ids starting at `seed_index mod n`.
    Rotating {
        /// Number of faulty nodes.
        count: usize,
    },
    /// Search candidate placements, keep the throughput-minimizing one.
    WorstCase {
        /// Number of faulty nodes per candidate set.
        count: usize,
        /// Upper bound on candidate sets tried per job. When `C(n, count)`
        /// exceeds this, the candidates are evenly spaced ranks of the
        /// lexicographic combination ordering (not a prefix), so they span
        /// the whole node-id range.
        max_candidates: usize,
    },
}

impl FaultSchedule {
    /// Parses specs like `none`, `fixed:2,3`, `rotating:1`,
    /// `worst-case:1` or `worst-case:1:12`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = match spec.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (spec, None),
        };
        match kind {
            "none" => match rest {
                None => Ok(FaultSchedule::None),
                Some(_) => Err("faults none takes no parameters".into()),
            },
            "fixed" => {
                let rest = rest.ok_or("faults fixed needs node ids, e.g. fixed:2,3")?;
                let mut set = BTreeSet::new();
                for part in rest.split(',') {
                    let id: NodeId = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("faults fixed: bad node id {part:?}"))?;
                    set.insert(id);
                }
                Ok(FaultSchedule::Fixed(set))
            }
            "rotating" => {
                let count = rest
                    .ok_or("faults rotating needs a count, e.g. rotating:1")?
                    .parse()
                    .map_err(|_| format!("faults rotating: bad count {rest:?}"))?;
                Ok(FaultSchedule::Rotating { count })
            }
            "worst-case" => {
                let rest = rest.ok_or("faults worst-case needs a count, e.g. worst-case:1")?;
                let mut it = rest.split(':');
                let count = it
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| format!("faults worst-case: bad count in {rest:?}"))?;
                let max_candidates = match it.next() {
                    None => 16,
                    Some(m) => m
                        .parse()
                        .map_err(|_| format!("faults worst-case: bad candidate cap {m:?}"))?,
                };
                if it.next().is_some() {
                    return Err(format!(
                        "faults worst-case: too many parameters in {rest:?}"
                    ));
                }
                if max_candidates == 0 {
                    return Err("faults worst-case: MAX_CANDIDATES must be ≥ 1".into());
                }
                Ok(FaultSchedule::WorstCase {
                    count,
                    max_candidates,
                })
            }
            other => Err(format!("unknown fault schedule {other:?} (known: {KNOWN})")),
        }
    }

    /// The canonical spec string this schedule parses from.
    pub fn spec_string(&self) -> String {
        match self {
            FaultSchedule::None => "none".into(),
            FaultSchedule::Fixed(set) => {
                let ids: Vec<String> = set.iter().map(|v| v.to_string()).collect();
                format!("fixed:{}", ids.join(","))
            }
            FaultSchedule::Rotating { count } => format!("rotating:{count}"),
            FaultSchedule::WorstCase {
                count,
                max_candidates,
            } => format!("worst-case:{count}:{max_candidates}"),
        }
    }

    /// Number of faulty nodes this schedule places.
    pub fn fault_count(&self) -> usize {
        match self {
            FaultSchedule::None => 0,
            FaultSchedule::Fixed(set) => set.len(),
            FaultSchedule::Rotating { count } => *count,
            FaultSchedule::WorstCase { count, .. } => *count,
        }
    }

    /// The candidate faulty sets for a job on `n` nodes with seed index
    /// `seed_index`. Single-candidate schedules return one set;
    /// [`FaultSchedule::WorstCase`] returns the (truncated) search space.
    ///
    /// Candidates containing node ids `≥ n` are filtered out (a `fixed`
    /// set can name nodes a small grid point does not have — the caller
    /// rejects the job in that case).
    pub fn candidates(&self, n: usize, seed_index: u64) -> Vec<BTreeSet<NodeId>> {
        match self {
            FaultSchedule::None => vec![BTreeSet::new()],
            FaultSchedule::Fixed(set) => {
                if set.iter().any(|&v| v >= n) {
                    Vec::new()
                } else {
                    vec![set.clone()]
                }
            }
            FaultSchedule::Rotating { count } => {
                if *count >= n {
                    return Vec::new();
                }
                let start = (seed_index as usize) % n;
                vec![(0..*count).map(|i| (start + i) % n).collect()]
            }
            FaultSchedule::WorstCase {
                count,
                max_candidates,
            } => {
                if *count >= n {
                    return Vec::new();
                }
                spread_subsets(n, *count, *max_candidates)
            }
        }
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

    #[test]
    fn parse_roundtrips() {
        for s in ["none", "fixed:2,3", "rotating:1", "worst-case:1:16"] {
            let sched = FaultSchedule::parse(s).unwrap();
            assert_eq!(sched.spec_string(), s);
        }
        // Default candidate cap fills in.
        assert_eq!(
            FaultSchedule::parse("worst-case:2").unwrap().spec_string(),
            "worst-case:2:16"
        );
    }

    #[test]
    fn bad_specs_are_errors() {
        assert!(FaultSchedule::parse("fixed").is_err());
        assert!(FaultSchedule::parse("fixed:x").is_err());
        assert!(FaultSchedule::parse("rotating").is_err());
        assert!(FaultSchedule::parse("sometimes:1").is_err());
        assert!(FaultSchedule::parse("none:1").is_err());
        // A search over zero candidates would reject every job it reaches.
        let e = FaultSchedule::parse("worst-case:1:0").unwrap_err();
        assert!(e.contains("MAX_CANDIDATES must be ≥ 1"), "{e}");
    }

    #[test]
    fn rotating_sweeps_placement() {
        let sched = FaultSchedule::Rotating { count: 2 };
        let a = &sched.candidates(5, 0)[0];
        let b = &sched.candidates(5, 1)[0];
        let wrap = &sched.candidates(5, 4)[0];
        assert_eq!(a, &BTreeSet::from([0, 1]));
        assert_eq!(b, &BTreeSet::from([1, 2]));
        assert_eq!(wrap, &BTreeSet::from([4, 0]));
    }

    #[test]
    fn worst_case_enumerates_subsets() {
        let sched = FaultSchedule::WorstCase {
            count: 1,
            max_candidates: 16,
        };
        let cands = sched.candidates(4, 0);
        assert_eq!(cands.len(), 4);
        let sched = FaultSchedule::WorstCase {
            count: 2,
            max_candidates: 3,
        };
        assert_eq!(sched.candidates(5, 0).len(), 3, "cap applies");
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
        let sched = FaultSchedule::WorstCase {
            count: 4,
            max_candidates: 16,
        };
        let cands = sched.candidates(64, 0);
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
        let sched = FaultSchedule::WorstCase {
            count: 65,
            max_candidates: 8,
        };
        let cands = sched.candidates(130, 0);
        assert_eq!(cands.len(), 8);
        assert_eq!(cands.iter().collect::<BTreeSet<_>>().len(), 8);
        for c in &cands {
            assert_eq!(c.len(), 65);
            assert!(c.iter().all(|&v| v < 130));
        }
    }

    #[test]
    fn out_of_range_fixed_set_yields_no_candidates() {
        let sched = FaultSchedule::Fixed(BTreeSet::from([6]));
        assert!(sched.candidates(4, 0).is_empty());
    }
}
