//! Phase-King Byzantine broadcast (Berman–Garay–Perry style).
//!
//! An alternative `Broadcast_Default` with *polynomial* message complexity
//! `O(f · n²)` — EIG sends `O(n^{f+1})` messages, which is fine for the
//! small `f` NAB targets but explodes for larger deployments. The classic
//! two-round phase-king protocol implemented here requires `n > 4f`
//! (the three-round `n > 3f` variant trades more rounds for resilience);
//! callers choose it when their network clears that threshold.
//!
//! Structure: the source disperses its value, then `f + 1` consensus
//! phases run, each with a designated *king*. Some phase has a fault-free
//! king, after which all fault-free nodes agree and agreement persists.

use std::collections::{BTreeMap, BTreeSet};

use nab_netgraph::NodeId;

use crate::eig::{EigChannel, ValueTable};

/// Adversary hook for Phase-King: what a faulty `sender` transmits to
/// `receiver` in the given `(phase, round)` (source dispersal is phase 0).
pub trait PkAdversary<V> {
    /// Returns the (possibly corrupted) value to send; `honest` is the
    /// protocol-prescribed one.
    fn value(
        &mut self,
        sender: NodeId,
        phase: usize,
        round: usize,
        receiver: NodeId,
        honest: &V,
    ) -> V;
}

/// Faulty nodes follow the protocol.
#[derive(Debug, Clone, Default)]
pub struct PkHonest;

impl<V: Clone> PkAdversary<V> for PkHonest {
    fn value(&mut self, _: NodeId, _: usize, _: usize, _: NodeId, honest: &V) -> V {
        honest.clone()
    }
}

/// Outcome of one Phase-King broadcast.
#[derive(Debug, Clone)]
pub struct PkResult<V> {
    /// Every participant's decision.
    pub decisions: BTreeMap<NodeId, V>,
    /// Logical point-to-point messages sent.
    pub messages: u64,
}

/// Runs Phase-King broadcast.
///
/// Guarantees for `|participants| > 4f`: agreement among fault-free nodes
/// always; validity when the source is fault-free.
///
/// Node state is a value id per participant (see `ValueTable`); values
/// themselves are compared only to break plurality ties.
///
/// # Panics
///
/// Panics if `source` is not a participant or `|participants| ≤ 4f`.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
pub fn run_phase_king<V, C>(
    participants: &[NodeId],
    source: NodeId,
    f: usize,
    input: V,
    faulty: &BTreeSet<NodeId>,
    adversary: &mut dyn PkAdversary<V>,
    chan: &mut C,
    bits: u64,
) -> PkResult<V>
where
    V: Clone + Eq + Ord + Default,
    C: EigChannel<V>,
{
    assert!(participants.contains(&source), "source must participate");
    let n = participants.len();
    assert!(n > 4 * f, "phase-king needs n > 4f (n={n}, f={f})");

    let mut messages = 0u64;
    let mut values = ValueTable::new(input);
    const INPUT: u32 = 0;
    // What faulty `s` sends `r` in place of `honest`.
    let mut lie = |values: &mut ValueTable<V>, s, phase, round, r, honest: u32| {
        let v = adversary.value(s, phase, round, r, values.get(honest));
        values.intern(v, honest)
    };

    // Phase 0: the source disperses its input.
    let mut value: Vec<u32> = Vec::with_capacity(n);
    for &r in participants {
        let sent = if faulty.contains(&source) {
            lie(&mut values, source, 0, 0, r, INPUT)
        } else {
            INPUT
        };
        if r != source {
            messages += 1;
            chan.unicast(source, r, bits, values.get(sent));
        }
        value.push(sent);
    }

    // f + 1 king phases. Kings are the first f+1 participants — at least
    // one of them is fault-free.
    for phase in 1..=f + 1 {
        let king_idx = (phase - 1) % n;
        let king = participants[king_idx];

        // Round 1: everyone announces its current value.
        let mut heard: Vec<Vec<u32>> = vec![Vec::with_capacity(n); n];
        for (&s, &honest) in participants.iter().zip(&value) {
            let lies = faulty.contains(&s);
            for (votes, &r) in heard.iter_mut().zip(participants) {
                let sent = if lies {
                    lie(&mut values, s, phase, 1, r, honest)
                } else {
                    honest
                };
                if r != s {
                    messages += 1;
                    chan.unicast(s, r, bits, values.get(sent));
                }
                votes.push(sent);
            }
        }

        // Each node computes its plurality proposal (ties go to the
        // smallest value) and that proposal's support.
        #[expect(
            clippy::expect_used,
            reason = "the table holds the input from the start"
        )]
        let proposal: Vec<(u32, usize)> = heard
            .iter()
            .map(|votes| {
                let mut support = vec![0usize; values.len()];
                for &id in votes {
                    support[id as usize] += 1;
                }
                (0u32..)
                    .zip(support)
                    .max_by(|&(a, ca), &(b, cb)| {
                        ca.cmp(&cb).then_with(|| values.get(b).cmp(values.get(a)))
                    })
                    .expect("non-empty table")
            })
            .collect();

        // Round 2: the king broadcasts its proposal; weakly supported
        // nodes adopt it.
        let king_honest = proposal[king_idx].0;
        for ((slot, &r), &(own, support)) in value.iter_mut().zip(participants).zip(&proposal) {
            let from_king = if r == king {
                king_honest
            } else {
                let sent = if faulty.contains(&king) {
                    lie(&mut values, king, phase, 2, r, king_honest)
                } else {
                    king_honest
                };
                messages += 1;
                chan.unicast(king, r, bits, values.get(sent));
                sent
            };
            // Strong support (≥ n − f announcers) survives any king;
            // otherwise defer to the king.
            *slot = if support >= n - f { own } else { from_king };
        }
    }

    PkResult {
        decisions: participants
            .iter()
            .zip(value)
            .map(|(&p, id)| (p, values.get(id).clone()))
            .collect(),
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::IdealChannel;

    /// The pre-id implementation (owned values in per-node maps), kept as the
    /// oracle for [`run_phase_king`].
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's parameter list"
    )]
    fn run_phase_king_oracle<V, C>(
        participants: &[NodeId],
        source: NodeId,
        f: usize,
        input: V,
        faulty: &BTreeSet<NodeId>,
        adversary: &mut dyn PkAdversary<V>,
        chan: &mut C,
        bits: u64,
    ) -> PkResult<V>
    where
        V: Clone + Eq + Ord + Default,
        C: EigChannel<V>,
    {
        assert!(participants.contains(&source), "source must participate");
        let n = participants.len();
        assert!(n > 4 * f, "phase-king needs n > 4f (n={n}, f={f})");

        let mut messages = 0u64;
        let mut value: BTreeMap<NodeId, V> = BTreeMap::new();

        // Phase 0: the source disperses its input.
        for &r in participants {
            let sent = if faulty.contains(&source) {
                adversary.value(source, 0, 0, r, &input)
            } else {
                input.clone()
            };
            let got = if r == source {
                sent
            } else {
                messages += 1;
                chan.unicast(source, r, bits, &sent);
                sent
            };
            value.insert(r, got);
        }

        // f + 1 king phases. Kings are the first f+1 participants — at least
        // one of them is fault-free.
        for phase in 1..=f + 1 {
            let king = participants[(phase - 1) % n];

            // Round 1: everyone announces its current value.
            let mut heard: BTreeMap<NodeId, Vec<V>> =
                participants.iter().map(|&p| (p, Vec::new())).collect();
            for &s in participants {
                let honest = value[&s].clone();
                for &r in participants {
                    let sent = if faulty.contains(&s) {
                        adversary.value(s, phase, 1, r, &honest)
                    } else {
                        honest.clone()
                    };
                    let got = if r == s {
                        sent
                    } else {
                        messages += 1;
                        chan.unicast(s, r, bits, &sent);
                        sent
                    };
                    heard.get_mut(&r).unwrap().push(got);
                }
            }

            // Each node computes its plurality proposal and that proposal's
            // support.
            let mut proposal: BTreeMap<NodeId, (V, usize)> = BTreeMap::new();
            for &p in participants {
                let votes = &heard[&p];
                let mut counts: BTreeMap<&V, usize> = BTreeMap::new();
                for v in votes {
                    *counts.entry(v).or_insert(0) += 1;
                }
                let (best, cnt) = counts
                    .into_iter()
                    .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v.clone())))
                    .expect("non-empty votes");
                proposal.insert(p, (best.clone(), cnt));
            }

            // Round 2: the king broadcasts its proposal; weakly supported
            // nodes adopt it.
            let king_honest = proposal[&king].0.clone();
            let mut next: BTreeMap<NodeId, V> = BTreeMap::new();
            for &r in participants {
                let from_king = if r == king {
                    king_honest.clone()
                } else {
                    let sent = if faulty.contains(&king) {
                        adversary.value(king, phase, 2, r, &king_honest)
                    } else {
                        king_honest.clone()
                    };
                    messages += 1;
                    chan.unicast(king, r, bits, &sent);
                    sent
                };
                let (own, support) = proposal[&r].clone();
                // Strong support (≥ n − f announcers) survives any king;
                // otherwise defer to the king.
                if support >= n - f {
                    next.insert(r, own);
                } else {
                    next.insert(r, from_king);
                }
            }
            value = next;
        }

        PkResult {
            decisions: value,
            messages,
        }
    }

    struct Equivocate;

    impl PkAdversary<u64> for Equivocate {
        fn value(&mut self, _: NodeId, _: usize, _: usize, r: NodeId, _: &u64) -> u64 {
            r as u64 * 31 + 5
        }
    }

    struct Flip;

    impl PkAdversary<u64> for Flip {
        fn value(&mut self, _: NodeId, _: usize, _: usize, _: NodeId, honest: &u64) -> u64 {
            honest ^ 0xFF
        }
    }

    fn agreed(res: &PkResult<u64>, honest: &[NodeId]) -> Option<u64> {
        let vals: Vec<u64> = honest.iter().map(|n| res.decisions[n]).collect();
        vals.windows(2).all(|w| w[0] == w[1]).then(|| vals[0])
    }

    /// Ids vs owned values: identical decisions, message counts and wire
    /// traffic on the `n > 4f` grid, for every source, every faulty set of
    /// at most `f` nodes, and each adversary.
    #[test]
    fn ids_match_owned_value_oracle() {
        use crate::eig::{faulty_sets, Tap};
        type MakeAdv = fn() -> Box<dyn PkAdversary<u64>>;
        let advs: [MakeAdv; 3] = [
            || Box::new(PkHonest),
            || Box::new(Equivocate),
            || Box::new(Flip),
        ];
        for (n, f) in [(5, 1), (6, 1), (9, 2)] {
            let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
            for &source in &parts {
                for faulty in &faulty_sets(n, f) {
                    for adv in advs {
                        let (mut tap, mut oracle_tap) = (Tap::default(), Tap::default());
                        let got = run_phase_king(
                            &parts,
                            source,
                            f,
                            3u64,
                            faulty,
                            adv().as_mut(),
                            &mut tap,
                            8,
                        );
                        let want = run_phase_king_oracle(
                            &parts,
                            source,
                            f,
                            3u64,
                            faulty,
                            adv().as_mut(),
                            &mut oracle_tap,
                            8,
                        );
                        let case = format!("n={n} f={f} source={source} faulty={faulty:?}");
                        assert_eq!(got.decisions, want.decisions, "{case}");
                        assert_eq!(got.messages, want.messages, "{case}");
                        assert_eq!(tap.0, oracle_tap.0, "{case}");
                    }
                }
            }
        }
    }

    /// [`PkHonest`] relays make the faulty set invisible: on every grid
    /// point with `n > 4f`, every source and every faulty set give the
    /// fault-free run's decisions, message count and wire log.
    #[test]
    fn honest_relays_make_the_faulty_set_irrelevant() {
        use crate::eig::{faulty_sets, Tap};
        for n in 4..=7 {
            for f in (1..=2).filter(|&f| n > 4 * f) {
                let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
                for &source in &parts {
                    let run = |faulty: &BTreeSet<NodeId>| {
                        let mut tap = Tap::default();
                        let res = run_phase_king(
                            &parts,
                            source,
                            f,
                            6u64,
                            faulty,
                            &mut PkHonest,
                            &mut tap,
                            5,
                        );
                        (res.decisions, res.messages, tap.0)
                    };
                    let clean = run(&BTreeSet::new());
                    for faulty in faulty_sets(n, f) {
                        assert_eq!(run(&faulty), clean, "n={n} f={f} {source} {faulty:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn validity_fault_free() {
        let parts: Vec<NodeId> = (0..5).collect();
        let res = run_phase_king(
            &parts,
            0,
            1,
            42u64,
            &BTreeSet::new(),
            &mut PkHonest,
            &mut IdealChannel,
            8,
        );
        assert_eq!(agreed(&res, &parts), Some(42));
    }

    #[test]
    fn agreement_under_equivocating_source() {
        let parts: Vec<NodeId> = (0..5).collect();
        let faulty = BTreeSet::from([0]);
        let res = run_phase_king(
            &parts,
            0,
            1,
            42u64,
            &faulty,
            &mut Equivocate,
            &mut IdealChannel,
            8,
        );
        let honest: Vec<NodeId> = (1..5).collect();
        assert!(agreed(&res, &honest).is_some(), "{:?}", res.decisions);
    }

    #[test]
    fn validity_with_faulty_relay_every_position() {
        let parts: Vec<NodeId> = (0..5).collect();
        for bad in 1..5 {
            let faulty = BTreeSet::from([bad]);
            let res = run_phase_king(&parts, 0, 1, 7u64, &faulty, &mut Flip, &mut IdealChannel, 8);
            let honest: Vec<NodeId> = parts.iter().copied().filter(|&p| p != bad).collect();
            assert_eq!(agreed(&res, &honest), Some(7), "faulty={bad}");
        }
    }

    #[test]
    fn agreement_with_equivocator_in_every_position() {
        let parts: Vec<NodeId> = (0..5).collect();
        for bad in 0..5 {
            let faulty = BTreeSet::from([bad]);
            let res = run_phase_king(
                &parts,
                0,
                1,
                9u64,
                &faulty,
                &mut Equivocate,
                &mut IdealChannel,
                8,
            );
            let honest: Vec<NodeId> = parts.iter().copied().filter(|&p| p != bad).collect();
            let a = agreed(&res, &honest);
            assert!(a.is_some(), "faulty={bad}");
            if bad != 0 {
                assert_eq!(a, Some(9), "validity, faulty={bad}");
            }
        }
    }

    #[test]
    fn two_faults_with_n9() {
        let parts: Vec<NodeId> = (0..9).collect();
        for pair in [[0usize, 1], [1, 2], [7, 8]] {
            let faulty: BTreeSet<NodeId> = pair.into_iter().collect();
            let res = run_phase_king(
                &parts,
                0,
                2,
                11u64,
                &faulty,
                &mut Equivocate,
                &mut IdealChannel,
                8,
            );
            let honest: Vec<NodeId> = parts
                .iter()
                .copied()
                .filter(|p| !faulty.contains(p))
                .collect();
            let a = agreed(&res, &honest);
            assert!(a.is_some(), "faulty={pair:?}");
            if !faulty.contains(&0) {
                assert_eq!(a, Some(11));
            }
        }
    }

    #[test]
    fn polynomial_vs_exponential_messages() {
        // Phase-King messages grow ~n², EIG ~n^{f+1}; at f=2 the gap is
        // visible already for n=9.
        use crate::eig::{run_eig, HonestAdversary};
        let parts: Vec<NodeId> = (0..9).collect();
        let pk = run_phase_king(
            &parts,
            0,
            2,
            1u64,
            &BTreeSet::new(),
            &mut PkHonest,
            &mut IdealChannel,
            1,
        );
        let eig = run_eig(
            &parts,
            0,
            2,
            1u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert!(
            pk.messages < eig.messages,
            "phase-king {} !< EIG {}",
            pk.messages,
            eig.messages
        );
    }

    #[test]
    #[should_panic(expected = "n > 4f")]
    fn rejects_insufficient_n() {
        let parts: Vec<NodeId> = (0..4).collect();
        let _ = run_phase_king(
            &parts,
            0,
            1,
            0u64,
            &BTreeSet::new(),
            &mut PkHonest,
            &mut IdealChannel,
            1,
        );
    }

    #[test]
    fn exhaustive_single_fault_n5_binary_inputs() {
        // Exhaustive over faulty position × adversary × input bit.
        let parts: Vec<NodeId> = (0..5).collect();
        for bad in 0..5 {
            for input in [0u64, 1] {
                for adv_id in 0..2 {
                    let faulty = BTreeSet::from([bad]);
                    let mut eq = Equivocate;
                    let mut fl = Flip;
                    let adv: &mut dyn PkAdversary<u64> =
                        if adv_id == 0 { &mut eq } else { &mut fl };
                    let res =
                        run_phase_king(&parts, 0, 1, input, &faulty, adv, &mut IdealChannel, 1);
                    let honest: Vec<NodeId> = parts.iter().copied().filter(|&p| p != bad).collect();
                    let a = agreed(&res, &honest);
                    assert!(a.is_some(), "bad={bad} input={input} adv={adv_id}");
                    if bad != 0 {
                        assert_eq!(a, Some(input));
                    }
                }
            }
        }
    }
}
