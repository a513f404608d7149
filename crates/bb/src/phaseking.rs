//! Phase-King Byzantine broadcast (Berman–Garay–Perry style), as the
//! schedule of unicasts it sends.
//!
//! An alternative `Broadcast_Default` with *polynomial* message complexity
//! `O(f · n²)` — EIG sends `O(n^{f+1})` messages, which is fine for the
//! small `f` NAB targets but explodes for larger deployments. The classic
//! two-round phase-king protocol modelled here requires `n > 4f`
//! (the three-round `n > 3f` variant trades more rounds for resilience);
//! callers choose it when their network clears that threshold.
//!
//! Structure: the source disperses its value, then `f + 1` consensus
//! phases run, each with a designated *king*. Some phase has a fault-free
//! king, after which all fault-free nodes agree and agreement persists.
//! As with [`crate::eig`], who sends to whom never depends on a value, so
//! [`schedule`] emits the unicasts for the caller to charge; the
//! value-running protocol is kept as the test oracle that pins it.

use nab_netgraph::NodeId;

/// Emits every logical unicast `(from, to)` of one Phase-King broadcast
/// from `source` among `participants`, in the order the protocol sends
/// them: the source disperses its value to every other participant, then
/// each of the `f + 1` phases has every participant, in participant order,
/// announce to every other, followed by the phase's king (the first `f + 1`
/// participants in turn) sending to every other.
///
/// # Panics
///
/// Panics if `source` is not a participant or `|participants| ≤ 4f`.
pub fn schedule(
    participants: &[NodeId],
    source: NodeId,
    f: usize,
    mut send: impl FnMut(NodeId, NodeId),
) {
    assert!(participants.contains(&source), "source must participate");
    let n = participants.len();
    assert!(n > 4 * f, "phase-king needs n > 4f (n={n}, f={f})");
    let mut to_others = |from: NodeId| {
        for &to in participants.iter().filter(|&&to| to != from) {
            send(from, to);
        }
    };
    to_others(source);
    for &king in participants.iter().cycle().take(f + 1) {
        for &s in participants {
            to_others(s);
        }
        to_others(king);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eig::tests::{faulty_sets, listed, IdealChannel, Tap};
    use crate::eig::EigChannel;
    use std::collections::{BTreeMap, BTreeSet};

    /// Adversary hook for Phase-King: what a faulty `sender` transmits to
    /// `receiver` in the given `(phase, round)` (source dispersal is phase 0).
    pub(crate) trait PkAdversary<V> {
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
    pub(crate) struct PkHonest;

    impl<V: Clone> PkAdversary<V> for PkHonest {
        fn value(&mut self, _: NodeId, _: usize, _: usize, _: NodeId, honest: &V) -> V {
            honest.clone()
        }
    }

    /// Outcome of one broadcast: every participant's decision and the
    /// number of logical messages.
    #[derive(Debug)]
    pub(crate) struct PkResult<V> {
        pub(crate) decisions: BTreeMap<NodeId, V>,
        pub(crate) messages: u64,
    }

    /// The value-running protocol (owned values in per-node maps), kept as
    /// the oracle for [`schedule`].
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's parameter list"
    )]
    pub(crate) fn run_phase_king_oracle<V, C>(
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

    /// The oracle's wire traffic is the schedule on the `n > 4f` grid, for
    /// every source, every faulty set of at most `f` nodes, and each
    /// adversary: whatever the liars send, who sends to whom is fixed.
    #[test]
    fn schedule_matches_owned_value_oracle() {
        type MakeAdv = fn() -> Box<dyn PkAdversary<u64>>;
        let advs: [MakeAdv; 3] = [
            || Box::new(PkHonest),
            || Box::new(Equivocate),
            || Box::new(Flip),
        ];
        for (n, f) in [(5, 1), (6, 1), (9, 2)] {
            let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
            for &source in &parts {
                let want = listed(|send| schedule(&parts, source, f, send), 8);
                for faulty in &faulty_sets(n, f) {
                    for adv in advs {
                        let mut tap = Tap::default();
                        let got = run_phase_king_oracle(
                            &parts,
                            source,
                            f,
                            3u64,
                            faulty,
                            adv().as_mut(),
                            &mut tap,
                            8,
                        );
                        let case = format!("n={n} f={f} source={source} faulty={faulty:?}");
                        assert_eq!(got.messages, tap.0.len() as u64, "{case}");
                        assert_eq!(tap.wire(), want, "{case}");
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
        for n in 4..=7 {
            for f in (1..=2).filter(|&f| n > 4 * f) {
                let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
                for &source in &parts {
                    let run = |faulty: &BTreeSet<NodeId>| {
                        let mut tap = Tap::default();
                        let res = run_phase_king_oracle(
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
        let res = run_phase_king_oracle(
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
        let res = run_phase_king_oracle(
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
            let res =
                run_phase_king_oracle(&parts, 0, 1, 7u64, &faulty, &mut Flip, &mut IdealChannel, 8);
            let honest: Vec<NodeId> = parts.iter().copied().filter(|&p| p != bad).collect();
            assert_eq!(agreed(&res, &honest), Some(7), "faulty={bad}");
        }
    }

    #[test]
    fn agreement_with_equivocator_in_every_position() {
        let parts: Vec<NodeId> = (0..5).collect();
        for bad in 0..5 {
            let faulty = BTreeSet::from([bad]);
            let res = run_phase_king_oracle(
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
            let res = run_phase_king_oracle(
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

    /// Both schedules' message counts in closed form: EIG sends
    /// `(n−1)·(1 + Σ_{k=1..f} Π_{j=1..k}(n−j))` unicasts (level `k` has
    /// `Π_{j=1..k}(n−j)` claim paths), Phase-King `(n−1)·(1 + (f+1)(n+1))`.
    /// Phase-King grows ~n², EIG ~n^{f+1}; at f=2 the gap is visible
    /// already for n=9.
    #[test]
    fn polynomial_vs_exponential_messages() {
        use crate::eig::tests::{run_eig_oracle, HonestAdversary};
        let eig_closed = |n: u64, f: u64| {
            let levels: u64 = (1..=f)
                .map(|k| (1..=k).map(|j| n - j).product::<u64>())
                .sum();
            (n - 1) * (1 + levels)
        };
        let pk_closed = |n: u64, f: u64| (n - 1) * (1 + (f + 1) * (n + 1));
        let eig = |parts: &[NodeId], source, f| {
            listed(|send| crate::eig::schedule(parts, source, f, send), 1).len() as u64
        };
        let pk = |parts: &[NodeId], source, f| {
            listed(|send| schedule(parts, source, f, send), 1).len() as u64
        };
        for n in 1..=14usize {
            let parts: Vec<NodeId> = (0..n).collect();
            for f in (0..=3).filter(|&f| n > 3 * f) {
                let (nn, ff) = (n as u64, f as u64);
                assert_eq!(eig(&parts, n - 1, f), eig_closed(nn, ff), "EIG n={n} f={f}");
                if n > 4 * f {
                    assert_eq!(pk(&parts, 0, f), pk_closed(nn, ff), "PK n={n} f={f}");
                }
            }
        }

        // The oracles send as many.
        let parts: Vec<NodeId> = (0..9).collect();
        let none = BTreeSet::new();
        let pk_run = run_phase_king_oracle(
            &parts,
            0,
            2,
            1u64,
            &none,
            &mut PkHonest,
            &mut IdealChannel,
            1,
        );
        let eig_run = run_eig_oracle(
            &parts,
            0,
            2,
            1u64,
            &none,
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert_eq!(pk_run.messages, pk_closed(9, 2));
        assert_eq!(eig_run.messages, eig_closed(9, 2));
        assert!(
            pk_run.messages < eig_run.messages,
            "phase-king {} !< EIG {}",
            pk_run.messages,
            eig_run.messages
        );

        // One flag phase is n EIG broadcasts, one from each participant.
        for (n, f, per_phase) in [
            (4, 1, 48),
            (7, 1, 294),
            (7, 2, 1_554),
            (10, 1, 900),
            (14, 1, 2_548),
        ] {
            let parts: Vec<NodeId> = (0..n).collect();
            let sent: u64 = parts.iter().map(|&b| eig(&parts, b, f)).sum();
            assert_eq!(sent, per_phase, "K{n} f={f}");
            assert_eq!(n as u64 * eig_closed(n as u64, f as u64), per_phase);
        }
    }

    #[test]
    #[should_panic(expected = "n > 4f")]
    fn rejects_insufficient_n() {
        let parts: Vec<NodeId> = (0..4).collect();
        schedule(&parts, 0, 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "source must participate")]
    fn rejects_absent_source() {
        let parts: Vec<NodeId> = (0..5).collect();
        schedule(&parts, 7, 1, |_, _| {});
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
                    let res = run_phase_king_oracle(
                        &parts,
                        0,
                        1,
                        input,
                        &faulty,
                        adv,
                        &mut IdealChannel,
                        1,
                    );
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
