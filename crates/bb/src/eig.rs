//! Exponential Information Gathering (EIG) Byzantine broadcast, as the
//! schedule of unicasts it sends.
//!
//! The classic Pease–Shostak–Lamport protocol \[19\]: `f + 1` relay rounds
//! build, at every node, a tree of claims `val(σ)` — "node `i_k` said that
//! `i_{k-1}` said that … the source said `v`" — after which each node
//! decides by recursive strict-majority over the tree. Correct for
//! `n > 3f` participants on a (possibly emulated) complete graph.
//!
//! NAB invokes this as `Broadcast_Default` for the 1-bit equality-check
//! flags (step 2.2) and for the dispute-control transcript claims (Phase 3);
//! its cost is the `O(n^α)` per-bit overhead that the throughput analysis
//! amortizes away. NAB's adversary acts through what a node broadcasts,
//! never through its relays, so every decision is the broadcaster's input
//! (validity) and only the protocol's messages cost anything. Which
//! unicasts EIG sends, and in which order, depends on participant indices
//! alone: [`schedule`] emits them for the caller to charge. The
//! value-running protocol is kept as the test oracle that pins it.

/// Re-export: node identifier.
pub use nab_netgraph::NodeId;

/// The transport `Broadcast_Default` is charged to: a reliable logical
/// unicast (on a real complete graph this is a link; on an incomplete one,
/// a [`crate::router::PathRouter`] majority-unicast).
pub trait EigChannel<V> {
    /// Delivers `value` (`bits` wide) from `from` to `to`. The transport is
    /// reliable — what arrives is what was sent — so the value is only lent,
    /// for the channel to charge (and, if it records, copy) the transfer.
    fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, value: &V);
}

/// Emits every logical unicast `(from, to)` of one EIG broadcast from
/// `source` among `participants`, in the order the protocol sends them.
///
/// The source first sends to every other participant. Then, for each
/// level `k` in `1..=f`, the claim paths of `k + 1` distinct participants
/// that start at the source are taken in lexicographic order of
/// participant index, and each path's last node relays it to every
/// participant but itself. That is the order the relays transmit in, so
/// message order is part of the specification, not an artefact of a
/// container. The walk keeps one path of at most `f + 1` nodes.
///
/// # Panics
///
/// Panics if `source` is not a participant or `|participants| ≤ 3f`.
pub fn schedule(
    participants: &[NodeId],
    source: NodeId,
    f: usize,
    mut send: impl FnMut(NodeId, NodeId),
) {
    assert!(participants.contains(&source), "source must participate");
    let n = participants.len();
    assert!(n > 3 * f, "EIG requires n > 3f (n={n}, f={f})");
    let mut path = Vec::with_capacity(f + 1);
    path.push(source);
    for len in 1..=f + 1 {
        relay_paths(participants, &mut path, len, &mut send);
    }
}

/// Extends `path` in lexicographic order to every claim path of `len`
/// distinct participants, and sends each one from its last node to every
/// other participant.
fn relay_paths(
    participants: &[NodeId],
    path: &mut Vec<NodeId>,
    len: usize,
    send: &mut impl FnMut(NodeId, NodeId),
) {
    if path.len() == len {
        let relay = path[len - 1];
        for &to in participants.iter().filter(|&&to| to != relay) {
            send(relay, to);
        }
        return;
    }
    for &next in participants {
        if !path.contains(&next) {
            path.push(next);
            relay_paths(participants, path, len, send);
            path.pop();
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the oracle keeps its per-node hash trees; it lists each level in schedule order, so no result depends on hash order"
)]
pub(crate) mod tests {
    use super::*;
    use crate::router::majority;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// Adversary hook: chooses what a *faulty* node transmits at each point
    /// of the EIG protocol.
    pub(crate) trait EigAdversary<V> {
        /// The value faulty `sender` reports to `receiver` for claim-path
        /// `path` (which ends in `sender`); `honest` is what a correct node
        /// would have sent.
        fn send_value(
            &mut self,
            sender: NodeId,
            path: &[NodeId],
            receiver: NodeId,
            honest: &V,
        ) -> V;
    }

    /// The trivial adversary: faulty nodes follow the protocol.
    pub(crate) struct HonestAdversary;

    impl<V: Clone> EigAdversary<V> for HonestAdversary {
        fn send_value(&mut self, _: NodeId, _: &[NodeId], _: NodeId, honest: &V) -> V {
            honest.clone()
        }
    }

    /// An ideal channel: direct, lossless, free.
    pub(crate) struct IdealChannel;

    impl<V> EigChannel<V> for IdealChannel {
        fn unicast(&mut self, _: NodeId, _: NodeId, _: u64, _: &V) {}
    }

    /// A channel that logs every logical message it carries.
    #[derive(Default)]
    pub(crate) struct Tap<V>(pub(crate) Vec<(NodeId, NodeId, u64, V)>);

    impl<V: Clone> EigChannel<V> for Tap<V> {
        fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, value: &V) {
            self.0.push((from, to, bits, value.clone()));
        }
    }

    impl<V> Tap<V> {
        /// The logged unicasts without their values.
        pub(crate) fn wire(&self) -> Vec<(NodeId, NodeId, u64)> {
            self.0
                .iter()
                .map(|&(from, to, bits, _)| (from, to, bits))
                .collect()
        }
    }

    /// A schedule's unicasts, each `bits` wide.
    pub(crate) fn listed(
        schedule: impl FnOnce(&mut dyn FnMut(NodeId, NodeId)),
        bits: u64,
    ) -> Vec<(NodeId, NodeId, u64)> {
        let mut out = Vec::new();
        schedule(&mut |from, to| out.push((from, to, bits)));
        out
    }

    /// Every faulty set of at most `f ≤ 2` of the nodes `0..n`.
    pub(crate) fn faulty_sets(n: usize, f: usize) -> Vec<BTreeSet<NodeId>> {
        let mut out = vec![BTreeSet::new()];
        for a in 0..n {
            out.push(BTreeSet::from([a]));
            if f >= 2 {
                out.extend((a + 1..n).map(|b| BTreeSet::from([a, b])));
            }
        }
        out
    }

    /// Outcome of one broadcast: every participant's decision (faulty ones
    /// included) and the number of logical messages.
    #[derive(Debug)]
    pub(crate) struct EigResult<V> {
        pub(crate) decisions: BTreeMap<NodeId, V>,
        pub(crate) messages: u64,
    }

    /// The value-running protocol, kept as the oracle: per-node hash trees
    /// keyed by claim path, and the recursive resolve over them. A level's
    /// paths are listed in [`schedule`] order.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's parameter list"
    )]
    pub(crate) fn run_eig_oracle<V, C>(
        participants: &[NodeId],
        source: NodeId,
        f: usize,
        input: V,
        faulty: &BTreeSet<NodeId>,
        adversary: &mut dyn EigAdversary<V>,
        chan: &mut C,
        bits: u64,
    ) -> EigResult<V>
    where
        V: Clone + Eq + Default,
        C: EigChannel<V>,
    {
        let mut messages = 0u64;
        let mut trees: BTreeMap<NodeId, HashMap<Vec<NodeId>, V>> =
            participants.iter().map(|&p| (p, HashMap::new())).collect();

        let root_path = vec![source];
        for &r in participants {
            let honest = input.clone();
            let sent = if faulty.contains(&source) {
                adversary.send_value(source, &root_path, r, &honest)
            } else {
                honest
            };
            let got = if r == source {
                sent
            } else {
                messages += 1;
                chan.unicast(source, r, bits, &sent);
                sent
            };
            trees.get_mut(&r).unwrap().insert(root_path.clone(), got);
        }

        let mut paths = vec![root_path.clone()];
        for _ in 1..=f {
            let mut next_paths = Vec::new();
            let mut new_entries: Vec<(NodeId, Vec<NodeId>, V)> = Vec::new();
            for path in &paths {
                for &relay in participants {
                    if path.contains(&relay) {
                        continue;
                    }
                    let mut new_path = path.clone();
                    new_path.push(relay);
                    let honest = trees[&relay].get(path).cloned().unwrap_or_default();
                    for &r in participants {
                        if r == relay {
                            new_entries.push((r, new_path.clone(), honest.clone()));
                            continue;
                        }
                        let sent = if faulty.contains(&relay) {
                            adversary.send_value(relay, &new_path, r, &honest)
                        } else {
                            honest.clone()
                        };
                        messages += 1;
                        chan.unicast(relay, r, bits, &sent);
                        new_entries.push((r, new_path.clone(), sent));
                    }
                    next_paths.push(new_path);
                }
            }
            for (node, path, v) in new_entries {
                trees.get_mut(&node).unwrap().insert(path, v);
            }
            paths = next_paths;
        }

        let decisions = participants
            .iter()
            .map(|&p| (p, resolve(&trees[&p], &root_path, participants, f)))
            .collect();
        EigResult {
            decisions,
            messages,
        }
    }

    /// Recursive EIG resolution: leaves report their stored value; internal
    /// paths take the strict majority of their children (default on tie).
    fn resolve<V: Clone + Eq + Default>(
        tree: &HashMap<Vec<NodeId>, V>,
        path: &[NodeId],
        participants: &[NodeId],
        f: usize,
    ) -> V {
        if path.len() == f + 1 {
            return tree.get(path).cloned().unwrap_or_default();
        }
        let mut children: Vec<V> = Vec::new();
        for &j in participants {
            if path.contains(&j) {
                continue;
            }
            let mut child = path.to_vec();
            child.push(j);
            children.push(resolve(tree, &child, participants, f));
        }
        majority(&children).unwrap_or_default()
    }

    /// An adversary given as a closure over `(call number, sender, path,
    /// receiver, honest)`; the call number makes any change in hook order
    /// visible in the values sent.
    struct FnAdv<F>(u64, F);

    impl<V, F: FnMut(u64, NodeId, &[NodeId], NodeId, &V) -> V> EigAdversary<V> for FnAdv<F> {
        fn send_value(&mut self, s: NodeId, path: &[NodeId], r: NodeId, honest: &V) -> V {
            self.0 += 1;
            (self.1)(self.0, s, path, r, honest)
        }
    }

    /// Runs the oracle on every `(n, f, source, faulty set)` of the grid
    /// under `adversary` and requires its wire traffic (every unicast's
    /// endpoints and width, in order) to be the schedule, whatever the
    /// liars send.
    fn assert_oracle_sends_the_schedule<V, A>(input: V, mut adversary: impl FnMut() -> A)
    where
        V: Clone + Eq + Default + std::fmt::Debug,
        A: EigAdversary<V>,
    {
        for (n, f) in [(4, 1), (5, 1), (6, 1), (7, 1), (7, 2)] {
            // Participant order is not id order: the schedule must follow
            // the former.
            let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
            for &source in &parts {
                let want = listed(|send| schedule(&parts, source, f, send), 9);
                for faulty in faulty_sets(n, f) {
                    let mut tap = Tap::default();
                    let got = run_eig_oracle(
                        &parts,
                        source,
                        f,
                        input.clone(),
                        &faulty,
                        &mut adversary(),
                        &mut tap,
                        9,
                    );
                    let case = format!("n={n} f={f} source={source} faulty={faulty:?}");
                    assert_eq!(got.messages, tap.0.len() as u64, "{case}");
                    assert_eq!(tap.wire(), want, "{case}");
                }
            }
        }
    }

    #[test]
    fn schedule_matches_hash_tree_oracle_on_u64() {
        assert_oracle_sends_the_schedule(42u64, || Equivocator);
        assert_oracle_sends_the_schedule(42u64, || Flipper);
        assert_oracle_sends_the_schedule(0u64, || HonestAdversary);
        assert_oracle_sends_the_schedule(5u64, || {
            FnAdv(0, |call, s, path: &[NodeId], r, honest: &u64| {
                (honest + call * 7 + (s + r + path.len()) as u64) % 3
            })
        });
    }

    #[test]
    fn schedule_matches_hash_tree_oracle_on_non_copy_values() {
        // Strings, and a claims-shaped value (a map of vectors) whose
        // equality is structural, like dispute control's `NodeClaims`.
        assert_oracle_sends_the_schedule("claim".to_string(), || {
            FnAdv(0, |_, _, _: &[NodeId], r, honest: &String| {
                format!("{honest}/{}", r % 2)
            })
        });
        assert_oracle_sends_the_schedule(String::new(), || HonestAdversary);
        type Claims = BTreeMap<NodeId, Vec<u16>>;
        let input: Claims = BTreeMap::from([(0, vec![1, 2, 3]), (2, vec![])]);
        assert_oracle_sends_the_schedule(input.clone(), || {
            FnAdv(0, |call: u64, s, _: &[NodeId], r, honest: &Claims| {
                let mut c = honest.clone();
                if (call + r as u64).is_multiple_of(3) {
                    c.entry(s).or_default().push(r as u16);
                }
                c
            })
        });
        assert_oracle_sends_the_schedule(input, || HonestAdversary);
    }

    /// With relays that follow the protocol, who is faulty is invisible:
    /// for every source and every faulty set of the grid, the decisions,
    /// the message count and the wire log equal those of the fault-free
    /// run — which is why `Broadcast_Default` need not be told the set.
    #[test]
    fn honest_relays_make_the_faulty_set_irrelevant() {
        for n in 4..=7 {
            for f in (1..=2).filter(|&f| n > 3 * f) {
                let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
                for &source in &parts {
                    let run = |faulty: &BTreeSet<NodeId>| {
                        let mut tap = Tap::default();
                        let res = run_eig_oracle(
                            &parts,
                            source,
                            f,
                            "v".to_string(),
                            faulty,
                            &mut HonestAdversary,
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
    fn relay_order_is_participant_order() {
        // K7, f = 2, source 0: after the source's 6 sends and the level-1
        // relays' 6 × 6, level 2 opens with path [0, 1] relayed by 2, 3, …,
        // each to everyone but itself, in participant order.
        let parts: Vec<NodeId> = (0..7).collect();
        let mut wire = Vec::new();
        schedule(&parts, 0, 2, |from, to| wire.push((from, to)));
        assert_eq!(wire.len(), 6 + 6 * 6 + 6 * 5 * 6);
        assert_eq!(
            wire[42..54],
            [
                (2, 0),
                (2, 1),
                (2, 3),
                (2, 4),
                (2, 5),
                (2, 6),
                (3, 0),
                (3, 1),
                (3, 2),
                (3, 4),
                (3, 5),
                (3, 6)
            ]
        );
    }

    /// Adversary: faulty nodes send `receiver-id`-dependent garbage.
    struct Equivocator;

    impl EigAdversary<u64> for Equivocator {
        fn send_value(&mut self, _: NodeId, _: &[NodeId], receiver: NodeId, _: &u64) -> u64 {
            receiver as u64 * 1000 + 7
        }
    }

    /// Adversary: flips the honest value deterministically.
    struct Flipper;

    impl EigAdversary<u64> for Flipper {
        fn send_value(&mut self, _: NodeId, _: &[NodeId], _: NodeId, honest: &u64) -> u64 {
            honest ^ 1
        }
    }

    fn all_agree(res: &EigResult<u64>, honest: &[NodeId]) -> Option<u64> {
        let vals: Vec<u64> = honest.iter().map(|n| res.decisions[n]).collect();
        vals.windows(2).all(|w| w[0] == w[1]).then(|| vals[0])
    }

    #[test]
    fn validity_with_honest_source() {
        let parts: Vec<NodeId> = (0..4).collect();
        let res = run_eig_oracle(
            &parts,
            0,
            1,
            77u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert_eq!(all_agree(&res, &parts), Some(77));
    }

    #[test]
    fn agreement_with_equivocating_source_f1() {
        let parts: Vec<NodeId> = (0..4).collect();
        let faulty = BTreeSet::from([0]);
        let res = run_eig_oracle(
            &parts,
            0,
            1,
            77u64,
            &faulty,
            &mut Equivocator,
            &mut IdealChannel,
            1,
        );
        let honest: Vec<NodeId> = (1..4).collect();
        assert!(
            all_agree(&res, &honest).is_some(),
            "honest nodes must agree"
        );
    }

    #[test]
    fn validity_despite_faulty_relay_f1() {
        let parts: Vec<NodeId> = (0..4).collect();
        let faulty = BTreeSet::from([2]);
        let res = run_eig_oracle(
            &parts,
            0,
            1,
            5u64,
            &faulty,
            &mut Flipper,
            &mut IdealChannel,
            1,
        );
        for n in [0, 1, 3] {
            assert_eq!(res.decisions[&n], 5, "node {n} must decide source value");
        }
    }

    #[test]
    fn agreement_with_two_faults_f2() {
        let parts: Vec<NodeId> = (0..7).collect();
        let faulty = BTreeSet::from([0, 3]);
        let res = run_eig_oracle(
            &parts,
            0,
            2,
            9u64,
            &faulty,
            &mut Equivocator,
            &mut IdealChannel,
            1,
        );
        let honest: Vec<NodeId> = parts
            .iter()
            .copied()
            .filter(|n| !faulty.contains(n))
            .collect();
        assert!(all_agree(&res, &honest).is_some());
    }

    #[test]
    fn validity_with_two_faulty_relays_f2() {
        let parts: Vec<NodeId> = (0..7).collect();
        let faulty = BTreeSet::from([5, 6]);
        let res = run_eig_oracle(
            &parts,
            0,
            2,
            13u64,
            &faulty,
            &mut Flipper,
            &mut IdealChannel,
            1,
        );
        for n in 0..5 {
            assert_eq!(res.decisions[&n], 13);
        }
    }

    #[test]
    fn f0_is_single_round() {
        let parts: Vec<NodeId> = (0..2).collect();
        let res = run_eig_oracle(
            &parts,
            1,
            0,
            3u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert_eq!(res.decisions[&0], 3);
        assert_eq!(res.messages, 1);
        assert_eq!(listed(|send| schedule(&parts, 1, 0, send), 1), [(1, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn too_few_participants_rejected() {
        let parts: Vec<NodeId> = (0..3).collect();
        schedule(&parts, 0, 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "source must participate")]
    fn absent_source_rejected() {
        let parts: Vec<NodeId> = (0..4).collect();
        schedule(&parts, 9, 1, |_, _| {});
    }

    #[test]
    fn works_with_string_values() {
        // EIG is generic over the value domain — dispute control broadcasts
        // structured claims, not bits.
        let parts: Vec<NodeId> = (0..4).collect();
        let res = run_eig_oracle(
            &parts,
            0,
            1,
            "claim:sent[1,2,3]".to_string(),
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            128,
        );
        assert_eq!(res.decisions[&3], "claim:sent[1,2,3]");
    }

    /// Exhaustive check for n=4, f=1: for every choice of faulty node and
    /// both adversaries, agreement + validity hold.
    #[test]
    fn exhaustive_single_fault_n4() {
        let parts: Vec<NodeId> = (0..4).collect();
        for bad in 0..4 {
            for adv_kind in 0..2 {
                let faulty = BTreeSet::from([bad]);
                let mut equiv = Equivocator;
                let mut flip = Flipper;
                let adversary: &mut dyn EigAdversary<u64> =
                    if adv_kind == 0 { &mut equiv } else { &mut flip };
                let res = run_eig_oracle(
                    &parts,
                    0,
                    1,
                    42u64,
                    &faulty,
                    adversary,
                    &mut IdealChannel,
                    1,
                );
                let honest: Vec<NodeId> = parts.iter().copied().filter(|n| *n != bad).collect();
                let agreed = all_agree(&res, &honest);
                assert!(agreed.is_some(), "disagreement with faulty={bad}");
                if bad != 0 {
                    assert_eq!(agreed, Some(42), "validity violated with faulty={bad}");
                }
            }
        }
    }
}
