//! Exponential Information Gathering (EIG) Byzantine broadcast.
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
//! amortizes away. It runs in a reusable [`Workspace`]
//! ([`Workspace::eig`]).

use std::collections::BTreeSet;

use crate::router::majority;
use crate::workspace::Workspace;

/// Re-export: node identifier.
pub use nab_netgraph::NodeId;

/// Adversary hook: chooses what a *faulty* node transmits at each point of
/// the EIG protocol.
pub trait EigAdversary<V> {
    /// The value faulty `sender` reports to `receiver` for claim-path
    /// `path` (which ends in `sender`); `honest` is what a correct node
    /// would have sent.
    fn send_value(&mut self, sender: NodeId, path: &[NodeId], receiver: NodeId, honest: &V) -> V;
}

/// The trivial adversary: faulty nodes follow the protocol.
#[derive(Debug, Clone, Default)]
pub struct HonestAdversary;

impl<V: Clone> EigAdversary<V> for HonestAdversary {
    fn send_value(&mut self, _: NodeId, _: &[NodeId], _: NodeId, honest: &V) -> V {
        honest.clone()
    }
}

/// The transport EIG runs over: a reliable logical unicast (on a real
/// complete graph this is a link; on an incomplete one, a
/// [`crate::router::PathRouter`] majority-unicast).
pub trait EigChannel<V> {
    /// Delivers `value` (`bits` wide) from `from` to `to`. The transport is
    /// reliable — what arrives is what was sent — so the value is only lent,
    /// for the channel to charge (and, if it records, copy) the transfer.
    fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, value: &V);
}

/// An ideal channel: direct, lossless, free. Useful for unit tests and for
/// cost models that charge communication separately.
#[derive(Debug, Clone, Default)]
pub struct IdealChannel;

impl<V> EigChannel<V> for IdealChannel {
    fn unicast(&mut self, _: NodeId, _: NodeId, _: u64, _: &V) {}
}

/// Id of `V::default()` in an EIG run's value table.
const DEFAULT: u32 = 0;

impl<V: Clone + Eq + Default> Workspace<V> {
    /// Runs one EIG Byzantine broadcast in this workspace and returns the
    /// number of logical point-to-point messages sent; the decisions stay
    /// in the workspace ([`Workspace::decisions`]).
    ///
    /// - `participants`: the nodes taking part (must include `source`);
    /// - `f`: upper bound on the number of faulty *participants*;
    /// - `input`: the source's input value;
    /// - `faulty` / `adversary`: which nodes misbehave and how;
    /// - `chan`: the transport;
    /// - `bits`: the width charged per logical message.
    ///
    /// Guarantees (for `|participants| > 3f`): all fault-free participants
    /// decide the same value, equal to `input` when the source is
    /// fault-free.
    ///
    /// The claim tree is built one level at a time, shared by all nodes.
    /// Level `k` holds the claim paths of length `k + 1`, flat, built from
    /// level `k − 1` in order by appending every participant not yet on the
    /// path, in participant order — which is also the order the relays
    /// transmit in, so message order is part of the specification, not an
    /// artefact of a container. The `n − k − 1` children of path `i` are
    /// therefore paths `i·(n−k−1) .. (i+1)·(n−k−1)` of the next level, and
    /// each node's view of a level is its row of value ids, one per path.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a participant or `|participants| ≤ 3f`.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's parameter list"
    )]
    pub fn eig<C: EigChannel<V>>(
        &mut self,
        participants: &[NodeId],
        source: NodeId,
        f: usize,
        input: V,
        faulty: &BTreeSet<NodeId>,
        adversary: &mut dyn EigAdversary<V>,
        chan: &mut C,
        bits: u64,
    ) -> u64 {
        assert!(participants.contains(&source), "source must participate");
        let n = participants.len();
        assert!(n > 3 * f, "EIG requires n > 3f (n={n}, f={f})");
        let Workspace {
            values,
            paths,
            next_paths,
            ids,
            next_ids,
            decided,
            ..
        } = self;

        let mut messages = 0u64;
        values.reset(V::default());
        let input = values.intern(input, DEFAULT);

        // Round 1: the source announces its input.
        paths.clear();
        paths.push(source);
        ids.clear();
        let source_lies = faulty.contains(&source);
        for &r in participants {
            let sent = if source_lies {
                let v = adversary.send_value(source, paths, r, values.get(input));
                values.intern(v, input)
            } else {
                input
            };
            if r != source {
                // (The source's own copy is a self-delivery.)
                messages += 1;
                chan.unicast(source, r, bits, values.get(sent));
            }
            ids.push(sent);
        }

        // Rounds 2..=f+1: relay every level-(k-1) claim. `width` is the
        // level's path count, the length of each node's row.
        let mut width = 1;
        for len in 1..=f {
            let next_width = width * (n - len);
            next_paths.clear();
            next_ids.clear();
            next_ids.resize(n * next_width, DEFAULT);
            let mut child = 0;
            for (i, path) in paths.chunks_exact(len).enumerate() {
                for (relay_idx, &relay) in participants.iter().enumerate() {
                    if path.contains(&relay) {
                        continue;
                    }
                    let start = next_paths.len();
                    next_paths.extend_from_slice(path);
                    next_paths.push(relay);
                    let new_path = &next_paths[start..];
                    let honest = ids[relay_idx * width + i];
                    let lies = faulty.contains(&relay);
                    for (row, &r) in next_ids.chunks_exact_mut(next_width).zip(participants) {
                        let sent = if r == relay {
                            honest
                        } else {
                            let sent = if lies {
                                let v =
                                    adversary.send_value(relay, new_path, r, values.get(honest));
                                values.intern(v, honest)
                            } else {
                                honest
                            };
                            messages += 1;
                            chan.unicast(relay, r, bits, values.get(sent));
                            sent
                        };
                        row[child] = sent;
                    }
                    child += 1;
                }
            }
            std::mem::swap(paths, next_paths);
            std::mem::swap(ids, next_ids);
            width = next_width;
        }

        // Decision: strict-majority resolve, leaves upward, in place in each
        // node's row (a parent's slot lies at or before its first child's).
        // Leaves report the stored value; an internal path takes the strict
        // majority of its children. No strict majority → the protocol-wide
        // default value. (Falling back to the node's own stored value would
        // break agreement: an equivocating source gives every node a
        // different stored value.)
        decided.clear();
        for row in ids.chunks_exact_mut(width) {
            let mut paths_left = width;
            for len in (1..=f).rev() {
                let fan_out = n - len;
                paths_left /= fan_out;
                for parent in 0..paths_left {
                    let children = &row[parent * fan_out..(parent + 1) * fan_out];
                    row[parent] = majority(children).unwrap_or(DEFAULT);
                }
            }
            decided.push(row[0]);
        }
        messages
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the pre-arena oracle keeps its per-node hash trees; it lists each level in arena order, so no result depends on hash order"
)]
pub(crate) mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    /// A channel that logs every logical message it carries.
    #[derive(Default)]
    pub(crate) struct Tap<V>(pub(crate) Vec<(NodeId, NodeId, u64, V)>);

    impl<V: Clone> EigChannel<V> for Tap<V> {
        fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, value: &V) {
            self.0.push((from, to, bits, value.clone()));
        }
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

    /// One EIG broadcast on a fresh workspace, decisions keyed by node.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors Workspace::eig's parameter list"
    )]
    pub(crate) fn run_eig<V, C>(
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
        let mut ws = Workspace::default();
        let messages = ws.eig(
            participants,
            source,
            f,
            input,
            faulty,
            adversary,
            chan,
            bits,
        );
        EigResult {
            decisions: participants
                .iter()
                .copied()
                .zip(ws.decisions().cloned())
                .collect(),
            messages,
        }
    }

    /// The pre-arena implementation, kept as the oracle: per-node hash
    /// trees keyed by claim path, and the recursive resolve over them. Its
    /// only change is that a level's paths are listed in arena order (it
    /// used to take them from the hash map's iteration order).
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors Workspace::eig's parameter list"
    )]
    fn run_eig_oracle<V, C>(
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

    /// Runs arena and oracle side by side on every `(n, f, source, faulty
    /// set)` of the grid and requires identical decisions, message counts,
    /// and wire traffic (every unicast's endpoints, width and value, in
    /// order).
    fn assert_matches_oracle<V, A>(input: V, mut adversary: impl FnMut() -> A)
    where
        V: Clone + Eq + Default + std::fmt::Debug,
        A: EigAdversary<V>,
    {
        for (n, f) in [(4, 1), (5, 1), (6, 1), (7, 1), (7, 2)] {
            // Participant order is not id order: the arena must follow the
            // former.
            let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 2) % n).collect();
            for &source in &parts {
                for faulty in faulty_sets(n, f) {
                    let (mut tap, mut oracle_tap) = (Tap::default(), Tap::default());
                    let got = run_eig(
                        &parts,
                        source,
                        f,
                        input.clone(),
                        &faulty,
                        &mut adversary(),
                        &mut tap,
                        9,
                    );
                    let want = run_eig_oracle(
                        &parts,
                        source,
                        f,
                        input.clone(),
                        &faulty,
                        &mut adversary(),
                        &mut oracle_tap,
                        9,
                    );
                    let case = format!("n={n} f={f} source={source} faulty={faulty:?}");
                    assert_eq!(got.decisions, want.decisions, "{case}");
                    assert_eq!(got.messages, want.messages, "{case}");
                    assert_eq!(got.messages, tap.0.len() as u64, "{case}");
                    assert_eq!(tap.0, oracle_tap.0, "{case}");
                }
            }
        }
    }

    #[test]
    fn arena_matches_hash_tree_oracle_on_u64() {
        assert_matches_oracle(42u64, || Equivocator);
        assert_matches_oracle(42u64, || Flipper);
        assert_matches_oracle(0u64, || HonestAdversary);
        assert_matches_oracle(5u64, || {
            FnAdv(0, |call, s, path: &[NodeId], r, honest: &u64| {
                (honest + call * 7 + (s + r + path.len()) as u64) % 3
            })
        });
    }

    #[test]
    fn arena_matches_hash_tree_oracle_on_non_copy_values() {
        // Strings, and a claims-shaped value (a map of vectors) whose
        // equality is structural, like dispute control's `NodeClaims`.
        assert_matches_oracle("claim".to_string(), || {
            FnAdv(0, |_, _, _: &[NodeId], r, honest: &String| {
                format!("{honest}/{}", r % 2)
            })
        });
        assert_matches_oracle(String::new(), || HonestAdversary);
        type Claims = BTreeMap<NodeId, Vec<u16>>;
        let input: Claims = BTreeMap::from([(0, vec![1, 2, 3]), (2, vec![])]);
        assert_matches_oracle(input.clone(), || {
            FnAdv(0, |call: u64, s, _: &[NodeId], r, honest: &Claims| {
                let mut c = honest.clone();
                if (call + r as u64).is_multiple_of(3) {
                    c.entry(s).or_default().push(r as u16);
                }
                c
            })
        });
        assert_matches_oracle(input, || HonestAdversary);
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
                        let res = run_eig(
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
        let run = || {
            let mut tap = Tap::default();
            run_eig(
                &parts,
                0,
                2,
                1u64,
                &BTreeSet::new(),
                &mut HonestAdversary,
                &mut tap,
                1,
            );
            tap.0
                .iter()
                .map(|&(from, to, _, _)| (from, to))
                .collect::<Vec<_>>()
        };
        let wire = run();
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
        assert_eq!(wire, run());
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
        let res = run_eig(
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
        let res = run_eig(
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
        let res = run_eig(
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
        let res = run_eig(
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
        let res = run_eig(
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
        let res = run_eig(
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
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn too_few_participants_rejected() {
        let parts: Vec<NodeId> = (0..3).collect();
        let _ = run_eig(
            &parts,
            0,
            1,
            0u64,
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
    }

    #[test]
    fn works_with_string_values() {
        // EIG is generic over the value domain — dispute control broadcasts
        // structured claims, not bits.
        let parts: Vec<NodeId> = (0..4).collect();
        let res = run_eig(
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
                let res = run_eig(
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
