//! One reusable, flat workspace for `Broadcast_Default`.
//!
//! EIG and Phase-King keep their protocol state as `u32` ids into a table
//! of the broadcast's distinct values, so a relayed claim is stored and
//! compared as an integer whatever its size. [`Workspace`] holds that table
//! and every id buffer either protocol needs and keeps their capacity from
//! one broadcast to the next: once it has served a broadcast of a given
//! shape (participant count and `f`), another of that shape allocates
//! nothing. The engine keeps one for its flags.

use nab_netgraph::NodeId;

/// The distinct values of one broadcast. Ids are indices; a value is
/// cloned only when a hook hands back one the table has not seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct ValueTable<V>(Vec<V>);

impl<V: Clone + Eq> ValueTable<V> {
    /// Empties the table and enters `first` as id 0.
    pub(crate) fn reset(&mut self, first: V) {
        self.0.clear();
        self.0.push(first);
    }

    /// Number of distinct values seen so far (ids are `0..len`).
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The value behind `id`.
    pub(crate) fn get(&self, id: u32) -> &V {
        &self.0[id as usize]
    }

    /// The id of `v`, entering it if new. `likely` is the id it most
    /// probably equals (what an honest sender would have sent).
    pub(crate) fn intern(&mut self, v: V, likely: u32) -> u32 {
        if *self.get(likely) == v {
            return likely;
        }
        let known = self.0.iter().position(|x| *x == v);
        known.unwrap_or_else(|| {
            self.0.push(v);
            self.0.len() - 1
        }) as u32
    }
}

/// The reusable state of EIG and Phase-King broadcasts over values `V`.
///
/// Layouts, with `n` participants in participant order:
/// - EIG keeps one level of the claim tree at a time: `paths` holds the
///   level's claim paths back to back, and `ids` is node-major, row `r`
///   holding participant `r`'s value id for every path of the level. The
///   decision resolves each row in place.
/// - Phase-King's round-1 votes are `ids` as an `n × n` receiver-major
///   matrix; `support` counts one receiver's votes per value id, and
///   `proposal` holds every participant's plurality value and its support.
/// - `decided` is every participant's current value id (Phase-King's
///   running values), and its decision once a run returns.
#[derive(Debug, Clone, Default)]
pub struct Workspace<V> {
    pub(crate) values: ValueTable<V>,
    pub(crate) paths: Vec<NodeId>,
    pub(crate) next_paths: Vec<NodeId>,
    pub(crate) ids: Vec<u32>,
    pub(crate) next_ids: Vec<u32>,
    pub(crate) support: Vec<usize>,
    pub(crate) proposal: Vec<(u32, usize)>,
    pub(crate) decided: Vec<u32>,
}

impl<V: Clone + Eq + Default> Workspace<V> {
    /// Every participant's decision of the last run, in participant order.
    pub fn decisions(&self) -> impl ExactSizeIterator<Item = &V> + '_ {
        self.decided.iter().map(|&id| self.values.get(id))
    }

    /// Moves the `i`-th participant's decision out and empties the value
    /// table, so a shared value (an `Arc`) loses every holder in here.
    ///
    /// # Panics
    ///
    /// Panics if the last run had at most `i` participants, or its value
    /// table was already emptied.
    pub fn take_decision(&mut self, i: usize) -> V {
        let decision = std::mem::take(&mut self.values.0[self.decided[i] as usize]);
        self.values.0.clear();
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::tests::{faulty_sets, run_eig, Tap};
    use crate::eig::{EigAdversary, HonestAdversary, IdealChannel};
    use crate::phaseking::tests::run_phase_king;
    use crate::phaseking::{PkAdversary, PkHonest};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Lies with values that depend on sender and receiver, so faulty
    /// nodes grow the value table.
    struct Skew;

    impl EigAdversary<u64> for Skew {
        fn send_value(&mut self, s: NodeId, _: &[NodeId], r: NodeId, honest: &u64) -> u64 {
            honest + (s * 10 + r) as u64 % 3
        }
    }

    impl PkAdversary<u64> for Skew {
        fn value(&mut self, s: NodeId, _: usize, _: usize, r: NodeId, honest: &u64) -> u64 {
            honest + (s * 10 + r) as u64 % 3
        }
    }

    /// One workspace serving broadcasts of every shape in turn — `n` and
    /// `f` growing and shrinking, both protocols, every source, liars and
    /// not — decides, counts and sends exactly what a fresh one does.
    #[test]
    fn a_reused_workspace_matches_a_fresh_one_across_shapes() {
        let mut ws = Workspace::default();
        for (n, f) in [(7, 2), (4, 1), (9, 2), (5, 1), (2, 0), (6, 1), (7, 1)] {
            let parts: Vec<NodeId> = (0..n).rev().map(|i| (i + 3) % n).collect();
            for &source in &parts {
                for faulty in faulty_sets(n, f).iter().step_by(3) {
                    let input = source as u64 + 1;
                    let case = format!("n={n} f={f} source={source} faulty={faulty:?}");
                    let (mut tap, mut fresh_tap) = (Tap::default(), Tap::default());
                    let messages = ws.eig(&parts, source, f, input, faulty, &mut Skew, &mut tap, 3);
                    let fresh = run_eig(
                        &parts,
                        source,
                        f,
                        input,
                        faulty,
                        &mut Skew,
                        &mut fresh_tap,
                        3,
                    );
                    let want: Vec<u64> = parts.iter().map(|p| fresh.decisions[p]).collect();
                    assert!(ws.decisions().eq(&want), "EIG {case}");
                    assert_eq!(messages, fresh.messages, "EIG {case}");
                    assert_eq!(tap.0, fresh_tap.0, "EIG {case}");
                    if n <= 4 * f {
                        continue;
                    }
                    let (mut tap, mut fresh_tap) = (Tap::default(), Tap::default());
                    let messages =
                        ws.phase_king(&parts, source, f, input, faulty, &mut Skew, &mut tap, 3);
                    let fresh = run_phase_king(
                        &parts,
                        source,
                        f,
                        input,
                        faulty,
                        &mut Skew,
                        &mut fresh_tap,
                        3,
                    );
                    let want: Vec<u64> = parts.iter().map(|p| fresh.decisions[p]).collect();
                    assert!(ws.decisions().eq(&want), "phase-king {case}");
                    assert_eq!(messages, fresh.messages, "phase-king {case}");
                    assert_eq!(tap.0, fresh_tap.0, "phase-king {case}");
                }
            }
        }
    }

    /// Every buffer's address and capacity, the value table's included,
    /// sorted: EIG swaps its current and next level from run to run.
    fn buffers(ws: &Workspace<u64>) -> Vec<(*const (), usize)> {
        fn at<T>(b: &Vec<T>) -> (*const (), usize) {
            (b.as_ptr().cast(), b.capacity())
        }
        let mut out = vec![
            at(&ws.values.0),
            at(&ws.paths),
            at(&ws.next_paths),
            at(&ws.ids),
            at(&ws.next_ids),
            at(&ws.support),
            at(&ws.proposal),
            at(&ws.decided),
        ];
        out.sort_unstable();
        out
    }

    /// The engine's case: once a workspace has served one broadcast from
    /// every source of a shape, the rest of a phase and every later
    /// instance — flags of either value — run in the same buffers, never
    /// reallocated.
    #[test]
    fn a_warm_workspace_never_reallocates() {
        let none = BTreeSet::new();
        for (n, f) in [(4, 1), (7, 1), (7, 2), (9, 2)] {
            let parts: Vec<NodeId> = (0..n).collect();
            let mut ws = Workspace::default();
            let run = |ws: &mut Workspace<u64>, source, flag| {
                ws.eig(
                    &parts,
                    source,
                    f,
                    flag,
                    &none,
                    &mut HonestAdversary,
                    &mut IdealChannel,
                    1,
                );
                if n > 4 * f {
                    ws.phase_king(
                        &parts,
                        source,
                        f,
                        flag,
                        &none,
                        &mut PkHonest,
                        &mut IdealChannel,
                        1,
                    );
                }
            };
            for source in 0..n {
                run(&mut ws, source, 1);
            }
            let warm = buffers(&ws);
            for i in 0..5 * n {
                run(&mut ws, i % n, (i / n % 2) as u64);
                assert_eq!(buffers(&ws), warm, "n={n} f={f} broadcast {i}");
            }
        }
    }

    /// `take_decision` leaves the taken value with no other holder, so the
    /// dispute-control claims it carries unwrap without a copy.
    #[test]
    fn a_taken_decision_is_its_only_holder() {
        let parts: Vec<NodeId> = (0..5).collect();
        let input = Arc::new(vec![7u16; 64]);
        let mut ws = Workspace::default();
        ws.eig(
            &parts,
            2,
            1,
            Arc::clone(&input),
            &BTreeSet::new(),
            &mut HonestAdversary,
            &mut IdealChannel,
            1,
        );
        assert!(ws.decisions().all(|d| Arc::ptr_eq(d, &input)));
        drop(input);
        let taken = ws.take_decision(4);
        assert_eq!(Arc::strong_count(&taken), 1);
        assert_eq!(*taken, vec![7u16; 64]);
        assert_eq!(ws.values.len(), 0);
    }
}
