//! A synchronous message-passing simulator with per-link capacity/time
//! accounting — the "testbed" for NAB, and since the engine's broadcasts
//! charge hop rounds to a bare clock (`nab_bb::router::RoundSink`), a
//! recorder for tests, traces and probes rather than a production path:
//! it is the sink that, besides advancing a clock, can keep every round.
//!
//! The paper's model (Section 1): a synchronous network where a directed
//! link of capacity `z_e` can carry `z_e · τ` bits in time `τ`, with zero
//! propagation delay. Throughput is bits reliably broadcast per unit time.
//! This crate implements exactly that accounting:
//!
//! - protocols proceed in *rounds*; during a round every node may place
//!   messages on its outgoing links;
//! - when the round is delivered, the simulator charges wall-clock time
//!   `max_e (bits_e / z_e)` — all links transmit in parallel, so a round
//!   lasts as long as its most loaded link (this reproduces the paper's
//!   `L/γ` and `L/ρ` phase costs, see `nab` crate tests);
//! - every delivered round is recorded in a [`Transcript`] (unless
//!   recording is off) — what tests inspect, and what the message-level
//!   timing's test oracle replays;
//! - a caller that evaluates a round on ground truth — links are reliable,
//!   so it already knows what arrives — skips the inboxes and charges the
//!   round directly ([`NetSim::charge_round`]).
//!
//! The simulator carries an arbitrary payload type `M`; Byzantine behavior
//! is produced *above* this layer (faulty nodes simply hand different
//! payloads to [`NetSim::send`]), keeping the fabric itself trustworthy,
//! which mirrors the paper's model where links are reliable and only nodes
//! misbehave.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;

use nab_netgraph::{DiGraph, NodeId};

/// A record of one message as carried by the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentMsg<M> {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Size charged against the link capacity.
    pub bits: u64,
    /// The payload (opaque to the simulator).
    pub payload: M,
}

/// One delivered round: its label and every message it carried.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord<M> {
    /// Protocol-assigned label (e.g. `"phase1/tree0"`).
    pub label: String,
    /// Messages carried, in send order.
    pub sends: Vec<SentMsg<M>>,
    /// Wall-clock duration charged for this round.
    pub duration: f64,
}

/// The full communication transcript of an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript<M> {
    /// Delivered rounds in order.
    pub rounds: Vec<RoundRecord<M>>,
}

impl<M> Default for Transcript<M> {
    fn default() -> Self {
        Transcript { rounds: Vec::new() }
    }
}

impl<M: Clone> Transcript<M> {
    /// Total bits carried across all rounds.
    pub fn total_bits(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| &r.sends)
            .map(|s| s.bits)
            .sum()
    }
}

/// Errors returned by [`NetSim::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The directed link does not exist (or an endpoint was removed).
    NoSuchLink {
        /// Attempted transmitter.
        src: NodeId,
        /// Attempted receiver.
        dst: NodeId,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NoSuchLink { src, dst } => {
                write!(f, "no directed link from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// The synchronous capacitated network simulator.
///
/// # Example
///
/// ```
/// use nab_netgraph::gen;
/// use nab_sim::NetSim;
///
/// let mut net = NetSim::<String>::new(gen::complete(3, 2));
/// net.send(0, 1, 4, "hello".into()).unwrap();
/// net.deliver_round("greeting");
/// assert_eq!(net.take_inbox(1), vec![(0, "hello".to_string())]);
/// // 4 bits over a capacity-2 link: 2 time units.
/// assert_eq!(net.clock(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct NetSim<M> {
    graph: DiGraph,
    clock: f64,
    pending: Vec<SentMsg<M>>,
    inboxes: BTreeMap<NodeId, Vec<(NodeId, M)>>,
    transcript: Transcript<M>,
    record_transcript: bool,
}

impl<M: Clone> NetSim<M> {
    /// Creates a simulator over the given network.
    pub fn new(graph: DiGraph) -> Self {
        NetSim {
            graph,
            clock: 0.0,
            pending: Vec::new(),
            inboxes: BTreeMap::new(),
            transcript: Transcript::default(),
            record_transcript: true,
        }
    }

    /// Disables transcript recording (large-run benches).
    pub fn set_record_transcript(&mut self, on: bool) {
        self.record_transcript = on;
    }

    /// The underlying network graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Elapsed simulated time.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Charges extra wall-clock time not tied to message bits (e.g. an
    /// analytically-computed phase cost).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn charge(&mut self, duration: f64) {
        assert!(duration >= 0.0, "cannot charge negative time");
        self.clock += duration;
    }

    /// Queues a message on the directed link `src → dst` for the current
    /// round.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::NoSuchLink`] if the link is absent. Protocol
    /// layers treat a missing message as a default value per the fault
    /// model, so callers typically propagate this only for fault-free
    /// senders.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bits: u64,
        payload: M,
    ) -> Result<(), SendError> {
        if self.graph.find_edge(src, dst).is_none() {
            return Err(SendError::NoSuchLink { src, dst });
        }
        self.pending.push(SentMsg {
            src,
            dst,
            bits,
            payload,
        });
        Ok(())
    }

    /// Delivers all queued messages, charging `max_e(bits_e / z_e)` time,
    /// and returns the round duration.
    pub fn deliver_round(&mut self, label: &str) -> f64 {
        let mut per_link: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for m in &self.pending {
            *per_link.entry((m.src, m.dst)).or_insert(0) += m.bits;
        }
        let mut duration: f64 = 0.0;
        for ((src, dst), bits) in &per_link {
            #[expect(
                clippy::expect_used,
                reason = "send() verified the link; topology is frozen within a round"
            )]
            let cap = self
                .graph
                .find_edge(*src, *dst)
                .map(|(_, e)| e.cap)
                .expect("link vanished mid-round");
            duration = duration.max(*bits as f64 / cap as f64);
        }
        let sends = std::mem::take(&mut self.pending);
        for m in &sends {
            self.inboxes
                .entry(m.dst)
                .or_default()
                .push((m.src, m.payload.clone()));
        }
        if self.record_transcript {
            self.transcript.rounds.push(RoundRecord {
                label: label.to_string(),
                sends,
                duration,
            });
        }
        self.clock += duration;
        duration
    }

    /// Charges one round evaluated on ground truth: advances the clock by
    /// `duration` — which the caller computed as [`NetSim::deliver_round`]
    /// would, `max_e(bits_e / z_e)` over the round's links — and, only when
    /// the transcript is being recorded, appends the `(label, sends)` that
    /// `record` builds. No inbox is touched: links are reliable, so a caller
    /// that knows the round's sends already knows what every receiver gets.
    pub fn charge_round(
        &mut self,
        duration: f64,
        record: impl FnOnce() -> (String, Vec<SentMsg<M>>),
    ) {
        if self.record_transcript {
            let (label, sends) = record();
            self.transcript.rounds.push(RoundRecord {
                label,
                sends,
                duration,
            });
        }
        self.clock += duration;
    }

    /// Removes and returns the accumulated inbox of `node` as
    /// (sender, payload) pairs in arrival order.
    pub fn take_inbox(&mut self, node: NodeId) -> Vec<(NodeId, M)> {
        self.inboxes.remove(&node).unwrap_or_default()
    }

    /// Peeks at the inbox without draining it.
    pub fn inbox(&self, node: NodeId) -> &[(NodeId, M)] {
        self.inboxes.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The execution transcript so far.
    pub fn transcript(&self) -> &Transcript<M> {
        &self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    /// Per-link load statistics over a transcript, for utilization reports.
    fn link_loads<M: Clone>(t: &Transcript<M>) -> BTreeMap<(NodeId, NodeId), u64> {
        let mut out = BTreeMap::new();
        for r in &t.rounds {
            for s in &r.sends {
                *out.entry((s.src, s.dst)).or_insert(0) += s.bits;
            }
        }
        out
    }

    impl<M: Clone> NetSim<M> {
        /// Resets the clock to zero, keeping graph and transcript.
        fn reset_clock(&mut self) {
            self.clock = 0.0;
        }
    }

    impl<M: Clone> Transcript<M> {
        /// All messages sent by `node`, with round labels.
        fn sent_by(&self, node: NodeId) -> Vec<(&str, &SentMsg<M>)> {
            self.rounds
                .iter()
                .flat_map(|r| {
                    r.sends
                        .iter()
                        .filter(move |s| s.src == node)
                        .map(move |s| (r.label.as_str(), s))
                })
                .collect()
        }

        /// All messages received by `node`, with round labels.
        fn received_by(&self, node: NodeId) -> Vec<(&str, &SentMsg<M>)> {
            self.rounds
                .iter()
                .flat_map(|r| {
                    r.sends
                        .iter()
                        .filter(move |s| s.dst == node)
                        .map(move |s| (r.label.as_str(), s))
                })
                .collect()
        }
    }

    fn net() -> NetSim<u64> {
        NetSim::new(gen::figure_1a())
    }

    #[test]
    fn send_on_missing_link_fails() {
        let mut n = net();
        // Figure 1(a) has no link between ids 1 and 3.
        assert_eq!(
            n.send(1, 3, 8, 0),
            Err(SendError::NoSuchLink { src: 1, dst: 3 })
        );
        assert!(n.send(0, 1, 8, 0).is_ok());
    }

    #[test]
    fn round_duration_is_max_over_links() {
        let mut n = net();
        // (0,1) has cap 2; (0,2) has cap 2; load them unevenly.
        n.send(0, 1, 8, 1).unwrap(); // 4 time units worth
        n.send(0, 2, 2, 2).unwrap(); // 1 time unit worth
        let d = n.deliver_round("r");
        assert_eq!(d, 4.0);
        assert_eq!(n.clock(), 4.0);
    }

    #[test]
    fn multiple_messages_on_one_link_accumulate() {
        let mut n = net();
        n.send(0, 1, 3, 1).unwrap();
        n.send(0, 1, 5, 2).unwrap();
        let d = n.deliver_round("r");
        assert_eq!(d, 4.0); // 8 bits over cap 2
    }

    #[test]
    fn inboxes_deliver_in_order_and_drain() {
        let mut n = net();
        n.send(0, 1, 1, 10).unwrap();
        n.send(0, 1, 1, 20).unwrap();
        n.deliver_round("r");
        assert_eq!(n.inbox(1), &[(0, 10), (0, 20)]);
        assert_eq!(n.take_inbox(1), vec![(0, 10), (0, 20)]);
        assert!(n.take_inbox(1).is_empty());
    }

    #[test]
    fn transcript_records_everything() {
        let mut n = net();
        n.send(0, 1, 2, 7).unwrap();
        n.deliver_round("phase1");
        n.send(1, 2, 1, 9).unwrap();
        n.deliver_round("phase2");
        let t = n.transcript();
        assert_eq!(t.rounds.len(), 2);
        assert_eq!(t.rounds[0].label, "phase1");
        assert_eq!(t.total_bits(), 3);
        assert_eq!(t.sent_by(0).len(), 1);
        assert_eq!(t.received_by(2).len(), 1);
    }

    #[test]
    fn transcript_can_be_disabled() {
        let mut n = net();
        n.set_record_transcript(false);
        n.send(0, 1, 2, 7).unwrap();
        n.deliver_round("r");
        assert!(n.transcript().rounds.is_empty());
        // Delivery still happened.
        assert_eq!(n.inbox(1).len(), 1);
    }

    #[test]
    fn charged_round_matches_a_delivered_one_without_touching_inboxes() {
        let mut sent = net();
        sent.send(0, 1, 8, 1).unwrap();
        sent.send(0, 2, 2, 2).unwrap();
        let d = sent.deliver_round("r");

        let mut charged = net();
        charged.charge_round(d, || {
            let msg = |dst, bits, payload| SentMsg {
                src: 0,
                dst,
                bits,
                payload,
            };
            ("r".to_string(), vec![msg(1, 8, 1), msg(2, 2, 2)])
        });
        assert_eq!(charged.clock().to_bits(), sent.clock().to_bits());
        assert_eq!(charged.transcript(), sent.transcript());
        assert!(charged.inbox(1).is_empty() && charged.inbox(2).is_empty());

        // Not recording: the record is never built.
        charged.set_record_transcript(false);
        #[expect(clippy::unreachable, reason = "the assertion this test makes")]
        charged.charge_round(1.0, || unreachable!("record built while not recording"));
        assert_eq!(charged.transcript().rounds.len(), 1);
        assert_eq!(charged.clock(), d + 1.0);
    }

    #[test]
    fn charge_accumulates_time() {
        let mut n = net();
        n.charge(2.5);
        n.charge(0.5);
        assert_eq!(n.clock(), 3.0);
        n.reset_clock();
        assert_eq!(n.clock(), 0.0);
    }

    #[test]
    fn empty_round_costs_nothing() {
        let mut n = net();
        assert_eq!(n.deliver_round("idle"), 0.0);
    }

    #[test]
    fn link_loads_aggregate() {
        let mut n = net();
        n.send(0, 1, 2, 1).unwrap();
        n.deliver_round("a");
        n.send(0, 1, 3, 2).unwrap();
        n.deliver_round("b");
        let loads = link_loads(n.transcript());
        assert_eq!(loads[&(0, 1)], 5);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_charge_rejected() {
        let mut n = net();
        n.charge(-1.0);
    }
}
