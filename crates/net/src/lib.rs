//! Deterministic discrete-event network timing kernel.
//!
//! The synchronous engine in `nab` charges phases by formula
//! (`max_e bits_e / cap_e` per round); this crate times the same message
//! sets on an *event-driven* link model so that sweeps can report
//! delivered-time **distributions** under WAN latency, jitter,
//! stragglers, and lossy links — not just steady-state rates. Nothing is
//! recorded and replayed: the engine hands a kernel each barrier round's
//! sends (sizes only) as the round happens. A round whose messages share
//! links goes through the event queue; a round that gives each message a
//! link of its own is served in closed form by [`EventNet::serve_exclusive`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** Every sampled quantity (jitter, loss) is derived
//!    by hash-mixing `(seed, link, per-link attempt counter)` — never
//!    from wall-clock or from a shared RNG consumed in pop order. Two
//!    runs with the same seed and the same *multiset* of scheduled
//!    messages produce the same delivery schedule, regardless of the
//!    order in which messages were inserted or which worker thread runs
//!    the simulation.
//! 2. **Reproducible tie-breaking.** The event queue is a binary heap
//!    keyed by `(time_ns, link, bits, id, seq)`, links numbered in
//!    `(src, dst)` order: simultaneous
//!    events pop in a canonical content order, with the insertion
//!    sequence number only breaking ties between fully identical
//!    (hence interchangeable) messages.
//! 3. **Formula compatibility.** With the zero model ([`LinkModel::zero`];
//!    zero latency, no loss) the completion time of a batch of messages
//!    on a link equals `total_bits / cap` — identical to the synchronous
//!    round charge, so the message-level path cross-checks against the
//!    formula path to within integer-nanosecond rounding.
//!
//! Times are in virtual nanoseconds; [`UNIT_NS`] nanoseconds equal one
//! abstract capacity time-unit (the time a `cap = 1` link needs for one
//! bit), which is the unit the formula path reports.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use nab_netgraph::{DiGraph, EdgeId, NodeId};

/// Virtual nanoseconds per abstract capacity time-unit (one bit on a
/// `cap = 1` link). Event times divided by `UNIT_NS` are in the same
/// unit as the formula path's `PhaseTimes`.
pub const UNIT_NS: u64 = 1_000_000;

/// SplitMix64-style mixer; same constants as the sweep runner's per-job
/// seed derivation, so net randomness composes with the existing
/// seed-mixing discipline.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`mix`]'s multiplier: `mix(a, b)` is `mix(a ^ b · GOLDEN, 0)`.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps a mixed 64-bit draw onto the unit interval `[0, 1)`.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Propagation-delay model of one directed link.
#[derive(Debug, Clone, PartialEq)]
pub enum Latency {
    /// Constant propagation delay.
    Fixed {
        /// Delay in virtual nanoseconds.
        delay_ns: u64,
    },
    /// `base + U[0, jitter]` uniform jitter.
    Uniform {
        /// Minimum delay in virtual nanoseconds.
        base_ns: u64,
        /// Width of the uniform jitter band in virtual nanoseconds.
        jitter_ns: u64,
    },
    /// Log-normal delay: `median · exp(sigma · z)` with `z` standard
    /// normal (clamped to `[-4, 4]` to bound the tail).
    LogNormal {
        /// Median delay in virtual nanoseconds.
        median_ns: u64,
        /// Shape parameter σ of the underlying normal.
        sigma: f64,
    },
}

impl Latency {
    /// Samples a delay from `draw` (a mixed 64-bit value); inlined across
    /// crates, as an exclusive round calls it once per delivery.
    #[inline]
    #[must_use]
    pub fn sample_ns(&self, draw: u64) -> u64 {
        match *self {
            Latency::Fixed { delay_ns } => delay_ns,
            Latency::Uniform { base_ns, jitter_ns } => {
                // `x.round() as u64` without a libm call: below 2^52, `x - i` is
                // exact; from 2^52 up, every f64 is whole.
                let x = unit_f64(draw) * jitter_ns as f64;
                base_ns.saturating_add(if x < (1u64 << 52) as f64 {
                    let i = x as i64;
                    (i + i64::from(x - i as f64 >= 0.5)) as u64
                } else {
                    x as u64
                })
            }
            Latency::LogNormal { median_ns, sigma } => {
                // Box-Muller from two sub-draws of the same 64-bit seed.
                let u1 = unit_f64(mix(draw, 1)).max(f64::MIN_POSITIVE);
                let u2 = unit_f64(mix(draw, 2));
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let z = z.clamp(-4.0, 4.0);
                (median_ns as f64 * (sigma * z).exp()).round() as u64
            }
        }
    }

    /// Scales every delay parameter by `factor` (straggler links).
    #[must_use]
    pub fn scaled(&self, factor: u64) -> Latency {
        match *self {
            Latency::Fixed { delay_ns } => Latency::Fixed {
                delay_ns: delay_ns.saturating_mul(factor),
            },
            Latency::Uniform { base_ns, jitter_ns } => Latency::Uniform {
                base_ns: base_ns.saturating_mul(factor),
                jitter_ns: jitter_ns.saturating_mul(factor),
            },
            Latency::LogNormal { median_ns, sigma } => Latency::LogNormal {
                median_ns: median_ns.saturating_mul(factor),
                sigma,
            },
        }
    }
}

/// I.i.d. per-attempt loss with bounded retransmit.
///
/// A lost attempt occupies the link for its full serialization time,
/// then the sender retransmits `rto_ns` later. After `max_retries`
/// failed attempts the final attempt always succeeds: links here model
/// *degraded timing*, not Byzantine drops — the protocol's correctness
/// argument assumes reliable links, so loss shifts delivered-time
/// distributions rightward without ever losing a message. This is also
/// what guarantees the simulation terminates for every seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Loss {
    /// Per-attempt loss probability in `[0, 1]`.
    pub p: f64,
    /// Failed attempts allowed before the reliable final attempt.
    pub max_retries: u32,
    /// Retransmit timeout in virtual nanoseconds.
    pub rto_ns: u64,
}

/// Full per-link model: propagation delay plus optional loss.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Propagation-delay model.
    pub latency: Latency,
    /// Loss model; `None` means a lossless link.
    pub loss: Option<Loss>,
}

impl LinkModel {
    /// Zero latency, no loss: event timing degenerates to the
    /// synchronous formula charge.
    #[must_use]
    pub fn zero() -> Self {
        LinkModel {
            latency: Latency::Fixed { delay_ns: 0 },
            loss: None,
        }
    }
}

/// Link models for a whole network: a default plus per-link overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Model for every link without an override.
    pub default: LinkModel,
    /// Per-directed-link overrides.
    pub overrides: BTreeMap<(NodeId, NodeId), LinkModel>,
}

impl NetModel {
    /// A uniform model for every link.
    #[must_use]
    pub fn uniform(link: LinkModel) -> Self {
        NetModel {
            default: link,
            overrides: BTreeMap::new(),
        }
    }

    /// The model governing the directed link `src → dst`.
    #[must_use]
    pub fn link(&self, src: NodeId, dst: NodeId) -> &LinkModel {
        self.overrides.get(&(src, dst)).unwrap_or(&self.default)
    }
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::uniform(LinkModel::zero())
    }
}

/// One completed delivery, as reported by [`EventNet::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Caller-assigned message id (e.g. arborescence index).
    pub id: u64,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Message size in bits.
    pub bits: u64,
    /// Time the message was scheduled.
    pub sent_ns: u64,
    /// Time the last bit arrived at `dst`.
    pub delivered_ns: u64,
    /// Transmission attempts taken (1 = no loss).
    pub attempts: u32,
}

/// A pending transmission attempt in the event queue.
///
/// Derived `Ord` gives the canonical pop order
/// `(time, link, bits, id, seq, attempt)`, and links are numbered in
/// `(src, dst)` order, so this is `(time, src, dst, bits, …)`: content keys
/// first, the insertion sequence number only separating
/// otherwise-identical (interchangeable) messages, so the delivery
/// *schedule* is invariant under insertion-order permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Attempt {
    time_ns: u64,
    link: u32,
    bits: u64,
    id: u64,
    seq: u64,
    attempt: u32,
}

/// One directed link, stored at its graph edge id: what a delivery reads
/// (stream key, capacity, model, last exclusive round), then the queue's
/// state. An edge id the graph has no link for holds `cap` 0.
#[derive(Debug, Clone, Default)]
struct Link {
    /// `((src << 32) ^ dst) · GOLDEN`, so the link's stream under `seed`,
    /// `mix(seed ^ key, 0)`, is `mix(seed, (src << 32) ^ dst)`.
    key: u64,
    cap: u64,
    /// Index of the governing model in [`EventNet::models`].
    model: u32,
    /// The last exclusive round that used the link.
    round: u64,
    /// When the link finishes the last transmission queued on it.
    busy_ns: u64,
    /// Draws taken so far, in this link's deterministic pop order.
    draws: u64,
}

impl Link {
    /// Next draw of the queue's pop order: the `c`-th is `mix(stream, c)`.
    fn draw(&mut self, seed: u64) -> u64 {
        self.draws += 1;
        mix(mix(seed ^ self.key, 0), self.draws - 1)
    }

    /// Serialization time of `bits` on the link.
    fn transmit_ns(&self, bits: u64) -> u64 {
        bits.saturating_mul(UNIT_NS).div_ceil(self.cap)
    }
}

/// Work a kernel has done since it was built. Observability only: nothing
/// here feeds back into a schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Queue drains and exclusive rounds that carried at least one message.
    pub rounds: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Lost attempts that were retransmitted.
    pub retransmits: u64,
}

impl KernelStats {
    /// Adds another kernel's (or job's) counters.
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.rounds += other.rounds;
        self.deliveries += other.deliveries;
        self.retransmits += other.retransmits;
    }
}

/// Deterministic discrete-event simulator over one capacitated graph.
///
/// [`schedule`](EventNet::schedule) enqueues messages;
/// [`drain`](EventNet::drain) (or [`run`](EventNet::run), which collects
/// and sorts) empties the event heap, applying FIFO link serialization
/// (`bits / cap`, virtual-ns), sampled propagation delay, and bounded
/// retransmit on loss.
///
/// [`serve_exclusive`](EventNet::serve_exclusive) serves one
/// barrier-synchronized round with at most one message per link in closed
/// form, and one kernel serves any number of them: it neither reads nor
/// changes the queue's state. Each link is one record at its graph edge
/// id, which an exclusive round's send names; a queued message finds its
/// link by binary search on the `(src, dst)` order.
#[derive(Debug, Clone)]
pub struct EventNet {
    /// The link of each of the graph's edge ids.
    links: Vec<Link>,
    /// Each live link's `(src, dst, edge id)`, sorted: a queued message
    /// names its link by its index here.
    order: Vec<(NodeId, NodeId, u32)>,
    /// The default model, then each override that governs a link of the graph.
    models: Vec<LinkModel>,
    seed: u64,
    heap: BinaryHeap<Reverse<Attempt>>,
    seq: u64,
    clock_ns: u64,
    /// Exclusive rounds served so far: the stamp of the current one.
    round: u64,
    stats: KernelStats,
}

impl EventNet {
    /// A simulator over `g`'s links under `model`, with all randomness
    /// derived from `seed`.
    #[must_use]
    pub fn new(g: &DiGraph, model: NetModel, seed: u64) -> Self {
        let NetModel { default, overrides } = model;
        let mut models = vec![default];
        let mut links = vec![Link::default(); g.edges().last().map_or(0, |(id, _)| id + 1)];
        for (id, e) in g.edges() {
            links[id] = Link {
                key: (((e.src as u64) << 32) ^ e.dst as u64).wrapping_mul(GOLDEN),
                cap: e.cap,
                model: overrides.get(&(e.src, e.dst)).map_or(0, |m| {
                    models.push(m.clone());
                    models.len() as u32 - 1
                }),
                ..Link::default()
            };
        }
        // The network is a simple graph: one link per ordered pair.
        let mut order: Vec<_> = g.edges().map(|(id, e)| (e.src, e.dst, id as u32)).collect();
        order.sort_unstable();
        EventNet {
            links,
            order,
            models,
            seed,
            heap: BinaryHeap::new(),
            seq: 0,
            clock_ns: 0,
            round: 0,
            stats: KernelStats::default(),
        }
    }

    /// Enqueues a message of `bits` bits on `src → dst` at `at_ns`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no `src → dst` link: a send on a missing link
    /// is a protocol-layer bug, mirroring `nab_sim::SendError::NoSuchLink`.
    pub fn schedule(&mut self, id: u64, src: NodeId, dst: NodeId, bits: u64, at_ns: u64) {
        let link = match (self.order).binary_search_by_key(&(src, dst), |&(s, d, _)| (s, d)) {
            Ok(at) => at as u32,
            #[expect(
                clippy::panic,
                reason = "the documented panic — a send on a missing link is a protocol-layer bug"
            )]
            Err(_) => panic!("EventNet: no such link {src} -> {dst}"),
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Attempt {
            time_ns: at_ns,
            link,
            bits,
            id,
            seq,
            attempt: 1,
        }));
    }

    /// Drains the event queue, handing each delivery to `on_delivery` as
    /// it completes — in pop order, which is deterministic but not sorted
    /// by delivery time.
    pub fn drain(&mut self, mut on_delivery: impl FnMut(Delivery)) {
        self.stats.rounds += u64::from(!self.heap.is_empty());
        while let Some(Reverse(ev)) = self.heap.pop() {
            let (src, dst, edge) = self.order[ev.link as usize];
            let link = &mut self.links[edge as usize];
            let start = ev.time_ns.max(link.busy_ns);
            let tx_end = start.saturating_add(link.transmit_ns(ev.bits));
            link.busy_ns = tx_end;

            let model = &self.models[link.model as usize];
            if let Some(loss) = &model.loss {
                if ev.attempt <= loss.max_retries && unit_f64(link.draw(self.seed)) < loss.p {
                    let seq = self.seq;
                    self.seq += 1;
                    self.stats.retransmits += 1;
                    self.heap.push(Reverse(Attempt {
                        time_ns: tx_end.saturating_add(loss.rto_ns),
                        attempt: ev.attempt + 1,
                        seq,
                        ..ev
                    }));
                    continue;
                }
            }
            let latency_ns = model.latency.sample_ns(link.draw(self.seed));
            let delivered_ns = tx_end.saturating_add(latency_ns);
            self.clock_ns = self.clock_ns.max(delivered_ns);
            self.stats.deliveries += 1;
            on_delivery(Delivery {
                id: ev.id,
                src,
                dst,
                bits: ev.bits,
                sent_ns: ev.time_ns,
                delivered_ns,
                attempts: ev.attempt,
            });
        }
    }

    /// Drains the event queue, returning every delivery sorted by
    /// `(delivered_ns, src, dst, id)`.
    pub fn run(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.drain(|d| out.push(d));
        out.sort_by_key(|d| (d.delivered_ns, d.src, d.dst, d.id));
        out
    }

    /// Serves one barrier round of messages `(edge, bits)` that all start at
    /// time 0, each on a link of its own, in closed form: hands every
    /// delivery time to `on_delivery` and returns the latest (0 if none). An
    /// `edge` is an id of the graph the kernel was built on, and indexes
    /// the link's record directly. As no transmission waits on another and
    /// each link's draws count from 0 under `seed`, a delivery is `tx =
    /// ⌈bits · UNIT_NS / cap⌉`, plus `rto + tx` per lost attempt (one loss
    /// draw per attempt up to `max_retries`), plus one latency draw: what a
    /// kernel built with `seed` delivers through
    /// [`schedule`](EventNet::schedule) and [`drain`](EventNet::drain),
    /// stats included, but with no heap. The queue's state is neither read
    /// nor changed.
    ///
    /// # Panics
    ///
    /// Panics on an edge id the graph has no link for, or on a link the
    /// round uses twice (the closed form would not hold).
    pub fn serve_exclusive(
        &mut self,
        seed: u64,
        sends: impl IntoIterator<Item = (EdgeId, u64)>,
        mut on_delivery: impl FnMut(u64),
    ) -> u64 {
        self.round += 1;
        let (mut end_ns, mut served) = (0, 0);
        for (edge, bits) in sends {
            #[expect(
                clippy::panic,
                reason = "the documented panic — a send on a missing link is a protocol-layer bug"
            )]
            let link = match self.links.get_mut(edge) {
                Some(l) if l.cap != 0 => l,
                _ => panic!("EventNet: no such link: edge {edge}"),
            };
            #[expect(
                clippy::panic,
                reason = "the documented panic — two messages on one link break the closed form"
            )]
            if link.round == self.round {
                panic!("EventNet::serve_exclusive: edge {edge} repeats within the round");
            }
            link.round = self.round;
            let (model, stream) = (&self.models[link.model as usize], mix(seed ^ link.key, 0));
            let (tx, mut c) = (link.transmit_ns(bits), 0);
            let mut delivered_ns = tx;
            if let Some(loss) = &model.loss {
                let tries = u64::from(loss.max_retries);
                while c < tries && unit_f64(mix(stream, c)) < loss.p {
                    c += 1;
                    delivered_ns = delivered_ns.saturating_add(loss.rto_ns).saturating_add(tx);
                }
                self.stats.retransmits += c;
                // Below the cap, the draw that ended the loop was taken too.
                c += u64::from(c < tries);
            }
            delivered_ns = delivered_ns.saturating_add(model.latency.sample_ns(mix(stream, c)));
            end_ns = end_ns.max(delivered_ns);
            served += 1;
            on_delivery(delivered_ns);
        }
        self.stats.deliveries += served;
        self.stats.rounds += u64::from(served > 0);
        end_ns
    }

    /// Global virtual clock of the queue: its latest delivery so far.
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Rounds, deliveries and retransmits since the kernel was built.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

/// A network's link models as a scenario describes them: one latency
/// model and an optional loss model for every link, and an optional
/// straggler link whose latency is scaled. A scenario writes it in its
/// `link_model` key (`nab_scenario::link_model` holds that grammar).
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Default latency model for every link.
    pub latency: Latency,
    /// Optional loss model applied to every link.
    pub loss: Option<Loss>,
    /// Optional straggler override: `(src, dst, latency factor)`.
    pub straggler: Option<(NodeId, NodeId, u64)>,
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            latency: Latency::Fixed { delay_ns: 0 },
            loss: None,
            straggler: None,
        }
    }
}

impl NetSpec {
    /// Resolves the spec into a concrete [`NetModel`].
    #[must_use]
    pub fn build(&self) -> NetModel {
        let default = LinkModel {
            latency: self.latency.clone(),
            loss: self.loss.clone(),
        };
        let mut model = NetModel::uniform(default.clone());
        if let Some((src, dst, factor)) = self.straggler {
            model.overrides.insert(
                (src, dst),
                LinkModel {
                    latency: default.latency.scaled(factor),
                    loss: default.loss,
                },
            );
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, cap: u64) -> DiGraph {
        let mut g = DiGraph::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, cap);
            g.add_edge(v + 1, v, cap);
        }
        g
    }

    #[test]
    fn zero_model_matches_formula_charge() {
        // Three messages totalling 12 bits on a cap-2 link: the last
        // completes at 12/2 = 6 units, exactly the round formula.
        let g = line(2, 2);
        let mut net = EventNet::new(&g, NetModel::default(), 7);
        net.schedule(0, 0, 1, 4, 0);
        net.schedule(1, 0, 1, 4, 0);
        net.schedule(2, 0, 1, 4, 0);
        let deliveries = net.run();
        assert_eq!(deliveries.len(), 3);
        assert_eq!(deliveries.last().unwrap().delivered_ns, 6 * UNIT_NS);
        assert_eq!(net.clock_ns(), 6 * UNIT_NS);
    }

    #[test]
    fn fixed_latency_shifts_every_delivery() {
        let g = line(2, 1);
        let model = NetModel::uniform(LinkModel {
            latency: Latency::Fixed { delay_ns: 500 },
            loss: None,
        });
        let mut net = EventNet::new(&g, model, 7);
        net.schedule(0, 0, 1, 2, 0);
        let d = net.run();
        assert_eq!(d[0].delivered_ns, 2 * UNIT_NS + 500);
    }

    #[test]
    fn ties_pop_in_canonical_content_order() {
        // Two same-time messages on the same link: the smaller id
        // serializes first regardless of insertion order.
        let g = line(2, 1);
        for flip in [false, true] {
            let mut net = EventNet::new(&g, NetModel::default(), 7);
            let ids: [u64; 2] = if flip { [1, 0] } else { [0, 1] };
            for id in ids {
                net.schedule(id, 0, 1, 1, 0);
            }
            let d = net.run();
            assert_eq!((d[0].id, d[0].delivered_ns), (0, UNIT_NS));
            assert_eq!((d[1].id, d[1].delivered_ns), (1, 2 * UNIT_NS));
        }
    }

    #[test]
    fn loss_retransmits_are_bounded_and_terminate() {
        let g = line(2, 1);
        let model = NetModel::uniform(LinkModel {
            latency: Latency::Fixed { delay_ns: 0 },
            loss: Some(Loss {
                p: 1.0,
                max_retries: 3,
                rto_ns: 10,
            }),
        });
        let mut net = EventNet::new(&g, model, 7);
        net.schedule(0, 0, 1, 1, 0);
        let d = net.run();
        assert_eq!(d.len(), 1, "the reliable final attempt always delivers");
        assert_eq!(d[0].attempts, 4);
        // 4 serializations of 1 unit each + 3 RTOs of 10 ns.
        assert_eq!(d[0].delivered_ns, 4 * UNIT_NS + 30);
    }

    #[test]
    fn same_seed_same_schedule() {
        let g = line(3, 2);
        let model = NetModel::uniform(LinkModel {
            latency: Latency::Uniform {
                base_ns: 100,
                jitter_ns: 400,
            },
            loss: Some(Loss {
                p: 0.3,
                max_retries: 2,
                rto_ns: 50,
            }),
        });
        let run = |seed| {
            let mut net = EventNet::new(&g, model.clone(), seed);
            for (id, (s, t)) in [(0, 1), (1, 2), (1, 0), (2, 1)].iter().enumerate() {
                net.schedule(id as u64, *s, *t, 3, 0);
            }
            net.run()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "seed feeds through to the schedule");
    }

    #[test]
    fn lognormal_sampling_is_deterministic_and_positive() {
        let lat = Latency::LogNormal {
            median_ns: 1_000_000,
            sigma: 0.5,
        };
        let a = lat.sample_ns(mix(1, 2));
        assert_eq!(a, lat.sample_ns(mix(1, 2)));
        // σ·z clamped to [-2, 2]: within e^±2 of the median.
        assert!(
            (135_335..=7_389_057).contains(&a),
            "sample {a} out of range"
        );
    }

    /// `Latency::Uniform` rounds `x = unit_f64(draw) · jitter` exactly as
    /// `x.round() as u64` does: at `k + 0.5` and the f64 just below it, on
    /// either side of 2^52 and 2^53, and at a million random draws and
    /// jitters up to `u64::MAX`.
    #[test]
    fn uniform_latency_rounds_as_f64_round() {
        let sample = |draw: u64, jitter_ns: u64| {
            let want = 5u64.saturating_add((unit_f64(draw) * jitter_ns as f64).round() as u64);
            let uniform = Latency::Uniform {
                base_ns: 5,
                jitter_ns,
            };
            assert_eq!(
                uniform.sample_ns(draw),
                want,
                "draw {draw:#x}, jitter {jitter_ns}"
            );
        };
        // Every f64 `x` in `[2^e, 2^(e+1))` is `unit_f64(m << 11) · 2^(e+1)`
        // with `m = x · 2^(52-e) < 2^53`; below 1, `m = x · 2^53` when whole.
        // A jitter of 2^64 is `u64::MAX`, which converts to it.
        let at = |x: f64| {
            let e = (((x.to_bits() >> 52) as i32) - 1023).max(-1);
            let m = x * 2f64.powi(52 - e);
            assert!(m.fract() == 0.0 && m < 2f64.powi(53), "{x} is no draw");
            let jitter = (1u128 << (e + 1)).min(u64::MAX.into()) as u64;
            let draw = (m as u64) << 11;
            assert_eq!(unit_f64(draw) * jitter as f64, x);
            sample(draw, jitter);
        };
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for k in [1u64, 2, 3, 7, 1_000, (1 << 20) + 7, (1 << 51) - 1] {
            let x = k as f64 + 0.5;
            for x in [x, below(x), k as f64, below(k as f64)] {
                at(x);
            }
        }
        for x in [0.0, 0.25, 0.5, 0.5 - 2f64.powi(-53), 0.75] {
            at(x);
        }
        for e in [52, 53, 63] {
            let x = 2f64.powi(e);
            for x in [below(x), x, below(x) - 1.0, x + 2.0 * (x - below(x))] {
                at(x);
            }
        }
        for i in 0..1_000_000u64 {
            let jitter = match i % 8 {
                0 => u64::MAX,
                _ => mix(i, 2) >> (i % 64),
            };
            sample(mix(i, 1), jitter);
        }
    }

    #[test]
    fn straggler_override_scales_one_link() {
        let spec = NetSpec {
            latency: Latency::Fixed { delay_ns: 100 },
            straggler: Some((0, 1, 20)),
            ..NetSpec::default()
        };
        let model = spec.build();
        assert_eq!(model.link(0, 1).latency, Latency::Fixed { delay_ns: 2000 });
        assert_eq!(model.link(1, 0).latency, Latency::Fixed { delay_ns: 100 });
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn sends_on_a_missing_link_panic() {
        // Ids 0 and 1 are `0 <-> 1`, which leaves with node 0; `1 -> 2` is 2.
        let mut g = line(4, 1);
        g.remove_node(0);
        let mut net = EventNet::new(&g, NetModel::default(), 1);
        // Fresh, and again once the kernel has served a round of each kind:
        // a link the graph lacks, a removed node's link, and a source the
        // graph lacks; by edge id, a removed link's and ids past the last.
        for round in 0..2 {
            for ((src, dst), edge) in [((1, 3), 0), ((0, 1), 6), ((7, 1), usize::MAX)] {
                assert!(
                    panics(|| net.schedule(0, src, dst, 1, 0)),
                    "{round}: {src} -> {dst}"
                );
                let send = [(2, 1), (edge, 1)];
                assert!(
                    panics(|| {
                        net.serve_exclusive(round, send, |_| {});
                    }),
                    "{round}: edge {edge}"
                );
            }
            net.schedule(0, 1, 2, 1, 0);
            assert_eq!(net.run().len(), 1);
            assert_eq!(net.serve_exclusive(round, [(2, 1)], |_| {}), UNIT_NS);
        }
    }

    #[test]
    fn a_link_repeated_within_an_exclusive_round_panics() {
        let g = line(3, 1);
        let mut net = EventNet::new(&g, NetModel::default(), 1);
        // Edge 0 is `0 -> 1`, edge 2 is `1 -> 2`.
        let twice = [(0, 1), (2, 1), (0, 1)];
        assert!(panics(|| {
            net.serve_exclusive(3, twice, |_| {});
        }));
        // Rounds are separate: the same link in consecutive rounds is fine.
        for _ in 0..2 {
            assert_eq!(net.serve_exclusive(3, [(0, 2)], |_| {}), 2 * UNIT_NS);
        }
    }

    /// A 5-node network with every ordered pair linked, capacities 1..=4,
    /// its edge ids running against the kernel's `(src, dst)` link order.
    fn dense5() -> DiGraph {
        let mut g = DiGraph::new(5);
        for u in (0..5).rev() {
            for v in (0..5).rev() {
                if u != v {
                    g.add_edge(u, v, 1 + ((u * 5 + v) % 4) as u64);
                }
            }
        }
        g
    }

    /// `dense5`'s pattern on six nodes with node `gone` removed: the 20 live
    /// links' edge ids are sparse among 30 and run against `(src, dst)` order.
    fn sparse6(gone: NodeId) -> DiGraph {
        let mut g = DiGraph::new(6);
        for u in (0..6).rev() {
            for v in (0..6).rev() {
                if u != v {
                    g.add_edge(u, v, 1 + ((u * 6 + v) % 4) as u64);
                }
            }
        }
        g.remove_node(gone);
        g
    }

    /// The three regimes a round can run under — jitter alone, loss with
    /// retransmit, and a heavy tail with loss plus a straggler override —
    /// then every attempt lost, at 0 and at 16 retries.
    fn regime(kind: u8) -> NetModel {
        let loss = |p, max_retries, rto_ns| {
            Some(Loss {
                p,
                max_retries,
                rto_ns,
            })
        };
        let spec = match kind {
            0 => NetSpec {
                latency: Latency::Uniform {
                    base_ns: 1000,
                    jitter_ns: 4000,
                },
                ..NetSpec::default()
            },
            1 => NetSpec {
                latency: Latency::Fixed { delay_ns: 700 },
                loss: loss(0.4, 3, 900),
                straggler: None,
            },
            2 => NetSpec {
                latency: Latency::LogNormal {
                    median_ns: 2000,
                    sigma: 0.5,
                },
                loss: loss(0.3, 2, 500),
                straggler: Some((0, 1, 16)),
            },
            _ => NetSpec {
                latency: Latency::Uniform {
                    base_ns: 300,
                    jitter_ns: 600,
                },
                loss: loss(1.0, if kind == 3 { 0 } else { 16 }, 1100),
                straggler: None,
            },
        };
        spec.build()
    }

    /// An exclusive round on `dense5`: one message `(edge, bits)` on each of
    /// the 20 edge ids whose bit is set in `links`, sizes derived from
    /// `seed`, sent in a seed-dependent order.
    fn exclusive_round(seed: u64, links: u32) -> Vec<(EdgeId, u64)> {
        let mut sends: Vec<_> = (0..20)
            .filter(|&id| links >> id & 1 == 1)
            .map(|id| (id, 1 + mix(seed, id as u64) % 64))
            .collect();
        let turn = (seed % 7) as usize % sends.len().max(1);
        sends.rotate_left(turn);
        sends
    }

    #[test]
    fn stats_count_every_round_of_either_kind() {
        let g = line(2, 1);
        let model = NetModel::uniform(LinkModel {
            latency: Latency::Fixed { delay_ns: 0 },
            loss: Some(Loss {
                p: 1.0,
                max_retries: 2,
                rto_ns: 10,
            }),
        });
        let mut net = EventNet::new(&g, model, 7);
        assert_eq!(net.stats(), KernelStats::default());
        net.schedule(0, 0, 1, 1, 0);
        net.schedule(1, 1, 0, 1, 0);
        net.run();
        assert!(net.run().is_empty(), "an empty drain is not a round");
        assert_eq!(net.serve_exclusive(8, [], |_| {}), 0, "nor an empty round");
        net.serve_exclusive(8, [(0, 1)], |_| {});
        let want = KernelStats {
            rounds: 2,
            deliveries: 3,
            retransmits: 6,
        };
        assert_eq!(net.stats(), want);
        let mut sum = want;
        sum.accumulate(&want);
        assert_eq!(sum.retransmits, 12);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The closed form is the queue: an exclusive round served by
        /// `serve_exclusive` delivers the multiset of times, the end time
        /// and the stats that `schedule` + `drain` on a fresh kernel do —
        /// twice in a row on one kernel that has served other rounds.
        #[test]
        fn exclusive_round_closed_form_equals_the_queue(
            kind in 0u8..5,
            seed in any::<u64>(),
            links in any::<u32>(),
        ) {
            let g = dense5();
            let sends = exclusive_round(seed, links);
            let mut queue = EventNet::new(&g, regime(kind), seed);
            for (id, &(edge, bits)) in sends.iter().enumerate() {
                let e = g.edge(edge).unwrap();
                queue.schedule(id as u64, e.src, e.dst, bits, 0);
            }
            let mut want: Vec<u64> = queue.run().iter().map(|d| d.delivered_ns).collect();
            want.sort_unstable();

            let mut closed = EventNet::new(&g, regime(kind), !seed);
            closed.schedule(0, 0, 1, 7, 0);
            closed.run();
            closed.serve_exclusive(!seed, exclusive_round(!seed, !links), |_| {});
            let before = closed.stats();
            for _ in 0..2 {
                let mut got = Vec::new();
                let end = closed.serve_exclusive(seed, sends.iter().copied(), |t| got.push(t));
                got.sort_unstable();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(end, queue.clock_ns());
            }
            let mut twice = queue.stats();
            twice.accumulate(&queue.stats());
            twice.accumulate(&before);
            prop_assert_eq!(closed.stats(), twice);
        }

        /// A phase on one kernel, shaped like a claims phase: rounds in
        /// pairs over the same links with different `bits`, on a graph whose
        /// removed node leaves its edge ids sparse. Every round delivers the
        /// multiset of times, the end time and the stats of a fresh queue
        /// built with the round's seed.
        #[test]
        fn a_phase_of_exclusive_rounds_equals_fresh_queues(
            kind in 0u8..5,
            seed in any::<u64>(),
            gone in 0usize..6,
            masks in proptest::collection::vec(any::<u32>(), 1..5),
        ) {
            let g = sparse6(gone);
            let live: Vec<_> = g.edges().map(|(id, e)| (id, e.src, e.dst)).collect();
            let mut phase = EventNet::new(&g, regime(kind), !seed);
            let mut stats = KernelStats::default();
            for r in 0..2 * masks.len() {
                let round_seed = mix(seed, r as u64);
                let bits = 1 + round_seed % 4096;
                let mut sends: Vec<_> = (live.iter().enumerate())
                    .filter(|&(i, _)| masks[r / 2] >> i & 1 == 1)
                    .map(|(_, &link)| link)
                    .collect();
                let turn = r % sends.len().max(1);
                sends.rotate_left(turn);
                let mut queue = EventNet::new(&g, regime(kind), round_seed);
                for (id, &(_, src, dst)) in sends.iter().enumerate() {
                    queue.schedule(id as u64, src, dst, bits, 0);
                }
                let mut want: Vec<u64> = queue.run().iter().map(|d| d.delivered_ns).collect();
                let mut got = Vec::new();
                let round = sends.iter().map(|&(edge, ..)| (edge, bits));
                let end = phase.serve_exclusive(round_seed, round, |t| got.push(t));
                want.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "round {}", r);
                prop_assert_eq!(end, queue.clock_ns(), "round {}", r);
                stats.accumulate(&queue.stats());
                prop_assert_eq!(phase.stats(), stats, "round {}", r);
            }
        }
    }
}
