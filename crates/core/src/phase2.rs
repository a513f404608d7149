//! Phase 2: failure detection — the equality check on the wire (step 2.1)
//! and Byzantine broadcast of the 1-bit flags (step 2.2).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use nab_bb::eig::{self, EigChannel};
use nab_bb::phaseking;
use nab_bb::router::{FormulaClock, HopChannel, PathRouter, RoundSink};
use nab_gf::{Gf2_16, Matrix};
use nab_netgraph::arborescence::Arborescence;
use nab_netgraph::{DiGraph, EdgeId, NodeId};
use nab_obs::trace::{self, EventKind};

use crate::adversary::NabAdversary;
use crate::dispute::NodeClaims;
use crate::equality::{pack_slab, wire_order, CodingScheme};
use crate::value::{Value, SYMBOL_BITS};

/// What a sender put on one edge.
#[derive(Debug, Clone)]
enum Sent {
    /// The prescribed coded symbols of an honest sender holding the value
    /// of class `class`, encoded only if asked for.
    Prescribed { class: usize },
    /// What a faulty sender chose to transmit, in wire order.
    Substituted(Vec<Gf2_16>),
}

/// Ground truth of one equality-check execution (step 2.1).
#[derive(Debug, Clone)]
pub struct EqOutcome {
    /// Each node's honestly computed flag (`true` = MISMATCH). Faulty
    /// nodes may *announce* something else; see
    /// [`run_flag_broadcast`].
    pub flags: BTreeMap<NodeId, bool>,
    /// Wall-clock duration (`≈ L/ρ_k`).
    pub duration: f64,
    /// Per edge of the scheme's layout, in its order.
    sends: Vec<Sent>,
    /// Each value class's value.
    held: Vec<Value>,
    /// The instance's coding matrices, for the prescribed sends.
    scheme: CodingScheme,
}

impl EqOutcome {
    /// Coded symbols actually transmitted per edge, in wire order. Built on
    /// request, as only dispute control and tests read the symbols: the
    /// phase keeps an honest transmission as its sender's value class.
    pub fn sends(&self) -> BTreeMap<(NodeId, NodeId), Vec<Gf2_16>> {
        let mut slabs = vec![Matrix::default(); self.held.len()];
        for (held, xt) in self.held.iter().zip(&mut slabs) {
            pack_slab(held, self.scheme.rho(), xt);
        }
        let edges = self.scheme.layout().iter().zip(&self.sends);
        edges
            .map(|(laid, sent)| {
                let symbols = match sent {
                    Sent::Prescribed { class } => {
                        self.scheme.encode_packed(laid.rows.clone(), &slabs[*class])
                    }
                    Sent::Substituted(symbols) => symbols.clone(),
                };
                ((laid.src, laid.dst), symbols)
            })
            .collect()
    }

    /// Bits transmitted per link of `G_k`, `(edge id, bits)`.
    pub(crate) fn link_bits(&self) -> impl Iterator<Item = (EdgeId, u64)> + '_ {
        let edges = self.scheme.layout().iter().zip(&self.sends);
        edges.map(|(laid, sent)| {
            let symbols = match sent {
                Sent::Prescribed { class } => {
                    self.held[*class].len().div_ceil(self.scheme.rho()) * laid.rows.len()
                }
                Sent::Substituted(symbols) => symbols.len(),
            };
            (laid.id, symbols as u64 * SYMBOL_BITS)
        })
    }
}

/// The equality check's working memory. An engine keeps one across its
/// instances, and every buffer is rewritten in place. A class's coding
/// rows and product are sized to the rows it compares, so they grow when
/// an instance compares more rows than any before it (a corrupted
/// instance after clean ones); from then on they allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct EqScratch {
    /// Per node id of `G_k`: its value class and whether it is faulty.
    nodes: Vec<(usize, bool)>,
    classes: Vec<ClassBuffers>,
    /// The edges the check compares, in layout order: an edge's index in
    /// the layout and the rows of its sender's and its receiver's class
    /// product it sits at.
    checks: Vec<(usize, Range<usize>, Range<usize>)>,
}

/// One value class's buffers.
#[derive(Debug, Clone, Default)]
struct ClassBuffers {
    /// The row ranges of the scheme's stacked `Cᵀ` this class multiplies,
    /// in the order they stack in its product.
    coding_rows: Vec<Range<usize>>,
    /// Rows of the product so far.
    height: usize,
    /// The packed `Xᵀ`.
    slab: Matrix<Gf2_16>,
    /// The class's rows of `Cᵀ`, gathered.
    coding: Matrix<Gf2_16>,
    /// `Yᵀ = Cᵀ · Xᵀ`.
    product: Matrix<Gf2_16>,
}

impl ClassBuffers {
    /// Adds an edge's rows of `Cᵀ` to this class's stack; returns where
    /// they land in its product.
    fn stack(&mut self, coding_rows: Range<usize>) -> Range<usize> {
        let at = self.height;
        self.height += coding_rows.len();
        self.coding_rows.push(coding_rows);
        at..self.height
    }
}

impl EqScratch {
    /// Where each class's slab and product live and how many symbols each
    /// holds, to tell reuse from reallocation.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> Vec<[(*const Gf2_16, usize); 2]> {
        let at = |m: &Matrix<Gf2_16>| (m.as_slice().as_ptr(), m.as_slice().len());
        self.classes
            .iter()
            .map(|c| [at(&c.slab), at(&c.product)])
            .collect()
    }
}

/// The equality check once per stream, each on fresh buffers: a loop of
/// the one-instance check the engine runs.
///
/// Nothing in the workspace calls this outside tests; it stays only for
/// `benchmark/`'s call sites and goes with the benchmark-only PR that
/// ROADMAP item 1(b) describes.
///
/// # Panics
///
/// Panics if `values` and `advs` lengths differ, or some active node is
/// missing a value.
pub fn run_equality_phase_batched(
    gk: &DiGraph,
    values: &[&BTreeMap<NodeId, Value>],
    scheme: &CodingScheme,
    faulty: &BTreeSet<NodeId>,
    advs: &mut [&mut dyn NabAdversary],
) -> Vec<EqOutcome> {
    assert_eq!(values.len(), advs.len(), "one adversary per stream");
    values
        .iter()
        .zip(advs)
        .map(|(values, adv)| {
            run_equality_phase(gk, values, scheme, faulty, *adv, &mut EqScratch::default())
        })
        .collect()
}

/// The equality check on `gk` (Algorithm 1), evaluated as **one slab
/// product per distinct value** instead of per-edge, per-column vector
/// products, in `scratch`, whose buffers it rewrites in place.
///
/// Links are reliable, so the receiver's view of an edge equals the
/// sender's transmission; the phase is evaluated directly on the ground
/// truth, charging the same `max_e(bits_e / z_e)` round time the
/// simulator would.
///
/// Nodes holding equal values form a class with one packed slab `Xᵀ`,
/// and each class is multiplied once, `Yᵀ = Cᵀ · Xᵀ`, by the rows of the
/// scheme's stacked coding matrix the check compares: those of every
/// compared edge whose sender is in the class and, for an edge that
/// crosses classes, the same rows again in the receiver's class. An edge
/// is compared if it crosses classes or its sender is faulty. An honest
/// sender's edge inside its class passes whatever the coding matrices
/// hold, so nothing is stacked for it and [`EqOutcome::sends`] encodes it
/// only if asked: fault-free with one value, the phase draws no matrix,
/// packs nothing and multiplies nothing.
///
/// Per compared edge, the transmission is a (row range, column count)
/// view into the sender's product. When the receiver is in the same class
/// its expectation *is* that view, against which a faulty sender's
/// [`NabAdversary::equality_symbols`] output is compared. Across classes
/// the two sides' views are compared, each with its own column count (a
/// length-tampering relay leaves values of unequal lengths), so a length
/// mismatch fails the compare exactly like a column-by-column check. The
/// flags and sends equal those of the test modules' one-product-per-column
/// oracle (`GF(2^16)` addition is exact XOR, so any grouping of the same
/// multiply-accumulates produces the same symbols), which the
/// differential proptests pin.
///
/// The bookkeeping is dense: classes by node id, sends by the scheme's
/// layout, which walks `gk.edges()` in order. An instance the check passes
/// without a compare touches no map per edge.
///
/// # Panics
///
/// Panics if some active node is missing a value, or `scheme` was laid
/// out on another graph.
pub(crate) fn run_equality_phase(
    gk: &DiGraph,
    values: &BTreeMap<NodeId, Value>,
    scheme: &CodingScheme,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
    scratch: &mut EqScratch,
) -> EqOutcome {
    let (rho, layout) = (scheme.rho(), scheme.layout());
    let mut out = EqOutcome {
        flags: gk.nodes().map(|v| (v, false)).collect(),
        duration: 0.0,
        sends: Vec::with_capacity(layout.len()),
        held: Vec::new(),
        scheme: scheme.clone(),
    };
    let EqScratch {
        nodes,
        classes,
        checks,
    } = scratch;
    nodes.resize(gk.node_count(), (0, false));
    for v in gk.nodes() {
        let held = &values[&v];
        let class = out.held.iter().position(|c| c == held).unwrap_or_else(|| {
            out.held.push(held.clone());
            out.held.len() - 1
        });
        nodes[v] = (class, faulty.contains(&v));
    }
    if classes.len() < out.held.len() {
        classes.resize_with(out.held.len(), ClassBuffers::default);
    }
    for buffers in &mut classes[..out.held.len()] {
        buffers.coding_rows.clear();
        buffers.height = 0;
    }

    checks.clear();
    let (mut multiplies, mut expectations_shared) = (0u32, 0u32);
    let mut live = gk.edges().map(|(id, _)| id);
    for (i, laid) in layout.iter().enumerate() {
        assert_eq!(live.next(), Some(laid.id), "scheme of another graph");
        let ((sender, faulty_sender), (receiver, _)) = (nodes[laid.src], nodes[laid.dst]);
        let shared = sender == receiver;
        multiplies += if shared { 1 } else { 2 };
        expectations_shared += u32::from(shared);
        out.sends.push(Sent::Prescribed { class: sender });
        if shared && !faulty_sender {
            continue;
        }
        let sent = classes[sender].stack(laid.rows.clone());
        let expected = if shared {
            sent.clone()
        } else {
            classes[receiver].stack(laid.rows.clone())
        };
        checks.push((i, sent, expected));
    }
    assert_eq!(live.next(), None, "scheme of another graph");

    for (held, buffers) in out.held.iter().zip(classes.iter_mut()) {
        if buffers.height == 0 {
            continue;
        }
        pack_slab(held, rho, &mut buffers.slab);
        let whole = scheme.stacked();
        buffers.coding.reset(buffers.height, rho);
        let gathered = buffers.coding.as_mut_slice().chunks_exact_mut(rho);
        let needed = buffers.coding_rows.iter().flat_map(|rows| rows.clone());
        for (row, from) in gathered.zip(needed) {
            row.copy_from_slice(whole.row(from));
        }
        buffers
            .coding
            .mat_mul_into(&buffers.slab, &mut buffers.product);
    }

    let view = |class: usize, rows: &Range<usize>| {
        let cols = out.held[class].len().div_ceil(rho);
        wire_order(&classes[class].product, rows.clone(), cols)
    };
    for (i, sent, expected) in checks.iter() {
        let laid = &layout[*i];
        let ((sender, faulty_sender), (receiver, _)) = (nodes[laid.src], nodes[laid.dst]);
        let (sent, expected) = (view(sender, sent), view(receiver, expected));
        if faulty_sender {
            let symbols = adv.equality_symbols(laid.src, laid.dst, &sent);
            if symbols != expected {
                out.flags.insert(laid.dst, true);
            }
            out.sends[*i] = Sent::Substituted(symbols);
        } else if sent != expected {
            out.flags.insert(laid.dst, true);
        }
    }
    // The synchronous round charge `max_e(bits_e / z_e)` — identical to
    // `NetSim::deliver_round` on the same sends.
    let charges = out.link_bits().zip(layout);
    out.duration = charges.fold(0.0, |d: f64, ((_, bits), laid)| {
        d.max(bits as f64 / laid.rows.len() as f64)
    });
    trace::emit(EventKind::EqualityProducts {
        multiplies,
        expectations_shared,
    });
    out
}

/// Which classic BB protocol serves as `Broadcast_Default` for flags and
/// dispute-control claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BroadcastKind {
    /// Exponential Information Gathering: optimal resilience (`n > 3f`),
    /// message count `O(n^{f+1})`.
    #[default]
    Eig,
    /// Phase-King: polynomial messages `O(f·n²)` but needs `n > 4f`;
    /// automatically falls back to EIG when the participant count is too
    /// small.
    PhaseKing,
}

impl BroadcastKind {
    /// The name scenario files and the CLI use: `eig` or `phase-king`.
    pub fn name(self) -> &'static str {
        match self {
            BroadcastKind::Eig => "eig",
            BroadcastKind::PhaseKing => "phase-king",
        }
    }

    /// Parses a [`BroadcastKind::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        [BroadcastKind::Eig, BroadcastKind::PhaseKing]
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown broadcast {s:?} (known: eig, phase-king)"))
    }
}

/// Runs one `Broadcast_Default` of `input` from `source` among
/// `participants` over the given channel, returning every participant's
/// decision: `input`, by validity.
///
/// Faulty participants relay by the protocol: NAB's adversary acts
/// through what a node broadcasts (its flag, its claims), never through
/// the relays of `Broadcast_Default`, so every decision is fixed before the
/// broadcast runs and the call only charges the protocol's unicasts to
/// `chan`. `_faulty` is not read. It stays only for `benchmark/`'s call
/// sites.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
pub fn broadcast_value<V, C>(
    kind: BroadcastKind,
    participants: &[NodeId],
    source: NodeId,
    f: usize,
    input: V,
    _faulty: &BTreeSet<NodeId>,
    chan: &mut C,
    bits: u64,
) -> BTreeMap<NodeId, V>
where
    V: Clone,
    C: EigChannel<V>,
{
    broadcast_in(kind, participants, source, f, &input, chan, bits);
    participants.iter().map(|&p| (p, input.clone())).collect()
}

/// Charges one `Broadcast_Default` from `source` among `nodes` to `chan`:
/// every unicast of the protocol's schedule, in order, carrying `input`.
/// Phase-King needs `n > 4f` and falls back to EIG below it.
fn broadcast_in<V, C: EigChannel<V>>(
    kind: BroadcastKind,
    nodes: &[NodeId],
    source: NodeId,
    f: usize,
    input: &V,
    chan: &mut C,
    bits: u64,
) {
    let send = |from, to| chan.unicast(from, to, bits, input);
    if kind == BroadcastKind::PhaseKing && nodes.len() > 4 * f {
        phaseking::schedule(nodes, source, f, send);
    } else {
        eig::schedule(nodes, source, f, send);
    }
}

/// Outcome of step 2.2: every participant Byzantine-broadcasts its flag.
#[derive(Debug, Clone)]
pub struct FlagOutcome {
    /// The flag each node *announced* (faulty nodes may have lied). By
    /// validity it is also the flag every participant decided on.
    pub announced: BTreeMap<NodeId, bool>,
    /// Duration of all flag broadcasts on the clock they were charged to.
    pub duration: f64,
}

impl FlagOutcome {
    /// Whether any broadcaster's agreed flag (at `observer`) is MISMATCH.
    /// Every participant decides the announced flags, so `observer` is
    /// only checked to have taken part.
    pub fn any_mismatch(&self, observer: NodeId) -> bool {
        assert!(
            self.announced.contains_key(&observer),
            "a participant of the flag broadcast"
        );
        self.announced.values().any(|&flag| flag)
    }
}

/// Runs step 2.2 on the synchronous formula clock: [`flag_broadcast`] with
/// a [`FormulaClock`] behind the sink. Every call replays each unicast of
/// the schedule; the engine replays it once per `G_k` and broadcast kind
/// and reuses that total (see [`crate::plan::Gk`]), so a caller timing
/// this function times the replay the engine no longer repeats.
///
/// `g0` and `record_rounds` no longer affect anything — the router's
/// routes, not a graph handed in here, decide links and capacities, and a
/// caller that wants the hop rounds passes a sink that keeps them. Both
/// parameters stay for `benchmark/`'s call sites and go with the
/// benchmark-only PR that ROADMAP pairs with the timing change.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
pub fn run_flag_broadcast(
    _g0: &DiGraph,
    router: &PathRouter,
    participants: &[NodeId],
    f_residual: usize,
    computed_flags: &BTreeMap<NodeId, bool>,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
    kind: BroadcastKind,
    _record_rounds: bool,
) -> FlagOutcome {
    flag_broadcast(
        router,
        participants,
        f_residual,
        computed_flags,
        faulty,
        adv,
        kind,
        // The clock `Gk::flag_charge` replays on, so both share one
        // instantiation.
        &mut FormulaClock::default(),
    )
}

/// Runs step 2.2: one `Broadcast_Default` per participant of its 1-bit
/// flag, over the `2f+1`-disjoint-path emulated complete graph of the
/// *original* network (dispute-removed links still physically exist; NAB
/// only stops trusting them for its own phases). Every hop round is charged
/// to `sink`, which is also the clock [`FlagOutcome::duration`] is read
/// from. It is `announce_flags`, then `charge_flags`.
///
/// `f_residual` is the fault budget among the participants (original `f`
/// minus nodes already exposed and excluded).
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
pub fn flag_broadcast<S: RoundSink>(
    router: &PathRouter,
    participants: &[NodeId],
    f_residual: usize,
    computed_flags: &BTreeMap<NodeId, bool>,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
    kind: BroadcastKind,
    sink: &mut S,
) -> FlagOutcome {
    FlagOutcome {
        announced: announce_flags(participants, computed_flags, faulty, adv),
        duration: charge_flags(router, participants, f_residual, kind, sink),
    }
}

/// Step 2.2's announcements: each participant's computed flag, or what
/// `adv.flag` makes of it for a faulty one, asked in participant order.
pub(crate) fn announce_flags(
    participants: &[NodeId],
    computed_flags: &BTreeMap<NodeId, bool>,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
) -> BTreeMap<NodeId, bool> {
    let announce = |&b: &NodeId| {
        let honest = computed_flags[&b];
        let flag = if faulty.contains(&b) {
            adv.flag(b, honest)
        } else {
            honest
        };
        (b, flag)
    };
    participants.iter().map(announce).collect()
}

/// Step 2.2's charge: one `Broadcast_Default` of a 1-bit flag from each
/// participant in turn, every hop round to `sink`; returns what `sink`
/// reads after the last. The channel charges sizes only, so what the
/// flags say does not enter.
pub(crate) fn charge_flags<S: RoundSink>(
    router: &PathRouter,
    participants: &[NodeId],
    f_residual: usize,
    kind: BroadcastKind,
    sink: &mut S,
) -> f64 {
    let mut chan = HopChannel {
        router,
        sink: &mut *sink,
    };
    for &b in participants {
        broadcast_in(kind, participants, b, f_residual, &false, &mut chan, 1);
    }
    sink.elapsed()
}

/// Phase 3's DC1: every participant Byzantine-broadcasts the claims it
/// chose (`claims`, one per participant) over the same routed emulation
/// the flags used, charging the (large) hop rounds to `sink`. By validity
/// every participant decides each broadcaster's claims, so the agreed
/// claims are `claims`, returned as given.
pub(crate) fn broadcast_claims<S: RoundSink>(
    router: &PathRouter,
    participants: &[NodeId],
    f_residual: usize,
    claims: BTreeMap<NodeId, NodeClaims>,
    kind: BroadcastKind,
    sink: &mut S,
) -> BTreeMap<NodeId, NodeClaims> {
    let mut chan = HopChannel { router, sink };
    for &b in participants {
        let c = &claims[&b];
        broadcast_in(kind, participants, b, f_residual, c, &mut chan, c.bits());
    }
    claims
}

/// Builds every node's *truthful* claims from the ground truth of Phases
/// 1–2 (what Phase 3 broadcasts when nodes do not lie about their
/// transcripts). `announced_flags` are the flags from step 2.2.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
#[expect(
    clippy::unwrap_used,
    reason = "claims is pre-populated with an entry per node"
)]
pub fn honest_claims(
    gk: &DiGraph,
    source: NodeId,
    input: &Value,
    _trees: &[Arborescence],
    _scheme: &CodingScheme,
    p1: &crate::phase1::Phase1Output,
    eq: &EqOutcome,
    announced_flags: &BTreeMap<NodeId, bool>,
) -> BTreeMap<NodeId, NodeClaims> {
    let mut claims: BTreeMap<NodeId, NodeClaims> = gk
        .nodes()
        .map(|v| {
            (
                v,
                NodeClaims {
                    flag: announced_flags.get(&v).copied().unwrap_or(false),
                    ..NodeClaims::default()
                },
            )
        })
        .collect();
    claims.get_mut(&source).unwrap().input = Some(input.symbols().to_vec());

    for (&(t, src, dst), block) in &p1.sends() {
        claims
            .get_mut(&src)
            .unwrap()
            .p1_sent
            .insert((t, dst), block.as_ref().clone());
        claims
            .get_mut(&dst)
            .unwrap()
            .p1_received
            .insert((t, src), block.as_ref().clone());
    }
    for ((src, dst), symbols) in eq.sends() {
        claims
            .get_mut(&src)
            .unwrap()
            .eq_sent
            .insert(dst, symbols.clone());
        claims
            .get_mut(&dst)
            .unwrap()
            .eq_received
            .insert(src, symbols);
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        EqualityGarbler, FalseAlarm, HonestStrategy, RandomStrategy, TruthfulCorruptor,
    };
    use crate::bounds;
    use crate::engine::SOURCE;
    use crate::phase1::run_phase1;
    use nab_netgraph::arborescence::pack_arborescences;
    use nab_netgraph::flow::broadcast_rate;
    use nab_netgraph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The equality check on fresh buffers.
    fn equality_one_stream(
        gk: &DiGraph,
        values: &BTreeMap<NodeId, Value>,
        scheme: &CodingScheme,
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
    ) -> EqOutcome {
        run_equality_phase(gk, values, scheme, faulty, adv, &mut EqScratch::default())
    }

    fn complete_setup() -> (DiGraph, Vec<Arborescence>, CodingScheme, Value) {
        let g = gen::complete(4, 2);
        let gamma = broadcast_rate(&g, 0);
        let trees = pack_arborescences(&g, 0, gamma).unwrap();
        let scheme = CodingScheme::random(&g, 2, 17);
        let input = Value::from_u64s(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        (g, trees, scheme, input)
    }

    #[test]
    fn clean_run_raises_no_flags() {
        let (g, trees, scheme, input) = complete_setup();
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = equality_one_stream(
            &g,
            &p1.values,
            &scheme,
            &BTreeSet::new(),
            &mut HonestStrategy,
        );
        assert!(eq.flags.values().all(|f| !f));
    }

    /// Runs the check on a triangle with `gk_edges` of its six edges live,
    /// on a scheme laid out on the first `scheme_edges` of them.
    fn check_on_triangle(gk_edges: usize, scheme_edges: usize) {
        let pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
        let triangle = |edges: usize| {
            let mut g = DiGraph::new(3);
            for &(a, b) in &pairs[..edges] {
                g.add_edge(a, b, 1);
            }
            g
        };
        let scheme = CodingScheme::random(&triangle(scheme_edges), 1, 5);
        let values = (0..3).map(|v| (v, Value::from_u64s(&[1, 2]))).collect();
        let gk = triangle(gk_edges);
        equality_one_stream(&gk, &values, &scheme, &BTreeSet::new(), &mut HonestStrategy);
    }

    #[test]
    #[should_panic(expected = "scheme of another graph")]
    fn a_scheme_missing_the_last_edges_panics() {
        check_on_triangle(6, 4);
    }

    #[test]
    #[should_panic(expected = "scheme of another graph")]
    fn a_scheme_with_extra_edges_panics() {
        check_on_triangle(4, 6);
    }

    #[test]
    fn equality_duration_is_l_over_rho() {
        let (g, trees, scheme, input) = complete_setup();
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = equality_one_stream(
            &g,
            &p1.values,
            &scheme,
            &BTreeSet::new(),
            &mut HonestStrategy,
        );
        // S=12 symbols, ρ=2 → 6 columns × 16 bits = 96 bits = L/ρ, and
        // every link of capacity z carries 6·z symbols → 96 time units / z·z…
        // each link: z·6 symbols·16 bits / z cap = 96.
        assert!(
            (eq.duration - 96.0).abs() < 1e-9,
            "duration {}",
            eq.duration
        );
    }

    #[test]
    fn phase1_corruption_is_flagged() {
        let (g, trees, scheme, input) = complete_setup();
        let faulty = BTreeSet::from([1]);
        let mut adv = TruthfulCorruptor;
        let p1 = run_phase1(&g, 0, &input, &trees, &faulty, &mut adv);
        let eq = equality_one_stream(&g, &p1.values, &scheme, &faulty, &mut adv);
        assert!(
            eq.flags.iter().any(|(v, f)| *f && !faulty.contains(v)),
            "a fault-free node must flag the mismatch: {:?}",
            eq.flags
        );
    }

    #[test]
    fn garbled_equality_symbols_flag_receivers() {
        let (g, trees, scheme, input) = complete_setup();
        let faulty = BTreeSet::from([2]);
        let mut adv = EqualityGarbler;
        let p1 = run_phase1(&g, 0, &input, &trees, &faulty, &mut adv);
        let eq = equality_one_stream(&g, &p1.values, &scheme, &faulty, &mut adv);
        assert!(eq.flags.iter().any(|(v, f)| *f && *v != 2));
    }

    /// Runs the equality check with a trace sink installed and returns the
    /// outcome with the call's `(multiplies, expectations_shared)`.
    fn equality_with_counts(
        gk: &DiGraph,
        values: &BTreeMap<NodeId, Value>,
        scheme: &CodingScheme,
        faulty: &BTreeSet<NodeId>,
        adv: &mut dyn NabAdversary,
    ) -> (EqOutcome, (u32, u32)) {
        let sink = Arc::new(nab_obs::BufferSink::new());
        trace::set_thread_sink(Some(sink.clone()));
        let eq = equality_one_stream(gk, values, scheme, faulty, adv);
        trace::set_thread_sink(None);
        let counts: Vec<(u32, u32)> = sink
            .take_sorted()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::EqualityProducts {
                    multiplies,
                    expectations_shared,
                } => Some((multiplies, expectations_shared)),
                _ => None,
            })
            .collect();
        assert_eq!(counts.len(), 1, "one event per equality call");
        (eq, counts[0])
    }

    /// Every node of K4 (12 edges) holding `v`, except the listed deviants.
    fn k4_values(v: &Value, deviants: &[(NodeId, Value)]) -> BTreeMap<NodeId, Value> {
        let mut values: BTreeMap<NodeId, Value> = (0..4).map(|n| (n, v.clone())).collect();
        values.extend(deviants.iter().cloned());
        values
    }

    /// Drops the last coded symbol of every equality transmission.
    struct EqualityTruncator;
    impl NabAdversary for EqualityTruncator {
        fn equality_symbols(&mut self, _: NodeId, _: NodeId, honest: &[Gf2_16]) -> Vec<Gf2_16> {
            honest[..honest.len().saturating_sub(1)].to_vec()
        }
    }

    #[test]
    fn one_class_with_honest_senders_shares_every_expectation() {
        let (g, _, scheme, input) = complete_setup();
        let values = k4_values(&input, &[]);
        let (eq, counts) =
            equality_with_counts(&g, &values, &scheme, &BTreeSet::new(), &mut HonestStrategy);
        assert_eq!(counts, (12, 12), "one product per edge, none for receivers");
        assert!(eq.flags.values().all(|f| !f));
        for ((src, dst), symbols) in eq.sends() {
            assert_eq!(symbols, scheme.encode(src, dst, &input));
        }
    }

    /// One value class and no faulty sender: every check passes whatever
    /// the coding matrices hold, so none is drawn, no slab is packed and
    /// no product is computed. A corrupting relay splits the classes and
    /// sends from inside one, so the same call then does all three, for
    /// the rows of the edges it compares only.
    #[test]
    fn only_compared_rows_are_drawn_packed_and_multiplied() {
        let (g, trees, scheme, input) = complete_setup();
        let mut scratch = EqScratch::default();
        let none = BTreeSet::new();
        let p1 = run_phase1(&g, 0, &input, &trees, &none, &mut HonestStrategy);
        let eq = run_equality_phase(
            &g,
            &p1.values,
            &scheme,
            &none,
            &mut HonestStrategy,
            &mut scratch,
        );
        assert!(eq.flags.values().all(|f| !f));
        assert!(!scheme.is_drawn(), "no coding matrix drawn");
        // Per class: whether its slab was packed, and its product's rows.
        let computed = |scratch: &EqScratch| -> Vec<(bool, usize)> {
            let buffers = scratch.classes.iter();
            buffers
                .map(|c| (!c.slab.as_slice().is_empty(), c.product.rows()))
                .collect()
        };
        assert_eq!(
            computed(&scratch),
            [(false, 0)],
            "nothing packed or multiplied"
        );

        let (_, _, scheme, _) = complete_setup();
        let faulty = BTreeSet::from([1]);
        let p1 = run_phase1(&g, 0, &input, &trees, &faulty, &mut TruthfulCorruptor);
        let eq = run_equality_phase(
            &g,
            &p1.values,
            &scheme,
            &faulty,
            &mut TruthfulCorruptor,
            &mut scratch,
        );
        assert!(eq.flags.values().any(|&f| f));
        assert!(scheme.is_drawn());
        let classes = computed(&scratch);
        assert!(classes.len() > 1, "the corruption splits the classes");
        assert!(
            classes.iter().all(|&(packed, _)| packed),
            "every class read"
        );
        // A faulty sender's rows once, a cross-class edge's in both classes.
        let compared = g.edges().map(|(_, e)| {
            let cross = p1.values[&e.src] != p1.values[&e.dst];
            e.cap as usize * if cross { 2 } else { usize::from(e.src == 1) }
        });
        let multiplied = classes.iter().map(|&(_, rows)| rows);
        assert_eq!(multiplied.sum::<usize>(), compared.sum());
        let honest_inside = g
            .edges()
            .filter(|(_, e)| e.src != 1 && p1.values[&e.src] == p1.values[&e.dst]);
        assert!(
            honest_inside.count() > 0,
            "some edge is neither compared nor multiplied"
        );
    }

    #[test]
    fn faulty_sender_inside_a_class_is_still_compared() {
        let (g, _, scheme, input) = complete_setup();
        let values = k4_values(&input, &[]);
        let faulty = BTreeSet::from([2]);
        let tamperers: [&mut dyn NabAdversary; 2] = [&mut EqualityGarbler, &mut EqualityTruncator];
        for adv in tamperers {
            let (eq, counts) = equality_with_counts(&g, &values, &scheme, &faulty, adv);
            assert_eq!(
                counts,
                (12, 12),
                "values are equal: expectations stay shared"
            );
            let flagged: Vec<NodeId> = (0..4).filter(|v| eq.flags[v]).collect();
            assert_eq!(flagged, [0, 1, 3], "exactly node 2's receivers");
            let sends = eq.sends();
            assert_ne!(sends[&(2, 0)], scheme.encode(2, 0, &input));
            assert_eq!(sends[&(0, 2)], scheme.encode(0, 2, &input));
        }
    }

    #[test]
    fn deviant_value_multiplies_separately_and_flags_both_ways() {
        let (_, _, _, input) = complete_setup();
        // Figure 1(a) is not complete: node 3 touches three of its six
        // edges, so the deviant's class boundary shows in the counts.
        let g = gen::figure_1a();
        let scheme = CodingScheme::random(&g, 1, 23);
        let values = k4_values(&input, &[(3, input.corrupt_symbol(5, 9))]);
        let (eq, (multiplies, shared)) =
            equality_with_counts(&g, &values, &scheme, &BTreeSet::new(), &mut HonestStrategy);
        let touching_3 = g.edges().filter(|(_, e)| e.src == 3 || e.dst == 3).count() as u32;
        let edges = g.edges().count() as u32;
        assert!(touching_3 > 0 && touching_3 < edges);
        assert_eq!(shared, edges - touching_3);
        assert_eq!(multiplies, edges + touching_3);
        let oracle = crate::equality::tests::equality_check_flags(
            &g,
            &values,
            &scheme,
            &mut crate::equality::tests::no_tamper,
        );
        assert_eq!(eq.flags, oracle);
        // Node 3 flags what it receives; whoever it sends to flags too.
        assert!(eq.flags[&3]);
        for (_, e) in g.edges().filter(|(_, e)| e.src == 3) {
            assert!(eq.flags[&e.dst], "receiver {} of node 3", e.dst);
        }
    }

    #[test]
    fn deviant_and_longer_values_split_classes_and_match_the_oracle() {
        let (g, _, scheme, input) = complete_setup();
        let other = Value::from_u64s(&[9, 9, 9, 7, 7, 7, 5, 5, 5, 3, 3, 3]);
        // Node 2 deviates in one instance; node 1 holds a longer value in
        // the other.
        let deviant = k4_values(&input, &[(2, input.corrupt_symbol(0, 1))]);
        let mut longer = other.symbols().to_vec();
        longer.push(Gf2_16(1));
        let stretched = k4_values(&other, &[(1, Value::from_symbols(longer))]);
        for values in [&deviant, &stretched] {
            let (eq, counts) =
                equality_with_counts(&g, values, &scheme, &BTreeSet::new(), &mut HonestStrategy);
            // Two classes: the odd node's 6 edges multiply twice, the
            // other 6 share.
            assert_eq!(counts, (18, 6));
            let oracle = crate::equality::tests::equality_check_flags(
                &g,
                values,
                &scheme,
                &mut crate::equality::tests::no_tamper,
            );
            assert_eq!(eq.flags, oracle);
            for ((src, dst), symbols) in eq.sends() {
                assert_eq!(symbols, scheme.encode(src, dst, &values[&src]));
            }
            // K4: the odd node's three neighbours are everyone else.
            assert!(eq.flags.values().all(|&f| f));
        }
    }

    /// Four value classes in one call on unequal capacities — what an
    /// equivocating source (nodes 1 and 2 received different values) plus
    /// a length-tampering relay (node 3 holds a longer value) leave
    /// behind. Every edge between classes has its rows in two products at
    /// different row offsets, and none of the classes multiplies the
    /// scheme's matrix as it stands; the wide values take the vector
    /// kernel, the narrow ones the scalar loop.
    #[test]
    fn stacked_products_match_the_column_oracle_where_the_stacks_differ() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x57AC);
        let g = gen::complete_heterogeneous(5, 1, 3, &mut rng);
        let rho = 3;
        let scheme = CodingScheme::random(&g, rho, 29);
        for len in [7, 12, 333, 400] {
            let a = Value::random(len, &mut rng);
            let mut values: BTreeMap<NodeId, Value> = (0..5).map(|n| (n, a.clone())).collect();
            values.insert(1, a.corrupt_symbol(0, 1));
            values.insert(2, a.corrupt_symbol(len - 1, 5));
            let mut longer = a.symbols().to_vec();
            longer.extend([Gf2_16(7), Gf2_16(0), Gf2_16(9), Gf2_16(1)]);
            values.insert(3, Value::from_symbols(longer));

            let (eq, (multiplies, shared)) =
                equality_with_counts(&g, &values, &scheme, &BTreeSet::new(), &mut HonestStrategy);
            // Classes {0, 4}, {1}, {2}, {3}: only 0→4 and 4→0 share.
            assert_eq!((multiplies, shared), (2 * 20 - 2, 2));
            let oracle = crate::equality::tests::equality_check_flags(
                &g,
                &values,
                &scheme,
                &mut crate::equality::tests::no_tamper,
            );
            assert_eq!(eq.flags, oracle);
            let sends = eq.sends();
            assert_eq!(sends.len(), 20);
            for ((src, dst), symbols) in sends {
                let want = scheme.encode_cols(src, dst, &values[&src].reshape(rho));
                assert_eq!(symbols, want, "edge ({src}, {dst}) at length {len}");
            }
        }
    }

    #[test]
    fn flag_broadcast_reaches_agreement() {
        let (g, _, _, _) = complete_setup();
        let router = PathRouter::build(&g, 1).unwrap();
        let participants: Vec<NodeId> = g.nodes().collect();
        let computed: BTreeMap<NodeId, bool> = participants.iter().map(|&v| (v, v == 2)).collect();
        let out = run_flag_broadcast(
            &g,
            &router,
            &participants,
            1,
            &computed,
            &BTreeSet::new(),
            &mut HonestStrategy,
            BroadcastKind::Eig,
            false,
        );
        assert_eq!(out.announced, computed);
        assert!(participants.iter().all(|&o| out.any_mismatch(o)));
        assert!(out.duration > 0.0);
    }

    /// `run_eig` once took each level's relay order from a `HashMap`, so
    /// from `f = 2` up the recorded rounds — and the f64 summation order
    /// behind `duration` — changed from run to run. The order is now
    /// specified: a level's paths in lexicographic order, relays and
    /// receivers in participant order.
    #[test]
    fn flag_rounds_and_duration_are_reproducible_at_f2() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let heterogeneous = gen::complete_heterogeneous(7, 1, 7, &mut rng);
        for g in [gen::complete(7, 1), heterogeneous] {
            let router = PathRouter::build(&g, 2).unwrap();
            let participants: Vec<NodeId> = g.nodes().collect();
            let computed: BTreeMap<NodeId, bool> =
                participants.iter().map(|&v| (v, false)).collect();
            // The hop rounds as a recording sink sees them.
            let run = || {
                let (out, rounds) = crate::netexec::tests::recorded(&g, |log| {
                    flag_broadcast(
                        &router,
                        &participants,
                        2,
                        &computed,
                        &BTreeSet::new(),
                        &mut HonestStrategy,
                        BroadcastKind::Eig,
                        log,
                    )
                });
                (rounds, out.duration)
            };
            let (first_rounds, first_duration) = run();
            for _ in 0..5 {
                let (rounds, duration) = run();
                assert_eq!(rounds, first_rounds);
                assert_eq!(duration.to_bits(), first_duration.to_bits());
            }

            // Broadcaster 0's first level-2 relays, by hand: after the
            // source's 6 sends and the 6 × 6 level-1 relays, path [0, 1] is
            // relayed by 2, then 3, …, each to everyone but itself.
            let level2: [(NodeId, NodeId); 12] = [
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
                (3, 6),
            ];
            let level01: Vec<(NodeId, NodeId)> = (1..7)
                .map(|r| (0, r))
                .chain((1..7).flat_map(|q| (0..7).filter(move |&r| r != q).map(move |r| (q, r))))
                .collect();
            let hop_rounds = |unicasts: &[(NodeId, NodeId)]| -> Vec<Vec<(NodeId, NodeId, u64)>> {
                let mut rounds = Vec::new();
                for &(from, to) in unicasts {
                    let paths = router.paths_for(from, to);
                    let hops = paths.iter().map(|p| p.len() - 1).max().unwrap();
                    for hop in 0..hops {
                        let copies = paths.iter().filter(|p| hop + 1 < p.len());
                        rounds.push(copies.map(|p| (p[hop], p[hop + 1], 1)).collect());
                    }
                }
                rounds
            };
            let skip = hop_rounds(&level01).len();
            let want = hop_rounds(&level2);
            assert_eq!(first_rounds[skip..skip + want.len()], want[..]);
        }
    }

    #[test]
    fn false_alarm_is_agreed_as_mismatch() {
        let (g, _, _, _) = complete_setup();
        let router = PathRouter::build(&g, 1).unwrap();
        let participants: Vec<NodeId> = g.nodes().collect();
        let computed: BTreeMap<NodeId, bool> = participants.iter().map(|&v| (v, false)).collect();
        let faulty = BTreeSet::from([3]);
        let out = run_flag_broadcast(
            &g,
            &router,
            &participants,
            1,
            &computed,
            &faulty,
            &mut FalseAlarm,
            BroadcastKind::Eig,
            false,
        );
        // All honest observers see node 3's MISMATCH announcement.
        assert!(out.announced[&3]);
        for o in [0, 1, 2] {
            assert!(out.any_mismatch(o));
        }
    }

    /// The claims broadcasts on a disputed instance of two colluders
    /// framing node 3 on K7: the agreed claims are the claims broadcast
    /// (validity), and the recorded hop rounds are EIG's schedule from
    /// each broadcaster in turn, every unicast `bits()` of its claims
    /// wide, routed over the router's disjoint paths.
    #[test]
    fn claims_broadcast_charges_the_schedule() {
        use crate::adversary::FramingCollusion;
        use crate::netexec::tests::{recorded, Rounds};
        let g = gen::complete(7, 2);
        let plan = crate::plan::ExecutionPlan::build(g.clone(), 2).unwrap();
        let router = plan.router();
        let participants: Vec<NodeId> = g.nodes().collect();
        let faulty = BTreeSet::from([1, 2]);
        let mut adv = FramingCollusion {
            scapegoat: 3,
            corruptor: 1,
        };
        let input = Value::from_u64s(&(1..=16).collect::<Vec<_>>());
        let scheme = plan.instance_scheme(5, 1);
        let p1 = run_phase1(&g, 0, &input, plan.trees0(), &faulty, &mut adv);
        let eq = equality_one_stream(&g, &p1.values, &scheme, &faulty, &mut adv);
        let flags = run_flag_broadcast(
            &g,
            router,
            &participants,
            2,
            &eq.flags,
            &faulty,
            &mut adv,
            BroadcastKind::Eig,
            false,
        );
        let observer = 0;
        assert!(flags.any_mismatch(observer), "the instance must dispute");
        let truthful = honest_claims(
            &g,
            0,
            &input,
            plan.trees0(),
            &scheme,
            &p1,
            &eq,
            &flags.announced,
        );
        let claims: BTreeMap<NodeId, NodeClaims> = truthful
            .iter()
            .map(|(&v, honest)| {
                let c = if faulty.contains(&v) {
                    adv.claims(v, honest)
                } else {
                    honest.clone()
                };
                (v, c)
            })
            .collect();

        let (shared, shared_rounds) = recorded(&g, |log| {
            broadcast_claims(
                router,
                &participants,
                2,
                claims.clone(),
                BroadcastKind::Eig,
                log,
            )
        });
        let mut want_rounds: Rounds = Vec::new();
        for &b in &participants {
            let bits = claims[&b].bits();
            eig::schedule(&participants, b, 2, |from, to| {
                let paths = router.paths_for(from, to);
                let hops = paths.iter().map(|p| p.len() - 1).max().unwrap();
                for hop in 0..hops {
                    let copies = paths.iter().filter(|p| hop + 1 < p.len());
                    want_rounds.push(copies.map(|p| (p[hop], p[hop + 1], bits)).collect());
                }
            });
        }
        assert_eq!(shared_rounds, want_rounds);
        assert_eq!(shared, claims, "relays follow the protocol");
        assert!(!crate::dispute::dc2_disputes(&shared).is_empty());
    }

    #[test]
    fn honest_claims_are_mutually_consistent() {
        let (g, trees, scheme, input) = complete_setup();
        let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        let eq = equality_one_stream(
            &g,
            &p1.values,
            &scheme,
            &BTreeSet::new(),
            &mut HonestStrategy,
        );
        let claims = honest_claims(&g, 0, &input, &trees, &scheme, &p1, &eq, &eq.flags);
        assert!(crate::dispute::dc2_disputes(&claims).is_empty());
        assert!(crate::dispute::dc3_exposed(&g, 0, &trees, &scheme, &claims).is_empty());
        // Claims have meaningful sizes.
        assert!(claims[&0].bits() > 0);
        assert_eq!(claims[&0].implied_value(trees.len()), input);
    }

    /// Grows every forwarded Phase-1 block by one symbol, so downstream
    /// nodes assemble values of unequal lengths.
    struct BlockStretcher;
    impl NabAdversary for BlockStretcher {
        fn phase1_forward(
            &mut self,
            _: usize,
            _: usize,
            _: usize,
            honest: &[Gf2_16],
        ) -> Vec<Gf2_16> {
            let mut out = honest.to_vec();
            out.push(Gf2_16(0x5A));
            out
        }
    }

    /// Tampering strategies for the equality oracle, by code.
    fn tamperer(code: u8, seed: u64) -> Box<dyn NabAdversary> {
        match code % 6 {
            0 => Box::new(HonestStrategy),
            1 => Box::new(TruthfulCorruptor),
            2 => Box::new(BlockStretcher),
            3 => Box::new(EqualityGarbler),
            4 => Box::new(EqualityTruncator),
            _ => Box::new(RandomStrategy::new(seed, 0.5)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 1024 }
        ))]

        /// The edge-indexed check against the column oracles where live
        /// edge ids are sparse: random `2f+1`-connected graphs (n ≤ 9,
        /// f ≤ 2) with 0 to f nodes removed, so `G_k`'s layout is not
        /// `G_1`'s, checked on a scratch that last ran on `G_1`; 1–3 value
        /// classes (a deviant symbol, a longer value); and faulty senders
        /// that corrupt Phase 1 only, garble or truncate their coded
        /// symbols. The flags, the duration bit for bit, `sends()` and the
        /// multiset of `link_bits` equal `equality_check_flags` and
        /// `encode_cols` with the same tampering.
        #[test]
        fn sparse_edge_ids_match_the_column_oracles(
            seed in any::<u64>(),
            f in 0usize..=2,
            extra in 0usize..=9,
            removed in 0usize..=2,
            classes in 1usize..=3,
            rho in 1usize..4,
            symbols in 1usize..40,
            code in 0u8..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = 2 * f + 1;
            let n = (3 * f + 1).max(2 * k.div_ceil(2) + 1);
            let n = n + extra % (10 - n);
            let g1 = gen::random_k_connected(n, k, 3, 0.3, &mut rng);
            let mut g = g1.clone();
            for _ in 0..removed.min(f) {
                g.remove_node(rng.gen_range(1..n));
            }
            let x = Value::random(symbols, &mut rng);
            let mut longer = x.symbols().to_vec();
            longer.push(Gf2_16(rng.gen_range(0..=0xFFFF)));
            let deviant = x.corrupt_symbol(rng.gen_range(0..symbols), rng.gen());
            let held = [x, deviant, Value::from_symbols(longer)];
            let values: BTreeMap<NodeId, Value> =
                g1.nodes().map(|v| (v, held[rng.gen_range(0..classes)].clone())).collect();
            let live: Vec<NodeId> = g.nodes().collect();
            let faulty: BTreeSet<NodeId> =
                (0..f).map(|_| live[rng.gen_range(0..live.len())]).collect();
            let adversary = || -> Box<dyn NabAdversary> {
                match code {
                    0 => Box::new(TruthfulCorruptor),
                    1 => Box::new(EqualityGarbler),
                    _ => Box::new(EqualityTruncator),
                }
            };

            let mut scratch = EqScratch::default();
            let scheme1 = CodingScheme::random(&g1, rho, seed ^ 1);
            let mut adv = adversary();
            run_equality_phase(&g1, &values, &scheme1, &faulty, adv.as_mut(), &mut scratch);
            let scheme = CodingScheme::random(&g, rho, seed);
            let mut adv = adversary();
            let eq = run_equality_phase(&g, &values, &scheme, &faulty, adv.as_mut(), &mut scratch);

            let (mut adv, mut sends, mut duration) = (adversary(), BTreeMap::new(), 0f64);
            let mut tamper = |i: NodeId, j: NodeId, honest: Vec<Gf2_16>| {
                let sent = if faulty.contains(&i) {
                    adv.equality_symbols(i, j, &honest)
                } else {
                    honest
                };
                sends.insert((i, j), sent.clone());
                sent
            };
            let flags =
                crate::equality::tests::equality_check_flags(&g, &values, &scheme, &mut tamper);
            let mut want_bits = Vec::new();
            for (id, e) in g.edges() {
                let bits = sends[&(e.src, e.dst)].len() as u64 * SYMBOL_BITS;
                duration = duration.max(bits as f64 / e.cap as f64);
                want_bits.push((id, bits));
            }
            let mut got_bits: Vec<(EdgeId, u64)> = eq.link_bits().collect();
            got_bits.sort_unstable();
            prop_assert_eq!(&eq.flags, &flags);
            prop_assert_eq!(eq.duration.to_bits(), duration.to_bits());
            prop_assert_eq!(eq.sends(), sends);
            prop_assert_eq!(got_bits, want_bits);
        }
    }

    proptest! {
        /// A clean check — every node holds the same value, no node is
        /// faulty — reads no product, yet `sends()` afterwards returns
        /// exactly `encode_cols`'s symbols on every edge.
        #[test]
        fn sends_after_a_clean_check_equal_encode_cols(
            seed in any::<u64>(),
            n in 5usize..9,
            k in 1usize..4,
            max_cap in 1u64..5,
            rho in 1usize..5,
            symbols in 1usize..400,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gen::random_k_connected(n, k, max_cap, 0.3, &mut rng);
            let scheme = CodingScheme::random(&g, rho, seed);
            let x = Value::random(symbols, &mut rng);
            let values: BTreeMap<usize, Value> = g.nodes().map(|v| (v, x.clone())).collect();
            let eq = run_equality_phase_batched(&g, &[&values], &scheme, &BTreeSet::new(), &mut [&mut HonestStrategy])
                .pop()
                .expect("one stream in, one outcome out");
            prop_assert!(eq.flags.values().all(|f| !f));
            let sends = eq.sends();
            prop_assert_eq!(sends.len(), g.edges().count());
            let cols = x.reshape(rho);
            for ((src, dst), symbols) in sends {
                prop_assert_eq!(symbols, scheme.encode_cols(src, dst, &cols), "edge ({}, {})", src, dst);
            }
        }

        /// Independent oracle for the one equality implementation: at Q = 1
        /// and Q = 3, under Phase-1 and equality-phase tampering (length
        /// changes included), `run_equality_phase_batched` yields per stream
        /// the flags of the pure `equality_check_flags` with the same tamper
        /// closure, and exactly the (tampered) `encode_cols` symbols as sends.
        /// A quarter of the cases stretch the value to thousands of symbols,
        /// so slab rows leave the scalar tail and run the vector kernel.
        #[test]
        fn batched_equality_matches_pure_oracle(
            seed in any::<u64>(),
            n in 4usize..7,
            cap in 1u64..4,
            rho in 1usize..4,
            symbols in 1usize..40,
            stretch in 0u8..4,
            three_streams in any::<bool>(),
            code in 0u8..6,
            bad in 0usize..7,
        ) {
            let symbols = if stretch == 0 { symbols * 100 + 3 } else { symbols };
            let g = gen::complete(n, cap);
            let gamma = bounds::gamma_k(&g, SOURCE);
            let trees = pack_arborescences(&g, SOURCE, gamma).expect("γ_1 is packable");
            let scheme = CodingScheme::random(&g, rho, seed);
            let faulty = BTreeSet::from([bad % n]);
            let q: u64 = if three_streams { 3 } else { 1 };
            let mut rng = StdRng::seed_from_u64(seed);
            // Per stream: Phase 1 under the tamperer gives each node its
            // (possibly corrupted, possibly longer) value.
            let values: Vec<BTreeMap<usize, Value>> = (0..q)
                .map(|s| {
                    let x = Value::random(symbols, &mut rng);
                    run_phase1(&g, SOURCE, &x, &trees, &faulty, tamperer(code, seed ^ s).as_mut()).values
                })
                .collect();
            let mut advs: Vec<Box<dyn NabAdversary>> =
                (0..q).map(|s| tamperer(code, seed.wrapping_add(s))).collect();
            let mut adv_refs: Vec<&mut dyn NabAdversary> =
                advs.iter_mut().map(|a| &mut **a as &mut dyn NabAdversary).collect();
            let value_refs: Vec<&BTreeMap<usize, Value>> = values.iter().collect();
            let got = run_equality_phase_batched(&g, &value_refs, &scheme, &faulty, &mut adv_refs);
            prop_assert_eq!(got.len(), q as usize);
            for (s, (eq, vals)) in got.iter().zip(&values).enumerate() {
                let mut adv = tamperer(code, seed.wrapping_add(s as u64));
                let mut sends = BTreeMap::new();
                let mut tamper = |i: usize, j: usize, honest: Vec<Gf2_16>| {
                    let sent = if faulty.contains(&i) {
                        adv.equality_symbols(i, j, &honest)
                    } else {
                        honest
                    };
                    sends.insert((i, j), sent.clone());
                    sent
                };
                let flags = crate::equality::tests::equality_check_flags(&g, vals, &scheme, &mut tamper);
                prop_assert_eq!(&eq.flags, &flags, "stream {} flags", s);
                prop_assert_eq!(&eq.sends(), &sends, "stream {} sends", s);
            }
        }
    }
}
