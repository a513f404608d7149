//! Phase 2: failure detection — the equality check on the wire (step 2.1)
//! and Byzantine broadcast of the 1-bit flags (step 2.2).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

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
use crate::netexec::PhaseClock;
use crate::value::{Value, SYMBOL_BITS};

/// What a sender put on one edge.
#[derive(Debug, Clone)]
enum Sent {
    /// The prescribed coded symbols, left in slab form: rows `rows`, the
    /// first `cols` columns of the `Yᵀ = Cᵀ · Xᵀ` product of the sender's
    /// value class.
    Coded {
        yt: Arc<Matrix<Gf2_16>>,
        rows: Range<usize>,
        cols: usize,
    },
    /// What a faulty sender chose to transmit, in wire order.
    Substituted(Vec<Gf2_16>),
}

impl Sent {
    fn len(&self) -> usize {
        match self {
            Sent::Coded { rows, cols, .. } => cols * rows.len(),
            Sent::Substituted(symbols) => symbols.len(),
        }
    }

    fn symbols(&self) -> Vec<Gf2_16> {
        match self {
            Sent::Coded { yt, rows, cols } => wire_order(yt, rows.clone(), *cols),
            Sent::Substituted(symbols) => symbols.clone(),
        }
    }
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
    sends: BTreeMap<(NodeId, NodeId), Sent>,
}

impl EqOutcome {
    /// Coded symbols actually transmitted per edge, in wire order. Built on
    /// request: the phase keeps honest transmissions in slab form, and
    /// only dispute control and tests read the symbols.
    pub fn sends(&self) -> BTreeMap<(NodeId, NodeId), Vec<Gf2_16>> {
        self.sends
            .iter()
            .map(|(&edge, sent)| (edge, sent.symbols()))
            .collect()
    }

    /// Bits transmitted per link, `(edge id in g, bits)`; a link `g` lacks
    /// gets an id no graph has.
    pub(crate) fn link_bits<'a>(
        &'a self,
        g: &'a DiGraph,
    ) -> impl Iterator<Item = (EdgeId, u64)> + 'a {
        self.sends.iter().map(|(&(src, dst), sent)| {
            let id = g.find_edge(src, dst).map_or(usize::MAX, |(id, _)| id);
            (id, sent.len() as u64 * SYMBOL_BITS)
        })
    }
}

/// Nodes holding equal values: they share one packed `Xᵀ` slab (in the
/// scratch), hence one product.
struct ValueClass<'a> {
    held: &'a Value,
    /// Columns of the packed slab.
    cols: usize,
    /// The row ranges of the scheme's stacked `Cᵀ` this class multiplies,
    /// in the order they stack in its product.
    coding_rows: Vec<Range<usize>>,
    /// Rows of the product so far.
    height: usize,
}

impl ValueClass<'_> {
    /// Adds an edge's rows of `Cᵀ` to this class's stack; returns where
    /// they land in its product.
    fn stack(&mut self, coding_rows: Range<usize>) -> Range<usize> {
        let at = self.height;
        self.height += coding_rows.len();
        self.coding_rows.push(coding_rows);
        at..self.height
    }
}

/// The equality check's working memory. An engine keeps one across its
/// instances, so from the second instance on the phase allocates nothing
/// proportional to `L`: every buffer is rewritten in place once the
/// previous instance's [`EqOutcome`] — which shares the products — is
/// gone.
#[derive(Debug, Clone, Default)]
pub(crate) struct EqScratch {
    classes: Vec<ClassBuffers>,
}

/// One value class's buffers.
#[derive(Debug, Clone, Default)]
struct ClassBuffers {
    /// The packed `Xᵀ`.
    slab: Matrix<Gf2_16>,
    /// The class's rows of `Cᵀ`, gathered — unused while the class
    /// multiplies the scheme's whole matrix.
    coding: Matrix<Gf2_16>,
    /// `Yᵀ = Cᵀ · Xᵀ`.
    product: Arc<Matrix<Gf2_16>>,
}

impl EqScratch {
    /// Where each class's slab and product live, to tell reuse from
    /// reallocation.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> Vec<[*const Gf2_16; 2]> {
        let at = |m: &Matrix<Gf2_16>| m.as_slice().as_ptr();
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
/// ROADMAP item 6b describes.
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
/// scheme's stacked coding matrix it needs: those of every edge whose
/// sender is in the class and, for an edge that crosses classes, the same
/// rows again in the receiver's class. Fault-free, there is one class and
/// `Cᵀ` is the scheme's matrix as it stands.
///
/// Per edge, the transmission is a (row range, column count) view into the
/// sender's product. When the receiver is in the same class its
/// expectation *is* that view: a fault-free sender then transmits exactly
/// what the receiver expects and no second multiply or compare is needed,
/// while a faulty sender's [`NabAdversary::equality_symbols`] output is
/// still compared against it. Across classes the two sides' views are
/// compared, each with its own column count (a length-tampering relay
/// leaves values of unequal lengths), so a length mismatch fails the
/// compare exactly like [`CodingScheme::check_cols`]. The flags equal
/// [`crate::equality::equality_check_flags`] and the sends equal
/// [`CodingScheme::encode_cols`] (`GF(2^16)` addition is exact XOR, so any
/// grouping of the same multiply-accumulates produces the same symbols),
/// which the differential proptests pin.
///
/// # Panics
///
/// Panics if some active node is missing a value.
pub(crate) fn run_equality_phase(
    gk: &DiGraph,
    values: &BTreeMap<NodeId, Value>,
    scheme: &CodingScheme,
    faulty: &BTreeSet<NodeId>,
    adv: &mut dyn NabAdversary,
    scratch: &mut EqScratch,
) -> EqOutcome {
    let rho = scheme.rho();

    let mut classes: Vec<ValueClass> = Vec::new();
    let mut class_of: BTreeMap<NodeId, usize> = BTreeMap::new();
    for v in gk.nodes() {
        let held = &values[&v];
        let class = classes
            .iter()
            .position(|c| c.held == held)
            .unwrap_or_else(|| {
                let class = classes.len();
                if scratch.classes.len() == class {
                    scratch.classes.push(ClassBuffers::default());
                }
                let cols = pack_slab(held, rho, &mut scratch.classes[class].slab);
                classes.push(ValueClass {
                    held,
                    cols,
                    coding_rows: Vec::new(),
                    height: 0,
                });
                class
            });
        class_of.insert(v, class);
    }

    // Per edge, where its transmission and its receiver's expectation sit
    // in their classes' products.
    let edges: Vec<_> = gk
        .edges()
        .map(|(_, e)| {
            let (sender, receiver) = (class_of[&e.src], class_of[&e.dst]);
            let coding_rows = scheme.rows(e.src, e.dst);
            let sent = classes[sender].stack(coding_rows.clone());
            let expected = if sender == receiver {
                sent.clone()
            } else {
                classes[receiver].stack(coding_rows)
            };
            (e, [sender, receiver], sent, expected)
        })
        .collect();

    for (class, buffers) in classes.iter().zip(&mut scratch.classes) {
        let whole = scheme.stacked();
        let in_order = class
            .coding_rows
            .iter()
            .try_fold(0, |at, rows| (rows.start == at).then_some(rows.end));
        let coding = if in_order == Some(whole.rows()) {
            whole
        } else {
            buffers.coding.reset(class.height, rho);
            let gathered = buffers.coding.as_mut_slice().chunks_exact_mut(rho);
            let needed = class.coding_rows.iter().flat_map(|rows| rows.clone());
            for (row, from) in gathered.zip(needed) {
                row.copy_from_slice(whole.row(from));
            }
            &buffers.coding
        };
        // Rewrite the last call's product where it lies unless an
        // `EqOutcome` of that call is still alive and reading it.
        let mut product = Arc::try_unwrap(std::mem::take(&mut buffers.product)).unwrap_or_default();
        coding.mat_mul_into(&buffers.slab, &mut product);
        buffers.product = Arc::new(product);
    }

    let mut out = EqOutcome {
        flags: gk.nodes().map(|v| (v, false)).collect(),
        duration: 0.0,
        sends: BTreeMap::new(),
    };
    let (mut multiplies, mut expectations_shared) = (0u32, 0u32);
    for (e, [sender, receiver], sent_rows, expected_rows) in edges {
        let shared = sender == receiver;
        multiplies += if shared { 1 } else { 2 };
        expectations_shared += u32::from(shared);
        let (ys, cols) = (&scratch.classes[sender].product, classes[sender].cols);
        let sent = || wire_order(ys, sent_rows.clone(), cols);
        let expected = || {
            let yd = &scratch.classes[receiver].product;
            wire_order(yd, expected_rows.clone(), classes[receiver].cols)
        };
        let sent = if faulty.contains(&e.src) {
            let symbols = adv.equality_symbols(e.src, e.dst, &sent());
            if symbols != expected() {
                out.flags.insert(e.dst, true);
            }
            Sent::Substituted(symbols)
        } else {
            if !shared && sent() != expected() {
                out.flags.insert(e.dst, true);
            }
            Sent::Coded {
                yt: Arc::clone(ys),
                rows: sent_rows.clone(),
                cols,
            }
        };
        // The synchronous round charge `max_e(bits_e / z_e)` —
        // identical to `NetSim::deliver_round` on the same sends.
        let bits = sent.len() as u64 * SYMBOL_BITS;
        out.duration = out.duration.max(bits as f64 / e.cap as f64);
        out.sends.insert((e.src, e.dst), sent);
    }
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
/// a [`FormulaClock`] behind the sink.
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
        // The engine's own clock type, so both share one instantiation.
        &mut PhaseClock::Formula(FormulaClock::default()),
    )
}

/// Runs step 2.2: one `Broadcast_Default` per participant of its 1-bit
/// flag, over the `2f+1`-disjoint-path emulated complete graph of the
/// *original* network (dispute-removed links still physically exist; NAB
/// only stops trusting them for its own phases). Every hop round is charged
/// to `sink`, which is also the clock [`FlagOutcome::duration`] is read
/// from.
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
    let mut chan = HopChannel {
        router,
        sink: &mut *sink,
    };
    let mut announced = BTreeMap::new();
    for &b in participants {
        let honest = computed_flags[&b];
        let flag = if faulty.contains(&b) {
            adv.flag(b, honest)
        } else {
            honest
        };
        announced.insert(b, flag);
        broadcast_in(kind, participants, b, f_residual, &flag, &mut chan, 1);
    }

    FlagOutcome {
        announced,
        duration: sink.elapsed(),
    }
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

    for (&(t, src, dst), block) in &p1.sends {
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
    use crate::adversary::{EqualityGarbler, FalseAlarm, HonestStrategy, TruthfulCorruptor};
    use crate::phase1::run_phase1;
    use nab_netgraph::arborescence::pack_arborescences;
    use nab_netgraph::flow::broadcast_rate;
    use nab_netgraph::gen;

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
            honest[..honest.len() - 1].to_vec()
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
        let oracle = crate::equality::equality_check_flags(
            &g,
            &values,
            &scheme,
            &mut crate::equality::no_tamper,
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
            let oracle = crate::equality::equality_check_flags(
                &g,
                values,
                &scheme,
                &mut crate::equality::no_tamper,
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
            let oracle = crate::equality::equality_check_flags(
                &g,
                &values,
                &scheme,
                &mut crate::equality::no_tamper,
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
}
