//! The analysis quantities of Sections 3 and 5: `Ω_k`, `U_k`, `ρ_k`,
//! `γ_k`, the reachable-graph family `Γ`, `γ*`, `ρ*`, the NAB throughput
//! lower bound (Eq. 6), and the capacity upper bound (Theorem 2).
//!
//! # `γ*` over closed dispute sets
//!
//! Section 5.1 / Appendix E define `γ* = min_{G_k ∈ Γ} γ_k`, where `Γ`
//! holds every graph dispute control can reach. A dispute set `D` (pairs
//! of adjacent nodes) can arise iff it has an *explanation*: a node set
//! of size ≤ `f` hitting every pair of `D` (the faulty nodes — a vertex
//! cover of `D`). Dispute control then removes the links of `D` and the
//! nodes in **every** explanation, so the member of `Γ` it reaches is
//! `Ψ(D) = G − I(D) − edges(D)`, with `I(D)` the intersection of all
//! explanations of `D`; members that lose the source end NAB with a
//! default output and constrain nothing.
//!
//! There are `Σ_F 2^{|incident(F)|}` explainable sets, but only a
//! polynomial number of them matter. For a family `𝒞` of node sets let
//! `D(𝒞)` be the adjacent pairs hit by every `C ∈ 𝒞`.
//!
//! **Lemma.** `γ*` is the minimum of `γ(Ψ(D))` over `D = ∅` and
//! `D = D(𝒞)` for the families `𝒞` of at most `f + 1` node sets of size
//! `1..=f`, each evaluated with its true `I(D(𝒞))`.
//!
//! *Proof.* (1) For a fixed `I`, deleting more pair-edges can only lower
//! every `MINCUT(source, v)`, so `D ⊆ D'` with `I(D) = I(D')` gives
//! `γ(Ψ(D')) ≤ γ(Ψ(D))`. (2) Let `ℰ` be the explanations of an
//! explainable `D` and `I = ⋂ℰ`. Some `𝒞 ⊆ ℰ` with `|𝒞| ≤ f + 1` has
//! `⋂𝒞 = I`: take any `C₁ ∈ ℰ` and, for each of its ≤ `f` nodes outside
//! `I`, one member of `ℰ` that omits it. (3) `D' = D(𝒞) ⊇ D`, because
//! every member of `ℰ` hits every pair of `D`. Its explanations all
//! explain `D` too (so `I(D') ⊇ I`) and include `𝒞` (so `I(D') ⊆ ⋂𝒞 =
//! I`): `I(D') = I`, and by (1) `D'` does at least as badly as `D`.
//! Conversely every non-empty `D(𝒞)` is explained by any `C ∈ 𝒞`, so it
//! is itself in `Γ`. ∎
//!
//! That is `1 + n + m` graphs at `f = 1` (`G`, one per node, one per
//! adjacent pair) and `O(n^{f(f+1)})` families for fixed `f`: 28
//! evaluations instead of 420 masks on `complete:7` at `f = 1`, 798
//! instead of ~43 000 at `f = 2`. Two sets with the same `(I, D ∖ δ(I))`
//! — `δ(I)` the pairs that vanish with `I` anyway — give the same graph
//! and are evaluated once. [`gamma_star`]'s `budget` counts exactly
//! those evaluations.

use std::collections::BTreeSet;

use nab_netgraph::flow::{broadcast_rate, FlowNet};
use nab_netgraph::globalcut::MinCutScratch;
use nab_netgraph::{DiGraph, NodeId, UnGraph};

/// An unordered node pair, stored sorted.
pub type Pair = (NodeId, NodeId);

/// Normalizes an unordered pair.
pub fn pair(a: NodeId, b: NodeId) -> Pair {
    (a.min(b), a.max(b))
}

/// Calls `visit` on every `k`-element subset of `items`, in lexicographic
/// order, each as a slice (in `items` order) of one reused buffer.
fn for_each_k_subset<T: Copy>(items: &[T], k: usize, mut visit: impl FnMut(&[T])) {
    if k > items.len() {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    let mut member: Vec<T> = items[..k].to_vec();
    loop {
        visit(&member);
        // Advance the rightmost index that still can; those after it
        // restart right behind it.
        let Some(i) = (0..k).rfind(|&i| idx[i] != i + items.len() - k) else {
            return;
        };
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
        for j in i..k {
            member[j] = items[idx[j]];
        }
    }
}

/// All `k`-element subsets of `items`, in lexicographic order.
pub fn k_subsets<T: Copy + Ord>(items: &[T], k: usize) -> Vec<BTreeSet<T>> {
    let mut out = Vec::new();
    for_each_k_subset(items, k, |member| {
        out.push(member.iter().copied().collect())
    });
    out
}

/// Calls `visit` on every member of `Ω_k` (see [`omega_subsets`]), in
/// lexicographic order, each as an ascending slice of one reused buffer.
fn for_each_omega(
    g: &DiGraph,
    f: usize,
    disputes: &BTreeSet<Pair>,
    mut visit: impl FnMut(&[NodeId]),
) {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let want = g.node_count().saturating_sub(f);
    for_each_k_subset(&nodes, want, |h| {
        let has = |v: &NodeId| h.binary_search(v).is_ok();
        if !disputes.iter().any(|(a, b)| a != b && has(a) && has(b)) {
            visit(h);
        }
    });
}

/// The set `Ω_k`: all `(n − f)`-node subsets of the active nodes of `g`
/// such that no two members have been found in dispute (Section 3).
///
/// `n` is the size of the graph's original node universe, per the paper.
pub fn omega_subsets(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Vec<BTreeSet<NodeId>> {
    let mut out = Vec::new();
    for_each_omega(g, f, disputes, |h| out.push(h.iter().copied().collect()));
    out
}

/// `U_k`: the minimum pairwise min cut of the undirected views of all
/// subgraphs in `Ω_k`. `None` when `Ω_k` is empty or degenerate.
///
/// The all-pairs minimum inside each subgraph is its *global* min cut.
/// All members of `Ω_k` are selections from one undirected view of `g`,
/// visited one at a time without materialising `Ω_k`, each cut by
/// [`MinCutScratch::min_cut`] bounded by the minimum over the members
/// before it; the flow-based brute force remains as the tests' oracle.
pub fn u_k(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Option<u64> {
    let view = UnGraph::from_digraph(g);
    let mut scratch = MinCutScratch::default();
    let mut best: Option<u64> = None;
    for_each_omega(g, f, disputes, |h| {
        if h.len() >= 2 {
            best = Some(scratch.min_cut(&view, h, best.unwrap_or(u64::MAX)));
        }
    });
    best
}

/// `ρ_k = ⌊U_k / 2⌋`, the equality-check parameter for the current graph.
/// `None` when `U_k < 2` (the equality check needs at least one symbol per
/// link budget — such networks violate the paper's capacity assumptions).
pub fn rho_k(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Option<u64> {
    match u_k(g, f, disputes) {
        Some(u) if u >= 2 => Some(u / 2),
        _ => None,
    }
}

/// `γ_k = min_j MINCUT(G_k, source, j)`: the Phase-1 broadcast rate.
pub fn gamma_k(g: &DiGraph, source: NodeId) -> u64 {
    broadcast_rate(g, source)
}

/// `ρ* = ⌊U_1/2⌋` computed on the original graph with no disputes; this
/// lower-bounds every `ρ_k` because `Ω_k ⊆ Ω_1` (Appendix C.2).
pub fn rho_star(g: &DiGraph, f: usize) -> Option<u64> {
    rho_k(g, f, &BTreeSet::new())
}

/// Result of the `γ*` computation over the reachable-graph family `Γ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GammaStar {
    /// The minimum broadcast rate over the family examined.
    pub value: u64,
    /// Whether all of `Γ` was covered (`true`), or the closed dispute
    /// sets outnumbered the budget and only `G` and the node-removal
    /// subfamily were evaluated (`false`; the value is then an upper
    /// bound on the true `γ*`, and depends on neither the budget nor any
    /// enumeration order).
    pub exact: bool,
}

/// A set of adjacent pairs, as a bitset over their indices.
type PairSet = Vec<u64>;

fn intersect(a: &PairSet, b: &PairSet) -> PairSet {
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

fn has(set: &PairSet, i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// The closed dispute sets of `(g, f)` (module docs), and the classes
/// `(I(D), D ∖ δ(I(D)))` of those that constrain `γ*`.
struct DisputeFamily {
    f: usize,
    source: NodeId,
    /// The adjacent pairs of `g`, sorted.
    pairs: Vec<Pair>,
    /// Per node id: the pairs it is an endpoint of.
    touch: Vec<PairSet>,
    /// Per candidate faulty set (`1 ≤ |C| ≤ f`): the pairs it hits.
    hits: Vec<PairSet>,
    /// Distinct `Ψ(D)` found so far, each named by its removed nodes and
    /// the removed pairs not already gone with them.
    classes: BTreeSet<(Vec<NodeId>, PairSet)>,
}

impl DisputeFamily {
    fn new(g: &DiGraph, source: NodeId, f: usize) -> DisputeFamily {
        let pairs: Vec<Pair> = g
            .edges()
            .map(|(_, e)| pair(e.src, e.dst))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let words = pairs.len().div_ceil(64);
        let mut touch = vec![vec![0u64; words]; g.node_count()];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            touch[a][i / 64] |= 1 << (i % 64);
            touch[b][i / 64] |= 1 << (i % 64);
        }
        let nodes: Vec<NodeId> = g.nodes().collect();
        let hits = (1..=f)
            .flat_map(|size| k_subsets(&nodes, size))
            .map(|c| {
                c.iter().fold(vec![0u64; words], |acc, &v| {
                    acc.iter().zip(&touch[v]).map(|(x, y)| x | y).collect()
                })
            })
            .collect();
        DisputeFamily {
            f,
            source,
            pairs,
            touch,
            hits,
            classes: BTreeSet::new(),
        }
    }

    /// `I(D)`: the nodes every vertex cover of `d` of size ≤ `f` contains,
    /// sorted. Covers come from `d` itself — branch on an endpoint of an
    /// uncovered pair, depth ≤ `f` — which reaches every minimal cover;
    /// the non-minimal ones contain a minimal one and change nothing.
    ///
    /// # Panics
    ///
    /// Panics if `d` has no such cover.
    fn implied(&self, d: &PairSet) -> Vec<NodeId> {
        fn search(d: &[Pair], f: usize, cover: &mut Vec<NodeId>, acc: &mut Option<Vec<NodeId>>) {
            if acc.as_ref().is_some_and(|i| i.is_empty()) {
                return;
            }
            let open = d
                .iter()
                .find(|(a, b)| !cover.contains(a) && !cover.contains(b));
            match (open, acc.as_mut()) {
                (None, Some(i)) => i.retain(|v| cover.contains(v)),
                (None, None) => *acc = Some(cover.clone()),
                (Some(&(a, b)), _) if cover.len() < f => {
                    for v in [a, b] {
                        cover.push(v);
                        search(d, f, cover, acc);
                        cover.pop();
                    }
                }
                (Some(_), _) => {}
            }
        }
        let d: Vec<Pair> = (0..self.pairs.len())
            .filter(|&i| has(d, i))
            .map(|i| self.pairs[i])
            .collect();
        let mut acc = None;
        search(&d, self.f, &mut Vec::new(), &mut acc);
        #[expect(
            clippy::expect_used,
            reason = "every caller passes D(𝒞) of a non-empty family, which each of its members covers"
        )]
        let mut implied = acc.expect("a dispute set is covered by every member of its family");
        implied.sort_unstable();
        implied
    }

    /// Files `Ψ(d)` under its class, unless it lost the source (such
    /// graphs end NAB with a default output and constrain nothing).
    fn record(&mut self, d: &PairSet) {
        let implied = self.implied(d);
        if implied.contains(&self.source) {
            return;
        }
        let rest = implied.iter().fold(d.clone(), |acc, &v| {
            acc.iter()
                .zip(&self.touch[v])
                .map(|(x, y)| x & !y)
                .collect()
        });
        self.classes.insert((implied, rest));
    }

    /// Records `D(𝒞 ∪ {C_j})` for every `j ≥ from`, and recurses while
    /// the family may take `more` members after that one; `d` is `D(𝒞)`,
    /// `None` for the empty family. Returns `false` as soon as more than
    /// `budget` classes are on file.
    fn extend(&mut self, from: usize, more: usize, d: Option<&PairSet>, budget: usize) -> bool {
        for j in from..self.hits.len() {
            let next = d.map_or_else(|| self.hits[j].clone(), |d| intersect(d, &self.hits[j]));
            // ∅ is `G` itself, and stays ∅ under every extension; an
            // unchanged set is reached without `C_j`, with a member to
            // spare.
            if next.iter().all(|&w| w == 0) || d == Some(&next) {
                continue;
            }
            self.record(&next);
            if self.classes.len() > budget
                || (more > 0 && !self.extend(j + 1, more - 1, Some(&next), budget))
            {
                return false;
            }
        }
        true
    }

    /// Refills `classes` from every family of `1..=members` candidate
    /// sets; `false` (with `classes` meaningless) once they outnumber
    /// `budget`.
    fn closed_sets(&mut self, members: usize, budget: usize) -> bool {
        self.classes.clear();
        self.extend(0, members - 1, None, budget)
    }
}

/// Computes `γ* = min_{G_k ∈ Γ} γ_k` (Section 5.1 / Appendix E) over the
/// closed dispute sets of the module docs, all evaluated on one shared
/// flow network with every flow capped at the running minimum.
///
/// `budget` caps the number of distinct closed dispute sets *evaluated*
/// (those whose `Ψ` keeps the source; `G` itself is free). The count is
/// taken before any flow runs: within budget the result is exact; beyond
/// it the value is the minimum over `G` and the node-removal subfamily
/// (`D` = all pairs incident to one candidate `F`) only — still members
/// of `Γ`, so an upper bound on `γ*` — and `exact` is `false`.
pub fn gamma_star(g: &DiGraph, source: NodeId, f: usize, budget: usize) -> GammaStar {
    gamma_star_below(g, source, f, budget, gamma_k(g, source))
}

/// [`gamma_star`] given `γ_1`, the rate of the `D = ∅` member of `Γ`.
fn gamma_star_below(
    g: &DiGraph,
    source: NodeId,
    f: usize,
    budget: usize,
    gamma1: u64,
) -> GammaStar {
    let mut family = DisputeFamily::new(g, source, f);
    let exact = family.closed_sets(f + 1, budget);
    if !exact {
        // The node-removal subfamily: `D` = all pairs incident to one
        // candidate `F`, which removes exactly `F` whenever each of its
        // members has more than `f` neighbours.
        family.closed_sets(1, usize::MAX);
    }

    let mut net = FlowNet::from_digraph(g);
    // Per arc `2k`: its endpoints and the index of its pair.
    #[expect(
        clippy::expect_used,
        reason = "`pairs` was collected from these same edges"
    )]
    let arcs: Vec<(NodeId, NodeId, usize)> = g
        .edges()
        .map(|(_, e)| {
            let p = family.pairs.binary_search(&pair(e.src, e.dst));
            (e.src, e.dst, p.expect("every edge joins an adjacent pair"))
        })
        .collect();
    let mut best = gamma1;
    for (implied, d) in &family.classes {
        let live = |v: &NodeId| !implied.contains(v);
        let mut sinks = g.nodes().filter(|v| *v != source && live(v)).peekable();
        if sinks.peek().is_none() {
            best = 0; // Ψ(D) is the source alone
        }
        let keep = |arc: usize| {
            let (u, v, p) = arcs[arc / 2];
            live(&u) && live(&v) && !has(d, p)
        };
        best = net.min_cut_to_sinks(source, sinks, keep, best);
    }
    GammaStar { value: best, exact }
}

/// The NAB throughput lower bound of Eq. 6: `γ*ρ*/(γ* + ρ*)`.
pub fn tnab_lower_bound(gamma_star: u64, rho_star: u64) -> f64 {
    if gamma_star == 0 || rho_star == 0 {
        return 0.0;
    }
    (gamma_star as f64 * rho_star as f64) / (gamma_star as f64 + rho_star as f64)
}

/// Theorem 2's capacity upper bound: `C_BB ≤ min(γ*, 2ρ*)`.
pub fn capacity_upper_bound(gamma_star: u64, rho_star: u64) -> u64 {
    gamma_star.min(2 * rho_star)
}

/// Everything Theorem 3 needs, bundled.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsReport {
    /// `γ_1` on the original graph.
    pub gamma1: u64,
    /// `γ*` over the reachable family.
    pub gamma_star: GammaStar,
    /// `U_1` on the original graph.
    pub u1: u64,
    /// `ρ* = ⌊U_1/2⌋`.
    pub rho_star: u64,
    /// `γ*ρ*/(γ*+ρ*)` (Eq. 6).
    pub tnab_lower: f64,
    /// `min(γ*, 2ρ*)` (Theorem 2).
    pub capacity_upper: u64,
    /// `tnab_lower / capacity_upper` — Theorem 3 guarantees ≥ 1/3, and
    /// ≥ 1/2 when `γ* ≤ ρ*`.
    pub guaranteed_fraction: f64,
}

/// Computes the full bounds report for a network.
///
/// Returns `None` when `ρ*` is undefined (`U_1 < 2`).
pub fn bounds_report(g: &DiGraph, source: NodeId, f: usize, budget: usize) -> Option<BoundsReport> {
    bounds_report_given(g, source, f, budget, gamma_k(g, source))
}

/// [`bounds_report`] for a caller that already holds `γ_1` (a plan does).
pub(crate) fn bounds_report_given(
    g: &DiGraph,
    source: NodeId,
    f: usize,
    budget: usize,
    gamma1: u64,
) -> Option<BoundsReport> {
    let u1 = u_k(g, f, &BTreeSet::new()).filter(|&u| u >= 2)?;
    let gs = gamma_star_below(g, source, f, budget, gamma1);
    let rs = u1 / 2;
    let t = tnab_lower_bound(gs.value, rs);
    let c = capacity_upper_bound(gs.value, rs);
    Some(BoundsReport {
        gamma1,
        gamma_star: gs,
        u1,
        rho_star: rs,
        tnab_lower: t,
        capacity_upper: c,
        guaranteed_fraction: if c == 0 { 0.0 } else { t / c as f64 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::flow::min_cut_undirected;
    use nab_netgraph::gen;

    /// Flow-based oracle for [`u_k`]: one max-flow per node pair per
    /// subgraph.
    fn u_k_brute_force(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Option<u64> {
        let mut best: Option<u64> = None;
        for h_nodes in omega_subsets(g, f, disputes) {
            let h = g.induced_subgraph(&h_nodes);
            let uh = UnGraph::from_digraph(&h);
            let nodes: Vec<NodeId> = uh.nodes().collect();
            if nodes.len() < 2 {
                continue;
            }
            for i in 0..nodes.len() {
                for j in (i + 1)..nodes.len() {
                    let c = min_cut_undirected(&uh, nodes[i], nodes[j]);
                    best = Some(best.map_or(c, |b| b.min(c)));
                }
            }
        }
        best
    }

    #[test]
    fn k_subsets_counts() {
        let items = [1, 2, 3, 4];
        assert_eq!(k_subsets(&items, 2).len(), 6);
        assert_eq!(k_subsets(&items, 0).len(), 1);
        assert_eq!(k_subsets(&items, 4).len(), 1);
        assert_eq!(k_subsets(&items, 5).len(), 0);
    }

    #[test]
    fn omega_on_paper_example() {
        // Figure 1(b): nodes 2,3 (ids 1,2) in dispute; n=4, f=1 → Ω_k has
        // exactly the two subgraphs {1,2,4} and {1,3,4} (ids {0,1,3} and
        // {0,2,3}).
        let g = gen::figure_1b();
        let disputes = BTreeSet::from([pair(1, 2)]);
        let omega = omega_subsets(&g, 1, &disputes);
        assert_eq!(omega.len(), 2);
        assert!(omega.contains(&BTreeSet::from([0, 1, 3])));
        assert!(omega.contains(&BTreeSet::from([0, 2, 3])));
    }

    #[test]
    fn uk_matches_brute_force_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Debug builds keep the small cases; CI's release-mode `bounds::`
        // step runs the full set.
        let heavy = !cfg!(debug_assertions);
        let mut rng = StdRng::seed_from_u64(88);
        let (mut defined, mut disputed, mut values) = (0, 0, BTreeSet::new());
        for trial in 0..if heavy { 240 } else { 40 } {
            let n = rng.gen_range(5..=if heavy { 9 } else { 7 });
            let mut g = match trial % 4 {
                0 => gen::random_connected(n, 0.6, 3, &mut rng),
                1 => gen::complete_heterogeneous(n, 1, 6, &mut rng),
                2 => gen::random_k_connected(n, 3, 4, 0.3, &mut rng),
                _ => gen::complete(n, 2),
            };
            // Dispute control's state: disputed pairs lose their links and
            // leave `Ω_k`; an exposed node leaves the graph.
            let mut disputes = BTreeSet::new();
            for _ in 0..rng.gen_range(0..=3) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    g.remove_edges_between(a, b);
                    disputes.insert(pair(a, b));
                }
            }
            if trial % 5 == 4 {
                g.remove_node(rng.gen_range(1..n));
            }
            for f in 1..=2 {
                let fast = u_k(&g, f, &disputes);
                assert_eq!(
                    fast,
                    u_k_brute_force(&g, f, &disputes),
                    "f={f} disputes={disputes:?} {g:?}"
                );
                defined += usize::from(fast.is_some());
                disputed += usize::from(fast.is_some() && !disputes.is_empty());
                values.extend(fast);
            }
        }
        assert!(defined >= 30 && disputed >= 10, "{defined} / {disputed}");
        assert!(values.len() >= 5, "only saw U_k ∈ {values:?}");
        let disputes = BTreeSet::from([pair(1, 2)]);
        let g = gen::figure_1b();
        assert_eq!(u_k(&g, 1, &disputes), u_k_brute_force(&g, 1, &disputes));
    }

    #[test]
    fn uk_on_paper_example_is_2() {
        // The paper states U_k = 2 for this configuration.
        let g = gen::figure_1b();
        let disputes = BTreeSet::from([pair(1, 2)]);
        assert_eq!(u_k(&g, 1, &disputes), Some(2));
        assert_eq!(rho_k(&g, 1, &disputes), Some(1));
    }

    #[test]
    fn omega_without_disputes_is_all_subsets() {
        let g = gen::figure_1a();
        let omega = omega_subsets(&g, 1, &BTreeSet::new());
        assert_eq!(omega.len(), 4); // C(4,3)
    }

    #[test]
    fn gamma_star_on_complete_graph() {
        // K4 unit caps: γ_1 = 3. Removing a non-source node leaves K3 with
        // γ = 2; dispute subsets reduce further but never isolate anyone.
        let g = gen::complete(4, 1);
        let gs = gamma_star(&g, 0, 1, 1 << 20);
        assert!(gs.exact);
        assert!(
            gs.value >= 1,
            "K4 should keep positive rate, got {}",
            gs.value
        );
        assert!(gs.value <= 2);
    }

    /// The definition of `γ*` executed literally — the oracle for
    /// [`gamma_star`]: every non-empty subset `D` of the pairs incident
    /// to every candidate `F`, each on its own copy of the graph. `None`
    /// when more than `budget` dispute sets would be needed.
    fn gamma_star_brute_force(g: &DiGraph, source: NodeId, f: usize, budget: usize) -> Option<u64> {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut best = broadcast_rate(g, source); // D = ∅ (i.e. Γ ∋ G itself)
        let mut seen: BTreeSet<Vec<Pair>> = BTreeSet::new();
        for fset in (1..=f).flat_map(|size| k_subsets(&nodes, size)) {
            let incident: Vec<Pair> = g
                .edges()
                .filter(|(_, e)| fset.contains(&e.src) || fset.contains(&e.dst))
                .map(|(_, e)| pair(e.src, e.dst))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            if (1usize << incident.len().min(24)) > budget {
                return None;
            }
            for mask in 1u64..(1u64 << incident.len()) {
                let d: Vec<Pair> = incident
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &p)| p)
                    .collect();
                if !seen.insert(d.clone()) {
                    continue;
                }
                if seen.len() > budget {
                    return None;
                }
                if let Some(rate) = psi_rate(g, source, f, &d, &nodes) {
                    best = best.min(rate);
                }
            }
        }
        Some(best)
    }

    /// The broadcast rate of `Ψ(D)`: `g` minus the edges of the dispute
    /// pairs `d`, minus the nodes present in every explanation of `d`.
    /// `None` when `Ψ(D)` does not contain the source.
    fn psi_rate(
        g: &DiGraph,
        source: NodeId,
        f: usize,
        d: &[Pair],
        nodes: &[NodeId],
    ) -> Option<u64> {
        // Explanations: all subsets of size ≤ f covering every pair.
        let mut implied: Option<BTreeSet<NodeId>> = None;
        for size in 0..=f {
            for fset in k_subsets(nodes, size) {
                if d.iter()
                    .all(|&(a, b)| fset.contains(&a) || fset.contains(&b))
                {
                    implied = Some(match implied {
                        None => fset,
                        Some(acc) => acc.intersection(&fset).copied().collect(),
                    });
                }
            }
        }
        let implied = implied?; // unexplainable D cannot arise
        if implied.contains(&source) {
            return None;
        }
        let mut psi = g.clone();
        for &(a, b) in d {
            psi.remove_edges_between(a, b);
        }
        for &v in &implied {
            psi.remove_node(v);
        }
        if !psi.all_reachable_from(source) {
            return Some(0);
        }
        Some(broadcast_rate(&psi, source))
    }

    #[test]
    fn gamma_star_matches_brute_force_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // The oracle is exponential in the degree; the 7+-node f = 2
        // cases take ~0.5 s each optimised and far longer in a debug
        // build, so CI runs them in release (`cargo test --release
        // bounds::`) and the debug job keeps the small ones.
        let heavy = !cfg!(debug_assertions);
        let mut rng = StdRng::seed_from_u64(16);
        let mut graphs = vec![
            gen::figure_1a(),
            gen::figure_1b(),
            gen::barbell(3, 5, 2, 1),
            gen::circulant(7, 2, 2),
        ];
        for n in 5..=7 {
            for _ in 0..if heavy { 6 } else { 2 } {
                graphs.push(gen::random_connected(n, 0.6, 3, &mut rng));
                graphs.push(gen::random_connected(n, 0.9, 2, &mut rng));
            }
            graphs.push(gen::complete_heterogeneous(n, 1, 4, &mut rng));
        }
        if heavy {
            graphs.push(gen::barbell(4, 10, 3, 2));
            graphs.push(gen::circulant(10, 2, 2));
        }
        for g in &graphs {
            let n = g.active_count();
            for f in 1..=2 {
                if f == 2 && n > 6 && !heavy {
                    continue;
                }
                // Every candidate F is enumerated, with and without the
                // source in it; two sources vary which side it falls on.
                for source in [0, n - 1] {
                    let Some(oracle) = gamma_star_brute_force(g, source, f, 1 << 24) else {
                        panic!("oracle budget too small for {g:?}");
                    };
                    assert_eq!(
                        gamma_star(g, source, f, 1 << 24),
                        GammaStar {
                            value: oracle,
                            exact: true
                        },
                        "source={source} f={f} {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_sets_are_few_and_complete_7_2_becomes_exact() {
        // 1 + n + m graphs at f = 1 (G is free, and Ψ(δ(source)) has no
        // source): 6 + 21 on K7.
        let mut k7 = DisputeFamily::new(&gen::complete(7, 1), 0, 1);
        assert!(k7.closed_sets(2, usize::MAX));
        assert_eq!(k7.classes.len(), 27);
        // The mask walk tripped the default budget on K7 at f = 2.
        let g = gen::complete(7, 2);
        assert_eq!(gamma_star_brute_force(&g, 0, 2, 1 << 14), None);
        assert_eq!(
            gamma_star(&g, 0, 2, 1 << 14),
            GammaStar {
                value: 8,
                exact: true
            }
        );
        assert_eq!(
            gamma_star(&gen::complete(8, 1), 0, 2, 1 << 14),
            GammaStar {
                value: 5,
                exact: true
            }
        );
    }

    #[test]
    fn budget_trip_value_is_budget_independent() {
        let g = gen::complete(7, 2);
        let exact = gamma_star(&g, 0, 2, 1 << 14);
        let a = gamma_star(&g, 0, 2, 3);
        let b = gamma_star(&g, 0, 2, 500);
        assert!(exact.exact);
        assert!(!a.exact);
        assert_eq!(a, b);
        assert!(a.value >= exact.value);
    }

    #[test]
    fn gamma_star_never_exceeds_gamma1() {
        let g = gen::figure_1a();
        let gs = gamma_star(&g, 0, 1, 1 << 20);
        assert!(gs.value <= gamma_k(&g, 0));
    }

    #[test]
    fn budget_fallback_is_upper_bound() {
        let g = gen::complete(5, 2);
        let exact = gamma_star(&g, 0, 1, 1 << 22);
        let approx = gamma_star(&g, 0, 1, 2);
        assert!(exact.exact);
        assert!(!approx.exact);
        assert!(approx.value >= exact.value);
    }

    #[test]
    fn tnab_and_capacity_formulas() {
        assert_eq!(tnab_lower_bound(2, 2), 1.0);
        assert_eq!(tnab_lower_bound(6, 3), 2.0);
        assert_eq!(tnab_lower_bound(0, 5), 0.0);
        assert_eq!(capacity_upper_bound(5, 2), 4);
        assert_eq!(capacity_upper_bound(3, 2), 3);
    }

    #[test]
    fn theorem3_fraction_on_families() {
        // Theorem 3: the guaranteed fraction is ≥ 1/3 always, ≥ 1/2 when
        // γ* ≤ ρ*.
        for g in [gen::complete(4, 1), gen::complete(4, 3), gen::figure_1a()] {
            let Some(rep) = bounds_report(&g, 0, 1, 1 << 20) else {
                continue;
            };
            assert!(
                rep.guaranteed_fraction >= 1.0 / 3.0 - 1e-9,
                "fraction {} below 1/3 on {g:?}",
                rep.guaranteed_fraction
            );
            if rep.gamma_star.value <= rep.rho_star {
                assert!(rep.guaranteed_fraction >= 0.5 - 1e-9);
            }
        }
    }

    /// `(γ_1, γ*, U_1)` at the default budget for every network a bundled
    /// `bounds = true` scenario instantiates plus the neighbouring
    /// families; the derived fields follow from these three. Captured at
    /// the commit before the closed-set enumeration (PR 16) — all seven
    /// `BoundsReport` fields must stay bit-identical wherever `γ*` is
    /// exact.
    #[test]
    fn bounds_report_goldens() {
        const DEFAULT_BUDGET: usize = 1 << 14;
        let mut fig2a_closed = gen::figure_2a();
        fig2a_closed.add_edge(3, 0, 1);
        fig2a_closed.add_edge(2, 1, 1);
        type Gold = (u64, u64, u64); // (γ_1, γ*, U_1)
        let mut cases: Vec<(String, DiGraph, usize, Gold)> = vec![
            ("fig1a".into(), gen::figure_1a(), 0, (2, 2, 3)),
            ("fig2a-closed".into(), fig2a_closed, 0, (2, 2, 3)),
            (
                "circulant:10:2:2".into(),
                gen::circulant(10, 2, 2),
                1,
                (8, 6, 12),
            ),
        ];
        for (n, cap, gold) in [
            (4, 1, (3, 2, 4)),
            (4, 4, (12, 8, 16)),
            (5, 1, (4, 3, 6)),
            (5, 4, (16, 12, 24)),
            (6, 1, (5, 4, 8)),
            (6, 4, (20, 16, 32)),
            (7, 1, (6, 5, 10)),
            (7, 4, (24, 20, 40)),
        ] {
            cases.push((
                format!("complete:{n}:{cap}"),
                gen::complete(n, cap),
                1,
                gold,
            ));
        }
        for (half, bridge_cap, gold) in [
            (4, 1, (3, 2, 4)),
            (4, 2, (6, 4, 8)),
            (5, 1, (3, 2, 4)),
            (5, 2, (6, 4, 8)),
        ] {
            cases.push((
                format!("barbell:{half}:10:3:{bridge_cap}"),
                gen::barbell(half, 10, 3, bridge_cap),
                1,
                gold,
            ));
        }
        for (name, g, f, (gamma1, gs, u1)) in cases {
            let rho_star = u1 / 2;
            let tnab_lower = (gs * rho_star) as f64 / (gs + rho_star) as f64;
            let capacity_upper = gs.min(2 * rho_star);
            assert_eq!(
                bounds_report(&g, 0, f, DEFAULT_BUDGET),
                Some(BoundsReport {
                    gamma1,
                    gamma_star: GammaStar {
                        value: gs,
                        exact: true
                    },
                    u1,
                    rho_star,
                    tnab_lower,
                    capacity_upper,
                    guaranteed_fraction: tnab_lower / capacity_upper as f64,
                }),
                "{name} f={f}"
            );
        }
        // Spot values written out in full, so the derivation above cannot
        // drift together with the code under test.
        assert_eq!(
            bounds_report(&gen::figure_1a(), 0, 0, DEFAULT_BUDGET).map(|r| (
                r.tnab_lower,
                r.capacity_upper,
                r.guaranteed_fraction
            )),
            Some((0.6666666666666666, 2, 0.3333333333333333))
        );
        assert_eq!(
            bounds_report(&gen::complete(5, 1), 0, 1, DEFAULT_BUDGET).map(|r| (
                r.tnab_lower,
                r.capacity_upper,
                r.guaranteed_fraction
            )),
            Some((1.5, 3, 0.5))
        );
        // Figure 1(b) has U_1 < 2 at f = 1 (no report), and a dispute set
        // that disconnects a node, so γ* = 0.
        let fig1b = gen::figure_1b();
        assert_eq!(bounds_report(&fig1b, 0, 1, DEFAULT_BUDGET), None);
        assert_eq!(
            gamma_star(&fig1b, 0, 1, DEFAULT_BUDGET),
            GammaStar {
                value: 0,
                exact: true
            }
        );
    }

    #[test]
    fn bounds_report_fields_consistent() {
        let g = gen::complete(4, 2);
        let rep = bounds_report(&g, 0, 1, 1 << 20).unwrap();
        assert_eq!(rep.rho_star, rep.u1 / 2);
        assert!(rep.gamma_star.value <= rep.gamma1);
        assert!(rep.capacity_upper <= rep.gamma_star.value.min(2 * rep.rho_star));
        assert!((0.0..=1.0).contains(&rep.guaranteed_fraction));
    }
}
