//! The analysis quantities of Sections 3 and 5: `Ω_k`, `U_k`, `ρ_k`,
//! `γ_k`, the reachable-graph family `Γ`, `γ*`, `ρ*`, the NAB throughput
//! lower bound (Eq. 6), and the capacity upper bound (Theorem 2).

use std::collections::BTreeSet;

use nab_netgraph::flow::{broadcast_rate, min_cut_undirected};
use nab_netgraph::{DiGraph, NodeId, UnGraph};

/// An unordered node pair, stored sorted.
pub type Pair = (NodeId, NodeId);

/// Normalizes an unordered pair.
pub fn pair(a: NodeId, b: NodeId) -> Pair {
    (a.min(b), a.max(b))
}

/// All `k`-element subsets of `items`, in lexicographic order.
pub fn k_subsets<T: Copy + Ord>(items: &[T], k: usize) -> Vec<BTreeSet<T>> {
    let mut out = Vec::new();
    if k > items.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// The set `Ω_k`: all `(n − f)`-node subsets of the active nodes of `g`
/// such that no two members have been found in dispute (Section 3).
///
/// `n` is the size of the graph's original node universe, per the paper.
pub fn omega_subsets(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Vec<BTreeSet<NodeId>> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let want = g.node_count().saturating_sub(f);
    k_subsets(&nodes, want)
        .into_iter()
        .filter(|h| {
            h.iter()
                .all(|&a| h.iter().all(|&b| a >= b || !disputes.contains(&pair(a, b))))
        })
        .collect()
}

/// `U_k`: the minimum pairwise min cut of the undirected views of all
/// subgraphs in `Ω_k`. `None` when `Ω_k` is empty or degenerate.
///
/// The all-pairs minimum inside each subgraph is its *global* min cut,
/// computed with Stoer–Wagner; the flow-based brute force remains as a
/// test oracle ([`u_k_brute_force`]).
pub fn u_k(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Option<u64> {
    let mut best: Option<u64> = None;
    for h_nodes in omega_subsets(g, f, disputes) {
        let h = g.induced_subgraph(&h_nodes);
        let uh = UnGraph::from_digraph(&h);
        if let Some(c) = nab_netgraph::globalcut::global_min_cut_value(&uh) {
            best = Some(best.map_or(c, |b| b.min(c)));
        }
    }
    best
}

/// Flow-based oracle for [`u_k`] (one max-flow per node pair per
/// subgraph). Exposed for tests and cross-validation only.
pub fn u_k_brute_force(g: &DiGraph, f: usize, disputes: &BTreeSet<Pair>) -> Option<u64> {
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
    /// Whether the full dispute-pattern family was enumerated (`true`) or
    /// only the node-removal subfamily (`false`, used when the exact
    /// enumeration exceeds the work budget; the value is then an upper
    /// bound on the true `γ*`).
    pub exact: bool,
}

/// Computes `γ* = min_{G_k ∈ Γ} γ_k` (Section 5.1 / Appendix E).
///
/// `Γ` contains every graph reachable by dispute control: `G` minus the
/// edges of a dispute-pair set `D` that is *explainable* by some candidate
/// faulty set `F` (`|F| ≤ f` covering all pairs of `D`), minus the nodes
/// contained in **every** explanation of `D`. The enumeration is
/// exponential in the number of pairs incident to a candidate `F`;
/// `budget` caps the number of dispute sets examined before falling back to
/// the node-removal subfamily (`D` = all pairs incident to `F`).
pub fn gamma_star(g: &DiGraph, source: NodeId, f: usize, budget: usize) -> GammaStar {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut best = broadcast_rate(g, source); // D = ∅ (i.e. Γ ∋ G itself)

    // Candidate faulty sets F of size 1..=f, excluding none a priori (the
    // source may be faulty; graphs without the source are excluded below).
    let mut candidate_f: Vec<BTreeSet<NodeId>> = Vec::new();
    for size in 1..=f {
        candidate_f.extend(k_subsets(&nodes, size));
    }

    // Enumerate dispute sets, deduplicated across F's.
    let mut seen: BTreeSet<Vec<Pair>> = BTreeSet::new();
    let mut exact = true;

    'outer: for fset in &candidate_f {
        let incident: Vec<Pair> = incident_pairs(g, fset);
        if incident.is_empty() {
            continue;
        }
        if (1usize << incident.len().min(24)) > budget || seen.len() >= budget {
            exact = false;
            break 'outer;
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
                exact = false;
                break 'outer;
            }
            if let Some(rate) = psi_rate(g, source, f, &d, &nodes) {
                best = best.min(rate);
            }
        }
    }

    if !exact {
        // Node-removal subfamily: D = all pairs incident to F, which (for
        // graphs meeting the 2f+1-connectivity assumption) removes exactly
        // F. This is a superset-of-∅ subfamily, so the result upper-bounds
        // the true γ*.
        for fset in &candidate_f {
            if fset.contains(&source) {
                continue;
            }
            let keep: BTreeSet<NodeId> = nodes
                .iter()
                .copied()
                .filter(|v| !fset.contains(v))
                .collect();
            let sub = g.induced_subgraph(&keep);
            if sub.all_reachable_from(source) {
                best = best.min(broadcast_rate(&sub, source));
            } else {
                best = 0;
            }
        }
    }

    GammaStar { value: best, exact }
}

/// Pairs of adjacent nodes with at least one endpoint in `fset`.
fn incident_pairs(g: &DiGraph, fset: &BTreeSet<NodeId>) -> Vec<Pair> {
    let mut pairs = BTreeSet::new();
    for (_, e) in g.edges() {
        if fset.contains(&e.src) || fset.contains(&e.dst) {
            pairs.insert(pair(e.src, e.dst));
        }
    }
    pairs.into_iter().collect()
}

/// The broadcast rate of `Ψ(D)`: `g` minus the edges of the dispute pairs
/// `d`, minus the nodes present in every explanation of `d`. Returns `None`
/// when `Ψ(D)` does not contain the source (such graphs terminate NAB with
/// a default output and do not constrain throughput).
fn psi_rate(g: &DiGraph, source: NodeId, f: usize, d: &[Pair], nodes: &[NodeId]) -> Option<u64> {
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
    if !psi.is_active(source) {
        return None;
    }
    if !psi.all_reachable_from(source) {
        return Some(0);
    }
    Some(broadcast_rate(&psi, source))
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
    let gamma1 = gamma_k(g, source);
    let gs = gamma_star(g, source, f, budget);
    let u1 = u_k(g, f, &BTreeSet::new())?;
    if u1 < 2 {
        return None;
    }
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
    use nab_netgraph::gen;

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
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(88);
        for _ in 0..8 {
            let g = gen::random_connected(5, 0.6, 3, &mut rng);
            assert_eq!(
                u_k(&g, 1, &BTreeSet::new()),
                u_k_brute_force(&g, 1, &BTreeSet::new())
            );
        }
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
