//! E1 — the paper's worked examples (Figures 1 and 2).
//!
//! Regenerates every number the paper states about its example graphs:
//! the per-node min cuts and `γ` of Figure 1(a), the post-dispute `Ω_k`
//! and `U_k = 2` of Figure 1(b), and the two-arborescence packing of
//! Figure 2(a)/(c) with link (1,2) shared by both trees.

#![expect(
    clippy::expect_used,
    reason = "perf-harness setup; aborting on a malformed experiment configuration is the intended behavior"
)]

use std::collections::BTreeSet;

use nab::bounds::{omega_subsets, pair, u_k};
use nab_netgraph::arborescence::pack_arborescences;
use nab_netgraph::flow::{broadcast_rate, min_cut};
use nab_netgraph::gen;
use nab_netgraph::treepack::pack_spanning_trees;
use nab_netgraph::UnGraph;

/// All quantities the paper states about Figures 1–2.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// `MINCUT(G, 1, j)` for j = 2, 3, 4 on Figure 1(a) (paper: 2, 3, 2).
    pub fig1a_mincuts: [u64; 3],
    /// `γ` of Figure 1(a) (paper: 2).
    pub fig1a_gamma: u64,
    /// `|Ω_k|` after the 2–3 dispute on Figure 1(b) (paper: 2).
    pub fig1b_omega_len: usize,
    /// `U_k` of Figure 1(b) (paper: 2).
    pub fig1b_uk: u64,
    /// `γ` of Figure 2(a) (paper: 2 spanning trees embed).
    pub fig2a_gamma: u64,
    /// Arborescences packed in Figure 2(a) (paper: 2).
    pub fig2a_trees: usize,
    /// Times the capacity-2 link (1,2) is used across the packing
    /// (paper: both trees use it).
    pub fig2a_link12_usage: u64,
    /// Undirected spanning trees packed in Figure 2(b) (paper shows one in
    /// Figure 2(d)).
    pub fig2b_undirected_trees: usize,
}

/// Runs E1.
pub fn run() -> FigureReport {
    let g1a = gen::figure_1a();
    let fig1a_mincuts = [
        min_cut(&g1a, 0, 1),
        min_cut(&g1a, 0, 2),
        min_cut(&g1a, 0, 3),
    ];
    let fig1a_gamma = broadcast_rate(&g1a, 0);

    let g1b = gen::figure_1b();
    let disputes = BTreeSet::from([pair(1, 2)]);
    let omega = omega_subsets(&g1b, 1, &disputes);
    let fig1b_uk = u_k(&g1b, 1, &disputes).unwrap_or(0);

    let g2a = gen::figure_2a();
    let fig2a_gamma = broadcast_rate(&g2a, 0);
    let trees = pack_arborescences(&g2a, 0, fig2a_gamma).expect("γ trees pack");
    let link12_usage = trees
        .iter()
        .flat_map(|t| t.edges.iter())
        .filter(|&&(s, d)| s == 0 && d == 1)
        .count() as u64;

    let u2b = UnGraph::from_digraph(&g2a);
    let undirected = pack_spanning_trees(&u2b, 1).map_or(0, |t| t.len());

    FigureReport {
        fig1a_mincuts,
        fig1a_gamma,
        fig1b_omega_len: omega.len(),
        fig1b_uk,
        fig2a_gamma,
        fig2a_trees: trees.len(),
        fig2a_link12_usage: link12_usage,
        fig2b_undirected_trees: undirected,
    }
}

/// The paper-vs-measured table.
pub fn table() -> String {
    let r = run();
    crate::format_table(
        &["quantity", "paper", "measured"],
        &[
            vec![
                "Fig1(a) MINCUT(1,2)".into(),
                "2".into(),
                r.fig1a_mincuts[0].to_string(),
            ],
            vec![
                "Fig1(a) MINCUT(1,3)".into(),
                "3".into(),
                r.fig1a_mincuts[1].to_string(),
            ],
            vec![
                "Fig1(a) MINCUT(1,4)".into(),
                "2".into(),
                r.fig1a_mincuts[2].to_string(),
            ],
            vec!["Fig1(a) γ".into(), "2".into(), r.fig1a_gamma.to_string()],
            vec![
                "Fig1(b) |Ω_k|".into(),
                "2".into(),
                r.fig1b_omega_len.to_string(),
            ],
            vec!["Fig1(b) U_k".into(), "2".into(), r.fig1b_uk.to_string()],
            vec!["Fig2(a) γ".into(), "2".into(), r.fig2a_gamma.to_string()],
            vec![
                "Fig2(c) spanning trees".into(),
                "2".into(),
                r.fig2a_trees.to_string(),
            ],
            vec![
                "Fig2(c) link(1,2) usage".into(),
                "2".into(),
                r.fig2a_link12_usage.to_string(),
            ],
            vec![
                "Fig2(d) undirected tree".into(),
                "1".into(),
                r.fig2b_undirected_trees.to_string(),
            ],
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_number_matches() {
        let r = run();
        assert_eq!(r.fig1a_mincuts, [2, 3, 2]);
        assert_eq!(r.fig1a_gamma, 2);
        assert_eq!(r.fig1b_omega_len, 2);
        assert_eq!(r.fig1b_uk, 2);
        assert_eq!(r.fig2a_gamma, 2);
        assert_eq!(r.fig2a_trees, 2);
        assert_eq!(r.fig2a_link12_usage, 2);
        assert_eq!(r.fig2b_undirected_trees, 1);
    }

    #[test]
    fn table_mentions_gamma() {
        assert!(table().contains("Fig1(a) γ"));
    }
}
