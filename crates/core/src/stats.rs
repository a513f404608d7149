//! Link-utilization analysis of NAB executions.
//!
//! The throughput argument rests on Phase 1 *saturating* a minimum cut:
//! time `L/γ_k` is optimal precisely because the arborescence packing
//! drives the binding links at full capacity. This module measures that,
//! and reports per-link load so operators can see where capacity is
//! stranded.

use std::collections::BTreeMap;

use nab_netgraph::{DiGraph, NodeId};

use crate::phase1::Phase1Output;
use crate::value::SYMBOL_BITS;

/// Load placed on one directed link during a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoad {
    /// Bits carried.
    pub bits: u64,
    /// Link capacity.
    pub cap: u64,
    /// `bits / (cap · duration)` — 1.0 means the link was busy for the
    /// whole phase.
    pub utilization: f64,
}

/// Per-link Phase-1 loads from the ground-truth sends.
pub fn phase1_link_loads(gk: &DiGraph, p1: &Phase1Output) -> BTreeMap<(NodeId, NodeId), LinkLoad> {
    let mut bits: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for (&(_, src, dst), block) in &p1.sends() {
        *bits.entry((src, dst)).or_insert(0) += block.len() as u64 * SYMBOL_BITS;
    }
    bits.into_iter()
        .map(|((src, dst), b)| {
            let cap = gk.find_edge(src, dst).map(|(_, e)| e.cap).unwrap_or(1);
            let utilization = if p1.duration > 0.0 {
                b as f64 / (cap as f64 * p1.duration)
            } else {
                0.0
            };
            (
                (src, dst),
                LinkLoad {
                    bits: b,
                    cap,
                    utilization,
                },
            )
        })
        .collect()
}

/// Utilization summary of a Phase-1 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSummary {
    /// Highest per-link utilization (should be ≈ 1.0: some link is the
    /// bottleneck that defines the phase duration).
    pub max: f64,
    /// Mean utilization over links that carried traffic.
    pub mean_loaded: f64,
    /// Number of links that carried any traffic.
    pub loaded_links: usize,
    /// Number of live links in `G_k`.
    pub total_links: usize,
}

/// Summarizes Phase-1 utilization.
pub fn phase1_utilization(gk: &DiGraph, p1: &Phase1Output) -> UtilizationSummary {
    let loads = phase1_link_loads(gk, p1);
    let max = loads.values().map(|l| l.utilization).fold(0.0, f64::max);
    let mean_loaded = if loads.is_empty() {
        0.0
    } else {
        loads.values().map(|l| l.utilization).sum::<f64>() / loads.len() as f64
    };
    UtilizationSummary {
        max,
        mean_loaded,
        loaded_links: loads.len(),
        total_links: gk.edge_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::HonestStrategy;
    use crate::phase1::run_phase1;
    use crate::value::Value;
    use nab_netgraph::arborescence::{pack_arborescences, Arborescence};
    use nab_netgraph::flow::{broadcast_rate, min_cut};
    use nab_netgraph::gen;
    use std::collections::BTreeSet;

    fn run(g: &DiGraph, symbols: usize) -> (Vec<Arborescence>, Phase1Output) {
        let gamma = broadcast_rate(g, 0);
        let trees = pack_arborescences(g, 0, gamma).unwrap();
        let input = Value::from_u64s(&(0..symbols as u64).collect::<Vec<_>>());
        let out = run_phase1(g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
        (trees, out)
    }

    #[test]
    fn some_link_is_fully_utilized() {
        // The phase duration is defined by its busiest link, so max
        // utilization is exactly 1.
        for g in [gen::figure_2a(), gen::complete(4, 2), gen::complete(5, 1)] {
            let (_, p1) = run(&g, 60);
            let s = phase1_utilization(&g, &p1);
            assert!((s.max - 1.0).abs() < 1e-9, "max={} on {g:?}", s.max);
            assert!(s.loaded_links > 0);
            assert!(s.loaded_links <= s.total_links);
        }
    }

    #[test]
    fn source_min_cut_is_saturated_on_figure_2a() {
        // γ = 2 on figure_2a and the cut into node 2 (paper node 3) is the
        // binding one; the packing must consume the full capacity of the
        // source's outgoing cut used by the binding flow.
        let g = gen::figure_2a();
        let (trees, _) = run(&g, 60);
        // Link (1,2) of the paper — (0,1) here, capacity 2 — is used twice.
        let uses = trees.iter().filter(|t| t.edges.contains(&(0, 1))).count();
        assert_eq!(uses, 2);
        let gamma = broadcast_rate(&g, 0);
        assert_eq!(min_cut(&g, 0, 2), gamma);
    }

    #[test]
    fn loads_respect_capacity_times_duration() {
        let g = gen::complete(4, 3);
        let (_, p1) = run(&g, 120);
        for ((s, d), load) in phase1_link_loads(&g, &p1) {
            assert!(
                load.utilization <= 1.0 + 1e-9,
                "link ({s},{d}) over-driven: {}",
                load.utilization
            );
            assert_eq!(load.cap, 3);
        }
    }
}
