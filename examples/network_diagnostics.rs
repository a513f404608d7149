//! Network diagnostics: find the binding min-cut pair, inspect per-link
//! Phase-1 utilization, and see where capacity is stranded — the analysis
//! an operator runs before upgrading links.
//!
//! Run with: `cargo run --example network_diagnostics`

use std::collections::BTreeSet;

use nab_repro::nab::adversary::HonestStrategy;
use nab_repro::nab::phase1::run_phase1;
use nab_repro::nab::stats::{phase1_link_loads, phase1_utilization};
use nab_repro::nab::Value;
use nab_repro::netgraph::arborescence::pack_arborescences;
use nab_repro::netgraph::flow::{broadcast_rate, min_cut_undirected};
use nab_repro::netgraph::gen;
use nab_repro::netgraph::{NodeId, UnGraph};

fn main() {
    // A deliberately lopsided network: a fast core with one thin pair.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let g = gen::complete_heterogeneous(5, 1, 6, &mut rng);

    // --- Cut structure: every pairwise min cut. ---------------------------
    let u = UnGraph::from_digraph(&g);
    let nodes: Vec<NodeId> = u.nodes().collect();
    println!("pairwise min cuts:");
    let mut binding = (0, 0, u64::MAX);
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            let w = min_cut_undirected(&u, a, b);
            println!("  {a} — {b}: {w}");
            if w < binding.2 {
                binding = (a, b, w);
            }
        }
    }
    let (a, b, w) = binding;
    println!("binding pair: ({a}, {b}) with cut {w}");
    println!("→ the equality-check budget is U/2 = {}\n", w / 2);

    // --- Phase-1 saturation. ----------------------------------------------
    let gamma = broadcast_rate(&g, 0);
    let trees = pack_arborescences(&g, 0, gamma).expect("Edmonds packing");
    let input = Value::from_u64s(&(0..120).collect::<Vec<_>>());
    let p1 = run_phase1(&g, 0, &input, &trees, &BTreeSet::new(), &mut HonestStrategy);
    println!(
        "Phase 1: γ = {gamma}, {} arborescences, duration {:.1} time units",
        trees.len(),
        p1.duration
    );
    let summary = phase1_utilization(&g, &p1);
    println!(
        "utilization: max {:.2} (the bottleneck), mean over loaded links {:.2}, {} of {} links loaded",
        summary.max, summary.mean_loaded, summary.loaded_links, summary.total_links
    );

    println!("\nhottest links:");
    let mut loads: Vec<_> = phase1_link_loads(&g, &p1).into_iter().collect();
    loads.sort_by(|x, y| y.1.utilization.total_cmp(&x.1.utilization));
    for ((s, d), l) in loads.iter().take(5) {
        println!(
            "  {s} → {d}: {} bits over cap {} ({:.0}% busy)",
            l.bits,
            l.cap,
            l.utilization * 100.0
        );
    }
    println!("\nidle links (stranded capacity — candidates for downgrade):");
    for ((s, d), _) in g
        .edges()
        .map(|(_, e)| ((e.src, e.dst), e.cap))
        .filter(|(k, _)| !loads.iter().any(|(lk, _)| lk == k))
        .take(5)
    {
        println!("  {s} → {d}");
    }
}
