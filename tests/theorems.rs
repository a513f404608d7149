//! Integration tests asserting the paper's theorems hold on the
//! implementation, beyond the single worked examples.

use std::collections::BTreeSet;

use nab_repro::gf::Gf2m;
use nab_repro::nab::adversary::HonestStrategy;
use nab_repro::nab::bounds::{self, bounds_report};
use nab_repro::nab::engine::{NabConfig, NabEngine};
use nab_repro::nab::equality::theorem1_failure_bound;
use nab_repro::nab::theory::theorem1_trial;
use nab_repro::netgraph::flow::min_pairwise_cut_undirected;
use nab_repro::netgraph::{gen, UnGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn theorem1_bound_holds_on_random_graphs() {
    // For several random networks, the empirical probability of sampling
    // unsound coding matrices stays below the union bound (where the bound
    // is informative).
    let mut rng = StdRng::seed_from_u64(50);
    let trials = 60;
    for seed in 0..4u64 {
        let mut grng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(5, 0.7, 2, &mut grng);
        let f = 1;
        let u = UnGraph::from_digraph(&g);
        let cut = min_pairwise_cut_undirected(&u).unwrap();
        let rho = (cut / 2).max(1) as usize;
        // m = 8 bits: bound = C(5,4)·3·ρ / 256.
        let bound = theorem1_failure_bound(5, f, rho, 8);
        let mut fails = 0;
        for _ in 0..trials {
            if !theorem1_trial::<Gf2m<8>, _>(&g, f, rho, &mut rng) {
                fails += 1;
            }
        }
        let emp = fails as f64 / trials as f64;
        if bound < 0.5 {
            // Allow Monte-Carlo slack of ~3 standard deviations.
            let slack = 3.0 * (bound.max(0.02) / trials as f64).sqrt();
            assert!(
                emp <= bound + slack,
                "seed {seed}: empirical {emp} vs bound {bound}"
            );
        }
    }
}

#[test]
fn theorem1_trial_violated_when_rho_exceeds_half_cut() {
    // The ρ ≤ U/2 hypothesis is necessary in general: crank ρ far above
    // U/2 on a thin graph and soundness must become impossible (C_H is
    // wider than its column budget allows).
    let mut g = nab_repro::netgraph::DiGraph::new(4);
    // A sparse ring-ish graph with U small.
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    g.add_edge(2, 3, 1);
    g.add_edge(3, 0, 1);
    g.add_edge(1, 0, 1);
    g.add_edge(2, 1, 1);
    g.add_edge(3, 2, 1);
    g.add_edge(0, 3, 1);
    let mut rng = StdRng::seed_from_u64(1);
    // Ω for f=1 on 4 nodes: 3-node subgraphs; some H has only 2 edges →
    // m = 4 columns < (3−1)·ρ rows for ρ ≥ 3.
    let sound = theorem1_trial::<Gf2m<16>, _>(&g, 1, 3, &mut rng);
    assert!(!sound, "ρ far above U/2 cannot be sound");
}

#[test]
fn theorem2_and_3_on_random_ensemble() {
    for seed in 0..8u64 {
        let mut grng = StdRng::seed_from_u64(seed + 100);
        let g = gen::random_connected(5, 0.8, 3, &mut grng);
        let Some(rep) = bounds_report(&g, 0, 1, 1 << 18) else {
            continue;
        };
        // Eq. 6 lower bound never exceeds the Theorem 2 upper bound.
        assert!(
            rep.tnab_lower <= rep.capacity_upper as f64 + 1e-9,
            "seed {seed}: lower {} > upper {}",
            rep.tnab_lower,
            rep.capacity_upper
        );
        // Theorem 3.
        assert!(
            rep.guaranteed_fraction >= 1.0 / 3.0 - 1e-9,
            "seed {seed}: fraction {}",
            rep.guaranteed_fraction
        );
        if rep.gamma_star.value <= rep.rho_star {
            assert!(rep.guaranteed_fraction >= 0.5 - 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn gamma_star_is_reachable_infimum() {
    // γ* lower-bounds the per-instance γ_k of every actual execution.
    use nab_repro::nab::adversary::LyingCorruptor;
    use nab_repro::nab::Value;
    let g = gen::complete(4, 2);
    let gs = bounds::gamma_star(&g, 0, 1, 1 << 18);
    let cfg = NabConfig {
        f: 1,
        symbols: 16,
        seed: 2,
    };
    let mut engine = NabEngine::new(g, cfg).unwrap();
    let faulty = BTreeSet::from([3]);
    let mut adv = LyingCorruptor;
    for i in 0..4 {
        let input = Value::from_u64s(&(0..16u64).map(|x| x + i).collect::<Vec<_>>());
        let rep = engine.run_instance(&input, &faulty, &mut adv).unwrap();
        if !rep.defaulted {
            assert!(
                rep.gamma_k >= gs.value,
                "instance γ_k {} below γ* {}",
                rep.gamma_k,
                gs.value
            );
        }
    }
}

#[test]
fn measured_phase_costs_match_model_on_random_graphs() {
    // Phase 1 takes L/γ_k and the equality check takes L/ρ_k (up to
    // column rounding) — the quantities the throughput analysis (Eq. 6)
    // sums. Verified on an ensemble, not just K4.
    use nab_repro::nab::Value;
    let mut grng = StdRng::seed_from_u64(500);
    let mut checked = 0;
    for _ in 0..10 {
        let g = gen::random_connected(4, 0.9, 3, &mut grng);
        let cfg = NabConfig {
            f: 1,
            symbols: 120,
            seed: 6,
        };
        let Ok(mut engine) = NabEngine::new(g, cfg) else {
            continue;
        };
        let input = Value::from_u64s(&(0..120).collect::<Vec<_>>());
        let rep = engine
            .run_instance(&input, &BTreeSet::new(), &mut HonestStrategy)
            .unwrap();
        let l = input.bits() as f64;
        // Phase 1 streams whole 16-bit symbols, so when γ_k ∤ S the busiest
        // link carries a ⌈S/γ⌉-symbol block: L/γ ≤ phase1 ≤ ⌈S/γ⌉·16.
        // (When γ_k | S both bounds coincide with the exact L/γ model.)
        let p1_ceil = (120usize.div_ceil(rep.gamma_k as usize) * 16) as f64;
        assert!(
            rep.times.phase1 >= l / rep.gamma_k as f64 - 1e-6 && rep.times.phase1 <= p1_ceil + 1e-6,
            "phase1 {} outside [L/γ {}, ⌈S/γ⌉·16 {}]",
            rep.times.phase1,
            l / rep.gamma_k as f64,
            p1_ceil
        );
        let cols = 120usize.div_ceil(rep.rho_k as usize) as f64;
        assert!(
            (rep.times.equality - cols * 16.0).abs() < 1e-6,
            "equality {} vs {}",
            rep.times.equality,
            cols * 16.0
        );
        checked += 1;
    }
    assert!(checked >= 3, "ensemble too thin: {checked}");
}

#[test]
fn throughput_approaches_eq6_with_large_l() {
    // As L grows, measured fault-free throughput converges towards (and
    // above) the per-instance bound γ_1ρ_1/(γ_1+ρ_1) ≥ Eq.6's γ*ρ*/(γ*+ρ*).
    let spec = nab_repro::scenario::parse_str(
        "topology = complete:4:2\nq = 3\nsymbols = 60,240,960\nbounds = true\n",
    )
    .unwrap();
    let report = nab_repro::scenario::run_sweep(&spec, 1).unwrap();
    let jobs: Vec<_> = (report.jobs.iter())
        .map(|j| j.result.as_ref().expect("K4 hosts f = 1"))
        .collect();
    assert_eq!(jobs.len(), 3);
    for w in jobs.windows(2) {
        assert!(
            w[1].throughput >= w[0].throughput * 0.999,
            "throughput not improving in L"
        );
    }
    let (last, bounds) = (jobs[2], jobs[2].bounds.as_ref().unwrap());
    assert!(
        last.throughput >= bounds.eq6_lower,
        "large-L throughput {} below Eq.6 bound {}",
        last.throughput,
        bounds.eq6_lower
    );
}

#[test]
fn capacity_bound_respects_oblivious_baseline_too() {
    // Sanity for Theorem 2's universality: even the baseline protocol's
    // throughput sits below min(γ*, 2ρ*) on the uniform mesh.
    let g = gen::complete(4, 2);
    let rep = bounds_report(&g, 0, 1, 1 << 18).unwrap();
    let t = nab_repro::bb::baselines::oblivious_throughput(&g, 0, 1, 1 << 14).unwrap();
    assert!(
        t <= rep.capacity_upper as f64 + 1e-9,
        "baseline {} above capacity bound {}",
        t,
        rep.capacity_upper
    );
}

/// The cost model of `Broadcast_Default`, pinned: rounds are *sequential*.
/// `PhaseTimes.flags` of one undisputed instance is the sum — over
/// broadcasters, over that broadcaster's EIG / Phase-King unicasts in
/// protocol order, over the unicast's hop rounds — of
/// `bits / (smallest capacity among the round's links)`, each hop round
/// waiting for the previous one. Merging rounds (one vector broadcast, or
/// overlapping unicasts that share no link) would be a different reading of
/// the paper's model and must arrive as a declared canonical-schema bump:
/// it moves the golden values below.
#[test]
fn flag_broadcast_cost_is_the_sum_of_sequential_hop_rounds() {
    use nab_repro::bb::eig::EigChannel;
    use nab_repro::bb::PathRouter;
    use nab_repro::nab::phase2::{broadcast_value, run_flag_broadcast};
    use nab_repro::nab::{BroadcastKind, Value};
    use nab_repro::netgraph::{DiGraph, NodeId};
    use std::collections::BTreeMap;

    /// Adds up what each logical unicast costs under the sequential reading.
    struct Sequential<'a> {
        g: &'a DiGraph,
        router: &'a PathRouter,
        total: f64,
    }
    impl EigChannel<u64> for Sequential<'_> {
        fn unicast(&mut self, from: NodeId, to: NodeId, bits: u64, _: &u64) {
            let paths = self.router.paths_for(from, to);
            let hops = paths.iter().map(|p| p.len() - 1).max().unwrap();
            for hop in 0..hops {
                let min_cap = paths
                    .iter()
                    .filter(|p| hop + 1 < p.len())
                    .map(|p| self.g.find_edge(p[hop], p[hop + 1]).unwrap().1.cap)
                    .min()
                    .unwrap();
                self.total += bits as f64 / min_cap as f64;
            }
        }
    }

    let cases: [(&str, DiGraph, usize, BroadcastKind, f64); 5] = [
        ("fig1a/eig", gen::figure_1a(), 0, BroadcastKind::Eig, 17.5),
        (
            "fig1a/pk",
            gen::figure_1a(),
            0,
            BroadcastKind::PhaseKing,
            95.5,
        ),
        (
            "complete:4:1/eig",
            gen::complete(4, 1),
            1,
            BroadcastKind::Eig,
            96.0,
        ),
        // n = 4 is not > 4f: Phase-King falls back to EIG.
        (
            "complete:4:1/pk",
            gen::complete(4, 1),
            1,
            BroadcastKind::PhaseKing,
            96.0,
        ),
        (
            "complete:5:1/pk",
            gen::complete(5, 1),
            1,
            BroadcastKind::PhaseKing,
            520.0,
        ),
    ];
    for (name, g, f, kind, golden) in cases {
        let none = BTreeSet::new();
        let participants: Vec<NodeId> = g.nodes().collect();
        let router = PathRouter::build(&g, f).unwrap();
        let clean: BTreeMap<NodeId, bool> = participants.iter().map(|&v| (v, false)).collect();
        let flags = run_flag_broadcast(
            &g,
            &router,
            &participants,
            f,
            &clean,
            &none,
            &mut HonestStrategy,
            kind,
            false,
        );

        let mut chan = Sequential {
            g: &g,
            router: &router,
            total: 0.0,
        };
        for &b in &participants {
            broadcast_value(kind, &participants, b, f, 0u64, &none, &mut chan, 1);
        }
        assert_eq!(flags.duration.to_bits(), chan.total.to_bits(), "{name}");
        assert_eq!(flags.duration, golden, "{name}");

        // The engine charges exactly this for an undisputed instance. (At
        // f = 0 it skips step 2.2 altogether: nobody can be faulty.)
        if f > 0 {
            let cfg = NabConfig {
                f,
                symbols: 16,
                seed: 3,
            };
            let mut engine = NabEngine::new(g.clone(), cfg).unwrap();
            engine.set_broadcast_kind(kind);
            let input = Value::from_u64s(&(0..16).collect::<Vec<_>>());
            let rep = engine
                .run_instance(&input, &none, &mut HonestStrategy)
                .unwrap();
            assert!(!rep.dispute_ran, "{name}");
            assert_eq!(
                rep.times.flags.to_bits(),
                flags.duration.to_bits(),
                "{name}"
            );
        }
    }
}

/// Pins the Gaussian elimination under `theory.rs` — which pivot it picks
/// and which kernel vector comes out first — on a sound and a
/// rank-deficient scheme per graph. `colliding_values` hands out the first
/// basis row of `C_H`'s left kernel, so any change of pivot or elimination
/// order moves the collision below even where the rank verdict holds.
#[test]
fn soundness_verdicts_and_first_collision_match_golden_values() {
    use nab_repro::nab::equality::CodingScheme;
    use nab_repro::nab::theory::{ch_is_sound, colliding_values};
    use nab_repro::netgraph::DiGraph;

    let fig = gen::figure_2a();
    let k4 = gen::complete(4, 2);
    // U = 2 on figure 2(a): ρ = 2 starves H = {0, 2, 3} of coded symbols.
    let starved = fig.induced_subgraph(&BTreeSet::from([0, 2, 3]));
    // Per node in id order, the ρ symbols of its colliding value; `None`
    // where the scheme is sound.
    type Collision = Option<Vec<Vec<u16>>>;
    let cases: [(&str, &DiGraph, CodingScheme, Collision); 4] = [
        ("fig2a ρ=1", &fig, CodingScheme::random(&fig, 1, 2), None),
        ("K4 ρ=2", &k4, CodingScheme::random(&k4, 2, 7), None),
        (
            "fig2a H={0,2,3} ρ=2",
            &starved,
            CodingScheme::random(&fig, 2, 13),
            Some(vec![vec![0x2d06, 0x0001], vec![0, 0], vec![0, 0]]),
        ),
        // 3ρ = 27 rows against m = 24 columns.
        (
            "K4 ρ=9",
            &k4,
            CodingScheme::random(&k4, 9, 7),
            Some(vec![
                vec![
                    0x6c84, 0xce81, 0x1276, 0x17f0, 0x0321, 0xd393, 0x18d1, 0x9b5a, 0x8e8e,
                ],
                vec![
                    0xf67c, 0x27b7, 0xe587, 0x105f, 0x9e4a, 0xcdcb, 0xbddf, 0xfc2d, 0xaa53,
                ],
                vec![
                    0x701a, 0x355e, 0xe69f, 0xe0fd, 0x28e2, 0x8c81, 0x0001, 0x0000, 0x0000,
                ],
                vec![0; 9],
            ]),
        ),
    ];
    for (name, h, scheme, golden) in cases {
        assert_eq!(ch_is_sound(h, &scheme), golden.is_none(), "{name}");
        let collision: Collision = colliding_values(h, &scheme).map(|values| {
            values
                .values()
                .map(|v| v.symbols().iter().map(|s| s.0).collect())
                .collect()
        });
        assert_eq!(collision, golden, "{name}");
    }
}
