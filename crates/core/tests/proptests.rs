//! Property-based tests for the NAB core: value plumbing, equality-check
//! algebra, dispute-control soundness, and bound consistency.

use std::collections::BTreeSet;
use std::sync::Arc;

use nab::adversary::{FalseAlarm, HonestStrategy, LyingCorruptor, NabAdversary, TruthfulCorruptor};
use nab::bounds::{self, pair};
use nab::dispute::DisputeState;
use nab::engine::{NabConfig, NabEngine, NabError, SOURCE};
use nab::equality::CodingScheme;
use nab::plan::ExecutionPlan;
use nab::value::Value;
use nab_gf::Gf2_16;
use nab_netgraph::gen;
use nab_oracle::arborescence::pack_arborescences_naive;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_value(max_len: usize) -> impl Strategy<Value = Value> {
    proptest::collection::vec(any::<u16>(), 1..=max_len)
        .prop_map(|v| Value::from_u64s(&v.iter().map(|&x| x as u64).collect::<Vec<_>>()))
}

proptest! {
    #[test]
    fn split_join_roundtrips(v in arb_value(64), parts in 1usize..8) {
        let blocks = v.split_blocks(parts);
        prop_assert_eq!(blocks.len(), parts);
        prop_assert_eq!(Value::join_blocks(&blocks), v);
        // Blocks are balanced to within one symbol.
        let lens: Vec<usize> = blocks.iter().map(Vec::len).collect();
        let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    #[test]
    fn encode_is_linear(a in arb_value(24), b_seed in any::<u64>(), seed in any::<u64>()) {
        use nab_gf::field::Field;
        // Y(a + b) = Y(a) + Y(b): the coding is GF-linear, the property
        // the whole construction rests on.
        let g = gen::complete(3, 2);
        let scheme = CodingScheme::random(&g, 2, seed);
        let mut rng = StdRng::seed_from_u64(b_seed);
        let b = Value::random(a.len(), &mut rng);
        let sum = Value::from_symbols(
            a.symbols()
                .iter()
                .zip(b.symbols())
                .map(|(&x, &y)| x.add(y))
                .collect(),
        );
        let ya = scheme.encode(0, 1, &a);
        let yb = scheme.encode(0, 1, &b);
        let ysum = scheme.encode(0, 1, &sum);
        let manual: Vec<_> = ya.iter().zip(&yb).map(|(&x, &y)| x.add(y)).collect();
        prop_assert_eq!(ysum, manual);
    }

    #[test]
    fn dispute_integration_is_sound(
        pairs in proptest::collection::vec((0usize..4, 0usize..4), 0..4),
    ) {
        // Whatever pairs are reported, a node is only removed if it lies
        // in EVERY ≤f explanation — so removal implies it covers pairs no
        // small set avoids.
        let g = gen::complete(4, 1);
        let valid: Vec<_> = pairs
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| pair(a, b))
            .collect();
        // Only integrate explainable sets (some single node covers all).
        let explainable = (0..4).any(|c| valid.iter().all(|&(a, b)| a == c || b == c));
        if !explainable {
            return Ok(());
        }
        let mut st = DisputeState::new();
        let removed = st.integrate(&g, 1, &valid, &[]);
        for &r in &removed {
            // r must appear in every single-node cover.
            for c in 0..4 {
                let covers = valid.iter().all(|&(a, b)| a == c || b == c);
                if covers {
                    prop_assert_eq!(c, r, "cover {} avoids removed {}", c, r);
                }
            }
        }
        // Graph evolution drops exactly the disputed links.
        let gk = st.current_graph(&g);
        for &(a, b) in &valid {
            if gk.is_active(a) && gk.is_active(b) {
                prop_assert!(gk.find_edge(a, b).is_none());
            }
        }
    }

    #[test]
    fn bounds_monotone_under_dispute(seed in any::<u64>(), a in 0usize..4, b in 0usize..4) {
        // Appendix C.2: Ω_k ⊆ Ω_1, hence U_k ≥ U_1 — disputes can only
        // *raise* the equality-check rate (ρ_k ≥ ρ*), because the minimum
        // runs over fewer candidate subgraphs and disputed pairs never
        // appear jointly inside any Ω_k member. Phase-1's γ, by contrast,
        // can only drop as G_k loses edges.
        if a == b { return Ok(()); }
        let mut grng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(4, 0.9, 3, &mut grng);
        let no_disputes = BTreeSet::new();
        let with: BTreeSet<_> = BTreeSet::from([pair(a, b)]);
        let mut st = DisputeState::new();
        st.integrate(&g, 1, &[pair(a, b)], &[]);
        let gk = st.current_graph(&g);
        if let (Some(u1), Some(uk)) = (bounds::u_k(&g, 1, &no_disputes), bounds::u_k(&gk, 1, &with)) {
            prop_assert!(uk >= u1, "U_k {} < U_1 {}", uk, u1);
        }
        if gk.is_active(0) && gk.all_reachable_from(0) {
            prop_assert!(bounds::gamma_k(&gk, 0) <= bounds::gamma_k(&g, 0));
        }
    }

    #[test]
    fn coding_scheme_is_seed_deterministic(seed in any::<u64>(), v in arb_value(16)) {
        let g = gen::complete(3, 2);
        let s1 = CodingScheme::random(&g, 2, seed);
        let s2 = CodingScheme::random(&g, 2, seed);
        prop_assert_eq!(s1.encode(0, 1, &v), s2.encode(0, 1, &v));
        prop_assert_eq!(s1.encode(2, 1, &v), s2.encode(2, 1, &v));
    }

    /// `CodingScheme::random` draws its matrices on first read, in the
    /// order the construction once drew them up front — edges in
    /// `g.edges()` order, each `C_e` row-major, copied inline here as the
    /// oracle. A clone taken before the first read sees the same entries,
    /// whichever of the two reads first.
    #[test]
    fn lazy_draw_matches_the_eager_draw_order(
        seed in any::<u64>(),
        n in 4usize..9,
        k in 1usize..3,
        max_cap in 1u64..5,
        rho in 1usize..6,
        clone_reads_first in any::<bool>(),
    ) {
        use nab_gf::field::Field;
        use nab_gf::Matrix;
        let g = gen::random_k_connected(n, k, max_cap, 0.3, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = Vec::new();
        for (_, e) in g.edges() {
            let mut c = Matrix::zero(rho, e.cap as usize);
            for r in 0..rho {
                for col in 0..e.cap as usize {
                    c[(r, col)] = Gf2_16::random(&mut rng);
                }
            }
            oracle.push(((e.src, e.dst), c));
        }
        let scheme = CodingScheme::random(&g, rho, seed);
        let clone = scheme.clone();
        let readers = if clone_reads_first { [&clone, &scheme] } else { [&scheme, &clone] };
        for reader in readers {
            // The first reader starts from the last edge.
            for ((src, dst), want) in oracle.iter().rev() {
                prop_assert_eq!(&reader.matrix(*src, *dst), want);
            }
        }
    }

}

/// One adversary strategy per schedule code.
fn adversary(code: u8) -> Box<dyn NabAdversary> {
    match code % 4 {
        0 => Box::new(HonestStrategy),
        1 => Box::new(TruthfulCorruptor),
        2 => Box::new(LyingCorruptor),
        _ => Box::new(FalseAlarm),
    }
}

/// Runs one instance and checks the `G_k` artifacts it ran on — the
/// report's rates and, once disputed, the engine's derived `G_k` with its
/// `(γ_k, trees, ρ_k)` — against from-scratch `gamma_k` / `pack_arborescences_naive` /
/// `rho_k` on the `G_k` the engine held when the instance started.
fn oracle_step(engine: &mut NabEngine, x: &Value, faulty: &BTreeSet<usize>, code: u8) {
    let before = engine.current_graph();
    let pairs = engine.disputes().pairs.clone();
    let disputed = !pairs.is_empty() || !engine.disputes().removed.is_empty();
    let f = engine.config().f;
    let rep = match engine.run_instance(x, faulty, adversary(code).as_mut()) {
        Ok(rep) => rep,
        Err(NabError::NoEqualityParameter) => {
            assert_eq!(bounds::rho_k(&before, f, &pairs), None);
            return;
        }
        Err(NabError::ArborescencePacking { gamma, .. }) => {
            assert!(pack_arborescences_naive(&before, SOURCE, gamma).is_none());
            return;
        }
        Err(e) => panic!("unexpected engine error: {e}"),
    };
    if rep.defaulted {
        return;
    }
    let gamma = bounds::gamma_k(&before, SOURCE);
    assert_eq!(rep.gamma_k, gamma);
    if rep.rho_k != 0 {
        assert_eq!(Some(rep.rho_k), bounds::rho_k(&before, f, &pairs));
    }
    if disputed {
        let gk = engine.gk();
        assert_eq!(gk.graph(), &before);
        assert_eq!(gk.gamma(), gamma);
        let want = pack_arborescences_naive(&before, SOURCE, gamma).expect("γ_k is packable");
        assert_eq!(gk.trees(), want.as_slice());
        assert_eq!(gk.rho().unwrap_or(0), rep.rho_k);
    }
}

proptest! {
    // Each case runs up to a dozen full protocol instances; keep the
    // case count low enough for CI while still sweeping graph shapes,
    // adversary schedules, and mutation points.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle property behind incremental plan repair: after every step
    /// of a random adversarial run, the `G_k` artifacts the engine used
    /// equal a from-scratch derivation with the reference packer —
    /// including dispute chains where γ/ρ change, and a mid-sequence
    /// capacity mutation that migrates the engine onto a fresh plan and
    /// restarts its `G_k` from the new `G_1`.
    #[test]
    fn plan_repair_matches_full_recompute_on_random_sequences(
        seed in any::<u64>(),
        n in 5usize..8,
        codes in proptest::collection::vec(0u8..4, 2..7),
        // Values ≥ the schedule length mean "no mutation this case".
        mutate_at in 0usize..9,
    ) {
        let mut grng = StdRng::seed_from_u64(seed);
        // f = 1 needs connectivity ≥ 3; sparse k-connected graphs are the
        // interesting case (disputes actually move γ_k and ρ_k around).
        let g = gen::random_k_connected(n, 3, 3, 0.3, &mut grng);
        let cfg = NabConfig { f: 1, symbols: 8, seed };
        let Ok(mut engine) = NabEngine::new(g.clone(), cfg) else {
            // The random network failed a feasibility condition (U_1 < 2);
            // nothing to check.
            return Ok(());
        };
        let faulty = BTreeSet::from([n - 1]);
        let x = Value::random(8, &mut grng);
        for (i, &code) in codes.iter().enumerate() {
            if mutate_at == i {
                // OCS-style capacity rewrite mid-sequence: halve every
                // other link, rebuild the plan, migrate the engine onto
                // it (disputes carry over; G_k restarts from the new G_1,
                // so the next disputed instance derives it from scratch).
                let mut m = g.clone();
                let ids: Vec<usize> = m.edges().map(|(id, _)| id).collect();
                for &id in ids.iter().step_by(2) {
                    let cap = m.edge(id).expect("edge ids are live").cap;
                    m.set_edge_cap(id, (cap / 2).max(1));
                }
                let Ok(plan) = ExecutionPlan::build(m, 1) else { return Ok(()); };
                engine.migrate_to_plan(Arc::new(plan)).expect("same f, same nodes");
            }
            oracle_step(&mut engine, &x, &faulty, code);
        }
    }
}
