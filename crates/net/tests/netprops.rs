//! Property tests for the discrete-event kernel's determinism contract:
//! the delivery schedule is a function of the scheduled message *set*
//! (never of insertion order), and bounded retransmission terminates
//! with every message delivered for every seed and loss rate.

use nab_net::{EventNet, Latency, LinkModel, Loss, NetModel};
use nab_netgraph::gen;
use proptest::prelude::*;

/// A jittery, lossy model on every link — the adversarial case for
/// order-dependence, since every pop consumes a per-link random draw.
fn lossy_model(p: f64, max_retries: u32) -> NetModel {
    NetModel::uniform(LinkModel {
        latency: Latency::Uniform {
            base_ns: 1_000,
            jitter_ns: 5_000,
        },
        loss: Some(Loss {
            p,
            max_retries,
            rto_ns: 7_000,
        }),
    })
}

/// Deterministic Fisher–Yates driven by a SplitMix64-style stream, so
/// the "shuffled" insertion order is reproducible per test case.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = nab_net::mix(state, i as u64);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical seeds produce identical delivery schedules regardless of
    /// the order messages were scheduled in — the property that makes
    /// `net = on` sweeps thread-count invariant.
    #[test]
    fn delivery_schedule_is_insertion_order_invariant(
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
        raw in proptest::collection::vec(
            (0usize..4, 0usize..4, 1u64..64, 0u64..10_000),
            1..24,
        ),
    ) {
        let g = gen::complete(4, 2);
        // Self-loops are not links; remap them to the (dst+1) neighbor so
        // every drawn tuple stays a schedulable message.
        let msgs: Vec<(u64, usize, usize, u64, u64)> = raw
            .iter()
            .enumerate()
            .map(|(id, &(src, dst, bits, at))| {
                let dst = if src == dst { (dst + 1) % 4 } else { dst };
                (id as u64, src, dst, bits, at)
            })
            .collect();

        let mut in_order = EventNet::new(&g, lossy_model(0.3, 3), seed);
        for &(id, src, dst, bits, at) in &msgs {
            in_order.schedule(id, src, dst, bits, at);
        }
        let reference = in_order.run();

        let mut permuted = msgs.clone();
        shuffle(&mut permuted, perm_seed);
        let mut shuffled = EventNet::new(&g, lossy_model(0.3, 3), seed);
        for &(id, src, dst, bits, at) in &permuted {
            shuffled.schedule(id, src, dst, bits, at);
        }
        prop_assert_eq!(reference, shuffled.run());
    }

    /// Loss with bounded retransmission terminates for every seed and
    /// every loss rate — including p = 1.0 — with each message delivered
    /// in at most `1 + max_retries` attempts.
    #[test]
    fn loss_and_retransmit_terminate_for_every_seed(
        seed in any::<u64>(),
        p_pct in 0u32..=100,
        max_retries in 0u32..5,
        count in 1usize..16,
    ) {
        let g = gen::complete(4, 2);
        let mut net = EventNet::new(&g, lossy_model(f64::from(p_pct) / 100.0, max_retries), seed);
        for id in 0..count {
            net.schedule(id as u64, id % 4, (id + 1) % 4, 16, 0);
        }
        let deliveries = net.run();
        prop_assert_eq!(deliveries.len(), count, "every message is delivered");
        for d in &deliveries {
            prop_assert!(d.attempts >= 1);
            prop_assert!(
                d.attempts <= 1 + max_retries,
                "attempts {} exceed bound {}",
                d.attempts,
                1 + max_retries
            );
            prop_assert!(d.delivered_ns >= d.sent_ns);
        }
    }

    /// The whole run is a pure function of `(messages, model, seed)`:
    /// re-running the same configuration reproduces the schedule, and the
    /// virtual clock equals the last delivery.
    #[test]
    fn identical_configurations_reproduce_schedules(
        seed in any::<u64>(),
        count in 1usize..12,
    ) {
        let g = gen::complete(5, 3);
        let run = |seed: u64| {
            let mut net = EventNet::new(&g, lossy_model(0.5, 2), seed);
            for id in 0..count {
                net.schedule(id as u64, id % 5, (id + 2) % 5, 32, 0);
            }
            let d = net.run();
            (d, net.clock_ns())
        };
        let (d1, clock1) = run(seed);
        let (d2, clock2) = run(seed);
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(clock1, clock2);
        let last = d1.iter().map(|d| d.delivered_ns).max().unwrap();
        prop_assert_eq!(clock1, last, "clock is the final delivery time");
    }
}
