//! Golden values of message-level execution (`net = on`): the canonical
//! sweep JSON, every job's `delivered` block (per phase: count, sum, min,
//! max and the three percentiles the timed JSON renders) and the event
//! kernel's own counters (the timed `aggregate`'s `net_rounds`,
//! `net_deliveries` and `net_retransmits`).
//!
//! Captured at the commit before message-level timing moved from replaying
//! a recorded transcript through a fresh kernel per round to streaming hop
//! rounds into one reused kernel (PR 18). Every delivered time is a
//! function of the phase seed, the round's index within its phase, the
//! message ids within the round and the per-link draw counters, so one hash
//! per job pins all of them; the rewrite must leave this file passing
//! unmodified. The kernel counters were captured the same way, before hop
//! rounds and the equality round left the event queue for a closed form.
//!
//! Every case also checks what the timed report promises whatever the
//! values: empty histograms render zeroed, `min ≤ max ≤ sum` and
//! `p50 ≤ p90 ≤ p99` otherwise, one kernel delivery per recorded
//! delivered time, `0 < rounds ≤ deliveries`, no retransmit on a lossless
//! link, and a non-zero `wall_net_ns`.
//!
//! Covered: the three bundled `net = on` scenarios, the `wan-replay`
//! benchmark workload at its default seed, and one configuration no bundled
//! file reaches — flag and dispute hop rounds under loss with retransmit, a
//! heavy-tailed latency and a straggler override (`lossy-ring` is `f = 0`
//! and records no flag or dispute delivery at all).

use nab_repro::nab::DeliveredTimes;
use nab_repro::net::KernelStats;
use nab_repro::scenario::{parse_str, run_sweep, SweepReport};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `delivered` block as the timed JSON shows it, one line per phase.
fn delivered_text(d: &DeliveredTimes) -> String {
    d.phases()
        .iter()
        .map(|(name, h)| {
            format!(
                "{name} count={} sum={} min={} max={} p50={} p90={} p99={}\n",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
            )
        })
        .collect()
}

/// What one scenario pins: the hash of its canonical JSON, the hash of
/// each job's `delivered` block, and — readable, so a failure says which
/// phase moved — the sweep-wide `(count, sum_ns)` per phase and kernel
/// counters.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    canonical: u64,
    jobs: Vec<u64>,
    totals: [(u64, u64); 5],
    kernel: KernelStats,
}

/// Deliveries the phase histograms recorded: every phase but `instance`,
/// which records one completion time per instance.
fn recorded(d: &DeliveredTimes) -> u64 {
    d.phases()[..4].iter().map(|(_, h)| h.count()).sum()
}

/// The timed report's schema and counter invariants (the checks the
/// `delivered` blocks and `net_*` counters must pass on any input).
fn check_timed_report(report: &SweepReport, lossless: bool) {
    let aggregate = report.aggregate.delivered.as_ref().expect("net = on");
    let jobs = report.jobs.iter().map(|job| {
        let m = job.result.as_ref().expect("every grid point runs");
        (format!("job {}", job.index), m.delivered.as_ref().unwrap())
    });
    for (name, d) in jobs.chain([("aggregate".to_string(), aggregate)]) {
        for (phase, h) in d.phases() {
            let at = format!("{name}/{phase}");
            if h.count() == 0 {
                assert_eq!((h.sum(), h.min(), h.max()), (0, 0, 0), "{at}");
                continue;
            }
            assert!(h.min() <= h.max() && h.max() <= h.sum(), "{at}");
            let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| h.percentile(p));
            assert!(p50 <= p90 && p90 <= p99, "{at}: {p50} {p90} {p99}");
        }
        // Phase 1 records per tree edge, which is per message too.
        assert_eq!(d.kernel.deliveries, recorded(d), "{name}");
    }
    let KernelStats {
        rounds,
        deliveries,
        retransmits,
    } = aggregate.kernel;
    assert_eq!(deliveries, recorded(aggregate));
    assert!(0 < rounds && rounds <= deliveries, "{rounds} rounds");
    assert_eq!(lossless, retransmits == 0, "{retransmits} retransmits");
    assert!(report.aggregate.latency.net.sum() > 0, "wall_net_ns");
    let timed = report.to_json_timed();
    assert!(!timed.contains(&u64::MAX.to_string()), "a sentinel leaked");
    for (key, value) in [
        ("net_rounds", rounds),
        ("net_deliveries", deliveries),
        ("net_retransmits", retransmits),
    ] {
        assert!(timed.contains(&format!("\"{key}\":{value},")), "{key}");
    }
}

fn measure(report: &SweepReport) -> Golden {
    let mut total = DeliveredTimes::default();
    let jobs = report
        .jobs
        .iter()
        .map(|job| {
            let m = job.result.as_ref().expect("every grid point runs");
            let d = m.delivered.as_ref().expect("net = on records deliveries");
            total.merge(d);
            fnv1a(delivered_text(d).as_bytes())
        })
        .collect();
    assert_eq!(
        Some(&total),
        report.aggregate.delivered.as_ref(),
        "the aggregate is the merge of the jobs"
    );
    Golden {
        canonical: fnv1a(report.to_json().as_bytes()),
        jobs,
        totals: total.phases().map(|(_, h)| (h.count(), h.sum())),
        kernel: total.kernel,
    }
}

fn run(text: &str) -> Golden {
    let spec = parse_str(text).unwrap_or_else(|e| panic!("{e}"));
    let report = run_sweep(&spec, 1).expect("spec is valid");
    check_timed_report(&report, !text.contains("+loss:"));
    measure(&report)
}

fn kernel(rounds: u64, deliveries: u64, retransmits: u64) -> KernelStats {
    KernelStats {
        rounds,
        deliveries,
        retransmits,
    }
}

fn check(name: &str, got: Golden, want: Golden) {
    assert_eq!(got, want, "{name}: message-level timing moved");
}

#[test]
fn wan_grid_matches_golden() {
    let got = run(include_str!("../scenarios/wan-grid.scenario"));
    // wan-grid streams, equality-checks, flag-broadcasts and (with the
    // rotating corruptor) disputes: every phase's distribution is populated.
    for (phase, (count, _)) in ["phase1", "equality", "flags", "dispute", "instance"]
        .iter()
        .zip(got.totals)
    {
        assert!(count > 0, "wan-grid recorded no {phase} delivery");
    }
    check(
        "wan-grid",
        got,
        Golden {
            canonical: 0xe077_75d1_86ba_47db,
            jobs: vec![
                0x66da_af15_429c_ffdb,
                0x8a21_eaed_01d8_8fb4,
                0xf18d_b84e_6572_f0c2,
                0x1d40_dd1f_927d_3e5c,
                0xba9c_f848_9332_f50f,
                0x9ec3_b3ac_5d52_c114,
                0xe050_06f1_ef06_65d3,
                0x580a_fd77_4714_0893,
            ],
            totals: [
                (656, 53_518_182_762),
                (320, 40_141_747_222),
                (7_650, 15_504_333_476_141),
                (1_530, 159_528_087_201_585),
                (32, 809_913_668_904),
            ],
            kernel: kernel(3_604, 10_156, 0),
        },
    );
}

#[test]
fn straggler_link_matches_golden() {
    check(
        "straggler-link",
        run(include_str!("../scenarios/straggler-link.scenario")),
        Golden {
            canonical: 0x74ff_b404_7a81_be08,
            jobs: vec![
                0x8dc0_1333_d27c_6764,
                0x8dc0_1333_d27c_6764,
                0x8dc0_1333_d27c_6764,
                0xa968_4246_847c_8312,
                0xa968_4246_847c_8312,
                0xa968_4246_847c_8312,
            ],
            totals: [
                (1_440, 50_520_000_000),
                (600, 44_370_000_000),
                (15_750, 2_171_812_500_000),
                (0, 0),
                (30, 13_050_000_000),
            ],
            kernel: kernel(6_060, 17_790, 0),
        },
    );
}

#[test]
fn lossy_ring_matches_golden() {
    check(
        "lossy-ring",
        run(include_str!("../scenarios/lossy-ring.scenario")),
        Golden {
            canonical: 0xe29e_7697_0666_868e,
            jobs: vec![
                0x5806_380c_4b36_85c3,
                0x08fa_8af3_d125_11b5,
                0x328a_a513_b241_0c8d,
                0x3702_d453_dc4a_002a,
                0xce6b_c866_5dda_0856,
                0x0321_5d11_f72c_75f8,
                0x0d0a_71f2_effc_a947,
                0xe44c_8b90_fe08_6e38,
                0x4fdb_b9cf_31b8_bd1f,
                0xe9ea_70ff_96d5_1d79,
                0x7cfb_5bb5_c064_6fa9,
                0x15d8_137b_a510_0f69,
                0x6abe_1c90_7a28_ccf6,
                0xa00d_4efd_7670_d3e0,
                0xd4ae_8e11_d5b7_6a9c,
                0xc450_4eb6_6f30_8294,
            ],
            totals: [
                (1_056, 107_082_249_022),
                (0, 0),
                (0, 0),
                (0, 0),
                (64, 11_438_553_233),
            ],
            kernel: kernel(64, 1_056, 105),
        },
    );
}

/// The `wan-replay` benchmark workload's one scenario file at the
/// harness's default seed.
#[test]
fn wan_replay_workload_matches_golden() {
    let text = include_str!("../benchmark/workloads/wan-replay/wan.scenario");
    assert_eq!(text.matches("{{SEED}}").count(), 1);
    check(
        "wan-replay",
        run(&text.replace("{{SEED}}", "11")),
        Golden {
            canonical: 0x21ad_def4_eb58_2568,
            jobs: vec![
                0x9c00_2d42_5488_f104,
                0x082f_d948_b1a2_8463,
                0xa336_8282_0881_740f,
                0x0f36_b864_086c_8b41,
            ],
            totals: [
                (2_172, 119_920_676_472),
                (864, 67_102_885_373),
                (334_800, 46_988_205_683_916_110),
                (37_200, 150_737_904_902_207_670),
                (32, 15_826_656_685_041),
            ],
            kernel: kernel(175_970, 375_036, 0),
        },
    );
}

/// `f = 1` with a rotating corruptor on a multi-hop network whose links
/// lose one attempt in five, draw log-normal latencies, and include one
/// straggler — so flag and dispute hop rounds retransmit, on links the
/// rounds before them already used, and a `degrade` epoch migrates the
/// plan midway. Both `Broadcast_Default`s.
#[test]
fn lossy_straggling_disputes_match_golden() {
    let scenario = |broadcast: &str| {
        format!(
            "name = lossy-disputes\ntopology = circulant:$n:2:2\nbroadcast = {broadcast}\n\
             adversary = corruptor\nfaults = rotating:1\nmutations = degrade:3:6:25\nq = 6\n\
             symbols = 16\nn = 8\ncap = 2\nf = 1\nseeds = 2\nseed0 = 53\nbounds = false\n\
             net = on\nlink_model = lognormal:2000000:0.4+loss:0.2:3:5000000+straggler:0:1:8\n"
        )
    };
    check(
        "lossy-disputes/eig",
        run(&scenario("eig")),
        Golden {
            canonical: 0x0a5b_5c18_a3a4_3efd,
            jobs: vec![0x14cc_3097_e0d8_2737, 0xeb21_ae78_7a67_09b1],
            totals: [
                (515, 27_796_793_961),
                (224, 16_606_140_057),
                (22_848, 102_855_142_961_081),
                (3_264, 2_370_925_768_299_683),
                (12, 1_516_598_043_540),
            ],
            kernel: kernel(11_923, 26_851, 6_452),
        },
    );
    check(
        "lossy-disputes/phase-king",
        run(&scenario("phase-king")),
        Golden {
            canonical: 0x66b3_1cc5_b90a_6753,
            jobs: vec![0xaea1_7a8e_18e5_895c, 0xbbff_f3ad_221a_c5af],
            totals: [
                (515, 27_796_793_961),
                (224, 16_606_140_057),
                (54_264, 582_978_614_198_398),
                (7_752, 13_304_324_402_551_083),
                (12, 3_588_343_613_260),
            ],
            kernel: kernel(28_387, 62_755, 15_701),
        },
    );
}
