//! Link-model extremes under message-level execution (`net = on`): delays,
//! straggler factors and retransmit timeouts at `u64::MAX`. The kernel's
//! arithmetic saturates, so an extreme link can only slow a phase down:
//! every job still runs (an overflow would panic it in a debug build) and
//! every phase time is at least the same job's under `fixed:0`. The
//! equality check crosses every link, so it takes at least the slow link's
//! delay (an overflow that wrapped would come back early in a release
//! build).

use nab_repro::net::UNIT_NS;
use nab_repro::scenario::{parse_str, run_sweep};

const MAX: u64 = u64::MAX;

/// Each job's `[phase1, equality, flags, dispute]` times on `complete:4:2`
/// with a rotating corruptor, so disputes run too.
fn phase_times(link_model: &str) -> Vec<[f64; 4]> {
    let text = format!(
        "name = extremes\ntopology = complete:4:2\nadversary = corruptor\n\
         faults = rotating:1\nq = 4\nsymbols = 8\nf = 1\nseeds = 2\nnet = on\n\
         link_model = {link_model}\n"
    );
    let spec = parse_str(&text).unwrap_or_else(|e| panic!("{link_model}: {e}"));
    let report = run_sweep(&spec, 1).expect("spec is valid");
    (report.jobs.iter())
        .map(|job| {
            let m = (job.result.as_ref()).unwrap_or_else(|e| panic!("{link_model}: {e}"));
            assert!(m.all_correct, "{link_model}: timing changed an output");
            [m.phase1_time, m.equality_time, m.flags_time, m.dispute_time]
        })
        .collect()
}

#[test]
fn extreme_link_models_only_slow_phases_down() {
    let floor = phase_times("fixed:0");
    assert!(
        floor.iter().any(|t| t.iter().all(|&x| x > 0.0)),
        "{floor:?}"
    );
    // Each extreme with the least delay its slowest link can deliver in.
    for (extreme, slow_ns) in [
        (format!("fixed:{MAX}"), MAX),
        (format!("fixed:1000+straggler:0:1:{MAX}"), MAX),
        (format!("uniform:{MAX}:{MAX}"), MAX),
        (format!("lognormal:{MAX}:0.5"), MAX / 8),
        (format!("fixed:0+loss:1:16:{MAX}"), MAX),
    ] {
        let got = phase_times(&extreme);
        for (job, (got, floor)) in got.iter().zip(&floor).enumerate() {
            for (phase, (g, f)) in ["phase1", "equality", "flags", "dispute"]
                .iter()
                .zip(got.iter().zip(floor))
            {
                assert!(g >= f, "{extreme}, job {job}: {phase} {g} < {f}");
            }
            let slow = slow_ns as f64 / UNIT_NS as f64;
            assert!(got[1] >= slow, "{extreme}, job {job}: equality {}", got[1]);
        }
    }
}
