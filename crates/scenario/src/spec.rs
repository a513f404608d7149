//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] describes a whole *family* of NAB executions: a
//! parameterized topology, a fault placement schedule, an adversary
//! strategy, a broadcast backend, a workload shape, and the grid of
//! parameters (`n`, `cap`, `f`, `symbols`, seed repetitions) the sweep
//! runner expands into jobs. Build one in Rust from
//! [`ScenarioSpec::new`] and its public fields, or load one from a
//! `.scenario` file via [`crate::parse`].

use nab::BroadcastKind;

use crate::adversary::AdversarySpec;
use crate::faults::FaultSchedule;
use crate::mutations::MutationSchedule;
use crate::topology::TopologyTemplate;

/// A declarative fault/workload scenario (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reported in the sweep JSON).
    pub name: String,
    /// Parameterized topology family.
    pub topology: TopologyTemplate,
    /// Classic-BB backend for flag/claim broadcasts.
    pub broadcast: BroadcastKind,
    /// Byzantine strategy of the faulty nodes.
    pub adversary: AdversarySpec,
    /// Fault placement schedule.
    pub faults: FaultSchedule,
    /// Mid-job topology mutation schedule: every `every` instances the
    /// network's link capacities are rewritten (OCS-style degrade /
    /// re-provision) and engines migrate to the new network's plan,
    /// carrying their dispute state. `none` by default.
    pub mutations: MutationSchedule,
    /// Broadcast instances per job (the paper's `Q`).
    pub q: usize,
    /// Always 1: a job is one deployment, one engine running `q`
    /// instances. No `.scenario` key sets it and [`validate`] refuses any
    /// other value; the field stays only while the `benchmark/` harness
    /// reads it, and goes with that harness's next revision.
    ///
    /// [`validate`]: ScenarioSpec::validate
    pub streams: usize,
    /// Grid axis: node counts substituted for `$n`.
    pub n: Vec<usize>,
    /// Grid axis: capacity scales substituted for `$cap`.
    pub cap: Vec<u64>,
    /// Grid axis: fault bounds substituted for `$f` / `2f+1`.
    pub f: Vec<usize>,
    /// Grid axis: input sizes in 16-bit symbols.
    pub symbols: Vec<usize>,
    /// Seed repetitions per grid point (seed indices `0..seeds`).
    pub seeds: u64,
    /// Base seed all per-job seeds derive from.
    pub seed0: u64,
    /// Whether each job also computes the paper's bounds (Eq. 6 lower,
    /// Theorem 2 upper) for comparison — costs extra per job.
    pub bounds: bool,
    /// Enumeration budget for `γ*` when `bounds` is on.
    pub bounds_budget: usize,
    /// Per-link latency/jitter/loss models used when message-level
    /// execution is on (see [`ScenarioSpec::net`]). The default is the
    /// zero model (zero latency, lossless), under which message-level
    /// timing matches the formula path within rounding.
    pub link_model: nab_net::NetSpec,
    /// Whether jobs execute message-level over the `nab-net` event
    /// kernel (phase durations and delivered-time histograms come from
    /// messages in flight) instead of the synchronous formula charges.
    /// Off by default.
    pub net: bool,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".into(),
            #[expect(
                clippy::expect_used,
                reason = "a literal spec of a FAMILIES row; `defaults_fill_unset_keys` parses it on every test run"
            )]
            topology: TopologyTemplate::parse("complete:$n:$cap").expect("a table family"),
            broadcast: BroadcastKind::default(),
            #[expect(
                clippy::expect_used,
                reason = "a literal spec of a FORMS row, parsed by `defaults_fill_unset_keys` on every test run"
            )]
            adversary: AdversarySpec::parse("honest").expect("a table row"),
            #[expect(clippy::expect_used, reason = "as for `adversary`")]
            faults: FaultSchedule::parse("none").expect("a table row"),
            #[expect(clippy::expect_used, reason = "as for `adversary`")]
            mutations: MutationSchedule::parse("none").expect("a table row"),
            q: 8,
            streams: 1,
            n: vec![4],
            cap: vec![2],
            f: vec![1],
            symbols: vec![16],
            seeds: 1,
            seed0: 7,
            bounds: false,
            bounds_budget: 1 << 14,
            link_model: nab_net::NetSpec::default(),
            net: false,
        }
    }
}

impl ScenarioSpec {
    /// A default spec with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            ..ScenarioSpec::default()
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.q == 0 {
            return Err("q must be ≥ 1".into());
        }
        if self.streams != 1 {
            return Err("streams must be 1: a job is one deployment".into());
        }
        // `seeds = 0` is a legal *empty* grid (zero jobs): sweeps run
        // vacuously and the CLI reports it as a distinct exit code, so a
        // scripted `sed`-style seeds override can turn a scenario off.
        for axis in [
            ("n", self.n.is_empty()),
            ("cap", self.cap.is_empty()),
            ("f", self.f.is_empty()),
            ("symbols", self.symbols.is_empty()),
        ] {
            if axis.1 {
                return Err(format!("grid axis {:?} must not be empty", axis.0));
            }
        }
        if self.symbols.contains(&0) {
            return Err("symbols entries must be ≥ 1".into());
        }
        Ok(())
    }

    /// Total jobs the grid expands to.
    pub fn job_count(&self) -> usize {
        self.n.len() * self.cap.len() * self.f.len() * self.symbols.len() * self.seeds as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_compose() {
        let s = ScenarioSpec {
            topology: TopologyTemplate::parse("fig1a").unwrap(),
            adversary: AdversarySpec::parse("corruptor").unwrap(),
            faults: FaultSchedule::parse("rotating:1").unwrap(),
            q: 4,
            n: vec![4, 5],
            cap: vec![1, 2],
            f: vec![1],
            symbols: vec![8, 16],
            seeds: 3,
            seed0: 99,
            ..ScenarioSpec::new("t")
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.job_count(), 2 * 2 * 2 * 3);
    }

    #[test]
    fn validation_catches_empty_axes() {
        let s = ScenarioSpec {
            n: vec![],
            ..ScenarioSpec::new("t")
        };
        assert!(s.validate().unwrap_err().contains("\"n\""));
        let s = ScenarioSpec {
            q: 0,
            ..ScenarioSpec::new("t")
        };
        assert!(s.validate().is_err());
        let s = ScenarioSpec {
            symbols: vec![0],
            ..ScenarioSpec::new("t")
        };
        assert!(s.validate().is_err());
        let s = ScenarioSpec {
            streams: 3,
            ..ScenarioSpec::new("t")
        };
        assert!(s.validate().unwrap_err().contains("streams must be 1"));
    }
}
