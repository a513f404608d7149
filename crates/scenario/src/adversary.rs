//! Per-node adversary strategy specs, resolved to live
//! [`NabAdversary`] instances per job.

use nab::adversary::{
    EqualityGarbler, EquivocatingSource, FalseAlarm, FramingCollusion, HonestStrategy,
    LyingCorruptor, NabAdversary, RandomStrategy, TruthfulCorruptor,
};
use nab_gf::Gf2_16;
use nab_netgraph::NodeId;

/// Every form [`AdversarySpec::parse`] reads: its unknown-adversary error and
/// `nab-sim --help` print this, and `docs/scenarios.md` must list each.
pub const KNOWN: &str = "honest, corruptor, liar, false-alarm, equivocate, garbler, random:P, \
                         collude:SCAPEGOAT:CORRUPTOR, chaos-panic";

/// A declarative adversary strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversarySpec {
    /// Faulty nodes follow the protocol ("crash-like" faults).
    Honest,
    /// Corrupt Phase-1 forwards, tell the truth in dispute control.
    Corruptor,
    /// Corrupt Phase-1 forwards and lie in dispute control.
    Liar,
    /// Announce MISMATCH on clean instances (the amortization attack).
    FalseAlarm,
    /// A source that equivocates across arborescences.
    Equivocate,
    /// Garble equality-check symbols only.
    Garbler,
    /// Corrupt each hook independently with probability `p`.
    Random {
        /// Per-hook corruption probability.
        p: f64,
    },
    /// Two colluding faulty nodes frame an innocent `scapegoat`.
    Collude {
        /// The fault-free node the colluders implicate.
        scapegoat: NodeId,
        /// The faulty node that corrupts Phase 1.
        corruptor: NodeId,
    },
    /// Chaos-testing hook: the adversary **panics** the first time a
    /// faulty node acts. Not a protocol attack — it exists to exercise
    /// the sweep runner's per-job panic isolation (a panicking job must
    /// become a job-level error, never take down the sweep).
    ChaosPanic,
}

/// The live strategy behind [`AdversarySpec::ChaosPanic`].
struct PanicInjector;

impl NabAdversary for PanicInjector {
    fn phase1_source_block(
        &mut self,
        tree: usize,
        child: NodeId,
        _honest: &[Gf2_16],
    ) -> Vec<Gf2_16> {
        // nab-lint: allow(NAB003): chaos-panic adversary panics by design; harness catches the unwind
        panic!("chaos-panic adversary fired (source block, tree {tree}, child {child})");
    }

    fn phase1_forward(
        &mut self,
        node: NodeId,
        tree: usize,
        _child: NodeId,
        _honest: &[Gf2_16],
    ) -> Vec<Gf2_16> {
        // nab-lint: allow(NAB003): chaos-panic adversary panics by design; harness catches the unwind
        panic!("chaos-panic adversary fired (forward, node {node}, tree {tree})");
    }

    fn equality_symbols(&mut self, src: NodeId, _dst: NodeId, _honest: &[Gf2_16]) -> Vec<Gf2_16> {
        panic!("chaos-panic adversary fired (equality, node {src})"); // nab-lint: allow(NAB003): chaos-panic adversary panics by design; harness catches the unwind
    }

    fn flag(&mut self, node: NodeId, _honest: bool) -> bool {
        panic!("chaos-panic adversary fired (flag, node {node})"); // nab-lint: allow(NAB003): chaos-panic adversary panics by design; harness catches the unwind
    }
}

impl AdversarySpec {
    /// Parses specs like `honest`, `random:0.3`, `collude:3:2`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        match parts[0] {
            "honest" if parts.len() == 1 => Ok(AdversarySpec::Honest),
            "corruptor" if parts.len() == 1 => Ok(AdversarySpec::Corruptor),
            "liar" if parts.len() == 1 => Ok(AdversarySpec::Liar),
            "false-alarm" if parts.len() == 1 => Ok(AdversarySpec::FalseAlarm),
            "equivocate" if parts.len() == 1 => Ok(AdversarySpec::Equivocate),
            "garbler" if parts.len() == 1 => Ok(AdversarySpec::Garbler),
            "random" => {
                let p: f64 = match parts.len() {
                    1 => 0.5,
                    2 => parts[1]
                        .parse()
                        .map_err(|_| format!("adversary random: bad probability {:?}", parts[1]))?,
                    _ => return Err("adversary random takes one parameter: random:P".into()),
                };
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("adversary random: probability {p} outside [0,1]"));
                }
                Ok(AdversarySpec::Random { p })
            }
            "collude" if parts.len() == 3 => {
                let scapegoat = parts[1]
                    .parse()
                    .map_err(|_| format!("adversary collude: bad scapegoat id {:?}", parts[1]))?;
                let corruptor = parts[2]
                    .parse()
                    .map_err(|_| format!("adversary collude: bad corruptor id {:?}", parts[2]))?;
                Ok(AdversarySpec::Collude {
                    scapegoat,
                    corruptor,
                })
            }
            "chaos-panic" if parts.len() == 1 => Ok(AdversarySpec::ChaosPanic),
            other => Err(format!("unknown adversary {other:?} (known: {KNOWN})")),
        }
    }

    /// The canonical spec string this adversary parses from.
    pub fn spec_string(&self) -> String {
        match self {
            AdversarySpec::Honest => "honest".into(),
            AdversarySpec::Corruptor => "corruptor".into(),
            AdversarySpec::Liar => "liar".into(),
            AdversarySpec::FalseAlarm => "false-alarm".into(),
            AdversarySpec::Equivocate => "equivocate".into(),
            AdversarySpec::Garbler => "garbler".into(),
            AdversarySpec::Random { p } => format!("random:{p}"),
            AdversarySpec::Collude {
                scapegoat,
                corruptor,
            } => format!("collude:{scapegoat}:{corruptor}"),
            AdversarySpec::ChaosPanic => "chaos-panic".into(),
        }
    }

    /// Checks the strategy is meaningful for a concrete network and fault
    /// placement. Only `collude` carries node ids: its corruptor must
    /// actually be faulty (adversary hooks fire only for faulty nodes)
    /// and its scapegoat must be an existing fault-free node — otherwise
    /// the "attack" silently never executes and the run measures an
    /// honest deployment.
    ///
    /// # Errors
    ///
    /// Returns why the strategy cannot act.
    pub fn validate_for(
        &self,
        n: usize,
        faulty: &std::collections::BTreeSet<NodeId>,
    ) -> Result<(), String> {
        let AdversarySpec::Collude {
            scapegoat,
            corruptor,
        } = self
        else {
            return Ok(());
        };
        if *scapegoat >= n || *corruptor >= n {
            return Err(format!(
                "collude:{scapegoat}:{corruptor} names a node outside 0..{n}"
            ));
        }
        if !faulty.contains(corruptor) {
            return Err(format!(
                "collude corruptor {corruptor} is not in the faulty set {faulty:?}, \
                 so the attack would never execute"
            ));
        }
        if faulty.contains(scapegoat) {
            return Err(format!(
                "collude scapegoat {scapegoat} must be fault-free, but it is in the \
                 faulty set {faulty:?}"
            ));
        }
        Ok(())
    }

    /// Instantiates the strategy for one job; randomized strategies are
    /// seeded from the job's deterministic seed.
    pub fn build(&self, job_seed: u64) -> Box<dyn NabAdversary> {
        match self {
            AdversarySpec::Honest => Box::new(HonestStrategy),
            AdversarySpec::Corruptor => Box::new(TruthfulCorruptor),
            AdversarySpec::Liar => Box::new(LyingCorruptor),
            AdversarySpec::FalseAlarm => Box::new(FalseAlarm),
            AdversarySpec::Equivocate => Box::new(EquivocatingSource),
            AdversarySpec::Garbler => Box::new(EqualityGarbler),
            AdversarySpec::Random { p } => Box::new(RandomStrategy::new(
                job_seed ^ 0x6164_7665_7273_6172, // "adversar"
                *p,
            )),
            AdversarySpec::Collude {
                scapegoat,
                corruptor,
            } => Box::new(FramingCollusion {
                scapegoat: *scapegoat,
                corruptor: *corruptor,
            }),
            AdversarySpec::ChaosPanic => Box::new(PanicInjector),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        for s in [
            "honest",
            "corruptor",
            "liar",
            "false-alarm",
            "equivocate",
            "garbler",
            "random:0.25",
            "collude:3:2",
            "chaos-panic",
        ] {
            let a = AdversarySpec::parse(s).unwrap();
            assert_eq!(a.spec_string(), s);
        }
    }

    #[test]
    fn bad_specs_are_errors() {
        assert!(AdversarySpec::parse("evil").is_err());
        assert!(AdversarySpec::parse("random:2.0").is_err());
        assert!(AdversarySpec::parse("random:x").is_err());
        assert!(AdversarySpec::parse("collude:1").is_err());
        assert!(AdversarySpec::parse("honest:1").is_err());
    }

    #[test]
    fn collude_validation_requires_a_faulty_corruptor_and_honest_scapegoat() {
        use std::collections::BTreeSet;
        let spec = AdversarySpec::Collude {
            scapegoat: 3,
            corruptor: 1,
        };
        let faulty = BTreeSet::from([1, 2]);
        assert!(spec.validate_for(7, &faulty).is_ok());
        // Corruptor not faulty → the attack would never run.
        let e = spec.validate_for(7, &BTreeSet::from([2])).unwrap_err();
        assert!(e.contains("never execute"), "{e}");
        // Scapegoat faulty → nothing to frame.
        let e = spec.validate_for(7, &BTreeSet::from([1, 3])).unwrap_err();
        assert!(e.contains("fault-free"), "{e}");
        // Ids outside the graph.
        let e = spec.validate_for(3, &faulty).unwrap_err();
        assert!(e.contains("outside"), "{e}");
        // Non-collude strategies have nothing to validate.
        assert!(AdversarySpec::Honest.validate_for(1, &faulty).is_ok());
    }

    #[test]
    fn build_produces_working_strategies() {
        use nab_gf::field::Field;
        use nab_gf::Gf2_16;
        let block = vec![Gf2_16::ONE, Gf2_16::ZERO];
        // Honest is the identity on forwards; corruptor is not.
        let mut honest = AdversarySpec::Honest.build(1);
        assert_eq!(honest.phase1_forward(1, 0, 2, &block), block);
        let mut corr = AdversarySpec::Corruptor.build(1);
        assert_ne!(corr.phase1_forward(1, 0, 2, &block), block);
        // p=1 random always corrupts the flag.
        let mut rnd = AdversarySpec::Random { p: 1.0 }.build(1);
        assert!(rnd.flag(0, false));
    }
}
