//! Per-node adversary strategy specs, resolved to live
//! [`NabAdversary`] instances per job.

use std::collections::BTreeSet;

use nab::adversary::{
    EqualityGarbler, EquivocatingSource, FalseAlarm, FramingCollusion, HonestStrategy,
    LyingCorruptor, NabAdversary, RandomStrategy, TruthfulCorruptor,
};
use nab_gf::Gf2_16;
use nab_netgraph::NodeId;

use crate::grammar::{param, Arg, Form, Kind, Term};

/// What an adversary form builds: the live strategy for one job from the
/// term's arguments and the job's seed.
pub type Strategy = fn(&[Arg], u64) -> Box<dyn NabAdversary>;

/// A declarative adversary strategy: a row of [`FORMS`] and its arguments.
pub type AdversarySpec = Term<Strategy>;

/// Every adversary form, in the order help and errors list them.
pub static FORMS: [Form<Strategy>; 9] = [
    Form {
        name: "honest",
        params: &[],
        about: "faulty nodes follow the protocol (crash-like faults)",
        build: |_, _| Box::new(HonestStrategy),
    },
    Form {
        name: "corruptor",
        params: &[],
        about: "corrupts Phase-1 forwards, truthful in dispute control (gets exposed)",
        build: |_, _| Box::new(TruthfulCorruptor),
    },
    Form {
        name: "liar",
        params: &[],
        about: "corrupts Phase-1 forwards and lies in dispute control (lands in dispute pairs)",
        build: |_, _| Box::new(LyingCorruptor),
    },
    Form {
        name: "false-alarm",
        params: &[],
        about: "announces MISMATCH on clean instances (the amortization attack)",
        build: |_, _| Box::new(FalseAlarm),
    },
    Form {
        name: "equivocate",
        params: &[],
        about: "a source that sends different values per arborescence",
        build: |_, _| Box::new(EquivocatingSource),
    },
    Form {
        name: "garbler",
        params: &[],
        about: "corrupts equality-check symbols only",
        build: |_, _| Box::new(EqualityGarbler),
    },
    Form {
        name: "random",
        params: &[param("P", Kind::Float(0.0, 1.0)).or("0.5")],
        about: "corrupts each hook independently with probability P, job-seeded",
        build: |a, seed| {
            Box::new(RandomStrategy::new(
                seed ^ 0x6164_7665_7273_6172,
                a[0].float(),
            ))
        }, // "adversar"
    },
    Form {
        name: "collude",
        params: &[
            param("SCAPEGOAT", Kind::Node(false)),
            param("CORRUPTOR", Kind::Node(true)),
        ],
        about: "two colluding faulty nodes frame the fault-free SCAPEGOAT",
        build: |a, _| {
            let (scapegoat, corruptor) = (a[0].uint() as NodeId, a[1].uint() as NodeId);
            Box::new(FramingCollusion {
                scapegoat,
                corruptor,
            })
        },
    },
    // Not a protocol attack: it exercises the sweep runner's per-job panic
    // isolation (a panicking job must become a job-level error, never take
    // down the sweep).
    Form {
        name: "chaos-panic",
        params: &[],
        about:
            "panics the first time a faulty node acts: the job records the panic, the sweep goes on",
        build: |_, _| Box::new(PanicInjector),
    },
];

/// The live strategy behind `chaos-panic`.
struct PanicInjector;

#[expect(
    clippy::panic,
    reason = "chaos-panic adversary panics by design; harness catches the unwind"
)]
impl NabAdversary for PanicInjector {
    fn phase1_source_block(
        &mut self,
        tree: usize,
        child: NodeId,
        _honest: &[Gf2_16],
    ) -> Vec<Gf2_16> {
        panic!("chaos-panic adversary fired (source block, tree {tree}, child {child})");
    }

    fn phase1_forward(
        &mut self,
        node: NodeId,
        tree: usize,
        _child: NodeId,
        _honest: &[Gf2_16],
    ) -> Vec<Gf2_16> {
        panic!("chaos-panic adversary fired (forward, node {node}, tree {tree})");
    }

    fn equality_symbols(&mut self, src: NodeId, _dst: NodeId, _honest: &[Gf2_16]) -> Vec<Gf2_16> {
        panic!("chaos-panic adversary fired (equality, node {src})");
    }

    fn flag(&mut self, node: NodeId, _honest: bool) -> bool {
        panic!("chaos-panic adversary fired (flag, node {node})");
    }
}

impl AdversarySpec {
    /// Parses specs like `honest`, `random:0.3`, `collude:3:2`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Term::read("adversary", &FORMS, spec)
    }

    /// Checks the strategy can act on a concrete network and fault
    /// placement: every node parameter ([`Kind::Node`]) names a node of the
    /// network, faulty or fault-free as the parameter requires. Adversary
    /// hooks fire only for faulty nodes, so otherwise the "attack" silently
    /// never executes and the run measures an honest deployment.
    ///
    /// # Errors
    ///
    /// Returns why the strategy cannot act.
    pub fn validate_for(&self, n: usize, faulty: &BTreeSet<NodeId>) -> Result<(), String> {
        for (p, arg) in self.form.params.iter().zip(&self.args) {
            let Kind::Node(must_be_faulty) = p.kind else {
                continue;
            };
            let (v, spec) = (arg.uint() as NodeId, self.spec_string());
            if v >= n {
                return Err(format!("{spec} names a node outside 0..{n}"));
            }
            if faulty.contains(&v) != must_be_faulty {
                let role = match must_be_faulty {
                    true => "faulty, or the attack would never execute",
                    false => "fault-free",
                };
                let name = p.name;
                return Err(format!(
                    "{spec}: {name} {v} must be {role}; faulty set {faulty:?}"
                ));
            }
        }
        Ok(())
    }

    /// Instantiates the strategy for one job; randomized strategies are
    /// seeded from the job's deterministic seed.
    pub fn build(&self, job_seed: u64) -> Box<dyn NabAdversary> {
        (self.form.build)(&self.args, job_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> AdversarySpec {
        AdversarySpec::parse(s).unwrap()
    }

    #[test]
    fn collude_validation_requires_a_faulty_corruptor_and_honest_scapegoat() {
        let collude = spec("collude:3:1");
        let faulty = BTreeSet::from([1, 2]);
        assert!(collude.validate_for(7, &faulty).is_ok());
        // Corruptor not faulty → the attack would never run.
        let e = collude.validate_for(7, &BTreeSet::from([2])).unwrap_err();
        assert!(
            e.contains("CORRUPTOR 1") && e.contains("never execute"),
            "{e}"
        );
        // Scapegoat faulty → nothing to frame.
        let e = collude
            .validate_for(7, &BTreeSet::from([1, 3]))
            .unwrap_err();
        assert!(e.contains("SCAPEGOAT 3") && e.contains("fault-free"), "{e}");
        // Ids outside the graph.
        let e = collude.validate_for(3, &faulty).unwrap_err();
        assert!(e.contains("outside"), "{e}");
        // Forms without node parameters have nothing to validate.
        assert!(spec("honest").validate_for(1, &faulty).is_ok());
    }

    #[test]
    fn build_produces_working_strategies() {
        use nab_gf::field::Field;
        let block = vec![Gf2_16::ONE, Gf2_16::ZERO];
        // Honest is the identity on forwards; corruptor is not.
        let mut honest = spec("honest").build(1);
        assert_eq!(honest.phase1_forward(1, 0, 2, &block), block);
        let mut corr = spec("corruptor").build(1);
        assert_ne!(corr.phase1_forward(1, 0, 2, &block), block);
        // p=1 random always corrupts the flag.
        let mut rnd = spec("random:1").build(1);
        assert!(rnd.flag(0, false));
    }
}
