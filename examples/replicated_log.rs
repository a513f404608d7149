//! Replicated state machine: a primary replica broadcasts a log of
//! commands to its peers with NAB, with one compromised replica in the
//! cluster — the paper's motivating application (replicated fault-tolerant
//! state machines, Section 1).
//!
//! Run with: `cargo run --example replicated_log`

use std::collections::BTreeSet;

use nab_repro::nab::adversary::LyingCorruptor;
use nab_repro::nab::engine::{instance_correct, NabConfig, NabEngine};
use nab_repro::nab::Value;
use nab_repro::netgraph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A toy bank ledger command, serialized into 16-bit symbols.
#[derive(Debug, Clone, PartialEq)]
struct Command {
    account: u16,
    amount: u16,
    op: u16, // 0 = deposit, 1 = withdraw
}

impl Command {
    fn to_value(&self, pad_to: usize) -> Value {
        let mut raw = vec![self.account as u64, self.amount as u64, self.op as u64];
        raw.resize(pad_to, 0);
        Value::from_u64s(&raw)
    }

    fn from_value(v: &Value) -> Command {
        let s = v.symbols();
        Command {
            account: s[0].0,
            amount: s[1].0,
            op: s[2].0,
        }
    }
}

fn main() {
    // Five replicas, heterogeneous link speeds (the primary has fast links
    // to some peers, slow to others).
    let mut rng = StdRng::seed_from_u64(9);
    let cluster = gen::complete_heterogeneous(5, 1, 4, &mut rng);
    let cfg = NabConfig {
        f: 1,
        symbols: 32,
        seed: 1,
    };
    let mut engine = NabEngine::new(cluster, cfg).expect("cluster supports BB");

    // Replica 3 is compromised: it corrupts forwarded log entries and lies
    // about it during dispute control.
    let compromised = BTreeSet::from([3]);
    let mut adv = LyingCorruptor;

    let commands = [
        Command {
            account: 7,
            amount: 100,
            op: 0,
        },
        Command {
            account: 7,
            amount: 30,
            op: 1,
        },
        Command {
            account: 9,
            amount: 500,
            op: 0,
        },
        Command {
            account: 7,
            amount: 25,
            op: 1,
        },
        Command {
            account: 9,
            amount: 125,
            op: 1,
        },
    ];

    // Each replica applies agreed commands to its own ledger copy.
    let mut ledgers: Vec<std::collections::BTreeMap<u16, i64>> =
        vec![std::collections::BTreeMap::new(); 5];

    for (i, cmd) in commands.iter().enumerate() {
        let entry = cmd.to_value(32);
        let report = engine
            .run_instance(&entry, &compromised, &mut adv)
            .expect("instance runs");
        assert!(
            instance_correct(&report, &compromised, &entry),
            "agreement and validity hold on every log entry"
        );
        println!(
            "log[{i}] {:?}: dispute={} disputes_so_far={:?}",
            cmd,
            report.dispute_ran,
            engine.disputes().pairs
        );
        for (&replica, out) in &report.outputs {
            if compromised.contains(&replica) {
                continue;
            }
            let decided = Command::from_value(out);
            assert_eq!(decided, *cmd, "replica {replica} diverged!");
            let bal = ledgers[replica].entry(decided.account).or_insert(0);
            *bal += if decided.op == 0 {
                decided.amount as i64
            } else {
                -(decided.amount as i64)
            };
        }
    }

    // All honest ledgers identical.
    let honest: Vec<usize> = (0..5).filter(|r| !compromised.contains(r)).collect();
    for w in honest.windows(2) {
        assert_eq!(ledgers[w[0]], ledgers[w[1]]);
    }
    println!(
        "\nfinal ledger (all honest replicas agree): {:?}",
        ledgers[honest[0]]
    );
}
