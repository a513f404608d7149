//! E6 — pipelining under propagation delays (Appendix D, Figure 3).
//!
//! With store-and-forward propagation, Phase 1's information travels one
//! hop per `L/γ` time units, so one instance takes `depth · L/γ + L/ρ + O(n^α)`
//! — much worse than the zero-delay model for deep trees. Appendix D's fix:
//! divide time into rounds of `L/γ* + L/ρ* + O(n^α)` and pipeline
//! successive instances hop-by-hop, so for `Q → ∞` the throughput returns
//! to `(L/γ* + L/ρ* + O(n^α))^{-1} · L` — the zero-delay bound of Eq. 6.
//!
//! The experiment compares the two schedules on tree depths measured from
//! real arborescence packings.

#![expect(
    clippy::expect_used,
    reason = "perf-harness setup; aborting on a malformed experiment configuration is the intended behavior"
)]

use nab_netgraph::arborescence::pack_arborescences;
use nab_netgraph::flow::broadcast_rate;
use nab_netgraph::gen;

/// Cost model for one NAB deployment under propagation delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    /// Input size in bits.
    pub l_bits: f64,
    /// Phase-1 rate `γ*`.
    pub gamma: f64,
    /// Equality-check rate `ρ*`.
    pub rho: f64,
    /// Per-instance constant overhead (flag broadcasts, `O(n^α)`).
    pub overhead: f64,
    /// Maximum arborescence depth (hops from the source).
    pub depth: usize,
}

impl PipelineModel {
    /// Length of one pipelined round: `L/γ + L/ρ + overhead`.
    pub fn round_len(&self) -> f64 {
        self.l_bits / self.gamma + self.l_bits / self.rho + self.overhead
    }

    /// Time for one instance *without* pipelining: the broadcast crawls
    /// hop-by-hop, then the equality check runs.
    pub fn unpipelined_instance_time(&self) -> f64 {
        self.depth as f64 * (self.l_bits / self.gamma) + self.l_bits / self.rho + self.overhead
    }

    /// Total time for `q` instances without pipelining.
    pub fn unpipelined_total(&self, q: usize) -> f64 {
        q as f64 * self.unpipelined_instance_time()
    }

    /// Total time for `q` pipelined instances: the pipeline fills over
    /// `depth` rounds, then completes one instance per round.
    pub fn pipelined_total(&self, q: usize) -> f64 {
        if q == 0 {
            return 0.0;
        }
        (q as f64 + self.depth as f64 - 1.0) * self.round_len()
    }

    /// Throughput of `q` unpipelined instances.
    pub fn unpipelined_throughput(&self, q: usize) -> f64 {
        if q == 0 {
            return 0.0;
        }
        (q as f64 * self.l_bits) / self.unpipelined_total(q)
    }

    /// Throughput of `q` pipelined instances.
    pub fn pipelined_throughput(&self, q: usize) -> f64 {
        if q == 0 {
            return 0.0;
        }
        (q as f64 * self.l_bits) / self.pipelined_total(q)
    }

    /// The `Q → ∞` pipelined throughput: `L / round_len` — with zero
    /// overhead this is exactly Eq. 6's `γρ/(γ+ρ)`.
    pub fn asymptotic_throughput(&self) -> f64 {
        self.l_bits / self.round_len()
    }
}

/// One depth sweep point.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Network label.
    pub name: String,
    /// Deepest arborescence (hops).
    pub depth: usize,
    /// Instances simulated.
    pub q: usize,
    /// Store-and-forward throughput.
    pub unpipelined: f64,
    /// Pipelined throughput.
    pub pipelined: f64,
    /// The `Q → ∞` limit (`≈` Eq. 6 with overhead).
    pub asymptotic: f64,
}

/// Builds a model from a real graph: measures `γ`, tree depth, and uses
/// `ρ = γ` for a conservative equality-check rate.
pub fn model_for(
    name: &str,
    g: &nab_netgraph::DiGraph,
    l_bits: f64,
    overhead: f64,
) -> PipelineModel {
    let gamma = broadcast_rate(g, 0);
    let trees = pack_arborescences(g, 0, gamma).expect("packing");
    let depth = trees.iter().map(|t| t.depth()).max().unwrap_or(1);
    let _ = name;
    PipelineModel {
        l_bits,
        gamma: gamma as f64,
        rho: gamma as f64,
        overhead,
        depth,
    }
}

/// Runs the sweep over network families of growing diameter.
pub fn run(q: usize) -> Vec<PipelineRow> {
    let mut rows = Vec::new();
    let nets = vec![
        ("K4".to_string(), gen::complete(4, 1)),
        ("K6".to_string(), gen::complete(6, 1)),
        ("barbell 3+3".to_string(), gen::barbell(3, 2, 2, 1)),
        ("ring 8".to_string(), gen::ring(8, 2)),
    ];
    for (name, g) in nets {
        let m = model_for(&name, &g, 4096.0, 32.0);
        rows.push(PipelineRow {
            name,
            depth: m.depth,
            q,
            unpipelined: m.unpipelined_throughput(q),
            pipelined: m.pipelined_throughput(q),
            asymptotic: m.asymptotic_throughput(),
        });
    }
    rows
}

/// Formats the sweep.
pub fn table(rows: &[PipelineRow]) -> String {
    crate::format_table(
        &[
            "network",
            "depth",
            "Q",
            "store&fwd T",
            "pipelined T",
            "Q→∞ limit",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.depth.to_string(),
                    r.q.to_string(),
                    format!("{:.1}", r.unpipelined),
                    format!("{:.1}", r.pipelined),
                    format!("{:.1}", r.asymptotic),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(depth: usize) -> PipelineModel {
        PipelineModel {
            l_bits: 1200.0,
            gamma: 3.0,
            rho: 2.0,
            overhead: 10.0,
            depth,
        }
    }

    #[test]
    fn asymptotic_matches_eq6_when_overhead_vanishes() {
        let m = PipelineModel {
            overhead: 0.0,
            ..model(3)
        };
        let eq6 = (m.gamma * m.rho) / (m.gamma + m.rho);
        assert!((m.asymptotic_throughput() - eq6).abs() < 1e-9);
    }

    #[test]
    fn pipelining_beats_store_and_forward_for_deep_trees() {
        let m = model(4);
        let q = 100;
        assert!(m.pipelined_throughput(q) > m.unpipelined_throughput(q));
    }

    #[test]
    fn depth_one_pipelining_is_free() {
        // With a single hop there is nothing to pipeline; both models agree
        // as q grows.
        let m = model(1);
        let q = 10_000;
        let rel = (m.pipelined_throughput(q) - m.unpipelined_throughput(q)).abs()
            / m.pipelined_throughput(q);
        assert!(rel < 1e-3, "rel={rel}");
    }

    #[test]
    fn pipelined_throughput_converges_from_below() {
        let m = model(5);
        let t10 = m.pipelined_throughput(10);
        let t100 = m.pipelined_throughput(100);
        let t_inf = m.asymptotic_throughput();
        assert!(t10 < t100 && t100 < t_inf);
        assert!((m.pipelined_throughput(1_000_000) - t_inf).abs() / t_inf < 1e-4);
    }

    #[test]
    fn zero_instances_zero_time() {
        let m = model(3);
        assert_eq!(m.pipelined_total(0), 0.0);
        assert_eq!(m.unpipelined_throughput(0), 0.0);
        assert_eq!(m.pipelined_throughput(0), 0.0);
    }

    #[test]
    fn unpipelined_time_grows_with_depth() {
        assert!(model(6).unpipelined_instance_time() > model(2).unpipelined_instance_time());
    }

    #[test]
    fn pipelining_never_loses_and_wins_on_deep_graphs() {
        let rows = run(200);
        for r in &rows {
            assert!(
                r.pipelined >= r.unpipelined * 0.999,
                "{}: pipelined {} < unpipelined {}",
                r.name,
                r.pipelined,
                r.unpipelined
            );
            assert!(r.pipelined <= r.asymptotic);
        }
        // The ring has real depth; pipelining must win clearly there.
        let ring = rows.iter().find(|r| r.name == "ring 8").unwrap();
        assert!(ring.depth >= 3);
        assert!(ring.pipelined > ring.unpipelined * 1.5);
    }
}
