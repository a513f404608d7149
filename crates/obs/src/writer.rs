//! Render recorded trace events as JSONL or Chrome `trace_event` JSON.
//!
//! Both writers are pure functions from an event slice to a `String`, so
//! they can be golden-file tested; all field names are static and all
//! values numeric, so no JSON string escaping is needed.
//!
//! - **JSONL** ([`to_jsonl`]): one JSON object per line, in the fixed key
//!   order `seq, ts_ns, job, stream, instance, kind` followed by the
//!   kind-specific payload (`jobs`, `phase`, `build_ns`, `new_pairs`,
//!   `node`, `multiplies`, `expectations_shared`). Grep-friendly and trivially parseable line by line.
//! - **Chrome** ([`to_chrome_trace`]): a `{"traceEvents": [...]}` document
//!   loadable in `about:tracing` or <https://ui.perfetto.dev>. Span-like
//!   events (sweep/job/instance/phase) become `B`/`E` duration pairs;
//!   point events (cache hits, dispute activity) become instant (`i`)
//!   events. The sweep job index maps to `pid` and the stream index to
//!   `tid`, so concurrent jobs render as parallel process tracks;
//!   timestamps are microseconds with the native nanosecond resolution
//!   kept in the fractional part.

use crate::trace::{Event, EventKind};
use std::fmt::Write as _;

/// Render events (in the order given; sort by `seq` first for global
/// order) as JSONL, one event object per line, trailing newline included.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        write_jsonl_event(&mut out, ev);
        out.push('\n');
    }
    out
}

/// Render one event as a single-line JSON object (no trailing newline).
pub fn event_to_jsonl(ev: &Event) -> String {
    let mut out = String::with_capacity(96);
    write_jsonl_event(&mut out, ev);
    out
}

fn write_jsonl_event(out: &mut String, ev: &Event) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"ts_ns\":{},\"job\":{},\"stream\":{},\"instance\":{},\"kind\":\"{}\"",
        ev.seq,
        ev.ts_ns,
        ev.job,
        ev.stream,
        ev.instance,
        ev.kind.name()
    );
    match ev.kind {
        EventKind::SweepStart { jobs, tier, cpu } => {
            // `tier`/`cpu` are static feature names (no escaping needed).
            let _ = write!(
                out,
                ",\"jobs\":{jobs},\"tier\":\"{tier}\",\"cpu\":\"{cpu}\""
            );
        }
        EventKind::PhaseStart(p) | EventKind::PhaseEnd(p) => {
            let _ = write!(out, ",\"phase\":\"{}\"", p.name());
        }
        EventKind::PlanBuilt { build_ns } => {
            let _ = write!(out, ",\"build_ns\":{build_ns}");
        }
        EventKind::PlanRepair { ns } | EventKind::PlanFullRecompute { ns } => {
            let _ = write!(out, ",\"ns\":{ns}");
        }
        EventKind::DisputeRaised { new_pairs } => {
            let _ = write!(out, ",\"new_pairs\":{new_pairs}");
        }
        EventKind::NodeExposed { node } => {
            let _ = write!(out, ",\"node\":{node}");
        }
        EventKind::EqualityProducts {
            multiplies,
            expectations_shared,
        } => {
            let _ = write!(
                out,
                ",\"multiplies\":{multiplies},\"expectations_shared\":{expectations_shared}"
            );
        }
        EventKind::DetSanDigest { phase, digest } => {
            let _ = write!(out, ",\"phase\":\"{}\",\"digest\":{digest}", phase.name());
        }
        _ => {}
    }
    out.push('}');
}

/// Render events as a Chrome `trace_event` JSON document. One trace event
/// per line inside the `traceEvents` array, so the output stays diffable.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        write_chrome_event(&mut out, ev);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Span name, category, and `B`/`E` phase for span-like kinds; `None` for
/// instant kinds.
fn span_parts(kind: EventKind) -> Option<(&'static str, &'static str, char)> {
    match kind {
        EventKind::SweepStart { .. } => Some(("sweep", "sweep", 'B')),
        EventKind::SweepEnd => Some(("sweep", "sweep", 'E')),
        EventKind::JobStart => Some(("job", "job", 'B')),
        EventKind::JobEnd => Some(("job", "job", 'E')),
        EventKind::InstanceStart => Some(("instance", "instance", 'B')),
        EventKind::InstanceEnd => Some(("instance", "instance", 'E')),
        EventKind::PhaseStart(p) => Some((p.name(), "phase", 'B')),
        EventKind::PhaseEnd(p) => Some((p.name(), "phase", 'E')),
        _ => None,
    }
}

fn write_chrome_event(out: &mut String, ev: &Event) {
    // Microseconds with nanosecond resolution in the fraction.
    let ts_us = ev.ts_ns as f64 / 1000.0;
    match span_parts(ev.kind) {
        Some((name, cat, ph)) => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\
                 \"pid\":{},\"tid\":{}",
                ev.job, ev.stream
            );
            match ev.kind {
                EventKind::SweepStart { jobs, tier, .. } => {
                    let _ = write!(out, ",\"args\":{{\"jobs\":{jobs},\"tier\":\"{tier}\"}}");
                }
                EventKind::InstanceStart => {
                    let _ = write!(out, ",\"args\":{{\"instance\":{}}}", ev.instance);
                }
                _ => {}
            }
            out.push('}');
        }
        None => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us:.3},\
                 \"pid\":{},\"tid\":{}",
                ev.kind.name(),
                ev.job,
                ev.stream
            );
            match ev.kind {
                EventKind::PlanBuilt { build_ns } => {
                    let _ = write!(out, ",\"args\":{{\"build_ns\":{build_ns}}}");
                }
                EventKind::PlanRepair { ns } | EventKind::PlanFullRecompute { ns } => {
                    let _ = write!(out, ",\"args\":{{\"ns\":{ns}}}");
                }
                EventKind::DisputeRaised { new_pairs } => {
                    let _ = write!(out, ",\"args\":{{\"new_pairs\":{new_pairs}}}");
                }
                EventKind::NodeExposed { node } => {
                    let _ = write!(out, ",\"args\":{{\"node\":{node}}}");
                }
                EventKind::EqualityProducts {
                    multiplies,
                    expectations_shared,
                } => {
                    let _ = write!(
                        out,
                        ",\"args\":{{\"multiplies\":{multiplies},\
                         \"expectations_shared\":{expectations_shared}}}"
                    );
                }
                EventKind::DetSanDigest { phase, digest } => {
                    let _ = write!(
                        out,
                        ",\"args\":{{\"phase\":\"{}\",\"digest\":{digest}}}",
                        phase.name()
                    );
                }
                _ => {
                    let _ = write!(out, ",\"args\":{{\"instance\":{}}}", ev.instance);
                }
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            ts_ns: seq * 1500,
            job: 2,
            stream: 1,
            instance: 3,
            kind,
        }
    }

    #[test]
    fn jsonl_has_fixed_key_order_and_payloads() {
        let line = event_to_jsonl(&ev(5, EventKind::PhaseStart(Phase::Flags)));
        assert_eq!(
            line,
            "{\"seq\":5,\"ts_ns\":7500,\"job\":2,\"stream\":1,\"instance\":3,\
             \"kind\":\"phase_start\",\"phase\":\"flags\"}"
        );
        let line = event_to_jsonl(&ev(
            0,
            EventKind::SweepStart {
                jobs: 9,
                tier: "avx2",
                cpu: "sse2,avx2",
            },
        ));
        assert!(line.ends_with(
            "\"kind\":\"sweep_start\",\"jobs\":9,\"tier\":\"avx2\",\"cpu\":\"sse2,avx2\"}"
        ));
        let line = event_to_jsonl(&ev(1, EventKind::NodeExposed { node: 4 }));
        assert!(line.ends_with("\"kind\":\"node_exposed\",\"node\":4}"));
        let line = event_to_jsonl(&ev(
            2,
            EventKind::EqualityProducts {
                multiplies: 18,
                expectations_shared: 6,
            },
        ));
        assert!(line.ends_with(
            "\"kind\":\"equality_products\",\"multiplies\":18,\"expectations_shared\":6}"
        ));
    }

    #[test]
    fn chrome_trace_pairs_b_and_e() {
        let events = vec![
            ev(
                0,
                EventKind::SweepStart {
                    jobs: 1,
                    tier: "portable",
                    cpu: "",
                },
            ),
            ev(1, EventKind::JobStart),
            ev(2, EventKind::InstanceStart),
            ev(3, EventKind::PhaseStart(Phase::Phase1)),
            ev(4, EventKind::PlanCacheHit),
            ev(5, EventKind::PhaseEnd(Phase::Phase1)),
            ev(6, EventKind::InstanceEnd),
            ev(7, EventKind::JobEnd),
            ev(8, EventKind::SweepEnd),
        ];
        let doc = to_chrome_trace(&events);
        assert!(doc.starts_with("{\"traceEvents\":[\n"));
        assert!(doc.trim_end().ends_with("],\"displayTimeUnit\":\"ns\"}"));
        let begins = doc.matches("\"ph\":\"B\"").count();
        let ends = doc.matches("\"ph\":\"E\"").count();
        let instants = doc.matches("\"ph\":\"i\"").count();
        assert_eq!(begins, 4);
        assert_eq!(ends, 4);
        assert_eq!(instants, 1);
        // Microsecond timestamps with ns in the fraction.
        assert!(doc.contains("\"ts\":4.500"));
    }
}
