//! Render recorded trace events as JSONL or Chrome `trace_event` JSON.
//!
//! Both writers are pure functions from an event slice to a `String`, so
//! they can be golden-file tested, and both render a kind's payload from
//! the one list [`EventKind::fields`] declares: field names are static
//! and values are numbers, hex digests or static names, so no JSON string
//! escaping is needed.
//!
//! - **JSONL** ([`to_jsonl`]): one JSON object per line, in the fixed key
//!   order `seq, ts_ns, job, instance, kind` followed by the
//!   kind's fields (`jobs`, `phase`, `build_ns`, `new_pairs`, `node`, …).
//!   Grep-friendly and trivially parseable line by line.
//! - **Chrome** ([`to_chrome_trace`]): a `{"traceEvents": [...]}` document
//!   loadable in `about:tracing` or <https://ui.perfetto.dev>. Span-like
//!   events (sweep/job/instance/phase) become `B`/`E` duration pairs;
//!   point events (cache hits, dispute activity) become instant (`i`)
//!   events; `args` holds the instance index and the kind's fields. The
//!   sweep job index maps to `pid` (with `tid` 0), so each job is one
//!   track and concurrent jobs render as parallel process tracks;
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

fn write_jsonl_event(out: &mut String, ev: &Event) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"ts_ns\":{},\"job\":{},\"instance\":{},\"kind\":\"{}\"",
        ev.seq,
        ev.ts_ns,
        ev.job,
        ev.instance,
        ev.kind.name()
    );
    for (name, value) in ev.kind.fields() {
        let _ = write!(out, ",\"{name}\":{value}");
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
    let _ = match span_parts(ev.kind) {
        Some((name, cat, ph)) => write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\""
        ),
        None => write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\"",
            ev.kind.name()
        ),
    };
    let _ = write!(
        out,
        ",\"ts\":{ts_us:.3},\"pid\":{},\"tid\":0,\"args\":{{\"instance\":{}",
        ev.job, ev.instance
    );
    for (name, value) in ev.kind.fields() {
        let _ = write!(out, ",\"{name}\":{value}");
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    /// Render one event as a single-line JSON object (no trailing newline).
    fn event_to_jsonl(ev: &Event) -> String {
        let mut out = String::with_capacity(96);
        write_jsonl_event(&mut out, ev);
        out
    }

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            ts_ns: seq * 1500,
            job: 2,
            instance: 3,
            kind,
        }
    }

    #[test]
    fn jsonl_has_fixed_key_order_and_payloads() {
        let line = event_to_jsonl(&ev(5, EventKind::PhaseStart(Phase::Flags)));
        assert_eq!(
            line,
            "{\"seq\":5,\"ts_ns\":7500,\"job\":2,\"instance\":3,\
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
    fn both_writers_render_the_same_fields() {
        for kind in [
            EventKind::SweepStart {
                jobs: 9,
                tier: "avx2",
                cpu: "sse2,avx2",
            },
            EventKind::PhaseEnd(Phase::Dispute),
            EventKind::PlanRepair { ns: 7 },
            EventKind::DisputeRaised { new_pairs: 2 },
            EventKind::DetSanDigest {
                phase: Phase::Flags,
                digest: u64::MAX,
            },
            EventKind::PlanCacheHit,
        ] {
            let e = ev(1, kind);
            let fields: String = (kind.fields().iter())
                .map(|(name, value)| format!(",\"{name}\":{value}"))
                .collect();
            assert!(event_to_jsonl(&e).ends_with(&format!("\"{}\"{fields}}}", kind.name())));
            let mut chrome = String::new();
            write_chrome_event(&mut chrome, &e);
            assert!(
                chrome.ends_with(&format!(
                    "\"pid\":2,\"tid\":0,\"args\":{{\"instance\":3{fields}}}}}"
                )),
                "{chrome}"
            );
        }
    }

    #[test]
    fn digests_render_as_hex_strings_in_both_writers() {
        let e = ev(
            4,
            EventKind::DetSanDigest {
                phase: Phase::Equality,
                digest: u64::MAX,
            },
        );
        let digest = "\"phase\":\"equality\",\"digest\":\"ffffffffffffffff\"";
        assert!(
            event_to_jsonl(&e).ends_with(&format!("{digest}}}")),
            "{}",
            event_to_jsonl(&e)
        );
        let chrome = to_chrome_trace(&[e]);
        assert!(chrome.contains(&format!("{digest}}}}}")), "{chrome}");
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
