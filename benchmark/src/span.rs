//! In-memory spans recorded by the harness around its calls into each
//! layer. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use nab_obs::clock;

/// One timed call: which layer function, when, caused by which span, for
/// which job.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// A stack-disciplined span recorder: `enter` pushes, `exit` pops, and the
/// span open at `enter` time is recorded as the cause.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: clock::mono_now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Tags subsequently entered spans with `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = clock::elapsed_ns(self.origin);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let now = clock::elapsed_ns(self.origin);
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per line: name, start, end, parent, job.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.job
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set intervals: parent [0,100) with children
    /// [10,30) and [40,90), the second holding a grandchild [50,60).
    fn fixture() -> Recorder {
        let mut r = Recorder::new();
        let p = r.enter("parent");
        let a = r.enter("child");
        r.exit(a);
        let b = r.enter("child");
        let g = r.enter("grandchild");
        r.exit(g);
        r.exit(b);
        r.exit(p);
        for (id, (s, e)) in [(0, 100), (10, 30), (40, 90), (50, 60)]
            .into_iter()
            .enumerate()
        {
            r.spans[id].start_ns = s;
            r.spans[id].end_ns = e;
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = fixture();
        assert_eq!(r.self_times_ns(), vec![30, 20, 40, 10]);
        let t = r.totals();
        assert_eq!(
            t["parent"],
            SpanTotal {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["child"],
            SpanTotal {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        // Self times partition the root exactly.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn spans_record_their_cause_and_job() {
        let mut r = Recorder::new();
        r.set_job(7);
        let p = r.enter("outer");
        let c = r.enter("inner");
        r.exit(c);
        r.exit(p);
        let next = r.enter("sibling");
        r.exit(next);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, None);
        assert!(r.spans().iter().all(|s| s.job == 7));
        assert_eq!(r.to_jsonl().lines().count(), 3);
    }
}
