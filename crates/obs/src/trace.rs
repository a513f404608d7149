//! Structured event tracing: `Copy` events, thread-local buffering, and the
//! [`TraceSink`] trait.
//!
//! # Design
//!
//! Instrumentation points in the engine hot path must cost (almost) nothing
//! when tracing is off and must not allocate per event when it is on:
//!
//! - Events are plain `Copy` structs — no strings, no boxing. Context that
//!   would otherwise be repeated on every event (job index, stream,
//!   instance) lives in thread-local *context* fields set once by the
//!   enclosing scope ([`set_job`], [`set_stream`], [`set_instance`]).
//! - Each thread owns a preallocated buffer of [`BUFFER_CAPACITY`] events.
//!   [`emit`] appends to it and only calls the sink when the buffer fills;
//!   uninstalling the sink ([`set_thread_sink`] with `None`) flushes the
//!   remainder. Sinks therefore receive *batches*, not single events.
//! - Timestamps are nanoseconds from a process-wide monotonic epoch
//!   (first sink installation), captured **once** per event. A global
//!   atomic sequence number makes the interleaving of concurrently
//!   emitting threads reconstructable (and sortable) after the fact.
//! - With no sink installed on the current thread, [`emit`] is a
//!   thread-local load and a branch. No clock read, no sequence-number
//!   traffic, no buffer write.

use std::cell::RefCell;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events buffered per thread before a batch is handed to the sink.
pub const BUFFER_CAPACITY: usize = 1024;

/// A protocol phase, as instrumented in the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1 — unreliable broadcast down capacity-respecting
    /// arborescences.
    Phase1,
    /// Phase 2a — the coded equality check (Algorithm 1).
    Equality,
    /// Phase 2b — 1-bit Byzantine broadcast of MISMATCH flags.
    Flags,
    /// Phase 3 — dispute control.
    Dispute,
    /// Message-level timing outside the broadcast phases (`net = on`
    /// only): the Phase-1 and equality-check rounds on the event kernel.
    Net,
}

impl Phase {
    /// Stable lower-case name used in serialized traces and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Phase1 => "phase1",
            Phase::Equality => "equality",
            Phase::Flags => "flags",
            Phase::Dispute => "dispute",
            Phase::Net => "net",
        }
    }
}

/// Field names of `plan_built`'s packer counts: candidate edges whose
/// safety was decided, found safe, found unsafe, passed over by the
/// per-tree unsafe memo; flow witnesses repaired, and the searches that
/// took.
pub const PACK_COUNTS: [&str; 6] = [
    "pack_tried",
    "pack_accepted",
    "pack_rejected",
    "pack_memo_skipped",
    "pack_repaired",
    "pack_searches",
];

/// What happened. Payload fields are the event-specific data; shared
/// context (job/stream/instance) lives on [`Event`] itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A sweep over `jobs` grid points is starting.
    SweepStart {
        /// Total number of jobs in the sweep grid.
        jobs: u64,
        /// GF kernel tier selected at runtime (`gfni`, `avx2`,
        /// `portable`) — machine-dependent; trace comparisons normalize
        /// it away.
        tier: &'static str,
        /// Detected CPU SIMD features (comma-separated), for perf-trace
        /// provenance; machine-dependent like `tier`.
        cpu: &'static str,
    },
    /// The sweep finished (all jobs done, report assembled next).
    SweepEnd,
    /// A worker picked up the job named by the event's `job` field.
    JobStart,
    /// The job finished (its outcome is recorded in the report).
    JobEnd,
    /// A broadcast instance is starting.
    InstanceStart,
    /// The broadcast instance finished.
    InstanceEnd,
    /// The instance short-circuited: the source is already removed from
    /// `G_k`, every honest node defaults. No phases run.
    InstanceDefaulted,
    /// A protocol phase is starting.
    PhaseStart(Phase),
    /// The protocol phase finished.
    PhaseEnd(Phase),
    /// The plan cache served an `ExecutionPlan` without building.
    PlanCacheHit,
    /// The plan cache had no plan for this key; a build follows.
    PlanCacheMiss,
    /// A plan build completed (follows a miss) in `build_ns` nanoseconds.
    PlanBuilt {
        /// Wall-clock nanoseconds spent building the plan.
        build_ns: u64,
        /// The Edmonds packer's deterministic work counts, in the order
        /// of [`PACK_COUNTS`].
        pack: [u64; 6],
    },
    /// A per-`G_k` replan found `γ_k = γ_1`, in `ns` nanoseconds.
    PlanRepair {
        /// Wall-clock nanoseconds spent deriving `γ_k` and the packing.
        ns: u64,
    },
    /// A per-`G_k` replan found `γ_k < γ_1`, in `ns` nanoseconds — the
    /// same derivation as [`EventKind::PlanRepair`], another outcome.
    PlanFullRecompute {
        /// Wall-clock nanoseconds spent deriving `γ_k` and the packing.
        ns: u64,
    },
    /// The plan cache loaded a persisted plan from its on-disk store.
    PlanDiskHit,
    /// The plan cache persisted a freshly built plan to its on-disk store.
    PlanDiskStore,
    /// A persisted plan failed verification (corrupt or stale) and was
    /// rejected; a rebuild follows.
    PlanDiskReject,
    /// Dispute control ran and produced `new_pairs` new dispute pairs.
    DisputeRaised {
        /// Number of dispute pairs added to the accusation graph.
        new_pairs: u32,
    },
    /// Dispute control exposed `node` as faulty; it leaves `G_{k+1}`.
    NodeExposed {
        /// The exposed node's id.
        node: u32,
    },
    /// One instance's equality check finished its slab products.
    EqualityProducts {
        /// `C_eᵀ · Xᵀ` products the check prescribes, one per distinct
        /// value per edge — computed or not: an edge the check does not
        /// compare is never multiplied.
        multiplies: u32,
        /// Edges whose endpoints held equal values, so the receiver's
        /// expectation was the sender's product and no second multiply ran.
        expectations_shared: u32,
    },
    /// DetSan digest of engine state at a phase boundary, emitted right
    /// after the phase's `PhaseEnd` by [`PhaseSpan::close`] in every traced
    /// run. Two runs of the same configuration must produce identical
    /// digest sequences, so diffing traces pinpoints the first phase where
    /// determinism broke.
    DetSanDigest {
        /// The phase whose end state was digested.
        phase: Phase,
        /// FNV digest of the canonical engine state after the phase,
        /// rendered as 16 hex digits.
        digest: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used as the `kind` field in serialized
    /// traces.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SweepStart { .. } => "sweep_start",
            EventKind::SweepEnd => "sweep_end",
            EventKind::JobStart => "job_start",
            EventKind::JobEnd => "job_end",
            EventKind::InstanceStart => "instance_start",
            EventKind::InstanceEnd => "instance_end",
            EventKind::InstanceDefaulted => "instance_defaulted",
            EventKind::PhaseStart(_) => "phase_start",
            EventKind::PhaseEnd(_) => "phase_end",
            EventKind::PlanCacheHit => "plan_cache_hit",
            EventKind::PlanCacheMiss => "plan_cache_miss",
            EventKind::PlanBuilt { .. } => "plan_built",
            EventKind::PlanRepair { .. } => "plan_repair",
            EventKind::PlanFullRecompute { .. } => "plan_full_recompute",
            EventKind::PlanDiskHit => "plan_disk_hit",
            EventKind::PlanDiskStore => "plan_disk_store",
            EventKind::PlanDiskReject => "plan_disk_reject",
            EventKind::DisputeRaised { .. } => "dispute_raised",
            EventKind::NodeExposed { .. } => "node_exposed",
            EventKind::EqualityProducts { .. } => "equality_products",
            EventKind::DetSanDigest { .. } => "detsan_digest",
        }
    }

    /// The kind-specific payload, in serialization order — the one list
    /// both trace writers render.
    pub fn fields(self) -> Vec<(&'static str, Field)> {
        use Field::{Hex, Name, Num};
        match self {
            EventKind::SweepStart { jobs, tier, cpu } => {
                vec![
                    ("jobs", Num(jobs)),
                    ("tier", Name(tier)),
                    ("cpu", Name(cpu)),
                ]
            }
            EventKind::PhaseStart(p) | EventKind::PhaseEnd(p) => vec![("phase", Name(p.name()))],
            EventKind::PlanBuilt { build_ns, pack } => {
                let counts = PACK_COUNTS.into_iter().zip(pack.map(Num));
                std::iter::once(("build_ns", Num(build_ns)))
                    .chain(counts)
                    .collect()
            }
            EventKind::PlanRepair { ns } | EventKind::PlanFullRecompute { ns } => {
                vec![("ns", Num(ns))]
            }
            EventKind::DisputeRaised { new_pairs } => vec![("new_pairs", Num(new_pairs.into()))],
            EventKind::NodeExposed { node } => vec![("node", Num(node.into()))],
            EventKind::EqualityProducts {
                multiplies,
                expectations_shared,
            } => vec![
                ("multiplies", Num(multiplies.into())),
                ("expectations_shared", Num(expectations_shared.into())),
            ],
            EventKind::DetSanDigest { phase, digest } => {
                vec![("phase", Name(phase.name())), ("digest", Hex(digest))]
            }
            _ => Vec::new(),
        }
    }
}

/// One payload value of a serialized event: a number, a digest or a
/// static name (a phase, a kernel tier, CPU feature names), so no writer
/// needs JSON string escaping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// A count, duration or id.
    Num(u64),
    /// A digest, rendered as a JSON string of 16 hex digits: as a number,
    /// a JavaScript reader (`about:tracing`, Perfetto) would round values
    /// above 2^53 and could show two digests as equal.
    Hex(u64),
    /// A static name, rendered as a JSON string.
    Name(&'static str),
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::Num(n) => write!(f, "{n}"),
            Field::Hex(n) => write!(f, "\"{n:016x}\""),
            Field::Name(s) => write!(f, "\"{s}\""),
        }
    }
}

/// One trace event: global order, timestamp, context, and the kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global emission order across all threads (0-based, gap-free as long
    /// as a single sink generation is active).
    pub seq: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Sweep job index (0 outside any job).
    pub job: u64,
    /// Stream index within the job (0 outside any stream).
    pub stream: u32,
    /// 0-based broadcast instance index within the job.
    pub instance: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Receives batches of events from instrumented threads.
///
/// Implementations must be cheap and must **not** call back into [`emit`]
/// (the thread-local buffer is borrowed during delivery). Batches from
/// different threads arrive unordered; sort by [`Event::seq`] to recover
/// the global emission order.
pub trait TraceSink: Send + Sync {
    /// Deliver a batch of events emitted by one thread, in emission order.
    fn record_batch(&self, events: &[Event]);
}

/// A sink that accumulates events in memory, for tests and for the CLI's
/// end-of-run trace writers.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Mutex<Vec<Event>>,
}

impl BufferSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        // Poison-tolerant: the buffer only ever holds whole `Copy` events,
        // so a panicked recorder cannot leave it torn.
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain all recorded events, sorted by global sequence number.
    pub fn take_sorted(&self) -> Vec<Event> {
        let mut out = std::mem::take(
            &mut *self
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl TraceSink for BufferSink {
    fn record_batch(&self, events: &[Event]) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend_from_slice(events);
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(crate::clock::mono_now)
}

struct ThreadState {
    sink: Option<Arc<dyn TraceSink>>,
    job: u64,
    stream: u32,
    instance: u64,
    buf: Vec<Event>,
}

impl ThreadState {
    const fn new() -> Self {
        Self {
            sink: None,
            job: 0,
            stream: 0,
            instance: 0,
            buf: Vec::new(),
        }
    }

    /// Appends one event, flushing a full batch; only called with a sink
    /// installed.
    fn push(&mut self, kind: EventKind) {
        let ev = Event {
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ns: epoch().elapsed().as_nanos() as u64,
            job: self.job,
            stream: self.stream,
            instance: self.instance,
            kind,
        };
        self.buf.push(ev);
        if self.buf.len() >= BUFFER_CAPACITY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Some(sink) = &self.sink {
            if !self.buf.is_empty() {
                sink.record_batch(&self.buf);
                self.buf.clear();
            }
        }
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = const { RefCell::new(ThreadState::new()) };
}

/// Install (or, with `None`, remove) the trace sink for the **current
/// thread**. Removal and replacement flush any buffered events to the
/// outgoing sink first. Installing a sink preallocates the thread's event
/// buffer and pins the process-wide trace epoch if this is the first
/// installation ever.
///
/// Sinks are deliberately per-thread rather than global: parallel tests in
/// one binary would otherwise pollute each other's traces. Code that
/// spawns workers (the sweep runner) installs the shared sink on each
/// worker thread it creates.
pub fn set_thread_sink(sink: Option<Arc<dyn TraceSink>>) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.flush();
        if sink.is_some() {
            epoch(); // pin the epoch before the first event
            let shortfall = BUFFER_CAPACITY.saturating_sub(s.buf.capacity());
            s.buf.reserve_exact(shortfall);
        }
        s.sink = sink;
    });
}

/// Set the sweep-job context for subsequent events on this thread, and
/// reset the stream/instance context to 0.
pub fn set_job(job: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.job = job;
        s.stream = 0;
        s.instance = 0;
    });
}

/// Set the stream context for subsequent events on this thread.
pub fn set_stream(stream: u32) {
    STATE.with(|s| s.borrow_mut().stream = stream);
}

/// Set the 0-based instance context for subsequent events on this thread.
pub fn set_instance(instance: u64) {
    STATE.with(|s| s.borrow_mut().instance = instance);
}

/// Record one event on the current thread. A no-op (one thread-local load
/// and a branch) when no sink is installed; otherwise captures the
/// timestamp and sequence number once and appends to the thread buffer,
/// flushing a full batch to the sink.
pub fn emit(kind: EventKind) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.sink.is_some() {
            s.push(kind);
        }
    });
}

/// A phase's one instrument: it times the phase and, on a traced thread,
/// brackets it with `PhaseStart` / `PhaseEnd` and carries its DetSan
/// digest. [`PhaseSpan::close`] ends it; a span dropped instead (a `?`
/// early return) still emits its one `PhaseEnd`.
#[must_use = "dropping the span immediately emits PhaseEnd right after PhaseStart"]
pub struct PhaseSpan {
    phase: Phase,
    start: Instant,
}

impl PhaseSpan {
    /// Open a phase span: emits `PhaseStart` and reads the clock once.
    pub fn enter(phase: Phase) -> Self {
        emit(EventKind::PhaseStart(phase));
        Self {
            phase,
            start: crate::clock::mono_now(),
        }
    }

    /// Close the span and return the phase's wall-clock nanoseconds. On a
    /// traced thread it emits `PhaseEnd`, then the phase's
    /// [`EventKind::DetSanDigest`] of `digest()`, in one borrow of the
    /// thread's trace state; untraced, `digest` is never called. `digest`
    /// must not emit events itself.
    pub fn close(self, digest: Option<&dyn Fn() -> u64>) -> u64 {
        let ns = crate::clock::elapsed_ns(self.start);
        let phase = ManuallyDrop::new(self).phase;
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if s.sink.is_some() {
                s.push(EventKind::PhaseEnd(phase));
                if let Some(digest) = digest {
                    s.push(EventKind::DetSanDigest {
                        phase,
                        digest: digest(),
                    });
                }
            }
        });
        ns
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        emit(EventKind::PhaseEnd(self.phase));
    }
}

/// RAII guard for a broadcast instance: sets the instance context and
/// emits `InstanceStart` on construction, `InstanceEnd` on drop.
#[must_use = "dropping the span immediately emits InstanceEnd right after InstanceStart"]
pub struct InstanceSpan {
    _private: (),
}

impl InstanceSpan {
    /// Open an instance span for the given 0-based instance index.
    pub fn enter(instance: u64) -> Self {
        set_instance(instance);
        emit(EventKind::InstanceStart);
        Self { _private: () }
    }
}

impl Drop for InstanceSpan {
    fn drop(&mut self) {
        emit(EventKind::InstanceEnd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_sink_is_a_no_op() {
        // Nothing to observe directly; this pins that no sink ⇒ no panic
        // and no state change visible afterwards.
        emit(EventKind::PlanCacheHit);
    }

    #[test]
    fn events_reach_the_sink_on_flush_and_uninstall() {
        let sink = Arc::new(BufferSink::new());
        set_thread_sink(Some(sink.clone()));
        set_job(3);
        set_stream(1);
        let span = InstanceSpan::enter(7);
        emit(EventKind::PlanCacheMiss);
        emit(EventKind::PlanBuilt {
            build_ns: 42,
            pack: [0; 6],
        });
        drop(span);
        assert!(sink.is_empty(), "events buffer until flush");
        set_thread_sink(None);

        let events = sink.take_sorted();
        assert_eq!(events.len(), 4);
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            [
                "instance_start",
                "plan_cache_miss",
                "plan_built",
                "instance_end"
            ]
        );
        for e in &events {
            assert_eq!((e.job, e.stream, e.instance), (3, 1, 7));
        }
        // seq strictly increasing, timestamps monotone within the thread.
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn full_buffer_flushes_mid_stream() {
        let sink = Arc::new(BufferSink::new());
        set_thread_sink(Some(sink.clone()));
        for _ in 0..BUFFER_CAPACITY {
            emit(EventKind::PlanCacheHit);
        }
        assert_eq!(sink.len(), BUFFER_CAPACITY, "batch flushed when full");
        emit(EventKind::PlanCacheHit);
        set_thread_sink(None);
        assert_eq!(sink.len(), BUFFER_CAPACITY + 1);
    }

    #[test]
    fn phase_span_closes_on_every_exit_path() {
        fn fallible(fail: bool) -> Result<(), ()> {
            let _span = PhaseSpan::enter(Phase::Equality);
            if fail {
                return Err(());
            }
            Ok(())
        }
        let sink = Arc::new(BufferSink::new());
        set_thread_sink(Some(sink.clone()));
        fallible(false).unwrap();
        fallible(true).unwrap_err();
        set_thread_sink(None);
        let kinds: Vec<&str> = sink.take_sorted().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            ["phase_start", "phase_end", "phase_start", "phase_end"]
        );
    }

    #[test]
    fn close_emits_one_phase_end_then_the_digest_and_returns_the_elapsed_ns() {
        let sink = Arc::new(BufferSink::new());
        set_thread_sink(Some(sink.clone()));
        let span = PhaseSpan::enter(Phase::Flags);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = span.close(Some(&|| 7));
        set_thread_sink(None);
        assert!(ns >= 1_000_000, "{ns} ns");
        let kinds: Vec<EventKind> = sink.take_sorted().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::PhaseStart(Phase::Flags),
                EventKind::PhaseEnd(Phase::Flags),
                EventKind::DetSanDigest {
                    phase: Phase::Flags,
                    digest: 7
                },
            ]
        );
    }

    #[test]
    fn a_span_without_a_digest_closes_with_its_phase_end_alone() {
        let sink = Arc::new(BufferSink::new());
        set_thread_sink(Some(sink.clone()));
        let _ = PhaseSpan::enter(Phase::Net).close(None);
        set_thread_sink(None);
        let kinds: Vec<&str> = sink.take_sorted().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["phase_start", "phase_end"]);
    }

    #[test]
    fn the_digest_is_not_computed_without_a_sink() {
        let called = std::cell::Cell::new(false);
        let _ = PhaseSpan::enter(Phase::Dispute).close(Some(&|| {
            called.set(true);
            0
        }));
        assert!(!called.get());
    }

    #[test]
    fn observability_doc_names_every_event_kind() {
        let doc = include_str!("../../../docs/observability.md");
        let code_spans = doc.split('`').skip(1).step_by(2);
        let every_kind = [
            EventKind::SweepStart {
                jobs: 0,
                tier: "",
                cpu: "",
            },
            EventKind::SweepEnd,
            EventKind::JobStart,
            EventKind::JobEnd,
            EventKind::InstanceStart,
            EventKind::InstanceEnd,
            EventKind::InstanceDefaulted,
            EventKind::PhaseStart(Phase::Net),
            EventKind::PhaseEnd(Phase::Net),
            EventKind::PlanCacheHit,
            EventKind::PlanCacheMiss,
            EventKind::PlanBuilt {
                build_ns: 0,
                pack: [0; 6],
            },
            EventKind::PlanRepair { ns: 0 },
            EventKind::PlanFullRecompute { ns: 0 },
            EventKind::PlanDiskHit,
            EventKind::PlanDiskStore,
            EventKind::PlanDiskReject,
            EventKind::DisputeRaised { new_pairs: 0 },
            EventKind::NodeExposed { node: 0 },
            EventKind::EqualityProducts {
                multiplies: 0,
                expectations_shared: 0,
            },
            EventKind::DetSanDigest {
                phase: Phase::Net,
                digest: 0,
            },
        ];
        for kind in every_kind {
            // No wildcard: a new kind fails to compile here until it is
            // listed above (and so checked against the doc).
            match kind {
                EventKind::SweepStart { .. }
                | EventKind::SweepEnd
                | EventKind::JobStart
                | EventKind::JobEnd
                | EventKind::InstanceStart
                | EventKind::InstanceEnd
                | EventKind::InstanceDefaulted
                | EventKind::PhaseStart(_)
                | EventKind::PhaseEnd(_)
                | EventKind::PlanCacheHit
                | EventKind::PlanCacheMiss
                | EventKind::PlanBuilt { .. }
                | EventKind::PlanRepair { .. }
                | EventKind::PlanFullRecompute { .. }
                | EventKind::PlanDiskHit
                | EventKind::PlanDiskStore
                | EventKind::PlanDiskReject
                | EventKind::DisputeRaised { .. }
                | EventKind::NodeExposed { .. }
                | EventKind::EqualityProducts { .. }
                | EventKind::DetSanDigest { .. } => {}
            }
            // A code span that opens with the name: `name` or `name {…}`.
            let name = kind.name();
            assert!(
                code_spans
                    .clone()
                    .any(|c| c.split_whitespace().next() == Some(name)),
                "docs/observability.md lacks `{name}`"
            );
        }
    }

    #[test]
    fn set_job_resets_stream_and_instance() {
        let sink = Arc::new(BufferSink::new());
        set_thread_sink(Some(sink.clone()));
        set_job(1);
        set_stream(2);
        set_instance(9);
        set_job(4);
        emit(EventKind::JobStart);
        set_thread_sink(None);
        let events = sink.take_sorted();
        assert_eq!(
            (events[0].job, events[0].stream, events[0].instance),
            (4, 0, 0)
        );
    }
}
