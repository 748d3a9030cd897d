//! Flight-recorder tracing: typed span/event records in fixed-capacity
//! per-thread ring buffers.
//!
//! Metrics ([`Registry`](crate::Registry)) answer *how much*; this
//! module answers *what happened, in what order, and where the time
//! went* inside one dynamics run, replica, or wire request. The design
//! contract mirrors the metrics layer's cheap-when-off rule that
//! `BENCH_9` pinned:
//!
//! * **One relaxed load when disabled.** Every
//!   [`TraceLane::instant`]/[`begin`](TraceLane::begin)/[`end`](TraceLane::end)
//!   starts with a single `Relaxed` load of the enabled flag and
//!   returns immediately when it is clear — no timestamp, no stores,
//!   no branch beyond that one. Recording stays compiled into the hot
//!   paths, exactly like the counters.
//! * **Per-writer ring buffers.** A [`TraceLane`] is a single-writer
//!   handle onto its own fixed-capacity ring (create one per thread;
//!   the type is deliberately `!Sync`). Writes never lock: the lane
//!   head is a plain monotone cursor, and each slot is published
//!   through a per-slot sequence number (odd = mid-write), so a
//!   concurrent [`TraceRecorder::snapshot`] can only ever *skip* a
//!   record being overwritten — never observe a torn one.
//! * **Overwrite-oldest, with the loss on the record.** A full ring
//!   drops the oldest record and ticks the recorder's exact
//!   [`dropped`](TraceRecorder::dropped) counter; the flight recorder
//!   keeps the most recent window, like its aviation namesake.
//! * **Monotonic timestamps.** Every record carries nanoseconds since
//!   the recorder's creation [`Instant`] — wall-clock adjustments can
//!   never reorder a timeline.
//!
//! Events are typed by the closed [`TraceEventKind`] enum — the engine
//! (step pick / delta apply / cache re-probe), the ensemble layer
//! (replica start/finish, per-replica tracker build), and the server
//! (request admit/serve/reject) — and each carries a caller-chosen
//! 64-bit correlation value. The server threads the wire envelope's
//! correlation id through every span it emits, so a per-request
//! timeline (admission → compute → reply) reconstructs exactly from
//! the drained records.
//!
//! Export is Chrome Trace Event Format JSON
//! ([`TraceSnapshot::to_chrome_json`]): open the dump of
//! `goc run <exp> --trace FILE` / `goc serve --trace FILE` (or a GET
//! of the server's `/trace` endpoint) in `chrome://tracing` or
//! Perfetto.
//!
//! ```
//! use goc_telemetry::trace::{TraceEventKind, TraceRecorder};
//!
//! let recorder = TraceRecorder::new(1024);
//! let lane = recorder.lane();
//! {
//!     let _span = lane.span(TraceEventKind::RequestServe, 42);
//!     lane.instant(TraceEventKind::RequestAdmit, 42);
//! } // span end records on drop
//! let snap = recorder.snapshot();
//! assert_eq!(snap.events.len(), 3);
//! assert_eq!(snap.dropped, 0);
//! assert!(snap.to_chrome_json().contains("\"request_admit\""));
//! ```

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity of one lane, in records. At 32 bytes per slot
/// this is 128 KiB per writer — a few milliseconds of full-rate engine
/// stepping, or thousands of request spans.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

/// The closed vocabulary of trace events. Keeping it an enum (not
/// strings) keeps a record at four words and the hot path free of
/// allocation; the snake_case [`name`](TraceEventKind::name) is the
/// Chrome-trace event name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// The learning engine applied one better-response move.
    StepPick,
    /// The learning engine applied one churn delta.
    DeltaApply,
    /// Decision-cache re-probes of a run (correlation = the count).
    CacheReprobe,
    /// An ensemble replica began (correlation = replica index).
    ReplicaStart,
    /// An ensemble replica finished (correlation = replica index).
    ReplicaFinish,
    /// Per-replica tracker construction (span; correlation = replica
    /// index).
    TrackerBuild,
    /// The server admitted a request (correlation = envelope id).
    RequestAdmit,
    /// The server computed + replied to a request (span; correlation =
    /// envelope id).
    RequestServe,
    /// The server rejected a request (correlation = envelope id).
    RequestReject,
}

impl TraceEventKind {
    /// Every kind, in wire-code order (`kind as u64` indexes this).
    pub const ALL: [TraceEventKind; 9] = [
        TraceEventKind::StepPick,
        TraceEventKind::DeltaApply,
        TraceEventKind::CacheReprobe,
        TraceEventKind::ReplicaStart,
        TraceEventKind::ReplicaFinish,
        TraceEventKind::TrackerBuild,
        TraceEventKind::RequestAdmit,
        TraceEventKind::RequestServe,
        TraceEventKind::RequestReject,
    ];

    /// The snake_case event name (the Chrome-trace `name` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::StepPick => "step_pick",
            TraceEventKind::DeltaApply => "delta_apply",
            TraceEventKind::CacheReprobe => "cache_reprobe",
            TraceEventKind::ReplicaStart => "replica_start",
            TraceEventKind::ReplicaFinish => "replica_finish",
            TraceEventKind::TrackerBuild => "tracker_build",
            TraceEventKind::RequestAdmit => "request_admit",
            TraceEventKind::RequestServe => "request_serve",
            TraceEventKind::RequestReject => "request_reject",
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        usize::try_from(code)
            .ok()
            .and_then(|i| Self::ALL.get(i).copied())
    }
}

/// The phase of a record: a span boundary or a point event (Chrome
/// phases `B` / `E` / `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Span begin (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

impl TracePhase {
    /// The Chrome-trace `ph` string.
    pub fn chrome_ph(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(TracePhase::Begin),
            1 => Some(TracePhase::End),
            2 => Some(TracePhase::Instant),
            _ => None,
        }
    }
}

/// One drained record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Span boundary or point event.
    pub phase: TracePhase,
    /// Monotonic nanoseconds since the recorder was created.
    pub nanos: u64,
    /// The lane (writer ring) that recorded it — the Chrome `tid`.
    pub lane: usize,
    /// Caller-chosen correlation value (wire envelope id, replica
    /// index, re-probe count — see [`TraceEventKind`]).
    pub correlation: u64,
}

/// One ring slot. `seq` is a per-slot publication counter: the single
/// writer makes it odd, stores the fields, makes it even — a reader
/// that sees an even, unchanged `seq` around its field loads has read
/// a whole record, and skips otherwise. (Lanes are single-writer by
/// construction — [`TraceLane`] is `!Sync` and never cloned — so two
/// writers can never interleave on one slot.)
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    word: AtomicU64,
    nanos: AtomicU64,
    corr: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            word: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            corr: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct LaneCore {
    /// Monotone claim cursor; `head % capacity` is the next slot.
    /// Plain load/store suffices: each lane has exactly one writer.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

#[derive(Debug)]
struct RecorderInner {
    enabled: AtomicBool,
    capacity: usize,
    epoch: Instant,
    dropped: AtomicU64,
    /// Every lane ever created, by index (never shrinks; snapshot
    /// walks it). The free list recycles indices whose handle dropped,
    /// so long-lived processes reuse rings instead of growing.
    lanes: Mutex<Vec<Arc<LaneCore>>>,
    free: Mutex<Vec<usize>>,
}

/// The flight recorder: hands out single-writer [`TraceLane`]s and
/// drains them into a [`TraceSnapshot`]. Clones share the recorder.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<RecorderInner>,
}

impl TraceRecorder {
    fn build(capacity: usize, enabled: bool) -> Self {
        TraceRecorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(enabled),
                capacity,
                epoch: Instant::now(),
                dropped: AtomicU64::new(0),
                lanes: Mutex::new(Vec::new()),
                free: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An enabled recorder whose lanes hold `capacity` records each
    /// (`capacity` is clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        TraceRecorder::build(capacity.max(1), true)
    }

    /// A recorder built at full capacity but not yet collecting — flip
    /// it on later with [`enable`](TraceRecorder::enable). This is what
    /// [`global`] hands out: lanes cost one relaxed load per event
    /// until (unless) something enables the recorder.
    pub fn standby(capacity: usize) -> Self {
        TraceRecorder::build(capacity.max(1), false)
    }

    /// A permanently-dark recorder: zero-capacity lanes, so it records
    /// nothing even if enabled. The tracing analogue of
    /// [`Registry::disabled`](crate::Registry::disabled).
    pub fn disabled() -> Self {
        TraceRecorder::build(0, false)
    }

    /// Starts collecting. Lanes handed out before the flip record from
    /// now on; nothing retroactive happens.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether the recorder is collecting.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity of each lane, in records.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Exact count of records lost to ring overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder was created — the timestamp any
    /// record written *now* would carry.
    pub fn now_nanos(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a lane: a single-writer ring handle. Create one per
    /// writer thread; dropping it returns the ring to a free list for
    /// the next writer (its records stay drainable meanwhile).
    pub fn lane(&self) -> TraceLane {
        let recycled = self.inner.free.lock().expect("trace free list").pop();
        let (index, core) = match recycled {
            Some(index) => {
                let lanes = self.inner.lanes.lock().expect("trace lane table");
                (index, Arc::clone(&lanes[index]))
            }
            None => {
                let core = Arc::new(LaneCore {
                    head: AtomicU64::new(0),
                    slots: (0..self.inner.capacity).map(|_| Slot::new()).collect(),
                });
                let mut lanes = self.inner.lanes.lock().expect("trace lane table");
                lanes.push(Arc::clone(&core));
                (lanes.len() - 1, core)
            }
        };
        TraceLane {
            inner: Arc::clone(&self.inner),
            core,
            index,
            _single_writer: PhantomData,
        }
    }

    /// Drains a consistent snapshot of every lane's current window,
    /// sorted by timestamp. Records mid-overwrite are skipped (never
    /// torn); recording continues undisturbed.
    pub fn snapshot(&self) -> TraceSnapshot {
        let lanes: Vec<Arc<LaneCore>> = self.inner.lanes.lock().expect("trace lane table").clone();
        let mut events = Vec::new();
        for (lane, core) in lanes.iter().enumerate() {
            let cap = core.slots.len() as u64;
            if cap == 0 {
                continue;
            }
            let head = core.head.load(Ordering::Acquire);
            let window = head.min(cap);
            for logical in (head - window)..head {
                let slot = &core.slots[(logical % cap) as usize];
                let seq = slot.seq.load(Ordering::Acquire);
                if seq % 2 != 0 {
                    continue; // mid-write
                }
                let word = slot.word.load(Ordering::Acquire);
                let nanos = slot.nanos.load(Ordering::Acquire);
                let correlation = slot.corr.load(Ordering::Acquire);
                if slot.seq.load(Ordering::Acquire) != seq {
                    continue; // overwritten while reading
                }
                let (Some(kind), Some(phase)) = (
                    TraceEventKind::from_code(word >> 8),
                    TracePhase::from_code(word & 0xff),
                ) else {
                    continue;
                };
                events.push(TraceEvent {
                    kind,
                    phase,
                    nanos,
                    lane,
                    correlation,
                });
            }
        }
        events.sort_by_key(|e| (e.nanos, e.lane));
        TraceSnapshot {
            enabled: self.is_enabled(),
            dropped: self.dropped(),
            events,
        }
    }
}

/// The process-wide default recorder, created on standby at
/// [`DEFAULT_LANE_CAPACITY`]. Layers that have no natural place to
/// thread a recorder handle through (the ensemble engine under an
/// arbitrary experiment) record here; `goc run --trace` / `goc serve
/// --trace` enable it and dump it. Until something enables it, every
/// event is the one-relaxed-load no-op.
pub fn global() -> &'static TraceRecorder {
    static GLOBAL: OnceLock<TraceRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceRecorder::standby(DEFAULT_LANE_CAPACITY))
}

/// A single-writer handle onto one ring of a [`TraceRecorder`].
///
/// Deliberately `!Sync` (and not `Clone`): exactly one thread writes a
/// lane, which is what makes the lock-free slot publication sound.
/// Send it *to* a thread, don't share it between threads — open one
/// lane per writer instead.
#[derive(Debug)]
pub struct TraceLane {
    inner: Arc<RecorderInner>,
    core: Arc<LaneCore>,
    index: usize,
    _single_writer: PhantomData<Cell<u8>>,
}

impl TraceLane {
    /// This lane's index (the Chrome-trace `tid` its records carry).
    pub fn id(&self) -> usize {
        self.index
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&self, kind: TraceEventKind, correlation: u64) {
        self.record(kind, TracePhase::Instant, correlation);
    }

    /// Records a span begin. Prefer [`span`](TraceLane::span) unless
    /// the begin and end live in different scopes.
    #[inline]
    pub fn begin(&self, kind: TraceEventKind, correlation: u64) {
        self.record(kind, TracePhase::Begin, correlation);
    }

    /// Records a span end.
    #[inline]
    pub fn end(&self, kind: TraceEventKind, correlation: u64) {
        self.record(kind, TracePhase::End, correlation);
    }

    /// Records a span begin now and the matching end when the guard
    /// drops.
    #[must_use = "the span ends when the guard drops"]
    pub fn span(&self, kind: TraceEventKind, correlation: u64) -> TraceSpan<'_> {
        self.begin(kind, correlation);
        TraceSpan {
            lane: self,
            kind,
            correlation,
        }
    }

    #[inline]
    fn record(&self, kind: TraceEventKind, phase: TracePhase, correlation: u64) {
        // The whole cost when disabled: this one relaxed load.
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let cap = self.core.slots.len() as u64;
        if cap == 0 {
            return; // a TraceRecorder::disabled() lane, enabled anyway
        }
        let nanos = self.inner.epoch.elapsed().as_nanos() as u64;
        let head = self.core.head.load(Ordering::Relaxed);
        if head >= cap {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.core.slots[(head % cap) as usize];
        slot.seq.fetch_add(1, Ordering::Release); // odd: mid-write
        slot.word
            .store((kind as u64) << 8 | phase as u64, Ordering::Relaxed);
        slot.nanos.store(nanos, Ordering::Relaxed);
        slot.corr.store(correlation, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release); // even: published
        self.core.head.store(head + 1, Ordering::Release);
    }
}

impl Drop for TraceLane {
    fn drop(&mut self) {
        // Recycle the ring for the next writer; records stay readable.
        self.inner
            .free
            .lock()
            .expect("trace free list")
            .push(self.index);
    }
}

/// RAII span guard from [`TraceLane::span`]: records the matching
/// [`TracePhase::End`] on drop.
#[derive(Debug)]
pub struct TraceSpan<'a> {
    lane: &'a TraceLane,
    kind: TraceEventKind,
    correlation: u64,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.lane.end(self.kind, self.correlation);
    }
}

/// A drained recorder: the event window plus the loss accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Whether the recorder was collecting at drain time.
    pub enabled: bool,
    /// Exact count of records lost to ring overwrite.
    pub dropped: u64,
    /// The retained records, ascending by timestamp.
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// All events carrying `correlation`, in timestamp order — the
    /// per-request timeline the server's correlation-id threading
    /// exists for.
    pub fn timeline(&self, correlation: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.correlation == correlation)
            .collect()
    }

    /// Renders Chrome Trace Event Format JSON (the `traceEvents` array
    /// form): open in `chrome://tracing` or Perfetto. Timestamps are
    /// microseconds (`ts`), lanes are `tid`s, and every event carries
    /// its correlation value in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str("},\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Every name/ph below is a static identifier — nothing to
            // escape.
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"goc\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3}{}{}",
                e.kind.name(),
                e.phase.chrome_ph(),
                e.lane,
                e.nanos as f64 / 1e3,
                if e.phase == TracePhase::Instant {
                    ",\"s\":\"t\""
                } else {
                    ""
                },
                format_args!(",\"args\":{{\"correlation\":{}}}}}", e.correlation),
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_record_in_order() {
        let recorder = TraceRecorder::new(16);
        let lane = recorder.lane();
        {
            let _serve = lane.span(TraceEventKind::RequestServe, 7);
            lane.instant(TraceEventKind::RequestAdmit, 7);
        }
        let snap = recorder.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.dropped, 0);
        let kinds: Vec<(TraceEventKind, TracePhase)> =
            snap.events.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(
            kinds,
            vec![
                (TraceEventKind::RequestServe, TracePhase::Begin),
                (TraceEventKind::RequestAdmit, TracePhase::Instant),
                (TraceEventKind::RequestServe, TracePhase::End),
            ]
        );
        let nanos: Vec<u64> = snap.events.iter().map(|e| e.nanos).collect();
        assert!(nanos.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(snap.timeline(7).len(), 3);
        assert!(snap.timeline(8).is_empty());
    }

    #[test]
    fn overwrite_keeps_the_newest_window_and_counts_drops_exactly() {
        let recorder = TraceRecorder::new(8);
        let lane = recorder.lane();
        for i in 0..20u64 {
            lane.instant(TraceEventKind::StepPick, i);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 8);
        assert_eq!(snap.dropped, 12);
        let correlations: Vec<u64> = snap.events.iter().map(|e| e.correlation).collect();
        assert_eq!(correlations, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn disabled_and_standby_recorders_emit_nothing() {
        for recorder in [TraceRecorder::disabled(), TraceRecorder::standby(8)] {
            let lane = recorder.lane();
            lane.instant(TraceEventKind::StepPick, 1);
            let _span = lane.span(TraceEventKind::RequestServe, 2);
            let snap = recorder.snapshot();
            assert!(!snap.enabled);
            assert!(snap.events.is_empty());
            assert_eq!(snap.dropped, 0);
        }
    }

    #[test]
    fn standby_recorders_collect_after_enable() {
        let recorder = TraceRecorder::standby(8);
        let lane = recorder.lane();
        lane.instant(TraceEventKind::StepPick, 1); // dark
        recorder.enable();
        lane.instant(TraceEventKind::StepPick, 2);
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].correlation, 2);
    }

    #[test]
    fn dropped_lanes_are_recycled_and_their_records_survive() {
        let recorder = TraceRecorder::new(8);
        let first = recorder.lane();
        let first_id = first.id();
        first.instant(TraceEventKind::ReplicaStart, 0);
        drop(first);
        let second = recorder.lane();
        assert_eq!(second.id(), first_id, "freed lanes are reused");
        second.instant(TraceEventKind::ReplicaFinish, 0);
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 2);
    }

    #[test]
    fn kind_codes_round_trip() {
        for (i, kind) in TraceEventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as u64, i as u64);
            assert_eq!(TraceEventKind::from_code(i as u64), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(TraceEventKind::from_code(99), None);
        for code in 0..3 {
            let phase = TracePhase::from_code(code).expect("valid phase");
            assert_eq!(phase as u64, code);
        }
        assert_eq!(TracePhase::from_code(3), None);
    }

    #[test]
    fn global_recorder_is_shared_and_starts_dark() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(a.capacity(), DEFAULT_LANE_CAPACITY);
    }
}
