//! Structured event tracing: per-thread lock-free ring buffers of
//! begin/end/instant/counter events, drained to Chrome `trace_event` JSON.
//!
//! Metrics (the registry) answer *how much*; traces answer *when and on
//! which thread*. Every [`crate::span`] call doubles as a trace span when
//! tracing is enabled, so the existing stage instrumentation — pipeline
//! stages, per-worker block scan/validate/merge — becomes a
//! per-thread timeline loadable in `chrome://tracing` or Perfetto with no
//! extra wiring. Subsystems add their own [`instant`] and [`counter`]
//! events (prefilter promotions and evictions, loop-closed markers) where
//! a number alone would not explain a regression.
//!
//! # Design
//!
//! * **Zero-cost when disabled.** Every emission site starts with one
//!   relaxed atomic load ([`is_enabled`]) and returns. No allocation, no
//!   lock, no time query. A counting-allocator test in
//!   `tests/trace_zero_alloc.rs` holds this at zero allocations per event.
//! * **Per-thread rings, single writer.** The first event on a thread
//!   registers a fixed-capacity ring for it (the only allocation tracing
//!   ever performs); every later event is 6 relaxed/release stores into
//!   that ring. No cross-thread contention on the hot path.
//! * **Seqlock slots, overwrite-oldest.** Each slot is four `AtomicU64`
//!   words guarded by a per-slot sequence number; the drain side rereads
//!   the sequence after copying and discards torn slots, so draining is
//!   safe (and lossy only for in-flight events) even while writers run.
//!   When a ring wraps, the oldest events are overwritten — a full ring
//!   costs recent history, never blocks the traced thread.
//! * **Interned names.** Events carry a `u32` id into a global name
//!   table. Static [`TraceName`] handles resolve once; the string-keyed
//!   [`begin_raw`]/[`end_raw`] path (used by [`crate::span`]) takes a
//!   lock per event and is meant for stage-granularity spans only.
//!
//! # Output
//!
//! [`write_chrome_trace`] renders the merged rings as a Chrome
//! `trace_event` JSON document: begin/end pairs are folded into complete
//! (`"X"`) events per thread, instants become `"i"`, counters `"C"`, and
//! thread-name metadata rows label each worker. Timestamps are
//! microseconds since [`enable`] was called.

use crate::json::JsonWriter;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events (32 bytes per slot).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What kind of moment an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened on this thread.
    Begin,
    /// The most recent span of this name on this thread closed.
    End,
    /// A point event.
    Instant,
    /// A sampled value (`arg` carries it), rendered as a counter track.
    Counter,
}

impl Phase {
    fn from_bits(b: u64) -> Phase {
        match b & 0b11 {
            0 => Phase::Begin,
            1 => Phase::End,
            2 => Phase::Instant,
            _ => Phase::Counter,
        }
    }

    fn bits(self) -> u64 {
        match self {
            Phase::Begin => 0,
            Phase::End => 1,
            Phase::Instant => 2,
            Phase::Counter => 3,
        }
    }
}

/// Master switch. Relaxed is enough: a thread that misses the flip by a
/// few events loses those events, nothing else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Ring capacity applied to threads that register after [`enable`].
static CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_RING_CAPACITY as u64);

/// Timestamps are measured from this process-lifetime epoch (set once, on
/// the first [`enable`]), so re-enabling in tests keeps time monotone.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Events at or after this epoch-relative nanosecond belong to the
/// current enable window; [`collect`] filters out older ones.
static WINDOW_START_NS: AtomicU64 = AtomicU64::new(0);

/// Next thread id handed to a registering ring (0 is reserved so Chrome
/// tid 0 never collides with a real ring).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// All registered per-thread rings. Locked only at registration (once per
/// thread) and drain time, never on the event hot path.
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// The global name table: id → name, plus the reverse map for interning.
static NAMES: Mutex<NameTable> = Mutex::new(NameTable {
    by_id: Vec::new(),
    by_name: BTreeMap::new(),
});

struct NameTable {
    by_id: Vec<&'static str>,
    by_name: BTreeMap<&'static str, u32>,
}

/// Interns `name`, returning its stable event id.
pub fn intern(name: &'static str) -> u32 {
    let mut t = NAMES.lock().expect("trace name table poisoned");
    if let Some(&id) = t.by_name.get(name) {
        return id;
    }
    let id = t.by_id.len() as u32;
    t.by_id.push(name);
    t.by_name.insert(name, id);
    id
}

fn name_of(id: u32) -> &'static str {
    NAMES
        .lock()
        .expect("trace name table poisoned")
        .by_id
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// A named trace-event handle: interns its name on first use, then every
/// event through it is lock-free. Declare as `static` next to the code it
/// instruments (instance fields work too).
pub struct TraceName {
    name: &'static str,
    id: OnceLock<u32>,
}

impl TraceName {
    /// Declares a handle (const, so it can live in a `static`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            id: OnceLock::new(),
        }
    }

    /// The interned event id (resolves on first call).
    pub fn id(&self) -> u32 {
        *self.id.get_or_init(|| intern(self.name))
    }
}

/// Seq value while a writer is mid-slot.
const SEQ_WRITING: u64 = u64::MAX;

/// One ring slot: a seqlock over `(ts, meta, arg)`. `seq` holds
/// `write_index + 1` once the slot is consistent.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    meta: AtomicU64,
    arg: AtomicU64,
}

/// One thread's event ring. Written only by the owning thread; drained by
/// anyone via the seqlock protocol.
struct ThreadRing {
    slots: Box<[Slot]>,
    /// Total events ever written (monotone; slot = head % capacity).
    head: AtomicU64,
    tid: u32,
    thread_name: String,
}

impl ThreadRing {
    fn new(capacity: usize, tid: u32, thread_name: String) -> Self {
        let slots = (0..capacity.max(16))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect();
        Self {
            slots,
            head: AtomicU64::new(0),
            tid,
            thread_name,
        }
    }

    /// Single-writer append: mark the slot in-flight, store the payload,
    /// publish the new sequence.
    fn record(&self, ts_ns: u64, name_id: u32, phase: Phase, arg: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        slot.seq.store(SEQ_WRITING, Ordering::Release);
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.meta
            .store((u64::from(name_id) << 2) | phase.bits(), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.seq.store(h + 1, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copies out every consistent event still resident, oldest first.
    fn drain(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        for i in head.saturating_sub(cap)..head {
            let slot = &self.slots[(i % cap) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != i + 1 {
                continue; // overwritten by a newer event, or in-flight
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != i + 1 {
                continue; // torn: the writer lapped us mid-copy
            }
            out.push(TraceEvent {
                ts_ns: ts,
                tid: self.tid,
                name_id: (meta >> 2) as u32,
                phase: Phase::from_bits(meta),
                arg,
            });
        }
    }
}

thread_local! {
    /// This thread's ring, registered on its first event.
    static LOCAL_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

fn register_ring() -> Arc<ThreadRing> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map_or_else(|| format!("thread-{tid}"), str::to_string);
    let ring = Arc::new(ThreadRing::new(
        CAPACITY.load(Ordering::Relaxed) as usize,
        tid,
        name,
    ));
    RINGS
        .lock()
        .expect("trace ring registry poisoned")
        .push(Arc::clone(&ring));
    ring
}

/// Turns tracing on with the given per-thread ring capacity (in events).
/// Threads that already registered keep their rings; events from before
/// this call are excluded from [`collect`].
pub fn enable(ring_capacity: usize) {
    CAPACITY.store(ring_capacity.max(16) as u64, Ordering::Relaxed);
    WINDOW_START_NS.store(now_ns(), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off. Already-buffered events stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether events are currently being recorded. One relaxed load — this
/// is the entire cost of every instrumentation site while disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn emit(name_id: u32, phase: Phase, arg: u64) {
    let ts = now_ns();
    LOCAL_RING.with(|cell| {
        cell.get_or_init(register_ring)
            .record(ts, name_id, phase, arg);
    });
}

/// Marks a point event.
#[inline]
pub fn instant(name: &TraceName) {
    if is_enabled() {
        emit(name.id(), Phase::Instant, 0);
    }
}

/// Samples a counter value (rendered as a counter track).
#[inline]
pub fn counter(name: &TraceName, value: u64) {
    if is_enabled() {
        emit(name.id(), Phase::Counter, value);
    }
}

/// Opens a span on this thread. Prefer [`span`] (RAII) at call sites.
#[inline]
pub fn begin(name: &TraceName) {
    if is_enabled() {
        emit(name.id(), Phase::Begin, 0);
    }
}

/// Closes the most recent span of this name on this thread.
#[inline]
pub fn end(name: &TraceName) {
    if is_enabled() {
        emit(name.id(), Phase::End, 0);
    }
}

/// [`begin`] for a name without a [`TraceName`] handle: interns per call
/// (one lock). For stage-granularity spans — [`crate::span`] uses this —
/// not per-record paths.
#[inline]
pub fn begin_raw(name: &'static str) {
    if is_enabled() {
        emit(intern(name), Phase::Begin, 0);
    }
}

/// [`end_raw`](end) counterpart of [`begin_raw`].
#[inline]
pub fn end_raw(name: &'static str) {
    if is_enabled() {
        emit(intern(name), Phase::End, 0);
    }
}

/// RAII trace span: begin on creation, end on drop. A disabled guard does
/// nothing at all.
#[must_use = "a trace span only brackets while it is alive"]
pub struct TraceSpan {
    id: Option<u32>,
}

/// Opens an RAII [`TraceSpan`].
#[inline]
pub fn span(name: &TraceName) -> TraceSpan {
    if is_enabled() {
        let id = name.id();
        emit(id, Phase::Begin, 0);
        TraceSpan { id: Some(id) }
    } else {
        TraceSpan { id: None }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            // The window may have closed mid-span; emit the end anyway so
            // drains that already saw the begin can pair it.
            emit(id, Phase::End, 0);
        }
    }
}

/// One drained event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Ring (thread) id.
    pub tid: u32,
    /// Interned name id (resolve with the name table via [`collect`]'s
    /// output — [`write_chrome_trace`] does this for you).
    pub name_id: u32,
    /// Event kind.
    pub phase: Phase,
    /// Counter value (0 for non-counter events).
    pub arg: u64,
}

/// Drains every ring into one timestamp-ordered event list, restricted to
/// the current enable window. Non-destructive: rings keep their contents.
pub fn collect() -> Vec<TraceEvent> {
    let window = WINDOW_START_NS.load(Ordering::Relaxed);
    let rings: Vec<Arc<ThreadRing>> = RINGS.lock().expect("trace ring registry poisoned").clone();
    let mut out = Vec::new();
    for ring in &rings {
        ring.drain(&mut out);
    }
    out.retain(|e| e.ts_ns >= window);
    out.sort_by_key(|e| (e.ts_ns, e.tid));
    out
}

/// Thread names by tid, for labelling drained events.
fn thread_names() -> Vec<(u32, String)> {
    RINGS
        .lock()
        .expect("trace ring registry poisoned")
        .iter()
        .map(|r| (r.tid, r.thread_name.clone()))
        .collect()
}

/// Writes the drained trace as a Chrome `trace_event` JSON document
/// (loadable in `chrome://tracing` and Perfetto).
///
/// Begin/end pairs are folded into complete (`"X"`) events per thread —
/// robust against rings that overwrote one half of a pair: an unmatched
/// end is dropped, an unmatched begin is closed at the last seen
/// timestamp. Instants render as `"i"` (thread scope), counters as `"C"`.
pub fn write_chrome_trace<W: Write>(w: &mut W) -> std::io::Result<()> {
    let events = collect();
    let last_ts = events.last().map_or(0, |e| e.ts_ns);
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("displayTimeUnit");
    j.string("ms");
    j.key("traceEvents");
    j.begin_array();

    let us = |ns: u64| ns as f64 / 1e3;
    let event_obj = |j: &mut JsonWriter, name: &str, ph: &str, ts_us: f64, tid: u32| {
        j.begin_object();
        j.key("name");
        j.string(name);
        j.key("ph");
        j.string(ph);
        j.key("ts");
        j.f64_3(ts_us);
        j.key("pid");
        j.u64(1);
        j.key("tid");
        j.u64(u64::from(tid));
    };

    for (tid, name) in thread_names() {
        event_obj(&mut j, "thread_name", "M", 0.0, tid);
        j.key("args");
        j.begin_object();
        j.key("name");
        j.string(&name);
        j.end_object();
        j.end_object();
    }

    // Per-thread stacks pair Begin with the matching End.
    let mut stacks: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
    for e in &events {
        let name = name_of(e.name_id);
        match e.phase {
            Phase::Begin => stacks.entry(e.tid).or_default().push((e.name_id, e.ts_ns)),
            Phase::End => {
                let stack = stacks.entry(e.tid).or_default();
                // Unwind to the matching begin; abandoned inner begins
                // (their ends were overwritten) close where the outer does.
                if let Some(pos) = stack.iter().rposition(|&(id, _)| id == e.name_id) {
                    let (_, begin_ts) = stack[pos];
                    stack.truncate(pos);
                    event_obj(&mut j, name, "X", us(begin_ts), e.tid);
                    j.key("dur");
                    j.f64_3(us(e.ts_ns.saturating_sub(begin_ts)));
                    j.end_object();
                }
            }
            Phase::Instant => {
                event_obj(&mut j, name, "i", us(e.ts_ns), e.tid);
                j.key("s");
                j.string("t");
                j.end_object();
            }
            Phase::Counter => {
                event_obj(&mut j, name, "C", us(e.ts_ns), e.tid);
                j.key("args");
                j.begin_object();
                j.key("value");
                j.u64(e.arg);
                j.end_object();
                j.end_object();
            }
        }
    }
    // Begins whose end never arrived: close them at the trace edge.
    for (tid, stack) in stacks {
        for (name_id, begin_ts) in stack.into_iter().rev() {
            event_obj(&mut j, name_of(name_id), "X", us(begin_ts), tid);
            j.key("dur");
            j.f64_3(us(last_ts.saturating_sub(begin_ts)));
            j.end_object();
        }
    }

    j.end_array();
    j.end_object();
    w.write_all(j.finish().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; serialise the tests that toggle it.
    static TRACE_TESTS: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TRACE_TESTS.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        disable();
        static N: TraceName = TraceName::new("test.disabled");
        let before = collect().len();
        for _ in 0..100 {
            instant(&N);
            let _s = span(&N);
        }
        assert_eq!(collect().len(), before);
    }

    #[test]
    fn begin_end_pairs_fold_into_complete_events() {
        let _g = lock();
        enable(1024);
        static OUTER: TraceName = TraceName::new("test.outer");
        static INNER: TraceName = TraceName::new("test.inner");
        {
            let _o = span(&OUTER);
            let _i = span(&INNER);
        }
        instant(&OUTER);
        disable();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        crate::json::validate(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"test.outer\""));
        assert!(json.contains("\"test.inner\""));
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
    }

    #[test]
    fn counters_carry_their_value() {
        let _g = lock();
        enable(1024);
        static Q: TraceName = TraceName::new("test.queue_depth");
        counter(&Q, 7);
        counter(&Q, 3);
        let events: Vec<TraceEvent> = collect()
            .into_iter()
            .filter(|e| e.name_id == Q.id() && e.phase == Phase::Counter)
            .collect();
        disable();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].arg, 7);
        assert_eq!(events[1].arg, 3);
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":7"));
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_newest() {
        let ring = ThreadRing::new(16, 999, "wrap-test".into());
        for i in 0..40u64 {
            ring.record(i, i as u32, Phase::Instant, 0);
        }
        let mut out = Vec::new();
        ring.drain(&mut out);
        assert_eq!(out.len(), 16, "capacity bounds retained history");
        let ts: Vec<u64> = out.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (24..40).collect::<Vec<u64>>(), "newest survive");
    }

    #[test]
    fn events_from_worker_threads_carry_distinct_tids() {
        let _g = lock();
        enable(1024);
        static W: TraceName = TraceName::new("test.worker_mark");
        instant(&W);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| instant(&W));
            }
        });
        let tids: std::collections::BTreeSet<u32> = collect()
            .into_iter()
            .filter(|e| e.name_id == W.id())
            .map(|e| e.tid)
            .collect();
        disable();
        assert!(tids.len() >= 3, "main + 2 workers, got {tids:?}");
    }

    #[test]
    fn interning_is_stable_and_shared() {
        static A: TraceName = TraceName::new("test.intern_a");
        assert_eq!(A.id(), A.id());
        assert_eq!(intern("test.intern_a"), A.id());
        assert_ne!(intern("test.intern_b"), A.id());
    }
}
