//! The multiplexed per-link monitor runtime behind `loopmond`.
//!
//! [`crate::pipeline::run_pipeline`] is a one-shot driver: one source,
//! pulled to exhaustion, one canonical result. A fleet monitor inverts
//! that shape — many links, each a long-lived stream of batches arriving
//! on its own schedule, with loop events wanted the moment their evidence
//! completes. This module is that runtime:
//!
//! * [`MonitorRuntime`] owns the shared state: the unified per-link-
//!   attributed loop-event JSONL sink and the fleet-wide counters.
//! * [`MonitorRuntime::add_link`] registers a link and returns a
//!   [`LinkMonitor`] — a share-nothing handle owning that link's bounded
//!   [`StreamingEngine`] (one [`crate::online::OnlineDetector`] per link).
//!   Handles are `Send`: each worker thread drives its links privately
//!   and only takes the sink lock to append completed event lines, so
//!   per-link event order is never perturbed by multiplexing.
//! * [`LinkMonitor::feed`] is the incremental path ([`Engine::feed`]
//!   under the hood); [`LinkMonitor::finish`] drains the engine's tail,
//!   flushes the link's last events, and retires the link — link removal
//!   is graceful by construction. Dropping a handle without finishing
//!   (worker panic, shutdown race) only forfeits that link's tail events;
//!   the shared sink and the other links are unaffected.
//!
//! Determinism: a link's event stream depends only on its own records —
//! engines never share detector state — so the per-link slice of the
//! unified sink is byte-identical to running that link's trace standalone
//! through a [`StreamingEngine`] with the same [`event_line`] rendering
//! (asserted by the monitor conformance tests). Memory is bounded per
//! link by the online detector's eviction horizon, so fleet memory is
//! `O(links)`, not `O(traffic)`.
//!
//! Telemetry: fleet-wide `monitor.*` counters plus live per-link gauges
//! `link.<id>.records`, `link.<id>.open_candidates` and `link.<id>.loops`
//! in the global registry, which the `telemetry::export` sampler already
//! streams — the monitor grows no sampler of its own.

use crate::config::DetectorConfig;
use crate::online::OnlineEvent;
use crate::pipeline::{loop_jsonl_fields, stream_jsonl_fields, Engine, StreamingEngine};
use crate::record::TraceRecord;
use crate::replica::DetectionStats;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::{Gauge, LazyCounter, LazyGauge};

static TM_LINKS_ACTIVE: LazyGauge = LazyGauge::new("monitor.links_active");
static TM_RECORDS: LazyCounter = LazyCounter::new("monitor.records");
static TM_STREAMS: LazyCounter = LazyCounter::new("monitor.streams");
static TM_LOOPS: LazyCounter = LazyCounter::new("monitor.loops");

/// Monitor-wide configuration, applied to every link's engine.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Detector parameters (shared by all links).
    pub detector: DetectorConfig,
    /// Threshold for the `class` field of emitted loop events.
    pub persistent_threshold_ns: u64,
    /// Per-link history horizon override
    /// ([`StreamingEngine::with_history_horizon`]); `None` keeps the
    /// default exact-equivalence horizon.
    pub history_horizon_ns: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::default(),
            persistent_threshold_ns: 60_000_000_000,
            history_horizon_ns: None,
        }
    }
}

/// Fleet-wide totals, readable at any time and returned by
/// [`MonitorRuntime::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorTotals {
    /// Links ever registered.
    pub links_opened: u64,
    /// Links finished (gracefully removed).
    pub links_closed: u64,
    /// Records fed across all links.
    pub records: u64,
    /// Stream events emitted across all links.
    pub streams: u64,
    /// Loop events emitted across all links.
    pub loops: u64,
}

/// What one finished link contributed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSummary {
    /// The link id given to [`MonitorRuntime::add_link`].
    pub id: String,
    /// Records this link's engine consumed.
    pub records: u64,
    /// Stream events this link emitted.
    pub streams: u64,
    /// Loop events this link emitted.
    pub loops: u64,
    /// The engine's final stage counters.
    pub stats: DetectionStats,
}

struct Shared {
    out: Mutex<Box<dyn Write + Send>>,
    active: AtomicUsize,
    opened: AtomicU64,
    closed: AtomicU64,
    records: AtomicU64,
    streams: AtomicU64,
    loops: AtomicU64,
}

/// Why [`LinkMonitor::feed`] refused a batch: a record earlier than the
/// one before it. It reaches the caller as the payload of an
/// [`std::io::ErrorKind::InvalidData`] error (recover it with
/// [`std::io::Error::get_ref`] and `downcast_ref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// Zero-based position of the offending record in the link's stream.
    pub record: u64,
    /// Its timestamp.
    pub timestamp_ns: u64,
    /// The timestamp of the record before it.
    pub previous_ns: u64,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {} at {} ns is earlier than the record before it at {} ns",
            self.record, self.timestamp_ns, self.previous_ns
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// Renders one per-link-attributed event line (no trailing newline).
///
/// The body fields after the `link`/`event` attribution are exactly the
/// fields [`crate::pipeline::StreamJsonlSink`] and
/// [`crate::pipeline::LoopJsonlSink`] write, in the same order and number
/// formatting, minus the loop `open_ended` flag (a whole-trace property a
/// live monitor cannot know at emission time).
pub fn event_line(link: &str, ev: &OnlineEvent, persistent_threshold_ns: u64) -> String {
    match ev {
        OnlineEvent::Stream(s) => {
            format!(
                "{{\"link\":\"{link}\",\"event\":\"stream\",{}}}",
                stream_jsonl_fields(s)
            )
        }
        OnlineEvent::Loop(l) => format!(
            "{{\"link\":\"{link}\",\"event\":\"loop\",{}}}",
            loop_jsonl_fields(l, persistent_threshold_ns)
        ),
    }
}

/// Panics unless `id` is usable verbatim inside JSON strings and metric
/// names: non-empty, at most 128 bytes, only `[A-Za-z0-9._-]`.
fn validate_link_id(id: &str) {
    assert!(!id.is_empty(), "link id must not be empty");
    assert!(id.len() <= 128, "link id too long: {id:?}");
    assert!(
        id.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-'),
        "link id must be [A-Za-z0-9._-]: {id:?}"
    );
}

/// The multiplexed runtime: a registry of concurrently monitored links
/// sharing one event sink. See the module docs for the architecture.
pub struct MonitorRuntime {
    cfg: MonitorConfig,
    shared: Arc<Shared>,
}

impl MonitorRuntime {
    /// A runtime writing the unified loop-event JSONL stream to `out`.
    pub fn new(cfg: MonitorConfig, out: Box<dyn Write + Send>) -> Self {
        Self {
            cfg,
            shared: Arc::new(Shared {
                out: Mutex::new(out),
                active: AtomicUsize::new(0),
                opened: AtomicU64::new(0),
                closed: AtomicU64::new(0),
                records: AtomicU64::new(0),
                streams: AtomicU64::new(0),
                loops: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a link and returns its share-nothing feed handle. Safe to
    /// call from any thread at any time — links join and leave a running
    /// fleet freely.
    ///
    /// # Panics
    /// Panics when `id` fails `validate_link_id`'s charset rules.
    pub fn add_link(&self, id: &str) -> LinkMonitor {
        validate_link_id(id);
        let mut engine = StreamingEngine::new(self.cfg.detector);
        if let Some(h) = self.cfg.history_horizon_ns {
            engine = engine.with_history_horizon(h);
        }
        // Metric names live for the process; registering the same link id
        // twice re-resolves to the same gauges (the registry keys by
        // name content).
        let reg = telemetry::global();
        let gauge = |suffix: &str| -> &'static Gauge {
            reg.gauge(Box::leak(format!("link.{id}.{suffix}").into_boxed_str()))
        };
        self.shared.opened.fetch_add(1, Ordering::Relaxed);
        let active = self.shared.active.fetch_add(1, Ordering::Relaxed) + 1;
        TM_LINKS_ACTIVE.set(active as i64);
        LinkMonitor {
            id: id.to_string(),
            engine,
            shared: Arc::clone(&self.shared),
            persistent_ns: self.cfg.persistent_threshold_ns,
            records: 0,
            last_ns: 0,
            streams: 0,
            loops: 0,
            gauge_records: gauge("records"),
            gauge_open: gauge("open_candidates"),
            gauge_loops: gauge("loops"),
            buf: String::new(),
            done: false,
        }
    }

    /// Links currently registered and not yet finished.
    pub fn active_links(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Fleet-wide totals so far.
    pub fn totals(&self) -> MonitorTotals {
        MonitorTotals {
            links_opened: self.shared.opened.load(Ordering::Relaxed),
            links_closed: self.shared.closed.load(Ordering::Relaxed),
            records: self.shared.records.load(Ordering::Relaxed),
            streams: self.shared.streams.load(Ordering::Relaxed),
            loops: self.shared.loops.load(Ordering::Relaxed),
        }
    }

    /// Flushes the unified sink and returns the final totals. Call after
    /// every [`LinkMonitor`] has finished (or been dropped).
    pub fn finish(self) -> std::io::Result<MonitorTotals> {
        let totals = self.totals();
        self.shared
            .out
            .lock()
            .expect("monitor sink poisoned")
            .flush()?;
        Ok(totals)
    }
}

/// One monitored link: a bounded streaming engine plus the bookkeeping to
/// attribute its events in the shared sink. Obtained from
/// [`MonitorRuntime::add_link`]; `Send`, so workers can drive links from
/// any thread.
pub struct LinkMonitor {
    id: String,
    engine: StreamingEngine,
    shared: Arc<Shared>,
    persistent_ns: u64,
    records: u64,
    /// Timestamp of the last record fed (0 before the first).
    last_ns: u64,
    streams: u64,
    loops: u64,
    gauge_records: &'static Gauge,
    gauge_open: &'static Gauge,
    gauge_loops: &'static Gauge,
    buf: String,
    done: bool,
}

impl LinkMonitor {
    /// The link's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Records fed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Open (undecided) replica candidates in this link's engine.
    pub fn open_candidates(&self) -> usize {
        self.engine.progress().open_candidates.unwrap_or(0)
    }

    /// Feeds one timestamp-ordered batch of this link's records,
    /// appending any completed events to the shared sink. Batches are
    /// buffered into whole lines first and written under one short lock,
    /// so lines from concurrent links interleave but never tear, and a
    /// link's own lines keep their emission order.
    ///
    /// A batch with a record earlier than its predecessor (in the batch or
    /// the link's previous batch) is refused whole, before any of it is
    /// pushed: the error is [`std::io::ErrorKind::InvalidData`] carrying an
    /// [`OutOfOrder`], and the link is left as it was, so the caller can
    /// retire it without disturbing the rest of the fleet.
    pub fn feed(&mut self, batch: &[TraceRecord]) -> std::io::Result<()> {
        self.check_order(batch)?;
        self.buf.clear();
        let mut streams = 0u64;
        let mut loops = 0u64;
        {
            let (id, pns, buf) = (&self.id, self.persistent_ns, &mut self.buf);
            let mut emit = |ev: OnlineEvent| {
                match ev {
                    OnlineEvent::Stream(_) => streams += 1,
                    OnlineEvent::Loop(_) => loops += 1,
                }
                buf.push_str(&event_line(id, &ev, pns));
                buf.push('\n');
            };
            self.engine.feed(batch, &mut emit);
        }
        self.records += batch.len() as u64;
        self.streams += streams;
        self.loops += loops;
        self.flush_buf()?;
        self.account(batch.len() as u64, streams, loops);
        Ok(())
    }

    /// Drains the engine's remaining state, writes this link's tail
    /// events, and retires the link from the fleet.
    pub fn finish(mut self) -> std::io::Result<LinkSummary> {
        self.buf.clear();
        let mut streams = 0u64;
        let mut loops = 0u64;
        let stats = {
            let (id, pns, buf) = (&self.id, self.persistent_ns, &mut self.buf);
            let mut emit = |ev: OnlineEvent| {
                match ev {
                    OnlineEvent::Stream(_) => streams += 1,
                    OnlineEvent::Loop(_) => loops += 1,
                }
                buf.push_str(&event_line(id, &ev, pns));
                buf.push('\n');
            };
            self.engine.finish(&mut emit)
        };
        self.streams += streams;
        self.loops += loops;
        self.flush_buf()?;
        self.account(0, streams, loops);
        self.done = true;
        self.retire();
        Ok(LinkSummary {
            id: self.id.clone(),
            records: self.records,
            streams: self.streams,
            loops: self.loops,
            stats,
        })
    }

    /// Accepts `batch` only if its timestamps never go backwards, starting
    /// from the last record already fed.
    fn check_order(&mut self, batch: &[TraceRecord]) -> std::io::Result<()> {
        let mut previous_ns = self.last_ns;
        for (i, rec) in batch.iter().enumerate() {
            if rec.timestamp_ns < previous_ns {
                let err = OutOfOrder {
                    record: self.records + i as u64,
                    timestamp_ns: rec.timestamp_ns,
                    previous_ns,
                };
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, err));
            }
            previous_ns = rec.timestamp_ns;
        }
        self.last_ns = previous_ns;
        Ok(())
    }

    fn flush_buf(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut out = self.shared.out.lock().expect("monitor sink poisoned");
        out.write_all(self.buf.as_bytes())
    }

    fn account(&self, records: u64, streams: u64, loops: u64) {
        self.shared.records.fetch_add(records, Ordering::Relaxed);
        self.shared.streams.fetch_add(streams, Ordering::Relaxed);
        self.shared.loops.fetch_add(loops, Ordering::Relaxed);
        TM_RECORDS.add(records);
        TM_STREAMS.add(streams);
        TM_LOOPS.add(loops);
        self.gauge_records.set(self.records as i64);
        self.gauge_open.set(self.open_candidates() as i64);
        self.gauge_loops.set(self.loops as i64);
    }

    fn retire(&self) {
        self.shared.closed.fetch_add(1, Ordering::Relaxed);
        self.deactivate();
    }

    fn deactivate(&self) {
        let active = self.shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
        TM_LINKS_ACTIVE.set(active as i64);
    }
}

impl Drop for LinkMonitor {
    fn drop(&mut self) {
        // A handle dropped without finish (worker panic, shutdown race)
        // forfeits its tail events and does not count as a graceful close,
        // but must not wedge the active-link count.
        if !self.done {
            self.deactivate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    /// A cloneable in-memory sink for capturing the unified stream.
    #[derive(Clone, Default)]
    struct SharedVec(Arc<Mutex<Vec<u8>>>);

    impl SharedVec {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn looping_trace(dst_octet: u8) -> Vec<TraceRecord> {
        let mut recs = Vec::new();
        for j in 0..3u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 9, 9, 9),
                Ipv4Addr::new(203, 0, dst_octet, 1),
                5000,
                80,
                TcpFlags::ACK,
                &b"pay"[..],
            );
            p.ip.ident = 400 + j;
            p.ip.ttl = 58;
            p.fill_checksums();
            let base = u64::from(j) * 400_000_000;
            for k in 0..5u64 {
                if k > 0 {
                    p.ip.decrement_ttl();
                    p.ip.decrement_ttl();
                }
                recs.push(TraceRecord::from_packet(base + k * 1_000_000, &p));
            }
        }
        recs
    }

    #[test]
    fn monitor_matches_standalone_streaming_engine() {
        let recs = looping_trace(7);
        let sink = SharedVec::default();
        let rt = MonitorRuntime::new(MonitorConfig::default(), Box::new(sink.clone()));
        let mut link = rt.add_link("tap-a");
        for chunk in recs.chunks(4) {
            link.feed(chunk).unwrap();
        }
        let summary = link.finish().unwrap();
        rt.finish().unwrap();

        // Standalone render: same engine, same event writer, no runtime.
        let mut engine = StreamingEngine::new(DetectorConfig::default());
        let mut expect = String::new();
        let mut emit = |ev: OnlineEvent| {
            expect.push_str(&event_line("tap-a", &ev, 60_000_000_000));
            expect.push('\n');
        };
        engine.feed(&recs, &mut emit);
        let stats = engine.finish(&mut emit);

        assert_eq!(sink.contents(), expect);
        assert_eq!(summary.stats, stats);
        assert_eq!(summary.records, recs.len() as u64);
        assert!(summary.streams > 0, "fixture must produce streams");
        assert!(summary.loops > 0, "fixture must produce loops");
    }

    #[test]
    fn per_link_slices_are_attributed_and_complete() {
        let sink = SharedVec::default();
        let rt = MonitorRuntime::new(MonitorConfig::default(), Box::new(sink.clone()));
        let mut a = rt.add_link("a");
        let mut b = rt.add_link("link-b.7");
        assert_eq!(rt.active_links(), 2);
        a.feed(&looping_trace(1)).unwrap();
        b.feed(&looping_trace(2)).unwrap();
        let sa = a.finish().unwrap();
        assert_eq!(rt.active_links(), 1);
        let sb = b.finish().unwrap();
        assert_eq!(rt.active_links(), 0);
        let totals = rt.finish().unwrap();
        assert_eq!(totals.links_opened, 2);
        assert_eq!(totals.links_closed, 2);
        assert_eq!(totals.streams, sa.streams + sb.streams);
        assert_eq!(totals.loops, sa.loops + sb.loops);

        let text = sink.contents();
        let (mut na, mut nb) = (0u64, 0u64);
        for line in text.lines() {
            if line.starts_with("{\"link\":\"a\",") {
                na += 1;
            } else if line.starts_with("{\"link\":\"link-b.7\",") {
                nb += 1;
            } else {
                panic!("unattributed line: {line}");
            }
        }
        assert_eq!(na, sa.streams + sa.loops);
        assert_eq!(nb, sb.streams + sb.loops);
    }

    #[test]
    fn dropped_link_retires_without_tail_events() {
        let sink = SharedVec::default();
        let rt = MonitorRuntime::new(MonitorConfig::default(), Box::new(sink.clone()));
        let mut link = rt.add_link("dying");
        link.feed(&looping_trace(3)[..4]).unwrap();
        drop(link);
        assert_eq!(rt.active_links(), 0);
        let totals = rt.finish().unwrap();
        assert_eq!(totals.links_opened, 1);
        assert_eq!(totals.links_closed, 0, "drop is not a graceful close");
    }

    #[test]
    fn out_of_order_batch_is_refused_whole() {
        let trace = looping_trace(4);
        let rt = MonitorRuntime::new(MonitorConfig::default(), Box::new(Vec::new()));
        let mut link = rt.add_link("backwards");
        link.feed(&trace[..4]).unwrap();
        // Within a batch, and against the previous batch's last record.
        let mut swapped = trace[4..8].to_vec();
        swapped.swap(1, 2);
        for (batch, record) in [(&swapped[..], 6), (&trace[..2], 4)] {
            let err = link.feed(batch).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let why = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<OutOfOrder>())
                .expect("typed payload");
            assert_eq!(why.record, record);
            assert!(why.timestamp_ns < why.previous_ns);
            assert_eq!(link.records(), 4, "nothing of a refused batch is pushed");
        }
        // The link is as it was: the rest of the trace still feeds.
        link.feed(&trace[4..]).unwrap();
        assert_eq!(link.finish().unwrap().records, trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "link id")]
    fn link_id_charset_is_enforced() {
        let rt = MonitorRuntime::new(MonitorConfig::default(), Box::new(Vec::new()));
        let _ = rt.add_link("bad id with spaces");
    }
}
