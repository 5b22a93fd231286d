//! The unified Source→Engine→Sink detection pipeline.
//!
//! The paper's algorithm is one pipeline — ingest → replica detection →
//! validation → merge → §V analysis — and this module is the single seam
//! through which every execution mode runs it:
//!
//! ```text
//!   RecordSource ──ranges───▶ Engine ──events──▶ canonical order ──▶ Sinks
//!   (slice, pcap,  or batches (serial, block,    (streams, loops)    (CSV, JSONL,
//!    .ltc, tap)                streaming)                             analysis, …)
//! ```
//!
//! * A [`RecordSource`] yields timestamp-ordered [`TraceRecord`] batches:
//!   an in-memory slice ([`SliceSource`]) or a pcap stream whose records
//!   are decoded where they lie in the reader's block
//!   ([`PcapSource`], whose [`PcapSource::for_each_record`] is the one
//!   pcap decode loop — every other pcap reader runs it too).
//!   `.ltc` corpora plug in through the `corpus` crate's source, and
//!   simulator taps through the root crate's `TapSource` wrapper. Every
//!   source also hands the whole trace to a batch engine's range scans
//!   ([`RecordSource::scan`]): a slice as up to N slices scanned where
//!   they lie, a pcap file ([`crate::segment::PcapFileSource`]) or a
//!   `.ltc`, mapped or buffered, as up to N ranges, each decoded and
//!   scanned chunk by chunk by its own thread, and any other source as
//!   one range fed its batches on the calling thread. No batch path
//!   holds the trace. A file source's batches come from the same decode
//!   loop as its ranges: its input read as one range on the calling
//!   thread ([`crate::segment::BatchFeed`]).
//! * An [`Engine`] turns the trace into [`OnlineEvent`]s. The offline
//!   engines — [`SerialEngine`] and [`BlockEngine`], one engine over the
//!   one offline core ([`BlockParallelDetector`]) at one worker or N —
//!   take it as ranges; [`StreamingEngine`] takes it batch by batch.
//!   All three share one contract: on the same input they produce the
//!   same streams, loops, and [`DetectionStats`] (the conformance tests
//!   assert equality on every fixture).
//! * A [`Sink`] observes the trace's records through a [`RecordFold`]
//!   (for single-pass whole-trace statistics) and the finished
//!   [`PipelineResult`] (for per-stream/per-loop output). CSV and JSONL
//!   emitters live here; [`crate::analysis::AnalysisAccumulator`] is a
//!   sink too, which is what lets `--streaming` produce the full §V report
//!   in bounded memory.
//!
//! [`run_pipeline`] wires the three together, attaches the
//! `pipeline.*` telemetry spans at the stage boundaries, and puts the
//! emitted streams and loops into the canonical order — streams by
//! `(start, first record index)`, loops by `(prefix, start)` — so the
//! output bytes never depend on which engine ran.

pub use crate::analysis::RecordFold;
use crate::block::{even_slices, scan_slices, BlockParallelDetector, RangeScan, ScanStart};
use crate::config::DetectorConfig;
use crate::merge::{LoopKind, RoutingLoop};
use crate::monitor::OutOfOrder;
use crate::online::{OnlineDetector, OnlineEvent};
use crate::record::TraceRecord;
use crate::replica::{DetectionResult, DetectionStats};
pub use crate::segment::Ranges;
use crate::segment::{read_pcap_chunks, BatchFeed, RangeEnd};
use crate::stream::ReplicaStream;
use std::io::Write;
use std::ops::ControlFlow;

static TM_UNPARSEABLE: telemetry::LazyCounter =
    telemetry::LazyCounter::new("pcap.unparseable_records");

/// A loop is reported as open-ended when it is still active this close to
/// the end of the trace (the tail gap the CLI has always used).
pub const OPEN_TAIL_GAP_NS: u64 = 2_000_000_000;

/// What a source delivered: parseable records and skipped (unparseable)
/// ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceSummary {
    /// Records handed to the engine.
    pub records: u64,
    /// Records skipped because their IP header could not be parsed.
    pub skipped: u64,
}

/// Failure while pulling records out of a source.
#[derive(Debug)]
pub enum SourceError {
    /// The pcap layer rejected the stream.
    Pcap(pcaplib::PcapError),
    /// An underlying file could not be opened or read.
    Io(std::io::Error),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Pcap(e) => write!(f, "pcap error: {e}"),
            SourceError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Failure anywhere in a pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// The source failed.
    Source(SourceError),
    /// A sink failed to write.
    Sink(std::io::Error),
    /// The run was cancelled mid-stream (shutdown request). Raised from a
    /// batch callback to unwind the source; [`run_pipeline_with_progress`]
    /// catches it, drains the engine, flushes the sinks, and returns a
    /// result with [`PipelineResult::interrupted`] set — it never escapes
    /// a pipeline run. Drivers that pump sources by hand (the monitor
    /// daemon) use it the same way.
    Interrupted,
    /// A record is earlier than the record before it: the trace is not
    /// sorted by timestamp, and detecting on it would report nonsense.
    OutOfOrder(OutOfOrder),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Source(e) => write!(f, "source: {e}"),
            PipelineError::Sink(e) => write!(f, "sink: {e}"),
            PipelineError::Interrupted => write!(f, "interrupted"),
            PipelineError::OutOfOrder(e) => {
                write!(f, "trace records must be sorted by timestamp: {e}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SourceError> for PipelineError {
    fn from(e: SourceError) -> Self {
        PipelineError::Source(e)
    }
}

impl From<pcaplib::PcapError> for PipelineError {
    fn from(e: pcaplib::PcapError) -> Self {
        PipelineError::Source(SourceError::Pcap(e))
    }
}

/// A supplier of timestamp-ordered trace records.
///
/// Sources are single-use: [`RecordSource::for_each_batch`] drains the
/// source. Batch boundaries are an implementation detail — engines must
/// produce identical results however the same records are batched.
pub trait RecordSource {
    /// Calls `f` with successive record batches until the source is
    /// exhausted, then reports how many records were delivered and how
    /// many were skipped as unparseable. Errors from `f` (sink failures)
    /// propagate unchanged.
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError>;

    /// The whole source at once, for the batch engines: up to `parts`
    /// contiguous trace-ordered ranges, each fed, in order, to its own
    /// [`RangeScan`] from `start`. A source that must decode may read the
    /// ranges on `parts` threads, each decoding its range into its scan,
    /// calling `poll` with the records read so far meanwhile and stopping
    /// at the first [`ControlFlow::Break`] (the result is then a prefix,
    /// marked `interrupted`). A scan that refuses a record (one earlier
    /// than the record before it) ends the read there.
    ///
    /// The default feeds [`RecordSource::for_each_batch`]'s batches to one
    /// scan on the calling thread, polling after each batch; on a break it
    /// returns the scan of the batches read so far, with
    /// [`RecordSource::skipped_hint`] as the skip count. A slice cuts
    /// itself into `parts` slices scanned where they lie instead, and a
    /// pcap file ([`crate::segment::PcapFileSource`]) or a `.ltc`, mapped
    /// or buffered, reads up to `parts` ranges on as many threads.
    fn scan(
        &mut self,
        _parts: usize,
        start: &ScanStart<'_>,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<RangeScan>, PipelineError> {
        let mut range = start();
        let pulled = self.for_each_batch(&mut |batch| {
            if range.push(batch).is_break() {
                return Err(PipelineError::Interrupted);
            }
            match poll(range.records()) {
                ControlFlow::Continue(()) => Ok(()),
                ControlFlow::Break(()) => Err(PipelineError::Interrupted),
            }
        });
        let (skipped, end) = match pulled {
            Ok(summary) => (summary.skipped, RangeEnd::Complete),
            Err(PipelineError::Interrupted) if range.refused() => {
                (self.skipped_hint(), RangeEnd::Refused)
            }
            Err(PipelineError::Interrupted) => (self.skipped_hint(), RangeEnd::Stopped),
            Err(e) => return Err(e),
        };
        range.end();
        let mut ranges = Ranges::new(skipped);
        let _ = ranges.push(range, end);
        Ok(ranges)
    }

    /// Unparseable records skipped so far: by the decode this source
    /// runs, or — for a `.ltc` corpus — by the conversion that wrote it.
    /// Read after a cancelled pass, where no [`SourceSummary`] comes back:
    /// it is the count up to the break.
    fn skipped_hint(&self) -> u64 {
        0
    }
}

/// A source over records already materialised in memory.
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    records: &'a [TraceRecord],
}

impl<'a> SliceSource<'a> {
    /// Wraps a record slice.
    pub fn new(records: &'a [TraceRecord]) -> Self {
        Self { records }
    }
}

impl RecordSource for SliceSource<'_> {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        f(self.records)?;
        Ok(SourceSummary {
            records: self.records.len() as u64,
            skipped: 0,
        })
    }

    fn scan(
        &mut self,
        parts: usize,
        start: &ScanStart<'_>,
        _poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<RangeScan>, PipelineError> {
        // Up to `parts` even slices, each scanned where it lies.
        Ok(Ranges {
            parts: scan_slices(&even_slices(self.records, parts), start),
            ..Ranges::new(0)
        })
    }
}

/// A source decoding a pcap stream record by record where it lies in the
/// reader's block ([`pcaplib::PcapReader::next_record`]), with no copy
/// and no allocation. Unparseable records (non-IPv4 link noise) are
/// skipped and counted in the [`SourceSummary`].
///
/// [`PcapSource::for_each_record`] is the only pcap decode loop in the
/// tree: the batched pipeline source, the root crate's whole-file
/// `records_from_pcap`, and each range worker of
/// [`crate::segment::read_pcap_ranges`] all run it.
pub struct PcapSource<R: std::io::Read> {
    reader: pcaplib::PcapReader<R>,
    skipped: u64,
}

impl<R: std::io::Read> PcapSource<R> {
    /// Opens a pcap stream (validates the file header).
    pub fn new(source: R) -> Result<Self, SourceError> {
        Ok(pcaplib::PcapReader::new(source)
            .map_err(SourceError::Pcap)?
            .into())
    }

    /// Decodes every remaining record: each parseable one goes to
    /// `on_record`, each unparseable one is counted as skipped. This
    /// call's skips are published to `pcap.unparseable_records` once, on
    /// return — also when the reader or `on_record` fails — unless the
    /// reader defers its counts ([`Self::publish_deferred`]). Errors from
    /// `on_record` propagate unchanged.
    // Inlined so a caller's output vector can stay in registers: without
    // the hint, the materialising `records_from_pcap` ran about 8% slower
    // per record (x86-64, rustc 1.95).
    #[inline]
    pub fn for_each_record<E: From<pcaplib::PcapError>>(
        &mut self,
        mut on_record: impl FnMut(TraceRecord) -> Result<(), E>,
    ) -> Result<(), E> {
        // `from_wire_bytes` parses each capture where the reader lends it,
        // in its block buffer, without copying it.
        let mut skipped = 0u64;
        let result = loop {
            let captured = match self.reader.next_record() {
                Ok(Some(captured)) => captured,
                Ok(None) => break Ok(()),
                Err(e) => break Err(E::from(e)),
            };
            match TraceRecord::from_wire_bytes(captured.timestamp_ns, captured.data) {
                Ok(rec) => {
                    if let Err(e) = on_record(rec) {
                        break Err(e);
                    }
                }
                Err(_) => skipped += 1,
            }
        };
        self.skipped += skipped;
        if !self.reader.defers_counts() {
            TM_UNPARSEABLE.add(skipped);
        }
        result
    }

    /// Publishes what a [resumed](pcaplib::PcapReader::resume) reader's
    /// passes kept back: its `pcap.*` record counts and the skips.
    pub fn publish_deferred(&mut self) {
        self.reader.take_counts().publish();
        TM_UNPARSEABLE.add(self.skipped);
    }
}

impl<R: std::io::Read> From<pcaplib::PcapReader<R>> for PcapSource<R> {
    /// Wraps a reader whose file header was already validated — e.g. one
    /// resumed mid-file by a range decode.
    fn from(reader: pcaplib::PcapReader<R>) -> Self {
        Self { reader, skipped: 0 }
    }
}

impl<R: std::io::Read> RecordSource for PcapSource<R> {
    /// The stream read as one range on the calling thread
    /// ([`crate::segment`]'s pcap range loop), in chunks of 4096 records.
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        let records = BatchFeed::run(f, |feed, control| {
            match read_pcap_chunks(self, feed, control) {
                (end, None) => Ok(end),
                (_, Some(e)) => Err(e.into()),
            }
        })?;
        Ok(SourceSummary {
            records,
            skipped: self.skipped,
        })
    }

    fn skipped_hint(&self) -> u64 {
        self.skipped
    }
}

/// Live state of an engine, for `--progress` reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineProgress {
    /// Records consumed so far.
    pub records: u64,
    /// Open (undecided) replica candidates right now. `None` when the
    /// engine buffers its input and has not started detecting yet — the
    /// offline engines have no open candidates until they run.
    pub open_candidates: Option<usize>,
}

/// One detection engine: turns a trace into validated streams and merged
/// loops, emitted as [`OnlineEvent`]s, and reports [`DetectionStats`].
///
/// An engine takes the trace in one of two shapes. The offline engines
/// ([`BlockEngine`], [`SerialEngine`]) detect once they have seen the
/// whole trace: [`run_pipeline`] hands the source to the
/// [`Engine::batch`] engine, whose range scans read it where it lies. The
/// streaming engine is fed batches instead: any number of
/// [`Engine::feed`] calls followed by exactly one [`Engine::finish`].
/// Batches can arrive over an arbitrarily long wall-clock span — the
/// monitor runtime keeps one engine per link alive for the life of the
/// link.
///
/// The contract all implementations share: on the same timestamp-ordered
/// input, the *set* of emitted streams and loops and every stats field
/// are identical. Emission *order* may differ (the streaming engine emits
/// as evidence completes); [`run_pipeline`] puts events into the
/// canonical order afterwards.
pub trait Engine {
    /// A short stable name ("serial", "block", "streaming").
    fn name(&self) -> &'static str;

    /// Consumes one batch, emitting any events whose evidence completed.
    fn feed(&mut self, batch: &[TraceRecord], emit: &mut dyn FnMut(OnlineEvent));

    /// Flushes remaining state at end of input and returns the final
    /// counters. Must be called exactly once, after all batches.
    fn finish(&mut self, emit: &mut dyn FnMut(OnlineEvent)) -> DetectionStats;

    /// Current progress, callable at any time.
    fn progress(&self) -> EngineProgress;

    /// The offline engine behind this one, which [`run_pipeline`] hands
    /// the whole source (`BlockEngine::run_source`). `None` (the
    /// default): stream batches through [`Engine::feed`].
    fn batch(&mut self) -> Option<&mut BlockEngine> {
        None
    }
}

/// The offline engine: the block core ([`BlockParallelDetector`]) behind
/// the [`Engine`] interface. It has the source read the trace as one range
/// per worker, each scanned as it is decoded, with a boundary-
/// reconciliation pass keeping the output byte-identical at every worker
/// count (`BlockEngine::run_source`). This is the default engine.
/// Batches fed instead are buffered and detected at [`Engine::finish`].
pub struct BlockEngine {
    det: BlockParallelDetector,
    name: &'static str,
    buf: Vec<TraceRecord>,
    records: u64,
    done: bool,
}

impl BlockEngine {
    /// A block engine over `threads` workers.
    pub fn new(cfg: DetectorConfig, threads: usize) -> Self {
        Self {
            det: BlockParallelDetector::new(cfg, threads),
            name: "block",
            buf: Vec::new(),
            records: 0,
            done: false,
        }
    }

    /// Has `source` read the whole trace into this engine's range scans
    /// ([`RecordSource::scan`], with `poll` as its progress and stop
    /// callback), folding the records when `fold` is set, and detects.
    /// Fails with the source's error, or with the first record in trace
    /// order that is earlier than the one before it.
    pub(crate) fn run_source(
        &mut self,
        source: &mut dyn RecordSource,
        fold: bool,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<SourceRun, PipelineError> {
        let cfg = *self.det.config();
        let parts = self.det.threads();
        let start = || RangeScan::new(cfg, fold).for_ranges(parts);
        let ranges = source.scan(parts, &start, poll)?;
        let mut records = RecordFold::default();
        for fold in ranges.parts.iter().filter_map(RangeScan::fold) {
            records.merge(fold);
        }
        let run = SourceRun {
            records: ranges.parts.iter().map(RangeScan::records).sum(),
            skipped: ranges.skipped,
            interrupted: ranges.interrupted,
            first_ns: ranges.parts.iter().find_map(RangeScan::first_ns),
            last_ns: ranges
                .parts
                .iter()
                .rev()
                .find(|r| r.records() > 0)
                .map_or(0, RangeScan::last_ns),
            fold: records,
            result: self
                .det
                .detect_ranges(ranges.parts)
                .map_err(PipelineError::OutOfOrder)?,
        };
        self.records += run.records;
        self.done = true;
        Ok(run)
    }

    fn emit(result: DetectionResult, emit: &mut dyn FnMut(OnlineEvent)) -> DetectionStats {
        for s in result.streams {
            emit(OnlineEvent::Stream(s));
        }
        for l in result.loops {
            emit(OnlineEvent::Loop(l));
        }
        result.stats
    }
}

/// What [`BlockEngine::run_source`] made of a whole source.
pub(crate) struct SourceRun {
    /// Steps 1–3 over the records read.
    result: DetectionResult,
    /// Records read.
    records: u64,
    /// Unparseable records the source skipped.
    skipped: u64,
    /// Whether a stop request cut the read short.
    interrupted: bool,
    /// The first record's timestamp.
    first_ns: Option<u64>,
    /// The last record's timestamp (0 on an empty trace).
    last_ns: u64,
    /// The records' fold (empty unless asked for).
    fold: RecordFold,
}

impl Engine for BlockEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn feed(&mut self, batch: &[TraceRecord], _emit: &mut dyn FnMut(OnlineEvent)) {
        self.buf.extend_from_slice(batch);
    }

    fn finish(&mut self, emit: &mut dyn FnMut(OnlineEvent)) -> DetectionStats {
        let buf = std::mem::take(&mut self.buf);
        self.records += buf.len() as u64;
        self.done = true;
        Self::emit(self.det.run(&buf), emit)
    }

    fn progress(&self) -> EngineProgress {
        EngineProgress {
            records: self.records + self.buf.len() as u64,
            open_candidates: if self.done { Some(0) } else { None },
        }
    }

    fn batch(&mut self) -> Option<&mut BlockEngine> {
        Some(self)
    }
}

/// `--engine serial`: the [`BlockEngine`] with one worker, which runs the
/// block core on the calling thread, reporting itself as "serial".
pub struct SerialEngine(BlockEngine);

impl SerialEngine {
    /// A one-worker engine with the given configuration.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self(BlockEngine {
            name: "serial",
            ..BlockEngine::new(cfg, 1)
        })
    }
}

impl Engine for SerialEngine {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn feed(&mut self, batch: &[TraceRecord], emit: &mut dyn FnMut(OnlineEvent)) {
        self.0.feed(batch, emit);
    }

    fn finish(&mut self, emit: &mut dyn FnMut(OnlineEvent)) -> DetectionStats {
        self.0.finish(emit)
    }

    fn progress(&self) -> EngineProgress {
        self.0.progress()
    }

    fn batch(&mut self) -> Option<&mut BlockEngine> {
        Some(&mut self.0)
    }
}

/// The single-pass bounded-memory detector ([`OnlineDetector`]) behind the
/// [`Engine`] interface. Events flow out as their evidence completes; no
/// record buffer is kept.
pub struct StreamingEngine {
    det: Option<OnlineDetector>,
    records: u64,
}

impl StreamingEngine {
    /// A streaming engine with the given configuration (default horizon,
    /// which guarantees offline-identical output).
    pub fn new(cfg: DetectorConfig) -> Self {
        Self {
            det: Some(OnlineDetector::new(cfg)),
            records: 0,
        }
    }

    /// Shrinks the retained per-prefix history — see
    /// [`OnlineDetector::with_history_horizon`] for the semantics trade.
    pub fn with_history_horizon(mut self, horizon_ns: u64) -> Self {
        self.det = self.det.map(|d| d.with_history_horizon(horizon_ns));
        self
    }
}

impl Engine for StreamingEngine {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn feed(&mut self, batch: &[TraceRecord], emit: &mut dyn FnMut(OnlineEvent)) {
        let det = self.det.as_mut().expect("feed after finish");
        self.records += batch.len() as u64;
        det.push_batch(batch, emit);
    }

    fn finish(&mut self, emit: &mut dyn FnMut(OnlineEvent)) -> DetectionStats {
        let det = self.det.take().expect("finish called twice");
        let (events, stats) = det.finish();
        for ev in events {
            emit(ev);
        }
        stats.as_detection_stats()
    }

    fn progress(&self) -> EngineProgress {
        EngineProgress {
            records: self.records,
            open_candidates: Some(self.det.as_ref().map_or(0, OnlineDetector::open_candidates)),
        }
    }
}

/// Everything a pipeline run produced, in canonical order.
#[derive(Debug)]
pub struct PipelineResult {
    /// Validated replica streams, sorted by `(start, first record index)` —
    /// the serial detector's native order.
    pub streams: Vec<ReplicaStream>,
    /// Merged routing loops, sorted by `(prefix, start)`.
    pub loops: Vec<RoutingLoop>,
    /// Stage counters — identical across engines on the same input.
    pub stats: DetectionStats,
    /// Records the source delivered to the engine.
    pub records: u64,
    /// Unparseable records the source skipped.
    pub skipped: u64,
    /// Timestamp of the first record (0 on an empty trace).
    pub trace_start_ns: u64,
    /// Timestamp of the last record (0 on an empty trace).
    pub trace_end_ns: u64,
    /// True when the run was cancelled before the source drained (the
    /// progress callback broke out, e.g. on SIGINT). The engine was still
    /// flushed and every sink saw the partial result, so the output is a
    /// valid detection of the records consumed so far.
    pub interrupted: bool,
}

impl PipelineResult {
    /// Observation window length.
    pub fn duration_ns(&self) -> u64 {
        self.trace_end_ns.saturating_sub(self.trace_start_ns)
    }
}

/// A consumer of pipeline output.
///
/// A sink that reads the trace's records says so ([`Sink::folds_records`]);
/// the pipeline then folds every record into a [`RecordFold`] during the
/// pass — the batch engines' range workers fold their own ranges, merged
/// in trace order — and hands it over once, before `on_result`, which
/// fires once at the end with the canonical result. This is how
/// whole-trace statistics are computed without a second traversal.
pub trait Sink {
    /// Observes one record, for callers that feed a sink by hand. The
    /// pipeline never calls it: it hands record-reading sinks a
    /// [`RecordFold`]. Default: ignore.
    fn on_record(&mut self, _rec: &TraceRecord) -> std::io::Result<()> {
        Ok(())
    }

    /// Whether this sink reads the records ([`Sink::on_record_fold`]).
    /// Default: no, and the pipeline folds nothing for it.
    fn folds_records(&self) -> bool {
        false
    }

    /// Observes the fold of every record the run read, once, before
    /// [`Sink::on_result`]. Default: ignore.
    fn on_record_fold(&mut self, _fold: &RecordFold) -> std::io::Result<()> {
        Ok(())
    }

    /// Consumes the finished result.
    fn on_result(&mut self, result: &PipelineResult) -> std::io::Result<()>;
}

/// Runs `source → engine → sinks` and returns the canonical result.
///
/// Telemetry spans: the whole run is `pipeline.run`; engine work — on the
/// batch path the source's range reads too, which the range workers fuse
/// with the scan — under `pipeline.detect`, the streaming path's record
/// fold under `pipeline.ingest`, its end-of-input flush and the canonical
/// sort under `pipeline.finish`, and the sinks' `on_record_fold` and
/// `on_result` under `pipeline.sink`.
pub fn run_pipeline(
    source: &mut dyn RecordSource,
    engine: &mut dyn Engine,
    sinks: &mut [&mut dyn Sink],
) -> Result<PipelineResult, PipelineError> {
    run_pipeline_with_progress(source, engine, sinks, &mut |_| ControlFlow::Continue(()))
}

/// Marks an engine emission in the event trace: one instant per closed
/// stream or loop, so detections are visible on the timeline the moment
/// their evidence completed (free when tracing is disabled).
fn trace_emission(ev: &OnlineEvent) {
    use telemetry::trace::{self, TraceName};
    static TR_STREAM_CLOSED: TraceName = TraceName::new("pipeline.stream_closed");
    static TR_LOOP_CLOSED: TraceName = TraceName::new("pipeline.loop_closed");
    match ev {
        OnlineEvent::Stream(_) => trace::instant(&TR_STREAM_CLOSED),
        OnlineEvent::Loop(_) => trace::instant(&TR_LOOP_CLOSED),
    }
}

/// [`run_pipeline`] with a progress callback. Under the streaming engine
/// it is invoked after every batch (and once after the final flush) with
/// the engine's live state. While a source reads the trace into an
/// offline engine's range scans, it is invoked instead with the records
/// read so far and no open-candidate count, then once after detection.
///
/// The callback also carries the cancellation channel: returning
/// [`ControlFlow::Break`] stops pulling from the source, after which the
/// engine is flushed normally, the sinks see the partial result, and the
/// returned [`PipelineResult`] has `interrupted` set. This is how SIGINT
/// becomes a graceful drain instead of a mid-stream death. A parallel
/// range read stops each worker at its next chunk, and the default
/// one-range read stops after the batch in hand; either way the prefix
/// read so far is detected. A slice is already in memory, so a break
/// there can only take effect after detection — short in-memory runs
/// finish rather than cancel.
///
/// A record earlier than the record before it fails the run with
/// [`PipelineError::OutOfOrder`], on every engine.
pub fn run_pipeline_with_progress(
    source: &mut dyn RecordSource,
    engine: &mut dyn Engine,
    sinks: &mut [&mut dyn Sink],
    progress: &mut dyn FnMut(&EngineProgress) -> ControlFlow<()>,
) -> Result<PipelineResult, PipelineError> {
    let _run = telemetry::span("pipeline.run");
    let mut streams: Vec<ReplicaStream> = Vec::new();
    let mut loops: Vec<RoutingLoop> = Vec::new();
    let mut trace_start: Option<u64> = None;
    let mut trace_end: u64 = 0;
    let mut interrupted = false;
    let mut emit = |ev: OnlineEvent| {
        trace_emission(&ev);
        match ev {
            OnlineEvent::Stream(s) => streams.push(s),
            OnlineEvent::Loop(l) => loops.push(l),
        }
    };
    let fold_records = sinks.iter().any(|s| s.folds_records());
    let mut fold = RecordFold::default();

    let (summary, stats) = if let Some(block) = engine.batch() {
        // The whole trace at once: the source reads it straight into the
        // engine's range scans, which keep the replica window, not the
        // trace.
        let run = {
            let _t = telemetry::span("pipeline.detect");
            block.run_source(source, fold_records, &mut |read| {
                progress(&EngineProgress {
                    records: read,
                    open_candidates: None,
                })
            })?
        };
        interrupted = run.interrupted;
        trace_start = run.first_ns;
        trace_end = run.last_ns;
        fold = run.fold;
        let stats = BlockEngine::emit(run.result, &mut emit);
        // Detection cannot cancel mid-run; a Break here is moot.
        let _ = progress(&engine.progress());
        (
            SourceSummary {
                records: run.records,
                skipped: run.skipped,
            },
            stats,
        )
    } else {
        // The streaming engine: batch by batch, detecting as it goes.
        let mut previous_ns = 0;
        let mut read = 0;
        let pulled = source.for_each_batch(&mut |batch| {
            let Some(last) = batch.last() else {
                return Ok(());
            };
            if let Some(err) = OutOfOrder::first_in(batch, previous_ns, read) {
                return Err(PipelineError::OutOfOrder(err));
            }
            (previous_ns, read) = (last.timestamp_ns, read + batch.len() as u64);
            if fold_records {
                let _t = telemetry::span("pipeline.ingest");
                fold.add_all(batch);
            }
            trace_start.get_or_insert(batch[0].timestamp_ns);
            trace_end = last.timestamp_ns;
            {
                let _t = telemetry::span("pipeline.detect");
                engine.feed(batch, &mut emit);
            }
            match progress(&engine.progress()) {
                ControlFlow::Continue(()) => Ok(()),
                ControlFlow::Break(()) => Err(PipelineError::Interrupted),
            }
        });
        let summary = match pulled {
            Ok(summary) => summary,
            // Cancelled: the source never reported its totals, but the
            // engine counted everything it was fed and the source knows
            // what it skipped so far. Drain and flush below exactly as on
            // a clean end of input.
            Err(PipelineError::Interrupted) => {
                interrupted = true;
                SourceSummary {
                    records: engine.progress().records,
                    skipped: source.skipped_hint(),
                }
            }
            Err(e) => return Err(e),
        };
        let stats = {
            let _t = telemetry::span("pipeline.finish");
            engine.finish(&mut emit)
        };
        let _ = progress(&engine.progress());
        (summary, stats)
    };

    debug_assert_eq!(
        stats.total_records, summary.records,
        "engine consumed a different record count than the source delivered"
    );

    {
        // Canonical order: engines may emit in evidence-completion order;
        // the result must not depend on which engine ran. The first record
        // index is unique per stream (a record joins at most one
        // candidate), so this is a total order. It is not the order of
        // `Detector::run`, which is `(start, ident, first index)`: streams
        // that share a start can move. Loop members need no sort: every
        // engine lists them in `merge::merge_runs`' canonical order.
        let _t = telemetry::span("pipeline.finish");
        streams.sort_by_key(|s| (s.start_ns(), s.record_indices.first().copied()));
        loops.sort_by_key(|l| (l.prefix, l.start_ns));
    }

    let result = PipelineResult {
        streams,
        loops,
        stats,
        records: summary.records,
        skipped: summary.skipped,
        trace_start_ns: trace_start.unwrap_or(0),
        trace_end_ns: trace_end,
        interrupted,
    };

    {
        let _t = telemetry::span("pipeline.sink");
        for sink in sinks.iter_mut() {
            if sink.folds_records() {
                sink.on_record_fold(&fold).map_err(PipelineError::Sink)?;
            }
            sink.on_result(&result).map_err(PipelineError::Sink)?;
        }
    }
    Ok(result)
}

/// The loop classification string used by all textual sinks.
pub(crate) fn loop_class(l: &RoutingLoop, persistent_threshold_ns: u64) -> &'static str {
    match l.classify(persistent_threshold_ns) {
        LoopKind::Transient => "transient",
        LoopKind::Persistent => "persistent",
    }
}

/// The JSONL body fields for one replica stream (key order and number
/// formatting fixed, no surrounding braces). Shared between
/// [`StreamJsonlSink`] and the monitor's per-link event sink so the two
/// surfaces stay byte-identical field for field.
pub(crate) fn stream_jsonl_fields(s: &ReplicaStream) -> String {
    format!(
        "\"dst\":\"{}\",\"ident\":{},\"first_ttl\":{},\"last_ttl\":{},\"ttl_delta\":{},\"replicas\":{},\"start_s\":{:.6},\"duration_ms\":{:.3},\"mean_spacing_ms\":{:.3}",
        s.key.dst,
        s.key.ident,
        s.first_ttl(),
        s.last_ttl(),
        s.ttl_delta(),
        s.len(),
        s.start_ns() as f64 / 1e9,
        s.duration_ns() as f64 / 1e6,
        s.mean_spacing_ns() as f64 / 1e6,
    )
}

/// The JSONL body fields for one merged loop, without the `open_ended`
/// field — open-endedness is a whole-trace property the live monitor
/// cannot know at emission time, so only the batch sink appends it.
pub(crate) fn loop_jsonl_fields(l: &RoutingLoop, persistent_threshold_ns: u64) -> String {
    format!(
        "\"prefix\":\"{}\",\"start_s\":{:.6},\"end_s\":{:.6},\"duration_s\":{:.6},\"streams\":{},\"replicas\":{},\"ttl_delta\":{},\"class\":\"{}\"",
        l.prefix,
        l.start_ns as f64 / 1e9,
        l.end_ns as f64 / 1e9,
        l.duration_ns() as f64 / 1e9,
        l.num_streams(),
        l.replica_count(),
        l.ttl_delta(),
        loop_class(l, persistent_threshold_ns),
    )
}

/// CSV emitter for merged routing loops — byte-identical to the historical
/// `loopdetect --csv loops` output.
pub struct LoopCsvSink<W: Write> {
    out: W,
    persistent_threshold_ns: u64,
}

impl<W: Write> LoopCsvSink<W> {
    /// A sink writing to `out`, classifying loops against the given
    /// persistence threshold.
    pub fn new(out: W, persistent_threshold_ns: u64) -> Self {
        Self {
            out,
            persistent_threshold_ns,
        }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for LoopCsvSink<W> {
    fn on_result(&mut self, result: &PipelineResult) -> std::io::Result<()> {
        writeln!(
            self.out,
            "prefix,start_s,end_s,duration_s,streams,replicas,ttl_delta,class"
        )?;
        for l in &result.loops {
            let open = if l.is_open_ended(result.trace_end_ns, OPEN_TAIL_GAP_NS) {
                "+open"
            } else {
                ""
            };
            writeln!(
                self.out,
                "{},{:.6},{:.6},{:.6},{},{},{},{}{}",
                l.prefix,
                l.start_ns as f64 / 1e9,
                l.end_ns as f64 / 1e9,
                l.duration_ns() as f64 / 1e9,
                l.num_streams(),
                l.replica_count(),
                l.ttl_delta(),
                loop_class(l, self.persistent_threshold_ns),
                open,
            )?;
        }
        Ok(())
    }
}

/// CSV emitter for validated replica streams — byte-identical to the
/// historical `loopdetect --csv streams` output.
pub struct StreamCsvSink<W: Write> {
    out: W,
}

impl<W: Write> StreamCsvSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for StreamCsvSink<W> {
    fn on_result(&mut self, result: &PipelineResult) -> std::io::Result<()> {
        writeln!(
            self.out,
            "dst,ident,first_ttl,last_ttl,ttl_delta,replicas,start_s,duration_ms,mean_spacing_ms"
        )?;
        for s in &result.streams {
            writeln!(
                self.out,
                "{},{},{},{},{},{},{:.6},{:.3},{:.3}",
                s.key.dst,
                s.key.ident,
                s.first_ttl(),
                s.last_ttl(),
                s.ttl_delta(),
                s.len(),
                s.start_ns() as f64 / 1e9,
                s.duration_ns() as f64 / 1e6,
                s.mean_spacing_ns() as f64 / 1e6,
            )?;
        }
        Ok(())
    }
}

/// CSV emitter for the run summary — byte-identical to the historical
/// `loopdetect --csv summary` output.
pub struct SummaryCsvSink<W: Write> {
    out: W,
}

impl<W: Write> SummaryCsvSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for SummaryCsvSink<W> {
    fn on_result(&mut self, result: &PipelineResult) -> std::io::Result<()> {
        writeln!(self.out, "metric,value")?;
        writeln!(self.out, "records,{}", result.records)?;
        writeln!(self.out, "skipped,{}", result.skipped)?;
        writeln!(self.out, "streams,{}", result.streams.len())?;
        writeln!(self.out, "loops,{}", result.loops.len())?;
        writeln!(
            self.out,
            "looped_sightings,{}",
            result.streams.iter().map(ReplicaStream::len).sum::<usize>()
        )?;
        let est = crate::impact::escape_estimate(&result.streams);
        writeln!(self.out, "died_in_loop,{}", est.died)?;
        writeln!(self.out, "may_have_escaped,{}", est.may_have_escaped)?;
        Ok(())
    }
}

/// JSONL emitter for merged routing loops: one JSON object per line, keys
/// in fixed order, numbers formatted exactly like the CSV columns (so the
/// output is byte-stable across runs and engines).
pub struct LoopJsonlSink<W: Write> {
    out: W,
    persistent_threshold_ns: u64,
}

impl<W: Write> LoopJsonlSink<W> {
    /// A sink writing to `out`, classifying loops against the given
    /// persistence threshold.
    pub fn new(out: W, persistent_threshold_ns: u64) -> Self {
        Self {
            out,
            persistent_threshold_ns,
        }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for LoopJsonlSink<W> {
    fn on_result(&mut self, result: &PipelineResult) -> std::io::Result<()> {
        for l in &result.loops {
            writeln!(
                self.out,
                "{{{},\"open_ended\":{}}}",
                loop_jsonl_fields(l, self.persistent_threshold_ns),
                l.is_open_ended(result.trace_end_ns, OPEN_TAIL_GAP_NS),
            )?;
        }
        Ok(())
    }
}

/// JSONL emitter for validated replica streams: one JSON object per line,
/// keys in fixed order, numbers formatted exactly like the CSV columns.
pub struct StreamJsonlSink<W: Write> {
    out: W,
}

impl<W: Write> StreamJsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Sink for StreamJsonlSink<W> {
    fn on_result(&mut self, result: &PipelineResult) -> std::io::Result<()> {
        for s in &result.streams {
            writeln!(self.out, "{{{}}}", stream_jsonl_fields(s))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    fn looped_trace() -> Vec<TraceRecord> {
        let mut recs = Vec::new();
        for j in 0..4u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 7, 7, 7),
                Ipv4Addr::new(203, 0, j as u8, 1),
                5555,
                80,
                TcpFlags::ACK,
                &b"data"[..],
            );
            p.ip.ident = 100 + j;
            p.ip.ttl = 60;
            p.fill_checksums();
            let base = u64::from(j) * 500_000_000;
            for k in 0..5 {
                if k > 0 {
                    p.ip.decrement_ttl();
                    p.ip.decrement_ttl();
                }
                recs.push(TraceRecord::from_packet(base + k * 1_000_000, &p));
            }
        }
        for i in 0..300u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 2, 2, 2),
                Ipv4Addr::new(20, 0, (i % 5) as u8, 1),
                1000,
                80,
                TcpFlags::ACK,
                &b""[..],
            );
            p.ip.ident = i;
            p.fill_checksums();
            recs.push(TraceRecord::from_packet(u64::from(i) * 20_000_000, &p));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        recs
    }

    fn run_engine(engine: &mut dyn Engine, records: &[TraceRecord]) -> PipelineResult {
        let mut source = SliceSource::new(records);
        run_pipeline(&mut source, engine, &mut []).expect("pipeline run")
    }

    #[test]
    fn three_engines_agree() {
        let recs = looped_trace();
        let serial = run_engine(&mut SerialEngine::new(DetectorConfig::default()), &recs);
        let block = run_engine(&mut BlockEngine::new(DetectorConfig::default(), 4), &recs);
        let streaming = run_engine(&mut StreamingEngine::new(DetectorConfig::default()), &recs);
        assert_eq!(serial.streams, block.streams);
        assert_eq!(serial.streams, streaming.streams);
        assert_eq!(serial.loops, block.loops);
        assert_eq!(serial.loops, streaming.loops);
        assert_eq!(serial.stats, block.stats);
        assert_eq!(serial.stats, streaming.stats);
        assert_eq!(serial.records, recs.len() as u64);
    }

    #[test]
    fn batched_source_matches_slice_source() {
        // The same records through the non-slice path (PcapSource-style
        // batching) must produce the same result as the fast path.
        struct Chunked<'a>(&'a [TraceRecord]);
        impl RecordSource for Chunked<'_> {
            fn for_each_batch(
                &mut self,
                f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
            ) -> Result<SourceSummary, PipelineError> {
                for chunk in self.0.chunks(7) {
                    f(chunk)?;
                }
                Ok(SourceSummary {
                    records: self.0.len() as u64,
                    skipped: 0,
                })
            }
        }
        let recs = looped_trace();
        let fast = run_engine(&mut SerialEngine::new(DetectorConfig::default()), &recs);
        let mut chunked = Chunked(&recs);
        let slow = run_pipeline(
            &mut chunked,
            &mut SerialEngine::new(DetectorConfig::default()),
            &mut [],
        )
        .expect("pipeline run");
        assert_eq!(fast.streams, slow.streams);
        assert_eq!(fast.loops, slow.loops);
        assert_eq!(fast.stats, slow.stats);
    }

    #[test]
    fn progress_reports_records_and_open_candidates() {
        let recs = looped_trace();
        let mut engine = StreamingEngine::new(DetectorConfig::default());
        let mut seen = Vec::new();
        let mut source = SliceSource::new(&recs);
        run_pipeline_with_progress(&mut source, &mut engine, &mut [], &mut |p| {
            seen.push(*p);
            std::ops::ControlFlow::Continue(())
        })
        .expect("pipeline run");
        let last = seen.last().expect("at least one progress call");
        assert_eq!(last.records, recs.len() as u64);
        assert_eq!(last.open_candidates, Some(0), "all closed after finish");
    }

    #[test]
    fn progress_break_drains_gracefully() {
        // Cancel at the first poll, after the first batch: the engine must
        // still be flushed, the result marked interrupted, and the record
        // count must match what the engine actually consumed (one 7-record
        // chunk). The offline engines get the chunk through the default
        // one-range scan, the streaming engine through `feed`.
        struct Chunked<'a>(&'a [TraceRecord]);
        impl RecordSource for Chunked<'_> {
            fn for_each_batch(
                &mut self,
                f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
            ) -> Result<SourceSummary, PipelineError> {
                for chunk in self.0.chunks(7) {
                    f(chunk)?;
                }
                Ok(SourceSummary {
                    records: self.0.len() as u64,
                    skipped: 0,
                })
            }
        }
        let recs = looped_trace();
        let cfg = DetectorConfig::default();
        for engine in [
            &mut SerialEngine::new(cfg) as &mut dyn Engine,
            &mut BlockEngine::new(cfg, 2),
            &mut StreamingEngine::new(cfg),
        ] {
            let name = engine.name();
            let mut source = Chunked(&recs);
            let mut calls = 0u32;
            let result = run_pipeline_with_progress(&mut source, engine, &mut [], &mut |_| {
                calls += 1;
                if calls == 1 {
                    std::ops::ControlFlow::Break(())
                } else {
                    std::ops::ControlFlow::Continue(())
                }
            })
            .expect("interrupted run still returns a result");
            assert!(result.interrupted, "{name}");
            assert_eq!(
                result.records, 7,
                "{name}: engine consumed exactly one chunk"
            );
            assert_eq!(result.stats.total_records, 7, "{name}");
            assert_eq!(result.trace_end_ns, recs[6].timestamp_ns, "{name}");
        }
    }

    #[test]
    fn progress_break_over_a_noisy_pcap_reports_the_skips_so_far() {
        // Link noise before the first full batch and after it: cancelled
        // after that batch, the result counts the first skip and only it.
        let mut w = pcaplib::PcapWriter::new(Vec::new(), pcaplib::FileHeader::raw_ip(40)).unwrap();
        let chunk = crate::segment::CHUNK;
        for i in 0..3 * chunk {
            if i == 3 || i == 2 * chunk {
                w.write_bytes(i * 1_000, &[0xde, 0xad]).unwrap();
            }
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 2, 2, 2),
                Ipv4Addr::new(20, 0, (i % 5) as u8, 1),
                1000,
                80,
                TcpFlags::ACK,
                &b""[..],
            );
            p.ip.ident = i as u16;
            p.fill_checksums();
            w.write_bytes(i * 1_000, &p.emit()).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut source = PcapSource::new(std::io::Cursor::new(bytes)).unwrap();
        let mut engine = StreamingEngine::new(DetectorConfig::default());
        let result = run_pipeline_with_progress(&mut source, &mut engine, &mut [], &mut |_| {
            std::ops::ControlFlow::Break(())
        })
        .expect("interrupted run still returns a result");
        assert!(result.interrupted);
        assert_eq!(result.records, chunk, "one batch consumed");
        assert_eq!(result.skipped, 1, "skips before the break");
    }

    #[test]
    fn progress_break_over_a_segmented_noisy_pcap_detects_the_decoded_prefix() {
        // A non-IPv4 record before every thousandth packet, from the
        // fourth on. A break at the first poll, before the decode starts,
        // stops every worker after its first chunk: the first range is
        // the first incomplete one, so the run detects its first chunk
        // and counts the skips among it.
        const N: u64 = 60_000;
        let noise_before = |n: u64| (0..n).filter(|i| i % 1000 == 3).count() as u64;
        let mut w = pcaplib::PcapWriter::new(Vec::new(), pcaplib::FileHeader::raw_ip(40)).unwrap();
        let mut records = Vec::new();
        for i in 0..N {
            if i % 1000 == 3 {
                w.write_bytes(i * 1_000, &[0xde, 0xad]).unwrap();
            }
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 2, 2, 2),
                Ipv4Addr::new(20, 0, (i % 5) as u8, 1),
                1000,
                80,
                TcpFlags::ACK,
                &b""[..],
            );
            p.ip.ident = i as u16;
            p.fill_checksums();
            w.write_bytes(i * 1_000, &p.emit()).unwrap();
            records.push(TraceRecord::from_packet(i * 1_000, &p));
        }
        let path = std::env::temp_dir().join(format!(
            "loopscope_segmented_break_{}.pcap",
            std::process::id()
        ));
        std::fs::write(&path, w.finish().unwrap()).unwrap();
        for threads in [1, 2, 3] {
            let mut source = crate::segment::PcapFileSource::open(&path).unwrap();
            let mut engine = BlockEngine::new(DetectorConfig::default(), threads);
            let mut polls = Vec::new();
            let result = run_pipeline_with_progress(&mut source, &mut engine, &mut [], &mut |p| {
                polls.push(*p);
                ControlFlow::Break(())
            })
            .expect("interrupted run still returns a result");
            assert!(result.interrupted, "threads={threads}");
            assert_eq!(result.records, crate::segment::CHUNK, "threads={threads}");
            assert_eq!(
                result.skipped,
                noise_before(result.records),
                "threads={threads}"
            );
            assert_eq!(result.skipped, 5, "threads={threads}");
            assert_eq!(
                polls[0],
                EngineProgress {
                    records: 0,
                    open_candidates: None
                },
                "threads={threads}: polled before decoding"
            );
            let prefix = &records[..result.records as usize];
            let want = crate::Detector::new(DetectorConfig::default()).run(prefix);
            assert_eq!(result.stats, want.stats, "threads={threads}");
            assert_eq!(result.loops, want.loops, "threads={threads}");
            assert_eq!(result.trace_end_ns, prefix.last().unwrap().timestamp_ns);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_sinks_match_across_engines() {
        let recs = looped_trace();
        let mut outputs = Vec::new();
        for engine in [
            &mut SerialEngine::new(DetectorConfig::default()) as &mut dyn Engine,
            &mut BlockEngine::new(DetectorConfig::default(), 3),
            &mut StreamingEngine::new(DetectorConfig::default()),
        ] {
            let mut loops = LoopCsvSink::new(Vec::new(), 60_000_000_000);
            let mut streams = StreamCsvSink::new(Vec::new());
            let mut source = SliceSource::new(&recs);
            run_pipeline(
                &mut source,
                engine,
                &mut [&mut loops as &mut dyn Sink, &mut streams],
            )
            .expect("pipeline run");
            outputs.push((loops.into_inner(), streams.into_inner()));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        assert!(!outputs[0].0.is_empty());
    }

    #[test]
    fn jsonl_sink_emits_one_object_per_stream() {
        let recs = looped_trace();
        let mut sink = StreamJsonlSink::new(Vec::new());
        let mut source = SliceSource::new(&recs);
        let result = run_pipeline(
            &mut source,
            &mut SerialEngine::new(DetectorConfig::default()),
            &mut [&mut sink as &mut dyn Sink],
        )
        .expect("pipeline run");
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), result.streams.len());
        for line in text.lines() {
            assert!(line.starts_with("{\"dst\":\""));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn empty_source_yields_empty_result() {
        let mut source = SliceSource::new(&[]);
        let result = run_pipeline(
            &mut source,
            &mut SerialEngine::new(DetectorConfig::default()),
            &mut [],
        )
        .expect("pipeline run");
        assert_eq!(result.records, 0);
        assert!(result.streams.is_empty());
        assert_eq!(result.trace_start_ns, 0);
        assert_eq!(result.trace_end_ns, 0);
    }
}
