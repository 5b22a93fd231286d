//! Share-nothing block-parallel detection: the one offline driver of
//! steps 1–3. [`Detector::run`] and the serial engine are its one-range
//! case, which scans, validates and merges on the calling thread and
//! spawns nothing; more ranges fan out one worker each.
//!
//! **Records never move** between threads: a dispatcher that hands every
//! record to a worker costs more than the entire serial run
//! (EXPERIMENTS.md §P5/§P6). The time-sorted trace is split into `W`
//! contiguous ranges; each worker runs the full candidate scan on its own
//! range, and a cheap boundary-reconciliation pass stitches the per-range
//! results back into exactly the serial output. A range's worker is a
//! [`RangeScan`]: the source's reader thread decodes the range in
//! cache-sized chunks ([`crate::segment`]) and each chunk goes straight
//! through the order check, the step-1 scanner, the range's share of the
//! step-2 prefix index and the §V record fold, where it lies. A trace
//! already in memory is scanned the same way, one slice per worker
//! ([`BlockParallelDetector::run_segments`]).
//!
//! # Why block partitioning is sound
//!
//! Step 1 (candidate grouping) is decomposable **per replica key**: the
//! scanner's verdict for a sighting depends only on the previous sighting
//! of the *same key* (`check_continuation`: TTL monotonicity, checksum
//! consistency, and freshness — `gap <= max_replica_gap_ns`). Two
//! consecutive same-key sightings that land in different ranges fall into
//! one of two cases:
//!
//! * **Non-fresh** (gap beyond `max_replica_gap_ns`): the serial scanner
//!   would close the old candidate and open a new one — precisely what two
//!   independent range scans produce. No split is charged either way
//!   (`checksum_split` requires freshness), so counters agree too.
//! * **Fresh**: the range scans may disagree with serial. These are the
//!   *boundary-affected* keys, and they are detectable from the outside:
//!   the key must have a sighting within `max_replica_gap_ns` *before* the
//!   split point and another within `max_replica_gap_ns` *after* it.
//!
//! Reconciliation therefore computes, per range boundary, the set of
//! ingest-time fingerprints appearing in both the tail window `[T - gap,
//! T)` and the head window `[T, L + gap]` (where `T` is the first
//! timestamp at/after the split and `L` the last before it — windows are
//! taken over the whole trace, not just the adjacent ranges, so a key
//! spanning an entire quiet middle range is still caught). Every candidate
//! whose (normalised) fingerprint is in that *affected* set is discarded
//! from the per-range results and re-derived by one serial rescan of the
//! affected fingerprints' records, in global trace order with global
//! indices. Fingerprint collisions are harmless: the affected set is keyed
//! by fingerprint, so colliding keys are always rescanned (or kept)
//! together, and the rescan itself runs the exact scanner. Checksum-split
//! counts are reconciled the same way: per-range splits charged to
//! unaffected fingerprints are kept, splits from the rescan are added, and
//! splits charged to affected fingerprints are dropped with their
//! candidates.
//!
//! # Why reconciling over the kept records is exact
//!
//! A worker does not keep its range. It keeps what reconciliation reads:
//! every record whose replica key recurs within `max_replica_gap_ns` — an
//! earlier or later record of the range with the same key at most the gap
//! away — plus the range's head and tail windows, its records within the
//! gap of its first and of its last record. That is a few percent of a
//! trace: the looped sightings and two gaps of traffic per range. The
//! scanner finds the recurring records as it goes, at no cost on its
//! first-sighting path: a level-0 hit reports the record and the seed it
//! hit, a sighting of a key with an open candidate reports itself and
//! that candidate's first sighting (`ScanObserver::recurred`; a
//! fingerprint collision or a seed up to two gaps old reports more than
//! needed, which costs memory, not exactness). Whatever is still a lone
//! sighting at the range's end completes the tail window.
//!
//! * The affected set is exact: a boundary's head and tail windows lie
//!   inside the head and tail windows of the ranges around it. `[T, L +
//!   gap]` starts at the next range's first record and ends no later than
//!   the gap after it; when that range is shorter than the gap, the window
//!   runs on through the next range's head window, and so on. `[T - gap,
//!   T)` is the mirror image over tail windows.
//! * The rescan is exact: a record whose key has no other record within
//!   the gap on either side is *isolated*, and the scan of its key is the
//!   same with or without it. Its previous sighting is more than the gap
//!   before it, so its arrival can only close the key's candidate as stale
//!   — the next sighting, more than the gap after it, would have done that
//!   too, and the close order is re-sorted away — and open a candidate of
//!   one sighting, which the next sighting closes as stale again. A
//!   one-sighting candidate reaches neither the candidate list nor the
//!   split count (a split needs a fresh sighting). So the rescan of the
//!   kept records of an affected fingerprint finds exactly the candidates
//!   and splits the rescan of all its records would. Near a range edge,
//!   where a record's neighbours may lie in the next range, the head and
//!   tail windows keep it whatever its neighbours.
//!
//! Steps 2–3 are keyed no coarser than the destination /24: step 2's
//! co-loop rule consults only packets to the candidate's own /24 (whose
//! looped flags come from candidates to that same /24), and step 3 merges
//! streams with identical prefixes, checking only packets to that prefix.
//! So the reconciled candidate list is partitioned by [`shard_of`] and
//! validated/merged by `W` workers sharing the *global* looped flags and
//! prefix index (neither step reads a record; each range's index part is
//! queried where the range's worker built it) — again, no record
//! movement. The final stitch re-sorts with the serial pipeline's
//! canonical orderings (`(start, ident, first_index)` for streams,
//! `(prefix, start)` for loops), which are total orders, so output is
//! byte-identical at every worker count. `W = 1` is not a special case:
//! it is the same code with one range, nothing to reconcile and the
//! workers' work done inline, so every worker count publishes the same
//! metric names and reports an unsorted trace in the same words.

use crate::analysis::RecordFold;
use crate::config::DetectorConfig;
use crate::fxhash::FxHashSet;
use crate::key::ReplicaKey;
use crate::merge::{self, RoutingLoop};
use crate::monitor::OutOfOrder;
use crate::record::TraceRecord;
use crate::replica::{
    normalise_fp, publish_checksum_splits, publish_prefilter, publish_scan_totals,
    CandidateScanner, DetectionResult, DetectionStats, ScanCounters, ScanObserver,
};
use crate::segment::RangeConsumer;
use crate::stream::ReplicaStream;
use crate::validate::{self, IndexPartial, PrefixIndex};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::tm_info;

#[cfg(doc)]
use crate::replica::Detector;

/// Starts a fresh [`RangeScan`] for one range; a source's range worker
/// calls it on its own thread.
pub type ScanStart<'a> = dyn Fn() -> RangeScan + Sync + 'a;

/// A record a range worker keeps for reconciliation, with its index.
#[derive(Debug, Clone, Copy)]
struct Kept {
    /// The record's index: in its range while the worker scans, in the
    /// trace once reconciliation starts.
    idx: usize,
    rec: TraceRecord,
}

/// Keeps every record the scanner reports as recurring (see the module
/// docs): the record being pushed in order, earlier ones — reported when
/// a later sighting arrives — apart.
struct KeepRecurring<'a> {
    /// The end of the range's head window, kept whole.
    head_end: u64,
    current: usize,
    kept: &'a mut Vec<Kept>,
    earlier: &'a mut Vec<Kept>,
}

/// What a range scan keeps of each record besides what the scanner
/// reports.
trait Keep: ScanObserver {
    /// Takes record `idx` just before the scanner does.
    fn next(&mut self, idx: usize, rec: &TraceRecord);
}

/// Keeps nothing: the trace's only range.
impl Keep for () {
    #[inline]
    fn next(&mut self, _idx: usize, _rec: &TraceRecord) {}
}

impl Keep for KeepRecurring<'_> {
    #[inline]
    fn next(&mut self, idx: usize, rec: &TraceRecord) {
        self.current = idx;
        if rec.timestamp_ns <= self.head_end {
            self.kept.push(Kept { idx, rec: *rec });
        }
    }
}

impl ScanObserver for KeepRecurring<'_> {
    #[inline]
    fn recurred(&mut self, idx: usize, rec: &TraceRecord) {
        let kept = Kept { idx, rec: *rec };
        if idx != self.current {
            self.earlier.push(kept);
        } else if self.kept.last().is_none_or(|k| k.idx != idx) {
            self.kept.push(kept);
        }
    }
}

/// Pushes `chunk`, whose first record is record `first` of the range, to
/// `scanner` until the first record earlier than the one before it (the
/// one before the chunk at `last_ns`), keeping what `keep` keeps. Returns
/// the records pushed and the last one's time.
#[inline]
fn scan_chunk<K: Keep>(
    scanner: &mut CandidateScanner,
    chunk: &[TraceRecord],
    first: usize,
    mut last_ns: u64,
    keep: &mut K,
) -> (usize, u64) {
    for (off, rec) in chunk.iter().enumerate() {
        if rec.timestamp_ns < last_ns {
            return (off, last_ns);
        }
        last_ns = rec.timestamp_ns;
        keep.next(first + off, rec);
        scanner.push_observed(first + off, rec, keep);
    }
    (chunk.len(), last_ns)
}

/// The records of two lists sorted by index, in index order, each once.
fn merge_kept(a: Vec<Kept>, b: Vec<Kept>) -> Vec<Kept> {
    let mut out: Vec<Kept> = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.idx < x.idx => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        };
        let Some(k) = next else {
            return out;
        };
        if out.last().is_none_or(|last| last.idx != k.idx) {
            out.push(k);
        }
    }
}

/// One range's worker: the order check, the step-1 scan, the range's share
/// of the step-2 prefix index, the §V record fold and the records kept for
/// reconciliation, fed chunk by chunk in trace order. Record indices are
/// counted from the range's first record; the block core adds the range's
/// place in the trace once every range has been read. Publishes its
/// timers as it ends and its counters only when the block core takes the
/// range into the trace: a pcap range whose start a split guess got wrong
/// is dropped unpublished.
pub struct RangeScan {
    scanner: Option<CandidateScanner>,
    gap: u64,
    /// Whether the range keeps records for reconciliation: not when it is
    /// the trace's only range, which has no boundary to reconcile.
    keeps: bool,
    index: IndexPartial,
    fold: Option<RecordFold>,
    /// The reader's decode buffer, reused chunk after chunk.
    chunk: Vec<TraceRecord>,
    records: usize,
    first_ns: Option<u64>,
    last_ns: u64,
    /// The first record earlier than the one before it, numbered in the
    /// range; the scan stops there.
    out_of_order: Option<OutOfOrder>,
    candidates: Vec<ReplicaStream>,
    split_fps: Vec<u64>,
    counters: ScanCounters,
    /// The records reconciliation may read (see the module docs): while
    /// the range is read, the head window and the records the scanner
    /// reports recurring as they are pushed, in range order; after
    /// [`Self::end`], all of them with the tail window, in range order.
    kept: Vec<Kept>,
    /// Records the scanner reports recurring after they were pushed.
    earlier: Vec<Kept>,
    started: Instant,
    scan_ns: u64,
    index_ns: u64,
    busy_ns: u64,
    span: Option<telemetry::Span>,
}

impl RangeScan {
    /// A worker for one range, folding its records when `fold` is set.
    pub(crate) fn new(cfg: DetectorConfig, fold: bool) -> Self {
        Self {
            scanner: Some(CandidateScanner::new(cfg)),
            gap: cfg.max_replica_gap_ns,
            keeps: true,
            index: IndexPartial::default(),
            fold: fold.then(RecordFold::default),
            chunk: Vec::new(),
            records: 0,
            first_ns: None,
            last_ns: 0,
            out_of_order: None,
            candidates: Vec::new(),
            split_fps: Vec::new(),
            counters: ScanCounters::default(),
            kept: Vec::new(),
            earlier: Vec::new(),
            started: Instant::now(),
            scan_ns: 0,
            index_ns: 0,
            busy_ns: 0,
            span: Some(telemetry::span("block.scan")),
        }
    }

    /// The same worker for one of `ranges` ranges of the trace. The only
    /// range keeps no records: there is nothing to reconcile.
    pub(crate) fn for_ranges(mut self, ranges: usize) -> Self {
        self.keeps = ranges > 1;
        self
    }

    /// Takes the range's next records, in place. Breaks (and takes no
    /// more) at the first record earlier than the one before it.
    pub(crate) fn push(&mut self, chunk: &[TraceRecord]) -> ControlFlow<()> {
        let Some(scanner) = self.scanner.as_mut() else {
            return ControlFlow::Break(());
        };
        if self.out_of_order.is_some() {
            return ControlFlow::Break(());
        }
        let started = Instant::now();
        let first = self.records;
        let Some(head) = chunk.first() else {
            return ControlFlow::Continue(());
        };
        let head_end = self
            .first_ns
            .get_or_insert(head.timestamp_ns)
            .saturating_add(self.gap);
        let (taken, last_ns) = if self.keeps {
            let mut keep = KeepRecurring {
                head_end,
                current: 0,
                kept: &mut self.kept,
                earlier: &mut self.earlier,
            };
            scan_chunk(scanner, chunk, first, self.last_ns, &mut keep)
        } else {
            scan_chunk(scanner, chunk, first, self.last_ns, &mut ())
        };
        if taken < chunk.len() {
            self.out_of_order = Some(OutOfOrder {
                record: (first + taken) as u64,
                timestamp_ns: chunk[taken].timestamp_ns,
                previous_ns: last_ns,
            });
        }
        self.last_ns = last_ns;
        let chunk = &chunk[..taken];
        let scanned = Instant::now();
        PrefixIndex::extend_range(&mut self.index, chunk, first);
        self.index_ns += scanned.elapsed().as_nanos() as u64;
        self.scan_ns += (scanned - started).as_nanos() as u64;
        if let Some(fold) = &mut self.fold {
            fold.add_all(chunk);
        }
        self.records += taken;
        if self.out_of_order.is_some() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Closes the range: finishes the scan and the kept set, and records
    /// the range's timers. Idempotent.
    pub(crate) fn end(&mut self) {
        let Some(scanner) = self.scanner.take() else {
            return;
        };
        let started = Instant::now();
        if self.keeps {
            // The tail window: what was not reported recurring is still a
            // lone sighting there.
            let tail = self.last_ns.saturating_sub(self.gap);
            let mut earlier = std::mem::take(&mut self.earlier);
            earlier.extend(
                scanner
                    .lone_sightings_since(tail)
                    .map(|(idx, &rec)| Kept { idx, rec }),
            );
            earlier.sort_unstable_by_key(|k| k.idx);
            self.kept = merge_kept(std::mem::take(&mut self.kept), earlier);
        }
        (self.candidates, self.counters, self.split_fps) = scanner.finish_with_splits();
        self.scan_ns += started.elapsed().as_nanos() as u64;
        self.busy_ns = self.started.elapsed().as_nanos() as u64;
        telemetry::global()
            .timer("replica.detect")
            .record(self.scan_ns);
        self.span = None;
    }

    /// Whether the scan refused a record earlier than the one before it.
    pub(crate) fn refused(&self) -> bool {
        self.out_of_order.is_some()
    }

    /// Records taken so far.
    pub(crate) fn records(&self) -> u64 {
        self.records as u64
    }

    /// The first record's timestamp (`None` before any record).
    pub(crate) fn first_ns(&self) -> Option<u64> {
        self.first_ns
    }

    /// The last record's timestamp (0 before any record).
    pub(crate) fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// The range's record fold, when it folds.
    pub(crate) fn fold(&self) -> Option<&RecordFold> {
        self.fold.as_ref()
    }

    /// Publishes the range's counters and per-worker metrics as worker `w`.
    fn publish(&self, w: usize) {
        let reg = telemetry::global();
        publish_scan_totals(self.records, &self.counters);
        publish_prefilter(&self.counters);
        reg.counter(block_metric(w, "records"))
            .add(self.records as u64);
        reg.counter(block_metric(w, "kept"))
            .add(self.kept.len() as u64);
        reg.timer(block_metric(w, "scan")).record(self.scan_ns);
        reg.timer(block_metric(w, "index")).record(self.index_ns);
        reg.timer(block_metric(w, "busy")).record(self.busy_ns);
    }
}

impl RangeConsumer for RangeScan {
    fn chunk_buffer(&mut self) -> &mut Vec<TraceRecord> {
        &mut self.chunk
    }

    fn take_chunk(&mut self) -> ControlFlow<()> {
        let mut chunk = std::mem::take(&mut self.chunk);
        let flow = self.push(&chunk);
        chunk.clear();
        self.chunk = chunk;
        flow
    }

    fn end(&mut self) {
        RangeScan::end(self);
        self.chunk = Vec::new();
    }
}

/// One worker's share of the step-2/3 validate+merge.
struct FinishPartial {
    streams: Vec<ReplicaStream>,
    loops: Vec<RoutingLoop>,
    rejected_short: u64,
    rejected_covalidation: u64,
}

/// The share-nothing block-parallel detector: the one offline steps 1–3
/// core. [`Detector::run`] is its one-range case.
#[derive(Debug, Clone)]
pub struct BlockParallelDetector {
    cfg: DetectorConfig,
    threads: usize,
}

impl BlockParallelDetector {
    /// Creates a detector fanning out over `threads` workers.
    ///
    /// # Panics
    /// Panics on an invalid configuration or `threads == 0`.
    pub fn new(cfg: DetectorConfig, threads: usize) -> Self {
        cfg.validate().expect("invalid detector configuration");
        assert!(threads > 0, "thread count must be positive");
        Self { cfg, threads }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the full pipeline on a time-sorted trace, splitting it into
    /// (up to) `threads` even record ranges.
    ///
    /// # Panics
    /// Panics when records are not sorted by timestamp.
    pub fn run(&self, records: &[TraceRecord]) -> DetectionResult {
        self.run_segments(&even_slices(records, self.threads))
    }

    /// [`Self::run`] with explicit interior split points (record indices,
    /// each in `(0, len)`). Exposed so tests can torture arbitrary — in
    /// particular adversarial — boundaries; output is byte-identical to
    /// serial for *any* choice of split points.
    ///
    /// # Panics
    /// Panics when records are not sorted by timestamp.
    pub fn run_with_splits(&self, records: &[TraceRecord], splits: &[usize]) -> DetectionResult {
        let mut splits: Vec<usize> = splits
            .iter()
            .copied()
            .filter(|&s| s > 0 && s < records.len())
            .collect();
        splits.sort_unstable();
        splits.dedup();
        let segments: Vec<&[TraceRecord]> = range_bounds(records.len(), &splits)
            .into_iter()
            .map(|(lo, hi)| &records[lo..hi])
            .collect();
        self.run_segments(&segments)
    }

    /// Runs the full pipeline on a time-sorted trace given as trace-ordered
    /// slices, one worker per slice scanning it where it lies (one slice
    /// runs on the calling thread and spawns nothing).
    ///
    /// # Panics
    /// Panics when records are not sorted by timestamp, naming the first
    /// record that is earlier than the one before it.
    pub fn run_segments(&self, segments: &[&[TraceRecord]]) -> DetectionResult {
        let cfg = self.cfg;
        let ranges = scan_slices(segments, &|| {
            RangeScan::new(cfg, false).for_ranges(segments.len())
        });
        self.detect_ranges(ranges)
            .unwrap_or_else(|err| panic!("trace records must be sorted by timestamp: {err}"))
    }

    /// Steps 1–3 over a trace read as trace-ordered ranges (see
    /// [`crate::segment`]): the order check across range ends, then
    /// reconciliation, validation and merging. Fails with the first record
    /// in trace order that is earlier than the one before it.
    pub(crate) fn detect_ranges(
        &self,
        mut ranges: Vec<RangeScan>,
    ) -> Result<DetectionResult, OutOfOrder> {
        for range in &mut ranges {
            range.end();
        }
        assert!(
            ranges.len() < 2 || ranges.iter().all(|r| r.keeps),
            "a range that keeps no records is the trace's only range"
        );
        check_order(&ranges)?;
        ranges.retain(|r| r.records > 0);
        let mut bases = Vec::with_capacity(ranges.len());
        let mut total = 0;
        for range in &ranges {
            bases.push(total);
            total += range.records;
        }
        let workers = ranges.len().max(1);
        telemetry::global()
            .gauge("block.workers")
            .set(workers as i64);
        for (w, range) in ranges.iter().enumerate() {
            range.publish(w);
        }

        // Boundary reconciliation: find fingerprints whose serial
        // candidates could differ from the per-range ones, rescan exactly
        // those keys' kept records serially, and splice.
        let (candidates, checksum_splits) = {
            let _t = telemetry::span("block.reconcile");
            self.reconcile(&mut ranges, &bases)
        };
        publish_checksum_splits(checksum_splits);

        let mut stats = DetectionStats {
            total_records: total as u64,
            raw_candidates: candidates.len() as u64,
            checksum_splits,
            ..Default::default()
        };

        let looped_flags = validate::looped_flags(total, &candidates);
        let index = PrefixIndex::from_partials(
            ranges
                .iter_mut()
                .zip(&bases)
                .map(|(range, &base)| (base, std::mem::take(&mut range.index)))
                .collect(),
        );
        drop(ranges);

        // Phase B: validate + merge, partitioned by destination /24.
        let finishers = self.threads.min(total).max(1);
        let finished = self.finish_candidates(candidates, &looped_flags, &index, finishers);

        // Stitch: canonical serial orderings over the concatenation.
        let (streams, loops) = {
            let _t = telemetry::span("block.stitch");
            let mut streams = Vec::new();
            let mut loops = Vec::new();
            for part in finished {
                stats.rejected_short += part.rejected_short;
                stats.rejected_covalidation += part.rejected_covalidation;
                streams.extend(part.streams);
                loops.extend(part.loops);
            }
            streams.sort_by_key(|s| (s.start_ns(), s.key.ident, s.record_indices[0]));
            loops.sort_by_key(|l| (l.prefix, l.start_ns));
            (streams, loops)
        };
        stats.validated_streams = streams.len() as u64;
        stats.looped_sightings = streams.iter().map(|s| s.len() as u64).sum();
        stats.routing_loops = loops.len() as u64;
        tm_info!(
            "detection complete: {} records over {} workers, {} validated streams, {} routing loops",
            stats.total_records,
            workers,
            stats.validated_streams,
            stats.routing_loops
        );

        Ok(DetectionResult {
            streams,
            loops,
            looped_flags,
            stats,
        })
    }

    /// Boundary reconciliation (see module docs) over the ranges' kept
    /// records, after moving every index the ranges hold into the trace's
    /// numbering: returns the exact serial candidate list (sorted
    /// `(start, first_index)`) and checksum-split count.
    fn reconcile(&self, ranges: &mut [RangeScan], bases: &[usize]) -> (Vec<ReplicaStream>, u64) {
        for (range, &base) in ranges.iter_mut().zip(bases) {
            for k in &mut range.kept {
                k.idx += base;
            }
            for idx in range
                .candidates
                .iter_mut()
                .flat_map(|c| &mut c.record_indices)
            {
                *idx += base;
            }
        }
        let kept: Vec<&[Kept]> = ranges.iter().map(|r| &r.kept[..]).collect();
        let affected = affected_fingerprints(&kept, self.cfg.max_replica_gap_ns);

        // Rescan every kept record of an affected fingerprint, serially,
        // in global order. The affected set is tiny next to the trace (a
        // handful of keys per boundary), so this is one cheap filtered
        // pass over the kept records.
        let mut rescan_candidates = Vec::new();
        let mut rescan_splits = 0u64;
        if !affected.is_empty() {
            let mut scanner = CandidateScanner::with_capacity(self.cfg, affected.len());
            for k in kept.iter().flat_map(|part| part.iter()) {
                if affected.contains(&normalise_fp(k.rec.fingerprint)) {
                    scanner.push(k.idx, &k.rec);
                }
            }
            let (c, counters, _fps) = scanner.finish_with_splits();
            rescan_candidates = c;
            rescan_splits = counters.checksum_splits;
        }

        let mut candidates = Vec::new();
        let mut checksum_splits = rescan_splits;
        for range in ranges {
            checksum_splits += range
                .split_fps
                .iter()
                .filter(|fp| !affected.contains(fp))
                .count() as u64;
            candidates.extend(
                std::mem::take(&mut range.candidates)
                    .into_iter()
                    .filter(|c| !affected.contains(&normalise_fp(c.key.fingerprint()))),
            );
        }
        candidates.extend(rescan_candidates);
        // The serial scanner's close order re-sorted by (start, first
        // index): first indices are unique per candidate, so this is a
        // total order and concatenation order cannot leak through.
        candidates.sort_by_key(|s| (s.start_ns(), s.record_indices[0]));
        (candidates, checksum_splits)
    }

    /// Phase B: validate + merge over `workers` destination-/24 groups.
    /// Workers share the looped flags and prefix index — candidates are
    /// the only thing partitioned. Neither step reads a record: the index
    /// holds what they need.
    fn finish_candidates(
        &self,
        candidates: Vec<ReplicaStream>,
        looped_flags: &[bool],
        index: &PrefixIndex,
        workers: usize,
    ) -> Vec<FinishPartial> {
        let mut groups: Vec<Vec<ReplicaStream>> = (0..workers).map(|_| Vec::new()).collect();
        for cand in candidates {
            let w = shard_of(&cand.key, workers);
            groups[w].push(cand);
        }
        let cfg = self.cfg;
        fan_out(groups, |w, group| {
            let started = Instant::now();
            let mut stats = DetectionStats::default();
            let streams = {
                let _agg = telemetry::span("validate");
                validate::validate(&[], group, looped_flags, index, &cfg, &mut stats)
            };
            telemetry::global()
                .timer(block_metric(w, "validate"))
                .record(started.elapsed().as_nanos() as u64);
            let merge_started = Instant::now();
            let loops = {
                let _agg = telemetry::span("merge");
                merge::merge(&[], &streams, looped_flags, index, &cfg)
            };
            telemetry::global()
                .timer(block_metric(w, "merge"))
                .record(merge_started.elapsed().as_nanos() as u64);
            telemetry::global()
                .timer(block_metric(w, "busy"))
                .record(started.elapsed().as_nanos() as u64);
            FinishPartial {
                streams,
                loops,
                rejected_short: stats.rejected_short,
                rejected_covalidation: stats.rejected_covalidation,
            }
        })
    }
}

/// The first record of the ranges, in trace order, that is earlier than
/// the record before it — which may be the last record of an earlier
/// range — numbered in the trace.
fn check_order(ranges: &[RangeScan]) -> Result<(), OutOfOrder> {
    let mut base = 0u64;
    let mut previous_ns = None;
    for range in ranges {
        if let (Some(previous_ns), Some(first_ns)) = (previous_ns, range.first_ns) {
            if first_ns < previous_ns {
                return Err(OutOfOrder {
                    record: base,
                    timestamp_ns: first_ns,
                    previous_ns,
                });
            }
        }
        if let Some(err) = range.out_of_order {
            return Err(OutOfOrder {
                record: base + err.record,
                ..err
            });
        }
        if range.records > 0 {
            previous_ns = Some(range.last_ns);
        }
        base += range.records as u64;
    }
    Ok(())
}

/// Scans each slice where it lies with a scan from `start`, one worker
/// per slice (on the calling thread when there is one), and returns the
/// ended scans in order.
pub(crate) fn scan_slices(slices: &[&[TraceRecord]], start: &ScanStart<'_>) -> Vec<RangeScan> {
    fan_out(slices.to_vec(), |_, slice| {
        let mut scan = start();
        let _ = scan.push(slice);
        scan.end();
        scan
    })
}

/// Runs `work(w, input)` for each input in order and returns the results
/// in order: on the calling thread when there is one input, otherwise on
/// one scoped thread per input, named `block-w<w>`.
///
/// # Panics
/// Panics when a worker panics.
fn fan_out<I: Send, T: Send>(inputs: Vec<I>, work: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(|input| work(0, input)).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(w, input)| {
                let work = &work;
                std::thread::Builder::new()
                    .name(format!("block-w{w}"))
                    .spawn_scoped(scope, move || work(w, input))
                    .expect("spawn block worker")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("block worker panicked"))
            .collect()
    })
}

/// Evenly spaced interior split points for `len` records over `threads`
/// ranges (fewer when the trace is shorter than the thread count).
pub fn even_splits(len: usize, threads: usize) -> Vec<usize> {
    let workers = threads.max(1).min(len.max(1));
    let chunk = len.div_ceil(workers);
    (1..workers)
        .map(|w| w * chunk)
        .filter(|&s| s > 0 && s < len)
        .collect()
}

/// `records` cut into (up to) `parts` even slices.
pub(crate) fn even_slices(records: &[TraceRecord], parts: usize) -> Vec<&[TraceRecord]> {
    range_bounds(records.len(), &even_splits(records.len(), parts))
        .into_iter()
        .map(|(lo, hi)| &records[lo..hi])
        .collect()
}

/// Stable worker assignment for a replica key: FNV-1a over the key's
/// destination /24, reduced modulo `shards`.
///
/// The hash is a fixed arithmetic function of the address bytes — no
/// per-process seed, no `RandomState` — so the same key lands on the same
/// worker in every run, on every platform, for the life of the format.
pub fn shard_of(key: &ReplicaKey, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    // FNV-1a, 64-bit, over the /24 network bytes (the host byte is
    // masked off so the whole prefix co-locates).
    let net = u32::from(key.dst) & 0xffff_ff00;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in net.to_be_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// `[lo, hi)` range per worker for the given interior split points.
fn range_bounds(len: usize, splits: &[usize]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::with_capacity(splits.len() + 1);
    let mut lo = 0;
    for &s in splits {
        bounds.push((lo, s));
        lo = s;
    }
    bounds.push((lo, len));
    bounds
}

/// The normalised fingerprints whose candidates may differ between the
/// per-range scans and the serial scan: keys with a sighting within
/// `gap_ns` on *both* sides of some range boundary (see module docs).
/// `ranges` are the non-empty ranges' kept records, in trace order; each
/// holds its range's first and last record.
fn affected_fingerprints(ranges: &[&[Kept]], gap_ns: u64) -> FxHashSet<u64> {
    let mut affected = FxHashSet::default();
    for w in 1..ranges.len() {
        let t_right = ranges[w][0].rec.timestamp_ns;
        let l_left = ranges[w - 1][ranges[w - 1].len() - 1].rec.timestamp_ns;
        // Tail window over the whole trace before the boundary (a key can
        // span an entire quiet middle range), head window over the whole
        // trace after it; both may cross several ranges.
        let tail_fps: FxHashSet<u64> = ranges[..w]
            .iter()
            .rev()
            .flat_map(|range| range.iter().rev())
            .take_while(|k| k.rec.timestamp_ns >= t_right.saturating_sub(gap_ns))
            .map(|k| normalise_fp(k.rec.fingerprint))
            .collect();
        for k in ranges[w..]
            .iter()
            .flat_map(|range| range.iter())
            .take_while(|k| k.rec.timestamp_ns <= l_left.saturating_add(gap_ns))
        {
            let fp = normalise_fp(k.rec.fingerprint);
            if tail_fps.contains(&fp) {
                affected.insert(fp);
            }
        }
    }
    affected
}

/// Builds a compile-time table of `block.w<i>.<field>` names for one
/// field across the prebuilt worker indices.
macro_rules! block_name_table {
    ($field:literal; $($n:literal),* $(,)?) => {
        [$(concat!("block.w", $n, ".", $field)),*]
    };
}

/// Worker indices with compile-time metric names; higher counts fall back
/// to the (cold, locked) interner.
const PREBUILT_WORKERS: usize = 32;

static BLOCK_RECORDS: [&str; PREBUILT_WORKERS] = block_name_table!("records";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static BLOCK_SCAN: [&str; PREBUILT_WORKERS] = block_name_table!("scan";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static BLOCK_INDEX: [&str; PREBUILT_WORKERS] = block_name_table!("index";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static BLOCK_VALIDATE: [&str; PREBUILT_WORKERS] = block_name_table!("validate";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static BLOCK_MERGE: [&str; PREBUILT_WORKERS] = block_name_table!("merge";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static BLOCK_KEPT: [&str; PREBUILT_WORKERS] = block_name_table!("kept";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static BLOCK_BUSY: [&str; PREBUILT_WORKERS] = block_name_table!("busy";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);

/// Resolves the `block.w<i>.<field>` metric name (compile-time literal on
/// the common path, bounded leaking interner otherwise). Public so the
/// bench harness can read the same per-worker timers it writes.
pub fn block_metric(worker: usize, field: &str) -> &'static str {
    if worker < PREBUILT_WORKERS {
        match field {
            "records" => return BLOCK_RECORDS[worker],
            "scan" => return BLOCK_SCAN[worker],
            "index" => return BLOCK_INDEX[worker],
            "validate" => return BLOCK_VALIDATE[worker],
            "merge" => return BLOCK_MERGE[worker],
            "kept" => return BLOCK_KEPT[worker],
            "busy" => return BLOCK_BUSY[worker],
            _ => {}
        }
    }
    intern_block_metric(worker, field)
}

/// Cold path of [`block_metric`]: formats, interns, and leaks the name.
fn intern_block_metric(worker: usize, field: &str) -> &'static str {
    static INTERNED: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = INTERNED.lock().expect("intern table poisoned");
    let name = format!("block.w{worker}.{field}");
    if let Some(s) = map.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Detector;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    fn looping_records(
        start_ns: u64,
        spacing_ns: u64,
        first_ttl: u8,
        n: usize,
        ident: u16,
        dst: Ipv4Addr,
    ) -> Vec<TraceRecord> {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 7, 7, 7),
            dst,
            5555,
            80,
            TcpFlags::ACK,
            &b""[..],
        );
        p.ip.ident = ident;
        (0..n)
            .map(|i| {
                p.ip.ttl = first_ttl - i as u8;
                p.fill_checksums();
                TraceRecord::from_packet(start_ns + i as u64 * spacing_ns, &p)
            })
            .collect()
    }

    fn assert_identical(records: &[TraceRecord], splits: &[usize]) {
        let cfg = DetectorConfig::default();
        let serial = Detector::new(cfg).run(records);
        let block =
            BlockParallelDetector::new(cfg, splits.len() + 1).run_with_splits(records, splits);
        assert_eq!(
            serial.streams, block.streams,
            "streams diverge at splits {splits:?}"
        );
        assert_eq!(
            serial.loops, block.loops,
            "loops diverge at splits {splits:?}"
        );
        assert_eq!(serial.looped_flags, block.looped_flags);
        assert_eq!(
            serial.stats, block.stats,
            "stats diverge at splits {splits:?}"
        );
    }

    /// The replica key of one record to `dst`.
    fn key_to(dst: Ipv4Addr) -> ReplicaKey {
        ReplicaKey::of(&looping_records(0, 1_000, 60, 1, 7, dst)[0])
    }

    #[test]
    fn shard_key_is_stable_across_reruns() {
        // The assignment is pure arithmetic on the address bytes: repeated
        // evaluation, fresh detectors, and fresh processes all agree. The
        // pinned values double as a cross-process regression anchor — they
        // may only change with an intentional format bump.
        let key = key_to(Ipv4Addr::new(203, 0, 113, 9));
        for _ in 0..100 {
            assert_eq!(shard_of(&key, 8), 7);
        }
        // Pinned FNV-1a outputs for known prefixes.
        assert_eq!(shard_of(&key_to(Ipv4Addr::new(198, 51, 100, 25)), 8), 2);
        assert_eq!(shard_of(&key_to(Ipv4Addr::new(10, 0, 0, 1)), 4), 3);
    }

    #[test]
    fn whole_slash24_shares_a_shard() {
        for shards in [2usize, 3, 4, 8, 16] {
            let a = shard_of(&key_to(Ipv4Addr::new(203, 0, 113, 1)), shards);
            for host in [2u8, 9, 77, 255] {
                assert_eq!(
                    shard_of(&key_to(Ipv4Addr::new(203, 0, 113, host)), shards),
                    a,
                    "host byte must not affect the shard ({shards} shards)"
                );
            }
        }
    }

    #[test]
    fn shards_spread_prefixes() {
        // 256 distinct /24s over 8 shards: every shard sees some traffic.
        let mut seen = vec![false; 8];
        for third in 0..=255u8 {
            seen[shard_of(&key_to(Ipv4Addr::new(10, 1, third, 1)), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard got nothing: {seen:?}");
    }

    #[test]
    fn even_splits_cover_edge_cases() {
        assert!(even_splits(0, 4).is_empty());
        assert!(even_splits(1, 8).is_empty());
        assert_eq!(even_splits(100, 1), Vec::<usize>::new());
        assert_eq!(even_splits(100, 4), vec![25, 50, 75]);
        // More threads than records: one record per worker, no dupes.
        assert_eq!(even_splits(3, 8), vec![1, 2]);
    }

    #[test]
    fn split_through_the_middle_of_a_stream_is_reconciled() {
        let dst = Ipv4Addr::new(203, 0, 113, 9);
        let records = looping_records(1_000, 40_000_000, 60, 8, 77, dst);
        for s in 1..records.len() {
            assert_identical(&records, &[s]);
        }
    }

    #[test]
    fn every_record_its_own_range() {
        let mut records =
            looping_records(1_000, 40_000_000, 60, 6, 1, Ipv4Addr::new(203, 0, 113, 9));
        records.extend(looping_records(
            2_000,
            50_000_000,
            50,
            5,
            2,
            Ipv4Addr::new(198, 51, 100, 3),
        ));
        records.sort_by_key(|r| r.timestamp_ns);
        let splits: Vec<usize> = (1..records.len()).collect();
        assert_identical(&records, &splits);
    }

    #[test]
    fn non_fresh_boundary_needs_no_rescan() {
        let dst = Ipv4Addr::new(203, 0, 113, 9);
        let mut records = looping_records(1_000, 40_000_000, 60, 4, 5, dst);
        // Second burst of the same key far beyond the replica gap.
        let resume = records.last().unwrap().timestamp_ns + 10_000_000_000;
        records.extend(looping_records(resume, 40_000_000, 58, 4, 5, dst));
        let kept = |range: &[TraceRecord]| -> Vec<Kept> {
            (0..)
                .zip(range)
                .map(|(idx, &rec)| Kept { idx, rec })
                .collect()
        };
        let affected = affected_fingerprints(
            &[&kept(&records[..4]), &kept(&records[4..])],
            DetectorConfig::default().max_replica_gap_ns,
        );
        assert!(
            affected.is_empty(),
            "non-fresh boundary must not mark keys affected"
        );
        assert_identical(&records, &[4]);
    }

    #[test]
    fn key_spanning_a_whole_middle_range_is_caught() {
        let dst = Ipv4Addr::new(203, 0, 113, 9);
        // Key A brackets a quiet middle range filled by key B only.
        let mut records = looping_records(1_000, 900_000_000, 60, 4, 9, dst);
        records.extend(looping_records(
            1_100,
            10_000,
            50,
            6,
            10,
            Ipv4Addr::new(198, 51, 100, 3),
        ));
        records.sort_by_key(|r| r.timestamp_ns);
        // Splits isolating the B-burst into its own middle range.
        assert_identical(&records, &[2, 7]);
    }

    /// Two sorted halves whose concatenation steps back in time exactly at
    /// record `at`.
    fn step_back_at(at: usize) -> Vec<TraceRecord> {
        let dst = Ipv4Addr::new(203, 0, 113, 9);
        let mut records = looping_records(5_000_000_000, 40_000_000, 60, at, 1, dst);
        records.extend(looping_records(1_000, 40_000_000, 60, 4, 2, dst));
        records
    }

    #[test]
    #[should_panic(
        expected = "trace records must be sorted by timestamp: record 4 at 1000 ns is earlier than the record before it at 5120000000 ns"
    )]
    fn unsorted_inside_a_range_panics() {
        BlockParallelDetector::new(DetectorConfig::default(), 2)
            .run_with_splits(&step_back_at(4), &[2]);
    }

    #[test]
    #[should_panic(
        expected = "trace records must be sorted by timestamp: record 4 at 1000 ns is earlier than the record before it at 5120000000 ns"
    )]
    fn unsorted_across_a_split_panics() {
        // Each range is sorted on its own; only the step from the record
        // before the split into the range is out of order.
        BlockParallelDetector::new(DetectorConfig::default(), 2)
            .run_with_splits(&step_back_at(4), &[4]);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        BlockParallelDetector::new(DetectorConfig::default(), 0);
    }

    #[test]
    fn empty_and_single_record_traces() {
        assert_identical(&[], &[]);
        let one = looping_records(1_000, 1, 60, 1, 3, Ipv4Addr::new(203, 0, 113, 9));
        assert_identical(&one, &[]);
    }

    #[test]
    fn run_matches_serial_at_many_thread_counts() {
        let records = three_loops();
        let cfg = DetectorConfig::default();
        let serial = Detector::new(cfg).run(&records);
        for threads in [1, 2, 3, 4, 8, 16] {
            let block = BlockParallelDetector::new(cfg, threads).run(&records);
            assert_eq!(serial.streams, block.streams, "threads={threads}");
            assert_eq!(serial.loops, block.loops, "threads={threads}");
            assert_eq!(serial.stats, block.stats, "threads={threads}");
        }
    }

    #[test]
    fn run_matches_serial_under_ablation_configs() {
        let records = three_loops();
        for cfg in [
            DetectorConfig::no_validation(),
            DetectorConfig::default().with_merge_gap_minutes(5),
            DetectorConfig {
                verify_checksum_consistency: false,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                use_prefilter: false,
                ..DetectorConfig::default()
            },
        ] {
            let serial = Detector::new(cfg).run(&records);
            let block = BlockParallelDetector::new(cfg, 4).run(&records);
            assert_eq!(serial.streams, block.streams, "{cfg:?}");
            assert_eq!(serial.loops, block.loops, "{cfg:?}");
            assert_eq!(serial.stats, block.stats, "{cfg:?}");
        }
    }

    /// Three interleaved 7-replica loops to distinct /24s.
    fn three_loops() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for (i, dst) in [
            Ipv4Addr::new(203, 0, 113, 9),
            Ipv4Addr::new(198, 51, 100, 3),
            Ipv4Addr::new(192, 0, 2, 200),
        ]
        .into_iter()
        .enumerate()
        {
            records.extend(looping_records(
                1_000 + i as u64 * 7,
                40_000_000,
                60,
                7,
                i as u16,
                dst,
            ));
        }
        records.sort_by_key(|r| r.timestamp_ns);
        records
    }

    #[test]
    fn block_metric_names_are_static_and_cover_fallback() {
        assert_eq!(block_metric(0, "records"), "block.w0.records");
        assert_eq!(block_metric(31, "busy"), "block.w31.busy");
        assert_eq!(block_metric(100, "scan"), "block.w100.scan");
        assert!(std::ptr::eq(
            block_metric(100, "scan"),
            block_metric(100, "scan")
        ));
    }
}
