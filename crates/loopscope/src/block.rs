//! Share-nothing block-parallel detection.
//!
//! **Records never move** between threads: a dispatcher that hands every
//! record to a worker costs more than the entire serial run
//! (EXPERIMENTS.md §P5/§P6). The time-sorted trace is split into `W`
//! contiguous ranges; each worker runs the full candidate scan on its own
//! range in place, and a cheap boundary-reconciliation pass stitches the
//! per-range results back into exactly the serial output. The ranges need
//! not be one slice: [`BlockParallelDetector::run_segments`] takes the
//! trace as the trace-ordered segments the ingest threads decoded, and
//! [`BlockParallelDetector::run`] cuts one slice into such segments.
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
//! Reconciliation therefore computes, per segment boundary, the set of
//! ingest-time fingerprints appearing in both the tail window `[T - gap,
//! T)` and the head window `[T, L + gap]` (where `T` is the first
//! timestamp at/after the split and `L` the last before it — windows are
//! taken over the whole trace, not just the adjacent ranges, so a key
//! spanning an entire quiet middle range is still caught). Every candidate
//! whose (normalised) fingerprint is in that *affected* set is discarded
//! from the per-range results and re-derived by one serial rescan
//! restricted to records carrying an affected fingerprint, in global trace
//! order with global indices. Fingerprint collisions are harmless: the
//! affected set is keyed by fingerprint, so colliding keys are always
//! rescanned (or kept) together, and the rescan itself runs the exact
//! scanner. Checksum-split counts are reconciled the same way: per-range
//! splits charged to unaffected fingerprints are kept, splits from the
//! rescan are added, and splits charged to affected fingerprints are
//! dropped with their candidates.
//!
//! Steps 2–3 are keyed no coarser than the destination /24: step 2's
//! co-loop rule consults only packets to the candidate's own /24 (whose
//! looped flags come from candidates to that same /24), and step 3 merges
//! streams with identical prefixes, checking only packets to that prefix.
//! So the reconciled candidate list is partitioned by [`shard_of`] and
//! validated/merged by `W` workers sharing the *global* looped flags and
//! prefix index (neither step reads a record) — again, no record
//! movement. The final stitch re-sorts with the serial pipeline's
//! canonical orderings (`(start, ident, first_index)` for streams,
//! `(prefix, start)` for loops), which are total orders, so output is
//! byte-identical to [`Detector::run`] at every worker count — including
//! `W = 1`, which runs the same machinery (uniform telemetry schema, no
//! serial special case).

use crate::config::DetectorConfig;
use crate::fxhash::FxHashSet;
use crate::key::ReplicaKey;
use crate::merge::{self, RoutingLoop};
use crate::record::TraceRecord;
use crate::replica::{
    normalise_fp, publish_checksum_splits, publish_scan_totals, CandidateScanner, DetectionResult,
    DetectionStats,
};
use crate::stream::ReplicaStream;
use crate::validate::{self, IndexPartial, PrefixIndex};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::tm_info;

#[cfg(doc)]
use crate::replica::Detector;

/// One worker's share of the step-1 scan.
struct ScanPartial {
    /// Candidates found in this range, carrying global record indices.
    candidates: Vec<ReplicaStream>,
    /// Normalised fingerprints behind this range's checksum-split events.
    split_fps: Vec<u64>,
    /// This range's share of the step-2 [`PrefixIndex`], built here so the
    /// index work overlaps the scan instead of serialising after it.
    index_part: IndexPartial,
    /// Whether the range, and the step into it from the record before,
    /// is in timestamp order. The scan stops at the first record that is
    /// not.
    sorted: bool,
}

/// One worker's share of the step-2/3 validate+merge.
struct FinishPartial {
    streams: Vec<ReplicaStream>,
    loops: Vec<RoutingLoop>,
    rejected_short: u64,
    rejected_covalidation: u64,
}

/// The share-nothing block-parallel detector: output byte-identical to
/// [`Detector::run`] at every worker count.
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
        let splits = even_splits(records.len(), self.threads);
        self.run_with_splits(records, &splits)
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
    /// segments — typically decoded by one thread each — with one worker
    /// per non-empty segment. The records stay where they are: candidates
    /// and index postings carry trace-global indices (a segment's records
    /// are numbered after all records of the segments before it), and the
    /// order check and reconciliation windows cross segment ends.
    ///
    /// # Panics
    /// Panics when records are not sorted by timestamp.
    pub fn run_segments(&self, segments: &[&[TraceRecord]]) -> DetectionResult {
        let mut segs: Vec<&[TraceRecord]> =
            segments.iter().copied().filter(|s| !s.is_empty()).collect();
        if segs.is_empty() {
            segs.push(&[]);
        }
        let mut bases = Vec::with_capacity(segs.len());
        let mut total = 0;
        for seg in &segs {
            bases.push(total);
            total += seg.len();
        }

        let workers = segs.len();
        telemetry::global()
            .gauge("block.workers")
            .set(workers as i64);

        // Phase A: per-segment candidate scans, share-nothing. Each worker
        // also builds its segment's share of the step-2 prefix index, so
        // the formerly serial index rebuild overlaps the scan. The workers
        // check timestamp order as they scan, which keeps that pass over
        // the trace off the serial path too.
        let mut partials = self.scan_segments(&segs, &bases);
        assert!(
            partials.iter().all(|p| p.sorted),
            "trace records must be sorted by timestamp"
        );
        let index_parts: Vec<IndexPartial> = partials
            .iter_mut()
            .map(|p| std::mem::take(&mut p.index_part))
            .collect();

        // Boundary reconciliation: find fingerprints whose serial
        // candidates could differ from the per-segment ones, rescan
        // exactly those keys serially, and splice.
        let (candidates, checksum_splits) = {
            let _t = telemetry::span("block.reconcile");
            self.reconcile(&segs, &bases, partials)
        };
        publish_checksum_splits(checksum_splits);

        let mut stats = DetectionStats {
            total_records: total as u64,
            raw_candidates: candidates.len() as u64,
            checksum_splits,
            ..Default::default()
        };

        let looped_flags = validate::looped_flags(total, &candidates);

        // Only the cheap per-range merge remains serial here; the O(n)
        // posting construction already happened inside the scan workers.
        let index = {
            let _t = telemetry::span("block.index");
            PrefixIndex::from_partials(index_parts)
        };

        // Phase B: validate + merge, partitioned by destination /24.
        let finished = self.finish_candidates(candidates, &looped_flags, &index, workers);

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
            "block detection complete: {} records over {} workers, {} validated streams, {} routing loops",
            stats.total_records,
            workers,
            stats.validated_streams,
            stats.routing_loops
        );

        DetectionResult {
            streams,
            loops,
            looped_flags,
            stats,
        }
    }

    /// Phase A: each worker scans its own segment in place, pushing
    /// global record indices.
    fn scan_segments(&self, segs: &[&[TraceRecord]], bases: &[usize]) -> Vec<ScanPartial> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = segs
                .iter()
                .zip(bases)
                .enumerate()
                .map(|(w, (&slice, &base))| {
                    let cfg = self.cfg;
                    // The record before the segment: the order check
                    // crosses segment ends.
                    let prev_ns = w
                        .checked_sub(1)
                        .and_then(|p| segs[p].last())
                        .map_or(0, |r| r.timestamp_ns);
                    std::thread::Builder::new()
                        .name(format!("block-w{w}"))
                        .spawn_scoped(scope, move || {
                            let started = Instant::now();
                            let _agg = telemetry::span("block.scan");
                            telemetry::global()
                                .counter(block_metric(w, "records"))
                                .add(slice.len() as u64);
                            let mut scanner = CandidateScanner::new(cfg);
                            let mut prev_ns = prev_ns;
                            let mut sorted = true;
                            for (off, rec) in slice.iter().enumerate() {
                                if rec.timestamp_ns < prev_ns {
                                    sorted = false;
                                    break;
                                }
                                prev_ns = rec.timestamp_ns;
                                scanner.push(base + off, rec);
                            }
                            let (candidates, counters, split_fps) = scanner.finish_with_splits();
                            publish_scan_totals(slice.len(), &counters);
                            let scan_ns = started.elapsed().as_nanos() as u64;
                            telemetry::global()
                                .timer(block_metric(w, "scan"))
                                .record(scan_ns);
                            let index_started = Instant::now();
                            let index_part = PrefixIndex::build_range(slice, base);
                            telemetry::global()
                                .timer(block_metric(w, "index"))
                                .record(index_started.elapsed().as_nanos() as u64);
                            telemetry::global()
                                .timer(block_metric(w, "busy"))
                                .record(started.elapsed().as_nanos() as u64);
                            ScanPartial {
                                candidates,
                                split_fps,
                                index_part,
                                sorted,
                            }
                        })
                        .expect("spawn block scan worker")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block scan worker panicked"))
                .collect()
        })
    }

    /// Boundary reconciliation (see module docs): returns the exact serial
    /// candidate list (sorted `(start, first_index)`) and checksum-split
    /// count.
    fn reconcile(
        &self,
        segs: &[&[TraceRecord]],
        bases: &[usize],
        partials: Vec<ScanPartial>,
    ) -> (Vec<ReplicaStream>, u64) {
        let affected = affected_fingerprints(segs, self.cfg.max_replica_gap_ns);

        // Rescan every record of an affected key, serially, in global
        // order. The affected set is tiny next to the trace (a handful of
        // keys per boundary), so this is one cheap filtered pass.
        let mut rescan_candidates = Vec::new();
        let mut rescan_splits = 0u64;
        if !affected.is_empty() {
            let mut scanner = CandidateScanner::with_capacity(self.cfg, affected.len());
            for (seg, &base) in segs.iter().zip(bases) {
                for (off, rec) in seg.iter().enumerate() {
                    if affected.contains(&normalise_fp(rec.fingerprint)) {
                        scanner.push(base + off, rec);
                    }
                }
            }
            let (c, counters, _fps) = scanner.finish_with_splits();
            rescan_candidates = c;
            rescan_splits = counters.checksum_splits;
        }

        let mut candidates = Vec::new();
        let mut checksum_splits = rescan_splits;
        for part in partials {
            checksum_splits += part
                .split_fps
                .iter()
                .filter(|fp| !affected.contains(fp))
                .count() as u64;
            candidates.extend(
                part.candidates
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
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .enumerate()
                .map(|(w, group)| {
                    let cfg = self.cfg;
                    std::thread::Builder::new()
                        .name(format!("block-w{w}"))
                        .spawn_scoped(scope, move || {
                            let started = Instant::now();
                            let mut stats = DetectionStats::default();
                            let streams = {
                                let _agg = telemetry::span("block.validate");
                                validate::validate(
                                    &[],
                                    group,
                                    looped_flags,
                                    index,
                                    &cfg,
                                    &mut stats,
                                )
                            };
                            telemetry::global()
                                .timer(block_metric(w, "validate"))
                                .record(started.elapsed().as_nanos() as u64);
                            let merge_started = Instant::now();
                            let loops = {
                                let _agg = telemetry::span("block.merge");
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
                        .expect("spawn block finish worker")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block finish worker panicked"))
                .collect()
        })
    }
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
/// per-segment scans and the serial scan: keys with a sighting within
/// `gap_ns` on *both* sides of some segment boundary (see module docs).
/// `segs` are non-empty and in trace order.
fn affected_fingerprints(segs: &[&[TraceRecord]], gap_ns: u64) -> FxHashSet<u64> {
    let mut affected = FxHashSet::default();
    for w in 1..segs.len() {
        let t_right = segs[w][0].timestamp_ns;
        let l_left = segs[w - 1][segs[w - 1].len() - 1].timestamp_ns;
        // Tail window over the whole trace before the boundary (a key can
        // span an entire quiet middle segment), head window over the whole
        // trace after it; both may cross several segments.
        let tail_fps: FxHashSet<u64> = segs[..w]
            .iter()
            .rev()
            .flat_map(|seg| seg.iter().rev())
            .take_while(|r| r.timestamp_ns >= t_right.saturating_sub(gap_ns))
            .map(|r| normalise_fp(r.fingerprint))
            .collect();
        for rec in segs[w..]
            .iter()
            .flat_map(|seg| seg.iter())
            .take_while(|r| r.timestamp_ns <= l_left.saturating_add(gap_ns))
        {
            let fp = normalise_fp(rec.fingerprint);
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
        let affected = affected_fingerprints(
            &[&records[..4], &records[4..]],
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
    #[should_panic(expected = "sorted")]
    fn unsorted_inside_a_range_panics() {
        BlockParallelDetector::new(DetectorConfig::default(), 2)
            .run_with_splits(&step_back_at(4), &[2]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
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
