//! Sharded parallel detection: the offline pipeline fanned out over
//! `std::thread` workers, with output byte-identical to the serial path.
//!
//! **Status: ablation.** The central dispatcher measured here moves every
//! record across a thread boundary, and on real traces that dispatch cost
//! exceeds the entire serial detection pass — `BENCH_parallel.json`
//! recorded speedups of 0.42–0.95× at every thread count. The production
//! parallel path is [`crate::block::BlockParallelDetector`], which splits
//! the trace into contiguous ranges and moves no records between threads;
//! this ring dispatcher stays behind `loopdetect --engine ring` (and
//! `bench_parallel --engine ring`) as the comparison point that documents
//! *why* the share-nothing design wins.
//!
//! # Why sharding by destination /24 is sound
//!
//! Every stage of the paper's algorithm is keyed no coarser than the
//! destination /24 of the replica key:
//!
//! * **Step 1** (candidate grouping) partitions records by the full
//!   [`ReplicaKey`], which contains the destination address — all
//!   sightings of one key share one /24.
//! * **Step 2**'s co-loop rule consults only packets *to the candidate's
//!   own /24*, and whether those packets are themselves looped is decided
//!   by candidates whose keys carry a destination in that same /24.
//! * **Step 3** merges streams with "identical destination address
//!   prefixes" and its gap-clean rule again only inspects packets to that
//!   prefix.
//!
//! So routing every record to a shard chosen by a **stable hash of its
//! destination /24** gives each worker a self-contained sub-trace: no
//! stage ever needs state held by another shard. Each worker runs the
//! unmodified serial stages on its sub-trace (which preserves the global
//! timestamp order, because the producer feeds shards in trace order),
//! and the per-shard results are concatenated and re-sorted in the
//! deterministic key order the serial pipeline uses. The result —
//! streams, loops, per-record flags, and stage counters — is equal to
//! [`Detector::run`]'s output on every trace, which `tests/pipeline.rs`
//! and the bench determinism guard enforce.
//!
//! Workers are fed through bounded SPSC ring buffers (one per shard,
//! batched to amortise synchronisation), so candidate scanning overlaps
//! with the producer's pass over the trace. Synchronisation is
//! deliberately lock-light: whole batches move through the ring, the
//! consumer drains *everything* buffered under a single lock acquisition
//! (`Ring::pop_all`), and condvar wakeups are **edge-triggered** — the
//! consumer is signalled only on the empty→non-empty transition and the
//! producer only on full→non-full, so the steady-state cost per batch is
//! one uncontended mutex acquire with no syscalls. Everything is
//! std-only: `std::thread`, `Mutex`, `Condvar`.

use crate::config::DetectorConfig;
use crate::key::ReplicaKey;
use crate::merge::{self, RoutingLoop};
use crate::record::TraceRecord;
use crate::replica::{CandidateScanner, DetectionResult, DetectionStats, Detector};
use crate::stream::ReplicaStream;
use crate::validate::{self, PrefixIndex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use telemetry::tm_info;
use telemetry::trace::{self, TraceName};

/// Records per batch pushed into a shard ring. Large enough that ring
/// synchronisation is a rounding error next to per-record hash-map work.
const BATCH_RECORDS: usize = 1024;

/// Batches a ring holds before the producer blocks — bounds per-shard
/// buffering at `RING_BATCHES * BATCH_RECORDS` records.
const RING_BATCHES: usize = 8;

/// Stable shard assignment for a replica key: FNV-1a over the key's
/// destination /24, reduced modulo `shards`.
///
/// The hash is a fixed arithmetic function of the address bytes — no
/// per-process seed, no `RandomState` — so the same key lands on the same
/// shard in every run, on every platform, for the life of the format.
pub fn shard_of(key: &ReplicaKey, shards: usize) -> usize {
    shard_of_dst(key.dst, shards)
}

/// [`shard_of`] for a raw record (same function: the replica key's
/// destination is the record's destination).
pub fn shard_of_record(rec: &TraceRecord, shards: usize) -> usize {
    shard_of_dst(rec.dst, shards)
}

fn shard_of_dst(dst: std::net::Ipv4Addr, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    // FNV-1a, 64-bit, over the /24 network bytes (the host byte is
    // masked off so the whole prefix co-locates).
    let net = u32::from(dst) & 0xffff_ff00;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in net.to_be_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A bounded single-producer single-consumer ring of record batches.
///
/// Blocking (Condvar-based) rather than spinning: the pipeline must
/// degrade gracefully on machines with fewer cores than shards, where a
/// spinning producer would starve the very workers it feeds.
/// Trace span bracketing a producer blocked on a full ring.
static TR_RING_STALL: TraceName = TraceName::new("shard.ring_full_stall");
/// Trace span bracketing a consumer blocked on an empty ring.
static TR_RING_WAIT: TraceName = TraceName::new("shard.ring_wait");
/// Trace instant marking one batch handed to a shard ring.
static TR_DISPATCH_BATCH: TraceName = TraceName::new("shard.dispatch_batch");

struct Ring {
    state: Mutex<RingState>,
    not_full: Condvar,
    not_empty: Condvar,
    depth_gauge: &'static telemetry::Gauge,
    /// Times the producer found this ring full and had to block.
    stall_counter: &'static telemetry::Counter,
    /// Consumer time spent blocked on an empty ring (idle time).
    wait_timer: &'static telemetry::Timer,
    /// Per-shard queue-depth counter track in the event trace.
    tr_depth: TraceName,
}

struct RingState {
    batches: VecDeque<Vec<(usize, TraceRecord)>>,
    closed: bool,
}

impl Ring {
    fn new(shard: usize) -> Self {
        Self {
            state: Mutex::new(RingState {
                batches: VecDeque::with_capacity(RING_BATCHES),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            depth_gauge: telemetry::global().gauge(shard_metric(shard, "queue_depth")),
            stall_counter: telemetry::global().counter(shard_metric(shard, "full_stalls")),
            wait_timer: telemetry::global().timer(shard_metric(shard, "wait")),
            tr_depth: TraceName::new(shard_metric(shard, "queue_depth")),
        }
    }

    /// Producer side: blocks while the ring is full.
    ///
    /// The consumer is woken only on the empty→non-empty edge: while it is
    /// busy chewing a previous drain it will re-check the queue under the
    /// lock before sleeping, so intermediate pushes need no signal. With
    /// one producer and one consumer per ring, the waiter (if any) always
    /// observed the state that makes the edge signal necessary.
    fn push(&self, batch: Vec<(usize, TraceRecord)>) {
        let mut st = self.state.lock().expect("ring poisoned");
        if st.batches.len() >= RING_BATCHES {
            // Backpressure: the worker is behind. Count the stall and
            // bracket the blocked interval in the event trace.
            self.stall_counter.inc();
            let _stalled = trace::span(&TR_RING_STALL);
            while st.batches.len() >= RING_BATCHES {
                st = self.not_full.wait(st).expect("ring poisoned");
            }
        }
        let was_empty = st.batches.is_empty();
        st.batches.push_back(batch);
        self.depth_gauge.set(st.batches.len() as i64);
        trace::counter(&self.tr_depth, st.batches.len() as u64);
        drop(st);
        if was_empty {
            self.not_empty.notify_one();
        }
    }

    /// Producer side: no further batches will arrive.
    fn close(&self) {
        self.state.lock().expect("ring poisoned").closed = true;
        self.not_empty.notify_one();
    }

    /// Consumer side: drains *every* buffered batch into `into` under one
    /// lock acquisition (the caller's deque is swapped in as the new empty
    /// ring storage, so capacities ping-pong and nothing is reallocated in
    /// steady state). Blocks while the ring is empty; returns `false` once
    /// it is closed and drained. The producer is woken only on the
    /// full→non-full edge.
    fn pop_all(&self, into: &mut VecDeque<Vec<(usize, TraceRecord)>>) -> bool {
        debug_assert!(into.is_empty(), "drain target must be empty");
        let mut st = self.state.lock().expect("ring poisoned");
        loop {
            if !st.batches.is_empty() {
                let was_full = st.batches.len() >= RING_BATCHES;
                std::mem::swap(&mut st.batches, into);
                self.depth_gauge.set(0);
                trace::counter(&self.tr_depth, 0);
                drop(st);
                if was_full {
                    self.not_full.notify_one();
                }
                return true;
            }
            if st.closed {
                return false;
            }
            // Idle time: the worker outran the producer. Accumulate it on
            // the per-shard wait timer and bracket it in the trace.
            let idle_start = Instant::now();
            let _waiting = trace::span(&TR_RING_WAIT);
            st = self.not_empty.wait(st).expect("ring poisoned");
            self.wait_timer
                .record(idle_start.elapsed().as_nanos() as u64);
        }
    }
}

/// One worker's share of the pipeline output, in shard-local terms except
/// for the already-remapped record indices.
struct ShardPartial {
    stats: DetectionStats,
    streams: Vec<ReplicaStream>,
    loops: Vec<RoutingLoop>,
    /// Global indices of records that belong to any raw candidate.
    looped_global: Vec<usize>,
}

/// The parallel detector: [`Detector`] semantics, N-way sharded.
///
/// `threads == 1` is *exactly* the legacy path — it delegates to
/// [`Detector::run`] without spawning anything.
#[derive(Debug, Clone)]
pub struct ShardedDetector {
    cfg: DetectorConfig,
    threads: usize,
}

impl ShardedDetector {
    /// Creates a sharded detector over `threads` worker shards.
    ///
    /// # Panics
    /// Panics on an invalid configuration or `threads == 0`.
    pub fn new(cfg: DetectorConfig, threads: usize) -> Self {
        cfg.validate().expect("invalid detector configuration");
        assert!(threads >= 1, "thread count must be at least 1");
        Self { cfg, threads }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The shard/worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the full pipeline, sharded over the worker threads, producing
    /// output equal to [`Detector::run`] on the same trace.
    ///
    /// # Panics
    /// Panics when records are not sorted by timestamp, exactly like the
    /// serial pipeline.
    pub fn run(&self, records: &[TraceRecord]) -> DetectionResult {
        if self.threads == 1 {
            return Detector::new(self.cfg).run(records);
        }
        assert!(
            records
                .windows(2)
                .all(|w| w[0].timestamp_ns <= w[1].timestamp_ns),
            "trace records must be sorted by timestamp"
        );
        let _t = telemetry::span("shard.run");
        telemetry::global()
            .gauge("shard.threads")
            .set(self.threads as i64);

        let n = self.threads;
        // Uniform sharding makes records.len()/n the expected sub-trace
        // size; workers pre-size their buffers from it so ingest never
        // reallocates in the common case.
        let per_shard_estimate = records.len() / n + 1;
        let rings: Vec<Ring> = (0..n).map(Ring::new).collect();
        let partials: Vec<ShardPartial> = std::thread::scope(|scope| {
            let handles: Vec<_> = rings
                .iter()
                .enumerate()
                .map(|(shard, ring)| {
                    let cfg = self.cfg;
                    // Named threads label the per-worker rows in trace
                    // viewers (and panic messages).
                    std::thread::Builder::new()
                        .name(format!("shard-w{shard}"))
                        .spawn_scoped(scope, move || {
                            run_shard(shard, cfg, ring, per_shard_estimate)
                        })
                        .expect("spawn shard worker")
                })
                .collect();

            // Producer: route every record to its shard, in trace order,
            // flushing per-shard batches as they fill.
            {
                let _t = telemetry::span("shard.dispatch");
                let mut pending: Vec<Vec<(usize, TraceRecord)>> =
                    (0..n).map(|_| Vec::with_capacity(BATCH_RECORDS)).collect();
                for (idx, rec) in records.iter().enumerate() {
                    let shard = shard_of_record(rec, n);
                    pending[shard].push((idx, *rec));
                    if pending[shard].len() >= BATCH_RECORDS {
                        trace::instant(&TR_DISPATCH_BATCH);
                        rings[shard].push(std::mem::replace(
                            &mut pending[shard],
                            Vec::with_capacity(BATCH_RECORDS),
                        ));
                    }
                }
                for (shard, batch) in pending.into_iter().enumerate() {
                    if !batch.is_empty() {
                        rings[shard].push(batch);
                    }
                    rings[shard].close();
                }
            }

            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        // Deterministic merge: concatenate shard outputs and restore the
        // serial pipeline's total orders. Streams: the serial path emits
        // candidates sorted by (start, first record) then stably re-sorted
        // by (start, ident) — i.e. the total order (start, ident, first
        // record). Loops: (prefix, start); every prefix lives in exactly
        // one shard, so ties keep their within-shard (= serial) order.
        let _tm = telemetry::span("shard.merge_results");
        let mut stats = DetectionStats::default();
        let mut streams = Vec::new();
        let mut loops = Vec::new();
        let mut looped_flags = vec![false; records.len()];
        for p in partials {
            stats.total_records += p.stats.total_records;
            stats.raw_candidates += p.stats.raw_candidates;
            stats.rejected_short += p.stats.rejected_short;
            stats.rejected_covalidation += p.stats.rejected_covalidation;
            stats.checksum_splits += p.stats.checksum_splits;
            stats.validated_streams += p.stats.validated_streams;
            stats.routing_loops += p.stats.routing_loops;
            stats.looped_sightings += p.stats.looped_sightings;
            for idx in p.looped_global {
                looped_flags[idx] = true;
            }
            streams.extend(p.streams);
            loops.extend(p.loops);
        }
        streams.sort_by_key(|s| (s.start_ns(), s.key.ident, s.record_indices[0]));
        loops.sort_by_key(|l| (l.prefix, l.start_ns));
        tm_info!(
            "sharded detection complete: {} records over {} shards, {} streams, {} loops",
            stats.total_records,
            n,
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
}

/// One worker: drain the ring into a shard-local sub-trace (scanning for
/// candidates as records arrive), then run validation and merging on it,
/// and remap record indices back to global trace positions.
///
/// `estimate` is the expected sub-trace size; the record buffers are
/// pre-sized from it, so the ingest loop runs without reallocation on
/// uniformly sharded traces. The scanner sizes itself to the replica
/// window. Stage timers ("shard.detect" / "shard.validate" /
/// "shard.merge") aggregate across workers, so their totals are
/// worker-seconds, not wall time.
fn run_shard(shard: usize, cfg: DetectorConfig, ring: &Ring, estimate: usize) -> ShardPartial {
    let records_counter = telemetry::global().counter(shard_metric(shard, "records"));
    let streams_counter = telemetry::global().counter(shard_metric(shard, "streams"));
    // Busy time = worker lifetime minus time blocked on the empty ring
    // (which `Ring::pop_all` accumulates on the per-shard wait timer).
    // Only this worker writes those timers, so a before/after read of the
    // wait total scopes the subtraction to this run.
    let wait_timer = telemetry::global().timer(shard_metric(shard, "wait"));
    let busy_timer = telemetry::global().timer(shard_metric(shard, "busy"));
    let alive_start = Instant::now();
    let waited_before_ns = wait_timer.total_ns();

    let mut records: Vec<TraceRecord> = Vec::with_capacity(estimate);
    let mut globals: Vec<usize> = Vec::with_capacity(estimate);
    let mut scanner = CandidateScanner::new(cfg);
    let (candidates, counters) = {
        let _t = telemetry::span("shard.detect");
        let mut drained: VecDeque<Vec<(usize, TraceRecord)>> =
            VecDeque::with_capacity(RING_BATCHES);
        while ring.pop_all(&mut drained) {
            for batch in drained.drain(..) {
                records_counter.add(batch.len() as u64);
                for (gidx, rec) in batch {
                    scanner.push(records.len(), &rec);
                    records.push(rec);
                    globals.push(gidx);
                }
            }
        }
        scanner.finish()
    };
    let mut stats = DetectionStats {
        total_records: records.len() as u64,
        raw_candidates: candidates.len() as u64,
        checksum_splits: counters.checksum_splits,
        ..DetectionStats::default()
    };

    let mut looped_flags = vec![false; records.len()];
    for c in &candidates {
        for &idx in &c.record_indices {
            looped_flags[idx] = true;
        }
    }

    let (index, validated) = {
        let _t = telemetry::span("shard.validate");
        let index = PrefixIndex::build(&records);
        let validated = validate::validate(
            &records,
            candidates,
            &looped_flags,
            &index,
            &cfg,
            &mut stats,
        );
        (index, validated)
    };
    stats.validated_streams = validated.len() as u64;
    stats.looped_sightings = validated.iter().map(|s| s.len() as u64).sum();
    streams_counter.add(validated.len() as u64);

    let loops = {
        let _t = telemetry::span("shard.merge");
        merge::merge(&records, &validated, &looped_flags, &index, &cfg)
    };
    stats.routing_loops = loops.len() as u64;

    // Shard-local record indices -> global trace positions. The mapping is
    // strictly increasing, so every within-shard order survives.
    let remap = |s: &mut ReplicaStream| {
        for idx in &mut s.record_indices {
            *idx = globals[*idx];
        }
    };
    let mut streams = validated;
    streams.iter_mut().for_each(remap);
    let mut loops = loops;
    for l in &mut loops {
        l.streams.iter_mut().for_each(remap);
    }
    let looped_global = looped_flags
        .iter()
        .enumerate()
        .filter_map(|(i, &f)| if f { Some(globals[i]) } else { None })
        .collect();

    let alive_ns = alive_start.elapsed().as_nanos() as u64;
    let waited_ns = wait_timer.total_ns() - waited_before_ns;
    busy_timer.record(alive_ns.saturating_sub(waited_ns));

    ShardPartial {
        stats,
        streams,
        loops,
        looped_global,
    }
}

/// Builds a compile-time table of `shard.w<i>.<field>` names for one
/// field across the prebuilt shard indices.
macro_rules! shard_name_table {
    ($field:literal; $($n:literal),* $(,)?) => {
        [$(concat!("shard.w", $n, ".", $field)),*]
    };
}

/// Shard indices with compile-time metric names. Thread counts above this
/// fall back to the (cold, locked) interner — nobody shards finer than
/// the machine's core count in practice.
const PREBUILT_SHARDS: usize = 32;

static SHARD_RECORDS: [&str; PREBUILT_SHARDS] = shard_name_table!("records";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static SHARD_STREAMS: [&str; PREBUILT_SHARDS] = shard_name_table!("streams";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static SHARD_QUEUE_DEPTH: [&str; PREBUILT_SHARDS] = shard_name_table!("queue_depth";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static SHARD_FULL_STALLS: [&str; PREBUILT_SHARDS] = shard_name_table!("full_stalls";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static SHARD_WAIT: [&str; PREBUILT_SHARDS] = shard_name_table!("wait";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
static SHARD_BUSY: [&str; PREBUILT_SHARDS] = shard_name_table!("busy";
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);

/// Resolves the `shard.w<i>.<field>` metric name. The telemetry registry
/// wants `&'static str`; for the common case (shard index below
/// [`PREBUILT_SHARDS`], known field) the name is a compile-time literal —
/// no allocation, no lock. Exotic combinations fall back to a bounded
/// leaking interner.
fn shard_metric(shard: usize, field: &str) -> &'static str {
    if shard < PREBUILT_SHARDS {
        match field {
            "records" => return SHARD_RECORDS[shard],
            "streams" => return SHARD_STREAMS[shard],
            "queue_depth" => return SHARD_QUEUE_DEPTH[shard],
            "full_stalls" => return SHARD_FULL_STALLS[shard],
            "wait" => return SHARD_WAIT[shard],
            "busy" => return SHARD_BUSY[shard],
            _ => {}
        }
    }
    intern_shard_metric(shard, field)
}

/// Cold path of [`shard_metric`]: formats, interns, and leaks the name.
/// The set of names is tiny (a few per shard) and deduplicated, so the
/// leak is bounded.
fn intern_shard_metric(shard: usize, field: &str) -> &'static str {
    static INTERNED: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = INTERNED.lock().expect("intern table poisoned");
    let name = format!("shard.w{shard}.{field}");
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
            &b"data"[..],
        );
        p.ip.ident = ident;
        p.ip.ttl = first_ttl;
        p.fill_checksums();
        let mut out = Vec::new();
        let mut t = start_ns;
        for k in 0..n {
            if k > 0 {
                p.ip.decrement_ttl();
                p.ip.decrement_ttl();
            }
            out.push(TraceRecord::from_packet(t, &p));
            t += spacing_ns;
        }
        out
    }

    /// A mixed trace: loops to several /24s plus background noise.
    fn mixed_trace() -> Vec<TraceRecord> {
        let mut recs = Vec::new();
        for j in 0..12u16 {
            recs.extend(looping_records(
                u64::from(j) * 500_000_000,
                1_500_000,
                64,
                4 + usize::from(j % 3),
                j,
                Ipv4Addr::new(203, 0, (j % 6) as u8, 1 + (j % 200) as u8),
            ));
        }
        for i in 0..400u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 2, 2, 2),
                Ipv4Addr::new(20, 0, (i % 9) as u8, 1),
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

    fn assert_results_equal(
        a: &crate::replica::DetectionResult,
        b: &crate::replica::DetectionResult,
    ) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.loops, b.loops);
        assert_eq!(a.looped_flags, b.looped_flags);
    }

    #[test]
    fn shard_key_is_stable_across_reruns() {
        // The assignment is pure arithmetic on the address bytes: repeated
        // evaluation, fresh detectors, and fresh processes all agree. The
        // pinned values double as a cross-process regression anchor — they
        // may only change with an intentional format bump.
        let recs = looping_records(0, 1_000, 60, 3, 7, Ipv4Addr::new(203, 0, 113, 9));
        let key = ReplicaKey::of(&recs[0]);
        let first = shard_of(&key, 8);
        for _ in 0..100 {
            assert_eq!(shard_of(&key, 8), first);
        }
        assert_eq!(shard_of_record(&recs[1], 8), first);
        // Pinned FNV-1a outputs for known prefixes.
        assert_eq!(shard_of_dst(Ipv4Addr::new(203, 0, 113, 9), 8), 7);
        assert_eq!(shard_of_dst(Ipv4Addr::new(198, 51, 100, 25), 8), 2);
        assert_eq!(shard_of_dst(Ipv4Addr::new(10, 0, 0, 1), 4), 3);
    }

    #[test]
    fn whole_slash24_shares_a_shard() {
        for shards in [2usize, 3, 4, 8, 16] {
            let a = shard_of_dst(Ipv4Addr::new(203, 0, 113, 1), shards);
            for host in [2u8, 9, 77, 255] {
                assert_eq!(
                    shard_of_dst(Ipv4Addr::new(203, 0, 113, host), shards),
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
            seen[shard_of_dst(Ipv4Addr::new(10, 1, third, 1), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard got nothing: {seen:?}");
    }

    #[test]
    fn single_thread_is_legacy_path() {
        let recs = mixed_trace();
        let serial = Detector::new(DetectorConfig::default()).run(&recs);
        let one = ShardedDetector::new(DetectorConfig::default(), 1).run(&recs);
        assert_results_equal(&serial, &one);
    }

    #[test]
    fn parallel_matches_serial_on_mixed_trace() {
        let recs = mixed_trace();
        let serial = Detector::new(DetectorConfig::default()).run(&recs);
        assert!(!serial.streams.is_empty());
        for threads in [2usize, 3, 4, 8] {
            let par = ShardedDetector::new(DetectorConfig::default(), threads).run(&recs);
            assert_results_equal(&serial, &par);
        }
    }

    #[test]
    fn parallel_matches_serial_under_ablation_configs() {
        let recs = mixed_trace();
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
            let serial = Detector::new(cfg).run(&recs);
            let par = ShardedDetector::new(cfg, 4).run(&recs);
            assert_results_equal(&serial, &par);
        }
    }

    #[test]
    fn prefilter_ablation_is_invisible_at_every_thread_count() {
        // The two-level candidate index must be output-invisible: serial
        // with and without the pre-filter agree, and every sharded run in
        // either mode agrees with both.
        let recs = mixed_trace();
        let on = Detector::new(DetectorConfig::default()).run(&recs);
        assert!(!on.streams.is_empty());
        let off_cfg = DetectorConfig {
            use_prefilter: false,
            ..DetectorConfig::default()
        };
        let off = Detector::new(off_cfg).run(&recs);
        assert_results_equal(&on, &off);
        for threads in [2usize, 3, 4, 8] {
            let par_on = ShardedDetector::new(DetectorConfig::default(), threads).run(&recs);
            assert_results_equal(&on, &par_on);
            let par_off = ShardedDetector::new(off_cfg, threads).run(&recs);
            assert_results_equal(&on, &par_off);
        }
    }

    #[test]
    fn empty_and_tiny_traces() {
        let det = ShardedDetector::new(DetectorConfig::default(), 4);
        let empty = det.run(&[]);
        assert!(empty.streams.is_empty() && empty.loops.is_empty());
        let tiny = looping_records(0, 1_000_000, 60, 5, 1, Ipv4Addr::new(203, 0, 113, 1));
        let serial = Detector::new(DetectorConfig::default()).run(&tiny);
        let par = det.run(&tiny);
        assert_results_equal(&serial, &par);
    }

    #[test]
    fn more_threads_than_records() {
        let tiny = looping_records(0, 1_000_000, 60, 4, 1, Ipv4Addr::new(203, 0, 113, 1));
        let serial = Detector::new(DetectorConfig::default()).run(&tiny);
        let par = ShardedDetector::new(DetectorConfig::default(), 8).run(&tiny);
        assert_results_equal(&serial, &par);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_panics_sharded() {
        let mut recs = looping_records(0, 1_000_000, 60, 3, 1, Ipv4Addr::new(203, 0, 113, 1));
        recs.swap(0, 2);
        ShardedDetector::new(DetectorConfig::default(), 2).run(&recs);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        ShardedDetector::new(DetectorConfig::default(), 0);
    }

    #[test]
    fn ring_delivers_in_order_and_closes() {
        let ring = Ring::new(999);
        let recs = looping_records(0, 1_000, 60, 3, 1, Ipv4Addr::new(203, 0, 113, 1));
        std::thread::scope(|s| {
            let r = &ring;
            let producer = s.spawn(move || {
                for (i, rec) in recs.iter().enumerate() {
                    r.push(vec![(i, *rec)]);
                }
                r.close();
            });
            let consumer = s.spawn(move || {
                let mut got = Vec::new();
                let mut drained = VecDeque::new();
                while r.pop_all(&mut drained) {
                    for batch in drained.drain(..) {
                        got.extend(batch.into_iter().map(|(i, _)| i));
                    }
                }
                got
            });
            producer.join().unwrap();
            assert_eq!(consumer.join().unwrap(), vec![0, 1, 2]);
        });
    }

    #[test]
    fn ring_backpressure_with_slow_consumer() {
        // Fill the ring past capacity so the producer must block, then
        // drain in bulk: exercises both condvar edges (empty→non-empty
        // wakes the consumer, full→non-full wakes the producer).
        let ring = Ring::new(998);
        let recs = looping_records(0, 1_000, 60, 3, 1, Ipv4Addr::new(203, 0, 113, 1));
        let total = RING_BATCHES * 3;
        std::thread::scope(|s| {
            let r = &ring;
            let producer = s.spawn(move || {
                for i in 0..total {
                    r.push(vec![(i, recs[0])]);
                }
                r.close();
            });
            let consumer = s.spawn(move || {
                let mut got = Vec::new();
                let mut drained = VecDeque::new();
                while r.pop_all(&mut drained) {
                    // Hold the drained set briefly so the ring refills.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    for batch in drained.drain(..) {
                        got.extend(batch.into_iter().map(|(i, _)| i));
                    }
                }
                got
            });
            producer.join().unwrap();
            let got = consumer.join().unwrap();
            assert_eq!(got, (0..total).collect::<Vec<_>>());
        });
    }

    #[test]
    fn shard_metric_names_are_static_and_cover_fallback() {
        assert_eq!(shard_metric(0, "records"), "shard.w0.records");
        assert_eq!(shard_metric(7, "streams"), "shard.w7.streams");
        assert_eq!(shard_metric(31, "queue_depth"), "shard.w31.queue_depth");
        assert_eq!(shard_metric(2, "full_stalls"), "shard.w2.full_stalls");
        assert_eq!(shard_metric(5, "wait"), "shard.w5.wait");
        assert_eq!(shard_metric(9, "busy"), "shard.w9.busy");
        // Prebuilt lookups return the same literal every time (no interner
        // involvement): pointer-equal, not just string-equal.
        assert!(std::ptr::eq(
            shard_metric(3, "records"),
            shard_metric(3, "records")
        ));
        // Beyond the table, the interner fallback still works and dedups.
        assert_eq!(shard_metric(100, "records"), "shard.w100.records");
        assert!(std::ptr::eq(
            shard_metric(100, "records"),
            shard_metric(100, "records")
        ));
    }

    #[test]
    fn per_shard_metrics_registered() {
        let recs = mixed_trace();
        ShardedDetector::new(DetectorConfig::default(), 2).run(&recs);
        let snap = telemetry::global().snapshot();
        assert!(snap.counters.contains_key("shard.w0.records"));
        assert!(snap.counters.contains_key("shard.w1.records"));
        assert!(snap.counters.contains_key("shard.w0.streams"));
        assert!(snap.counters.contains_key("shard.w0.full_stalls"));
        assert!(snap.gauges.contains_key("shard.w0.queue_depth"));
        // Worker time accounting: both workers recorded one busy interval,
        // bounded by their lifetime.
        for w in 0..2 {
            let busy = &snap.timers[&format!("shard.w{w}.busy")];
            assert!(busy.calls >= 1, "worker {w} busy timer never recorded");
        }
        let total: u64 = (0..2)
            .map(|i| snap.counters[&format!("shard.w{i}.records")])
            .sum();
        assert!(total >= recs.len() as u64, "all records routed to shards");
    }
}
