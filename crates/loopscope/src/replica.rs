//! Step 1 — replica detection — and the detector's front door.
//!
//! [`CandidateScanner`] is the push-based step-1 core, the only step-1
//! implementation. Each worker of the block core ([`crate::block`], the
//! one offline steps 1–3 driver) feeds it record by record over its own
//! range, and the online detector ([`crate::online`]) feeds it one push at
//! a time and learns what each push did through an observer.
//! [`Detector::run`] is the block core's one-range case: the whole trace
//! scanned, validated and merged on the calling thread.
//!
//! The scanner is a *two-level candidate index*. Level 0 is an
//! open-addressing fingerprint table probed with the 64-bit
//! [`TraceRecord::fingerprint`] precomputed at ingest; first sightings —
//! the overwhelming majority of backbone traffic (§IV, Table I) — insert
//! there and return without hashing the ~44-byte [`ReplicaKey`] or
//! allocating. Level 1 is the exact `ReplicaKey → OpenCandidate` map,
//! entered only on second-and-later fingerprint sightings; fingerprint
//! collisions are resolved by full key compare there, so they can cost a
//! probe but never change results. The detector oracle test
//! (`tests/detector_oracle.rs`), an independent implementation of §IV,
//! checks that output.

use crate::block::BlockParallelDetector;
use crate::config::DetectorConfig;
use crate::fxhash::{fx_map_with_capacity, FxHashMap};
use crate::key::ReplicaKey;
use crate::merge::RoutingLoop;
use crate::record::TraceRecord;
use crate::stream::{Observation, ReplicaStream};
use std::collections::VecDeque;
use telemetry::trace::{self, TraceName};
use telemetry::LazyCounter;

static TM_RECORDS_SCANNED: LazyCounter = LazyCounter::new("replica.records_scanned");
static TM_CANDIDATES_OPENED: LazyCounter = LazyCounter::new("replica.candidates_opened");
static TM_CANDIDATES_DISCARDED: LazyCounter = LazyCounter::new("replica.candidates_discarded");
static TM_CHECKSUM_SPLITS: LazyCounter = LazyCounter::new("replica.checksum_splits");
// Level-0 pre-filter accounting, published by `publish_prefilter`.
static TM_PREFILTER_HITS: LazyCounter = LazyCounter::new("replica.prefilter_hits");
static TM_PREFILTER_MISSES: LazyCounter = LazyCounter::new("replica.prefilter_misses");
static TM_PREFILTER_PROMOTIONS: LazyCounter = LazyCounter::new("replica.prefilter_promotions");
static TM_PREFILTER_EVICTIONS: LazyCounter = LazyCounter::new("replica.prefilter_evictions");
static TM_PREFILTER_COLLISIONS: LazyCounter = LazyCounter::new("replica.prefilter_collisions");

// Event-trace markers for the pre-filter's rare transitions: promotions
// (seed → exact map) as instants, eviction sweeps as a cumulative counter
// track. Both sit outside the per-record fast path.
static TR_PREFILTER_PROMOTION: TraceName = TraceName::new("replica.prefilter_promotion");
static TR_PREFILTER_EVICTIONS: TraceName = TraceName::new("replica.prefilter_evictions");

/// Counters describing what each pipeline stage did — the raw material of
/// Table II and the A2 ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionStats {
    /// Records consumed.
    pub total_records: u64,
    /// Candidate replica sets with at least two sightings (pre-validation).
    pub raw_candidates: u64,
    /// Candidates rejected for having fewer than `min_stream_len` replicas
    /// (link-layer duplication artefacts).
    pub rejected_short: u64,
    /// Candidates rejected by the prefix co-loop rule.
    pub rejected_covalidation: u64,
    /// Times a sighting failed the RFC 1624 checksum-consistency check and
    /// forced a candidate split.
    pub checksum_splits: u64,
    /// Streams surviving validation.
    pub validated_streams: u64,
    /// Merged routing loops.
    pub routing_loops: u64,
    /// Total looped packets: every sighting in every validated stream
    /// (Table I's "Looped Packets" column counts individual looping
    /// packets; see [`DetectionResult::looped_unique_packets`] for the
    /// per-unique-packet count).
    pub looped_sightings: u64,
}

/// Full output of a detection run.
#[derive(Debug)]
pub struct DetectionResult {
    /// Validated replica streams, in start-time order.
    pub streams: Vec<ReplicaStream>,
    /// Merged routing loops, in `(prefix, start)` order.
    pub loops: Vec<RoutingLoop>,
    /// Per-record flag: was this record part of *any* candidate replica
    /// set (>= 2 sightings)? Used by the co-loop rule and by the traffic
    /// classification of looped traffic.
    pub looped_flags: Vec<bool>,
    /// Stage counters.
    pub stats: DetectionStats,
}

impl DetectionResult {
    /// Number of unique packets that looped (one per validated stream).
    pub fn looped_unique_packets(&self) -> u64 {
        self.streams.len() as u64
    }
}

/// The three-step detector.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: DetectorConfig,
}

struct OpenCandidate {
    observations: Vec<Observation>,
    record_indices: Vec<usize>,
    last_ip_checksum: u16,
    protocol: u8,
    /// Normalised level-0 fingerprint of the key — kept so the generation
    /// sweep can rebuild PROMOTED markers for surviving exact-map entries.
    fp: u64,
}

impl Detector {
    /// Creates a detector.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: DetectorConfig) -> Self {
        cfg.validate().expect("invalid detector configuration");
        Self { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Runs the full pipeline on a time-sorted trace: the block core
    /// ([`BlockParallelDetector::run_segments`]) with the trace as one
    /// range, on the calling thread.
    ///
    /// # Panics
    /// Panics when records are not sorted by timestamp — a trace that is
    /// out of order is corrupt and analysing it would silently produce
    /// nonsense.
    pub fn run(&self, records: &[TraceRecord]) -> DetectionResult {
        BlockParallelDetector::new(self.cfg, 1).run_segments(&[records])
    }
}

/// Adds one scanner's totals to the `replica.*` counters. Called once per
/// scan (per block worker), never per record.
pub(crate) fn publish_scan_totals(records: usize, counters: &ScanCounters) {
    TM_RECORDS_SCANNED.add(records as u64);
    TM_CANDIDATES_OPENED.add(counters.opened);
    TM_CANDIDATES_DISCARDED.add(counters.discarded);
}

/// Adds one scanner's level-0 accounting to the `replica.prefilter_*`
/// counters.
pub(crate) fn publish_prefilter(counters: &ScanCounters) {
    let pf = &counters.prefilter;
    TM_PREFILTER_HITS.add(pf.hits);
    TM_PREFILTER_MISSES.add(pf.misses);
    TM_PREFILTER_PROMOTIONS.add(pf.promotions);
    TM_PREFILTER_EVICTIONS.add(pf.evictions);
    TM_PREFILTER_COLLISIONS.add(pf.collisions);
}

/// Adds a run's checksum-split total to `replica.checksum_splits`.
pub(crate) fn publish_checksum_splits(splits: u64) {
    TM_CHECKSUM_SPLITS.add(splits);
}

/// The verdict on whether a sighting continues an open candidate.
struct ContinuationCheck {
    /// The sighting extends the candidate.
    joins: bool,
    /// The only reason it did not join was an RFC 1624-inconsistent IP
    /// header checksum (a forced split, counted separately).
    checksum_split: bool,
}

/// §IV-A.1's continuation rule, applied at both levels of the scanner: the
/// TTL must have dropped by at least `min_ttl_delta`, the silence must not
/// exceed the replica gap, and the new IP header checksum must be
/// arithmetically consistent with the TTL rewrite.
fn check_continuation(
    cfg: &DetectorConfig,
    last: Observation,
    last_ip_checksum: u16,
    protocol: u8,
    rec: &TraceRecord,
) -> ContinuationCheck {
    let gap = rec.timestamp_ns.saturating_sub(last.timestamp_ns);
    // Checked, not saturating: a record at TTL 254 or 255 must not pass
    // as a replica of one at 255.
    let ttl_ok = last
        .ttl
        .checked_sub(rec.ttl)
        .is_some_and(|drop| drop >= cfg.min_ttl_delta);
    let fresh = gap <= cfg.max_replica_gap_ns;
    let checksum_ok = if cfg.verify_checksum_consistency && ttl_ok {
        let expected =
            net_types::checksum::ttl_rewrite(last_ip_checksum, last.ttl, rec.ttl, protocol);
        checksums_equivalent(expected, rec.ip_checksum)
    } else {
        true
    };
    ContinuationCheck {
        joins: ttl_ok && fresh && checksum_ok,
        checksum_split: ttl_ok && fresh && !checksum_ok,
    }
}

/// Counters accumulated by one [`CandidateScanner`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Candidates opened (every first sighting of a key opens one).
    pub opened: u64,
    /// Candidates closed with fewer than two sightings.
    pub discarded: u64,
    /// Forced splits on checksum inconsistency.
    pub checksum_splits: u64,
    /// What the level-0 table did.
    pub prefilter: PrefilterCounters,
}

/// Level-0 accounting of one [`CandidateScanner`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterCounters {
    /// Probes that found the fingerprint.
    pub hits: u64,
    /// Probes that did not: first sightings in the active window.
    pub misses: u64,
    /// Seeds promoted to the exact map by a second sighting.
    pub promotions: u64,
    /// Seeds evicted by a generation sweep.
    pub evictions: u64,
    /// Fingerprint collisions between distinct keys.
    pub collisions: u64,
}

/// Marks a level-0 slot whose fingerprint has moved to the exact map:
/// every key hashing to it lives (or lived) at level 1, so the slot
/// answers "go probe the map" instead of holding an inline seed.
const PROMOTED_BIT: u64 = 1 << 63;
/// Low bits of the metadata word: the generation of the last touch.
const GEN_MASK: u64 = PROMOTED_BIT - 1;

/// A level-0 slot's inline payload: the single sighting that opened the
/// candidate, parked here until a second sighting proves it worth a real
/// [`OpenCandidate`] (and its two `Vec` allocations).
#[derive(Clone, Copy)]
struct PrefilterSeed {
    rec: TraceRecord,
    idx: usize,
}

impl PrefilterSeed {
    /// Filler for unoccupied slots — never read (occupancy is decided by
    /// the fingerprint lane alone).
    fn vacant() -> Self {
        Self {
            rec: TraceRecord {
                timestamp_ns: 0,
                src: std::net::Ipv4Addr::UNSPECIFIED,
                dst: std::net::Ipv4Addr::UNSPECIFIED,
                protocol: 0,
                ident: 0,
                total_len: 0,
                tos: 0,
                ttl: 0,
                frag_word: 0,
                ip_checksum: 0,
                transport: crate::record::TransportSummary::Other {
                    lead: [0; 8],
                    len: 0,
                },
                fingerprint: 0,
            },
            idx: 0,
        }
    }
}

/// The level-0 open-addressing fingerprint table, laid out
/// structure-of-arrays so the miss path — the dominant one — touches only
/// the `u64` fingerprint lane (1–2 cache lines with linear probing).
///
/// Slot states, decided by `fps[i]` and `meta[i]`:
/// - **empty** (`fps[i] == 0`): never seen in the active window;
/// - **seed** (`fps[i] != 0`, promoted bit clear): exactly one sighting,
///   stored inline in the `seeds` lane — no allocation yet;
/// - **promoted** (`fps[i] != 0`, promoted bit set): every candidate with
///   this fingerprint lives in the exact map; a miss at level 0 therefore
///   *definitively* means "key not active", which is what lets first
///   sightings skip the map entirely.
struct PreFilter {
    /// Fingerprint lane; 0 is the empty-slot sentinel (record
    /// fingerprints are normalised to nonzero before probing).
    fps: Vec<u64>,
    /// Metadata lane: [`PROMOTED_BIT`] | generation of the last touch.
    meta: Vec<u64>,
    /// Seed lane; read only on a fingerprint hit, so a sweep that keeps
    /// the capacity leaves it as it is.
    seeds: Vec<PrefilterSeed>,
    /// Sweep scratch: the seeds that survive, kept across sweeps so a
    /// table that has reached its window size sweeps without allocating.
    survivors: Vec<(u64, u64, PrefilterSeed)>,
    /// Occupied slots (seeds + promoted markers).
    live: usize,
    /// `1 << gen_shift` is the generation window, the smallest power of
    /// two at or above `max_replica_gap_ns` — so anything last touched two
    /// or more generations ago is *provably* beyond the inter-replica
    /// spacing bound and can be evicted without changing results.
    gen_shift: u32,
    hits: u64,
    misses: u64,
    promotions: u64,
    evictions: u64,
    collisions: u64,
}

impl PreFilter {
    const MIN_CAPACITY: usize = 16;

    fn new(capacity_hint: usize, max_replica_gap_ns: u64) -> Self {
        let cap = capacity_hint
            .saturating_mul(2)
            .next_power_of_two()
            .max(Self::MIN_CAPACITY);
        let gen_shift = max_replica_gap_ns
            .checked_next_power_of_two()
            .map_or(63, |p| p.trailing_zeros());
        Self {
            fps: vec![0; cap],
            meta: vec![0; cap],
            seeds: vec![PrefilterSeed::vacant(); cap],
            survivors: Vec::new(),
            live: 0,
            gen_shift,
            hits: 0,
            misses: 0,
            promotions: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    #[inline]
    fn generation(&self, timestamp_ns: u64) -> u64 {
        (timestamp_ns >> self.gen_shift) & GEN_MASK
    }

    /// Linear probe: the slot holding `fp`, or the first empty slot on its
    /// run. The ≤ 3/4 load factor guarantees an empty slot exists.
    #[inline]
    fn probe(&self, fp: u64) -> usize {
        let mask = self.fps.len() - 1;
        let mut i = (fp as usize) & mask;
        loop {
            let f = self.fps[i];
            if f == fp || f == 0 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Would one more insert push the table past a 3/4 load factor?
    #[inline]
    fn needs_sweep(&self) -> bool {
        (self.live + 1) * 4 > self.fps.len() * 3
    }

    /// The occupied slots' seeds: every one-sighting candidate the table
    /// holds.
    fn seeds(&self) -> impl Iterator<Item = &PrefilterSeed> + '_ {
        (0..self.fps.len())
            .filter(|&i| self.fps[i] != 0 && self.meta[i] & PROMOTED_BIT == 0)
            .map(|i| &self.seeds[i])
    }

    #[inline]
    fn insert_seed(&mut self, slot: usize, fp: u64, gen: u64, rec: &TraceRecord, idx: usize) {
        self.fps[slot] = fp;
        self.meta[slot] = gen;
        self.seeds[slot] = PrefilterSeed { rec: *rec, idx };
        self.live += 1;
    }
}

/// Level-0 probes use fingerprint 0 as the empty-slot sentinel; a record
/// whose (pure-function-of-key) fingerprint is genuinely 0 is folded onto
/// 1 — at worst one more collision, resolved like any other.
#[inline]
pub(crate) fn normalise_fp(fp: u64) -> u64 {
    if fp == 0 {
        1
    } else {
        fp
    }
}

/// What a [`CandidateScanner`] push did, for a caller that keeps its own
/// state next to step 1 (the online detector). Every method does nothing
/// by default and `()` observes nothing, so the offline scanners compile
/// to the unobserved loop.
pub(crate) trait ScanObserver {
    /// `rec`, record `idx`, is the second sighting of the candidate that
    /// record `first_idx` opened at `first_ns`.
    fn promoted(&mut self, _first_idx: usize, _first_ns: u64, _rec: &TraceRecord, _idx: usize) {}
    /// Record `idx` is the third or later sighting of its candidate.
    fn joined(&mut self, _idx: usize) {}
    /// The one-sighting candidate that record `idx` opened at `ns` closed,
    /// because `rec`, a later sighting of its key, did not continue it.
    fn single_closed(&mut self, _idx: usize, _ns: u64, _rec: &TraceRecord) {}
    /// A candidate with two or more sightings closed; candidates expiring
    /// on one push close in `(start, ident, first index)` order. What this
    /// returns joins the list [`CandidateScanner::finish`] returns.
    fn closed(&mut self, stream: ReplicaStream) -> Option<ReplicaStream> {
        Some(stream)
    }
    /// Record `idx` may recur: it or a later record hit its fingerprint at
    /// level 0 (the hit reports both the record and the seed it found, and
    /// every sighting that reaches the exact map reports itself). Every
    /// record with a sighting of its key within the replica gap on either
    /// side is reported this way, or is still a lone sighting
    /// ([`CandidateScanner::lone_sightings_since`]); a record may be
    /// reported more than once.
    fn recurred(&mut self, _idx: usize, _rec: &TraceRecord) {}
}

impl ScanObserver for () {}

/// Push-based step-1 scanner: feed time-ordered records one at a time,
/// collect the finished candidate replica sets at the end. Record indices
/// are whatever the caller passes in — global trace positions for both
/// the serial pipeline and the block workers.
///
/// This is the two-level candidate index described in the module docs:
/// level 0 is the `PreFilter` fingerprint table (probed with the
/// ingest-precomputed [`TraceRecord::fingerprint`], zero allocations and
/// no key hashing on the dominant first-sighting path), level 1 the exact
/// [`FxHashMap`] keyed by [`ReplicaKey`] that only promoted (seen-twice)
/// candidates reach. Output order never depends on either table (see
/// [`CandidateScanner::finish`]).
///
/// Level-1 candidates close exactly when their last sighting falls behind
/// `now - max_replica_gap`, in `(start, ident, first index)` order, driven
/// by a time-ordered queue of their sightings. Level-0 seeds age out
/// through the generation sweep instead, never one record at a time.
pub struct CandidateScanner {
    cfg: DetectorConfig,
    open: FxHashMap<ReplicaKey, OpenCandidate>,
    /// `(time, key)` of every sighting that reached the exact map, in time
    /// order: the level-1 expiry queue. An entry closes its key's candidate
    /// only if that candidate's last sighting is still the entry's.
    expiry: VecDeque<(u64, ReplicaKey)>,
    /// Scratch: `(start, ident, first index, key)` of the exact-map
    /// candidates expiring on one push.
    stale: Vec<(u64, u16, usize, ReplicaKey)>,
    done: Vec<ReplicaStream>,
    counters: ScanCounters,
    prefilter: PreFilter,
    /// Normalised fingerprint of the key behind each checksum-split event,
    /// in occurrence order. The block-parallel pipeline uses this to
    /// re-attribute splits at slice boundaries; splits are rare (one per
    /// corrupted rewrite, not per record), so the log is tiny.
    split_fps: Vec<u64>,
}

impl CandidateScanner {
    /// The open-key capacity [`Self::new`] starts from. The generation
    /// sweep grows the level-0 table to the live replica window (about
    /// two `max_replica_gap`s of traffic), so a scanner sized this way
    /// ends up fitted to the window whatever the trace length.
    pub const DEFAULT_CAPACITY: usize = 2048;

    /// A scanner that starts small and grows to the live replica window.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::with_capacity(cfg, Self::DEFAULT_CAPACITY)
    }

    /// A scanner whose tables are pre-sized for roughly `capacity`
    /// simultaneously-open keys — for callers that know their live
    /// population. The tables still grow if it is exceeded.
    pub fn with_capacity(cfg: DetectorConfig, capacity: usize) -> Self {
        Self {
            cfg,
            // The exact map only ever holds promoted candidates — a small
            // fraction of open keys.
            open: fx_map_with_capacity(capacity / 16),
            expiry: VecDeque::new(),
            stale: Vec::new(),
            done: Vec::new(),
            counters: ScanCounters::default(),
            prefilter: PreFilter::new(capacity, cfg.max_replica_gap_ns),
            split_fps: Vec::new(),
        }
    }

    /// Consumes one record (callers guarantee timestamp order).
    #[inline]
    pub fn push(&mut self, idx: usize, rec: &TraceRecord) {
        self.push_observed(idx, rec, &mut ());
    }

    /// [`Self::push`], reporting what it did to `obs`.
    #[inline]
    pub(crate) fn push_observed<O: ScanObserver>(
        &mut self,
        idx: usize,
        rec: &TraceRecord,
        obs: &mut O,
    ) {
        self.expire_before(
            rec.timestamp_ns.saturating_sub(self.cfg.max_replica_gap_ns),
            obs,
        );
        self.push_prefiltered(idx, rec, obs);
    }

    /// Closes every exact-map candidate whose last sighting is before
    /// `cutoff`. [`Self::push`] does this for its record's time itself.
    #[inline]
    pub(crate) fn expire_before<O: ScanObserver>(&mut self, cutoff: u64, obs: &mut O) {
        if self.expiry.front().is_some_and(|&(ts, _)| ts < cutoff) {
            self.expire(cutoff, obs);
        }
    }

    #[cold]
    fn expire<O: ScanObserver>(&mut self, cutoff: u64, obs: &mut O) {
        while let Some(&(ts, key)) = self.expiry.front() {
            if ts >= cutoff {
                break;
            }
            self.expiry.pop_front();
            // An entry whose candidate has since grown or closed is stale
            // itself; the candidate's latest sighting has its own entry.
            if let Some(cand) = self.open.get(&key) {
                let last = cand.observations.last().expect("open candidate non-empty");
                if last.timestamp_ns == ts {
                    let start = cand.observations[0].timestamp_ns;
                    self.stale
                        .push((start, key.ident, cand.record_indices[0], key));
                }
            }
        }
        // A successor opened at its predecessor's last sighting time shares
        // that entry's time, so it can be listed twice.
        self.stale
            .sort_unstable_by_key(|&(start, ident, first, _)| (start, ident, first));
        self.stale.dedup_by_key(|&mut (_, _, first, _)| first);
        for (_, _, _, key) in self.stale.drain(..) {
            let cand = self.open.remove(&key).expect("stale candidate is open");
            Self::close(key, cand, &mut self.done, &mut self.counters, obs);
        }
    }

    fn push_prefiltered<O: ScanObserver>(&mut self, idx: usize, rec: &TraceRecord, obs: &mut O) {
        let fp = normalise_fp(rec.fingerprint);
        let pf = &mut self.prefilter;
        let gen = pf.generation(rec.timestamp_ns);
        let slot = pf.probe(fp);
        if pf.fps[slot] == 0 {
            // Level-0 miss: first sighting of this fingerprint in the
            // active window. The dominant path on real traces — one lane
            // probe and an inline store; no key hash, no allocation.
            pf.misses += 1;
            if pf.needs_sweep() {
                self.sweep(gen);
                let pf = &mut self.prefilter;
                let slot = pf.probe(fp);
                pf.insert_seed(slot, fp, gen, rec, idx);
            } else {
                pf.insert_seed(slot, fp, gen, rec, idx);
            }
            self.counters.opened += 1;
            return;
        }
        pf.hits += 1;
        if pf.meta[slot] & PROMOTED_BIT != 0 {
            // Everything with this fingerprint already lives at level 1.
            pf.meta[slot] = PROMOTED_BIT | gen;
            self.push_exact(idx, rec, fp, obs);
            return;
        }
        let seed = pf.seeds[slot];
        obs.recurred(seed.idx, &seed.rec);
        obs.recurred(idx, rec);
        if ReplicaKey::of(&seed.rec) == ReplicaKey::of(rec) {
            let last = Observation {
                timestamp_ns: seed.rec.timestamp_ns,
                ttl: seed.rec.ttl,
            };
            let check = check_continuation(
                &self.cfg,
                last,
                seed.rec.ip_checksum,
                seed.rec.protocol,
                rec,
            );
            if check.joins {
                // Second sighting proves the candidate: promote it to the
                // exact map with both observations. This is the only place
                // the hot loop allocates, and it runs once per *replica*,
                // not once per record.
                let mut cand = OpenCandidate::new(&seed.rec, seed.idx, fp);
                cand.observations.push(Observation {
                    timestamp_ns: rec.timestamp_ns,
                    ttl: rec.ttl,
                });
                cand.record_indices.push(idx);
                cand.last_ip_checksum = rec.ip_checksum;
                let key = ReplicaKey::of(rec);
                self.open.insert(key, cand);
                self.expiry.push_back((rec.timestamp_ns, key));
                pf.meta[slot] = PROMOTED_BIT | gen;
                pf.promotions += 1;
                trace::instant(&TR_PREFILTER_PROMOTION);
                obs.promoted(seed.idx, seed.rec.timestamp_ns, rec, idx);
            } else {
                if check.checksum_split {
                    self.counters.checksum_splits += 1;
                    self.split_fps.push(fp);
                }
                // Same key but not a continuation (link-layer duplicate,
                // ident wrap, or stale stream): the one-sighting seed
                // closes, discarded, and this sighting re-seeds the slot
                // in place.
                self.counters.discarded += 1;
                self.counters.opened += 1;
                pf.seeds[slot] = PrefilterSeed { rec: *rec, idx };
                pf.meta[slot] = gen;
                obs.single_closed(seed.idx, seed.rec.timestamp_ns, rec);
            }
        } else {
            // True fingerprint collision between distinct keys: escalate
            // both to the exact map, where the full key disambiguates them
            // forever after, and promote the slot so neither is re-seeded.
            // Costs a probe; cannot change results.
            pf.collisions += 1;
            pf.meta[slot] = PROMOTED_BIT | gen;
            let (seed_key, key) = (ReplicaKey::of(&seed.rec), ReplicaKey::of(rec));
            self.open
                .insert(seed_key, OpenCandidate::new(&seed.rec, seed.idx, fp));
            self.open.insert(key, OpenCandidate::new(rec, idx, fp));
            // The seed's sighting is older than entries already queued.
            let seed_ns = seed.rec.timestamp_ns;
            let at = self.expiry.partition_point(|&(ts, _)| ts <= seed_ns);
            self.expiry.insert(at, (seed_ns, seed_key));
            self.expiry.push_back((rec.timestamp_ns, key));
            self.counters.opened += 1;
        }
    }

    /// The exact-map (level-1) path, reached through a promoted level-0
    /// slot.
    fn push_exact<O: ScanObserver>(&mut self, idx: usize, rec: &TraceRecord, fp: u64, obs: &mut O) {
        let key = ReplicaKey::of(rec);
        self.expiry.push_back((rec.timestamp_ns, key));
        // Entry API: one hash of the (44-byte) key per record, on every
        // branch — get_mut + insert would hash twice for first sightings.
        match self.open.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let cand = e.get_mut();
                obs.recurred(idx, rec);
                let last = *cand.observations.last().expect("open candidate non-empty");
                let check =
                    check_continuation(&self.cfg, last, cand.last_ip_checksum, cand.protocol, rec);
                if check.joins {
                    if cand.observations.len() == 1 {
                        obs.promoted(cand.record_indices[0], last.timestamp_ns, rec, idx);
                    } else {
                        obs.joined(idx);
                    }
                    cand.observations.push(Observation {
                        timestamp_ns: rec.timestamp_ns,
                        ttl: rec.ttl,
                    });
                    cand.record_indices.push(idx);
                    cand.last_ip_checksum = rec.ip_checksum;
                } else {
                    if check.checksum_split {
                        self.counters.checksum_splits += 1;
                        self.split_fps.push(fp);
                    }
                    // Same key but not a continuation: close the old
                    // candidate and start over from this sighting —
                    // swapped in place, no rehash.
                    let old = std::mem::replace(cand, OpenCandidate::new(rec, idx, fp));
                    if old.observations.len() == 1 {
                        obs.single_closed(old.record_indices[0], last.timestamp_ns, rec);
                    }
                    Self::close(key, old, &mut self.done, &mut self.counters, obs);
                    self.counters.opened += 1;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                // Reached through a level-0 hit.
                obs.recurred(idx, rec);
                e.insert(OpenCandidate::new(rec, idx, fp));
                self.counters.opened += 1;
            }
        }
    }

    /// Generation sweep: evicts every seed last touched two or more
    /// windows ago — provably beyond `max_replica_gap_ns`, so nothing
    /// evicted here could ever have joined a future sighting. Stale seeds
    /// are discarded exactly as a same-key stale split would have, and the
    /// survivors are reinserted. (Exact-map candidates leave through the
    /// expiry queue, so none of them is stale here.)
    /// The table grows whenever survivors would fill more than a quarter
    /// of it, so every sweep is followed by at least half a table of
    /// inserts (O(1) amortised), and the table settles at the size of the
    /// active window rather than the trace. At that size the sweep works
    /// in place: it clears the fingerprint and metadata lanes and leaves
    /// the seed lane and the survivor scratch allocated.
    #[cold]
    fn sweep(&mut self, cur_gen: u64) {
        let pf = &mut self.prefilter;
        let stale = |g: u64| g.saturating_add(2) <= cur_gen;
        let mut evicted = 0u64;
        pf.survivors.clear();
        let mut last_full_gen = 0usize;
        for i in 0..pf.fps.len() {
            let fp = pf.fps[i];
            if fp == 0 || pf.meta[i] & PROMOTED_BIT != 0 {
                continue;
            }
            let gen = pf.meta[i] & GEN_MASK;
            if stale(gen) {
                // A seed that old can never be joined; close it discarded.
                self.counters.discarded += 1;
                evicted += 1;
            } else {
                last_full_gen += usize::from(gen + 1 == cur_gen);
                pf.survivors.push((fp, pf.meta[i], pf.seeds[i]));
            }
        }
        pf.evictions += evicted;
        trace::counter(&TR_PREFILTER_EVICTIONS, pf.evictions);
        // Survivors are at most two generations of traffic. Sizing for
        // twice the last complete generation fits the table to a steady
        // rate's window at the first sweep that sees a full generation,
        // rather than at whichever later sweep happens to land at the end
        // of one.
        let live_target = pf.survivors.len().max(2 * last_full_gen) + self.open.len();
        let cap = live_target
            .saturating_mul(4)
            .next_power_of_two()
            .max(pf.fps.len());
        if cap == pf.fps.len() {
            pf.fps.fill(0);
            pf.meta.fill(0);
        } else {
            pf.fps = vec![0; cap];
            pf.meta = vec![0; cap];
            pf.seeds = vec![PrefilterSeed::vacant(); cap];
            // Room for a quarter table of survivors in total: a later
            // sweep that keeps this size keeps at most that many (or it
            // would grow the table), so it reuses the scratch.
            pf.survivors
                .reserve_exact((cap / 4).saturating_sub(pf.survivors.len()));
        }
        pf.live = 0;
        for i in 0..pf.survivors.len() {
            let (fp, meta, seed) = pf.survivors[i];
            let slot = pf.probe(fp);
            debug_assert_eq!(pf.fps[slot], 0, "seed fingerprints are unique");
            pf.fps[slot] = fp;
            pf.meta[slot] = meta;
            pf.seeds[slot] = seed;
            pf.live += 1;
        }
        // One PROMOTED marker per surviving exact-map fingerprint (keys
        // sharing a fingerprint share a marker), so a level-0 miss keeps
        // meaning "key not active".
        for cand in self.open.values() {
            let slot = pf.probe(cand.fp);
            if pf.fps[slot] == 0 {
                pf.fps[slot] = cand.fp;
                pf.meta[slot] = PROMOTED_BIT | cur_gen;
                pf.live += 1;
            }
        }
    }

    /// Closes every open candidate and returns the finished sets in
    /// `(start time, first record index)` order. Publishes the
    /// `replica.prefilter_*` counters.
    pub fn finish(self) -> (Vec<ReplicaStream>, ScanCounters) {
        let (done, counters, _) = self.finish_with_splits();
        publish_prefilter(&counters);
        (done, counters)
    }

    /// [`Self::finish`] plus the per-event checksum-split fingerprint log —
    /// what the block-parallel pipeline needs to decide which worker-local
    /// splits survive boundary reconciliation. Publishes nothing: the
    /// block core publishes a range's counters once the range is known to
    /// belong to the trace.
    pub fn finish_with_splits(mut self) -> (Vec<ReplicaStream>, ScanCounters, Vec<u64>) {
        let pf = &self.prefilter;
        // Remaining seeds are one-sighting candidates that never found a
        // replica.
        self.counters.discarded += pf.seeds().count() as u64;
        self.counters.prefilter = PrefilterCounters {
            hits: pf.hits,
            misses: pf.misses,
            promotions: pf.promotions,
            evictions: pf.evictions,
            collisions: pf.collisions,
        };
        for (key, cand) in self.open.drain() {
            Self::close(key, cand, &mut self.done, &mut self.counters, &mut ());
        }
        // Table drain order is nondeterministic (and expiry re-times
        // closes); normalise.
        self.done
            .sort_by_key(|s| (s.start_ns(), s.record_indices[0]));
        (self.done, self.counters, self.split_fps)
    }

    /// The counters so far.
    pub(crate) fn counters(&self) -> &ScanCounters {
        &self.counters
    }

    /// Every level-0 seed from time `from` on, as `(index, record)`. With
    /// [`ScanObserver::recurred`] these are all the records from `from` on
    /// that may recur within the gap.
    pub(crate) fn lone_sightings_since(
        &self,
        from: u64,
    ) -> impl Iterator<Item = (usize, &TraceRecord)> + '_ {
        self.prefilter
            .seeds()
            .map(|seed| (seed.idx, &seed.rec))
            .filter(move |(_, rec)| rec.timestamp_ns >= from)
    }

    fn close<O: ScanObserver>(
        key: ReplicaKey,
        cand: OpenCandidate,
        done: &mut Vec<ReplicaStream>,
        counters: &mut ScanCounters,
        obs: &mut O,
    ) {
        if cand.observations.len() >= 2 {
            done.extend(obs.closed(ReplicaStream {
                key,
                observations: cand.observations,
                record_indices: cand.record_indices,
            }));
        } else {
            counters.discarded += 1;
        }
    }
}

impl OpenCandidate {
    fn new(rec: &TraceRecord, idx: usize, fp: u64) -> Self {
        Self {
            observations: vec![Observation {
                timestamp_ns: rec.timestamp_ns,
                ttl: rec.ttl,
            }],
            record_indices: vec![idx],
            last_ip_checksum: rec.ip_checksum,
            protocol: rec.protocol,
            fp,
        }
    }
}

/// One's-complement checksums have two zero representations; treat them as
/// equal when comparing an incrementally-updated value against the one on
/// the wire.
fn checksums_equivalent(a: u16, b: u16) -> bool {
    let canon = |c: u16| if c == 0xffff { 0 } else { c };
    canon(a) == canon(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    /// Builds the records a tap would see for one packet looping between
    /// two (or `delta`) routers: TTL decreasing by `delta` per sighting.
    fn looping_records(
        start_ns: u64,
        spacing_ns: u64,
        first_ttl: u8,
        delta: u8,
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
                for _ in 0..delta {
                    assert!(p.ip.decrement_ttl());
                }
            }
            out.push(TraceRecord::from_packet(t, &p));
            t += spacing_ns;
        }
        out
    }

    fn sort_records(mut v: Vec<TraceRecord>) -> Vec<TraceRecord> {
        v.sort_by_key(|r| r.timestamp_ns);
        v
    }

    #[test]
    fn single_loop_yields_one_stream() {
        let recs = looping_records(0, 1_000_000, 60, 2, 10, 1, Ipv4Addr::new(203, 0, 113, 1));
        let det = Detector::new(DetectorConfig::default());
        let result = det.run(&recs);
        assert_eq!(result.streams.len(), 1);
        let s = &result.streams[0];
        assert_eq!(s.len(), 10);
        assert_eq!(s.ttl_delta(), 2);
        assert_eq!(s.first_ttl(), 60);
        assert_eq!(s.last_ttl(), 60 - 18);
        assert_eq!(result.loops.len(), 1);
        assert_eq!(result.stats.raw_candidates, 1);
        assert_eq!(result.stats.looped_sightings, 10);
        assert!(result.looped_flags.iter().all(|&f| f));
    }

    #[test]
    fn normal_traffic_yields_nothing() {
        // Distinct packets of one flow: increasing idents, same TTL.
        let mut recs = Vec::new();
        for i in 0..50u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 1, 1, 1),
                Ipv4Addr::new(203, 0, 113, 2),
                1000,
                80,
                TcpFlags::ACK,
                &b""[..],
            );
            p.ip.ident = i;
            p.ip.ttl = 57;
            p.fill_checksums();
            recs.push(TraceRecord::from_packet(u64::from(i) * 1_000, &p));
        }
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert!(result.streams.is_empty());
        assert!(result.loops.is_empty());
        assert_eq!(result.stats.raw_candidates, 0);
    }

    #[test]
    fn link_layer_duplicates_rejected() {
        // The same packet twice with *equal* TTL: a token-ring/SONET
        // duplicate, not a loop. Never a candidate (TTL must drop by 2).
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 1, 1, 1),
            Ipv4Addr::new(203, 0, 113, 3),
            1,
            2,
            TcpFlags::ACK,
            &b""[..],
        );
        p.ip.ttl = 60;
        p.fill_checksums();
        let recs = vec![
            TraceRecord::from_packet(0, &p),
            TraceRecord::from_packet(10, &p),
        ];
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert!(result.streams.is_empty());
        assert_eq!(result.stats.raw_candidates, 0);
    }

    #[test]
    fn two_element_stream_rejected_by_validation() {
        let recs = looping_records(0, 1_000_000, 60, 2, 2, 9, Ipv4Addr::new(203, 0, 113, 4));
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(result.stats.raw_candidates, 1);
        assert_eq!(result.stats.rejected_short, 1);
        assert!(result.streams.is_empty());
        // But the A2 ablation config accepts it.
        let ablated = Detector::new(DetectorConfig::no_validation()).run(&recs);
        assert_eq!(ablated.streams.len(), 1);
    }

    #[test]
    fn ttl_delta_one_not_a_replica() {
        // Successive sightings only 1 apart violate the >= 2 rule.
        let recs = looping_records(0, 1_000, 60, 1, 5, 2, Ipv4Addr::new(203, 0, 113, 5));
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert!(result.streams.is_empty());
    }

    #[test]
    fn ttl_near_255_needs_the_full_delta() {
        // A duplicate at TTL 255, and a copy one lower: neither drops the
        // TTL by two, so neither is a replica.
        for second in [255, 254] {
            let mut recs = looping_records(0, 1_000, 255, 1, 1, 4, Ipv4Addr::new(203, 0, 113, 5));
            let mut copy = recs[0];
            copy.timestamp_ns = 1_000;
            copy.ip_checksum = net_types::checksum::ttl_rewrite(copy.ip_checksum, 255, second, 6);
            copy.ttl = second;
            recs.push(copy);
            let result = Detector::new(DetectorConfig::default()).run(&recs);
            assert_eq!(result.stats.raw_candidates, 0, "TTL 255 then {second}");
        }
    }

    #[test]
    fn interleaved_streams_separated() {
        // Two packets looping concurrently to different /24s.
        let a = looping_records(0, 1_000_000, 62, 2, 8, 1, Ipv4Addr::new(203, 0, 113, 6));
        let b = looping_records(
            500_000,
            1_000_000,
            126,
            2,
            8,
            2,
            Ipv4Addr::new(198, 51, 100, 6),
        );
        let mut all = a;
        all.extend(b);
        let recs = sort_records(all);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(result.streams.len(), 2);
        let mut deltas: Vec<u8> = result.streams.iter().map(|s| s.ttl_delta()).collect();
        deltas.sort();
        assert_eq!(deltas, vec![2, 2]);
        assert_eq!(result.loops.len(), 2);
    }

    #[test]
    fn stale_candidate_split_by_gap() {
        // Same key sighted, then silence past the gap, then sighted again
        // with lower TTL: two candidates, neither long enough alone.
        let mut recs = looping_records(0, 1_000_000, 60, 2, 3, 5, Ipv4Addr::new(203, 0, 113, 7));
        let late = looping_records(
            10_000_000_000, // 10 s later, gap default is 1 s
            1_000_000,
            40,
            2,
            3,
            5,
            Ipv4Addr::new(203, 0, 113, 7),
        );
        recs.extend(late);
        let recs = sort_records(recs);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        // Both halves are 3-element candidates in their own right.
        assert_eq!(result.stats.raw_candidates, 2);
        assert_eq!(result.streams.len(), 2);
        // And they merge into a single routing loop (same /24, < 1 min
        // apart, nothing non-looped in between).
        assert_eq!(result.loops.len(), 1);
        assert_eq!(result.loops[0].streams.len(), 2);
    }

    #[test]
    fn checksum_inconsistency_splits_candidate() {
        let mut recs = looping_records(0, 1_000_000, 60, 2, 3, 3, Ipv4Addr::new(203, 0, 113, 8));
        // Corrupt the third sighting's IP checksum.
        recs[2].ip_checksum ^= 0x0f0f;
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(result.stats.checksum_splits, 1);
        // Without the check it would be a clean 3-stream.
        let lax = Detector::new(DetectorConfig {
            verify_checksum_consistency: false,
            ..DetectorConfig::default()
        })
        .run(&recs);
        assert_eq!(lax.streams.len(), 1);
        assert_eq!(lax.stats.checksum_splits, 0);
    }

    #[test]
    fn covalidation_vetoes_stream_with_nonlooped_neighbour() {
        // A 5-replica stream, but another packet to the same /24 crosses
        // exactly once in the middle of the window: §IV-A.2 says the
        // "loop" cannot be real.
        let mut recs = looping_records(0, 1_000_000, 60, 2, 5, 1, Ipv4Addr::new(203, 0, 113, 9));
        let mut bystander = Packet::tcp_flags(
            Ipv4Addr::new(100, 2, 2, 2),
            Ipv4Addr::new(203, 0, 113, 10), // same /24
            777,
            443,
            TcpFlags::ACK,
            &b""[..],
        );
        bystander.ip.ttl = 50;
        bystander.ip.ident = 999;
        bystander.fill_checksums();
        recs.push(TraceRecord::from_packet(2_000_000, &bystander));
        let recs = sort_records(recs);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(result.stats.rejected_covalidation, 1);
        assert!(result.streams.is_empty());
        // A2 ablation keeps it.
        let ablated = Detector::new(DetectorConfig::no_validation()).run(&recs);
        assert_eq!(ablated.streams.len(), 1);
    }

    #[test]
    fn covalidation_ignores_other_prefixes() {
        let mut recs = looping_records(0, 1_000_000, 60, 2, 5, 1, Ipv4Addr::new(203, 0, 113, 9));
        let mut bystander = Packet::tcp_flags(
            Ipv4Addr::new(100, 2, 2, 2),
            Ipv4Addr::new(198, 51, 100, 1), // different /24
            777,
            443,
            TcpFlags::ACK,
            &b""[..],
        );
        bystander.ip.ttl = 50;
        bystander.fill_checksums();
        recs.push(TraceRecord::from_packet(2_000_000, &bystander));
        let recs = sort_records(recs);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(result.streams.len(), 1);
    }

    #[test]
    fn boundary_straggler_does_not_veto() {
        // A packet that entered the loop just before it healed crosses the
        // monitor once, right at the end of the stream's window. The slack
        // (one mean spacing) must absorb it.
        let mut recs = looping_records(0, 1_000_000, 60, 2, 5, 1, Ipv4Addr::new(203, 0, 113, 9));
        let stream_end = 4_000_000u64;
        let mut straggler = Packet::tcp_flags(
            Ipv4Addr::new(100, 2, 2, 2),
            Ipv4Addr::new(203, 0, 113, 11),
            888,
            443,
            TcpFlags::ACK,
            &b""[..],
        );
        straggler.ip.ttl = 50;
        straggler.ip.ident = 1234;
        straggler.fill_checksums();
        recs.push(TraceRecord::from_packet(stream_end - 200_000, &straggler));
        let recs = sort_records(recs);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(result.streams.len(), 1, "straggler must not veto");
    }

    #[test]
    #[should_panic(
        expected = "trace records must be sorted by timestamp: record 1 at 1000000 ns is earlier than the record before it at 2000000 ns"
    )]
    fn unsorted_trace_panics() {
        let mut recs = looping_records(0, 1_000_000, 60, 2, 3, 1, Ipv4Addr::new(203, 0, 113, 1));
        recs.swap(0, 2);
        Detector::new(DetectorConfig::default()).run(&recs);
    }

    #[test]
    fn deterministic_output_order() {
        let mut all = Vec::new();
        for i in 0..20u16 {
            all.extend(looping_records(
                u64::from(i) * 10_000,
                1_000_000,
                60,
                2,
                4,
                i,
                Ipv4Addr::new(203, 0, 113, (i % 200) as u8 + 1),
            ));
        }
        let recs = sort_records(all);
        let det = Detector::new(DetectorConfig::default());
        let a = det.run(&recs);
        let b = det.run(&recs);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.stats, b.stats);
    }
}
