//! Online (streaming) loop detection.
//!
//! The paper's pipeline is offline: it assumes the whole trace is on disk.
//! An operator who wants to *alarm* on loops needs the same logic as a
//! single pass with bounded memory. This module provides that: records are
//! pushed in timestamp order, and validated replica streams / merged
//! routing loops are emitted as soon as the evidence is complete —
//! a stream when its candidate has been silent for the replica gap, a loop
//! when its prefix has been loop-free for the merge gap.
//!
//! Semantics match the offline [`crate::Detector`] exactly on any trace
//! (the equivalence is property-tested), with one bounded-memory knob:
//! [`OnlineDetector::with_history_horizon`] limits how much per-prefix
//! packet history is retained for the co-loop and gap-clean rules. The
//! default horizon covers the merge gap, which is what exact equivalence
//! requires.
//!
//! # Cost per record
//!
//! Step 1 is the offline [`CandidateScanner`], fed one record per push:
//! its level-0 fingerprint table holds the single sightings, and its
//! exact map the candidates with two or more, which it closes in
//! `(start, ident, first record)` order as soon as they fall a replica gap
//! behind. Steps 2–3 are the offline ones too: a closed candidate goes
//! through `validate::judge`, and a /24's pending streams through
//! `merge::merge_runs`, both querying the /24's [`PrefixHistory`]. This
//! layer keeps only the state they need, and a push costs amortised O(1)
//! outside the moments evidence completes:
//!
//! * **Step-1 events** arrive through the scanner's observer: a promotion
//!   marks the candidate's records looped and its /24 as holding an open
//!   candidate, a join marks its record looped, and a single sighting that
//!   a later sighting of its key did not continue is marked closed. A
//!   closed candidate with two or more sightings goes on to steps 2–3.
//! * **A record log** holds every retained record, oldest first, with what
//!   step 1 made of it. Open single sightings are never tracked one by
//!   one: they are the single records of the last replica gap, counted
//!   back from the newest record when asked, and a /24's oldest one is
//!   found in its history.
//! * **Loop finalisation** is gated per /24. A loop is final only once its
//!   end plus the merge gap lies before a barrier: the earlier of `now` and
//!   the start of the /24's oldest open candidate. Each /24 records what
//!   must happen before it can emit: time must pass its first pending
//!   loop's end plus the merge gap, or the open candidates that started by
//!   then must close. The per-/24 pass has no effect other than emitting,
//!   so it is skipped until one of those happens somewhere (`flush_due` is
//!   the earliest such time).
//! * **History trimming** pops the record log from its oldest end, so each
//!   record is trimmed exactly once.
//! * **A record is looped** when the log says so: the history holds
//!   sequence numbers, and the shared rules ask the log about each record
//!   in their window.
//!
//! The fleet-total gauges are published once at the end of each public
//! call ([`OnlineDetector::push`], [`OnlineDetector::push_batch`]), not
//! per record, so detectors on different threads do not contend on them.
//! [`OnlineDetector::finish`] leaves the detector empty for a new trace,
//! with everything it allocated kept, so a caller that runs traces one
//! after another (the monitor runtime) sets a detector up once.
//! The shared rules write the `validate.*` and `merge.*` counters per
//! event, as offline: once per closed candidate and once per final loop.

use crate::config::DetectorConfig;
use crate::fxhash::FxHashMap;
#[cfg(debug_assertions)]
use crate::key::ReplicaKey;
use crate::merge::{merge_runs, RoutingLoop};
use crate::record::TraceRecord;
use crate::replica::{publish_checksum_splits, publish_scan_totals, ScanObserver};
use crate::stream::ReplicaStream;
use crate::validate::{judge, PrefixHistory, Verdict};
use crate::CandidateScanner;
use net_types::Ipv4Prefix;
use std::collections::VecDeque;
use telemetry::trace::{self, TraceName};
use telemetry::{tm_trace, LazyGauge};

// Fleet totals: every live detector adds its share as a delta and takes it
// back when it is dropped, so concurrent detectors sum instead of
// overwriting each other.
static TM_OPEN_CANDIDATES: LazyGauge = LazyGauge::new("online.open_candidates");
static TM_PREFIX_HISTORY: LazyGauge = LazyGauge::new("online.prefix_history");

// Event-trace instants marking the moment evidence completed — the
// temporal signal a cumulative counter cannot carry.
static TR_STREAM_EMITTED: TraceName = TraceName::new("online.stream_emitted");
static TR_LOOP_EMITTED: TraceName = TraceName::new("online.loop_emitted");

/// Events emitted by the streaming detector.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEvent {
    /// A validated replica stream (post step 2).
    Stream(ReplicaStream),
    /// A merged routing loop, emitted once its prefix has been quiet for
    /// the merge gap (post step 3).
    Loop(RoutingLoop),
}

/// What must happen before a /24's pending streams can yield a final loop.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Recheck {
    /// Nothing is pending.
    #[default]
    Idle,
    /// `now` must pass this time: the first pending loop's end plus the
    /// merge gap.
    After(u64),
    /// The first pending loop's end plus the merge gap, `horizon`, has
    /// passed, but candidates that started by `horizon` hold the barrier
    /// back: `multis` open candidates with two or more sightings, which
    /// must all close, and single sightings, which have all expired once
    /// `now` passes `singles_due` (0 when there are none). A blocking
    /// single that closes early or is promoted sets `Now` instead.
    Blocked {
        horizon: u64,
        multis: usize,
        singles_due: u64,
    },
    /// Look on the next pass.
    Now,
}

impl Recheck {
    /// The time `now` must pass before a look, when time alone decides it.
    fn due(self) -> Option<u64> {
        match self {
            Recheck::After(t)
            | Recheck::Blocked {
                multis: 0,
                singles_due: t,
                ..
            } => Some(t),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct PrefixState {
    /// Recent records to this /24, by record sequence number.
    history: PrefixHistory,
    /// Validated streams not yet committed to an emitted loop. Merging is
    /// deferred until no open candidate can change the outcome, so the
    /// result is byte-identical to the offline merge.
    pending: Vec<ReplicaStream>,
    /// First-observation time of every open candidate to this prefix with
    /// two or more sightings, keyed by its first record sequence number.
    open_cands: FxHashMap<usize, u64>,
    recheck: Recheck,
}

/// What step 1 made of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sighting {
    /// It opened a candidate that has not grown: an open single sighting
    /// inside the replica window, an expired one after it.
    Single,
    /// It belongs to a candidate with at least two sightings ("looped" in
    /// the §IV-A.2 sense).
    Looped,
    /// It opened a candidate that a later sighting of its key closed
    /// without continuing it.
    Closed,
}

/// `(timestamp, /24 state index, what step 1 made of it)` for every
/// record still in some prefix history, oldest first: the trim queue. Its
/// length is this detector's history total. A 16-byte entry.
#[derive(Debug, Default)]
struct Log {
    records: VecDeque<(u64, u32, Sighting)>,
    /// The next record's sequence number.
    end: usize,
}

impl Log {
    /// The position of record `seq`, which must still be retained.
    fn index(&self, seq: usize) -> usize {
        seq + self.records.len() - self.end
    }

    fn get(&self, seq: usize) -> Sighting {
        self.records[self.index(seq)].2
    }

    /// Whether record `seq` is looped in the §IV-A.2 sense.
    fn is_looped(&self, seq: usize) -> bool {
        self.get(seq) == Sighting::Looped
    }

    fn set(&mut self, seq: usize, sighting: Sighting) {
        let i = self.index(seq);
        self.records[i].2 = sighting;
    }
}

/// Single-pass detector: the step-1 scanner, and the state of steps 2–3
/// that it reports to.
pub struct OnlineDetector {
    scanner: CandidateScanner,
    core: Core,
}

/// Everything an [`OnlineDetector`] keeps besides its scanner.
struct Core {
    cfg: DetectorConfig,
    history_horizon_ns: u64,
    now: u64,
    /// `now - max_replica_gap`: records before it are out of the replica
    /// window.
    cutoff: u64,
    /// Each /24 of this trace: the index of its state in `states`. The
    /// /24 passes visit the /24s in this map's order.
    prefixes: FxHashMap<Ipv4Prefix, u32>,
    /// Per-/24 state, by order of first record. States past the map's
    /// length are emptied ones of an earlier trace, kept for reuse.
    states: Vec<PrefixState>,
    log: Log,
    /// The events completed during the current push.
    events: Vec<OnlineEvent>,
    /// Open candidates with two or more sightings.
    multis: usize,
    /// The earliest time-decided recheck (`Recheck::due`) over all /24s
    /// (`u64::MAX` when there is none).
    flush_due: u64,
    /// Number of /24s in `Recheck::Now`.
    recheck_now: usize,
    /// This detector's contributions to the fleet-total gauges as last
    /// published.
    reported_open: i64,
    reported_history: i64,
    stats: OnlineStats,
    /// The fingerprint each key arrived under, kept in debug builds to
    /// check the invariant step 1 relies on: one key, one fingerprint (a
    /// pure function of the key).
    #[cfg(debug_assertions)]
    fingerprints: FxHashMap<ReplicaKey, u64>,
}

/// Streaming counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Records consumed.
    pub records: u64,
    /// Candidates with >= 2 sightings seen so far.
    pub raw_candidates: u64,
    /// Rejected: too few replicas.
    pub rejected_short: u64,
    /// Rejected: co-loop rule.
    pub rejected_covalidation: u64,
    /// Times a sighting failed the RFC 1624 checksum-consistency check and
    /// forced a candidate split (same quantity as
    /// [`crate::DetectionStats::checksum_splits`]).
    pub checksum_splits: u64,
    /// Validated streams emitted.
    pub streams_emitted: u64,
    /// Loops emitted.
    pub loops_emitted: u64,
    /// Total replica sightings across emitted streams (same quantity as
    /// [`crate::DetectionStats::looped_sightings`]).
    pub looped_sightings: u64,
}

impl OnlineStats {
    /// The streaming counters mapped onto the offline
    /// [`crate::DetectionStats`] layout. On identical input every field
    /// matches the offline detector's — the pipeline conformance tests
    /// assert it.
    pub fn as_detection_stats(&self) -> crate::replica::DetectionStats {
        crate::replica::DetectionStats {
            total_records: self.records,
            raw_candidates: self.raw_candidates,
            rejected_short: self.rejected_short,
            rejected_covalidation: self.rejected_covalidation,
            checksum_splits: self.checksum_splits,
            validated_streams: self.streams_emitted,
            routing_loops: self.loops_emitted,
            looped_sightings: self.looped_sightings,
        }
    }
}

impl OnlineDetector {
    /// Creates a streaming detector with the given (offline-compatible)
    /// configuration, at the scanner's smallest table: a fleet can hold
    /// hundreds of live detectors. What sizes the tables is reuse: a
    /// finished detector keeps them for its next trace, and the sweep
    /// grows them to the busiest replica window seen.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::with_capacity(cfg, 0)
    }

    /// [`Self::new`] with the scanner pre-sized for about `capacity`
    /// simultaneously open keys ([`CandidateScanner::with_capacity`]) —
    /// for a detector that runs one trace alone, which starts at
    /// [`CandidateScanner::DEFAULT_CAPACITY`] as the offline detector
    /// does. The output is the same at every capacity.
    pub fn with_capacity(cfg: DetectorConfig, capacity: usize) -> Self {
        cfg.validate().expect("invalid detector configuration");
        // Exact offline equivalence needs history reaching back from the
        // moment a gap-clean check runs to the start of the gap. A check
        // runs when the later stream closes, i.e. up to one replica gap
        // after its last sighting; the stream itself can span up to 255
        // inter-replica gaps (a TTL is at most 255); and the merge gap
        // precedes the stream. Hence:
        //   horizon >= merge_gap + (255 + 1) * replica_gap.
        let horizon = cfg.merge_gap_ns + cfg.max_replica_gap_ns.saturating_mul(256);
        Self {
            scanner: CandidateScanner::with_capacity(cfg, capacity),
            core: Core {
                cfg,
                history_horizon_ns: horizon,
                now: 0,
                cutoff: 0,
                prefixes: FxHashMap::default(),
                states: Vec::new(),
                log: Log::default(),
                events: Vec::new(),
                multis: 0,
                flush_due: u64::MAX,
                recheck_now: 0,
                reported_open: 0,
                reported_history: 0,
                stats: OnlineStats::default(),
                #[cfg(debug_assertions)]
                fingerprints: FxHashMap::default(),
            },
        }
    }

    /// Shrinks the retained per-prefix history (bounded-memory mode). With
    /// a horizon below the merge gap, step 3's gap-clean rule degrades to
    /// "no *remembered* non-looped packet in the gap", which can merge
    /// loops the offline detector would keep apart.
    ///
    /// The horizon is never shorter than the replica gap, so the history
    /// holds every open single sighting, and with it every record a
    /// promotion marks looped.
    pub fn with_history_horizon(mut self, horizon_ns: u64) -> Self {
        self.core.history_horizon_ns = horizon_ns.max(self.core.cfg.max_replica_gap_ns);
        self
    }

    /// Streaming counters so far.
    pub fn stats(&self) -> &OnlineStats {
        &self.core.stats
    }

    /// Number of currently-open candidates (memory introspection).
    pub fn open_candidates(&self) -> usize {
        self.core.open_candidates()
    }

    /// Pushes one record; returns any events whose evidence completed.
    ///
    /// # Panics
    /// Panics when records go backwards in time.
    pub fn push(&mut self, rec: &TraceRecord) -> Vec<OnlineEvent> {
        self.push_record(rec);
        self.settle_call();
        std::mem::take(&mut self.core.events)
    }

    /// Pushes a batch of records, handing each event to `emit` during the
    /// push of the record that completed it — the same events, in the same
    /// order, as one [`OnlineDetector::push`] per record. The fleet-total
    /// gauges are published once, at the end of the batch.
    ///
    /// # Panics
    /// Panics when records go backwards in time.
    pub fn push_batch(&mut self, records: &[TraceRecord], mut emit: impl FnMut(OnlineEvent)) {
        for rec in records {
            self.push_record(rec);
            if !self.core.events.is_empty() {
                self.core.events.drain(..).for_each(&mut emit);
            }
        }
        self.settle_call();
    }

    fn push_record(&mut self, rec: &TraceRecord) {
        let core = &mut self.core;
        assert!(
            rec.timestamp_ns >= core.now,
            "records must be pushed in timestamp order"
        );
        core.now = rec.timestamp_ns;
        core.cutoff = core.now.saturating_sub(core.cfg.max_replica_gap_ns);

        // Expire stale candidates and quiet loops *before* processing, so
        // a record at time T sees exactly the state the offline pass would
        // have built from records before T. Candidates silent past the
        // replica gap can never grow again: the scanner closes those with
        // two or more sightings, and the single sightings leave the window.
        self.scanner.expire_before(self.core.cutoff, &mut self.core);
        self.core.expire();

        // Step 1 (incremental): candidate join / split. The scanner's
        // record indices are sequence numbers here, which coincide with
        // the offline detector's global positions when the same trace is
        // replayed from the start.
        let seq = self.core.record(rec);
        self.scanner.push_prefiltered(seq, rec, &mut self.core);
    }

    /// Brings the counters kept elsewhere into the stats, and the gauges
    /// up to date, once per public call.
    fn settle_call(&mut self) {
        let core = &mut self.core;
        core.stats.records = core.log.end as u64;
        core.stats.checksum_splits = self.scanner.counters().checksum_splits;
        core.publish_gauges();
    }

    /// Flushes everything at end of trace; returns the tail events and
    /// the final counters. Publishes the `replica.*` step-1 counters.
    ///
    /// The detector is then empty, as [`OnlineDetector::new`] made it with
    /// the same configuration and horizon, and takes a new trace from its
    /// first record. It keeps what it allocated: the scanner's tables at
    /// the size they reached, and its record log and per-/24 histories.
    pub fn finish(&mut self) -> (Vec<OnlineEvent>, OnlineStats) {
        let (closed, counters) = self.scanner.finish_and_reset();
        let core = &mut self.core;
        core.stats.records = core.log.end as u64;
        core.stats.checksum_splits = counters.checksum_splits;
        publish_scan_totals(core.stats.records as usize, &counters);
        publish_checksum_splits(counters.checksum_splits);
        for stream in closed {
            core.close_candidate(stream);
        }
        // Force-flush every pending loop.
        for &i in core.prefixes.values() {
            let state = &mut core.states[i as usize];
            let (loops, _) = state.take_final_loops(&core.cfg, &core.log, None);
            for l in loops {
                emit_loop(&mut core.stats, &mut core.events, l);
            }
        }
        let mut events = std::mem::take(&mut core.events);
        events.sort_by_key(|e| match e {
            OnlineEvent::Stream(s) => (0u8, s.start_ns(), s.key.ident),
            OnlineEvent::Loop(l) => (1u8, l.start_ns, 0),
        });
        let stats = core.stats;
        core.reset();
        (events, stats)
    }
}

impl Core {
    /// Logs `rec` as a new single sighting in its /24's history and returns
    /// its sequence number.
    fn record(&mut self, rec: &TraceRecord) -> usize {
        let seq = self.log.end;
        let next = self.prefixes.len() as u32;
        let i = *self
            .prefixes
            .entry(Ipv4Prefix::slash24_of(rec.dst))
            .or_insert(next);
        if i as usize == self.states.len() {
            self.states.push(PrefixState::default());
        }
        self.states[i as usize].history.push(rec.timestamp_ns, seq);
        self.log
            .records
            .push_back((rec.timestamp_ns, i, Sighting::Single));
        self.log.end += 1;
        #[cfg(debug_assertions)]
        {
            // Forgetting every key now and then keeps the map as small as
            // the retained history; the check only looks back less far.
            let key = ReplicaKey::of(rec);
            if self.fingerprints.len() > 4 * self.log.records.len().max(1024) {
                self.fingerprints.clear();
            }
            let fp = *self.fingerprints.entry(key).or_insert(rec.fingerprint);
            assert_eq!(
                fp, rec.fingerprint,
                "one replica key carries two fingerprints: {key:?}"
            );
        }
        seq
    }

    /// Record `idx`, a single sighting of `rec`'s key at `start`, became
    /// `to`. If it held its /24 blocked, look again on the next pass.
    fn settle(
        &mut self,
        idx: usize,
        start: u64,
        rec: &TraceRecord,
        to: Sighting,
    ) -> &mut PrefixState {
        self.log.set(idx, to);
        let state = &mut self.states[self.prefixes[&Ipv4Prefix::slash24_of(rec.dst)] as usize];
        if let Recheck::Blocked { horizon, .. } = state.recheck {
            if start <= horizon {
                state.recheck = Recheck::Now;
                self.recheck_now += 1;
            }
        }
        state
    }

    /// Open candidates: the candidates with two or more sightings, and the
    /// single sightings of the last replica gap, counted back from the
    /// newest record. Asked once per public call, not kept per record.
    fn open_candidates(&self) -> usize {
        let cutoff = self.cutoff;
        let singles = self
            .log
            .records
            .iter()
            .rev()
            .take_while(|&&(t, _, _)| t >= cutoff)
            .filter(|&&(_, _, sighting)| sighting == Sighting::Single)
            .count();
        self.multis + singles
    }

    /// Empties the detector for a new trace, keeping its allocations, and
    /// takes its share back out of the fleet-total gauges.
    fn reset(&mut self) {
        self.now = 0;
        self.cutoff = 0;
        // The /24 passes visit the map in its order, which decides the
        // order of loops that become final on one push. So the map is
        // rebuilt, to grow exactly as a new detector's does, and only the
        // /24 states, with their history capacity, are kept.
        for state in &mut self.states[..self.prefixes.len()] {
            state.clear();
        }
        self.prefixes = FxHashMap::default();
        self.log.records.clear();
        self.log.end = 0;
        self.events.clear();
        debug_assert_eq!(self.multis, 0, "finish closes every candidate");
        self.flush_due = u64::MAX;
        self.recheck_now = 0;
        self.stats = OnlineStats::default();
        #[cfg(debug_assertions)]
        self.fingerprints.clear();
        self.publish_gauges();
    }

    /// Brings the fleet-total gauges up to date with this detector's share.
    fn publish_gauges(&mut self) {
        let open = self.open_candidates() as i64;
        if open != self.reported_open {
            TM_OPEN_CANDIDATES.add(open - self.reported_open);
            self.reported_open = open;
        }
        let history = self.log.records.len() as i64;
        if history != self.reported_history {
            TM_PREFIX_HISTORY.add(history - self.reported_history);
            self.reported_history = history;
        }
    }

    /// Emits loops that became final and trims history past the horizon.
    fn expire(&mut self) {
        let cutoff = self.cutoff;
        // Emit loops whose composition can no longer change. Only /24s
        // whose recheck condition has come true can emit, so the pass is
        // skipped until one has; it visits the /24s in map order.
        if self.now > self.flush_due || self.recheck_now > 0 {
            let now = self.now;
            let mut due = u64::MAX;
            for &i in self.prefixes.values() {
                let state = &mut self.states[i as usize];
                if state.recheck == Recheck::Now || state.recheck.due().is_some_and(|t| now > t) {
                    let barrier = state.barrier(now, cutoff, &self.log);
                    let (loops, next) = state.take_final_loops(&self.cfg, &self.log, Some(barrier));
                    for l in loops {
                        emit_loop(&mut self.stats, &mut self.events, l);
                    }
                    state.recheck = match next {
                        None => Recheck::Idle,
                        Some(horizon) if horizon >= now => Recheck::After(horizon),
                        Some(horizon) => state.blocked(horizon, cutoff, &self.cfg, &self.log),
                    };
                }
                if let Some(t) = state.recheck.due() {
                    due = due.min(t);
                }
            }
            self.flush_due = due;
            self.recheck_now = 0;
        }

        // Trim history, oldest record first.
        let h_cutoff = self.now.saturating_sub(self.history_horizon_ns);
        while let Some(&(t, i, _)) = self.log.records.front() {
            if t >= h_cutoff {
                break;
            }
            self.log.records.pop_front();
            self.states[i as usize].history.pop_front();
        }
    }

    fn close_candidate(&mut self, stream: ReplicaStream) {
        let state =
            &mut self.states[self.prefixes[&Ipv4Prefix::slash24_of(stream.key.dst)] as usize];
        state.open_cands.remove(&stream.record_indices[0]);
        self.multis -= 1;
        if let Recheck::Blocked {
            horizon,
            multis,
            singles_due,
        } = &mut state.recheck
        {
            if stream.start_ns() <= *horizon {
                *multis -= 1;
                if *multis == 0 {
                    self.flush_due = self.flush_due.min(*singles_due);
                }
            }
        }
        // Step 2.
        let log = &self.log;
        let all_looped = |from, to| state.history.all_looped(from, to, |id| log.is_looped(id));
        match judge(&stream, all_looped, &self.cfg) {
            Verdict::Kept => {}
            Verdict::Short => {
                self.stats.rejected_short += 1;
                return;
            }
            Verdict::CoLoopVeto => {
                self.stats.rejected_covalidation += 1;
                return;
            }
        }
        self.stats.streams_emitted += 1;
        self.stats.looped_sightings += stream.len() as u64;
        trace::instant(&TR_STREAM_EMITTED);
        self.events.push(OnlineEvent::Stream(stream.clone()));
        // Step 3 is deferred: the stream joins the prefix's pending set and
        // loops are emitted once their composition is final.
        // Any loop holding the new stream ends no earlier than it does,
        // so it cannot be final before `due`. Whichever loop comes first
        // from now on is due no earlier than `min(horizon, due)`; while
        // that is `horizon`, a blocked /24 still needs every counted
        // candidate to close, so it stays blocked.
        let due = stream.end_ns().saturating_add(self.cfg.merge_gap_ns);
        state.pending.push(stream);
        let after = match state.recheck {
            Recheck::Idle => due,
            Recheck::After(t) => t.min(due),
            Recheck::Blocked { horizon, .. } if due < horizon => due,
            Recheck::Blocked { .. } | Recheck::Now => return,
        };
        state.recheck = Recheck::After(after);
        self.flush_due = self.flush_due.min(after);
    }
}

impl Drop for Core {
    /// Takes this detector's share back out of the fleet-total gauges.
    fn drop(&mut self) {
        TM_OPEN_CANDIDATES.add(-self.reported_open);
        TM_PREFIX_HISTORY.add(-self.reported_history);
    }
}

impl ScanObserver for Core {
    fn promoted(&mut self, first_idx: usize, first_ns: u64, rec: &TraceRecord, idx: usize) {
        // The candidate becomes a real replica set: both of its records
        // count as looped, and it holds its /24's barrier until it closes.
        self.stats.raw_candidates += 1;
        self.multis += 1;
        self.joined(idx);
        self.settle(first_idx, first_ns, rec, Sighting::Looped)
            .open_cands
            .insert(first_idx, first_ns);
    }

    fn joined(&mut self, idx: usize) {
        self.log.set(idx, Sighting::Looped);
    }

    fn single_closed(&mut self, idx: usize, ns: u64, rec: &TraceRecord) {
        // The level-0 table keeps a seed until a sweep, so a seed closed
        // here may have expired already.
        if ns >= self.cutoff {
            self.settle(idx, ns, rec, Sighting::Closed);
        }
    }

    fn closed(&mut self, stream: ReplicaStream) -> Option<ReplicaStream> {
        self.close_candidate(stream);
        None
    }
}

impl PrefixState {
    /// Empties the state, keeping its allocations.
    fn clear(&mut self) {
        self.history.clear();
        self.pending.clear();
        self.open_cands.clear();
        self.recheck = Recheck::Idle;
    }

    /// Start times of this /24's open single sightings, oldest first: its
    /// single sightings no older than `cutoff`.
    fn open_singles<'a>(&'a self, cutoff: u64, log: &'a Log) -> impl Iterator<Item = u64> + 'a {
        self.history
            .since(cutoff)
            .filter(|&(_, seq)| log.get(seq) == Sighting::Single)
            .map(|(t, _)| t)
    }

    /// No future stream to this /24 starts before `min(now, start of its
    /// oldest open candidate)`.
    fn barrier(&self, now: u64, cutoff: u64, log: &Log) -> u64 {
        let multis = self.open_cands.values().copied().min();
        let singles = self.open_singles(cutoff, log).next();
        multis.into_iter().chain(singles).fold(now, u64::min)
    }

    /// The `Blocked` state for a first pending loop due at `horizon`.
    fn blocked(&self, horizon: u64, cutoff: u64, cfg: &DetectorConfig, log: &Log) -> Recheck {
        let last_single = self
            .open_singles(cutoff, log)
            .take_while(|&t| t <= horizon)
            .last();
        Recheck::Blocked {
            horizon,
            multis: self.open_cands.values().filter(|&&t| t <= horizon).count(),
            singles_due: last_single.map_or(0, |t| t + cfg.max_replica_gap_ns),
        }
    }

    /// Step 3 over the pending streams ([`merge_runs`]): takes out every
    /// loop that no future stream can still join, since future streams
    /// start no earlier than `barrier`, or every loop with no barrier (end
    /// of trace). Also returns the first remaining loop's end plus the
    /// merge gap.
    fn take_final_loops(
        &mut self,
        cfg: &DetectorConfig,
        log: &Log,
        barrier: Option<u64>,
    ) -> (Vec<RoutingLoop>, Option<u64>) {
        let mut loops = Vec::new();
        let history = &self.history;
        let all_looped = |from, to| history.all_looped(from, to, |id| log.is_looped(id));
        let next = merge_runs(&mut self.pending, all_looped, cfg, barrier, &mut loops);
        (loops, next)
    }
}

/// Counts and emits one finalised loop.
fn emit_loop(stats: &mut OnlineStats, events: &mut Vec<OnlineEvent>, l: RoutingLoop) {
    stats.loops_emitted += 1;
    trace::instant(&TR_LOOP_EMITTED);
    tm_trace!(
        "loop finalised for {}: {} streams over {} ns",
        l.prefix,
        l.streams.len(),
        l.end_ns - l.start_ns
    );
    events.push(OnlineEvent::Loop(l));
}

/// Runs the streaming detector over a full trace and collects the events —
/// the bridge used to compare online and offline results.
pub fn run_streaming(
    cfg: DetectorConfig,
    records: &[TraceRecord],
) -> (Vec<OnlineEvent>, OnlineStats) {
    let mut det = OnlineDetector::new(cfg);
    let mut events = Vec::new();
    det.push_batch(records, |ev| events.push(ev));
    let (mut tail, stats) = det.finish();
    events.append(&mut tail);
    (events, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ReplicaKey;
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

    fn streams_of(events: &[OnlineEvent]) -> Vec<&ReplicaStream> {
        events
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::Stream(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn loops_of(events: &[OnlineEvent]) -> Vec<&RoutingLoop> {
        events
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::Loop(l) => Some(l),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_loop_streamed() {
        let recs = looping_records(0, 1_000_000, 60, 10, 1, Ipv4Addr::new(203, 0, 113, 1));
        let (events, stats) = run_streaming(DetectorConfig::default(), &recs);
        let streams = streams_of(&events);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].len(), 10);
        assert_eq!(loops_of(&events).len(), 1);
        assert_eq!(stats.records, 10);
        assert_eq!(stats.streams_emitted, 1);
    }

    #[test]
    fn stream_emitted_on_gap_expiry_not_before() {
        let recs = looping_records(0, 1_000_000, 60, 5, 1, Ipv4Addr::new(203, 0, 113, 1));
        let mut det = OnlineDetector::new(DetectorConfig::default());
        let mut live_events = Vec::new();
        for r in &recs {
            live_events.extend(det.push(r));
        }
        assert!(live_events.is_empty(), "stream still open, nothing emitted");
        // A later unrelated record past the gap triggers the flush.
        let mut other = Packet::tcp_flags(
            Ipv4Addr::new(100, 1, 1, 1),
            Ipv4Addr::new(198, 51, 100, 1),
            9,
            9,
            TcpFlags::ACK,
            &b""[..],
        );
        other.ip.ident = 999;
        other.fill_checksums();
        let late = TraceRecord::from_packet(10_000_000_000, &other);
        let events = det.push(&late);
        assert_eq!(streams_of(&events).len(), 1);
    }

    #[test]
    fn matches_offline_on_multi_loop_trace() {
        let mut recs = Vec::new();
        for j in 0..6u16 {
            recs.extend(looping_records(
                u64::from(j) * 2_000_000_000,
                1_500_000,
                64,
                4 + usize::from(j % 3),
                j,
                Ipv4Addr::new(203, 0, (j % 4) as u8, 1),
            ));
        }
        // Background noise.
        for i in 0..200u16 {
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
            recs.push(TraceRecord::from_packet(u64::from(i) * 40_000_000, &p));
        }
        recs.sort_by_key(|r| r.timestamp_ns);

        let offline = Detector::new(DetectorConfig::default()).run(&recs);
        let (events, stats) = run_streaming(DetectorConfig::default(), &recs);
        let streams = streams_of(&events);
        assert_eq!(streams.len(), offline.streams.len());
        for (a, b) in streams.iter().zip(&offline.streams) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.observations, b.observations);
        }
        let loops = loops_of(&events);
        assert_eq!(loops.len(), offline.loops.len());
        assert_eq!(stats.raw_candidates, offline.stats.raw_candidates);
        assert_eq!(stats.rejected_short, offline.stats.rejected_short);
    }

    #[test]
    fn covalidation_applies_online() {
        let mut recs = looping_records(0, 1_000_000, 60, 5, 1, Ipv4Addr::new(203, 0, 113, 9));
        let mut bystander = Packet::tcp_flags(
            Ipv4Addr::new(100, 2, 2, 2),
            Ipv4Addr::new(203, 0, 113, 10),
            777,
            443,
            TcpFlags::ACK,
            &b""[..],
        );
        bystander.ip.ident = 999;
        bystander.fill_checksums();
        recs.push(TraceRecord::from_packet(2_000_000, &bystander));
        recs.sort_by_key(|r| r.timestamp_ns);
        let (events, stats) = run_streaming(DetectorConfig::default(), &recs);
        assert!(streams_of(&events).is_empty());
        assert_eq!(stats.rejected_covalidation, 1);
    }

    #[test]
    fn long_stream_dirty_gap_matches_offline() {
        // Regression: the gap-clean check for a *long* later stream runs
        // long after the gap itself. A non-looped packet early in the gap
        // must still veto the merge, which requires the history horizon to
        // cover merge_gap + the stream's own duration.
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let mut recs = looping_records(0, 1_000_000, 30, 4, 1, dst); // L1: ~3 ms
                                                                     // The dirty bystander: one non-looped packet to the /24 at 300 ms.
        let mut bystander = Packet::tcp_flags(
            Ipv4Addr::new(100, 2, 2, 2),
            Ipv4Addr::new(203, 0, 113, 40),
            777,
            443,
            TcpFlags::ACK,
            &b""[..],
        );
        bystander.ip.ident = 999;
        bystander.fill_checksums();
        recs.push(TraceRecord::from_packet(300_000_000, &bystander));
        // L2: 25 sightings spaced 200 ms -> ~4.8 s duration, starting 59 s
        // after L1 (inside the 60 s merge gap).
        recs.extend(looping_records(59_000_000_000, 200_000_000, 64, 25, 2, dst));
        // A trailing unrelated record to force expiry + flush via push.
        let mut trailer = Packet::tcp_flags(
            Ipv4Addr::new(100, 3, 3, 3),
            Ipv4Addr::new(198, 51, 100, 1),
            5,
            6,
            TcpFlags::ACK,
            &b""[..],
        );
        trailer.ip.ident = 1234;
        trailer.fill_checksums();
        recs.push(TraceRecord::from_packet(70_000_000_000, &trailer));
        recs.sort_by_key(|r| r.timestamp_ns);

        let offline = Detector::new(DetectorConfig::default()).run(&recs);
        assert_eq!(offline.loops.len(), 2, "offline must keep the loops apart");
        let (events, _) = run_streaming(DetectorConfig::default(), &recs);
        assert_eq!(
            loops_of(&events).len(),
            2,
            "online must also keep them apart"
        );
    }

    #[test]
    fn start_and_ident_ties_close_in_first_record_order() {
        // Two loops of different packets that share a start time and an
        // IP ident expire on the same push; they must close in the order
        // their first records arrived, whatever the hash order.
        let a = looping_records(0, 1_000_000, 60, 4, 7, Ipv4Addr::new(203, 0, 113, 1));
        let b = looping_records(0, 1_000_000, 60, 4, 7, Ipv4Addr::new(198, 51, 100, 1));
        for (first, second) in [(&a, &b), (&b, &a)] {
            let mut recs = Vec::new();
            for (x, y) in first.iter().zip(second) {
                recs.push(*x);
                recs.push(*y);
            }
            let mut det = OnlineDetector::new(DetectorConfig::default());
            for r in &recs {
                assert!(det.push(r).is_empty());
            }
            let late = looping_records(10_000_000_000, 1, 60, 1, 9, Ipv4Addr::new(192, 0, 2, 1));
            let events = det.push(&late[0]);
            let streams = streams_of(&events);
            assert_eq!(streams.len(), 2);
            assert_eq!(streams[0].key.dst, first[0].dst);
            assert_eq!(streams[1].key.dst, second[0].dst);
        }
    }

    /// `n` sightings of one looping packet of an unparsed protocol whose
    /// 8 body bytes are its whole transport summary, TTL dropping by 2.
    fn opaque_sightings(
        times_ns: &[u64],
        ident: u16,
        body: [u8; 8],
        dst: Ipv4Addr,
    ) -> Vec<TraceRecord> {
        let mut p = Packet::opaque(
            Ipv4Addr::new(100, 7, 7, 7),
            dst,
            net_types::IpProtocol::Other(47),
            body.to_vec(),
        );
        p.ip.ident = ident;
        p.ip.ttl = 60;
        p.fill_checksums();
        let mut out = Vec::new();
        for (k, &t) in times_ns.iter().enumerate() {
            if k > 0 {
                p.ip.decrement_ttl();
                p.ip.decrement_ttl();
            }
            out.push(TraceRecord::from_packet(t, &p));
        }
        out
    }

    /// The body that gives the packet with `ident` the same fingerprint as
    /// `(ident_a, body_a)`: the two keys differ, their fingerprints do not.
    /// The fingerprint's last round mixes the body in as one word, and the
    /// mixer's multiply is invertible, so the word can be solved for.
    fn colliding_body(ident_a: u16, body_a: [u8; 8], ident: u16, dst: Ipv4Addr) -> [u8; 8] {
        let mut inverse = crate::fxhash::SEED;
        for _ in 0..6 {
            inverse =
                inverse.wrapping_mul(2u64.wrapping_sub(crate::fxhash::SEED.wrapping_mul(inverse)));
        }
        // With a zero body the final word is the rotated running hash.
        let rotated = |ident| {
            let rec = opaque_sightings(&[0], ident, [0; 8], dst)[0];
            ReplicaKey::of(&rec).fingerprint().wrapping_mul(inverse)
        };
        (u64::from_le_bytes(body_a) ^ rotated(ident_a) ^ rotated(ident)).to_le_bytes()
    }

    #[test]
    fn colliding_keys_close_split_and_expire_like_offline() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let body_a = *b"collide!";
        let body_b = colliding_body(1, body_a, 2, dst);
        let ms = |t: u64| t * 1_000_000;
        let a = opaque_sightings(&[ms(0), ms(2), ms(4), ms(6), ms(8)], 1, body_a, dst);
        // B loops, then a sighting with a TTL no lower than its last one
        // splits it, and the second candidate grows into a stream too.
        let mut b = opaque_sightings(&[ms(1), ms(3), ms(5), ms(7)], 2, body_b, dst);
        b.extend(opaque_sightings(&[ms(9), ms(11), ms(13)], 2, body_b, dst));
        assert_ne!(ReplicaKey::of(&a[0]), ReplicaKey::of(&b[0]));
        assert_eq!(a[0].fingerprint, b[0].fingerprint, "forced collision");
        // A late record expires everything mid-trace, then C opens.
        let late = looping_records(5_000_000_000, 1, 60, 1, 9, Ipv4Addr::new(192, 0, 2, 1));
        let mut recs = [a, b, late].concat();
        recs.sort_by_key(|r| r.timestamp_ns);

        let mut det = OnlineDetector::new(DetectorConfig::default());
        let mut events = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            events.extend(det.push(r));
            if i == 1 {
                assert_eq!(det.open_candidates(), 2, "one candidate per key");
            }
        }
        assert_eq!(det.open_candidates(), 1, "A and B expired on the late push");
        let (tail, stats) = det.finish();
        events.extend(tail);

        let offline = Detector::new(DetectorConfig::default()).run(&recs);
        let mut streams: Vec<ReplicaStream> = streams_of(&events).into_iter().cloned().collect();
        streams.sort_by_key(|s| (s.start_ns(), s.record_indices[0]));
        assert_eq!(streams.len(), 3, "A, and B on both sides of its split");
        assert_eq!(streams, offline.streams);
        let loops: Vec<RoutingLoop> = loops_of(&events).into_iter().cloned().collect();
        assert_eq!(loops, offline.loops);
        assert_eq!(stats.as_detection_stats(), offline.stats);
    }

    #[test]
    fn same_time_successor_closes_on_its_own_last_sighting() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let ms = |t: u64| t * 1_000_000;
        let recs = looping_records(0, ms(1), 60, 2, 1, dst);
        let mut det = OnlineDetector::new(DetectorConfig::default());
        det.push(&recs[0]);
        det.push(&recs[1]);
        // The same sighting again at the same time: not a continuation, so
        // the two-sighting candidate closes at once and a successor opens
        // at the old candidate's last sighting time.
        assert!(det.push(&recs[1]).is_empty());
        assert_eq!(det.stats().rejected_short, 1, "closed on the push");
        assert_eq!(det.open_candidates(), 1, "the successor");

        // Unrelated probes move the clock on.
        let at = |t: u64| {
            let mut r = recs[0];
            r.dst = Ipv4Addr::new(192, 0, 2, 1);
            r.timestamp_ns = t;
            r.ident = t as u16;
            r.with_fingerprint()
        };
        // A replica gap past the first sighting only.
        det.push(&at(ms(1_000) + ms(1) / 2));
        assert_eq!(det.open_candidates(), 2, "successor still open");
        // Past the 1 ms sightings: the successor closes (one sighting, no
        // stream) once, on its own last sighting.
        assert!(det.push(&at(ms(1_002))).is_empty());
        assert_eq!(det.open_candidates(), 2, "only the two probes remain");
        let (_, stats) = det.finish();
        assert_eq!(stats.rejected_short, 1, "the 2-sighting first candidate");
        assert_eq!(stats.raw_candidates, 1);
    }

    #[test]
    fn blocking_single_closed_early_releases_its_loop_on_the_next_push() {
        let cfg = DetectorConfig {
            max_replica_gap_ns: 50_000_000,
            merge_gap_ns: 20_000_000,
            ..DetectorConfig::default()
        };
        let ms = |t: u64| t * 1_000_000;
        let probe =
            |t: u64| looping_records(ms(t), 1, 60, 1, t as u16, Ipv4Addr::new(192, 0, 2, 1))[0];
        // A loop on the /24 ending at 3 ms, due at 23 ms, and a single
        // sighting to the /24 at 20 ms that holds it back.
        let mut det = OnlineDetector::new(cfg);
        for r in looping_records(0, ms(1), 60, 4, 1, Ipv4Addr::new(203, 0, 113, 1)) {
            assert!(det.push(&r).is_empty());
        }
        let single = looping_records(ms(20), 1, 60, 1, 2, Ipv4Addr::new(203, 0, 113, 2))[0];
        det.push(&single);
        let events = det.push(&probe(60));
        assert_eq!((streams_of(&events).len(), loops_of(&events).len()), (1, 0));
        // A duplicate (same TTL) closes the single early: the loop leaves
        // on the next push, not once the single would have expired.
        let mut duplicate = single;
        duplicate.timestamp_ns = ms(61);
        assert!(det.push(&duplicate).is_empty());
        assert_eq!(loops_of(&det.push(&probe(62))).len(), 1);
    }

    #[test]
    fn short_history_horizon_does_not_leak_looped_records() {
        // Each packet's second sighting comes 10 ms after its first, far
        // past a 1 ms horizon. The horizon is floored at the replica gap,
        // so the first sighting is still retained when the promotion marks
        // it looped, and is trimmed, with its mark, later.
        let mut det =
            OnlineDetector::new(DetectorConfig::default()).with_history_horizon(1_000_000);
        for i in 0..2_000u16 {
            let start = u64::from(i) * 2_030_000_000;
            let dst = Ipv4Addr::new(203, 0, 113, 1);
            for r in looping_records(start, 10_000_000, 60, 4, i, dst) {
                det.push(&r);
            }
        }
        assert_eq!(det.core.log.records.len(), 4, "the last packet's sightings");
        assert_eq!(det.stats().raw_candidates, 2_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two fingerprints")]
    fn one_key_under_two_fingerprints_is_caught_in_debug_builds() {
        let recs = looping_records(0, 1_000_000, 60, 2, 1, Ipv4Addr::new(203, 0, 113, 1));
        let mut det = OnlineDetector::new(DetectorConfig::default());
        det.push(&recs[0]);
        let mut forged = recs[1];
        forged.fingerprint ^= 1;
        det.push(&forged);
    }

    #[test]
    fn push_batch_matches_single_pushes() {
        let mut recs = Vec::new();
        for j in 0..6u16 {
            recs.extend(looping_records(
                u64::from(j) * 700_000_000,
                1_500_000,
                64,
                3 + usize::from(j % 3),
                j,
                Ipv4Addr::new(203, 0, (j % 3) as u8, 1),
            ));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        let mut single = OnlineDetector::new(DetectorConfig::default());
        let per_record: Vec<Vec<OnlineEvent>> = recs.iter().map(|r| single.push(r)).collect();
        assert!(per_record.iter().any(|e| !e.is_empty()), "events mid-trace");
        for chunk in [1, 2, 7, recs.len()] {
            let mut batched = OnlineDetector::new(DetectorConfig::default());
            for (i, batch) in recs.chunks(chunk).enumerate() {
                let mut got = Vec::new();
                batched.push_batch(batch, |e| got.push(e));
                let want: Vec<OnlineEvent> = per_record[i * chunk..][..batch.len()].concat();
                assert_eq!(got, want, "chunk {chunk}, batch {i}");
                // The published share is the live share once a call returns.
                assert_eq!(batched.core.reported_open, batched.open_candidates() as i64);
                assert_eq!(
                    batched.core.reported_history,
                    batched.core.log.records.len() as i64
                );
            }
            assert_eq!(batched.stats(), single.stats());
        }
    }

    #[test]
    fn a_finished_detector_takes_a_new_trace_like_a_new_one() {
        let cfg = DetectorConfig {
            max_replica_gap_ns: 50_000_000,
            merge_gap_ns: 1_000_000_000,
            ..DetectorConfig::default()
        };
        let ms = 1_000_000;
        let dst = |ident: u16| Ipv4Addr::new(203, 0, (ident % 3) as u8, 1);
        // Eight loops from `start_ns` on, one every 400 ms.
        let loops = |start_ns: u64, seed: u16| {
            (0..8u16).flat_map(move |j| {
                let (n, ident) = (2 + usize::from((j + seed) % 4), j + seed);
                looping_records(
                    start_ns + u64::from(j) * 400 * ms,
                    2 * ms,
                    64,
                    n,
                    ident,
                    dst(ident),
                )
            })
        };
        let sorted = |mut recs: Vec<TraceRecord>| {
            recs.sort_by_key(|r| r.timestamp_ns);
            recs
        };
        let second = sorted(loops(4_000 * ms, 100).collect());
        // The first trace ends on single sightings of the second's packets,
        // two TTL steps up and 10 ms before them: had the scanner kept
        // them, the second trace's first sightings would join them.
        let first = sorted(
            loops(0, 0)
                .chain((0..8u16).map(|j| {
                    let start = 4_000 * ms + u64::from(j) * 400 * ms - 10 * ms;
                    looping_records(start, 1, 66, 1, j + 100, dst(j + 100))[0]
                }))
                .collect(),
        );
        let mut reused = OnlineDetector::new(cfg);
        for r in &first {
            reused.push(r);
        }
        assert!(reused.open_candidates() > 0, "the first trace ends open");
        let (_, stats) = reused.finish();
        assert_eq!(stats.records, first.len() as u64);
        // Empty again, and this detector's gauge shares are taken back.
        assert_eq!(reused.open_candidates(), 0);
        assert_eq!(reused.stats(), &OnlineStats::default());
        assert_eq!(
            (reused.core.reported_open, reused.core.reported_history),
            (0, 0)
        );
        assert!(reused.core.log.records.is_empty());

        let mut fresh = OnlineDetector::new(cfg);
        for r in &second {
            assert_eq!(reused.push(r), fresh.push(r));
            assert_eq!(reused.open_candidates(), fresh.open_candidates());
        }
        assert_eq!(reused.finish(), fresh.finish());
    }

    #[test]
    fn merge_gap_bridges_online() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let mut recs = looping_records(0, 1_000_000, 60, 4, 1, dst);
        recs.extend(looping_records(30_000_000_000, 1_000_000, 60, 4, 2, dst));
        recs.sort_by_key(|r| r.timestamp_ns);
        let (events, _) = run_streaming(DetectorConfig::default(), &recs);
        let loops = loops_of(&events);
        assert_eq!(loops.len(), 1, "30 s gap must bridge");
        assert_eq!(loops[0].num_streams(), 2);
    }

    #[test]
    fn unrelated_traffic_bounded_memory() {
        let mut det = OnlineDetector::new(DetectorConfig::default());
        for i in 0..20_000u32 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 3, 3, 3),
                Ipv4Addr::new(20, 1, (i % 7) as u8, 1),
                2000,
                80,
                TcpFlags::ACK,
                &b""[..],
            );
            p.ip.ident = i as u16;
            p.fill_checksums();
            // 10 ms apart: after the 1 s replica gap, old candidates are
            // evicted, so at most ~100 remain open.
            det.push(&TraceRecord::from_packet(u64::from(i) * 10_000_000, &p));
        }
        assert!(
            det.open_candidates() < 200,
            "candidate table must stay bounded, got {}",
            det.open_candidates()
        );
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_panics() {
        let recs = looping_records(
            1_000_000,
            1_000_000,
            60,
            3,
            1,
            Ipv4Addr::new(203, 0, 113, 1),
        );
        let mut det = OnlineDetector::new(DetectorConfig::default());
        det.push(&recs[2]);
        det.push(&recs[0]);
    }
}
