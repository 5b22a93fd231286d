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
//! A push costs amortised O(1) outside the moments evidence completes.
//! Because records arrive in time order, every deadline the detector waits
//! on is kept in a structure ordered by time:
//!
//! * **Candidate lookup** probes a `u64` index keyed by the ingest-stamped
//!   [`TraceRecord::fingerprint`] and confirms a hit with a full-key
//!   compare, so no per-record work hashes the ~44-byte [`ReplicaKey`].
//!   Candidates live in a slab addressed by `u32` handles; distinct keys
//!   that share a fingerprint chain off one index entry.
//! * **Candidate expiry** pops a FIFO of `(last sighting, handle, epoch)`
//!   entries up to the replica-gap cutoff instead of scanning every open
//!   candidate. Entries whose candidate has since grown or closed are
//!   skipped: a slot's epoch is bumped whenever it is freed, so an entry
//!   queued for an earlier occupant never matches a later one.
//! * **Loop finalisation** is gated per /24. A loop is final only once its
//!   end plus the merge gap lies before a barrier: the earlier of `now` and
//!   the start of the /24's oldest open candidate. Each /24 records what
//!   must happen before it can emit: time must pass its first pending
//!   loop's end plus the merge gap, or the open candidates that started by
//!   then must close. The per-/24 pass has no effect other than emitting,
//!   so it is skipped until one of those happens somewhere (`flush_due` is
//!   the earliest such time).
//! * **History trimming** pops a FIFO of the /24s of all retained records,
//!   oldest first, so each record is trimmed exactly once.
//! * **Gap-clean and co-loop windows** are binary-searched in each /24's
//!   time-sorted history.
//!
//! The fleet-total gauges are published once at the end of each public
//! call ([`OnlineDetector::push`], [`OnlineDetector::push_batch`]), not
//! per record, so detectors on different threads do not contend on them.

use crate::config::DetectorConfig;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::key::ReplicaKey;
use crate::merge::RoutingLoop;
use crate::record::TraceRecord;
use crate::stream::{Observation, ReplicaStream};
use net_types::Ipv4Prefix;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::ops::Range;
use telemetry::trace::{self, TraceName};
use telemetry::{tm_trace, LazyCounter, LazyGauge};

// Fleet totals: every live detector adds its share as a delta and takes it
// back when it is dropped, so concurrent detectors sum instead of
// overwriting each other.
static TM_OPEN_CANDIDATES: LazyGauge = LazyGauge::new("online.open_candidates");
static TM_PREFIX_HISTORY: LazyGauge = LazyGauge::new("online.prefix_history");
static TM_STREAMS_EMITTED: LazyCounter = LazyCounter::new("online.streams_emitted");
static TM_LOOPS_EMITTED: LazyCounter = LazyCounter::new("online.loops_emitted");

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

#[derive(Debug, Default)]
struct OpenCandidate {
    /// The opening sighting and its record sequence number, held inline:
    /// almost every candidate never sees a second sighting, and those
    /// allocate nothing.
    first: Observation,
    first_seq: u64,
    /// The latest sighting (`first` until the candidate grows).
    last: Observation,
    /// Every sighting with its sequence number, filled from the second
    /// sighting on; empty (and unallocated) before that.
    observations: Vec<Observation>,
    record_seqs: Vec<u64>,
    last_ip_checksum: u16,
    protocol: u8,
}

/// Address of a candidate slot in the [`CandidateSlab`].
type Handle = u32;

/// Ends a fingerprint chain.
const NIL: Handle = Handle::MAX;

/// One slab slot: an open candidate, or a free slot awaiting reuse.
#[derive(Debug)]
struct Slot {
    key: ReplicaKey,
    fingerprint: u64,
    /// The next candidate whose key shares this fingerprint (`NIL` ends
    /// the chain).
    next: Handle,
    /// Bumped whenever the slot is freed.
    epoch: u32,
    cand: OpenCandidate,
}

/// The open candidates: a slab of slots addressed by handles, a free list,
/// and a `u64` index from fingerprint to the head of the chain of
/// candidates carrying it. A lookup hashes the fingerprint only; a full
/// key compare confirms each hit, so a fingerprint collision costs a
/// compare but never changes a result.
#[derive(Debug, Default)]
struct CandidateSlab {
    index: FxHashMap<u64, Handle>,
    slots: Vec<Slot>,
    free: Vec<Handle>,
    live: usize,
    /// The fingerprint each open key is indexed under, kept in debug
    /// builds to check the invariant the index shares with the offline
    /// prefilter: one key, one fingerprint (a pure function of the key).
    #[cfg(debug_assertions)]
    indexed_under: FxHashMap<ReplicaKey, u64>,
}

impl CandidateSlab {
    /// The candidate open for `key`, or a new one made by `open`. Returns
    /// its handle and whether it was just opened.
    fn find_or_open(
        &mut self,
        fingerprint: u64,
        key: &ReplicaKey,
        open: impl FnOnce() -> OpenCandidate,
    ) -> (Handle, bool) {
        #[cfg(debug_assertions)]
        assert_eq!(
            *self.indexed_under.entry(*key).or_insert(fingerprint),
            fingerprint,
            "one replica key carries two fingerprints: {key:?}"
        );
        // A new candidate takes the most recently freed slot, or a new one.
        let new = match self.free.last() {
            Some(&h) => h,
            None => Handle::try_from(self.slots.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("fewer than 2^32 - 1 open candidates"),
        };
        let next = match self.index.entry(fingerprint) {
            Entry::Vacant(entry) => {
                entry.insert(new);
                NIL
            }
            Entry::Occupied(entry) => {
                let head = entry.into_mut();
                let mut h = *head;
                while h != NIL {
                    let slot = &self.slots[h as usize];
                    if slot.key == *key {
                        return (h, false);
                    }
                    h = slot.next;
                }
                std::mem::replace(head, new)
            }
        };
        let slot = Slot {
            key: *key,
            fingerprint,
            next,
            epoch: 0,
            cand: open(),
        };
        if self.free.pop().is_some() {
            let reused = &mut self.slots[new as usize];
            *reused = Slot {
                epoch: reused.epoch,
                ..slot
            };
        } else {
            self.slots.push(slot);
        }
        self.live += 1;
        (new, true)
    }

    /// Frees `h` and hands its slot straight to `successor`, the same
    /// key's next candidate: the index is untouched, and the epoch bump
    /// retires the expiry entries of the old candidate.
    fn reopen(&mut self, h: Handle, successor: OpenCandidate) -> OpenCandidate {
        let slot = &mut self.slots[h as usize];
        slot.epoch = slot.epoch.wrapping_add(1);
        std::mem::replace(&mut slot.cand, successor)
    }

    /// Closes `h`: unlinks it from its fingerprint chain and frees its slot.
    fn remove(&mut self, h: Handle) -> (ReplicaKey, OpenCandidate) {
        let (fingerprint, next) = {
            let slot = &self.slots[h as usize];
            (slot.fingerprint, slot.next)
        };
        let head = self
            .index
            .get_mut(&fingerprint)
            .expect("an open candidate's fingerprint is indexed");
        if *head == h {
            if next == NIL {
                self.index.remove(&fingerprint);
            } else {
                *head = next;
            }
        } else {
            let mut prev = *head;
            while self.slots[prev as usize].next != h {
                prev = self.slots[prev as usize].next;
            }
            self.slots[prev as usize].next = next;
        }
        let slot = &mut self.slots[h as usize];
        slot.epoch = slot.epoch.wrapping_add(1);
        self.free.push(h);
        self.live -= 1;
        #[cfg(debug_assertions)]
        self.indexed_under.remove(&slot.key);
        (slot.key, std::mem::take(&mut slot.cand))
    }

    /// Whether an expiry entry `(ts, h, epoch)` still names its candidate's
    /// latest sighting: the slot has not been freed since, and the
    /// candidate has not grown.
    fn is_last_sighting(&self, ts: u64, h: Handle, epoch: u32) -> bool {
        let slot = &self.slots[h as usize];
        slot.epoch == epoch && slot.cand.last.timestamp_ns == ts
    }

    /// Where candidate `h` falls in the close order.
    fn close_order(&self, h: Handle) -> CloseOrder {
        let slot = &self.slots[h as usize];
        (
            slot.cand.first.timestamp_ns,
            slot.key.ident,
            slot.cand.first_seq,
            h,
        )
    }

    /// Every open candidate's handle, in no particular order.
    fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.index.values().flat_map(|&head| {
            std::iter::successors(Some(head), |&h| {
                Some(self.slots[h as usize].next).filter(|&n| n != NIL)
            })
        })
    }
}

/// The order in which candidates expiring on the same push are closed:
/// `(start, ident, first record sequence number)`. The sequence number is
/// unique per candidate, so the order is total.
type CloseOrder = (u64, u16, u64, Handle);

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
    /// passed, but `open` candidates that started by `horizon` hold the
    /// barrier back; all of them must close.
    Blocked { horizon: u64, open: usize },
    /// Look on the next pass: the blocking candidates have closed.
    Now,
}

#[derive(Debug, Default)]
struct PrefixState {
    /// Recent records to this /24: `(timestamp, record sequence number)`,
    /// in time order.
    history: VecDeque<(u64, u64)>,
    /// Validated streams not yet committed to an emitted loop. Merging is
    /// deferred until no open candidate can change the outcome, so the
    /// result is byte-identical to the offline merge.
    pending: Vec<ReplicaStream>,
    /// First-observation time of every open candidate to this prefix,
    /// keyed by the candidate's first record sequence number.
    open_cands: FxHashMap<u64, u64>,
    recheck: Recheck,
}

/// Single-pass detector.
pub struct OnlineDetector {
    cfg: DetectorConfig,
    history_horizon_ns: u64,
    now: u64,
    seq: u64,
    open: CandidateSlab,
    prefixes: FxHashMap<Ipv4Prefix, PrefixState>,
    /// Sequence numbers of records known to belong to a candidate with at
    /// least two sightings ("looped" in the §IV-A.2 sense).
    looped_seqs: FxHashSet<u64>,
    /// `(timestamp, handle, epoch)` of every sighting that created or grew
    /// a candidate, in push (hence time) order: the expiry queue.
    expiry: VecDeque<(u64, Handle, u32)>,
    /// Scratch list of the candidates expiring on one push.
    stale: Vec<CloseOrder>,
    /// The /24 of every record still in some prefix history, oldest first:
    /// the trim queue. Its length is this detector's history total.
    history_order: VecDeque<Ipv4Prefix>,
    /// The earliest `Recheck::After` time over all /24s (`u64::MAX` when
    /// there is none).
    flush_due: u64,
    /// Number of /24s in `Recheck::Now`.
    recheck_now: usize,
    /// This detector's contributions to the fleet-total gauges as last
    /// published.
    reported_open: i64,
    reported_history: i64,
    stats: OnlineStats,
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
    /// configuration.
    pub fn new(cfg: DetectorConfig) -> Self {
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
            cfg,
            history_horizon_ns: horizon,
            now: 0,
            seq: 0,
            open: CandidateSlab::default(),
            prefixes: FxHashMap::default(),
            looped_seqs: FxHashSet::default(),
            expiry: VecDeque::new(),
            stale: Vec::new(),
            history_order: VecDeque::new(),
            flush_due: u64::MAX,
            recheck_now: 0,
            reported_open: 0,
            reported_history: 0,
            stats: OnlineStats::default(),
        }
    }

    /// Shrinks the retained per-prefix history (bounded-memory mode). With
    /// a horizon below the merge gap, step 3's gap-clean rule degrades to
    /// "no *remembered* non-looped packet in the gap", which can merge
    /// loops the offline detector would keep apart.
    pub fn with_history_horizon(mut self, horizon_ns: u64) -> Self {
        self.history_horizon_ns = horizon_ns;
        self
    }

    /// Streaming counters so far.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Number of currently-open candidates (memory introspection).
    pub fn open_candidates(&self) -> usize {
        self.open.live
    }

    /// Pushes one record; returns any events whose evidence completed.
    ///
    /// # Panics
    /// Panics when records go backwards in time.
    pub fn push(&mut self, rec: &TraceRecord) -> Vec<OnlineEvent> {
        let mut events = Vec::new();
        self.push_record(rec, &mut events);
        self.publish_gauges();
        events
    }

    /// Pushes a batch of records, handing each event to `emit` during the
    /// push of the record that completed it — the same events, in the same
    /// order, as one [`OnlineDetector::push`] per record. The fleet-total
    /// gauges are published once, at the end of the batch.
    ///
    /// # Panics
    /// Panics when records go backwards in time.
    pub fn push_batch(&mut self, records: &[TraceRecord], mut emit: impl FnMut(OnlineEvent)) {
        let mut events = Vec::new();
        for rec in records {
            self.push_record(rec, &mut events);
            events.drain(..).for_each(&mut emit);
        }
        self.publish_gauges();
    }

    fn push_record(&mut self, rec: &TraceRecord, events: &mut Vec<OnlineEvent>) {
        assert!(
            rec.timestamp_ns >= self.now,
            "records must be pushed in timestamp order"
        );
        self.now = rec.timestamp_ns;
        self.stats.records += 1;
        let seq = self.seq;
        self.seq += 1;

        // Expire stale candidates and quiet loops *before* processing, so
        // a record at time T sees exactly the state the offline pass would
        // have built from records before T.
        self.expire(events);

        // Record history for the co-loop / gap-clean rules.
        let key = ReplicaKey::of(rec);
        let prefix = Ipv4Prefix::slash24_of(key.dst);
        let pstate = self.prefixes.entry(prefix).or_default();
        pstate.history.push_back((rec.timestamp_ns, seq));
        self.history_order.push_back(prefix);
        let obs = Observation {
            timestamp_ns: rec.timestamp_ns,
            ttl: rec.ttl,
        };

        // Step 1 (incremental): candidate join / split.
        let (h, opened) = self
            .open
            .find_or_open(rec.fingerprint, &key, || OpenCandidate::new(rec, seq));
        let mut closed = None;
        if opened {
            pstate.open_cands.insert(seq, rec.timestamp_ns);
        } else {
            let cand = &mut self.open.slots[h as usize].cand;
            // The same continuation rule, verbatim, as the offline
            // scanner — equivalence depends on it.
            let check = crate::replica::check_continuation(
                &self.cfg,
                cand.last,
                cand.last_ip_checksum,
                cand.protocol,
                rec,
            );
            if check.joins {
                if cand.observations.is_empty() {
                    // Second sighting: the candidate becomes a real
                    // replica set and its first record counts as looped.
                    self.stats.raw_candidates += 1;
                    self.looped_seqs.insert(cand.first_seq);
                    cand.observations = vec![cand.first, obs];
                    cand.record_seqs = vec![cand.first_seq, seq];
                } else {
                    cand.observations.push(obs);
                    cand.record_seqs.push(seq);
                }
                self.looped_seqs.insert(seq);
                cand.last = obs;
                cand.last_ip_checksum = rec.ip_checksum;
            } else {
                if check.checksum_split {
                    self.stats.checksum_splits += 1;
                }
                closed = Some(self.open.reopen(h, OpenCandidate::new(rec, seq)));
            }
        }
        self.expiry
            .push_back((rec.timestamp_ns, h, self.open.slots[h as usize].epoch));
        if let Some(cand) = closed {
            self.close_candidate(key, cand, events);
            self.prefixes
                .get_mut(&prefix)
                .expect("the record's /24 has state")
                .open_cands
                .insert(seq, rec.timestamp_ns);
        }
    }

    /// Brings the fleet-total gauges up to date with this detector's share.
    fn publish_gauges(&mut self) {
        let open = self.open.live as i64;
        if open != self.reported_open {
            TM_OPEN_CANDIDATES.add(open - self.reported_open);
            self.reported_open = open;
        }
        let history = self.history_order.len() as i64;
        if history != self.reported_history {
            TM_PREFIX_HISTORY.add(history - self.reported_history);
            self.reported_history = history;
        }
    }

    /// Flushes everything at end of trace; returns the tail events and
    /// the final counters.
    pub fn finish(mut self) -> (Vec<OnlineEvent>, OnlineStats) {
        let mut events = Vec::new();
        let mut all: Vec<CloseOrder> = self
            .open
            .handles()
            .map(|h| self.open.close_order(h))
            .collect();
        self.close_in_order(&mut all, &mut events);
        // Force-flush every pending loop.
        for (prefix, state) in &mut self.prefixes {
            let (loops, _) = state.take_final_loops(*prefix, &self.cfg, &self.looped_seqs, None);
            for l in loops {
                emit_loop(&mut self.stats, &mut events, l);
            }
        }
        events.sort_by_key(|e| match e {
            OnlineEvent::Stream(s) => (0u8, s.start_ns(), s.key.ident),
            OnlineEvent::Loop(l) => (1u8, l.start_ns, 0),
        });
        (events, self.stats)
    }

    /// Closes stale candidates, emits loops that became final and trims
    /// history past the horizon.
    fn expire(&mut self, events: &mut Vec<OnlineEvent>) {
        // Candidates silent past the replica gap can never grow again.
        let cutoff = self.now.saturating_sub(self.cfg.max_replica_gap_ns);
        let mut stale = std::mem::take(&mut self.stale);
        while let Some(&(ts, h, epoch)) = self.expiry.front() {
            if ts >= cutoff {
                break;
            }
            self.expiry.pop_front();
            // An entry whose candidate has since grown or closed is stale
            // itself; the candidate's latest sighting has its own entry.
            if self.open.is_last_sighting(ts, h, epoch) {
                stale.push(self.open.close_order(h));
            }
        }
        if !stale.is_empty() {
            self.close_in_order(&mut stale, events);
        }
        self.stale = stale;

        // Emit loops whose composition can no longer change. Only /24s
        // whose recheck condition has come true can emit, so the pass is
        // skipped until one has; it visits the /24s in map order.
        if self.now > self.flush_due || self.recheck_now > 0 {
            let now = self.now;
            let mut due = u64::MAX;
            for (prefix, state) in &mut self.prefixes {
                let look = match state.recheck {
                    Recheck::Now => true,
                    Recheck::After(t) => now > t,
                    Recheck::Idle | Recheck::Blocked { .. } => false,
                };
                if look {
                    let (loops, next) =
                        state.take_final_loops(*prefix, &self.cfg, &self.looped_seqs, Some(now));
                    for l in loops {
                        emit_loop(&mut self.stats, events, l);
                    }
                    state.recheck = match next {
                        None => Recheck::Idle,
                        Some(horizon) if horizon >= now => Recheck::After(horizon),
                        Some(horizon) => Recheck::Blocked {
                            horizon,
                            open: state.open_cands.values().filter(|&&t| t <= horizon).count(),
                        },
                    };
                }
                if let Recheck::After(t) = state.recheck {
                    due = due.min(t);
                }
            }
            self.flush_due = due;
            self.recheck_now = 0;
        }

        // Trim history, oldest record first.
        let h_cutoff = self.now.saturating_sub(self.history_horizon_ns);
        while let Some(&prefix) = self.history_order.front() {
            let state = self.prefixes.get_mut(&prefix).expect("history prefix");
            let &(t, old_seq) = state
                .history
                .front()
                .expect("trim queue and prefix history agree");
            if t >= h_cutoff {
                break;
            }
            state.history.pop_front();
            self.history_order.pop_front();
            self.looped_seqs.remove(&old_seq);
        }
    }

    /// Closes the given candidates in `(start, ident, first seq)` order,
    /// ignoring duplicate entries, and leaves `handles` empty.
    fn close_in_order(&mut self, handles: &mut Vec<CloseOrder>, events: &mut Vec<OnlineEvent>) {
        handles.sort_unstable_by_key(|&(start, ident, first_seq, _)| (start, ident, first_seq));
        handles.dedup_by_key(|&mut (_, _, first_seq, _)| first_seq);
        for (_, _, _, h) in handles.drain(..) {
            let (key, cand) = self.open.remove(h);
            self.close_candidate(key, cand, events);
        }
    }

    fn close_candidate(
        &mut self,
        key: ReplicaKey,
        cand: OpenCandidate,
        events: &mut Vec<OnlineEvent>,
    ) {
        let prefix = Ipv4Prefix::slash24_of(key.dst);
        let state = self
            .prefixes
            .get_mut(&prefix)
            .expect("every candidate's /24 has state");
        state.open_cands.remove(&cand.first_seq);
        if let Recheck::Blocked { horizon, open } = &mut state.recheck {
            if cand.first.timestamp_ns <= *horizon {
                *open -= 1;
                if *open == 0 {
                    state.recheck = Recheck::Now;
                    self.recheck_now += 1;
                }
            }
        }
        if cand.observations.is_empty() {
            return;
        }
        let stream = ReplicaStream {
            key,
            observations: cand.observations,
            // The offline record indices are global positions; online we
            // use sequence numbers, which coincide when the same trace is
            // replayed from the start.
            record_indices: cand.record_seqs.iter().map(|s| *s as usize).collect(),
        };
        // Step 2.
        if stream.len() < self.cfg.min_stream_len {
            self.stats.rejected_short += 1;
            return;
        }
        if self.cfg.covalidate_prefix
            && !self.prefixes[&prefix].co_loop_holds(&self.cfg, &self.looped_seqs, &stream)
        {
            self.stats.rejected_covalidation += 1;
            return;
        }
        self.stats.streams_emitted += 1;
        self.stats.looped_sightings += stream.len() as u64;
        TM_STREAMS_EMITTED.inc();
        trace::instant(&TR_STREAM_EMITTED);
        events.push(OnlineEvent::Stream(stream.clone()));
        // Step 3 is deferred: the stream joins the prefix's pending set and
        // loops are emitted once their composition is final.
        // Any loop holding the new stream ends no earlier than it does,
        // so it cannot be final before `due`. Whichever loop comes first
        // from now on is due no earlier than `min(horizon, due)`; while
        // that is `horizon`, a blocked /24 still needs every counted
        // candidate to close, so it stays blocked.
        let due = stream.end_ns().saturating_add(self.cfg.merge_gap_ns);
        let state = self.prefixes.get_mut(&prefix).expect("present");
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

impl Drop for OnlineDetector {
    /// Takes this detector's share back out of the fleet-total gauges.
    fn drop(&mut self) {
        TM_OPEN_CANDIDATES.add(-self.reported_open);
        TM_PREFIX_HISTORY.add(-self.reported_history);
    }
}

impl PrefixState {
    /// Whether every remembered record in a window of the history is
    /// looped. The history is time-sorted, so callers find the window's
    /// ends by binary search.
    fn all_looped(&self, looped: &FxHashSet<u64>, window: Range<usize>) -> bool {
        window.is_empty()
            || self
                .history
                .range(window)
                .all(|(_, seq)| looped.contains(seq))
    }

    /// The offline gap-clean rule over retained history: no non-looped
    /// packet to the prefix in the open interval `(from, to)`.
    fn gap_is_clean(&self, looped: &FxHashSet<u64>, from: u64, to: u64) -> bool {
        if to <= from + 1 {
            return true;
        }
        let lo = self.history.partition_point(|&(t, _)| t <= from);
        let hi = self.history.partition_point(|&(t, _)| t < to);
        self.all_looped(looped, lo..hi)
    }

    /// The co-loop rule: every remembered packet to the prefix during the
    /// stream, less a slack at both ends, is looped too.
    fn co_loop_holds(
        &self,
        cfg: &DetectorConfig,
        looped: &FxHashSet<u64>,
        stream: &ReplicaStream,
    ) -> bool {
        let slack = (stream.mean_spacing_ns() as f64 * cfg.covalidate_slack_spacings) as u64;
        let from = stream.start_ns().saturating_add(slack);
        let to = stream.end_ns().saturating_sub(slack);
        if from > to {
            return true;
        }
        let lo = self.history.partition_point(|&(t, _)| t < from);
        let hi = self.history.partition_point(|&(t, _)| t <= to);
        self.all_looped(looped, lo..hi)
    }

    /// Runs the offline merge over the pending streams and takes out every
    /// loop that no future stream can still join: future streams start no
    /// earlier than `min(now, earliest open candidate)`, so a loop whose
    /// end lies more than the merge gap before that point is final. With
    /// `now == None`, everything is final (end of trace). Also returns the
    /// first remaining loop's end plus the merge gap.
    fn take_final_loops(
        &mut self,
        prefix: Ipv4Prefix,
        cfg: &DetectorConfig,
        looped: &FxHashSet<u64>,
        now: Option<u64>,
    ) -> (Vec<RoutingLoop>, Option<u64>) {
        let barrier = now.map(|now| {
            self.open_cands
                .values()
                .copied()
                .min()
                .unwrap_or(u64::MAX)
                .min(now)
        });
        let due = |end: u64| end.saturating_add(cfg.merge_gap_ns);
        // Offline-identical merge over pending streams, sorted by start.
        // The sort is stable and the pending set stays sorted between
        // calls, so ties keep their close order.
        self.pending
            .sort_by_key(|s| (s.start_ns(), s.end_ns(), s.key.ident));
        // Loops come out in start order with increasing ends, so the final
        // ones are a prefix of them: stop at the first that is not.
        let mut bounds: Vec<(u64, u64, usize)> = Vec::new();
        let mut next = None;
        let mut i = 0;
        while i < self.pending.len() {
            let start = self.pending[i].start_ns();
            let mut end = self.pending[i].end_ns();
            let mut j = i + 1;
            while let Some(s) = self.pending.get(j) {
                let joins = s.start_ns() <= end
                    || (s.start_ns() - end <= cfg.merge_gap_ns
                        && self.gap_is_clean(looped, end, s.start_ns()));
                if !joins {
                    break;
                }
                end = end.max(s.end_ns());
                j += 1;
            }
            if barrier.is_some_and(|b| due(end) >= b) {
                next = Some(due(end));
                break;
            }
            bounds.push((start, end, j - i));
            i = j;
        }
        let mut taken = self.pending.drain(..i);
        let loops = bounds
            .into_iter()
            .map(|(start_ns, end_ns, n)| RoutingLoop {
                prefix,
                start_ns,
                end_ns,
                streams: taken.by_ref().take(n).collect(),
            })
            .collect();
        (loops, next)
    }
}

/// Counts and emits one finalised loop.
fn emit_loop(stats: &mut OnlineStats, events: &mut Vec<OnlineEvent>, l: RoutingLoop) {
    stats.loops_emitted += 1;
    TM_LOOPS_EMITTED.inc();
    trace::instant(&TR_LOOP_EMITTED);
    tm_trace!(
        "loop finalised for {}: {} streams over {} ns",
        l.prefix,
        l.streams.len(),
        l.end_ns - l.start_ns
    );
    events.push(OnlineEvent::Loop(l));
}

impl OpenCandidate {
    fn new(rec: &TraceRecord, seq: u64) -> Self {
        let first = Observation {
            timestamp_ns: rec.timestamp_ns,
            ttl: rec.ttl,
        };
        Self {
            first,
            first_seq: seq,
            last: first,
            observations: Vec::new(),
            record_seqs: Vec::new(),
            last_ip_checksum: rec.ip_checksum,
            protocol: rec.protocol,
        }
    }
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
                // Both keys hang off one index entry.
                assert_eq!((det.open.index.len(), det.open_candidates()), (1, 2));
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
    fn freed_slot_reuse_ignores_the_old_occupants_expiry_entries() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let ms = |t: u64| t * 1_000_000;
        let recs = looping_records(0, ms(1), 60, 2, 1, dst);
        let mut det = OnlineDetector::new(DetectorConfig::default());
        det.push(&recs[0]);
        det.push(&recs[1]);
        // The same sighting again at the same time: not a continuation, so
        // the candidate closes and its slot goes straight to its successor
        // while both of the old candidate's expiry entries are queued.
        det.push(&recs[1]);
        let (_, h, old_epoch) = det.expiry[0];
        let new_epoch = det.open.slots[h as usize].epoch;
        assert_ne!(old_epoch, new_epoch, "freeing bumped the epoch");
        assert_eq!(det.expiry.len(), 3);
        assert!(det.expiry.iter().all(|&(_, eh, _)| eh == h), "slot reused");
        // The old entry for 1 ms names the successor's exact last sighting;
        // only the epoch tells them apart.
        assert!(!det.open.is_last_sighting(ms(1), h, old_epoch));
        assert!(det.open.is_last_sighting(ms(1), h, new_epoch));

        // Unrelated probes move the clock on.
        let at = |t: u64| {
            let mut r = recs[0];
            r.dst = Ipv4Addr::new(192, 0, 2, 1);
            r.timestamp_ns = t;
            r.ident = t as u16;
            r.with_fingerprint()
        };
        // Past the old 0 ms entry only: it is popped and skipped.
        det.push(&at(ms(1_000) + ms(1) / 2));
        assert_eq!(det.open_candidates(), 2, "successor still open");
        assert_eq!(det.expiry.len(), 3);
        // Past both 1 ms entries: the successor closes (one sighting, no
        // stream) through its own entry alone.
        assert!(det.push(&at(ms(1_002))).is_empty());
        assert_eq!(det.open_candidates(), 2, "only the two probes remain");
        assert_eq!(det.expiry.len(), 2);
        let (_, stats) = det.finish();
        assert_eq!(stats.rejected_short, 1, "the 2-sighting first candidate");
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
                assert_eq!(batched.reported_open, batched.open_candidates() as i64);
                assert_eq!(batched.reported_history, batched.history_order.len() as i64);
            }
            assert_eq!(batched.stats(), single.stats());
        }
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
