//! Step 2 — replica stream validation — and the per-/24 history that
//! steps 2 and 3 query.
//!
//! Two rules from §IV-A.2:
//!
//! 1. Sets with only two elements are discarded: the link layer can
//!    duplicate packets (token ring drain failures, SONET protection
//!    mis-configuration), and two sightings are not enough evidence.
//! 2. The co-loop rule: "If a packet with the same destination subnet as a
//!    replicated packet does not itself belong to a replica stream, then
//!    other replicas observed at that time cannot be due to a routing
//!    loop, since the loop should affect all packets to the destination in
//!    question."
//!
//! The co-loop window is shrunk by one mean inter-replica spacing on each
//! side (configurable, see [`DetectorConfig`]): a packet entering the loop
//! just before it heals legitimately crosses the monitor exactly once and
//! must not veto the stream.
//!
//! `judge` is the only implementation of both rules, and
//! `PrefixHistory::all_looped` the only windowed query behind them and
//! behind step 3's clean-gap test. The offline detectors ask it of a
//! [`PrefixIndex`] built over the whole trace; the online detector keeps
//! one [`PrefixHistory`] per /24, appended on push and trimmed at its
//! horizon.

use crate::config::DetectorConfig;
use crate::fxhash::{fx_map_with_capacity, FxHashMap};
use crate::record::TraceRecord;
use crate::replica::DetectionStats;
use crate::stream::ReplicaStream;
use net_types::Ipv4Prefix;
use std::collections::VecDeque;
use telemetry::{tm_debug, LazyCounter};

static TM_STREAMS_KEPT: LazyCounter = LazyCounter::new("validate.streams_kept");
static TM_REJECTED_SHORT: LazyCounter = LazyCounter::new("validate.rejected_short");
static TM_REJECTED_COVALIDATION: LazyCounter = LazyCounter::new("validate.rejected_covalidation");

/// One /24's records as `(timestamp, record id)`, in time order.
#[derive(Debug, Default)]
pub struct PrefixHistory(VecDeque<(u64, usize)>);

static NO_HISTORY: PrefixHistory = PrefixHistory(VecDeque::new());

impl PrefixHistory {
    /// Appends a record no older than the newest one held.
    pub(crate) fn push(&mut self, timestamp_ns: u64, id: usize) {
        self.0.push_back((timestamp_ns, id));
    }

    /// Forgets the oldest record.
    pub(crate) fn pop_front(&mut self) {
        self.0.pop_front();
    }

    /// Whether every record with a timestamp in `[from, to]` (inclusive;
    /// empty when `from > to`) is looped under `is_looped`.
    pub(crate) fn all_looped(&self, from: u64, to: u64, is_looped: impl Fn(usize) -> bool) -> bool {
        if from > to {
            return true;
        }
        let lo = self.0.partition_point(|&(t, _)| t < from);
        let hi = self.0.partition_point(|&(t, _)| t <= to);
        self.0.range(lo..hi).all(|&(_, id)| is_looped(id))
    }

    /// The records from time `from` on, oldest first.
    pub(crate) fn since(&self, from: u64) -> impl Iterator<Item = (u64, usize)> + '_ {
        let lo = self.0.partition_point(|&(t, _)| t < from);
        self.0.range(lo..).copied()
    }
}

/// One contiguous range's share of a [`PrefixIndex`]: prefix → history
/// of the range's records, with trace-global record indices. Built by
/// [`PrefixIndex::build_range`], merged by [`PrefixIndex::from_partials`].
pub type IndexPartial = FxHashMap<Ipv4Prefix, PrefixHistory>;

/// Per-/24 histories of a whole trace, for windowed queries.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    /// prefix -> the history of its records.
    by_prefix: IndexPartial,
}

impl PrefixIndex {
    /// Builds the index from a time-sorted trace.
    pub fn build(records: &[TraceRecord]) -> Self {
        Self {
            by_prefix: Self::build_range(records, 0),
        }
    }

    /// Indexes one contiguous range of a trace, whose first record has
    /// trace-global index `base`. Callers that already fan workers over
    /// contiguous ranges (the block-parallel scan) build these partials
    /// in-worker, overlapped with their other work, and pay only the
    /// [`Self::from_partials`] merge afterwards.
    pub fn build_range(range: &[TraceRecord], base: usize) -> IndexPartial {
        // Distinct /24s are far rarer than records; a /64 estimate is
        // enough to dodge the rehash cascade without over-allocating.
        let mut part: IndexPartial = fx_map_with_capacity((range.len() / 64).max(16));
        for (off, rec) in range.iter().enumerate() {
            part.entry(rec.dst_slash24())
                .or_default()
                .push(rec.timestamp_ns, base + off);
        }
        part
    }

    /// Assembles the full index from per-range partials given in range
    /// order. Ranges are contiguous and the trace is time-sorted, so
    /// appending each range's histories in order reproduces exactly the
    /// `(timestamp, index)` order the serial build produces — the index
    /// contents are identical.
    pub fn from_partials(partials: Vec<IndexPartial>) -> Self {
        let postings: usize = partials.iter().map(|p| p.len()).sum();
        let mut by_prefix: IndexPartial = fx_map_with_capacity(postings.max(16));
        for part in partials {
            for (prefix, mut history) in part {
                // The first range's history moves in whole.
                let merged = by_prefix.entry(prefix).or_default();
                if merged.0.is_empty() {
                    *merged = history;
                } else {
                    merged.0.append(&mut history.0);
                }
            }
        }
        Self { by_prefix }
    }

    /// The history of `prefix` (empty for a /24 the trace never reached).
    pub fn history(&self, prefix: Ipv4Prefix) -> &PrefixHistory {
        self.by_prefix.get(&prefix).unwrap_or(&NO_HISTORY)
    }
}

/// Per-record "is looped" flags from the raw candidates of a trace of
/// `records` records: any packet with at least one replica counts as
/// looped for the co-loop rule (§IV-A.2 asks whether packets "belong to a
/// replica stream", prior to length filtering).
pub(crate) fn looped_flags(records: usize, candidates: &[ReplicaStream]) -> Vec<bool> {
    let mut flags = vec![false; records];
    for &idx in candidates.iter().flat_map(|c| &c.record_indices) {
        flags[idx] = true;
    }
    flags
}

/// Step 2's verdict on one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Passes both rules: a validated stream.
    Kept,
    /// Fewer than `min_stream_len` sightings.
    Short,
    /// A record to its /24 during the stream is not looped.
    CoLoopVeto,
}

/// Applies both validation rules to `cand` and counts the verdict in the
/// `validate.*` counters. `history` holds the records to its /24, and
/// `is_looped(id)` tells whether record `id` belongs to a candidate with
/// two or more sightings.
pub(crate) fn judge(
    cand: &ReplicaStream,
    history: &PrefixHistory,
    is_looped: impl Fn(usize) -> bool,
    cfg: &DetectorConfig,
) -> Verdict {
    if cand.len() < cfg.min_stream_len {
        TM_REJECTED_SHORT.inc();
        tm_debug!(
            "rejected short candidate to {} ({} sightings)",
            cand.dst_slash24(),
            cand.len()
        );
        return Verdict::Short;
    }
    if cfg.covalidate_prefix {
        let slack = (cand.mean_spacing_ns() as f64 * cfg.covalidate_slack_spacings) as u64;
        let from = cand.start_ns().saturating_add(slack);
        let to = cand.end_ns().saturating_sub(slack);
        if !history.all_looped(from, to, is_looped) {
            TM_REJECTED_COVALIDATION.inc();
            tm_debug!(
                "rejected candidate to {} by the co-loop rule",
                cand.dst_slash24()
            );
            return Verdict::CoLoopVeto;
        }
    }
    TM_STREAMS_KEPT.inc();
    Verdict::Kept
}

/// Applies both validation rules, updating `stats`.
pub fn validate(
    _records: &[TraceRecord],
    candidates: Vec<ReplicaStream>,
    looped_flags: &[bool],
    index: &PrefixIndex,
    cfg: &DetectorConfig,
    stats: &mut DetectionStats,
) -> Vec<ReplicaStream> {
    let mut out = Vec::new();
    for cand in candidates {
        let history = index.history(cand.dst_slash24());
        match judge(&cand, history, |id| looped_flags[id], cfg) {
            Verdict::Kept => out.push(cand),
            Verdict::Short => stats.rejected_short += 1,
            Verdict::CoLoopVeto => stats.rejected_covalidation += 1,
        }
    }
    out.sort_by_key(|s| (s.start_ns(), s.key.ident));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    fn rec(ts: u64, dst: Ipv4Addr, ident: u16) -> TraceRecord {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 1, 1, 1),
            dst,
            1,
            2,
            TcpFlags::ACK,
            &b""[..],
        );
        p.ip.ident = ident;
        p.fill_checksums();
        TraceRecord::from_packet(ts, &p)
    }

    /// The records of `records` that the windowed query over `[from, to]`
    /// reads: those that make it false when they alone are not looped.
    fn window(records: &[TraceRecord], dst: Ipv4Addr, from: u64, to: u64) -> Vec<usize> {
        let index = PrefixIndex::build(records);
        let history = index.history(Ipv4Prefix::slash24_of(dst));
        (0..records.len())
            .filter(|&id| !history.all_looped(from, to, |i| i != id))
            .collect()
    }

    #[test]
    fn index_window_queries() {
        let d1 = Ipv4Addr::new(203, 0, 113, 1);
        let d2 = Ipv4Addr::new(198, 51, 100, 1);
        let records = vec![
            rec(10, d1, 0),
            rec(20, d2, 1),
            rec(30, d1, 2),
            rec(40, d1, 3),
            rec(50, d2, 4),
        ];
        // Inclusive at both ends, and only the /24's own records.
        assert_eq!(window(&records, d1, 10, 30), vec![0, 2]);
        // An empty gap between records.
        assert!(window(&records, d1, 31, 39).is_empty());
        assert_eq!(window(&records, d1, 40, 40), vec![3]);
        // A collapsed window holds nothing.
        assert!(window(&records, d1, 40, 10).is_empty());
        // Unknown prefix.
        assert!(window(&records, Ipv4Addr::new(9, 9, 9, 9), 0, 100).is_empty());
    }

    #[test]
    fn index_handles_equal_timestamps() {
        let d = Ipv4Addr::new(203, 0, 113, 1);
        let records = vec![rec(10, d, 0), rec(10, d, 1), rec(10, d, 2)];
        assert_eq!(window(&records, d, 10, 10), vec![0, 1, 2]);
    }
}
