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
//! [`PrefixIndex`] over the whole trace, one history per /24 and range;
//! the online detector keeps one [`PrefixHistory`] per /24, appended on
//! push and trimmed at its horizon.

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

impl PrefixHistory {
    /// Appends a record no older than the newest one held.
    pub(crate) fn push(&mut self, timestamp_ns: u64, id: usize) {
        self.0.push_back((timestamp_ns, id));
    }

    /// Forgets the oldest record.
    pub(crate) fn pop_front(&mut self) {
        self.0.pop_front();
    }

    /// Forgets every record, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
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
/// of the range's records, numbered from 0 at the range's first record.
/// Built by [`PrefixIndex::build_range`] or chunk by chunk with
/// [`PrefixIndex::extend_range`].
pub type IndexPartial = FxHashMap<Ipv4Prefix, PrefixHistory>;

/// Per-/24 histories of a whole trace, for windowed queries: one
/// [`IndexPartial`] per contiguous range, each with the trace index of the
/// range's first record. A query visits every range's history of its
/// /24 where it lies, so assembling the index copies no posting.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    /// `(first record's trace index, history)` per range, in trace order.
    ranges: Vec<(usize, IndexPartial)>,
}

impl PrefixIndex {
    /// Builds the index from a time-sorted trace.
    pub fn build(records: &[TraceRecord]) -> Self {
        Self::from_partials(vec![(0, Self::build_range(records))])
    }

    /// Indexes one contiguous range of a trace.
    pub fn build_range(range: &[TraceRecord]) -> IndexPartial {
        // Distinct /24s are far rarer than records; a /64 estimate is
        // enough to dodge the rehash cascade without over-allocating.
        let mut part: IndexPartial = fx_map_with_capacity((range.len() / 64).max(16));
        Self::extend_range(&mut part, range, 0);
        part
    }

    /// Appends `chunk`, whose first record is record `first` of the range,
    /// to the range's partial index.
    #[inline]
    pub fn extend_range(part: &mut IndexPartial, chunk: &[TraceRecord], first: usize) {
        for (off, rec) in chunk.iter().enumerate() {
            part.entry(rec.dst_slash24())
                .or_default()
                .push(rec.timestamp_ns, first + off);
        }
    }

    /// The index over per-range partials given in trace order, each with
    /// the trace index of its range's first record. The ranges are
    /// contiguous and the trace is time-sorted, so a /24's histories, read
    /// range after range, hold its records in the `(timestamp, index)`
    /// order one history over the whole trace would.
    pub fn from_partials(partials: Vec<(usize, IndexPartial)>) -> Self {
        Self { ranges: partials }
    }

    /// Whether every record to `prefix` with a timestamp in `[from, to]`
    /// (inclusive; empty when `from > to`) is looped under `is_looped`,
    /// which takes trace indices.
    pub fn all_looped(
        &self,
        prefix: Ipv4Prefix,
        from: u64,
        to: u64,
        is_looped: impl Fn(usize) -> bool,
    ) -> bool {
        self.ranges.iter().all(|(base, part)| {
            part.get(&prefix)
                .is_none_or(|h| h.all_looped(from, to, |id| is_looped(base + id)))
        })
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
/// `validate.*` counters. `all_looped(from, to)` tells whether every
/// record to its /24 in `[from, to]` belongs to a candidate with two or
/// more sightings.
pub(crate) fn judge(
    cand: &ReplicaStream,
    all_looped: impl Fn(u64, u64) -> bool,
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
        if !all_looped(from, to) {
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
        let prefix = cand.dst_slash24();
        let all_looped = |from, to| index.all_looped(prefix, from, to, |id| looped_flags[id]);
        match judge(&cand, all_looped, cfg) {
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
        let prefix = Ipv4Prefix::slash24_of(dst);
        (0..records.len())
            .filter(|&id| !index.all_looped(prefix, from, to, |i| i != id))
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
