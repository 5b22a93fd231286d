//! Step 3 — merging replica streams into routing loops.
//!
//! §IV-A.3: "First, we merge replica streams that overlap in time and have
//! identical destination address prefixes. … we also merge replica streams
//! that occur less than one minute apart provided that the resulting
//! merged replica stream does not overlap with packets to the subnet that
//! are not looped." One routing loop traps many packets, so the merged
//! object — not the per-packet stream — is the unit Figure 9 and Table II
//! report.
//!
//! `merge_runs` is the only implementation of the rule. It runs over one
//! /24's streams in one canonical order and can stop at a barrier, so the
//! offline detectors (no barrier) and the online detector (loops no
//! future stream can join) share it.

use crate::config::DetectorConfig;
use crate::record::TraceRecord;
use crate::stream::ReplicaStream;
use crate::validate::PrefixIndex;
use net_types::Ipv4Prefix;
use std::collections::BTreeMap;
use telemetry::{tm_debug, LazyCounter};

static TM_LOOPS_TOTAL: LazyCounter = LazyCounter::new("merge.loops_total");
static TM_MERGE_DECISIONS: LazyCounter = LazyCounter::new("merge.merge_decisions");
static TM_GAP_CLOSURES: LazyCounter = LazyCounter::new("merge.gap_closures");

/// Transient-vs-persistent classification (§I–II: transient loops resolve
/// as routing converges; persistent loops — typically misconfiguration —
/// require human intervention; the paper analyses the former and leaves
/// the latter to future work, which this reproduction includes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Resolved within the persistence threshold.
    Transient,
    /// Outlived the threshold, or was still replicating when the trace
    /// ended.
    Persistent,
}

/// A merged routing loop: all replica streams attributed to one
/// forwarding-state inconsistency for one /24.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingLoop {
    /// The affected destination /24.
    pub prefix: Ipv4Prefix,
    /// First replica sighting across member streams.
    pub start_ns: u64,
    /// Last replica sighting across member streams.
    pub end_ns: u64,
    /// Member streams in the canonical order `(start, end, ident, first
    /// record index)`.
    pub streams: Vec<ReplicaStream>,
}

impl RoutingLoop {
    /// The loop made of a non-empty run of streams to one /24, given in
    /// canonical order.
    fn new(streams: Vec<ReplicaStream>) -> Self {
        Self {
            prefix: streams[0].dst_slash24(),
            start_ns: streams[0].start_ns(),
            end_ns: streams.iter().map(ReplicaStream::end_ns).max().unwrap_or(0),
            streams,
        }
    }

    /// Loop duration (Fig. 9's quantity).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Member stream count.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Total replica sightings across member streams.
    pub fn replica_count(&self) -> usize {
        self.streams.iter().map(ReplicaStream::len).sum()
    }

    /// Classifies the loop by observed duration. `persistent_threshold_ns`
    /// is the longest duration still credited to protocol convergence (the
    /// paper's data puts IGP reconvergence below ~10 s and pathological
    /// BGP convergence in the minutes, so thresholds of 60–300 s are
    /// reasonable).
    pub fn classify(&self, persistent_threshold_ns: u64) -> LoopKind {
        if self.duration_ns() >= persistent_threshold_ns {
            LoopKind::Persistent
        } else {
            LoopKind::Transient
        }
    }

    /// True when the loop was still replicating when the capture ended
    /// (last replica within `tail_gap_ns` of `trace_end_ns`): its true
    /// duration is unknown — at least what was observed.
    pub fn is_open_ended(&self, trace_end_ns: u64, tail_gap_ns: u64) -> bool {
        self.end_ns.saturating_add(tail_gap_ns) >= trace_end_ns
    }

    /// The loop's TTL delta: the modal delta across member streams.
    pub fn ttl_delta(&self) -> u8 {
        let mut counts = BTreeMap::new();
        for s in &self.streams {
            *counts.entry(s.ttl_delta()).or_insert(0u32) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(d, _)| d)
            .unwrap_or(0)
    }
}

/// Merges validated streams into routing loops.
///
/// Takes the streams by reference — the caller keeps its vector (it is
/// the [`crate::DetectionResult::streams`] output) and each stream is
/// cloned once, into its /24's group. This is what lets each block
/// worker hand its `validated` set to merge without a wholesale `Vec`
/// clone.
pub fn merge(
    _records: &[TraceRecord],
    streams: &[ReplicaStream],
    looped_flags: &[bool],
    index: &PrefixIndex,
    cfg: &DetectorConfig,
) -> Vec<RoutingLoop> {
    let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<ReplicaStream>> = BTreeMap::new();
    for s in streams {
        by_prefix
            .entry(s.dst_slash24())
            .or_default()
            .push(s.clone());
    }
    // Prefixes in order, each one's loops in start order: the output is
    // in `(prefix, start)` order.
    let mut out = Vec::new();
    for (prefix, mut group) in by_prefix {
        let all_looped = |from, to| index.all_looped(prefix, from, to, |id| looped_flags[id]);
        merge_runs(&mut group, all_looped, cfg, None, &mut out);
    }
    out
}

/// Step 3 over the validated streams to one /24: sorts them into the
/// canonical order `(start, end, ident, first record index)` and joins
/// each stream to the run before it when the two overlap, or when the gap
/// between them is at most `merge_gap_ns` and every record to the /24 in
/// its interior is looped (`all_looped` as for `validate::judge`).
///
/// A run is final once its end plus the merge gap lies before `barrier`,
/// the earliest time a future stream could start; with no barrier every
/// run is final. Runs come out in start order with increasing ends, so the
/// final ones come first: each leaves `streams` as a loop, appended to
/// `out` and counted in the `merge.*` counters. The first run that is not
/// final stays, with the streams after it, and its end plus the merge gap
/// is returned.
pub(crate) fn merge_runs(
    streams: &mut Vec<ReplicaStream>,
    all_looped: impl Fn(u64, u64) -> bool,
    cfg: &DetectorConfig,
    barrier: Option<u64>,
    out: &mut Vec<RoutingLoop>,
) -> Option<u64> {
    streams.sort_by_key(|s| (s.start_ns(), s.end_ns(), s.key.ident, s.record_indices[0]));
    let mut rest = std::mem::take(streams).into_iter().peekable();
    while let Some(first) = rest.next() {
        let (mut end, mut bridged) = (first.end_ns(), 0);
        let mut run = vec![first];
        while let Some(s) = rest.next_if(|s| {
            s.start_ns() <= end
                || (s.start_ns() - end <= cfg.merge_gap_ns && all_looped(end + 1, s.start_ns() - 1))
        }) {
            bridged += u64::from(s.start_ns() > end);
            end = end.max(s.end_ns());
            run.push(s);
        }
        let due = end.saturating_add(cfg.merge_gap_ns);
        if barrier.is_some_and(|b| due >= b) {
            *streams = run.into_iter().chain(rest).collect();
            return Some(due);
        }
        TM_LOOPS_TOTAL.inc();
        TM_MERGE_DECISIONS.add(run.len() as u64 - 1);
        TM_GAP_CLOSURES.add(bridged);
        if bridged > 0 {
            tm_debug!("bridged {} gaps for {}", bridged, run[0].dst_slash24());
        }
        out.push(RoutingLoop::new(run));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ReplicaKey;
    use crate::stream::Observation;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    fn mk_record(ts: u64, dst: Ipv4Addr, ident: u16) -> TraceRecord {
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

    fn mk_stream(dst: Ipv4Addr, ident: u16, times: &[u64], indices: &[usize]) -> ReplicaStream {
        let rec = mk_record(times[0], dst, ident);
        ReplicaStream {
            key: ReplicaKey::of(&rec),
            observations: times
                .iter()
                .enumerate()
                .map(|(i, &t)| Observation {
                    timestamp_ns: t,
                    ttl: 60 - 2 * i as u8,
                })
                .collect(),
            record_indices: indices.to_vec(),
        }
    }

    const SEC: u64 = 1_000_000_000;

    fn run_merge(
        records: Vec<TraceRecord>,
        streams: Vec<ReplicaStream>,
        looped: Vec<bool>,
        cfg: &DetectorConfig,
    ) -> Vec<RoutingLoop> {
        let index = PrefixIndex::build(&records);
        merge(&records, &streams, &looped, &index, cfg)
    }

    #[test]
    fn overlapping_streams_merge() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let records = vec![
            mk_record(0, dst, 1),
            mk_record(SEC, dst, 2),
            mk_record(2 * SEC, dst, 1),
            mk_record(3 * SEC, dst, 2),
        ];
        let s1 = mk_stream(dst, 1, &[0, 2 * SEC], &[0, 2]);
        let s2 = mk_stream(dst, 2, &[SEC, 3 * SEC], &[1, 3]);
        let loops = run_merge(
            records,
            vec![s1, s2],
            vec![true; 4],
            &DetectorConfig::default(),
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].num_streams(), 2);
        assert_eq!(loops[0].start_ns, 0);
        assert_eq!(loops[0].end_ns, 3 * SEC);
        assert_eq!(loops[0].duration_ns(), 3 * SEC);
        assert_eq!(loops[0].replica_count(), 4);
    }

    #[test]
    fn distinct_prefixes_never_merge() {
        let d1 = Ipv4Addr::new(203, 0, 113, 1);
        let d2 = Ipv4Addr::new(198, 51, 100, 1);
        let records = vec![
            mk_record(0, d1, 1),
            mk_record(1, d2, 2),
            mk_record(2, d1, 1),
            mk_record(3, d2, 2),
        ];
        let s1 = mk_stream(d1, 1, &[0, 2], &[0, 2]);
        let s2 = mk_stream(d2, 2, &[1, 3], &[1, 3]);
        let loops = run_merge(
            records,
            vec![s1, s2],
            vec![true; 4],
            &DetectorConfig::default(),
        );
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn clean_gap_within_limit_merges() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        // Stream A ends at 1 s; stream B starts at 31 s. Nothing to the
        // /24 in between.
        let records = vec![
            mk_record(0, dst, 1),
            mk_record(SEC, dst, 1),
            mk_record(31 * SEC, dst, 2),
            mk_record(32 * SEC, dst, 2),
        ];
        let s1 = mk_stream(dst, 1, &[0, SEC], &[0, 1]);
        let s2 = mk_stream(dst, 2, &[31 * SEC, 32 * SEC], &[2, 3]);
        let loops = run_merge(
            records,
            vec![s1, s2],
            vec![true; 4],
            &DetectorConfig::default(),
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].num_streams(), 2);
    }

    #[test]
    fn dirty_gap_blocks_merge() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        // A non-looped packet to the /24 in the gap.
        let records = vec![
            mk_record(0, dst, 1),
            mk_record(SEC, dst, 1),
            mk_record(15 * SEC, dst, 99), // lone bystander: not looped
            mk_record(31 * SEC, dst, 2),
            mk_record(32 * SEC, dst, 2),
        ];
        let s1 = mk_stream(dst, 1, &[0, SEC], &[0, 1]);
        let s2 = mk_stream(dst, 2, &[31 * SEC, 32 * SEC], &[3, 4]);
        let looped = vec![true, true, false, true, true];
        let loops = run_merge(records, vec![s1, s2], looped, &DetectorConfig::default());
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn gap_beyond_limit_blocks_merge() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let records = vec![
            mk_record(0, dst, 1),
            mk_record(SEC, dst, 1),
            mk_record(100 * SEC, dst, 2), // 99 s gap > 60 s
            mk_record(101 * SEC, dst, 2),
        ];
        let s1 = mk_stream(dst, 1, &[0, SEC], &[0, 1]);
        let s2 = mk_stream(dst, 2, &[100 * SEC, 101 * SEC], &[2, 3]);
        let loops = run_merge(
            records,
            vec![s1, s2],
            vec![true; 4],
            &DetectorConfig::default(),
        );
        assert_eq!(loops.len(), 2);
        // With a 5-minute A1 gap they merge.
        let records2 = vec![
            mk_record(0, dst, 1),
            mk_record(SEC, dst, 1),
            mk_record(100 * SEC, dst, 2),
            mk_record(101 * SEC, dst, 2),
        ];
        let s1 = mk_stream(dst, 1, &[0, SEC], &[0, 1]);
        let s2 = mk_stream(dst, 2, &[100 * SEC, 101 * SEC], &[2, 3]);
        let loops5 = run_merge(
            records2,
            vec![s1, s2],
            vec![true; 4],
            &DetectorConfig::default().with_merge_gap_minutes(5),
        );
        assert_eq!(loops5.len(), 1);
    }

    #[test]
    fn chain_merging_is_transitive() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let mut records = Vec::new();
        let mut streams = Vec::new();
        for k in 0..5u64 {
            let t0 = k * 30 * SEC;
            records.push(mk_record(t0, dst, k as u16));
            records.push(mk_record(t0 + SEC, dst, k as u16));
            streams.push(mk_stream(
                dst,
                k as u16,
                &[t0, t0 + SEC],
                &[(k * 2) as usize, (k * 2 + 1) as usize],
            ));
        }
        let n = records.len();
        let loops = run_merge(records, streams, vec![true; n], &DetectorConfig::default());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].num_streams(), 5);
        assert_eq!(loops[0].duration_ns(), 4 * 30 * SEC + SEC);
    }

    #[test]
    fn loop_ttl_delta_is_modal() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let records = vec![mk_record(0, dst, 1)];
        let s1 = mk_stream(dst, 1, &[0, 1, 2], &[0, 0, 0]);
        let loops = run_merge(records, vec![s1], vec![true], &DetectorConfig::default());
        assert_eq!(loops[0].ttl_delta(), 2);
    }

    #[test]
    fn classification_by_duration_and_tail() {
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let short = RoutingLoop {
            prefix: Ipv4Prefix::slash24_of(dst),
            start_ns: 0,
            end_ns: 5 * SEC,
            streams: vec![mk_stream(dst, 1, &[0, 5 * SEC], &[0, 1])],
        };
        let long = RoutingLoop {
            prefix: Ipv4Prefix::slash24_of(dst),
            start_ns: 0,
            end_ns: 400 * SEC,
            streams: vec![mk_stream(dst, 2, &[0, 400 * SEC], &[0, 1])],
        };
        let threshold = 120 * SEC;
        assert_eq!(short.classify(threshold), LoopKind::Transient);
        assert_eq!(long.classify(threshold), LoopKind::Persistent);
        // Tail detection: trace ends at 401 s; `long` was still running.
        assert!(long.is_open_ended(401 * SEC, 2 * SEC));
        assert!(!short.is_open_ended(401 * SEC, 2 * SEC));
    }
}
