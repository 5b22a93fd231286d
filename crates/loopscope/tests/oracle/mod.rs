//! An independent oracle for the three-step detector, written straight from
//! §IV of the paper rather than from the detector's code.
//!
//! It shares no detection code with the engines: no candidate scanner, no
//! fingerprint, no prefix index, no validation or merge helper and no
//! checksum library. It groups each record under its own tuple of the
//! invariant header fields in a `BTreeMap`, walks every key's sightings in
//! trace order, and then applies the validation and merge rules by brute
//! force over each destination /24's records. What it shares with the
//! engines is only the record type it reads and the output types it fills
//! in, so that the two results can be compared field for field.
//!
//! Each test that includes this module uses part of it.
#![allow(dead_code)]

use loopscope::key::ReplicaKey;
use loopscope::stream::Observation;
use loopscope::{
    DetectionStats, DetectorConfig, ReplicaStream, RoutingLoop, TraceRecord, TransportSummary,
};
use net_types::Ipv4Prefix;
use std::collections::BTreeMap;

/// What the oracle makes of a trace: the fields of a detection result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Validated streams, by `(start, ident, first record index)`.
    pub streams: Vec<ReplicaStream>,
    /// Routing loops, by `(prefix, start)`.
    pub loops: Vec<RoutingLoop>,
    /// Per record: is it a sighting of a candidate with two or more
    /// sightings?
    pub looped_flags: Vec<bool>,
    /// Stage counters.
    pub stats: DetectionStats,
}

impl Expected {
    /// The streams in the order of a pipeline run and of the online
    /// detector's events: `(start, first record index)`.
    pub fn streams_by_start(&self) -> Vec<ReplicaStream> {
        let mut streams = self.streams.clone();
        streams.sort_by_key(|s| (s.observations[0].timestamp_ns, s.record_indices[0]));
        streams
    }
}

/// Every header field two replicas share (§IV-A.1: all but the TTL and
/// the header checksum), the transport summary as a tag and its fields.
type Key = (u32, u32, u8, u16, u16, u8, u16, Vec<u64>);

#[rustfmt::skip]
fn key(r: &TraceRecord) -> Key {
    let transport = match r.transport {
        TransportSummary::Tcp { src_port, dst_port, seq, ack, flags, window, checksum, urgent } => vec![
            1, src_port.into(), dst_port.into(), seq.into(), ack.into(), flags.into(),
            window.into(), checksum.into(), urgent.into(),
        ],
        TransportSummary::Udp { src_port, dst_port, length, checksum } =>
            vec![2, src_port.into(), dst_port.into(), length.into(), checksum.into()],
        TransportSummary::Icmp { icmp_type, code, checksum, rest } =>
            vec![3, icmp_type.into(), code.into(), checksum.into(), u32::from_be_bytes(rest).into()],
        TransportSummary::Other { lead, len } => vec![4, len.into(), u64::from_be_bytes(lead)],
    };
    (r.src.into(), r.dst.into(), r.protocol, r.ident, r.total_len, r.tos, r.frag_word, transport)
}

/// The stream's key, field by field from its first record.
#[rustfmt::skip]
fn replica_key(r: &TraceRecord) -> ReplicaKey {
    ReplicaKey { src: r.src, dst: r.dst, protocol: r.protocol, ident: r.ident,
        total_len: r.total_len, tos: r.tos, frag_word: r.frag_word, transport: r.transport }
}

/// The header checksum a router leaves after rewriting the TTL, by RFC
/// 1624 eqn. 3: `HC' = ~(~HC + ~m + m')`, where `m` is the 16-bit word
/// holding the TTL (high byte) and the protocol (low byte).
fn checksum_after_ttl_rewrite(hc: u16, old_ttl: u8, new_ttl: u8, protocol: u8) -> u16 {
    let word = |ttl: u8| u32::from(ttl) << 8 | u32::from(protocol);
    let mut sum = u32::from(!hc) + (!word(old_ttl) & 0xffff) + word(new_ttl);
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// One's-complement arithmetic has two zeros, 0x0000 and 0xffff.
fn same_checksum(a: u16, b: u16) -> bool {
    let canonical = |c: u16| if c == 0xffff { 0 } else { c };
    canonical(a) == canonical(b)
}

/// The destination /24 of a record, as its network address.
fn net(r: &TraceRecord) -> u32 {
    u32::from(r.dst) & 0xffff_ff00
}

/// Runs steps 1–3 over `records`. A trace that is not sorted by time is
/// refused with the index of its first record earlier than the one before
/// it.
pub fn detect(records: &[TraceRecord], cfg: &DetectorConfig) -> Result<Expected, usize> {
    if let Some(i) =
        (1..records.len()).find(|&i| records[i].timestamp_ns < records[i - 1].timestamp_ns)
    {
        return Err(i);
    }
    let ts = |i: usize| records[i].timestamp_ns;

    // Step 1: each key's sightings in trace order, cut wherever the next
    // sighting is no replica of the one before it.
    let mut by_key: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_key.entry(key(r)).or_default().push(i);
    }
    let (mut candidates, mut checksum_splits) = (Vec::new(), 0u64);
    for sightings in by_key.values() {
        let mut run = vec![sightings[0]];
        for &i in &sightings[1..] {
            let (last, r) = (&records[run[run.len() - 1]], &records[i]);
            // "Their TTL values differ by at least two": the TTL falls.
            let ttl_ok = last
                .ttl
                .checked_sub(r.ttl)
                .is_some_and(|d| d >= cfg.min_ttl_delta);
            let fresh = r.timestamp_ns - last.timestamp_ns <= cfg.max_replica_gap_ns;
            let expected =
                checksum_after_ttl_rewrite(last.ip_checksum, last.ttl, r.ttl, r.protocol);
            let checksum_ok =
                !cfg.verify_checksum_consistency || same_checksum(expected, r.ip_checksum);
            if ttl_ok && fresh && checksum_ok {
                run.push(i);
                continue;
            }
            checksum_splits += u64::from(ttl_ok && fresh);
            if run.len() >= 2 {
                candidates.push(run);
            }
            run = vec![i];
        }
        if run.len() >= 2 {
            candidates.push(run);
        }
    }
    let mut looped_flags = vec![false; records.len()];
    for &i in candidates.iter().flatten() {
        looped_flags[i] = true;
    }

    // Every record to a /24 in `[from, to]` is looped (nothing to check
    // when `from > to`).
    let mut by_net: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_net.entry(net(r)).or_default().push(i);
    }
    let clean = |net: u32, from: u64, to: u64| {
        by_net[&net]
            .iter()
            .filter(|&&i| from <= ts(i) && ts(i) <= to)
            .all(|&i| looped_flags[i])
    };

    // Step 2: no fewer than `min_stream_len` sightings, and every packet
    // to the /24 within the stream, one mean spacing in from either end,
    // looped too.
    let mut stats = DetectionStats {
        total_records: records.len() as u64,
        raw_candidates: candidates.len() as u64,
        checksum_splits,
        ..DetectionStats::default()
    };
    let mut streams = Vec::new();
    for run in candidates {
        let (start, end) = (ts(run[0]), ts(run[run.len() - 1]));
        if run.len() < cfg.min_stream_len {
            stats.rejected_short += 1;
            continue;
        }
        let spacing = (end - start) / (run.len() as u64 - 1);
        let slack = (spacing as f64 * cfg.covalidate_slack_spacings) as u64;
        let from = start.saturating_add(slack);
        if cfg.covalidate_prefix && !clean(net(&records[run[0]]), from, end.saturating_sub(slack)) {
            stats.rejected_covalidation += 1;
            continue;
        }
        streams.push(ReplicaStream {
            key: replica_key(&records[run[0]]),
            observations: run
                .iter()
                .map(|&i| Observation {
                    timestamp_ns: ts(i),
                    ttl: records[i].ttl,
                })
                .collect(),
            record_indices: run,
        });
    }
    let first = |s: &ReplicaStream| s.record_indices[0];
    let end = |s: &ReplicaStream| ts(s.record_indices[s.record_indices.len() - 1]);
    streams.sort_by_key(|s| (ts(first(s)), s.key.ident, first(s)));

    // Step 3: per /24, join each stream to the loop before it when they
    // overlap, or when they are at most the merge gap apart with only
    // looped packets to the /24 in between.
    let mut by_prefix: BTreeMap<u32, Vec<ReplicaStream>> = BTreeMap::new();
    for s in &streams {
        by_prefix
            .entry(u32::from(s.key.dst) & 0xffff_ff00)
            .or_default()
            .push(s.clone());
    }
    let mut loops: Vec<RoutingLoop> = Vec::new();
    for (net, mut group) in by_prefix {
        group.sort_by_key(|s| (ts(first(s)), end(s), s.key.ident, first(s)));
        let mut open: Option<RoutingLoop> = None;
        for s in group {
            let start = ts(first(&s));
            match &mut open {
                Some(l)
                    if start <= l.end_ns
                        || (start - l.end_ns <= cfg.merge_gap_ns
                            && clean(net, l.end_ns + 1, start - 1)) =>
                {
                    l.end_ns = l.end_ns.max(end(&s));
                    l.streams.push(s);
                }
                _ => {
                    loops.extend(open.take());
                    open = Some(RoutingLoop {
                        prefix: Ipv4Prefix::slash24_of(s.key.dst),
                        start_ns: start,
                        end_ns: end(&s),
                        streams: vec![s],
                    });
                }
            }
        }
        loops.extend(open);
    }

    stats.validated_streams = streams.len() as u64;
    stats.looped_sightings = streams.iter().map(|s| s.record_indices.len() as u64).sum();
    stats.routing_loops = loops.len() as u64;
    Ok(Expected {
        streams,
        loops,
        looped_flags,
        stats,
    })
}
