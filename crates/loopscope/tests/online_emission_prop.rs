//! Property test for *when* `OnlineDetector` emits, on traces many merge
//! gaps long so that loop finalisation and history trimming both run while
//! records are still arriving:
//!
//! * every stream is emitted by the push of the first record later than
//!   its last sighting plus the replica gap (or by `finish` if none is);
//! * every loop is emitted only after its end plus the merge gap, and no
//!   later than the first record past that plus 256 replica gaps, the
//!   longest an open candidate can hold it back. Exactly, it leaves on the
//!   first push past its end plus the merge gap by which every candidate
//!   to its /24 that started by then has closed;
//! * with the safe history horizon, streams and loops equal the offline
//!   [`Detector`]'s;
//! * distinct keys forced onto one fingerprint, and any batching of the
//!   same records through [`OnlineDetector::push_batch`], change nothing.

use loopscope::online::{OnlineDetector, OnlineEvent};
use loopscope::{Detector, DetectorConfig, ReplicaKey, ReplicaStream, RoutingLoop, TraceRecord};
use net_types::{IpProtocol, Ipv4Prefix, Packet, TcpFlags};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Short gaps, so a trace of a few hundred records spans many merge gaps
/// and several safe horizons.
fn tight_cfg() -> DetectorConfig {
    DetectorConfig {
        max_replica_gap_ns: 50_000_000, // 50 ms
        merge_gap_ns: 1_000_000_000,    // 1 s
        ..DetectorConfig::default()
    }
}

fn safe_horizon(cfg: &DetectorConfig) -> u64 {
    cfg.merge_gap_ns + cfg.max_replica_gap_ns * 256
}

/// `n` sightings of one looping packet, TTL dropping by 2 each.
fn loop_sightings(
    start_ns: u64,
    spacing_ns: u64,
    n: usize,
    ident: u16,
    dst: Ipv4Addr,
) -> Vec<TraceRecord> {
    let mut p = Packet::tcp_flags(
        Ipv4Addr::new(100, 7, 0, 1),
        dst,
        40_000,
        80,
        TcpFlags::ACK,
        &b"x"[..],
    );
    p.ip.ident = ident;
    p.ip.ttl = 64;
    p.fill_checksums();
    let mut out = Vec::new();
    for k in 0..n {
        if k > 0 {
            assert!(p.ip.decrement_ttl() && p.ip.decrement_ttl());
        }
        out.push(TraceRecord::from_packet(
            start_ns + k as u64 * spacing_ns,
            &p,
        ));
    }
    out
}

/// One non-looping packet to `dst` at `ts`.
fn background(ts: u64, ident: u16, dst: Ipv4Addr) -> TraceRecord {
    let mut p = Packet::tcp_flags(
        Ipv4Addr::new(100, 9, 0, 1),
        dst,
        50_000,
        443,
        TcpFlags::ACK,
        &b"y"[..],
    );
    p.ip.ident = ident;
    p.ip.ttl = 57;
    p.fill_checksums();
    TraceRecord::from_packet(ts, &p)
}

/// `n` sightings of a looping packet of an unparsed protocol, whose 8
/// body bytes are its whole transport summary; TTL dropping by 2 each.
fn opaque_sightings(
    start_ns: u64,
    spacing_ns: u64,
    n: usize,
    ident: u16,
    body: [u8; 8],
    dst: Ipv4Addr,
) -> Vec<TraceRecord> {
    let mut p = Packet::opaque(
        Ipv4Addr::new(100, 8, 0, 1),
        dst,
        IpProtocol::Other(47),
        body.to_vec(),
    );
    p.ip.ident = ident;
    p.ip.ttl = 64;
    p.fill_checksums();
    let mut out = Vec::new();
    for k in 0..n {
        if k > 0 {
            assert!(p.ip.decrement_ttl() && p.ip.decrement_ttl());
        }
        out.push(TraceRecord::from_packet(
            start_ns + k as u64 * spacing_ns,
            &p,
        ));
    }
    out
}

/// The multiplier of the Fx mixer behind [`ReplicaKey::fingerprint`].
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The body that gives the opaque packet with `ident` the fingerprint of
/// `(ident_a, body_a)`. The body enters the fingerprint as its last word,
/// `(running hash rotated ^ word) * FX_SEED`, and the multiply is
/// invertible, so the word can be solved for. Callers assert the result.
fn colliding_body(ident_a: u16, body_a: [u8; 8], ident: u16, dst: Ipv4Addr) -> [u8; 8] {
    let mut inverse = FX_SEED;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(inverse)));
    }
    let rotated = |ident| {
        let rec = opaque_sightings(0, 0, 1, ident, [0; 8], dst)[0];
        ReplicaKey::of(&rec).fingerprint().wrapping_mul(inverse)
    };
    (u64::from_le_bytes(body_a) ^ rotated(ident_a) ^ rotated(ident)).to_le_bytes()
}

/// Every event with the index of the push that emitted it
/// (`records.len()` for `finish`).
fn timed_events(records: &[TraceRecord], det: OnlineDetector) -> Vec<(usize, OnlineEvent)> {
    let mut det = det;
    let mut out = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        out.extend(det.push(rec).into_iter().map(|e| (i, e)));
    }
    let (tail, _) = det.finish();
    out.extend(tail.into_iter().map(|e| (records.len(), e)));
    out
}

/// Index of the first record strictly later than `t`, or `records.len()`.
fn first_after(records: &[TraceRecord], t: u64) -> usize {
    records.partition_point(|r| r.timestamp_ns <= t)
}

/// Every candidate as `(its /24, start, index of the push that closes it)`.
/// In these traces each key's sightings are closer than the replica gap
/// and no sighting forces a split, so each key is exactly one candidate,
/// closed by the first record past its last sighting plus the gap.
fn candidates(records: &[TraceRecord], gap: u64) -> Vec<(Ipv4Prefix, u64, usize)> {
    let mut span: HashMap<ReplicaKey, (u64, u64)> = HashMap::new();
    for r in records {
        span.entry(ReplicaKey::of(r))
            .or_insert((r.timestamp_ns, r.timestamp_ns))
            .1 = r.timestamp_ns;
    }
    span.into_iter()
        .map(|(k, (start, last))| {
            (
                Ipv4Prefix::slash24_of(k.dst),
                start,
                first_after(records, last + gap),
            )
        })
        .collect()
}

fn check_timing(records: &[TraceRecord], cfg: &DetectorConfig, events: &[(usize, OnlineEvent)]) {
    let gap = cfg.max_replica_gap_ns;
    let cands = candidates(records, gap);
    for (at, event) in events {
        match event {
            OnlineEvent::Stream(s) => {
                prop_assert_eq!(
                    *at,
                    first_after(records, s.end_ns() + gap),
                    "stream {:?}",
                    s.key
                );
            }
            OnlineEvent::Loop(l) => {
                let due = l.end_ns + cfg.merge_gap_ns;
                if *at < records.len() {
                    prop_assert!(
                        records[*at].timestamp_ns > due,
                        "loop at {} emitted early",
                        l.start_ns
                    );
                }
                prop_assert!(
                    *at <= first_after(records, due + 256 * gap),
                    "loop at {} emitted late",
                    l.start_ns
                );
                let blockers_closed = cands
                    .iter()
                    .filter(|&&(prefix, start, _)| prefix == l.prefix && start <= due)
                    .map(|&(_, _, closed)| closed)
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(
                    *at,
                    first_after(records, due).max(blockers_closed),
                    "loop at {}",
                    l.start_ns
                );
            }
        }
    }
}

fn split(events: Vec<(usize, OnlineEvent)>) -> (Vec<ReplicaStream>, Vec<RoutingLoop>) {
    let mut streams = Vec::new();
    let mut loops = Vec::new();
    for (_, e) in events {
        match e {
            OnlineEvent::Stream(s) => streams.push(s),
            OnlineEvent::Loop(l) => loops.push(l),
        }
    }
    streams.sort_by_key(|s| (s.start_ns(), s.record_indices[0]));
    loops.sort_by_key(|l| (l.prefix, l.start_ns));
    (streams, loops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emission_timing_and_offline_equality(
        // Each loop: (start in ms, spacing ms, sightings, /24, revisit
        // gap as a percentage of the merge gap).
        loops in proptest::collection::vec(
            (0u64..40_000, 2u64..45, 2usize..9, 0u8..4, 30u64..200),
            2..10,
        ),
        bg_every_ms in 20u64..400,
        bg_on_loop_prefixes in any::<bool>(),
        short_horizon_ms in 50u64..3_000,
    ) {
        let cfg = tight_cfg();
        let mut records = Vec::new();
        for (i, &(start_ms, spacing_ms, n, net, revisit_pct)) in loops.iter().enumerate() {
            let dst = Ipv4Addr::new(203, 0, net, 7);
            let spacing = spacing_ms * 1_000_000;
            let start = start_ms * 1_000_000;
            records.extend(loop_sightings(start, spacing, n, 100 + i as u16, dst));
            // A second loop to the same /24 around one merge gap later:
            // whether the two merge depends on history at the boundary.
            let revisit = start + (n as u64 - 1) * spacing + cfg.merge_gap_ns * revisit_pct / 100;
            records.extend(loop_sightings(revisit, spacing, n, 300 + i as u16, dst));
        }
        // Background traffic keeps the clock moving; on the loops' /24s it
        // also dirties merge gaps and vetoes streams by the co-loop rule.
        let span = records.iter().map(|r| r.timestamp_ns).max().unwrap_or(0) + 2 * safe_horizon(&cfg);
        let (mut t, mut ident) = (0u64, 10_000u16);
        while t < span {
            let net = if bg_on_loop_prefixes { (ident % 5) as u8 } else { 99 };
            records.push(background(t, ident, Ipv4Addr::new(203, 0, net, 9)));
            ident = ident.wrapping_add(1);
            t += bg_every_ms * 1_000_000;
        }
        records.sort_by_key(|r| r.timestamp_ns);

        // Safe horizon: exact timing and offline equality.
        let det = OnlineDetector::new(cfg).with_history_horizon(safe_horizon(&cfg));
        let events = timed_events(&records, det);
        check_timing(&records, &cfg, &events);
        let offline = Detector::new(cfg).run(&records);
        // The trace runs on for two horizons after the last loop, so
        // every loop must leave while records are still arriving.
        prop_assert!(events
            .iter()
            .all(|(at, e)| matches!(e, OnlineEvent::Stream(_)) || *at < records.len()));
        let (streams, loops) = split(events);
        prop_assert_eq!(&streams, &offline.streams);
        prop_assert_eq!(&loops, &offline.loops);

        // A horizon far below the merge gap trims on almost every push;
        // the output may differ from offline, the timing may not.
        let det = OnlineDetector::new(cfg).with_history_horizon(short_horizon_ms * 1_000_000);
        check_timing(&records, &cfg, &timed_events(&records, det));

        // The default configuration on the same records: a merge gap
        // longer than most of the trace.
        let default = DetectorConfig::default();
        let det = OnlineDetector::new(default);
        check_timing(&records, &default, &timed_events(&records, det));

        // A merge gap shorter than the replica gap: loops can be due
        // before their last stream has even closed.
        let short_merge = DetectorConfig { merge_gap_ns: 20_000_000, ..cfg };
        let events = timed_events(&records, OnlineDetector::new(short_merge));
        check_timing(&records, &short_merge, &events);
        let offline = Detector::new(short_merge).run(&records);
        let (streams, loops) = split(events);
        prop_assert_eq!(&streams, &offline.streams);
        prop_assert_eq!(&loops, &offline.loops);
    }

    #[test]
    fn colliding_fingerprints_and_batching_change_nothing(
        // Each loop: (start in ms, spacing ms, sightings, /24, its twin's
        // offset in ms and sightings). The twin has a different key but,
        // by construction, the same fingerprint.
        loops in proptest::collection::vec(
            (0u64..20_000, 2u64..45, 1usize..9, 0u8..3, 0u64..400, 1usize..9),
            1..8,
        ),
        bg_every_ms in 20u64..400,
        chunks in proptest::collection::vec(1usize..300, 1..8),
    ) {
        let cfg = tight_cfg();
        let mut records = Vec::new();
        for (i, &(start_ms, spacing_ms, n, net, twin_ms, twin_n)) in loops.iter().enumerate() {
            let dst = Ipv4Addr::new(203, 0, net, 7);
            let (ident, twin_ident) = (100 + i as u16, 300 + i as u16);
            let body = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes();
            let twin_body = colliding_body(ident, body, twin_ident, dst);
            let a = opaque_sightings(start_ms * 1_000_000, spacing_ms * 1_000_000, n, ident, body, dst);
            let b = opaque_sightings(
                (start_ms + twin_ms) * 1_000_000,
                spacing_ms * 1_000_000,
                twin_n,
                twin_ident,
                twin_body,
                dst,
            );
            prop_assert_ne!(ReplicaKey::of(&a[0]), ReplicaKey::of(&b[0]));
            prop_assert_eq!(a[0].fingerprint, b[0].fingerprint);
            records.extend(a);
            records.extend(b);
        }
        let span = records.iter().map(|r| r.timestamp_ns).max().unwrap_or(0) + 2 * safe_horizon(&cfg);
        let (mut t, mut ident) = (0u64, 10_000u16);
        while t < span {
            records.push(background(t, ident, Ipv4Addr::new(203, 0, (ident % 4) as u8, 9)));
            ident = ident.wrapping_add(1);
            t += bg_every_ms * 1_000_000;
        }
        records.sort_by_key(|r| r.timestamp_ns);

        // Collisions: the safe-horizon result still equals the offline one.
        let det = OnlineDetector::new(cfg).with_history_horizon(safe_horizon(&cfg));
        let events = timed_events(&records, det);
        let offline = Detector::new(cfg).run(&records);
        let per_record: Vec<Vec<OnlineEvent>> = {
            let mut by_push = vec![Vec::new(); records.len()];
            for (at, e) in &events {
                if *at < records.len() {
                    by_push[*at].push(e.clone());
                }
            }
            by_push
        };
        let (streams, loops) = split(events);
        prop_assert_eq!(&streams, &offline.streams);
        prop_assert_eq!(&loops, &offline.loops);

        // Batching: each batch emits exactly its records' events, in order.
        let mut det = OnlineDetector::new(cfg).with_history_horizon(safe_horizon(&cfg));
        let mut pos = 0;
        for &len in chunks.iter().cycle() {
            if pos == records.len() {
                break;
            }
            let end = (pos + len).min(records.len());
            let mut got = Vec::new();
            det.push_batch(&records[pos..end], |e| got.push(e));
            prop_assert_eq!(got, per_record[pos..end].concat());
            pos = end;
        }
    }
}
