//! The level-0 table's size is invisible in step 1's results.
//!
//! `CandidateScanner` starts from a capacity hint and lets its generation
//! sweep grow the table to the live replica window. Whatever the hint —
//! one key, sixteen, the default, or the whole trace — the candidate
//! streams, the `opened`/`discarded`/`checksum_splits` counters and the
//! checksum-split log must be the same; only *when* a singleton is counted
//! as discarded may move (and with it the eviction count, which is not
//! compared). The inputs mix steady traffic with bursts that force growth,
//! replicas and re-sighted link-layer duplicates at gaps either side of
//! `max_replica_gap` and of the two-generation eviction boundary, corrupted
//! checksums and forged fingerprint collisions. `Detector::run` is also
//! compared with the independent oracle (`tests/oracle`) on the same
//! inputs.

mod oracle;

use loopscope::{CandidateScanner, Detector, DetectorConfig, ReplicaKey, TraceRecord};
use net_types::{Packet, TcpFlags};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// The eviction generation of the default configuration: the smallest power
/// of two at or above the 1 s `max_replica_gap_ns`.
const GEN_NS: u64 = 1 << 30;

/// Replica spacings around the two bounds the sweep must respect: the
/// 1 s join limit, and one and two generations (where a seed turns from
/// live to evictable).
const SPACINGS_NS: [u64; 9] = [
    1_000_000,
    400_000_000,
    999_999_999,
    1_000_000_000,
    1_000_000_001,
    GEN_NS - 1,
    GEN_NS,
    2 * GEN_NS - 1,
    2 * GEN_NS,
];

fn packet(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, ttl: u8) -> Packet {
    let mut p = Packet::tcp_flags(src, dst, 40000, 80, TcpFlags::ACK, &b"x"[..]);
    p.ip.ident = ident;
    p.ip.ttl = ttl;
    p.fill_checksums();
    p
}

/// Ordinary traffic with pairwise-distinct keys at `rate` records/s, with a
/// burst of `burst` records 1 µs apart starting at record `burst_at`.
/// Every `echo_every`-th packet is sighted once more, after a gap cycling
/// through [`SPACINGS_NS`]: alternately a link-layer duplicate (TTL
/// unchanged, so it re-seeds) and a two-sighting replica (TTL down by 2,
/// which joins only within the replica gap). Spread over the whole trace,
/// these pairs straddle the sweeps wherever they fall.
fn background(
    n: usize,
    rate: u64,
    burst_at: usize,
    burst: usize,
    echo_every: usize,
) -> Vec<TraceRecord> {
    let spacing = 1_000_000_000 / rate;
    let mut out = Vec::with_capacity(n + n / echo_every + 1);
    let mut t = 0u64;
    for i in 0..n {
        t += if (burst_at..burst_at + burst).contains(&i) {
            1_000
        } else {
            // A little jitter, so sweeps land at varying phases.
            spacing + (i as u64 * 7919) % (spacing / 2 + 1)
        };
        let mut p = packet(
            Ipv4Addr::new(100, 9, (i >> 8) as u8, i as u8),
            Ipv4Addr::new(198, 51, (i % 251) as u8, 1),
            i as u16,
            57,
        );
        out.push(TraceRecord::from_packet(t, &p));
        if i % echo_every == 0 {
            let k = i / echo_every;
            if k % 2 == 1 {
                assert!(p.ip.decrement_ttl() && p.ip.decrement_ttl());
            }
            out.push(TraceRecord::from_packet(
                t + SPACINGS_NS[k % SPACINGS_NS.len()],
                &p,
            ));
        }
    }
    out
}

/// One packet looping: `n` sightings `spacing_ns` apart, TTL down by 2 each.
/// With `corrupt`, sighting `corrupt % n` carries a checksum that is not an
/// RFC 1624 rewrite of the previous one.
fn looping(
    start_ns: u64,
    spacing_ns: u64,
    n: usize,
    ident: u16,
    corrupt: Option<usize>,
) -> Vec<TraceRecord> {
    let mut p = packet(
        Ipv4Addr::new(100, 7, 7, 7),
        Ipv4Addr::new(203, 0, (ident % 4) as u8, 9),
        ident,
        120,
    );
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        if k > 0 {
            assert!(p.ip.decrement_ttl() && p.ip.decrement_ttl());
        }
        let mut rec = TraceRecord::from_packet(start_ns + k as u64 * spacing_ns, &p);
        if corrupt.is_some_and(|c| c % n == k && k > 0) {
            rec.ip_checksum ^= 0x0f0f;
        }
        out.push(rec);
    }
    out
}

struct Scan {
    streams: Vec<loopscope::ReplicaStream>,
    opened: u64,
    discarded: u64,
    checksum_splits: u64,
    split_fps: Vec<u64>,
}

fn scan(records: &[TraceRecord], hint: usize) -> Scan {
    let mut scanner = CandidateScanner::with_capacity(DetectorConfig::default(), hint);
    for (idx, rec) in records.iter().enumerate() {
        scanner.push(idx, rec);
    }
    let (streams, counters, split_fps) = scanner.finish_with_splits();
    Scan {
        streams,
        opened: counters.opened,
        discarded: counters.discarded,
        checksum_splits: counters.checksum_splits,
        split_fps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_capacity_never_changes_results(
        n in 2_000usize..9_000,
        rate in 500u64..5_000,
        burst_at in 0usize..9_000,
        burst in 0usize..6_000,
        echo_every in 3usize..200,
        loops in proptest::collection::vec(
            (0u64..8, 0u64..GEN_NS, 0usize..SPACINGS_NS.len(), 2usize..7, 0usize..12),
            1..12,
        ),
        buckets in 0u64..6,
    ) {
        let mut recs = background(n, rate, burst_at, burst, echo_every);
        for (j, &(gen, offset, spacing, len, corrupt)) in loops.iter().enumerate() {
            // Half the loops start a few nanoseconds before a generation
            // boundary, the rest anywhere in their generation.
            let start = if j % 2 == 0 { (gen + 1) * GEN_NS - offset % 4 } else { gen * GEN_NS + offset };
            recs.extend(looping(
                start,
                SPACINGS_NS[spacing],
                len,
                60_000 + j as u16,
                (corrupt < len).then_some(corrupt),
            ));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        if buckets > 0 {
            // Forged collisions, still a pure function of the key: every
            // record lands on one of `buckets` fingerprints (0 included,
            // which the scanner folds onto its non-sentinel value).
            for r in &mut recs {
                r.fingerprint = ReplicaKey::of(r).fingerprint() % buckets;
            }
        }

        let reference = scan(&recs, recs.len());
        for hint in [1, 16, CandidateScanner::DEFAULT_CAPACITY] {
            let got = scan(&recs, hint);
            prop_assert_eq!(&got.streams, &reference.streams, "hint {}", hint);
            prop_assert_eq!(got.opened, reference.opened, "hint {}", hint);
            prop_assert_eq!(got.discarded, reference.discarded, "hint {}", hint);
            prop_assert_eq!(got.checksum_splits, reference.checksum_splits, "hint {}", hint);
            prop_assert_eq!(&got.split_fps, &reference.split_fps, "hint {}", hint);
        }

        let got = Detector::new(DetectorConfig::default()).run(&recs);
        let want = oracle::detect(&recs, &DetectorConfig::default()).unwrap();
        prop_assert_eq!(&got.streams, &want.streams);
        prop_assert_eq!(&got.loops, &want.loops);
        prop_assert_eq!(&got.looped_flags, &want.looped_flags);
        prop_assert_eq!(got.stats, want.stats);
    }
}
