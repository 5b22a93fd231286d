//! Property tests for the detection pipeline's core invariants.

mod oracle;

use loopscope::{Detector, DetectorConfig, TraceRecord};
use net_types::{Packet, TcpFlags};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Builds the tap view of one packet circulating a loop: `n` sightings,
/// TTL dropping by `delta` each, spaced `spacing_ns` apart.
#[allow(clippy::too_many_arguments)]
fn loop_sightings(
    start_ns: u64,
    spacing_ns: u64,
    first_ttl: u8,
    delta: u8,
    n: usize,
    ident: u16,
    dst: Ipv4Addr,
    src_octet: u8,
) -> Vec<TraceRecord> {
    let mut p = Packet::tcp_flags(
        Ipv4Addr::new(100, src_octet, 0, 1),
        dst,
        40000,
        80,
        TcpFlags::ACK,
        &b"x"[..],
    );
    p.ip.ident = ident;
    p.ip.ttl = first_ttl;
    p.fill_checksums();
    let mut out = Vec::new();
    for k in 0..n {
        if k > 0 {
            for _ in 0..delta {
                assert!(p.ip.decrement_ttl());
            }
        }
        out.push(TraceRecord::from_packet(
            start_ns + k as u64 * spacing_ns,
            &p,
        ));
    }
    out
}

proptest! {
    /// A clean n-sighting loop yields exactly one validated stream with n
    /// replicas and the right delta — for any loop size, spacing, and
    /// starting TTL that fits.
    #[test]
    fn clean_loop_detected_exactly(
        delta in 2u8..9,
        n in 3usize..20,
        ttl_head in 0u8..60,
        spacing_ms in 1u64..200,
        ident in any::<u16>(),
    ) {
        let first_ttl = (delta as usize * n + ttl_head as usize).min(255) as u8;
        prop_assume!(first_ttl as usize >= delta as usize * n);
        let recs = loop_sightings(
            1_000,
            spacing_ms * 1_000_000,
            first_ttl,
            delta,
            n,
            ident,
            Ipv4Addr::new(203, 0, 113, 7),
            1,
        );
        let result = Detector::new(DetectorConfig {
            // Spacings up to 200 ms exceed the default 1 s gap? No — but
            // stay explicit about the bound the property relies on.
            max_replica_gap_ns: 1_000_000_000,
            ..DetectorConfig::default()
        })
        .run(&recs);
        prop_assert_eq!(result.streams.len(), 1);
        let s = &result.streams[0];
        prop_assert_eq!(s.len(), n);
        prop_assert_eq!(s.ttl_delta(), delta);
        prop_assert_eq!(s.first_ttl(), first_ttl);
        prop_assert_eq!(result.loops.len(), 1);
        prop_assert_eq!(result.loops[0].replica_count(), n);
    }

    /// Ordinary (non-looping) traffic never produces streams, whatever the
    /// flow structure: idents all distinct.
    #[test]
    fn distinct_idents_never_detected(
        n in 1usize..200,
        ttl in 2u8..255,
        base_ident in any::<u16>(),
    ) {
        let mut recs = Vec::new();
        for i in 0..n {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 0, 0, 1),
                Ipv4Addr::new(203, 0, 113, 7),
                40000,
                80,
                TcpFlags::ACK,
                &b"x"[..],
            );
            p.ip.ident = base_ident.wrapping_add(i as u16);
            p.ip.ttl = ttl;
            p.fill_checksums();
            recs.push(TraceRecord::from_packet(i as u64 * 1_000, &p));
        }
        prop_assume!(n <= 65_536); // no ident wrap
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        prop_assert!(result.streams.is_empty());
        prop_assert_eq!(result.stats.raw_candidates, 0);
    }

    /// Detection distributes over independent loops: running the detector
    /// on k interleaved loops (distinct /24s) finds exactly k streams and
    /// k merged loops.
    #[test]
    fn independent_loops_compose(
        k in 1usize..8,
        n in 3usize..10,
        spacing_ms in 1u64..50,
    ) {
        let mut recs = Vec::new();
        for j in 0..k {
            recs.extend(loop_sightings(
                j as u64 * 777,
                spacing_ms * 1_000_000,
                64,
                2,
                n,
                j as u16,
                Ipv4Addr::new(203, j as u8, 113, 7),
                j as u8,
            ));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        prop_assert_eq!(result.streams.len(), k);
        prop_assert_eq!(result.loops.len(), k);
        prop_assert_eq!(result.stats.looped_sightings, (k * n) as u64);
    }

    /// Validated streams always have strictly decreasing TTLs, at least
    /// min_ttl_delta apart, and non-decreasing timestamps.
    #[test]
    fn stream_internal_invariants(
        k in 1usize..5,
        n in 3usize..12,
        delta in 2u8..5,
    ) {
        let mut recs = Vec::new();
        for j in 0..k {
            recs.extend(loop_sightings(
                j as u64 * 500,
                2_000_000,
                200,
                delta,
                n,
                j as u16,
                Ipv4Addr::new(198, 51, j as u8, 1),
                j as u8,
            ));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        for s in &result.streams {
            for w in s.observations.windows(2) {
                prop_assert!(w[0].ttl >= w[1].ttl + 2);
                prop_assert!(w[0].timestamp_ns <= w[1].timestamp_ns);
            }
            // Record indices are consistent with the source records.
            for (obs, &idx) in s.observations.iter().zip(&s.record_indices) {
                prop_assert_eq!(recs[idx].ttl, obs.ttl);
                prop_assert_eq!(recs[idx].timestamp_ns, obs.timestamp_ns);
            }
        }
    }

    /// Merged loops partition the validated streams: every stream lands in
    /// exactly one loop, loops of the same prefix do not overlap, and loop
    /// intervals cover their member streams.
    #[test]
    fn merge_partitions_streams(
        k in 1usize..6,
        n in 3usize..8,
        gap_s in 0u64..120,
    ) {
        let mut recs = Vec::new();
        // Same /24, sequential bursts separated by gap_s.
        for j in 0..k {
            recs.extend(loop_sightings(
                j as u64 * gap_s * 1_000_000_000 + j as u64,
                1_000_000,
                64,
                2,
                n,
                j as u16,
                Ipv4Addr::new(203, 0, 113, 7),
                j as u8,
            ));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        let total_in_loops: usize = result.loops.iter().map(|l| l.num_streams()).sum();
        prop_assert_eq!(total_in_loops, result.streams.len());
        for l in &result.loops {
            prop_assert!(l.start_ns <= l.end_ns);
            for s in &l.streams {
                prop_assert!(s.start_ns() >= l.start_ns);
                prop_assert!(s.end_ns() <= l.end_ns);
                prop_assert_eq!(s.dst_slash24(), l.prefix);
            }
        }
        // Same-prefix loops are disjoint and ordered.
        for w in result.loops.windows(2) {
            if w[0].prefix == w[1].prefix {
                prop_assert!(w[0].end_ns < w[1].start_ns);
            }
        }
    }
}

mod online_equivalence {
    use super::*;
    use loopscope::online::{run_streaming, OnlineEvent};

    proptest! {
        /// The streaming detector is observationally equivalent to the
        /// offline pipeline: same validated streams, same loop partition.
        #[test]
        fn online_matches_offline(
            k in 1usize..6,
            n in 3usize..12,
            delta in 2u8..5,
            gap_s in 0u64..100,
            noise in 0usize..100,
        ) {
            let mut recs = Vec::new();
            for j in 0..k {
                recs.extend(loop_sightings(
                    j as u64 * (gap_s * 1_000_000_000 + 13),
                    1_000_000,
                    200,
                    delta,
                    n,
                    j as u16,
                    Ipv4Addr::new(203, 0, (j % 3) as u8, 7),
                    j as u8,
                ));
            }
            for i in 0..noise {
                let mut p = Packet::tcp_flags(
                    Ipv4Addr::new(100, 9, 9, 9),
                    Ipv4Addr::new(20, 1, (i % 4) as u8, 1),
                    700,
                    80,
                    TcpFlags::ACK,
                    &b""[..],
                );
                p.ip.ident = i as u16;
                p.fill_checksums();
                recs.push(TraceRecord::from_packet(i as u64 * 37_000_000, &p));
            }
            recs.sort_by_key(|r| r.timestamp_ns);

            let offline = Detector::new(DetectorConfig::default()).run(&recs);
            let (events, stats) = run_streaming(DetectorConfig::default(), &recs);

            let mut streams: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    OnlineEvent::Stream(s) => Some(s),
                    _ => None,
                })
                .collect();
            // Online events arrive in emission order; offline output is
            // sorted. Compare as sets via a canonical order.
            streams.sort_by_key(|s| (s.start_ns(), s.key.ident));
            prop_assert_eq!(streams.len(), offline.streams.len());
            for (a, b) in streams.iter().zip(&offline.streams) {
                prop_assert_eq!(&a.key, &b.key);
                prop_assert_eq!(&a.observations, &b.observations);
            }
            let mut loops: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    OnlineEvent::Loop(l) => Some(l),
                    _ => None,
                })
                .collect();
            loops.sort_by_key(|l| (l.prefix, l.start_ns));
            prop_assert_eq!(loops.len(), offline.loops.len());
            for (a, b) in loops.iter().zip(&offline.loops) {
                prop_assert_eq!(a.prefix, b.prefix);
                prop_assert_eq!(a.start_ns, b.start_ns);
                prop_assert_eq!(a.end_ns, b.end_ns);
                prop_assert_eq!(a.num_streams(), b.num_streams());
            }
            prop_assert_eq!(stats.raw_candidates, offline.stats.raw_candidates);
            prop_assert_eq!(stats.rejected_short, offline.stats.rejected_short);
            prop_assert_eq!(
                stats.rejected_covalidation,
                offline.stats.rejected_covalidation
            );
        }
    }
}

proptest! {
    /// Adversarially forged level-0 collisions — down to *every* record
    /// sharing one fingerprint — never change `DetectionResult` from the
    /// independent oracle's. The forgery stays a pure function of the key
    /// (the contract ingest upholds: same key ⇒ same fingerprint) but
    /// squeezes all fingerprints into `buckets` values, so the pre-filter
    /// sees nothing but collisions and must escalate its way to
    /// correctness through full key compares.
    #[test]
    fn forced_fingerprint_collisions_never_change_results(
        loops in 1usize..6,
        noise in 0usize..120,
        buckets in 1u64..8,
        spacing_ms in 1u64..50,
    ) {
        let mut recs = Vec::new();
        for i in 0..loops {
            recs.extend(loop_sightings(
                1_000 + i as u64 * 37_000,
                spacing_ms * 1_000_000,
                60,
                2,
                5,
                i as u16,
                Ipv4Addr::new(203, 0, 113, (i % 200) as u8 + 1),
                1,
            ));
        }
        for i in 0..noise {
            // Distinct idents: ordinary traffic, never replicas.
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 9, 0, 1),
                Ipv4Addr::new(198, 51, 100, (i % 200) as u8 + 1),
                3000,
                80,
                TcpFlags::ACK,
                &b"n"[..],
            );
            p.ip.ident = 10_000 + i as u16;
            p.ip.ttl = 57;
            p.fill_checksums();
            recs.push(TraceRecord::from_packet(500 + i as u64 * 293_000, &p));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        // `% 1` forges fingerprint 0 for every record — also covering the
        // scanner's empty-slot-sentinel normalisation.
        for r in &mut recs {
            r.fingerprint = loopscope::ReplicaKey::of(r).fingerprint() % buckets;
        }
        let got = Detector::new(DetectorConfig::default()).run(&recs);
        let want = oracle::detect(&recs, &DetectorConfig::default()).unwrap();
        prop_assert_eq!(&got.streams, &want.streams);
        prop_assert_eq!(&got.loops, &want.loops);
        prop_assert_eq!(&got.looped_flags, &want.looped_flags);
        prop_assert_eq!(got.stats, want.stats);
    }
}
