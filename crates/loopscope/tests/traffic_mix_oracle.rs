//! Oracle for the §V traffic-mix fold (Figures 5 and 6).
//!
//! [`AnalysisAccumulator`] counts records by class code and expands the
//! table into categories once, in `report()`. The reference here labels
//! every record on its own, straight from the paper's category rules, and
//! shares no code with the classifier: its own label list, its own flag
//! bits, its own multicast test. Every TCP flag byte (the two high bits
//! must be ignored), UDP, ICMP and other protocols are checked at
//! destinations either side of both multicast boundaries.

use loopscope::analysis::{self, AnalysisAccumulator};
use loopscope::stream::Observation;
use loopscope::{traffic_class, ReplicaKey, ReplicaStream, TraceRecord, TransportSummary};
use proptest::prelude::*;
use stats::CategoricalDist;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Figures 5/6's x-axis, as the paper draws it.
const LABELS: [&str; 11] = [
    "TCP", "ACK", "PSH", "RST", "URG", "SYN", "FIN", "UDP", "MCAST", "ICMP", "OTHER",
];

/// First octets either side of both ends of 224.0.0.0/4.
const FIRST_OCTETS: [u8; 4] = [223, 224, 239, 240];

/// The categories one record hits, by the rules alone: a TCP segment is
/// TCP plus one category per set flag among FIN, SYN, RST, PSH, ACK and
/// URG; UDP and ICMP are themselves; a multicast destination (224–239)
/// adds MCAST; any other protocol is OTHER, unless it is multicast.
fn reference_labels(rec: &TraceRecord) -> Vec<&'static str> {
    let multicast = (224..=239).contains(&rec.dst.octets()[0]);
    let mut labels = Vec::new();
    match rec.transport {
        TransportSummary::Tcp { flags, .. } => {
            labels.push("TCP");
            for (bit, name) in [
                (0x01, "FIN"),
                (0x02, "SYN"),
                (0x04, "RST"),
                (0x08, "PSH"),
                (0x10, "ACK"),
                (0x20, "URG"),
            ] {
                if flags & bit == bit {
                    labels.push(name);
                }
            }
        }
        TransportSummary::Udp { .. } => labels.push("UDP"),
        TransportSummary::Icmp { .. } => labels.push("ICMP"),
        TransportSummary::Other { .. } if !multicast => labels.push("OTHER"),
        TransportSummary::Other { .. } => {}
    }
    if multicast {
        labels.push("MCAST");
    }
    labels
}

/// Reference counts per label, and the number of items, of `weighted`
/// records each counted `n` times.
fn reference<'a>(
    weighted: impl Iterator<Item = (&'a TraceRecord, u64)>,
) -> (BTreeMap<&'static str, u64>, u64) {
    let mut counts: BTreeMap<&'static str, u64> = LABELS.iter().map(|&l| (l, 0)).collect();
    let mut items = 0;
    for (rec, n) in weighted {
        items += n;
        for label in reference_labels(rec) {
            *counts.get_mut(label).expect("a paper category") += n;
        }
    }
    (counts, items)
}

fn assert_matches(what: &str, dist: &CategoricalDist, want: &(BTreeMap<&'static str, u64>, u64)) {
    let labels: Vec<&str> = dist.fractions().iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, LABELS, "{what}: category order");
    assert_eq!(dist.items(), want.1, "{what}: items");
    for (label, &count) in &want.0 {
        assert_eq!(dist.count(label), count, "{what}: {label}");
    }
}

/// Transport kinds: 0 TCP, 1 UDP, 2 ICMP, 3 another protocol.
fn record(i: u64, kind: u8, flags: u8, first_octet: u8) -> TraceRecord {
    let (protocol, transport) = match kind {
        0 => (
            6,
            TransportSummary::Tcp {
                src_port: 4000,
                dst_port: 80,
                seq: i as u32,
                ack: 7,
                flags,
                window: 1024,
                checksum: 0xbeef,
                urgent: 0,
            },
        ),
        1 => (
            17,
            TransportSummary::Udp {
                src_port: 53,
                dst_port: 5353,
                length: 20,
                checksum: 0xbeef,
            },
        ),
        2 => (
            1,
            TransportSummary::Icmp {
                icmp_type: 8,
                code: 0,
                checksum: 0xbeef,
                rest: [0, 1, 0, i as u8],
            },
        ),
        _ => (
            2,
            TransportSummary::Other {
                lead: [0x16, 0, 0, 0, 224, 0, 0, 1],
                len: 8,
            },
        ),
    };
    TraceRecord {
        timestamp_ns: i * 1_000,
        src: Ipv4Addr::new(100, 0, 0, 1),
        dst: Ipv4Addr::new(first_octet, 1, (i % 250) as u8, 9),
        protocol,
        ident: i as u16,
        total_len: 40 + (i % 1400) as u16,
        tos: 0,
        ttl: 64,
        frag_word: 0,
        ip_checksum: 0,
        transport,
        fingerprint: i,
    }
}

/// A validated stream of `n` sightings of `rec`.
fn stream_of(rec: &TraceRecord, n: usize) -> ReplicaStream {
    ReplicaStream {
        key: ReplicaKey::of(rec),
        observations: (0..n)
            .map(|k| Observation {
                timestamp_ns: rec.timestamp_ns + k as u64,
                ttl: 64 - 2 * k as u8,
            })
            .collect(),
        record_indices: (0..n).collect(),
    }
}

/// Folds `records` and the streams of `sightings[i]` sightings of
/// `records[i]` (none when 0), and checks both mixes and every slice
/// wrapper against the reference.
fn check(records: &[TraceRecord], sightings: &[usize]) {
    let streams: Vec<ReplicaStream> = records
        .iter()
        .zip(sightings)
        .filter(|&(_, &n)| n >= 2)
        .map(|(rec, &n)| stream_of(rec, n))
        .collect();
    let mut acc = AnalysisAccumulator::new();
    for rec in records {
        acc.add_record(rec);
    }
    for s in &streams {
        acc.add_stream(s);
    }
    let report = acc.report();

    let all = reference(records.iter().map(|r| (r, 1)));
    let looped = reference(
        records
            .iter()
            .zip(sightings)
            .filter(|&(_, &n)| n >= 2)
            .map(|(r, &n)| (r, n as u64)),
    );
    assert_matches("report().mix_all", &report.mix_all, &all);
    assert_matches("report().mix_looped", &report.mix_looped, &looped);
    assert_matches("analysis::mix_all", &analysis::mix_all(records), &all);
    assert_matches(
        "traffic_class::distribution",
        &traffic_class::distribution(records.iter()),
        &all,
    );
    assert_matches(
        "analysis::mix_looped",
        &analysis::mix_looped(&streams),
        &looped,
    );
    for rec in records {
        let got: Vec<&str> = traffic_class::classify(rec).labels().collect();
        let mut want = reference_labels(rec);
        want.sort_by_key(|l| LABELS.iter().position(|x| x == l));
        assert_eq!(got, want, "{rec:?}");
    }
}

#[test]
fn every_flag_byte_and_protocol_at_every_boundary_octet() {
    let mut records = Vec::new();
    for first_octet in FIRST_OCTETS {
        for flags in 0..=255u8 {
            records.push(record(records.len() as u64, 0, flags, first_octet));
        }
        for kind in 1..=3 {
            records.push(record(records.len() as u64, kind, 0, first_octet));
        }
    }
    // Every fifth record also loops, 2 to 9 sightings.
    let sightings: Vec<usize> = (0..records.len())
        .map(|i| if i % 5 == 0 { 2 + i % 8 } else { 0 })
        .collect();
    check(&records, &sightings);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random mixes of any flag byte, protocol and destination, some of
    /// them looped many times, fold to the reference counts exactly.
    #[test]
    fn random_mixes_fold_to_the_reference(
        draws in proptest::collection::vec(
            (0u8..4, any::<u8>(), 0usize..6, any::<u8>(), 0usize..40),
            0..300,
        ),
    ) {
        let mut records = Vec::new();
        let mut sightings = Vec::new();
        for (i, &(kind, flags, octet_pick, octet, n)) in draws.iter().enumerate() {
            let first_octet = FIRST_OCTETS.get(octet_pick).copied().unwrap_or(octet);
            records.push(record(i as u64, kind, flags, first_octet));
            sightings.push(if n >= 30 { n - 28 } else { 0 });
        }
        check(&records, &sightings);
    }
}
