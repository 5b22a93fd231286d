//! Every detector entry point against an independent oracle.
//!
//! The oracle (`crates/loopscope/tests/oracle`) implements §IV's three
//! steps from the paper's text and shares only the record and output types
//! with the engines. Each case builds a capture and checks that every entry
//! point gives the oracle's streams, loops, looped flags (where the entry
//! point exposes them) and every `DetectionStats` field, each in that entry
//! point's documented canonical order:
//!
//! - `Detector::run`, and `BlockParallelDetector` at 2, 3 and 4 workers and
//!   at random `run_with_splits` cuts;
//! - `run_pipeline` with the serial, block and streaming engines over the
//!   capture as a pcap file, a mapped `.ltc` and a buffered `.ltc`;
//! - `OnlineDetector` pushed record by record and in batches of 1, 7 and
//!   4096.
//!
//! A capture mixes loops of every TTL delta (one included, which is no
//! replica), loops one merge gap apart (give or take a nanosecond),
//! link-layer duplicates from a protection path, recurring keys
//! from ident wrap-around, corrupted header checksums and distinct
//! background traffic on the loops' /24s, optionally over a simulated
//! fleet link. Replica spacings sit on both sides of `max_replica_gap_ns`
//! and of the level-0 table's two-generation sweep boundary, TTLs reach
//! 255, and the in-memory entry points also run with fingerprints forged
//! into a few values (0 included). A trace that goes back in time is
//! refused by the oracle and by every entry point, at the same record.

#[path = "../crates/loopscope/tests/oracle/mod.rs"]
mod oracle;

use corpus::IngestMode;
use loopscope::segment::PcapFileSource;
use loopscope::{
    run_pipeline, BlockEngine, BlockParallelDetector, DetectionResult, Detector, DetectorConfig,
    Engine, OnlineDetector, OnlineEvent, OutOfOrder, PipelineError, RecordSource, ReplicaKey,
    ReplicaStream, RoutingLoop, SerialEngine, StreamingEngine, TraceRecord,
};
use net_types::{IcmpHeader, Packet, TcpFlags, UdpHeader};
use oracle::Expected;
use pcaplib::{FileHeader, PcapWriter};
use proptest::prelude::*;
use routing_loops::convert::records_from_pcap;
use simnet::{FleetSpec, SimDuration};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The configurations a case runs under: the paper's, the ablations, and
/// short gaps that put many sweeps and merge decisions into a short trace.
fn configs() -> [DetectorConfig; 5] {
    [
        DetectorConfig::default(),
        DetectorConfig::no_validation(),
        DetectorConfig {
            verify_checksum_consistency: false,
            ..DetectorConfig::default()
        },
        DetectorConfig {
            merge_gap_ns: 2_000_000_000,
            ..DetectorConfig::default()
        },
        DetectorConfig {
            max_replica_gap_ns: 50_000_000,
            merge_gap_ns: 1_000_000_000,
            ..DetectorConfig::default()
        },
    ]
}

/// Spacings around the replica gap `gap` and the level-0 generation (the
/// power of two at or above it), where a seed turns from live to evictable.
fn spacings(gap: u64) -> [u64; 10] {
    let generation = gap.next_power_of_two();
    [
        gap / 1000,
        gap / 3,
        gap - 1,
        gap,
        gap + 1,
        generation - 1,
        generation,
        2 * generation - 1,
        2 * generation,
        2 * generation + 1,
    ]
}

/// A packet to 203.0.`net`.x of one of three protocols.
fn packet(rng: &mut TestRng, net: u8, ident: u16, ttl: u8) -> Packet {
    let src = Ipv4Addr::new(100, 64, 0, 1 + rng.below(3) as u8);
    let dst = Ipv4Addr::new(203, 0, net, 1 + rng.below(3) as u8);
    let payload = vec![ident as u8; rng.below(24) as usize];
    let mut p = match rng.below(3) {
        0 => Packet::tcp_flags(src, dst, 4000, 80, TcpFlags::ACK, payload),
        1 => Packet::udp(src, dst, UdpHeader::new(53, 53), payload),
        _ => Packet::icmp(src, dst, IcmpHeader::echo(true, 7, ident), payload),
    };
    p.ip.ident = ident;
    p.ip.ttl = ttl;
    p.fill_checksums();
    p
}

/// A TTL, 255 one time in four.
fn ttl(rng: &mut TestRng) -> u8 {
    if rng.below(4) == 0 {
        255
    } else {
        1 + rng.below(255) as u8
    }
}

/// A capture as `(time, wire bytes)` frames, in time order.
fn capture(rng: &mut TestRng, cfg: &DetectorConfig) -> Vec<(u64, Vec<u8>)> {
    let gap = cfg.max_replica_gap_ns;
    let spacing = spacings(gap);
    let span = 8 * gap;
    let mut frames = Vec::new();
    let at = |rng: &mut TestRng| rng.below(span);
    // Looping packets: a TTL delta of 1 to 4, sightings spaced around
    // the bounds, some duplicated by a protection path and some with a
    // corrupted header checksum.
    for l in 0..rng.below(6) {
        let (net, first_ttl) = (rng.below(3) as u8, ttl(rng));
        let mut p = packet(rng, net, l as u16, first_ttl);
        let delta = 1 + rng.below(4) as u8;
        let duplicated = rng.below(4) == 0;
        let corrupt = rng.below(16);
        let mut t = at(rng);
        for k in 0..2 + rng.below(10) {
            let mut bytes = p.emit();
            if k == corrupt {
                bytes[10] ^= 0x5a;
            }
            if duplicated {
                frames.push((t + rng.below(gap / 8), bytes.clone()));
            }
            frames.push((t, bytes));
            t += spacing[rng.below(spacing.len() as u64) as usize];
            if (0..delta).any(|_| !p.ip.decrement_ttl()) {
                break;
            }
        }
    }
    // Two clean loops to a /24 of their own, the second starting one
    // merge gap (give or take a nanosecond) after the first ends.
    if rng.below(2) == 0 {
        let mut t = at(rng);
        for (ident, offset) in [(50, 1), (51, rng.below(3))] {
            t = t + offset - 1;
            let mut p = packet(rng, 4, ident, 100);
            for k in 0..4 {
                if k > 0 {
                    t += gap / 3;
                    p.ip.decrement_ttl();
                    p.ip.decrement_ttl();
                }
                frames.push((t, p.emit()));
            }
            t += cfg.merge_gap_ns;
        }
    }
    // Background traffic on the same /24s, every key distinct; one packet
    // in eight is duplicated by a protection path.
    for i in 0..rng.below(300) {
        let (net, ttl) = (rng.below(4) as u8, ttl(rng));
        let p = packet(rng, net, 20_000 + i as u16, ttl);
        let t = at(rng);
        if rng.below(8) == 0 {
            frames.push((t + rng.below(gap / 8), p.emit()));
        }
        frames.push((t, p.emit()));
    }
    // Ident wrap-around: a flow whose identical packets recur, at the
    // same TTL or, off another path, two lower.
    for w in 0..rng.below(3) {
        let first_ttl = ttl(rng);
        let mut p = packet(rng, 3, 60_000 + w as u16, first_ttl);
        let mut t = at(rng);
        for _ in 0..2 + rng.below(5) {
            frames.push((t, p.emit()));
            t += spacing[rng.below(spacing.len() as u64) as usize];
            if rng.below(3) == 0 {
                p.ip.decrement_ttl();
                p.ip.decrement_ttl();
            }
        }
    }
    // A simulated fleet link under the synthetic traffic.
    if rng.below(2) == 0 {
        let spec = FleetSpec {
            duration: SimDuration::from_secs(6),
            flap_period: SimDuration::from_secs(3),
            flap_down: SimDuration::from_secs(1),
            packet_interval: SimDuration::from_millis(20 + rng.below(40)),
            first_ttl: [26, 64, 255][rng.below(3) as usize],
            ..FleetSpec::demo(4)
        };
        let tap = spec.run_link(rng.below(4) as usize);
        frames.extend(
            tap.records
                .iter()
                .map(|r| (r.time.as_nanos(), r.packet.emit())),
        );
    }
    frames.sort_by_key(|&(t, _)| t);
    frames
}

/// The frames as a pcap file at the paper's 40-byte snap length.
fn pcap(frames: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
    for (t, bytes) in frames {
        w.write_bytes(*t, bytes).unwrap();
    }
    w.finish().unwrap()
}

/// A file path no other case of this run uses.
fn temp_path(ext: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("detector-oracle-{}-{n}.{ext}", std::process::id()))
}

fn assert_result(got: &DetectionResult, want: &Expected, entry: &str) {
    assert_eq!(got.stats, want.stats, "{entry}: stats");
    assert_eq!(got.streams, want.streams, "{entry}: streams");
    assert_eq!(got.loops, want.loops, "{entry}: loops");
    assert_eq!(got.looped_flags, want.looped_flags, "{entry}: looped flags");
}

/// The online detector's events and counters, pushed record by record
/// (`batch` 0) or in batches, in canonical order.
fn online(
    records: &[TraceRecord],
    cfg: DetectorConfig,
    batch: usize,
) -> (
    Vec<ReplicaStream>,
    Vec<RoutingLoop>,
    loopscope::DetectionStats,
) {
    let mut det = OnlineDetector::new(cfg);
    let mut events = Vec::new();
    if batch == 0 {
        for r in records {
            events.extend(det.push(r));
        }
    } else {
        for chunk in records.chunks(batch) {
            det.push_batch(chunk, |e| events.push(e));
        }
    }
    let (tail, stats) = det.finish();
    let (mut streams, mut loops) = (Vec::new(), Vec::new());
    for e in events.into_iter().chain(tail) {
        match e {
            OnlineEvent::Stream(s) => streams.push(s),
            OnlineEvent::Loop(l) => loops.push(l),
        }
    }
    streams.sort_by_key(|s| (s.start_ns(), s.record_indices[0]));
    loops.sort_by_key(|l| (l.prefix, l.start_ns));
    (streams, loops, stats.as_detection_stats())
}

/// The pipeline engines the file sources run through.
const ENGINES: [&str; 4] = ["serial", "block@2", "block@3", "streaming"];

/// A fresh engine of one of [`ENGINES`].
fn engine(name: &str, cfg: DetectorConfig) -> Box<dyn Engine> {
    match name {
        "serial" => Box::new(SerialEngine::new(cfg)),
        "streaming" => Box::new(StreamingEngine::new(cfg)),
        block => Box::new(BlockEngine::new(cfg, block[6..].parse().unwrap())),
    }
}

/// The capture as each file source: a pcap file, a mapped `.ltc` and a
/// buffered `.ltc`.
fn sources(pcap: &Path, ltc: &Path) -> Vec<(&'static str, Box<dyn RecordSource>)> {
    vec![
        ("pcap", Box::new(PcapFileSource::open(pcap).unwrap())),
        (
            "mapped .ltc",
            corpus::open_ltc_source(ltc, IngestMode::Mmap).unwrap(),
        ),
        (
            "buffered .ltc",
            corpus::open_ltc_source(ltc, IngestMode::Buffered).unwrap(),
        ),
    ]
}

/// Runs every entry point over the capture `frames` under `cfg`, compares
/// it with the oracle and returns the oracle's stream count. `buckets > 0`
/// forges the fingerprints of the in-memory entry points' records into
/// that many values.
fn assert_every_entry_point_agrees(
    frames: &[(u64, Vec<u8>)],
    cfg: DetectorConfig,
    buckets: u64,
    rng: &mut TestRng,
) -> usize {
    let bytes = pcap(frames);
    let (records, _) = records_from_pcap(std::io::Cursor::new(&bytes)).unwrap();
    let want = oracle::detect(&records, &cfg).expect("a sorted capture");

    let mut forged = records.clone();
    if buckets > 0 {
        for r in &mut forged {
            r.fingerprint = ReplicaKey::of(r).fingerprint() % buckets;
        }
    }
    assert_result(&Detector::new(cfg).run(&forged), &want, "Detector::run");
    for w in [2, 3, 4] {
        let got = BlockParallelDetector::new(cfg, w).run(&forged);
        assert_result(&got, &want, &format!("block@{w}"));
    }
    let cuts: Vec<usize> = (0..rng.below(5))
        .map(|_| rng.below(forged.len() as u64 + 1) as usize)
        .collect();
    let got = BlockParallelDetector::new(cfg, cuts.len() + 1).run_with_splits(&forged, &cuts);
    assert_result(&got, &want, &format!("run_with_splits at {cuts:?}"));

    let streams = want.streams_by_start();
    for batch in [0, 1, 7, 4096] {
        let (s, l, stats) = online(&forged, cfg, batch);
        let entry = format!("OnlineDetector in batches of {batch} (0: push)");
        assert_eq!(stats, want.stats, "{entry}: stats");
        assert_eq!(s, streams, "{entry}: streams");
        assert_eq!(l, want.loops, "{entry}: loops");
    }

    let (pcap_path, ltc_path) = (temp_path("pcap"), temp_path("ltc"));
    std::fs::write(&pcap_path, &bytes).unwrap();
    std::fs::write(&ltc_path, corpus::ltc_to_vec(&records, 0)).unwrap();
    for name in ENGINES {
        for (source_name, mut source) in sources(&pcap_path, &ltc_path) {
            let entry = format!("run_pipeline, {name} on the {source_name}");
            let got =
                run_pipeline(source.as_mut(), engine(name, cfg).as_mut(), &mut []).expect(&entry);
            assert_eq!(got.stats, want.stats, "{entry}: stats");
            assert_eq!(got.streams, streams, "{entry}: streams");
            assert_eq!(got.loops, want.loops, "{entry}: loops");
        }
    }
    std::fs::remove_file(&pcap_path).ok();
    std::fs::remove_file(&ltc_path).ok();
    want.streams.len()
}

/// Runs `cases` random captures from `seed`.
fn fuzz(seed: u64, cases: u64) {
    let mut rng = TestRng::from_seed(seed);
    let mut streams = 0;
    for case in 0..cases {
        let cfg = configs()[(case % 5) as usize];
        let frames = capture(&mut rng, &cfg);
        let buckets = [0, 1, 2, 7][rng.below(4) as usize];
        let agree = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_every_entry_point_agrees(&frames, cfg, buckets, &mut rng)
        }));
        match agree {
            Ok(found) => streams += found,
            Err(e) => {
                let what = e.downcast_ref::<String>().cloned().unwrap_or_default();
                panic!("seed {seed:#x}, case {case}, fingerprints in {buckets} values: {what}");
            }
        }
    }
    // The comparison must cover found loops, not only empty results.
    assert!(streams > 0, "no case found a stream");
}

/// Cases per default run, about two seconds in debug.
const CASES: u64 = 40;

#[test]
fn every_entry_point_matches_the_oracle() {
    fuzz(0x0c1e_0001, CASES);
}

/// The larger budget `scripts/check.sh` runs in release.
#[test]
#[ignore = "larger budget; scripts/check.sh runs it in release"]
fn every_entry_point_matches_the_oracle_at_a_larger_budget() {
    fuzz(0x0c1e_0002, 25 * CASES);
}

/// The panic message of `run`, which must panic.
fn panic_message(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(run).expect_err("must refuse the trace");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// A capture that goes back in time once, at a random record, is
    /// refused by the oracle and by every entry point at that record.
    #[test]
    fn unsorted_captures_are_refused_at_the_same_record(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let cfg = DetectorConfig::default();
        let mut frames = capture(&mut rng, &cfg);
        prop_assume!(frames.len() > 2);
        // Move one frame after a later one whose time is strictly later.
        let i = rng.below(frames.len() as u64 - 1) as usize;
        let Some(j) = (i + 1..frames.len()).find(|&j| frames[j].0 > frames[i].0) else {
            return;
        };
        let moved = frames.remove(i);
        frames.insert(j, moved);
        let bytes = pcap(&frames);
        let (records, _) = records_from_pcap(std::io::Cursor::new(&bytes)).unwrap();
        let first = oracle::detect(&records, &cfg).expect_err("an unsorted capture");
        let want = OutOfOrder {
            record: first as u64,
            timestamp_ns: records[first].timestamp_ns,
            previous_ns: records[first - 1].timestamp_ns,
        };

        let sorted = format!("trace records must be sorted by timestamp: {want}");
        prop_assert_eq!(panic_message(|| { Detector::new(cfg).run(&records); }), sorted.clone());
        prop_assert_eq!(
            panic_message(|| { BlockParallelDetector::new(cfg, 2).run(&records); }),
            sorted
        );
        prop_assert!(panic_message(|| {
            let mut det = OnlineDetector::new(cfg);
            records.iter().for_each(|r| { det.push(r); });
        })
        .contains("timestamp order"));

        let (pcap_path, ltc_path) = (temp_path("pcap"), temp_path("ltc"));
        std::fs::write(&pcap_path, &bytes).unwrap();
        std::fs::write(&ltc_path, corpus::ltc_to_vec(&records, 0)).unwrap();
        for name in ENGINES {
            for (source_name, mut source) in sources(&pcap_path, &ltc_path) {
                match run_pipeline(source.as_mut(), engine(name, cfg).as_mut(), &mut []) {
                    Err(PipelineError::OutOfOrder(got)) => {
                        prop_assert_eq!(got, want, "{} on the {}", name, source_name)
                    }
                    other => panic!("{name} on the {source_name}: {other:?}"),
                }
            }
        }
        std::fs::remove_file(&pcap_path).ok();
        std::fs::remove_file(&ltc_path).ok();
    }
}
