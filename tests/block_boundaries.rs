//! Boundary-reconciliation torture tests for the block-parallel engine:
//! flows straddling split points, chains longer than the replica gap
//! across whole ranges, affected keys with isolated sightings the range
//! workers do not keep, every split under the ablation configs, byte-level
//! split offsets landing
//! mid-record in the pcap stream, truncated captures, degenerate worker
//! counts, and serial-vs-block byte-identity under proptest-chosen split
//! offsets. The segmented pcap decode is tortured too: payloads that forge
//! record-header chains at every guessed split offset, link noise around
//! the splits, framing errors inside a range, byte-swapped and
//! microsecond files, and files too small to split must all decode, and
//! detect, exactly as the serial read does.

#[path = "../crates/loopscope/tests/oracle/mod.rs"]
mod oracle;

use proptest::prelude::*;
use routing_loops::backbone::{paper_backbones, run_backbone};
use routing_loops::convert::{
    records_from_pcap, records_from_pcap_parallel, write_tap_to_pcap, PAPER_SNAPLEN,
};
use routing_loops::loopscope::block::BlockParallelDetector;
use routing_loops::loopscope::pipeline::{run_pipeline, BlockEngine, Engine, SerialEngine};
use routing_loops::loopscope::segment::PcapFileSource;
use routing_loops::loopscope::{Detector, DetectorConfig, TraceRecord};
use routing_loops::net_types::{Packet, TcpFlags};
use routing_loops::pcaplib::{CapturedPacket, FileHeader, PcapWriter, RecordHeader, TsResolution};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// A looping flow as the monitor would see it: the same packet sighted
/// every `spacing_ns` with the TTL two lower each time.
fn loop_packets(
    start_ns: u64,
    spacing_ns: u64,
    first_ttl: u8,
    n: usize,
    ident: u16,
    dst: Ipv4Addr,
) -> Vec<(u64, Packet)> {
    let mut p = Packet::tcp_flags(
        Ipv4Addr::new(100, 11, 0, 1),
        dst,
        40_000,
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
            assert!(p.ip.decrement_ttl());
            assert!(p.ip.decrement_ttl());
        }
        out.push((start_ns + k as u64 * spacing_ns, p.clone()));
    }
    out
}

/// A trace mixing several interleaved loops (one spanning most of the
/// trace), background singletons, and a same-key burst separated by more
/// than the replica gap.
fn mixed_packets() -> Vec<(u64, Packet)> {
    let mut packets = Vec::new();
    for (i, (dst, n, spacing)) in [
        (Ipv4Addr::new(203, 0, 113, 9), 12, 40_000_000u64),
        (Ipv4Addr::new(198, 51, 100, 3), 8, 90_000_000),
        (Ipv4Addr::new(192, 0, 2, 200), 20, 25_000_000),
    ]
    .into_iter()
    .enumerate()
    {
        packets.extend(loop_packets(
            1_000 + i as u64 * 7,
            spacing,
            60,
            n,
            i as u16,
            dst,
        ));
    }
    // Same key re-looping long after the replica gap: the boundary between
    // the bursts must never need reconciliation.
    packets.extend(loop_packets(
        9_000_000_000,
        40_000_000,
        48,
        5,
        0,
        Ipv4Addr::new(203, 0, 113, 9),
    ));
    // Background non-looping traffic into the same and other /24s.
    for k in 0..40u16 {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 12, 0, 2),
            Ipv4Addr::new(203, 0, 113, 50 + (k % 8) as u8),
            50_000 + k,
            443,
            TcpFlags::ACK,
            &b"bg"[..],
        );
        p.ip.ident = 10_000 + k;
        p.fill_checksums();
        packets.push((u64::from(k) * 230_000_000, p));
    }
    packets.sort_by_key(|(ts, _)| *ts);
    packets
}

fn mixed_trace() -> Vec<TraceRecord> {
    mixed_packets()
        .iter()
        .map(|(ts, p)| TraceRecord::from_packet(*ts, p))
        .collect()
}

fn assert_block_identical(records: &[TraceRecord], splits: &[usize]) {
    let cfg = DetectorConfig::default();
    let serial = Detector::new(cfg).run(records);
    let block = BlockParallelDetector::new(cfg, splits.len() + 1).run_with_splits(records, splits);
    assert_eq!(serial.streams, block.streams, "splits {splits:?}");
    assert_eq!(serial.loops, block.loops, "splits {splits:?}");
    assert_eq!(serial.looped_flags, block.looped_flags, "splits {splits:?}");
    assert_eq!(serial.stats, block.stats, "splits {splits:?}");
}

#[test]
fn every_split_point_through_the_mixed_trace() {
    let records = mixed_trace();
    for s in 1..records.len() {
        assert_block_identical(&records, &[s]);
    }
}

/// Serial against block at `splits` under `cfg`.
fn assert_identical_under(cfg: DetectorConfig, records: &[TraceRecord], splits: &[usize]) {
    let serial = Detector::new(cfg).run(records);
    let block = BlockParallelDetector::new(cfg, splits.len() + 1).run_with_splits(records, splits);
    assert_eq!(serial.streams, block.streams, "{cfg:?} splits {splits:?}");
    assert_eq!(serial.loops, block.loops, "{cfg:?} splits {splits:?}");
    assert_eq!(
        serial.looped_flags, block.looped_flags,
        "{cfg:?} splits {splits:?}"
    );
    assert_eq!(serial.stats, block.stats, "{cfg:?} splits {splits:?}");
}

/// The default configuration and the ablations.
fn configs() -> [DetectorConfig; 4] {
    [
        DetectorConfig::default(),
        DetectorConfig::no_validation(),
        DetectorConfig::default().with_merge_gap_minutes(5),
        DetectorConfig {
            verify_checksum_consistency: false,
            ..DetectorConfig::default()
        },
    ]
}

/// Every single split and every pair of splits, under every config, and
/// the unsplit run against the independent oracle.
fn assert_identical_at_every_split(records: &[TraceRecord]) {
    for cfg in configs() {
        let serial = Detector::new(cfg).run(records);
        let want = oracle::detect(records, &cfg).expect("sorted fixture");
        assert_eq!(serial.streams, want.streams, "{cfg:?}: oracle streams");
        assert_eq!(serial.loops, want.loops, "{cfg:?}: oracle loops");
        assert_eq!(
            serial.looped_flags, want.looped_flags,
            "{cfg:?}: oracle flags"
        );
        assert_eq!(serial.stats, want.stats, "{cfg:?}: oracle stats");
        for a in 1..records.len() {
            assert_identical_under(cfg, records, &[a]);
            for b in a + 1..records.len() {
                assert_identical_under(cfg, records, &[a, b]);
            }
        }
    }
}

/// One packet to `dst` with the given ident, sighted once.
fn single(t_ns: u64, dst: Ipv4Addr, ident: u16) -> (u64, Packet) {
    loop_packets(t_ns, 1, 60, 1, ident, dst).remove(0)
}

fn records_of(mut packets: Vec<(u64, Packet)>) -> Vec<TraceRecord> {
    packets.sort_by_key(|(ts, _)| *ts);
    packets
        .iter()
        .map(|(ts, p)| TraceRecord::from_packet(*ts, p))
        .collect()
}

/// Background singletons every 250 ms from `from_ns` to `to_ns`, to /24s
/// no loop goes to.
fn background(from_ns: u64, to_ns: u64, first_ident: u16) -> Vec<(u64, Packet)> {
    (0..)
        .map(|k: u16| (from_ns + u64::from(k) * 250_000_000, k))
        .take_while(|&(t, _)| t < to_ns)
        .map(|(t, k)| single(t, Ipv4Addr::new(198, 18, (k % 3) as u8, 1), first_ident + k))
        .collect()
}

#[test]
fn chain_longer_than_the_gap_spanning_a_middle_range() {
    // A 14-sighting chain 400 ms apart lasts 5.2 s, five replica gaps,
    // while each step stays within one. Split pairs inside it give a
    // middle range holding only the chain's middle (and background): the
    // chain's middle sightings are kept because they recur, not because
    // they are near a range edge.
    let dst = Ipv4Addr::new(203, 0, 113, 9);
    let mut packets = loop_packets(1_000_000_000, 400_000_000, 60, 14, 1, dst);
    packets.extend(background(0, 7_500_000_000, 100));
    let records = records_of(packets);
    assert_eq!(
        Detector::new(DetectorConfig::default())
            .run(&records)
            .streams
            .len(),
        1,
        "the chain is one stream"
    );
    assert_identical_at_every_split(&records);
}

#[test]
fn affected_key_with_isolated_ident_wrap_sightings() {
    // Key K loops for 250 ms around 3 s, so splits near it make K
    // affected. K is also sighted alone — the ident wrapped around — at
    // 0.2 s, 5.5 s and 7.5 s, each more than the gap from any other
    // sighting of K: the range workers keep none of those, and the
    // rescan of K must still match the serial scan. Within the gap after
    // the loop, K comes back once with a higher TTL (no continuation) and
    // once with an inconsistent checksum (a split).
    let dst = Ipv4Addr::new(192, 0, 2, 77);
    let mut packets = loop_packets(3_000_000_000, 50_000_000, 60, 6, 77, dst);
    for t in [200_000_000, 5_500_000_000, 7_500_000_000] {
        packets.push(single(t, dst, 77));
    }
    packets.push((
        3_600_000_000,
        loop_packets(0, 1, 62, 1, 77, dst).remove(0).1,
    ));
    packets.extend(background(0, 8_000_000_000, 200));
    let mut records = records_of(packets);
    let bad = loop_packets(0, 1, 50, 1, 77, dst).remove(0).1;
    let mut split = TraceRecord::from_packet(3_900_000_000, &bad);
    split.ip_checksum ^= 0x0101;
    let at = records.partition_point(|r| r.timestamp_ns < split.timestamp_ns);
    records.insert(at, split);
    let serial = Detector::new(DetectorConfig::default()).run(&records);
    assert_eq!(serial.stats.checksum_splits, 1, "the fixture's split");
    assert_eq!(serial.streams.len(), 1, "the loop");
    assert_identical_at_every_split(&records);
}

#[test]
fn stream_crossing_several_boundaries() {
    // Two overlapping chains 120 ms apart per step: every split pair and
    // every even split at up to 12 ranges puts two or more boundaries
    // inside them.
    let mut packets = loop_packets(
        500_000_000,
        120_000_000,
        60,
        20,
        5,
        Ipv4Addr::new(203, 0, 113, 5),
    );
    packets.extend(loop_packets(
        700_000_000,
        120_000_000,
        61,
        18,
        6,
        Ipv4Addr::new(198, 51, 100, 6),
    ));
    packets.extend(background(0, 4_000_000_000, 300));
    let records = records_of(packets);
    assert_identical_at_every_split(&records);
    for cfg in configs() {
        let serial = Detector::new(cfg).run(&records);
        for threads in 2..=12 {
            let block = BlockParallelDetector::new(cfg, threads).run(&records);
            assert_eq!(serial.streams, block.streams, "{cfg:?} threads={threads}");
            assert_eq!(serial.stats, block.stats, "{cfg:?} threads={threads}");
        }
    }
}

#[test]
fn backbone_fixture_at_power_of_two_thread_counts() {
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "block-boundaries".into();
    let records = run_backbone(&spec).records;
    let cfg = DetectorConfig::default();
    let serial = Detector::new(cfg).run(&records);
    assert!(!serial.streams.is_empty(), "fixture must loop");
    for threads in [1, 2, 4, 8] {
        let block = BlockParallelDetector::new(cfg, threads).run(&records);
        assert_eq!(serial.streams, block.streams, "threads={threads}");
        assert_eq!(serial.loops, block.loops, "threads={threads}");
        assert_eq!(serial.stats, block.stats, "threads={threads}");
    }
}

#[test]
fn pcap_path_with_mid_record_splits_is_byte_identical() {
    // Small records mean the ideal byte-level split offsets almost
    // always land mid-record; the splitter must move them to record
    // starts and the end-to-end parallel read + detect must equal the
    // serial read + detect.
    let packets = mixed_packets();
    let mut bytes = Vec::new();
    {
        let mut w =
            pcaplib::PcapWriter::new(&mut bytes, pcaplib::FileHeader::raw_ip(PAPER_SNAPLEN))
                .unwrap();
        for (ts, p) in &packets {
            w.write_bytes(*ts, &p.emit()).unwrap();
        }
        w.finish().unwrap();
    }
    let path = std::env::temp_dir().join(format!(
        "loopdetect_block_boundaries_{}.pcap",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();

    let (serial_records, serial_skipped) =
        records_from_pcap(std::io::Cursor::new(&bytes[..])).unwrap();
    let cfg = DetectorConfig::default();
    let serial = Detector::new(cfg).run(&serial_records);
    for threads in [1, 2, 3, 4, 8] {
        let (par_records, skipped) = records_from_pcap_parallel(&path, threads).unwrap();
        assert_eq!(serial_records, par_records, "threads={threads}");
        assert_eq!(serial_skipped, skipped, "threads={threads}");
        let block = BlockParallelDetector::new(cfg, threads).run(&par_records);
        assert_eq!(serial.streams, block.streams, "threads={threads}");
        assert_eq!(serial.stats, block.stats, "threads={threads}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn one_record_trace_with_eight_workers() {
    let records: Vec<TraceRecord> = loop_packets(1_000, 1, 60, 1, 3, Ipv4Addr::new(203, 0, 113, 9))
        .iter()
        .map(|(ts, p)| TraceRecord::from_packet(*ts, p))
        .collect();
    assert_block_identical(&records, &[]);
    let cfg = DetectorConfig::default();
    let serial = Detector::new(cfg).run(&records);
    let block = BlockParallelDetector::new(cfg, 8).run(&records);
    assert_eq!(serial.streams, block.streams);
    assert_eq!(serial.stats, block.stats);
}

#[test]
fn truncated_pcap_fails_identically_in_parallel() {
    let mut spec = paper_backbones(0.05).remove(1);
    spec.name = "block-truncated".into();
    let run = run_backbone(&spec);
    let mut bytes = Vec::new();
    write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, &mut bytes).unwrap();
    bytes.truncate(bytes.len() - 7); // cut into the final record body
    let path = std::env::temp_dir().join(format!(
        "loopdetect_block_truncated_{}.pcap",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    let serial = records_from_pcap(std::io::Cursor::new(&bytes[..])).unwrap_err();
    for threads in [2, 3, 4, 8] {
        let parallel = records_from_pcap_parallel(&path, threads).unwrap_err();
        assert_eq!(
            format!("{parallel:?}"),
            format!("{serial:?}"),
            "threads={threads}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte-identity holds for ANY set of split offsets, not just the even
    /// ones `run` picks.
    #[test]
    fn random_split_offsets_are_byte_identical(
        raw in proptest::collection::vec(0usize..10_000, 0..7),
    ) {
        let records = mixed_trace();
        let splits: Vec<usize> = raw.iter().map(|r| r % records.len()).collect();
        let cfg = DetectorConfig::default();
        let serial = Detector::new(cfg).run(&records);
        let block =
            BlockParallelDetector::new(cfg, splits.len() + 1).run_with_splits(&records, &splits);
        prop_assert_eq!(&serial.streams, &block.streams, "splits {:?}", &splits);
        prop_assert_eq!(&serial.loops, &block.loops, "splits {:?}", &splits);
        prop_assert_eq!(&serial.stats, &block.stats, "splits {:?}", &splits);
    }
}

/// Thread counts the segmented decode is checked at: one range, an even
/// and an odd split, and more ranges than a small machine has cores.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// 1,400 records: 200 looping packets sighted 6 times each, 2 ms apart,
/// 50 ms between packets, over 40 /24s, with one background packet per
/// loop.
fn many_loops() -> Vec<(u64, Packet)> {
    let mut packets = Vec::new();
    for g in 0..200u64 {
        let dst = Ipv4Addr::new(203, 0, (g % 40) as u8, 9);
        packets.extend(loop_packets(
            1_000 + g * 50_000_000,
            2_000_000,
            60,
            6,
            g as u16,
            dst,
        ));
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 12, 0, 2),
            Ipv4Addr::new(198, 51, (g % 7) as u8, 1),
            50_000,
            443,
            TcpFlags::ACK,
            &b"bg"[..],
        );
        p.ip.ident = 20_000 + g as u16;
        p.fill_checksums();
        packets.push((g * 50_000_000 + 25_000_000, p));
    }
    packets.sort_by_key(|(ts, _)| *ts);
    packets
}

/// Writes `records` (timestamp, captured bytes) as a pcap with `header`.
fn pcap_of(header: FileHeader, records: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), header).unwrap();
    for (ts, data) in records {
        w.write_bytes(*ts, data).unwrap();
    }
    w.finish().unwrap()
}

fn emitted(packets: &[(u64, Packet)]) -> Vec<(u64, Vec<u8>)> {
    packets.iter().map(|(ts, p)| (*ts, p.emit())).collect()
}

/// `n` plausible records with 4-byte bodies and the earliest timestamp:
/// bytes that a guessed split offset anywhere inside them takes for a
/// chain of records, which runs on into the true records after them.
fn forged_headers(n: usize) -> Vec<u8> {
    let mut record = RecordHeader {
        ts_sec: 0,
        ts_frac: 0,
        incl_len: 4,
        orig_len: 4,
    }
    .encode()
    .to_vec();
    record.extend([0xee; 4]);
    record.repeat(n)
}

/// The same file with every header field stored big-endian.
fn byte_swapped(le: &[u8]) -> Vec<u8> {
    let mut out = le.to_vec();
    for (at, width) in [(0, 4), (4, 2), (6, 2), (8, 4), (12, 4), (16, 4), (20, 4)] {
        out[at..at + width].reverse();
    }
    let mut pos = 24;
    while pos + 16 <= le.len() {
        let incl_len = u32::from_le_bytes(le[pos + 8..pos + 12].try_into().unwrap()) as usize;
        for field in 0..4 {
            out[pos + 4 * field..pos + 4 * field + 4].reverse();
        }
        pos += 16 + incl_len;
    }
    out
}

/// The inputs of the split parity test: (name, file bytes).
fn adversarial_pcaps() -> Vec<(&'static str, Vec<u8>)> {
    let packets = many_loops();
    let full = FileHeader::raw_ip(65535);
    // Every packet carries 40 to 62 forged headers after its IP/TCP
    // headers; the varying lengths put the ideal split offsets inside
    // them.
    let forged: Vec<(u64, Vec<u8>)> = packets
        .iter()
        .zip(0usize..)
        .map(|((ts, p), i)| (*ts, [p.emit(), forged_headers(40 + i % 23)].concat()))
        .collect();
    // Link noise on both sides of every split: a non-IPv4 record before
    // every third packet.
    let noisy: Vec<(u64, Vec<u8>)> = emitted(&packets)
        .into_iter()
        .enumerate()
        .flat_map(|(i, (ts, data))| {
            let noise = (i % 3 == 0).then(|| (ts, vec![0xde, 0xad, 0xbe]));
            noise.into_iter().chain([(ts, data)])
        })
        .collect();
    let paper = FileHeader::raw_ip(PAPER_SNAPLEN);
    let mut truncated = pcap_of(paper, &emitted(&packets));
    truncated.truncate(truncated.len() - 7);
    // An oversized incl_len in the second range at every thread count:
    // past half of the file, before five eighths of it.
    let mut oversized = pcap_of(paper, &emitted(&packets));
    let mut pos = 24;
    while pos < oversized.len() * 9 / 16 {
        pos += 16 + u32::from_le_bytes(oversized[pos + 8..pos + 12].try_into().unwrap()) as usize;
    }
    oversized[pos + 8..pos + 12].copy_from_slice(&10_000_000u32.to_le_bytes());
    let mut micro = paper;
    micro.resolution = TsResolution::Micro;
    let few = emitted(&packets[..20]);
    // Every record cut 20 bytes short of the whole packet under a snap
    // length that would have kept it: no header obeys the split guess's
    // `incl_len == min(orig_len, snaplen)`, so the file is one range.
    let mut w = PcapWriter::new(Vec::new(), full).unwrap();
    for (ts, data) in emitted(&packets) {
        let orig_len = data.len() as u32 + 20;
        w.write_packet(&CapturedPacket {
            timestamp_ns: ts,
            orig_len,
            data,
        })
        .unwrap();
    }
    let cut_short = w.finish().unwrap();
    vec![
        ("forged_chains", pcap_of(full, &forged)),
        ("untruncated", pcap_of(full, &emitted(&packets))),
        ("cut_below_the_snap_length", cut_short),
        ("noise_around_splits", pcap_of(paper, &noisy)),
        ("truncated_final_record", truncated),
        ("oversized_in_range_2", oversized),
        ("byte_swapped", byte_swapped(&pcap_of(full, &forged))),
        ("microseconds", pcap_of(micro, &emitted(&packets))),
        ("smaller_than_a_window", pcap_of(paper, &few)),
        ("fewer_records_than_threads", pcap_of(paper, &few[..3])),
    ]
}

/// A decode's outcome: records and skips, or the error's variant and
/// message.
type Decoded = Result<(Vec<TraceRecord>, u64), (String, String)>;

fn described<T>(
    r: Result<T, impl std::fmt::Debug + std::fmt::Display>,
) -> Result<T, (String, String)> {
    r.map_err(|e| (format!("{e:?}"), e.to_string()))
}

/// Runs `loopdetect <path> <args>`: exit code, stdout, and the stderr
/// lines that are not logging.
fn loopdetect(path: &Path, args: &[&str]) -> (Option<i32>, String, Vec<String>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_loopdetect"))
        .arg(path)
        .args(args)
        .output()
        .expect("run loopdetect");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let errors = stderr
        .lines()
        .filter(|l| l.starts_with("error"))
        .map(String::from)
        .collect();
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        errors,
    )
}

/// `pcap.split_fallbacks` in a `--metrics` snapshot (0 when absent).
fn fallbacks(metrics: &Path) -> u64 {
    let json = std::fs::read_to_string(metrics).unwrap();
    json.split("\"pcap.split_fallbacks\":")
        .nth(1)
        .map_or(0, |rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap()
        })
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("block_boundaries_{}_{tag}", std::process::id()))
}

#[test]
fn segmented_decode_matches_the_serial_read_on_adversarial_pcaps() {
    let cfg = DetectorConfig::default();
    for (name, bytes) in adversarial_pcaps() {
        let path = temp(&format!("{name}.pcap"));
        std::fs::write(&path, &bytes).unwrap();
        let serial: Decoded = described(records_from_pcap(std::io::Cursor::new(&bytes[..])));
        let reference = serial
            .as_ref()
            .ok()
            .map(|(records, _)| Detector::new(cfg).run(records));
        // The batch path (the serial reader) is the CLI's reference.
        let cli_reference: Vec<_> = ["summary", "streams"]
            .iter()
            .map(|csv| loopdetect(&path, &["--csv", csv, "--streaming"]))
            .collect();
        let metrics = temp(&format!("{name}.json"));
        for threads in THREADS {
            let what = format!("{name} at {threads} threads");
            let parallel: Decoded = described(records_from_pcap_parallel(&path, threads));
            assert_eq!(parallel, serial, "{what}: records_from_pcap_parallel");

            let mut engine: Box<dyn Engine> = if threads == 1 {
                Box::new(SerialEngine::new(cfg))
            } else {
                Box::new(BlockEngine::new(cfg, threads))
            };
            let mut source = PcapFileSource::open(&path).unwrap();
            let piped = described(run_pipeline(&mut source, engine.as_mut(), &mut []));
            match (&serial, &reference, piped) {
                (Ok((records, skipped)), Some(reference), Ok(result)) => {
                    assert_eq!(result.records, records.len() as u64, "{what}");
                    assert_eq!(result.skipped, *skipped, "{what}");
                    assert_eq!(result.loops, reference.loops, "{what}");
                    assert_eq!(result.stats, reference.stats, "{what}");
                    let mut streams = reference.streams.clone();
                    streams.sort_by_key(|s| (s.start_ns(), s.record_indices.first().copied()));
                    assert_eq!(result.streams, streams, "{what}");
                }
                (Err((_, serial_msg)), None, Err((_, msg))) => {
                    assert!(
                        msg.ends_with(serial_msg.as_str()),
                        "{what}: {msg} vs {serial_msg}"
                    );
                }
                (_, _, piped) => panic!("{what}: serial {serial:?}, pipeline {piped:?}"),
            }

            let thread_arg = threads.to_string();
            for (csv, want) in ["summary", "streams"].iter().zip(&cli_reference) {
                let got = loopdetect(
                    &path,
                    &[
                        "--csv",
                        csv,
                        "--threads",
                        &thread_arg,
                        "--metrics",
                        metrics.to_str().unwrap(),
                    ],
                );
                assert_eq!(&got, want, "{what}: loopdetect --csv {csv}");
            }
            if name == "forged_chains" && threads > 1 {
                assert!(
                    fallbacks(&metrics) > 0,
                    "{what}: a forged chain must be disproved"
                );
            } else if serial.is_ok() && name != "byte_swapped" {
                assert_eq!(fallbacks(&metrics), 0, "{what}: no guess may fail here");
            }
        }
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&path);
    }
}
