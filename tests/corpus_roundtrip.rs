//! Round-trip suite for the columnar corpus: random packets through
//! pcap → `pcap2ltc` → `.ltc` read must reproduce the pcap decode
//! record-for-record, and the detector must produce byte-identical output
//! whether it ingests the pcap or the `.ltc` twin — on the backbone,
//! ECMP, and truncated-snaplen pcap fixtures, at every block-parallel
//! thread count the CI gate exercises. The truncated-final-record case is
//! the parity edge: the pcap layer rejects it, so the conversion must
//! refuse to write a silently shortened corpus.

use proptest::prelude::*;
use routing_loops::backbone::{paper_backbones, run_backbone};
use routing_loops::convert::{
    pcap_to_ltc, records_from_pcap, verify_ltc_against_pcap, write_tap_to_pcap, ConvertError,
    PAPER_SNAPLEN,
};
use routing_loops::corpus::{open_ltc_source, records_from_ltc_with, IngestMode};
use routing_loops::loopscope::pipeline::{
    LoopCsvSink, LoopJsonlSink, StreamCsvSink, StreamJsonlSink, SummaryCsvSink,
};
use routing_loops::loopscope::{
    run_pipeline, BlockEngine, DetectorConfig, Engine, PcapSource, PipelineResult, RecordSource,
    Sink, StreamingEngine,
};
use routing_loops::net_types::{IcmpHeader, IpProtocol, Packet, TcpFlags, UdpHeader};
use routing_loops::pcaplib::{FileHeader, PcapError, PcapWriter};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

const PERSISTENT_NS: u64 = 10_000_000_000;

/// A fresh temp path unique to this process and tag.
fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("corpus_rt_{}_{tag}.{ext}", std::process::id()))
}

/// Writes `bytes` to a temp pcap, converts it, and returns both paths.
/// Callers remove the files when done.
fn convert_bytes(tag: &str, bytes: &[u8]) -> (PathBuf, PathBuf) {
    let pcap = temp_path(tag, "pcap");
    let ltc = temp_path(tag, "ltc");
    std::fs::write(&pcap, bytes).expect("write pcap");
    pcap_to_ltc(&pcap, &ltc, 2).expect("pcap_to_ltc");
    (pcap, ltc)
}

fn remove(paths: &[&Path]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// One pipeline run from a freshly opened source.
fn run_from(source: &mut dyn RecordSource, engine: &mut dyn Engine) -> PipelineResult {
    run_pipeline(source, engine, &mut []).expect("pipeline run")
}

/// One pipeline run with every sink attached; returns the rendered bytes.
fn sinks_from(source: &mut dyn RecordSource, engine: &mut dyn Engine) -> Vec<Vec<u8>> {
    let mut loops_csv = LoopCsvSink::new(Vec::new(), PERSISTENT_NS);
    let mut streams_csv = StreamCsvSink::new(Vec::new());
    let mut summary_csv = SummaryCsvSink::new(Vec::new());
    let mut loops_jsonl = LoopJsonlSink::new(Vec::new(), PERSISTENT_NS);
    let mut streams_jsonl = StreamJsonlSink::new(Vec::new());
    {
        let mut sinks: Vec<&mut dyn Sink> = vec![
            &mut loops_csv,
            &mut streams_csv,
            &mut summary_csv,
            &mut loops_jsonl,
            &mut streams_jsonl,
        ];
        run_pipeline(source, engine, &mut sinks).expect("pipeline run");
    }
    vec![
        loops_csv.into_inner(),
        streams_csv.into_inner(),
        summary_csv.into_inner(),
        loops_jsonl.into_inner(),
        streams_jsonl.into_inner(),
    ]
}

/// The serial buffered whole-file `.ltc` decode: the reference read.
fn read_ltc(path: &Path) -> (Vec<routing_loops::loopscope::TraceRecord>, u64) {
    records_from_ltc_with(path, 1, IngestMode::Buffered).expect("ltc")
}

fn open_pcap(path: &Path) -> PcapSource<std::io::BufReader<std::fs::File>> {
    let file = std::fs::File::open(path).expect("open pcap");
    PcapSource::new(std::io::BufReader::new(file)).expect("pcap header")
}

/// The full parity contract for one fixture: the `.ltc` twin of `bytes`
/// decodes identically, and every engine × thread count × sink format
/// yields byte-identical output from either container.
fn assert_pcap_ltc_parity(tag: &str, bytes: &[u8]) {
    let (pcap, ltc) = convert_bytes(tag, bytes);
    verify_ltc_against_pcap(&ltc, &pcap).expect("--verify contract");

    let (via_pcap, skipped_pcap) = records_from_pcap(std::io::Cursor::new(bytes)).expect("pcap");
    let (via_ltc, skipped_ltc) = read_ltc(&ltc);
    assert_eq!(via_pcap, via_ltc, "{tag}: decoded records diverge");
    assert_eq!(skipped_pcap, skipped_ltc, "{tag}: skip counts diverge");
    // The mapped reader is the default ingest path; it must reproduce the
    // buffered decode bit for bit at every worker count, as must the
    // buffered read fanned out.
    for mode in [IngestMode::Mmap, IngestMode::Buffered] {
        for threads in [1, 2, 4, 8] {
            let (par, s) = records_from_ltc_with(&ltc, threads, mode).expect("ltc read");
            assert_eq!(
                par, via_ltc,
                "{tag}: {mode:?} ltc read at {threads} threads"
            );
            assert_eq!(s, skipped_ltc);
        }
    }

    let cfg = DetectorConfig::default();
    // Engines are single-use (finish consumes the detector), so each run
    // gets a fresh instance: thread count 0 means streaming here.
    let make = |threads: usize| -> Box<dyn Engine> {
        if threads == 0 {
            Box::new(StreamingEngine::new(cfg))
        } else {
            Box::new(BlockEngine::new(cfg, threads))
        }
    };
    for threads in [0usize, 1, 2, 4, 8] {
        let name = make(threads).name();
        let a = run_from(&mut open_pcap(&pcap), make(threads).as_mut());
        let b = run_from(
            open_ltc_source(&ltc, IngestMode::Buffered)
                .expect("open ltc")
                .as_mut(),
            make(threads).as_mut(),
        );
        let c = run_from(
            open_ltc_source(&ltc, IngestMode::Mmap)
                .expect("open mapped ltc")
                .as_mut(),
            make(threads).as_mut(),
        );
        assert_eq!(a.streams, b.streams, "{tag}: {name} streams");
        assert_eq!(a.loops, b.loops, "{tag}: {name} loops");
        assert_eq!(a.stats, b.stats, "{tag}: {name} stats");
        assert_eq!(a.records, b.records, "{tag}: {name} record count");
        assert_eq!(b.streams, c.streams, "{tag}: {name} mapped streams");
        assert_eq!(b.loops, c.loops, "{tag}: {name} mapped loops");
        assert_eq!(b.stats, c.stats, "{tag}: {name} mapped stats");
        assert_eq!(b.records, c.records, "{tag}: {name} mapped record count");

        let sa = sinks_from(&mut open_pcap(&pcap), make(threads).as_mut());
        let sb = sinks_from(
            open_ltc_source(&ltc, IngestMode::Buffered)
                .expect("open ltc")
                .as_mut(),
            make(threads).as_mut(),
        );
        let sc = sinks_from(
            open_ltc_source(&ltc, IngestMode::Mmap)
                .expect("open mapped ltc")
                .as_mut(),
            make(threads).as_mut(),
        );
        for (kind, ((x, y), z)) in [
            "loops csv",
            "streams csv",
            "summary csv",
            "loops jsonl",
            "streams jsonl",
        ]
        .iter()
        .zip(sa.iter().zip(sb.iter()).zip(sc.iter()))
        {
            assert_eq!(x, y, "{tag}: {name} {kind} differs between pcap and ltc");
            assert_eq!(
                y, z,
                "{tag}: {name} {kind} differs between buffered and mapped ltc"
            );
        }
    }
    remove(&[&pcap, &ltc]);
}

/// One randomly-parameterised packet: (protocol selector, ident, TTL,
/// port material, payload length) — same shape as the pcaplib property
/// suite, so the corpus sees every transport variant and snap truncation.
type PacketSpec = (u8, u16, u8, u16, usize);

fn build_packet(spec: PacketSpec) -> Packet {
    let (proto, ident, ttl, ports, payload_len) = spec;
    let src = Ipv4Addr::new(100, 64, (ident >> 8) as u8, ident as u8);
    let dst = Ipv4Addr::new(203, 0, 113, (ports % 250) as u8 + 1);
    let payload = vec![(ident % 251) as u8; payload_len];
    let mut p = match proto % 4 {
        0 => Packet::tcp_flags(src, dst, ports, 80, TcpFlags::ACK, payload),
        1 => Packet::udp(src, dst, UdpHeader::new(ports, 53), payload),
        2 => Packet::icmp(src, dst, IcmpHeader::echo(true, ident, ports), payload),
        _ => Packet::opaque(src, dst, IpProtocol::Other(103), payload),
    };
    p.ip.ident = ident;
    p.ip.ttl = ttl.max(1);
    p.fill_checksums();
    p
}

fn pcap_bytes(specs: &[PacketSpec], snaplen: u32) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(snaplen)).expect("header");
    for (i, spec) in specs.iter().enumerate() {
        w.write_bytes(i as u64 * 1_000_000, &build_packet(*spec).emit())
            .expect("write record");
    }
    w.finish().expect("finish")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_packets_roundtrip(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u8>(), any::<u16>(), 0usize..120),
            1..60,
        ),
        snaplen in 20u32..160,
        case in 0u32..1_000_000,
    ) {
        let bytes = pcap_bytes(&specs, snaplen);
        let tag = format!("prop_{case}");
        let (pcap, ltc) = convert_bytes(&tag, &bytes);
        verify_ltc_against_pcap(&ltc, &pcap).expect("--verify contract");
        let (via_pcap, skipped_pcap) =
            records_from_pcap(std::io::Cursor::new(&bytes[..])).expect("pcap");
        let (via_ltc, skipped_ltc) = read_ltc(&ltc);
        prop_assert_eq!(&via_pcap, &via_ltc, "decoded records diverge");
        prop_assert_eq!(skipped_pcap, skipped_ltc, "skip counts diverge");
        remove(&[&pcap, &ltc]);
    }
}

#[test]
fn block_boundary_sizes_roundtrip() {
    // Exactly at, just below, and just past the 8192-record block size —
    // the final-partial-block arithmetic is where a columnar reader rots.
    for n in [8191usize, 8192, 8193] {
        let specs: Vec<PacketSpec> = (0..n)
            .map(|i| (i as u8, i as u16, 60, (i % 500) as u16, 8))
            .collect();
        let bytes = pcap_bytes(&specs, 64);
        let (pcap, ltc) = convert_bytes(&format!("block_{n}"), &bytes);
        let (via_pcap, _) = records_from_pcap(std::io::Cursor::new(&bytes[..])).expect("pcap");
        let (via_ltc, _) = read_ltc(&ltc);
        assert_eq!(via_pcap.len(), n);
        assert_eq!(via_pcap, via_ltc, "{n}-record corpus diverges");
        remove(&[&pcap, &ltc]);
    }
}

#[test]
fn backbone_fixture_parity() {
    // Full-headers export: no truncation loss, the in-memory backbone
    // record set survives both containers intact.
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "corpus-rt-backbone".into();
    let run = run_backbone(&spec);
    let mut bytes = Vec::new();
    write_tap_to_pcap(&run.tap, 65_535, &mut bytes).expect("write pcap");
    assert_pcap_ltc_parity("backbone", &bytes);
}

#[test]
fn pcap_fixture_parity() {
    // The paper's 40-byte snaplen: a genuinely different record set from
    // the in-memory backbone (transport truncation), same contract.
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "corpus-rt-snap40".into();
    let run = run_backbone(&spec);
    let mut bytes = Vec::new();
    write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, &mut bytes).expect("write pcap");
    assert_pcap_ltc_parity("snap40", &bytes);
}

#[test]
fn ecmp_fixture_parity() {
    use routing_loops::routing::scenario::{compile, NetEvent, Scenario};
    use routing_loops::routing::IgpConfig;
    use routing_loops::simnet::{
        Engine as SimEngine, SimConfig, SimDuration, SimTime, TopologyBuilder,
    };

    // The diamond-with-ECMP reconvergence trace from `tests/ecmp.rs`,
    // captured on both load-shared arms.
    let mut bld = TopologyBuilder::new();
    let src = bld.node("src", Ipv4Addr::new(10, 90, 0, 1));
    let a = bld.node("a", Ipv4Addr::new(10, 90, 0, 2));
    let b = bld.node("b", Ipv4Addr::new(10, 90, 0, 3));
    let c = bld.node("c", Ipv4Addr::new(10, 90, 0, 4));
    let d = bld.node("d", Ipv4Addr::new(10, 90, 0, 5));
    bld.attach_prefix(src, "100.64.0.0/12".parse().unwrap());
    bld.attach_prefix(d, "203.0.113.0/24".parse().unwrap());
    let mut links = Vec::new();
    let mut costs = Vec::new();
    for (x, y, cost) in [
        (src, a, 1u64),
        (a, b, 1),
        (a, c, 1),
        (b, d, 1),
        (c, d, 1),
        (b, c, 2),
    ] {
        let (f, r) = bld.duplex(x, y, 622_000_000, SimDuration::from_millis(1));
        links.push(f);
        links.push(r);
        costs.push(cost);
        costs.push(cost);
    }
    let topo = bld.build();
    let mut chosen = None;
    for seed in 0..60 {
        let mut scenario = Scenario::new(SimTime::from_secs(30));
        scenario.costs = Some(costs.clone());
        scenario.seed = seed;
        scenario.igp = IgpConfig {
            ecmp_max_paths: 4,
            fib_node_jitter_max: SimDuration::from_millis(1_500),
            ..IgpConfig::default()
        };
        scenario.events.push(NetEvent::LinkFail {
            time: SimTime::from_secs(5),
            link: links[6], // b -> d forward link
        });
        let compiled = compile(&topo, &scenario);
        if compiled
            .windows
            .iter()
            .any(|w| w.duration_until(compiled.horizon) > SimDuration::from_millis(200))
        {
            chosen = Some(compiled);
            break;
        }
    }
    let compiled = chosen.expect("some seed opens an ECMP transient window");
    let mut engine = SimEngine::new(
        topo,
        SimConfig {
            generate_time_exceeded: false,
            ..SimConfig::default()
        },
    );
    compiled.apply(&mut engine);
    let tap_ab = engine.add_tap(links[2]);
    let tap_ac = engine.add_tap(links[4]);
    let mut t = SimTime::ZERO;
    let mut ident = 0u16;
    while t < SimTime::from_secs(10) {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 64, 0, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            30_000 + (ident % 512),
            80,
            TcpFlags::ACK,
            vec![0u8; 100],
        );
        p.ip.ident = ident;
        p.ip.ttl = 60;
        p.fill_checksums();
        engine.schedule_inject(t, src, p);
        ident = ident.wrapping_add(1);
        t += SimDuration::from_millis(2);
    }
    let report = engine.run();
    assert!(!report.loop_events.is_empty(), "fixture must contain loops");
    for (arm, tap) in [("ab", tap_ab), ("ac", tap_ac)] {
        let mut bytes = Vec::new();
        write_tap_to_pcap(&engine.taps()[tap], PAPER_SNAPLEN, &mut bytes).expect("write pcap");
        assert_pcap_ltc_parity(&format!("ecmp_{arm}"), &bytes);
    }
}

#[test]
fn truncated_final_record_refuses_to_convert() {
    // The pcap reader rejects a file that ends inside a record; the
    // conversion must surface exactly that error and leave no `.ltc`
    // behind — a silently shortened corpus would poison every later scan.
    let specs: Vec<PacketSpec> = (0..20).map(|i| (i as u8, i as u16, 60, 80, 20)).collect();
    let full = pcap_bytes(&specs, 64);
    // Cut into the final record's body (drop its trailing 5 bytes), and
    // separately into its 16-byte record header.
    for (tag, cut) in [("body", 5usize), ("header", 30usize)] {
        let bytes = &full[..full.len() - cut];
        assert!(matches!(
            records_from_pcap(std::io::Cursor::new(bytes)),
            Err(PcapError::Corrupt(_))
        ));
        let pcap = temp_path(&format!("trunc_{tag}"), "pcap");
        let ltc = temp_path(&format!("trunc_{tag}"), "ltc");
        std::fs::write(&pcap, bytes).expect("write pcap");
        match pcap_to_ltc(&pcap, &ltc, 2) {
            Err(ConvertError::Pcap(PcapError::Corrupt(_))) => {}
            other => panic!("truncated {tag} must fail as a pcap error, got {other:?}"),
        }
        assert!(
            !ltc.exists(),
            "a failed conversion must not leave a partial corpus"
        );
        remove(&[&pcap]);
    }
}
