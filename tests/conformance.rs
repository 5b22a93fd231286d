//! Engine conformance suite: the serial, block-parallel, and streaming
//! engines implement one `DetectionResult` contract, so
//! every fixture must produce identical streams, loops, and stage
//! counters — and byte-identical sink output — regardless of which engine
//! ran. This is the trait-level home of what used to be scattered
//! pairwise equality tests. The serial baseline is itself checked against
//! the independent oracle.

#[path = "../crates/loopscope/tests/oracle/mod.rs"]
mod oracle;

use routing_loops::backbone::{paper_backbones, run_backbone};
use routing_loops::convert::{write_tap_to_pcap, PAPER_SNAPLEN};
use routing_loops::loopscope::pipeline::{
    LoopCsvSink, LoopJsonlSink, StreamCsvSink, StreamJsonlSink, SummaryCsvSink,
};
use routing_loops::loopscope::{
    analysis, run_pipeline, BlockEngine, DetectorConfig, Engine, PcapSource, PipelineResult,
    SerialEngine, Sink, SliceSource, StreamingEngine, TraceRecord,
};
use routing_loops::net_types::{Packet, TcpFlags};
use std::net::Ipv4Addr;

const PERSISTENT_NS: u64 = 10_000_000_000;

/// Every engine the pipeline offers, including a streaming engine with the
/// safe horizon spelled out explicitly (the eviction bound the online
/// detector derives internally: merge gap + 256 replica gaps).
fn engines(cfg: DetectorConfig) -> Vec<Box<dyn Engine>> {
    let safe_horizon = cfg.merge_gap_ns + cfg.max_replica_gap_ns.saturating_mul(256);
    vec![
        Box::new(SerialEngine::new(cfg)),
        Box::new(BlockEngine::new(cfg, 1)),
        Box::new(BlockEngine::new(cfg, 2)),
        Box::new(BlockEngine::new(cfg, 4)),
        Box::new(BlockEngine::new(cfg, 8)),
        Box::new(StreamingEngine::new(cfg)),
        Box::new(StreamingEngine::new(cfg).with_history_horizon(safe_horizon)),
    ]
}

fn run_engine(records: &[TraceRecord], engine: &mut dyn Engine) -> PipelineResult {
    let mut source = SliceSource::new(records);
    run_pipeline(&mut source, engine, &mut []).expect("in-memory pipeline cannot fail")
}

/// One pipeline run with every sink attached; returns the rendered bytes.
fn render_sinks(records: &[TraceRecord], engine: &mut dyn Engine) -> Vec<Vec<u8>> {
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
        let mut source = SliceSource::new(records);
        run_pipeline(&mut source, engine, &mut sinks).expect("pipeline run");
    }
    vec![
        loops_csv.into_inner(),
        streams_csv.into_inner(),
        summary_csv.into_inner(),
        loops_jsonl.into_inner(),
        streams_jsonl.into_inner(),
    ]
}

/// Asserts the full conformance contract for one fixture: result equality
/// and sink byte-equality across every engine.
fn assert_conformance(fixture: &str, records: &[TraceRecord]) -> PipelineResult {
    let cfg = DetectorConfig::default();
    let baseline = run_engine(records, &mut SerialEngine::new(cfg));
    let baseline_bytes = render_sinks(records, &mut SerialEngine::new(cfg));
    // The baseline itself is the independent oracle's result.
    let want = oracle::detect(records, &cfg).expect("sorted fixture");
    assert_eq!(
        baseline.streams,
        want.streams_by_start(),
        "{fixture}: oracle streams"
    );
    assert_eq!(baseline.loops, want.loops, "{fixture}: oracle loops");
    assert_eq!(baseline.stats, want.stats, "{fixture}: oracle stats");
    for mut engine in engines(cfg) {
        let name = engine.name();
        let got = run_engine(records, engine.as_mut());
        assert_eq!(
            got.streams, baseline.streams,
            "{fixture}: {name} streams diverge from serial"
        );
        assert_eq!(
            got.loops, baseline.loops,
            "{fixture}: {name} loops diverge from serial"
        );
        assert_eq!(
            got.stats, baseline.stats,
            "{fixture}: {name} stats diverge from serial"
        );
        assert_eq!(got.records, baseline.records, "{fixture}: {name} records");
    }
    for mut engine in engines(cfg) {
        let name = engine.name();
        let got = render_sinks(records, engine.as_mut());
        for (kind, (a, b)) in [
            "loops csv",
            "streams csv",
            "summary csv",
            "loops jsonl",
            "streams jsonl",
        ]
        .iter()
        .zip(baseline_bytes.iter().zip(got.iter()))
        {
            assert_eq!(
                a, b,
                "{fixture}: {name} {kind} output is not byte-identical to serial"
            );
        }
    }
    baseline
}

fn backbone_records() -> Vec<TraceRecord> {
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "conformance".into();
    run_backbone(&spec).records
}

/// The diamond-with-ECMP reconvergence trace from `tests/ecmp.rs`, captured
/// on both load-shared arms (each arm is its own monitored link, as in the
/// paper's deployment).
fn ecmp_arm_records() -> Vec<Vec<TraceRecord>> {
    use routing_loops::routing::scenario::{compile, NetEvent, Scenario};
    use routing_loops::routing::IgpConfig;
    use routing_loops::simnet::{
        Engine as SimEngine, SimConfig, SimDuration, SimTime, TopologyBuilder,
    };

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
    [tap_ab, tap_ac]
        .into_iter()
        .map(|tap| {
            engine.taps()[tap]
                .records
                .iter()
                .map(|r| TraceRecord::from_packet(r.time.as_nanos(), &r.packet))
                .collect()
        })
        .collect()
}

#[test]
fn backbone_fixture_conformance() {
    let records = backbone_records();
    let result = assert_conformance("backbone", &records);
    assert!(
        !result.streams.is_empty(),
        "backbone fixture must contain loops for the suite to mean anything"
    );
}

#[test]
fn ecmp_fixture_conformance() {
    let mut found = 0usize;
    for (i, records) in ecmp_arm_records().iter().enumerate() {
        let result = assert_conformance(&format!("ecmp arm {i}"), records);
        found += result.streams.len();
    }
    assert!(found > 0, "some ECMP arm must carry replica streams");
}

#[test]
fn pcap_fixture_conformance() {
    // The paper's capture path: snap to 40 bytes, write a classic pcap,
    // read it back through the zero-alloc `PcapSource`. Truncation makes
    // this a genuinely different record set from the in-memory backbone.
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "conformance-pcap".into();
    let run = run_backbone(&spec);
    let mut bytes = Vec::new();
    write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, &mut bytes).expect("write pcap");

    // Materialise once so the slice-based conformance helper (and its
    // block engines) see exactly what the pcap source yields.
    let mut records = Vec::new();
    let mut source = PcapSource::new(std::io::Cursor::new(&bytes[..])).expect("pcap header");
    use routing_loops::loopscope::RecordSource;
    let summary = source
        .for_each_batch(&mut |batch| {
            records.extend_from_slice(batch);
            Ok(())
        })
        .expect("pcap read");
    assert_eq!(summary.records as usize, records.len());
    let baseline = assert_conformance("pcap", &records);
    assert!(!baseline.streams.is_empty(), "pcap fixture must loop");

    // And the streaming engine fed directly from the pcap source (the
    // bounded-memory deployment shape) matches the slice baseline.
    let mut source = PcapSource::new(std::io::Cursor::new(&bytes[..])).expect("pcap header");
    let streamed = run_pipeline(
        &mut source,
        &mut StreamingEngine::new(DetectorConfig::default()),
        &mut [],
    )
    .expect("pipeline run");
    assert_eq!(streamed.streams, baseline.streams);
    assert_eq!(streamed.loops, baseline.loops);
    assert_eq!(streamed.stats, baseline.stats);
}

#[test]
fn ltc_fixture_conformance() {
    use routing_loops::corpus::{open_ltc_source, records_from_ltc_with, IngestMode};
    use routing_loops::loopscope::RecordSource;

    // The same truncated capture as `pcap_fixture_conformance`, converted
    // to the columnar `.ltc` corpus. The detector must not be able to tell
    // which container the records came from: the decoded record set, the
    // result of every engine, and every sink byte must match.
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "conformance-ltc".into();
    let run = run_backbone(&spec);
    let dir = std::env::temp_dir();
    let pcap_path = dir.join(format!("conformance_ltc_{}.pcap", std::process::id()));
    let ltc_path = dir.join(format!("conformance_ltc_{}.ltc", std::process::id()));
    {
        let file = std::fs::File::create(&pcap_path).expect("create pcap");
        write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, std::io::BufWriter::new(file))
            .expect("write pcap");
    }
    routing_loops::convert::pcap_to_ltc(&pcap_path, &ltc_path, 1).expect("convert pcap to ltc");

    let mut pcap_records = Vec::new();
    {
        let file = std::fs::File::open(&pcap_path).expect("open pcap");
        let mut source = PcapSource::new(std::io::BufReader::new(file)).expect("pcap header");
        source
            .for_each_batch(&mut |batch| {
                pcap_records.extend_from_slice(batch);
                Ok(())
            })
            .expect("pcap read");
    }
    let (ltc_records, skipped) =
        records_from_ltc_with(&ltc_path, 1, IngestMode::Buffered).expect("read ltc");
    assert_eq!(skipped, 0, "fixture pcap has no undecodable frames");
    assert_eq!(
        pcap_records, ltc_records,
        "columnar decode must equal the pcap decode record-for-record"
    );

    let baseline = assert_conformance("ltc", &ltc_records);
    assert!(!baseline.streams.is_empty(), "ltc fixture must loop");

    // And the streaming engine fed directly from the buffered columnar
    // source (the bounded-memory deployment shape) matches the slice
    // baseline.
    let mut source = open_ltc_source(&ltc_path, IngestMode::Buffered).expect("open ltc");
    let streamed = run_pipeline(
        source.as_mut(),
        &mut StreamingEngine::new(DetectorConfig::default()),
        &mut [],
    )
    .expect("pipeline run");
    assert_eq!(streamed.streams, baseline.streams);
    assert_eq!(streamed.loops, baseline.loops);
    assert_eq!(streamed.stats, baseline.stats);

    let _ = std::fs::remove_file(&pcap_path);
    let _ = std::fs::remove_file(&ltc_path);
}

#[test]
fn simnet_tap_fixture_conformance() {
    use routing_loops::simnet::FleetSpec;
    use routing_loops::sources::TapSource;

    // A live-monitor capture source: a fleet link's simulated tap fed
    // through `TapSource`, the path `loopmond` drives. The records must
    // run the same conformance contract as the pcap/ltc containers.
    let spec = FleetSpec::demo(3);
    let tap = spec.run_link(1);
    let mut tap_source = TapSource::new(&tap);
    let records = tap_source.records().to_vec();
    let baseline = assert_conformance("simnet-tap", &records);
    assert!(!baseline.streams.is_empty(), "fleet tap fixture must loop");
    assert!(!baseline.loops.is_empty());

    // And the pipeline pulled from the TapSource itself (batch path, no
    // slice fast path guarantees) matches the slice baseline.
    let streamed = run_pipeline(
        &mut tap_source,
        &mut StreamingEngine::new(DetectorConfig::default()),
        &mut [],
    )
    .expect("pipeline run");
    assert_eq!(streamed.streams, baseline.streams);
    assert_eq!(streamed.loops, baseline.loops);
    assert_eq!(streamed.stats, baseline.stats);
    assert_eq!(streamed.records, records.len() as u64);
}

#[test]
fn tied_streams_keep_one_member_order_on_every_engine() {
    // Two looping packets to one /24 share their IP ident and their first
    // and last sighting times, so their streams tie on (start, end,
    // ident). A duplicate of the second packet's last sighting does not
    // continue it: the second stream closes at once, the first only when
    // it expires. The loop that holds both must list them in the same
    // order on every engine, whichever closed first.
    let sightings = |src: Ipv4Addr, dst: Ipv4Addr| -> Vec<TraceRecord> {
        let mut p = Packet::tcp_flags(src, dst, 5555, 80, TcpFlags::ACK, &b"data"[..]);
        p.ip.ident = 7;
        p.ip.ttl = 60;
        p.fill_checksums();
        (0..4u64)
            .map(|k| {
                if k > 0 {
                    p.ip.decrement_ttl();
                    p.ip.decrement_ttl();
                }
                TraceRecord::from_packet(k * 1_000_000, &p)
            })
            .collect()
    };
    let a = sightings(Ipv4Addr::new(100, 7, 7, 7), Ipv4Addr::new(203, 0, 113, 1));
    let b = sightings(Ipv4Addr::new(100, 8, 8, 8), Ipv4Addr::new(203, 0, 113, 2));
    let mut records: Vec<TraceRecord> = a.iter().zip(&b).flat_map(|(x, y)| [*x, *y]).collect();
    let mut duplicate = b[3];
    duplicate.timestamp_ns += 500_000;
    records.push(duplicate);
    assert_eq!(records.len(), 9);

    let result = assert_conformance("tied streams", &records);
    assert_eq!(result.loops.len(), 1);
    assert_eq!(result.loops[0].num_streams(), 2);
}

#[test]
fn analysis_accumulator_conforms_across_engines() {
    let records = backbone_records();
    let cfg = DetectorConfig::default();

    let mut reports = Vec::new();
    for mut engine in engines(cfg) {
        let mut acc = analysis::AnalysisAccumulator::new();
        {
            let mut sinks: Vec<&mut dyn Sink> = vec![&mut acc];
            let mut source = SliceSource::new(&records);
            run_pipeline(&mut source, engine.as_mut(), &mut sinks).expect("pipeline run");
        }
        reports.push((engine.name(), acc.report()));
    }
    let (_, baseline) = reports[0].clone();
    for (name, mut report) in reports.into_iter().skip(1) {
        let mut base = baseline.clone();
        assert_eq!(report.summary, base.summary, "{name} summary");
        assert_eq!(
            report.ttl_delta.iter().collect::<Vec<_>>(),
            base.ttl_delta.iter().collect::<Vec<_>>(),
            "{name} ttl histogram"
        );
        assert_eq!(
            report.stream_size_cdf.steps(),
            base.stream_size_cdf.steps(),
            "{name} stream size cdf"
        );
        assert_eq!(
            report.loop_duration_cdf_s.steps(),
            base.loop_duration_cdf_s.steps(),
            "{name} loop duration cdf"
        );
        assert_eq!(
            report.mix_looped.fractions(),
            base.mix_looped.fractions(),
            "{name} looped mix"
        );
        assert_eq!(report.class_c_share, base.class_c_share, "{name} class C");
    }
}
