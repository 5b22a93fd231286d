//! Cross-layer telemetry invariants: run real pipelines and assert that
//! the global metric registry tells a story consistent with the ground
//! truth the library APIs return.
//!
//! All tests share one process-wide registry, so each test snapshots
//! before and after its workload and asserts on the *delta*; a mutex
//! serialises the workloads so deltas are attributable.

mod pcap_ranges;

use routing_loops::convert::{
    pcap_to_ltc, records_from_pcap, verify_ltc_against_pcap, write_tap_to_pcap, PAPER_SNAPLEN,
};
use routing_loops::corpus::{open_ltc_source, records_from_ltc_with, IngestMode};
use routing_loops::loopscope::online::OnlineDetector;
use routing_loops::loopscope::{Detector, DetectorConfig, TraceRecord};
use routing_loops::net_types::{Packet, TcpFlags};
use routing_loops::simnet::{LinkId, SimTime, Tap};
use std::io::Cursor;
use std::net::Ipv4Addr;
use std::sync::Mutex;
use telemetry::Snapshot;

static WORKLOAD: Mutex<()> = Mutex::new(());

fn gauge_value(snap: &Snapshot, name: &str) -> i64 {
    snap.gauges.get(name).map_or(0, |&(value, _)| value)
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counters.get(name).copied().unwrap_or(0) - before.counters.get(name).copied().unwrap_or(0)
}

/// Trace records for one packet looping with TTL step 2, plus background
/// one-pass traffic to other prefixes.
fn looping_trace(n_loop: usize, n_background: usize) -> Vec<routing_loops::loopscope::TraceRecord> {
    let mut recs = Vec::new();
    let mut p = Packet::tcp_flags(
        Ipv4Addr::new(100, 7, 7, 7),
        Ipv4Addr::new(203, 0, 113, 1),
        5555,
        80,
        TcpFlags::ACK,
        &b"data"[..],
    );
    p.ip.ident = 42;
    p.ip.ttl = 60;
    p.fill_checksums();
    for k in 0..n_loop {
        if k > 0 {
            p.ip.decrement_ttl();
            p.ip.decrement_ttl();
        }
        recs.push(routing_loops::loopscope::TraceRecord::from_packet(
            1_000_000 * k as u64,
            &p,
        ));
    }
    for i in 0..n_background {
        let mut q = Packet::tcp_flags(
            Ipv4Addr::new(100, 1, 1, 1),
            Ipv4Addr::new(20, 0, (i % 5) as u8, 1),
            1000,
            80,
            TcpFlags::ACK,
            &b""[..],
        );
        q.ip.ident = 1000 + i as u16;
        q.ip.ttl = 57;
        q.fill_checksums();
        recs.push(routing_loops::loopscope::TraceRecord::from_packet(
            500_000 + 2_000_000 * i as u64,
            &q,
        ));
    }
    recs.sort_by_key(|r| r.timestamp_ns);
    recs
}

#[test]
fn pcap_counters_match_input_length() {
    let _lock = WORKLOAD.lock().unwrap();
    // Build a pcap through the real writer: a tap with 25 packets.
    let mut tap = Tap::new(LinkId(0));
    for i in 0..25u16 {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, 4),
            1,
            2,
            TcpFlags::ACK,
            vec![0u8; 200],
        );
        p.ip.ident = i;
        p.fill_checksums();
        tap.record(SimTime::from_millis(u64::from(i)), p);
    }
    let mut buf = Vec::new();
    write_tap_to_pcap(&tap, PAPER_SNAPLEN, &mut buf).unwrap();

    let before = telemetry::global().snapshot();
    let (records, skipped) = records_from_pcap(Cursor::new(buf)).unwrap();
    let after = telemetry::global().snapshot();

    // Invariant: pcap.records_total grew by exactly the number of records
    // handed back (parsed + unparseable).
    assert_eq!(
        counter_delta(&before, &after, "pcap.records_total"),
        records.len() as u64 + skipped
    );
    assert_eq!(records.len(), 25);
    assert_eq!(skipped, 0);
    // The 40-byte snaplen truncates every 200-byte-payload packet.
    assert_eq!(counter_delta(&before, &after, "pcap.truncated_records"), 25);
    // The pcap.read stage timer ticked once.
    let timer_delta = after.timers["pcap.read"].calls
        - before.timers.get("pcap.read").map(|t| t.calls).unwrap_or(0);
    assert_eq!(timer_delta, 1);
}

/// A 40-byte-snaplen pcap of 3000 IPv4 packets — past one 64 KiB split
/// block, so a 2-thread parallel read really splits — with a non-IPv4
/// record in each half.
fn noisy_pcap() -> Vec<u8> {
    use routing_loops::pcaplib::{FileHeader, PcapWriter};
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(PAPER_SNAPLEN)).unwrap();
    for i in 0..3000u16 {
        if i == 10 || i == 2500 {
            w.write_bytes(u64::from(i) * 1_000, &[0xde, 0xad]).unwrap();
        }
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, (i % 200) as u8),
            1,
            2,
            TcpFlags::ACK,
            vec![0u8; 40],
        );
        p.ip.ident = i;
        p.fill_checksums();
        w.write_bytes(u64::from(i) * 1_000, &p.emit()).unwrap();
    }
    w.finish().unwrap()
}

/// `noisy_pcap` with 20 to 50 forged records (4-byte bodies, the earliest
/// timestamp) after each packet: every guessed split offset inside them
/// is wrong, so a segmented decode falls back to a serial one.
fn forged_pcap() -> Vec<u8> {
    use routing_loops::pcaplib::{FileHeader, PcapReader, PcapWriter, RecordHeader};
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(65535)).unwrap();
    let mut r = PcapReader::new(Cursor::new(noisy_pcap())).unwrap();
    let mut i = 0usize;
    while let Some(p) = r.next_packet().unwrap() {
        let mut record = RecordHeader {
            ts_sec: 0,
            ts_frac: 0,
            incl_len: 4,
            orig_len: 4,
        }
        .encode()
        .to_vec();
        record.extend([0xee; 4]);
        let forged = record.repeat(20 + i % 31);
        let data: Vec<u8> = p.data.iter().copied().chain(forged).collect();
        w.write_bytes(p.timestamp_ns, &data).unwrap();
        i += 1;
    }
    w.finish().unwrap()
}

/// A unique temp path for this test binary.
fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("telemetry_{}_{tag}", std::process::id()))
}

#[test]
fn pcap_skips_reach_the_unparseable_counter_on_every_path() {
    use routing_loops::loopscope::pipeline::{run_pipeline, PcapSource, SerialEngine};
    let _lock = WORKLOAD.lock().unwrap();
    let bytes = noisy_pcap();
    let unparseable = |before: &Snapshot, after: &Snapshot| {
        counter_delta(before, after, "pcap.unparseable_records")
    };

    let before = telemetry::global().snapshot();
    let result = run_pipeline(
        &mut PcapSource::new(Cursor::new(&bytes)).unwrap(),
        &mut SerialEngine::new(DetectorConfig::default()),
        &mut [],
    )
    .unwrap();
    let after = telemetry::global().snapshot();
    assert_eq!(result.skipped, 2);
    assert_eq!(unparseable(&before, &after), result.skipped, "PcapSource");

    let path = temp_path("noisy.pcap");
    std::fs::write(&path, &bytes).unwrap();
    let before = telemetry::global().snapshot();
    let (_, skipped) = pcap_ranges::read_joined(&path, 2).unwrap();
    let after = telemetry::global().snapshot();
    std::fs::remove_file(&path).ok();
    assert_eq!(skipped, 2);
    assert_eq!(unparseable(&before, &after), skipped, "parallel read");
    assert!(
        !after.timers.contains_key("pcap.read")
            || after.timers["pcap.read"].calls == before.timers["pcap.read"].calls,
        "the 2-thread read split the file instead of reading it serially"
    );
}

#[test]
fn segmented_pcap_reads_publish_the_serial_reads_counters() {
    use routing_loops::loopscope::pipeline::{run_pipeline, BlockEngine, SerialEngine};
    use routing_loops::loopscope::segment::PcapFileSource;
    let _lock = WORKLOAD.lock().unwrap();
    const NAMES: [&str; 5] = [
        "pcap.records_total",
        "pcap.truncated_records",
        "pcap.malformed_records",
        "pcap.unparseable_records",
        "pcap.split_fallbacks",
    ];
    let deltas = |run: &mut dyn FnMut()| {
        let before = telemetry::global().snapshot();
        run();
        let after = telemetry::global().snapshot();
        NAMES.map(|n| counter_delta(&before, &after, n))
    };
    let mut truncated = noisy_pcap();
    truncated.truncate(truncated.len() - 7);
    for (name, bytes) in [
        ("noisy", noisy_pcap()),
        ("forged", forged_pcap()),
        ("truncated", truncated),
    ] {
        let path = temp_path(&format!("{name}.pcap"));
        std::fs::write(&path, &bytes).unwrap();
        let serial = deltas(&mut || {
            let _ = records_from_pcap(Cursor::new(&bytes));
        });
        assert_eq!(serial[4], 0, "{name}: the serial read never splits");
        for threads in [1, 2, 3] {
            let segmented = deltas(&mut || {
                let mut source = PcapFileSource::open(&path).unwrap();
                let _ = if threads == 1 {
                    run_pipeline(
                        &mut source,
                        &mut SerialEngine::new(DetectorConfig::default()),
                        &mut [],
                    )
                } else {
                    run_pipeline(
                        &mut source,
                        &mut BlockEngine::new(DetectorConfig::default(), threads),
                        &mut [],
                    )
                };
            });
            assert_eq!(segmented[..4], serial[..4], "{name} at {threads} threads");
            let fallbacks = segmented[4];
            if name == "forged" && threads > 1 {
                assert!(
                    fallbacks > 0,
                    "{name} at {threads} threads: the guess must fail"
                );
            } else if name != "forged" {
                assert_eq!(fallbacks, 0, "{name} at {threads} threads");
            }
            let parallel = deltas(&mut || {
                let _ = pcap_ranges::read_joined(&path, threads);
            });
            assert_eq!(
                parallel[..4],
                serial[..4],
                "{name}: parallel read at {threads} threads"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Checks the `replica.*` step-1 counters one run published against the
/// records it was fed and the raw candidates it reported.
fn assert_step1_invariants(before: &Snapshot, after: &Snapshot, records: usize, raw: u64) {
    // Invariant: every input record was scanned.
    assert_eq!(
        counter_delta(before, after, "replica.records_scanned"),
        records as u64
    );
    // Invariant: every opened candidate was either kept (as a raw
    // candidate) or discarded as a singleton.
    let opened = counter_delta(before, after, "replica.candidates_opened");
    let discarded = counter_delta(before, after, "replica.candidates_discarded");
    assert_eq!(opened, discarded + raw);
    // Invariant: with the default config the level-0 pre-filter sees every
    // record exactly once, as a hit (fingerprint already resident) or a
    // miss (empty slot seeded).
    let pf_hits = counter_delta(before, after, "replica.prefilter_hits");
    let pf_misses = counter_delta(before, after, "replica.prefilter_misses");
    assert_eq!(pf_hits + pf_misses, records as u64);
    // Every promotion moves a seeded candidate into the exact map, so
    // promotions are bounded by the misses that seeded them.
    let pf_promotions = counter_delta(before, after, "replica.prefilter_promotions");
    assert!(pf_promotions <= pf_misses, "{pf_promotions} > {pf_misses}");
    // The looping workload revisits its key: at least one hit + promotion.
    assert!(pf_hits > 0, "looping trace must re-probe a resident key");
    assert!(
        pf_promotions > 0,
        "looping trace must promote its candidate"
    );
}

#[test]
fn offline_detector_counters_are_consistent() {
    let _lock = WORKLOAD.lock().unwrap();
    let recs = looping_trace(8, 50);

    let before = telemetry::global().snapshot();
    let result = Detector::new(DetectorConfig::default()).run(&recs);
    let after = telemetry::global().snapshot();

    assert_step1_invariants(&before, &after, recs.len(), result.stats.raw_candidates);
    // Invariant: validation partitions the raw candidates.
    let kept = counter_delta(&before, &after, "validate.streams_kept");
    let rej_short = counter_delta(&before, &after, "validate.rejected_short");
    let rej_cov = counter_delta(&before, &after, "validate.rejected_covalidation");
    assert_eq!(kept + rej_short + rej_cov, result.stats.raw_candidates);
    assert_eq!(kept, result.streams.len() as u64);
    // Invariant: merge emitted exactly the loops the result reports.
    assert_eq!(
        counter_delta(&before, &after, "merge.loops_total"),
        result.loops.len() as u64
    );
    // All three stage timers ticked exactly once for this run.
    for stage in ["replica.detect", "validate", "merge"] {
        let calls =
            after.timers[stage].calls - before.timers.get(stage).map(|t| t.calls).unwrap_or(0);
        assert_eq!(calls, 1, "stage {stage}");
    }
}

#[test]
fn streaming_engine_publishes_the_serial_step1_counters() {
    use routing_loops::loopscope::pipeline::{run_pipeline, SliceSource, StreamingEngine};
    let _lock = WORKLOAD.lock().unwrap();
    let mut recs = looping_trace(8, 50);
    // A replica whose IP checksum disagrees with its TTL rewrite forces a
    // checksum split.
    let last = recs
        .iter()
        .rposition(|r| r.dst == Ipv4Addr::new(203, 0, 113, 1))
        .unwrap();
    recs[last].ip_checksum ^= 0x0f0f;
    let cfg = DetectorConfig::default();
    let step1 = |before: &Snapshot, after: &Snapshot| {
        [
            "replica.records_scanned",
            "replica.candidates_opened",
            "replica.candidates_discarded",
            "replica.checksum_splits",
        ]
        .map(|name| counter_delta(before, after, name))
    };

    let before = telemetry::global().snapshot();
    Detector::new(cfg).run(&recs);
    let mid = telemetry::global().snapshot();
    let result = run_pipeline(
        &mut SliceSource::new(&recs),
        &mut StreamingEngine::new(cfg),
        &mut [],
    )
    .unwrap();
    let after = telemetry::global().snapshot();

    assert_step1_invariants(&mid, &after, recs.len(), result.stats.raw_candidates);
    assert_eq!(step1(&before, &mid), step1(&mid, &after));
    assert_eq!(counter_delta(&mid, &after, "replica.checksum_splits"), 1);
}

#[test]
fn online_detector_gauges_bounded_and_nonzero() {
    let _lock = WORKLOAD.lock().unwrap();
    let recs = looping_trace(8, 50);

    let before = telemetry::global().snapshot();
    let mut det = OnlineDetector::new(DetectorConfig::default());
    for r in &recs {
        det.push(r);
    }
    let live_open = det.open_candidates();
    // Mid-run the gauges carry exactly this detector's share: its open
    // candidates and, as the trace is shorter than the history horizon,
    // one history entry per record.
    let live = telemetry::global().snapshot();
    assert_eq!(
        gauge_value(&live, "online.open_candidates")
            - gauge_value(&before, "online.open_candidates"),
        live_open as i64
    );
    assert_eq!(
        gauge_value(&live, "online.prefix_history") - gauge_value(&before, "online.prefix_history"),
        recs.len() as i64
    );
    let (events, stats) = det.finish();
    let after = telemetry::global().snapshot();

    // The gauges are fleet totals: a finished detector, and one dropped
    // without finishing, hand their whole share back.
    for name in ["online.open_candidates", "online.prefix_history"] {
        assert_eq!(
            gauge_value(&after, name),
            gauge_value(&before, name),
            "{name} after finish"
        );
    }
    let mut dropped = OnlineDetector::new(DetectorConfig::default());
    for r in &recs {
        dropped.push(r);
    }
    drop(dropped);
    let after_drop = telemetry::global().snapshot();
    for name in ["online.open_candidates", "online.prefix_history"] {
        assert_eq!(
            gauge_value(&after_drop, name),
            gauge_value(&before, name),
            "{name} after drop"
        );
    }

    // Invariant: the online pass counts its streams and loops under the
    // offline step 2–3 names.
    assert_eq!(
        counter_delta(&before, &after, "validate.streams_kept"),
        stats.streams_emitted
    );
    assert_eq!(
        counter_delta(&before, &after, "merge.loops_total"),
        stats.loops_emitted
    );
    assert!(stats.streams_emitted > 0, "workload must find the loop");
    assert!(!events.is_empty());

    // Invariant: the open-candidate gauge's high-water mark is nonzero and
    // bounded by the number of input records (each record opens at most
    // one candidate).
    let (_, open_hwm) = after.gauges["online.open_candidates"];
    assert!(open_hwm > 0);
    assert!(open_hwm <= recs.len() as i64);
    assert!(live_open as i64 <= open_hwm);

    // Invariant: the prefix-history gauge is nonzero and bounded by the
    // total records ever pushed through online detectors in this process
    // (this test's trace plus at most the other workloads in this binary).
    let (_, hist_hwm) = after.gauges["online.prefix_history"];
    assert!(hist_hwm > 0);
    assert!(hist_hwm <= 10 * recs.len() as i64);
}

#[test]
fn online_gauges_carry_the_live_share_after_each_push_batch() {
    let _lock = WORKLOAD.lock().unwrap();
    let recs = looping_trace(8, 50);
    let before = telemetry::global().snapshot();
    let mut det = OnlineDetector::new(DetectorConfig::default());
    let mut pushed = 0;
    for batch in recs.chunks(16) {
        det.push_batch(batch, |_| {});
        pushed += batch.len();
        // Published once per call: after it returns, the gauges hold
        // exactly this detector's open candidates and, as the trace is
        // shorter than the history horizon, one entry per record.
        let live = telemetry::global().snapshot();
        assert_eq!(
            gauge_value(&live, "online.open_candidates")
                - gauge_value(&before, "online.open_candidates"),
            det.open_candidates() as i64
        );
        assert_eq!(
            gauge_value(&live, "online.prefix_history")
                - gauge_value(&before, "online.prefix_history"),
            pushed as i64
        );
    }
    drop(det);
    let after = telemetry::global().snapshot();
    for name in ["online.open_candidates", "online.prefix_history"] {
        assert_eq!(
            gauge_value(&after, name),
            gauge_value(&before, name),
            "{name}"
        );
    }
}

/// `n` sightings, 1 ms apart, of one packet looping with TTL step 2.
fn sightings(src: u8, dst: Ipv4Addr, ident: u16, start_ns: u64, n: u64) -> Vec<TraceRecord> {
    let mut p = Packet::tcp_flags(
        Ipv4Addr::new(100, 7, 7, src),
        dst,
        5555,
        80,
        TcpFlags::ACK,
        &b"data"[..],
    );
    p.ip.ident = ident;
    p.ip.ttl = 60;
    p.fill_checksums();
    (0..n)
        .map(|k| {
            if k > 0 {
                p.ip.decrement_ttl();
                p.ip.decrement_ttl();
            }
            TraceRecord::from_packet(start_ns + k * 1_000_000, &p)
        })
        .collect()
}

#[test]
fn step23_counters_match_across_engines() {
    use routing_loops::loopscope::{
        run_pipeline, BlockEngine, Engine, SerialEngine, SliceSource, StreamingEngine,
    };
    let _lock = WORKLOAD.lock().unwrap();
    const SEC: u64 = 1_000_000_000;
    // On one /24: two overlapping streams, and a third one a clean 30 s
    // later, all merged into one loop. Elsewhere: a two-sighting
    // duplicate, a stream vetoed by a bystander to its /24, and
    // background traffic.
    let mut recs = [
        sightings(1, Ipv4Addr::new(203, 0, 113, 1), 1, 0, 5),
        sightings(2, Ipv4Addr::new(203, 0, 113, 2), 2, SEC / 2_000, 5),
        sightings(3, Ipv4Addr::new(203, 0, 113, 3), 3, 30 * SEC, 5),
        sightings(4, Ipv4Addr::new(198, 51, 100, 1), 4, SEC, 2),
        sightings(5, Ipv4Addr::new(192, 0, 2, 1), 5, 2 * SEC, 5),
        sightings(6, Ipv4Addr::new(192, 0, 2, 9), 6, 2 * SEC + 2_000_000, 1),
    ]
    .concat();
    recs.extend(looping_trace(0, 50));
    recs.sort_by_key(|r| r.timestamp_ns);

    let names = [
        "validate.streams_kept",
        "validate.rejected_short",
        "validate.rejected_covalidation",
        "merge.loops_total",
        "merge.merge_decisions",
        "merge.gap_closures",
    ];
    let cfg = DetectorConfig::default();
    let engines: [Box<dyn Engine>; 3] = [
        Box::new(SerialEngine::new(cfg)),
        Box::new(BlockEngine::new(cfg, 2)),
        Box::new(StreamingEngine::new(cfg)),
    ];
    let mut deltas = Vec::new();
    for mut engine in engines {
        let before = telemetry::global().snapshot();
        let result = run_pipeline(&mut SliceSource::new(&recs), engine.as_mut(), &mut []).unwrap();
        let after = telemetry::global().snapshot();
        let delta = names.map(|name| counter_delta(&before, &after, name));
        let [kept, short, co_loop, loops, decisions, _] = delta;
        let name = engine.name();
        assert_eq!(kept, result.streams.len() as u64, "{name}");
        assert_eq!(short, result.stats.rejected_short, "{name}");
        assert_eq!(co_loop, result.stats.rejected_covalidation, "{name}");
        assert_eq!(loops, result.loops.len() as u64, "{name}");
        // Invariant: every kept stream starts a loop or is merged into one.
        assert_eq!(decisions, kept - loops, "{name}");
        deltas.push((name, delta));
    }
    for (name, delta) in &deltas {
        assert_eq!(
            *delta, deltas[0].1,
            "{name} step 2–3 counters differ from serial"
        );
    }
    assert_eq!(deltas[0].1, [3, 1, 1, 1, 2, 1], "the fixture's shape");
}

#[test]
fn snapshot_json_exposes_pipeline_stages() {
    let _lock = WORKLOAD.lock().unwrap();
    // After any detector workload in this binary, the JSON document must
    // name the pipeline stages (what `loopdetect --metrics -` prints).
    let recs = looping_trace(6, 10);
    Detector::new(DetectorConfig::default()).run(&recs);
    let json = telemetry::global().snapshot().to_json();
    for key in [
        "\"replica.records_scanned\"",
        "\"replica.prefilter_hits\"",
        "\"replica.prefilter_misses\"",
        "\"replica.prefilter_promotions\"",
        "\"replica.prefilter_evictions\"",
        "\"replica.prefilter_collisions\"",
        "\"validate.streams_kept\"",
        "\"merge.loops_total\"",
        "\"replica.detect\"",
        "\"validate\"",
        "\"merge\"",
    ] {
        assert!(json.contains(key), "{key} missing from snapshot {json}");
    }
}

/// The `(name patterns, kind)` rows of DESIGN.md's metric catalogue: every
/// backticked name in a row's first cell, with the row's kind.
fn design_metric_rows() -> Vec<(Vec<String>, String)> {
    let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"));
    let table = design
        .split_once("| metric | kind | meaning |")
        .expect("DESIGN.md has the metric catalogue")
        .1;
    table
        .lines()
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').collect();
            let names = cells[1].split('`').skip(1).step_by(2).map(String::from);
            (names.collect(), cells[2].trim().to_string())
        })
        .collect()
}

/// Whether a dotted metric name matches a catalogue pattern, where `wN`
/// stands for any worker segment (`w0`, `w13`) and `<id>` for one or more
/// segments of a link id.
fn name_matches(pattern: &[&str], name: &[&str]) -> bool {
    match (pattern.split_first(), name.split_first()) {
        (None, None) => true,
        (Some((&"<id>", rest)), Some(_)) => {
            (1..=name.len()).any(|k| name_matches(rest, &name[k..]))
        }
        (Some((p, rest)), Some((n, name_rest))) => {
            let worker = *p == "wN"
                && n.len() > 1
                && n.starts_with('w')
                && n[1..].bytes().all(|b| b.is_ascii_digit());
            (p == n || worker) && name_matches(rest, name_rest)
        }
        _ => false,
    }
}

#[test]
fn metric_catalogue_covers_every_emitted_name() {
    use routing_loops::loopscope::pipeline::{
        run_pipeline, BlockEngine, Engine, PcapSource, SerialEngine, SliceSource, StreamingEngine,
    };
    use routing_loops::loopscope::segment::PcapFileSource;
    let _lock = WORKLOAD.lock().unwrap();
    let recs = looping_trace(6, 40);
    let cfg = DetectorConfig::default();
    let engines: [Box<dyn Engine>; 3] = [
        Box::new(SerialEngine::new(cfg)),
        Box::new(BlockEngine::new(cfg, 2)),
        Box::new(StreamingEngine::new(cfg)),
    ];
    for mut engine in engines {
        run_pipeline(&mut SliceSource::new(&recs), engine.as_mut(), &mut []).unwrap();
    }
    // Every ingest path: the pcap source, the 2-thread conversion and its
    // verify, both `.ltc` sources, the whole-file `.ltc` decode in both
    // modes, and the mapped decode falling back on a missing file.
    let (pcap, ltc) = (temp_path("catalogue.pcap"), temp_path("catalogue.ltc"));
    let forged = temp_path("catalogue-forged.pcap");
    std::fs::write(&pcap, noisy_pcap()).unwrap();
    std::fs::write(&forged, forged_pcap()).unwrap();
    let file = std::io::BufReader::new(std::fs::File::open(&pcap).unwrap());
    run_pipeline(
        &mut PcapSource::new(file).unwrap(),
        &mut SerialEngine::new(cfg),
        &mut [],
    )
    .unwrap();
    // The segmented pcap path, with and without a split fallback.
    for path in [&pcap, &forged] {
        let mut engine = BlockEngine::new(cfg, 2);
        run_pipeline(
            &mut PcapFileSource::open(path).unwrap(),
            &mut engine,
            &mut [],
        )
        .unwrap();
    }
    pcap_to_ltc(&pcap, &ltc, 2).unwrap();
    verify_ltc_against_pcap(&ltc, &pcap).unwrap();
    for mode in [IngestMode::Mmap, IngestMode::Buffered] {
        let mut source = open_ltc_source(&ltc, mode).unwrap();
        run_pipeline(source.as_mut(), &mut SerialEngine::new(cfg), &mut []).unwrap();
        // Segmented under Mmap, batches under Buffered.
        let mut source = open_ltc_source(&ltc, mode).unwrap();
        run_pipeline(source.as_mut(), &mut BlockEngine::new(cfg, 2), &mut []).unwrap();
        records_from_ltc_with(&ltc, 2, mode).unwrap();
    }
    assert!(records_from_ltc_with(&temp_path("missing.ltc"), 2, IngestMode::Mmap).is_err());
    for path in [&pcap, &forged, &ltc] {
        std::fs::remove_file(path).ok();
    }

    let snap = telemetry::global().snapshot();
    assert!(snap.timers.contains_key("block.w1.scan"), "block@2 ran");
    assert!(snap.timers.contains_key("pipeline.run"), "pipeline timers");
    assert!(
        snap.counters.contains_key("ingest.mmap.fallbacks"),
        "fallback ran"
    );
    assert!(
        snap.counters.contains_key("pcap.split_fallbacks"),
        "split fallback ran"
    );

    let rows = design_metric_rows();
    let emitted = snap
        .counters
        .keys()
        .map(|n| (n, "counter"))
        .chain(snap.gauges.keys().map(|n| (n, "gauge")))
        .chain(snap.timers.keys().map(|n| (n, "timer")));
    let undocumented: Vec<String> = emitted
        .filter(|(name, kind)| {
            let name: Vec<&str> = name.split('.').collect();
            !rows.iter().any(|(patterns, row_kind)| {
                row_kind == kind
                    && patterns.iter().any(|p| {
                        let p: Vec<&str> = p.split('.').collect();
                        name_matches(&p, &name)
                    })
            })
        })
        .map(|(name, kind)| format!("{name} ({kind})"))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics missing from DESIGN.md's catalogue: {undocumented:?}"
    );
}

/// A raw-IP pcap of 3000 one-pass packets (past one 64 KiB split block,
/// so a 2-thread read really splits) around three 6-sighting loops to
/// distinct /24s and one loop vetoed by a bystander to its /24.
fn looping_pcap() -> Vec<u8> {
    use routing_loops::pcaplib::{FileHeader, PcapWriter};
    let mut packets: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut push = |t_ns: u64, dst: Ipv4Addr, ident: u16, ttl: u8| {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 7, 7, 7),
            dst,
            5555,
            80,
            TcpFlags::ACK,
            &b"data"[..],
        );
        p.ip.ident = ident;
        p.ip.ttl = ttl;
        p.fill_checksums();
        packets.push((t_ns, p.emit().to_vec()));
    };
    for (j, dst) in [
        [203, 0, 113, 1],
        [198, 51, 100, 1],
        [192, 0, 2, 1],
        [10, 9, 9, 1],
    ]
    .into_iter()
    .enumerate()
    {
        for k in 0..6u64 {
            let t_ns = 500_000_000 * j as u64 + 1_000_000 * k + 7;
            push(t_ns, Ipv4Addr::from(dst), j as u16, 60 - 2 * k as u8);
        }
    }
    push(1_502_000_000, Ipv4Addr::new(10, 9, 9, 2), 999, 50);
    for i in 0..3000u64 {
        push(
            i * 1_000_000,
            Ipv4Addr::new(20, 0, (i % 5) as u8, 1),
            1000 + i as u16,
            57,
        );
    }
    packets.sort_by_key(|&(t_ns, _)| t_ns);
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(65535)).unwrap();
    for (t_ns, bytes) in &packets {
        w.write_bytes(*t_ns, bytes).unwrap();
    }
    w.finish().unwrap()
}

/// The metric names one `loopdetect --metrics -` run publishes, each
/// prefixed with its kind, and with every `w<N>` worker segment written
/// `wN`.
fn published_names(input: &std::path::Path, args: &[&str]) -> std::collections::BTreeSet<String> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_loopdetect"))
        .arg(input)
        .args(["--csv", "summary", "--metrics", "-"])
        .args(args)
        .output()
        .unwrap();
    assert!(out.status.success(), "{args:?}: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = stdout.lines().last().expect("metrics document");
    telemetry::json::validate(doc).expect("metrics document is JSON");
    // Metric names are the keys two objects deep:
    // `{"<kind>s":{"<name>":...}}`.
    let (mut depth, mut kind, mut names) = (0, String::new(), std::collections::BTreeSet::new());
    let mut rest = doc;
    while let Some(c) = rest.chars().next() {
        if c == '"' {
            let end = rest[1..].find('"').expect("closed string") + 1;
            let key = &rest[1..end];
            rest = &rest[end + 1..];
            if rest.starts_with(':') {
                match depth {
                    1 => kind = key.trim_end_matches('s').to_string(),
                    2 => {
                        let name: Vec<String> = key
                            .split('.')
                            .map(|seg| {
                                let worker = seg.len() > 1
                                    && seg.starts_with('w')
                                    && seg[1..].bytes().all(|b| b.is_ascii_digit());
                                if worker {
                                    "wN".into()
                                } else {
                                    seg.into()
                                }
                            })
                            .collect();
                        names.insert(format!("{kind} {}", name.join(".")));
                    }
                    _ => {}
                }
            }
            continue;
        }
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        rest = &rest[c.len_utf8()..];
    }
    names
}

#[test]
fn serial_and_block_engines_publish_one_metric_vocabulary() {
    // One offline core: `--engine serial` (one worker, on the calling
    // thread) and `--threads 2` (two workers) publish the same metric
    // names, per-worker names compared whatever the worker number. Each
    // run is its own process, so the names are exactly what it published.
    let pcap = temp_path("vocabulary.pcap");
    let ltc = temp_path("vocabulary.ltc");
    std::fs::write(&pcap, looping_pcap()).unwrap();
    pcap_to_ltc(&pcap, &ltc, 1).unwrap();
    for (input, ingest) in [(&pcap, &[][..]), (&ltc, &["--no-mmap"][..])] {
        let serial = published_names(input, &[&["--engine", "serial"][..], ingest].concat());
        let block = published_names(input, &[&["--threads", "2"][..], ingest].concat());
        for name in [
            "timer replica.detect",
            "timer validate",
            "timer merge",
            "timer block.wN.busy",
            "counter validate.rejected_covalidation",
            "counter merge.loops_total",
        ] {
            assert!(serial.contains(name), "{input:?}: serial run lacks {name}");
        }
        assert_eq!(
            serial.symmetric_difference(&block).collect::<Vec<_>>(),
            Vec::<&String>::new(),
            "{input:?}: names published by one engine only"
        );
    }
    for path in [&pcap, &ltc] {
        std::fs::remove_file(path).ok();
    }
}
