//! End-to-end test of the `loopdetect` binary: generate a trace, write it
//! to a pcap file, and drive the CLI the way a user would.

mod defective_pcap;
mod forged_ltc;
#[path = "../crates/loopscope/tests/oracle/mod.rs"]
mod oracle;

use routing_loops::backbone::{paper_backbones, run_backbone};
use routing_loops::convert::{write_tap_to_pcap, PAPER_SNAPLEN};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn loopdetect() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loopdetect"))
}

/// The shared backbone fixture, simulated once per test process. Tests run
/// in parallel and only read it, so none may delete it. It is written under
/// a private name and renamed into place, so a concurrent test process
/// writing the same (deterministic) file cannot truncate it under a reader.
fn demo_pcap() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("loopdetect_cli_demo.pcap");
        let tmp = dir.join(format!("loopdetect_cli_demo_{}.tmp", std::process::id()));
        let mut spec = paper_backbones(0.08).remove(2);
        spec.name = "cli-test".into();
        let run = run_backbone(&spec);
        let file = std::fs::File::create(&tmp).expect("create pcap");
        write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, std::io::BufWriter::new(file))
            .expect("write pcap");
        std::fs::rename(&tmp, &path).expect("move pcap into place");
        path
    })
    .clone()
}

#[test]
fn text_report_and_csv_agree() {
    let pcap = demo_pcap();

    let text = loopdetect().arg(&pcap).output().expect("run loopdetect");
    assert!(text.status.success(), "{:?}", text);
    let text_out = String::from_utf8(text.stdout).unwrap();
    assert!(text_out.contains("replica streams"), "{text_out}");
    assert!(text_out.contains("routing loops"), "{text_out}");

    let csv = loopdetect()
        .arg(&pcap)
        .args(["--csv", "loops"])
        .output()
        .expect("run loopdetect --csv loops");
    assert!(csv.status.success());
    let csv_out = String::from_utf8(csv.stdout).unwrap();
    let mut lines = csv_out.lines();
    assert_eq!(
        lines.next().unwrap(),
        "prefix,start_s,end_s,duration_s,streams,replicas,ttl_delta,class"
    );
    let n_loops_csv = lines.count();

    // The text report names the same number of loops.
    let n_loops_text = text_out
        .lines()
        .filter(|l| l.trim_start().starts_with("loop "))
        .count();
    assert_eq!(n_loops_csv, n_loops_text);

    // Summary CSV has the core metrics.
    let summary = loopdetect()
        .arg(&pcap)
        .args(["--csv", "summary"])
        .output()
        .unwrap();
    let summary_out = String::from_utf8(summary.stdout).unwrap();
    assert!(summary_out.starts_with("metric,value"));
    for key in ["records,", "streams,", "loops,", "died_in_loop,"] {
        assert!(summary_out.contains(key), "missing {key} in {summary_out}");
    }
}

#[test]
fn streaming_mode_matches_offline() {
    let pcap = demo_pcap();
    let offline = loopdetect()
        .arg(&pcap)
        .args(["--csv", "loops"])
        .output()
        .unwrap();
    let streaming = loopdetect()
        .arg(&pcap)
        .args(["--csv", "loops", "--streaming"])
        .output()
        .unwrap();
    assert!(offline.status.success() && streaming.status.success());
    assert_eq!(
        String::from_utf8(offline.stdout).unwrap(),
        String::from_utf8(streaming.stdout).unwrap(),
        "streaming output must be identical to offline"
    );
}

#[test]
fn threads_output_is_byte_identical_to_serial() {
    let pcap = demo_pcap();
    for csv in ["loops", "streams", "summary"] {
        let serial = loopdetect()
            .arg(&pcap)
            .args(["--csv", csv, "--threads", "1"])
            .output()
            .unwrap();
        assert!(serial.status.success(), "{serial:?}");
        for threads in ["2", "4", "8"] {
            let par = loopdetect()
                .arg(&pcap)
                .args(["--csv", csv, "--threads", threads])
                .output()
                .unwrap();
            assert!(par.status.success(), "{par:?}");
            assert_eq!(
                serial.stdout, par.stdout,
                "--csv {csv} --threads {threads} must match serial byte-for-byte"
            );
        }
    }
    // The default text report too.
    let serial = loopdetect()
        .arg(&pcap)
        .args(["--threads", "1"])
        .output()
        .unwrap();
    let par = loopdetect()
        .arg(&pcap)
        .args(["--threads", "4"])
        .output()
        .unwrap();
    assert_eq!(serial.stdout, par.stdout);
}

#[test]
fn engine_flag_selects_engines_and_rejects_conflicts() {
    let pcap = demo_pcap();
    // Every engine choice produces byte-identical output.
    let serial = loopdetect()
        .arg(&pcap)
        .args(["--csv", "loops", "--engine", "serial"])
        .output()
        .unwrap();
    assert!(serial.status.success(), "{serial:?}");
    for engine_args in [
        &["--engine", "block", "--threads", "4"][..],
        &["--engine", "streaming"],
        &["--threads", "4"], // defaults to block
    ] {
        let other = loopdetect()
            .arg(&pcap)
            .args(["--csv", "loops"])
            .args(engine_args)
            .output()
            .unwrap();
        assert!(other.status.success(), "{engine_args:?}: {other:?}");
        assert_eq!(
            serial.stdout, other.stdout,
            "{engine_args:?} must match --engine serial byte-for-byte"
        );
    }
    // Conflicting or bogus combinations die with a clear message.
    for bad in [
        &["--engine", "warp"][..],
        &["--engine"],
        &["--engine", "serial", "--threads", "2"],
        &["--engine", "block", "--streaming"],
    ] {
        let out = loopdetect().arg(&pcap).args(bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error:"), "{bad:?}: {err}");
        assert!(err.contains("USAGE"), "{bad:?}: {err}");
    }
}

#[test]
fn retired_ring_engine_is_a_usage_error() {
    let out = loopdetect()
        .arg(demo_pcap())
        .args(["--engine", "ring", "--threads", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("serial, block, or streaming"), "{err}");
}

/// A transient-ECMP-loop trace written to pcap: the diamond topology from
/// `tests/ecmp.rs` with one arm failed mid-run, captured on the a→b link.
fn ecmp_pcap() -> std::path::PathBuf {
    use routing_loops::net_types::{Packet, TcpFlags};
    use routing_loops::routing::scenario::{compile, NetEvent, Scenario};
    use routing_loops::routing::IgpConfig;
    use routing_loops::simnet::{Engine, SimConfig, SimDuration, SimTime, TopologyBuilder};
    use std::net::Ipv4Addr;

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
    let mut engine = Engine::new(
        topo,
        SimConfig {
            generate_time_exceeded: false,
            ..SimConfig::default()
        },
    );
    compiled.apply(&mut engine);
    let tap_ab = engine.add_tap(links[2]); // a -> b
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
    engine.run();

    let path =
        std::env::temp_dir().join(format!("loopdetect_cli_ecmp_{}.pcap", std::process::id()));
    let file = std::fs::File::create(&path).expect("create pcap");
    write_tap_to_pcap(
        &engine.taps()[tap_ab],
        PAPER_SNAPLEN,
        std::io::BufWriter::new(file),
    )
    .expect("write pcap");
    path
}

/// The stream table the independent oracle's result renders to.
fn oracle_streams_csv(pcap: &Path) -> Vec<u8> {
    use routing_loops::loopscope::pipeline::StreamCsvSink;
    use routing_loops::loopscope::{DetectorConfig, PipelineResult, Sink};
    let file = std::fs::File::open(pcap).unwrap();
    let (records, skipped) =
        routing_loops::convert::records_from_pcap(std::io::BufReader::new(file)).unwrap();
    let want = oracle::detect(&records, &DetectorConfig::default()).unwrap();
    let mut sink = StreamCsvSink::new(Vec::new());
    sink.on_result(&PipelineResult {
        streams: want.streams_by_start(),
        loops: want.loops,
        stats: want.stats,
        records: records.len() as u64,
        skipped,
        trace_start_ns: records.first().map_or(0, |r| r.timestamp_ns),
        trace_end_ns: records.last().map_or(0, |r| r.timestamp_ns),
        interrupted: false,
    })
    .unwrap();
    sink.into_inner()
}

#[test]
fn stream_table_matches_the_oracle() {
    // On the looping backbone fixture and the transient-ECMP fixture, the
    // serial, block and streaming paths print the streams the independent
    // oracle finds.
    for (what, pcap) in [("backbone", demo_pcap()), ("ecmp", ecmp_pcap())] {
        let want = oracle_streams_csv(&pcap);
        assert!(
            want.split(|&b| b == b'\n').count() > 2,
            "{what}: no streams"
        );
        for engine in [
            &["--threads", "1"][..],
            &["--threads", "4"],
            &["--streaming"],
        ] {
            let out = loopdetect()
                .arg(&pcap)
                .args(["--csv", "streams"])
                .args(engine)
                .output()
                .unwrap();
            assert!(out.status.success(), "{out:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&want),
                "{engine:?} on {what}"
            );
        }
        if what == "ecmp" {
            let _ = std::fs::remove_file(&pcap);
        }
    }
}

#[test]
fn threads_flag_rejects_nonsense() {
    // 0 workers, non-numeric, and missing values must all die with a
    // clear stderr message and a nonzero exit, like the other flags.
    for bad in [
        &["--threads", "0"][..],
        &["--threads", "four"],
        &["--threads"],
    ] {
        let out = loopdetect().arg("ignored.pcap").args(bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--threads"),
            "stderr must name the flag: {err}"
        );
        assert!(err.contains("USAGE"), "{err}");
    }
    // --streaming is single-pass: more than one worker is an error...
    let out = loopdetect()
        .arg("ignored.pcap")
        .args(["--streaming", "--threads", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--streaming"), "{err}");
    // ...but an explicit --threads 1 is fine (the legacy path).
    let pcap = demo_pcap();
    let out = loopdetect()
        .arg(&pcap)
        .args(["--streaming", "--threads", "1", "--csv", "summary"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = loopdetect().arg("--nonsense").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"), "{err}");

    let out = loopdetect()
        .arg("/nonexistent/trace.pcap")
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn no_validate_reports_more_or_equal_streams() {
    let pcap = demo_pcap();
    let strict = loopdetect()
        .arg(&pcap)
        .args(["--csv", "streams"])
        .output()
        .unwrap();
    let lax = loopdetect()
        .arg(&pcap)
        .args(["--csv", "streams", "--no-validate"])
        .output()
        .unwrap();
    let strict_n = String::from_utf8(strict.stdout).unwrap().lines().count();
    let lax_n = String::from_utf8(lax.stdout).unwrap().lines().count();
    assert!(lax_n >= strict_n, "lax {lax_n} < strict {strict_n}");
}

#[test]
fn jsonl_output_is_byte_stable_across_engines() {
    let pcap = demo_pcap();
    for what in ["loops", "streams"] {
        let serial = loopdetect()
            .arg(&pcap)
            .args(["--csv", what, "--format", "jsonl"])
            .output()
            .unwrap();
        assert!(serial.status.success(), "{serial:?}");
        let text = String::from_utf8(serial.stdout.clone()).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
            "every jsonl line must be one object: {text}"
        );
        // Row count matches the CSV form (which has a header line).
        let csv = loopdetect()
            .arg(&pcap)
            .args(["--csv", what])
            .output()
            .unwrap();
        let csv_rows = String::from_utf8(csv.stdout).unwrap().lines().count() - 1;
        assert_eq!(text.lines().count(), csv_rows, "--csv {what} row count");
        // Byte-identical regardless of engine.
        for extra in [&["--threads", "4"][..], &["--streaming"]] {
            let other = loopdetect()
                .arg(&pcap)
                .args(["--csv", what, "--format", "jsonl"])
                .args(extra)
                .output()
                .unwrap();
            assert!(other.status.success(), "{other:?}");
            assert_eq!(
                serial.stdout, other.stdout,
                "jsonl --csv {what} diverges under {extra:?}"
            );
        }
    }
}

#[test]
fn format_flag_rejects_unsupported_combos() {
    // Summary has no jsonl form.
    let out = loopdetect()
        .arg("ignored.pcap")
        .args(["--csv", "summary", "--format", "jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--format jsonl"), "{err}");

    // jsonl needs a table selected.
    let out = loopdetect()
        .arg("ignored.pcap")
        .args(["--format", "jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--format jsonl"), "{err}");

    // Unknown format names die with usage.
    let out = loopdetect()
        .arg("ignored.pcap")
        .args(["--format", "xml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn analysis_report_matches_across_engines() {
    let pcap = demo_pcap();
    let serial = loopdetect().arg(&pcap).arg("--analysis").output().unwrap();
    assert!(serial.status.success(), "{serial:?}");
    let text = String::from_utf8(serial.stdout.clone()).unwrap();
    for key in [
        "summary:",
        "ttl_delta:",
        "mix_all:",
        "mix_looped:",
        "destinations:",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    for extra in [&["--threads", "4"][..], &["--streaming"]] {
        let other = loopdetect()
            .arg(&pcap)
            .arg("--analysis")
            .args(extra)
            .output()
            .unwrap();
        assert!(other.status.success(), "{other:?}");
        assert_eq!(
            serial.stdout, other.stdout,
            "--analysis diverges under {extra:?}"
        );
    }
    // --analysis replaces the report; combining it with --csv is an error.
    let out = loopdetect()
        .arg(&pcap)
        .args(["--analysis", "--csv", "loops"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--analysis"), "{err}");
}

#[test]
fn trace_flag_writes_chrome_trace_without_touching_stdout() {
    let pcap = demo_pcap();
    let trace_path =
        std::env::temp_dir().join(format!("loopdetect_cli_trace_{}.json", std::process::id()));
    let args = ["--csv", "summary", "--threads", "2", "--engine", "block"];
    let plain = loopdetect().arg(&pcap).args(args).output().unwrap();
    assert!(plain.status.success(), "{plain:?}");
    let traced = loopdetect()
        .arg(&pcap)
        .args(args)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(traced.status.success(), "{traced:?}");
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace must be invisible on stdout"
    );

    let doc = std::fs::read_to_string(&trace_path).expect("trace file written");
    telemetry::json::validate(&doc).expect("trace is well-formed JSON");
    // Chrome trace_event shape: an object with a traceEvents array of
    // complete events carrying µs timestamps.
    assert!(doc.contains("\"traceEvents\""), "missing traceEvents array");
    assert!(doc.contains("\"ph\":\"X\""), "no complete events in trace");
    // The block run's per-worker stage spans, on named worker threads.
    assert!(doc.contains("\"block.scan\""), "no block scan spans");
    assert!(
        doc.contains("\"block-w0\""),
        "block worker thread names missing"
    );
    // At least one counter track (the scanners' prefilter evictions).
    assert!(doc.contains("\"ph\":\"C\""), "no counter track in trace");

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn metrics_interval_streams_validating_jsonl_snapshots() {
    let pcap = demo_pcap();
    let out = loopdetect()
        .arg(&pcap)
        .args(["--csv", "summary", "--metrics-interval", "50"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    let samples: Vec<&str> = err.lines().filter(|l| l.starts_with('{')).collect();
    assert!(
        samples.len() >= 2,
        "want at least 2 JSONL snapshots (first + final), got {}: {err}",
        samples.len()
    );
    for (i, line) in samples.iter().enumerate() {
        telemetry::json::validate(line)
            .unwrap_or_else(|e| panic!("snapshot {i} is not valid JSON ({e}): {line}"));
        assert!(line.contains(&format!("\"seq\":{i}")), "seq on {line}");
        for key in [
            "\"unix_ms\"",
            "\"elapsed_ms\"",
            "\"counters\"",
            "\"timers\"",
        ] {
            assert!(line.contains(key), "snapshot {i} missing {key}: {line}");
        }
    }
    // The run actually counted records.
    assert!(
        samples.last().unwrap().contains("replica.records_scanned"),
        "final snapshot has no scan counter: {}",
        samples.last().unwrap()
    );
}

#[test]
fn watch_flag_renders_a_live_status_line() {
    let pcap = demo_pcap();
    let plain = loopdetect()
        .arg(&pcap)
        .args(["--csv", "summary"])
        .output()
        .unwrap();
    let watched = loopdetect()
        .arg(&pcap)
        .args(["--csv", "summary", "--watch"])
        .output()
        .unwrap();
    assert!(watched.status.success(), "{watched:?}");
    assert_eq!(
        plain.stdout, watched.stdout,
        "--watch must be invisible on stdout"
    );
    let err = String::from_utf8(watched.stderr).unwrap();
    assert!(
        err.contains('\r'),
        "status line must redraw in place: {err:?}"
    );
    assert!(
        err.contains(" rec "),
        "status line shows record count: {err:?}"
    );
}

#[test]
fn observability_flags_reject_nonsense_and_conflicts() {
    for bad in [
        &["--metrics-interval", "0"][..],
        &["--metrics-interval", "fast"],
        &["--metrics-interval"],
        &["--trace"],
        &["--watch", "--metrics-interval", "100"],
        &["--watch", "--progress"],
    ] {
        let out = loopdetect().arg("ignored.pcap").args(bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(bad[0]),
            "stderr must name the flag for {bad:?}: {err}"
        );
    }
}

#[test]
fn streaming_supports_every_table_and_the_text_report() {
    // Historically --streaming only allowed --csv loops; the unified
    // pipeline serves every output from the single pass.
    let pcap = demo_pcap();
    for csv in ["streams", "summary"] {
        let offline = loopdetect()
            .arg(&pcap)
            .args(["--csv", csv])
            .output()
            .unwrap();
        let streaming = loopdetect()
            .arg(&pcap)
            .args(["--csv", csv, "--streaming"])
            .output()
            .unwrap();
        assert!(offline.status.success() && streaming.status.success());
        assert_eq!(
            offline.stdout, streaming.stdout,
            "--csv {csv} must not depend on the engine"
        );
    }
    let offline = loopdetect().arg(&pcap).output().unwrap();
    let streaming = loopdetect().arg(&pcap).arg("--streaming").output().unwrap();
    assert!(offline.status.success() && streaming.status.success());
    assert_eq!(offline.stdout, streaming.stdout, "text report");
}

fn pcap2ltc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pcap2ltc"))
}

#[test]
fn pcap2ltc_converts_verifies_and_loopdetect_sniffs_the_result() {
    let pcap = demo_pcap();
    let ltc = std::env::temp_dir().join(format!("loopdetect_cli_demo_{}.ltc", std::process::id()));

    let out = pcap2ltc()
        .arg(&pcap)
        .arg(&ltc)
        .args(["--verify", "--threads", "2"])
        .output()
        .expect("run pcap2ltc");
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("records") && err.contains("verified"), "{err}");

    // The corpus leads with the .ltc magic, not a pcap header.
    let head = std::fs::read(&ltc).expect("read ltc");
    assert!(routing_loops::corpus::is_ltc_magic(&head[..8]));

    // loopdetect sniffs the container: every output mode is byte-identical
    // between the pcap and its .ltc twin, serial and parallel.
    // The plain text report's first line echoes the input path, so it
    // legitimately differs; everything after it must not.
    let a = loopdetect().arg(&pcap).output().unwrap();
    let b = loopdetect().arg(&ltc).output().unwrap();
    assert!(a.status.success() && b.status.success());
    let strip_first = |out: &[u8]| {
        let text = String::from_utf8(out.to_vec()).unwrap();
        text.split_once('\n').map(|(_, rest)| rest.to_string())
    };
    assert_eq!(
        strip_first(&a.stdout),
        strip_first(&b.stdout),
        "text report body differs between pcap and ltc input"
    );

    for args in [
        &["--csv", "loops"][..],
        &["--csv", "streams"],
        &["--csv", "summary"],
        &["--csv", "loops", "--format", "jsonl"],
        &["--analysis"],
        &["--csv", "loops", "--threads", "2"],
        &["--csv", "loops", "--threads", "4"],
        &["--csv", "loops", "--streaming"],
    ] {
        let a = loopdetect().arg(&pcap).args(args).output().unwrap();
        let b = loopdetect().arg(&ltc).args(args).output().unwrap();
        assert!(a.status.success() && b.status.success(), "{args:?}");
        assert_eq!(
            a.stdout, b.stdout,
            "loopdetect {args:?} differs between pcap and ltc input"
        );
    }
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn pcap2ltc_rejects_bad_invocations_and_bad_input() {
    // No input at all: usage error, exit code 2.
    let out = pcap2ltc().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"), "{err}");

    // Input and output naming the same file is refused before any I/O.
    let out = pcap2ltc()
        .args(["same.pcap", "same.pcap"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // A non-pcap input fails as a pcap error and leaves no corpus behind.
    let junk = std::env::temp_dir().join(format!("pcap2ltc_junk_{}.pcap", std::process::id()));
    let dst = junk.with_extension("ltc");
    std::fs::write(&junk, b"this is not a capture file").unwrap();
    let out = pcap2ltc().arg(&junk).arg(&dst).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("pcap"), "{err}");
    assert!(!dst.exists(), "failed conversion must not leave a corpus");
    let _ = std::fs::remove_file(&junk);
}

#[test]
fn forged_ltc_fingerprints_never_reach_the_detectors() {
    // Each image's fingerprints are forged (a version-1 lane, or the
    // records a current-version file was written from); the block decode
    // derives every record's fingerprint from its key fields instead, so
    // every read path reports exactly what the source capture gives.
    let pcap = demo_pcap();
    let want = loopdetect()
        .arg(&pcap)
        .args(["--csv", "loops"])
        .output()
        .expect("run loopdetect");
    assert!(want.status.success(), "{want:?}");
    let bytes = std::fs::read(&pcap).expect("read pcap");
    for (name, image) in forged_ltc::forged_images(&bytes) {
        let ltc = std::env::temp_dir().join(format!(
            "loopdetect_forged_{name}_{}.ltc",
            std::process::id()
        ));
        std::fs::write(&ltc, image).expect("write forged corpus");
        for args in [
            &["--threads", "1"][..],
            &["--threads", "2"],
            &["--streaming"],
            &["--threads", "2", "--no-mmap"],
        ] {
            let out = loopdetect()
                .arg(&ltc)
                .args(["--csv", "loops"])
                .args(args)
                .output()
                .expect("run loopdetect");
            assert!(out.status.success(), "{name} {args:?}: {out:?}");
            assert!(
                out.stdout == want.stdout,
                "{name} {args:?}: output differs from the source pcap's"
            );
        }
        let _ = std::fs::remove_file(&ltc);
    }
}

/// The demo capture with its records appended again, as a pcap and as a
/// `.ltc` written without `pcap2ltc`'s order check, and the message every
/// engine must refuse them with: the copy's first record is the first one
/// earlier than the record before it.
fn backwards_inputs(tag: &str) -> (PathBuf, PathBuf, String) {
    let bytes = std::fs::read(demo_pcap()).expect("read pcap");
    let (records, skipped) =
        routing_loops::convert::records_from_pcap(std::io::Cursor::new(&bytes)).expect("parse");
    let dir = std::env::temp_dir();
    let pcap = dir.join(format!(
        "loopdetect_backwards_{tag}_{}.pcap",
        std::process::id()
    ));
    let ltc = pcap.with_extension("ltc");
    // A pcap file is its 24-byte header and its records.
    std::fs::write(&pcap, [&bytes[..], &bytes[24..]].concat()).expect("write pcap");
    let doubled = [&records[..], &records[..]].concat();
    std::fs::write(
        &ltc,
        routing_loops::corpus::ltc_to_vec(&doubled, 2 * skipped),
    )
    .expect("write ltc");
    let want = format!(
        "trace records must be sorted by timestamp: record {} at {} ns is earlier than the record before it at {} ns",
        records.len(),
        records[0].timestamp_ns,
        records[records.len() - 1].timestamp_ns
    );
    (pcap, ltc, want)
}

/// `loopdetect` refuses the backwards input with exit 1, no report and
/// the typed message, under `args`.
fn assert_unsorted_refused(input: &Path, args: &[&str], want: &str) {
    let out = loopdetect()
        .arg(input)
        .args(["--csv", "loops"])
        .args(args)
        .output()
        .expect("run loopdetect");
    assert_eq!(out.status.code(), Some(1), "{input:?} {args:?}: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "{input:?} {args:?}: no partial report"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains(want), "{input:?} {args:?}: {stderr}");
}

#[test]
fn unsorted_pcap_is_refused_by_the_serial_engine() {
    let (pcap, ltc, want) = backwards_inputs("pcap_serial");
    assert_unsorted_refused(&pcap, &["--engine", "serial"], &want);
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn unsorted_pcap_is_refused_by_the_block_engine() {
    let (pcap, ltc, want) = backwards_inputs("pcap_block");
    for threads in ["2", "3"] {
        assert_unsorted_refused(&pcap, &["--threads", threads], &want);
    }
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn unsorted_pcap_is_refused_by_the_streaming_engine() {
    let (pcap, ltc, want) = backwards_inputs("pcap_streaming");
    assert_unsorted_refused(&pcap, &["--streaming"], &want);
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn unsorted_ltc_is_refused_by_the_serial_engine() {
    let (pcap, ltc, want) = backwards_inputs("ltc_serial");
    assert_unsorted_refused(&ltc, &["--engine", "serial"], &want);
    assert_unsorted_refused(&ltc, &["--engine", "serial", "--no-mmap"], &want);
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn unsorted_ltc_is_refused_by_the_block_engine() {
    let (pcap, ltc, want) = backwards_inputs("ltc_block");
    for threads in ["2", "3"] {
        assert_unsorted_refused(&ltc, &["--threads", threads], &want);
        assert_unsorted_refused(&ltc, &["--threads", threads, "--no-mmap"], &want);
    }
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn unsorted_ltc_is_refused_by_the_streaming_engine() {
    let (pcap, ltc, want) = backwards_inputs("ltc_streaming");
    assert_unsorted_refused(&ltc, &["--streaming"], &want);
    assert_unsorted_refused(&ltc, &["--streaming", "--no-mmap"], &want);
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&ltc);
}

#[test]
fn pcap2ltc_refuses_unsorted_input() {
    let (pcap, ltc, want) = backwards_inputs("pcap2ltc");
    let _ = std::fs::remove_file(&ltc);
    for threads in ["1", "2"] {
        let out = pcap2ltc()
            .arg(&pcap)
            .arg(&ltc)
            .args(["--threads", threads])
            .output()
            .expect("run pcap2ltc");
        assert_eq!(out.status.code(), Some(1), "--threads {threads}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&want), "--threads {threads}: {stderr}");
        assert!(!ltc.exists(), "a refused conversion leaves no corpus");
    }
    let _ = std::fs::remove_file(&pcap);
}

#[test]
fn unsorted_and_truncated_pcap_reports_the_first_defect_on_every_engine() {
    // Before the cut the records go back in time: every engine reports
    // that, not the cut, wherever its chunks and ranges fall.
    let bytes = std::fs::read(demo_pcap()).expect("read pcap");
    let (bytes, order) = defective_pcap::swapped_and_truncated(&bytes);
    let pcap = std::env::temp_dir().join(format!(
        "loopdetect_swapped_cut_{}.pcap",
        std::process::id()
    ));
    std::fs::write(&pcap, bytes).expect("write pcap");
    let want = format!("trace records must be sorted by timestamp: {order}");
    for args in [
        &["--threads", "1"][..],
        &["--threads", "2"],
        &["--threads", "3"],
        &["--streaming"],
    ] {
        assert_unsorted_refused(&pcap, args, &want);
    }
    // The conversion reports the same defect, at one and two readers.
    let ltc = pcap.with_extension("ltc");
    for threads in ["1", "2"] {
        let out = pcap2ltc()
            .arg(&pcap)
            .arg(&ltc)
            .args(["--threads", threads])
            .output()
            .expect("run pcap2ltc");
        assert_eq!(out.status.code(), Some(1), "--threads {threads}: {out:?}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            format!("pcap2ltc: pcap source: {want}\n"),
            "--threads {threads}"
        );
        assert!(!ltc.exists(), "a refused conversion leaves no corpus");
    }
    let _ = std::fs::remove_file(&pcap);
}
