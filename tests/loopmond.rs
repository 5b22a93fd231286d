//! End-to-end tests of the `loopmond` fleet-monitor binary: fleet and
//! capture modes, the record budget, graceful SIGINT shutdown, retiring a
//! failing link, and usage-error handling.

mod defective_pcap;

use routing_loops::backbone::{paper_backbones, run_backbone};
use routing_loops::convert::{records_from_pcap, write_tap_to_pcap, PAPER_SNAPLEN};
use routing_loops::loopscope::{MonitorConfig, MonitorRuntime};
use std::io::Write;
use std::process::Command;
use std::sync::{Arc, Mutex};

fn loopmond() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loopmond"))
}

/// Every event line must be attributed JSON with the monitor's schema.
fn assert_event_lines(stdout: &str, link_prefix: &str) -> (usize, usize) {
    let (mut streams, mut loops) = (0usize, 0usize);
    for line in stdout.lines() {
        assert!(
            line.starts_with(&format!("{{\"link\":\"{link_prefix}")),
            "unattributed event line: {line}"
        );
        assert!(line.ends_with('}'), "truncated line: {line}");
        if line.contains("\"event\":\"stream\"") {
            streams += 1;
            assert!(line.contains("\"replicas\":"), "{line}");
            assert!(line.contains("\"ttl_delta\":"), "{line}");
        } else if line.contains("\"event\":\"loop\"") {
            loops += 1;
            assert!(line.contains("\"class\":"), "{line}");
            assert!(line.contains("\"duration_s\":"), "{line}");
        } else {
            panic!("unknown event kind: {line}");
        }
    }
    (streams, loops)
}

#[test]
fn fleet_mode_monitors_every_link_and_exits_cleanly() {
    let out = loopmond()
        .args(["--fleet", "3", "--events", "-", "--threads", "2"])
        .output()
        .expect("run loopmond");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let (streams, loops) = assert_event_lines(&stdout, "link-00");
    assert!(streams > 0, "fleet must emit stream events\n{stderr}");
    assert!(loops > 0, "fleet must emit loop events\n{stderr}");
    assert!(
        stderr.contains("loopmond: 3 links (3 closed)"),
        "summary line missing: {stderr}"
    );
    // All three links appear in the stream.
    for id in ["link-000", "link-001", "link-002"] {
        assert!(
            stdout.contains(&format!("{{\"link\":\"{id}\",")),
            "no events for {id}"
        );
    }
}

#[test]
fn record_budget_stops_gracefully() {
    let out = loopmond()
        .args(["--fleet", "4", "--max-records", "500", "--events", "-"])
        .output()
        .expect("run loopmond");
    assert!(out.status.success(), "budget stop must exit 0: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("— stopped"), "{stderr}");
}

#[test]
fn capture_mode_monitors_a_pcap_as_one_link() {
    let path = std::env::temp_dir().join(format!("loopmond_cli_{}.pcap", std::process::id()));
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = "loopmond-cli".into();
    let run = run_backbone(&spec);
    let file = std::fs::File::create(&path).expect("create pcap");
    write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, std::io::BufWriter::new(file)).expect("write pcap");

    let out = loopmond()
        .arg(&path)
        .args(["--events", "-"])
        .output()
        .expect("run loopmond");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
    let (streams, _) = assert_event_lines(&stdout, &stem);
    assert!(streams > 0, "backbone capture must emit stream events");
    let _ = std::fs::remove_file(&path);
}

/// A small Backbone 3-shaped capture, as pcap bytes.
fn backbone_pcap(name: &str) -> Vec<u8> {
    let mut spec = paper_backbones(0.08).remove(2);
    spec.name = name.into();
    let run = run_backbone(&spec);
    let mut bytes = Vec::new();
    write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, &mut bytes).expect("write pcap");
    bytes
}

/// Event lines of `link` in `stdout`.
fn link_lines<'a>(stdout: &'a str, link: &str) -> Vec<&'a str> {
    let prefix = format!("{{\"link\":\"{link}\",");
    stdout.lines().filter(|l| l.starts_with(&prefix)).collect()
}

#[test]
fn out_of_order_link_is_retired_while_the_rest_finish() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let good = dir.join(format!("loopmond_good_{pid}.pcap"));
    let bad = dir.join(format!("loopmond_backwards_{pid}.pcap"));
    let bytes = backbone_pcap("loopmond-order");
    std::fs::write(&good, &bytes).expect("write good pcap");
    // The capture with its records appended a second time: the first
    // repeated record is earlier than the one before it.
    let global_header = 24;
    let mut twice = bytes.clone();
    twice.extend_from_slice(&bytes[global_header..]);
    std::fs::write(&bad, &twice).expect("write out-of-order pcap");

    let alone = loopmond()
        .arg(&good)
        .args(["--events", "-"])
        .output()
        .expect("run loopmond");
    assert!(alone.status.success(), "{alone:?}");
    let both = loopmond()
        .arg(&good)
        .arg(&bad)
        .args(["--events", "-", "--threads", "2"])
        .output()
        .expect("run loopmond");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);

    assert_eq!(both.status.code(), Some(1), "{both:?}");
    let stderr = String::from_utf8(both.stderr).unwrap();
    assert!(
        stderr.contains(&format!("error: link loopmond_backwards_{pid}: record "))
            && stderr.contains("is earlier than the record before it"),
        "{stderr}"
    );
    assert!(stderr.contains("loopmond: 2 links (1 closed)"), "{stderr}");
    // The good link ran to the end: its events are exactly those of a run
    // on it alone.
    let alone = String::from_utf8(alone.stdout).unwrap();
    let both = String::from_utf8(both.stdout).unwrap();
    let alone_lines: Vec<&str> = alone.lines().collect();
    assert!(!alone_lines.is_empty(), "the good link must emit events");
    assert_eq!(
        link_lines(&both, &format!("loopmond_good_{pid}")),
        alone_lines
    );
}

#[test]
fn tampered_ltc_fingerprints_retire_the_link() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let good = dir.join(format!("loopmond_fpgood_{pid}.pcap"));
    let bad = dir.join(format!("loopmond_tampered_{pid}.ltc"));
    let bytes = backbone_pcap("loopmond-tamper");
    std::fs::write(&good, &bytes).expect("write good pcap");
    // Every record of the corpus claims the first record's fingerprint,
    // which would chain every key into one index entry.
    let (mut records, skipped) =
        routing_loops::convert::records_from_pcap(std::io::Cursor::new(&bytes)).expect("parse");
    let shared = records[0].fingerprint;
    for r in &mut records {
        r.fingerprint = shared;
    }
    std::fs::write(&bad, routing_loops::corpus::ltc_to_vec(&records, skipped))
        .expect("write tampered corpus");

    let alone = loopmond()
        .arg(&good)
        .args(["--events", "-"])
        .output()
        .expect("run loopmond");
    let both = loopmond()
        .arg(&good)
        .arg(&bad)
        .args(["--events", "-", "--threads", "2"])
        .output()
        .expect("run loopmond");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);

    assert!(alone.status.success(), "{alone:?}");
    assert_eq!(both.status.code(), Some(1), "{both:?}");
    let stderr = String::from_utf8(both.stderr).unwrap();
    assert!(
        stderr.contains(&format!("error: link loopmond_tampered_{pid}: "))
            && stderr.contains("stored fingerprint does not match"),
        "{stderr}"
    );
    let alone = String::from_utf8(alone.stdout).unwrap();
    let both = String::from_utf8(both.stdout).unwrap();
    assert_eq!(
        link_lines(&both, &format!("loopmond_fpgood_{pid}")),
        alone.lines().collect::<Vec<_>>()
    );
}

/// An in-memory event sink that outlives the runtime it is lent to.
#[derive(Clone, Default)]
struct SharedVec(Arc<Mutex<Vec<u8>>>);

impl Write for SharedVec {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `loopmond` on a good capture and on `bad` as a second link (both
/// written under the temp directory), checks that the good link's events
/// are those of a run on it alone, and returns the exit code, stderr and
/// stdout.
fn run_with_a_bad_link(tag: &str, bad: &[u8]) -> (Option<i32>, String, String) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let good = dir.join(format!("loopmond_{tag}good_{pid}.pcap"));
    let bad_path = dir.join(format!("loopmond_{tag}_{pid}.pcap"));
    std::fs::write(&good, backbone_pcap(&format!("loopmond-{tag}"))).expect("write good pcap");
    std::fs::write(&bad_path, bad).expect("write bad pcap");
    let alone = loopmond()
        .arg(&good)
        .args(["--events", "-"])
        .output()
        .expect("run loopmond");
    let both = loopmond()
        .arg(&good)
        .arg(&bad_path)
        .args(["--events", "-", "--threads", "2"])
        .output()
        .expect("run loopmond");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad_path);
    assert!(alone.status.success(), "{alone:?}");
    let stdout = String::from_utf8(both.stdout).unwrap();
    let alone = String::from_utf8(alone.stdout).unwrap();
    assert_eq!(
        link_lines(&stdout, &format!("loopmond_{tag}good_{pid}")),
        alone.lines().collect::<Vec<_>>(),
        "the good link runs to the end"
    );
    (
        both.status.code(),
        String::from_utf8(both.stderr).unwrap(),
        stdout,
    )
}

#[test]
fn truncated_link_is_fed_every_record_before_the_cut_then_retired() {
    let bytes = backbone_pcap("loopmond-cut");
    let (records, _) = records_from_pcap(std::io::Cursor::new(&bytes)).expect("parse");
    let before_cut = &records[..records.len() - 1];
    let (code, stderr, stdout) = run_with_a_bad_link("cut", &bytes[..bytes.len() - 5]);
    let pid = std::process::id();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "error: link loopmond_cut_{pid}: source: pcap error: corrupt pcap file: EOF inside record body"
        )),
        "{stderr}"
    );
    assert!(stderr.contains("loopmond: 2 links (1 closed)"), "{stderr}");
    // Every record before the cut reached the link, the last partial
    // batch included: the fleet total counts them next to the good link's
    // (the same capture, uncut).
    let fed = format!("{} records", records.len() + before_cut.len());
    assert!(stderr.contains(&fed), "want {fed}: {stderr}");
    // The retired link's events are those of a link fed the same records
    // and dropped unfinished: no tail flush.
    let sink = SharedVec::default();
    let rt = MonitorRuntime::new(MonitorConfig::default(), Box::new(sink.clone()));
    let mut link = rt.add_link(&format!("loopmond_cut_{pid}"));
    link.feed(before_cut).expect("feed");
    drop(link);
    rt.finish().expect("flush");
    let want = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    assert!(
        !want.is_empty(),
        "the records before the cut must emit events"
    );
    assert_eq!(
        link_lines(&stdout, &format!("loopmond_cut_{pid}")),
        want.lines().collect::<Vec<_>>()
    );
}

#[test]
fn unsorted_and_truncated_link_reports_the_order_error() {
    let (bad, order) = defective_pcap::swapped_and_truncated(&backbone_pcap("loopmond-both"));
    let (code, stderr, stdout) = run_with_a_bad_link("both", &bad);
    let pid = std::process::id();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("error: link loopmond_both_{pid}: {order}")),
        "{stderr}"
    );
    // The one batch holding the swap is refused whole, so the link
    // emitted nothing before it retired.
    assert!(link_lines(&stdout, &format!("loopmond_both_{pid}")).is_empty());
}

/// A sink every link shares is not one link's fault: its first failure
/// stops the fleet, so later links are not read only to fail alike.
#[cfg(target_os = "linux")]
#[test]
fn failing_event_sink_stops_the_fleet() {
    let dir = std::env::temp_dir().join(format!("loopmond_full_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bytes = backbone_pcap("loopmond-full");
    let links: Vec<_> = (0..4).map(|i| dir.join(format!("l{i}.pcap"))).collect();
    for link in &links {
        std::fs::write(link, &bytes).expect("write pcap");
    }
    let alone = loopmond()
        .arg(&links[0])
        .args(["--events", "-"])
        .output()
        .expect("run loopmond");
    assert!(
        alone.stdout.len() * links.len() > 8 * 1024,
        "the links' events must overflow the sink's 8 KiB buffer"
    );
    let out = loopmond()
        .args(&links)
        .args(["--events", "/dev/full", "--threads", "1"])
        .output()
        .expect("run loopmond");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let failures: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: link "))
        .collect();
    assert_eq!(failures.len(), 1, "{stderr}");
    assert!(failures[0].contains("event sink"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn sigint_drains_and_exits_zero() {
    let child = loopmond()
        .args([
            "--fleet",
            "4",
            "--duration-s",
            "60",
            "--pace-ms",
            "100",
            "--events",
            "-",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn loopmond");
    // Let it get into the feed loops, then interrupt.
    std::thread::sleep(std::time::Duration::from_millis(800));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let out = child.wait_with_output().expect("wait loopmond");
    assert!(
        out.status.success(),
        "SIGINT must drain and exit 0: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("— stopped"), "{stderr}");
    // Whatever was written is whole lines: started links were drained.
    let stdout = String::from_utf8(out.stdout).unwrap();
    if !stdout.is_empty() {
        assert!(stdout.ends_with('\n'), "event stream must end on a line");
        assert_event_lines(&stdout, "link-00");
    }
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        &[] as &[&str],
        &["--fleet", "0"],
        &["--fleet", "2", "some.pcap"],
        &["--fleet", "2", "--threads", "0"],
        &["--fleet", "2", "--bogus"],
        &["--fleet", "2", "--watch", "--metrics-interval", "100"],
        &["--fleet", "not-a-number"],
    ] {
        let out = loopmond().args(args).output().expect("run loopmond");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must be a usage error: {out:?}"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
}

#[test]
fn help_prints_usage() {
    let out = loopmond().arg("--help").output().expect("run loopmond");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("loopmond"));
    assert!(stdout.contains("--fleet"));
    assert!(stdout.contains("--events"));
}
