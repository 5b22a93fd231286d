//! Analyse a pcap file — the deployment path for real traces.
//!
//! Without arguments the example writes its own demo trace first (a
//! simulated backbone tap exported at the paper's 40-byte snap length) and
//! then analyses it, so it runs out of the box:
//!
//! ```text
//! cargo run --release --example pcap_analysis            # self-contained demo
//! cargo run --release --example pcap_analysis -- my.pcap # your own capture
//! cargo run --release --example pcap_analysis -- --emit-demo demo.pcap
//!                                # write the demo trace and exit (fixture
//!                                # generation for scripts/check.sh)
//! cargo run --release --example pcap_analysis -- --emit-demo long.pcap 0.3
//!                                # the same backbone at another scale
//!                                # (0.1 = 30 s of traffic, the default)
//! ```

use routing_loops::backbone::{paper_backbones, run_backbone};
use routing_loops::convert::{records_from_pcap, write_tap_to_pcap, PAPER_SNAPLEN};
use routing_loops::loopscope::{analysis, Detector, DetectorConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// Scale of the default demo trace: 30 s of Backbone 3 traffic.
const DEMO_SCALE: f64 = 0.1;

fn write_demo_trace(path: &std::path::Path, scale: f64) {
    let mut spec = paper_backbones(scale).remove(2); // Backbone 3
    spec.name = "pcap demo".into();
    let run = run_backbone(&spec);
    let file = File::create(path).expect("create pcap");
    let written =
        write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, BufWriter::new(file)).expect("write pcap");
    println!("wrote {written} records at snaplen {PAPER_SNAPLEN}");
}

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--emit-demo") {
        let dest = std::env::args().nth(2).expect("--emit-demo needs a path");
        let scale = std::env::args().nth(3).map_or(DEMO_SCALE, |s| {
            s.parse().expect("--emit-demo scale must be a number")
        });
        write_demo_trace(std::path::Path::new(&dest), scale);
        return;
    }
    let path = match &arg {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let p = std::env::temp_dir().join("routing_loops_demo.pcap");
            println!("no pcap given — writing demo trace to {}", p.display());
            write_demo_trace(&p, DEMO_SCALE);
            p
        }
    };

    let file = File::open(&path).expect("open pcap");
    let (records, skipped) = records_from_pcap(BufReader::new(file)).expect("parse pcap");
    println!(
        "{}: {} records ({} unparseable skipped)",
        path.display(),
        records.len(),
        skipped
    );

    let detection = Detector::new(DetectorConfig::default()).run(&records);
    let summary = analysis::trace_summary(&records, &detection.streams);
    println!(
        "{:.1} s of trace, {:.2} Mbps average",
        summary.duration_ns as f64 / 1e9,
        summary.avg_bandwidth_bps / 1e6
    );
    println!(
        "{} replica streams, {} routing loops, {} looped packets",
        detection.streams.len(),
        detection.loops.len(),
        detection.looped_unique_packets()
    );
    for l in detection.loops.iter().take(10) {
        println!(
            "  loop on {}: {:.3} s .. {:.3} s ({} streams, TTL delta {})",
            l.prefix,
            l.start_ns as f64 / 1e9,
            l.end_ns as f64 / 1e9,
            l.num_streams(),
            l.ttl_delta(),
        );
    }
}
