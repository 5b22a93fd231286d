//! `loopdetect` — detect routing loops in a pcap trace.
//!
//! The operational face of the library: point it at a 40-byte-snaplen (or
//! longer) capture of one unidirectional link and get the paper's §IV
//! analysis: validated replica streams, merged routing loops, and the
//! summary statistics of §V.
//!
//! ```text
//! loopdetect trace.pcap                      # human-readable report
//! loopdetect trace.pcap --csv loops          # machine-readable loops
//! loopdetect trace.pcap --csv streams        # machine-readable streams
//! loopdetect trace.pcap --csv loops --format jsonl   # JSONL instead of CSV
//! loopdetect trace.pcap --analysis           # full §V report (all figures)
//! loopdetect trace.pcap --merge-gap-min 5    # A1 ablation gap
//! loopdetect trace.pcap --no-validate        # A2 ablation (raw candidates)
//! loopdetect trace.pcap --streaming          # bounded-memory single pass
//! loopdetect trace.pcap --threads 4          # block-parallel detection
//! loopdetect trace.pcap --persistent-s 60    # persistence threshold
//! loopdetect trace.pcap --metrics -          # telemetry snapshot (JSON) to stdout
//! loopdetect trace.pcap --metrics run.json   # telemetry snapshot to a file
//! loopdetect trace.pcap --metrics-interval 500  # live JSONL samples on stderr
//! loopdetect trace.pcap --watch              # live one-line status on stderr
//! loopdetect trace.pcap --trace run.trace.json  # Chrome trace of the run
//! loopdetect trace.pcap --progress -v        # stderr progress + info logging
//! ```
//!
//! Every mode runs the same `loopscope::pipeline` — the flags only choose
//! the engine (serial, block-parallel, streaming) and the
//! sinks (text, CSV, JSONL, analysis). Output is byte-identical across
//! engines.
//!
//! Diagnostics go to stderr and never contaminate the report/CSV on
//! stdout. Verbosity: `-q` errors only, default warnings, `-v` info,
//! `-vv` debug; the `LOOPSCOPE_LOG` env filter overrides per module.

use routing_loops::corpus::{self, IngestMode};
use routing_loops::loopscope::analysis::{AnalysisAccumulator, AnalysisReport};
use routing_loops::loopscope::merge::LoopKind;
use routing_loops::loopscope::pipeline::{
    run_pipeline_with_progress, BlockEngine, Engine, EngineProgress, LoopCsvSink, LoopJsonlSink,
    PipelineResult, RecordSource, SerialEngine, Sink, SourceError, StreamCsvSink, StreamJsonlSink,
    StreamingEngine, SummaryCsvSink, OPEN_TAIL_GAP_NS,
};
use routing_loops::loopscope::segment::PcapFileSource;
use routing_loops::loopscope::{analysis, impact, DetectorConfig};
use routing_loops::shutdown;
use std::fs::File;
use std::io::Write;
use std::process::exit;

const USAGE: &str = "\
loopdetect — detect routing loops in a packet trace (IMC 2002 algorithm)

USAGE: loopdetect <trace.pcap|trace.ltc> [OPTIONS]

The input format is sniffed from the file's magic bytes: pcap captures
and .ltc columnar corpora (see pcap2ltc) are both accepted, with
identical output.

OPTIONS
  --csv <loops|streams|summary>  machine-readable output instead of the
                                 text report
  --format <csv|jsonl>           wire format for --csv loops/streams
                                 (default csv; summary has no jsonl form)
  --analysis                     full §V analysis report (Table I summary,
                                 TTL-delta histogram, CDFs, traffic mixes)
                                 computed incrementally in a single pass
  --merge-gap-min <N>            stream merge gap in minutes (default 1)
  --no-validate                  skip step-2 validation (raw replica sets)
  --no-checksum-verify           skip RFC 1624 consistency verification
                                 and run step 1 on the exact key map alone
                                 (ablation; output is byte-identical)
  --streaming                    use the single-pass bounded-memory detector
  --threads <N>                  workers for parallel detection
                                 (default: available cores; 1 = the serial
                                 engine, one worker on the calling thread;
                                 output is always byte-identical to
                                 --threads 1)
  --engine <E>                   detection engine: serial, block (share-
                                 nothing block-parallel; the default when
                                 --threads > 1), or streaming (same as
                                 --streaming). All engines produce
                                 byte-identical output
  --no-mmap                      read .ltc input through buffered reads
                                 instead of the default shared memory
                                 mapping (ablation; output is identical)
  --persistent-s <N>             persistence threshold in seconds (default 60)
  --metrics <path|->             write the telemetry snapshot (JSON) to a
                                 file, or to stdout with '-'
  --metrics-interval <ms>        sample the telemetry registry every <ms>
                                 milliseconds and stream timestamped JSONL
                                 (deltas + rates) to stderr while running
  --watch                        live single-line status display on stderr
                                 (records/s, streams, loops, open candidates);
                                 exclusive with --metrics-interval/--progress
  --trace <path>                 record a structured event trace of the run
                                 and write Chrome trace-event JSON to <path>
                                 (open in chrome://tracing or Perfetto)
  --progress                     periodic progress lines on stderr
  -v, -vv                        info / debug logging on stderr
  -q                             errors only
  -h, --help                     this text
";

struct Args {
    path: String,
    csv: Option<String>,
    jsonl: bool,
    analysis: bool,
    cfg: DetectorConfig,
    engine: EngineChoice,
    threads: usize,
    ingest_mode: IngestMode,
    persistent_s: u64,
    metrics: Option<String>,
    metrics_interval_ms: Option<u64>,
    watch: bool,
    trace: Option<String>,
    progress: bool,
}

/// Which detector implementation runs the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineChoice {
    Serial,
    Block,
    Streaming,
}

fn parse_args() -> Args {
    let mut path = None;
    let mut csv = None;
    let mut format: Option<String> = None;
    let mut analysis = false;
    let mut cfg = DetectorConfig::default();
    let mut streaming = false;
    let mut engine: Option<EngineChoice> = None;
    let mut threads: Option<usize> = None;
    let mut ingest_mode = IngestMode::default();
    let mut persistent_s = 60;
    let mut metrics = None;
    let mut metrics_interval_ms: Option<u64> = None;
    let mut watch = false;
    let mut trace = None;
    let mut progress = false;
    let mut verbosity: Option<telemetry::logging::Level> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            "--metrics" => {
                let v = it.next().unwrap_or_else(|| die("--metrics needs a value"));
                metrics = Some(v.clone());
            }
            "--metrics-interval" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--metrics-interval needs a value"));
                let ms: u64 = v.parse().unwrap_or_else(|_| {
                    die(&format!(
                        "--metrics-interval must be a positive integer (ms), got {v:?}"
                    ))
                });
                if ms == 0 {
                    die("--metrics-interval must be at least 1 ms");
                }
                metrics_interval_ms = Some(ms);
            }
            "--watch" => watch = true,
            "--trace" => {
                let v = it.next().unwrap_or_else(|| die("--trace needs a value"));
                trace = Some(v.clone());
            }
            "--progress" => progress = true,
            "-v" => verbosity = Some(telemetry::logging::Level::Info),
            "-vv" => verbosity = Some(telemetry::logging::Level::Debug),
            "-q" => verbosity = Some(telemetry::logging::Level::Error),
            "--csv" => {
                let v = it.next().unwrap_or_else(|| die("--csv needs a value"));
                if !["loops", "streams", "summary"].contains(&v.as_str()) {
                    die("--csv must be loops, streams, or summary");
                }
                csv = Some(v.clone());
            }
            "--format" => {
                let v = it.next().unwrap_or_else(|| die("--format needs a value"));
                if !["csv", "jsonl"].contains(&v.as_str()) {
                    die("--format must be csv or jsonl");
                }
                format = Some(v.clone());
            }
            "--analysis" => analysis = true,
            "--merge-gap-min" => {
                let v: u64 = it
                    .next()
                    .unwrap_or_else(|| die("--merge-gap-min needs a value"))
                    .parse()
                    .unwrap_or_else(|_| die("bad --merge-gap-min"));
                cfg = cfg.with_merge_gap_minutes(v);
            }
            "--no-validate" => {
                cfg.covalidate_prefix = false;
                cfg.min_stream_len = 2;
            }
            "--no-checksum-verify" => cfg.verify_checksum_consistency = false,
            "--streaming" => streaming = true,
            "--engine" => {
                let v = it.next().unwrap_or_else(|| die("--engine needs a value"));
                engine = Some(match v.as_str() {
                    "serial" => EngineChoice::Serial,
                    "block" => EngineChoice::Block,
                    "streaming" => EngineChoice::Streaming,
                    other => die(&format!(
                        "--engine must be serial, block, or streaming, got {other:?}"
                    )),
                });
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| die("--threads needs a value"));
                let n: usize = v.parse().unwrap_or_else(|_| {
                    die(&format!("--threads must be a positive integer, got {v:?}"))
                });
                if n == 0 {
                    die("--threads must be at least 1 (0 workers cannot detect anything)");
                }
                threads = Some(n);
            }
            "--no-mmap" => ingest_mode = IngestMode::Buffered,
            "--persistent-s" => {
                persistent_s = it
                    .next()
                    .unwrap_or_else(|| die("--persistent-s needs a value"))
                    .parse()
                    .unwrap_or_else(|_| die("bad --persistent-s"));
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_string());
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(level) = verbosity {
        telemetry::logging::set_default_level(Some(level));
    }
    if engine == Some(EngineChoice::Streaming) {
        streaming = true;
    }
    if streaming && threads.is_some_and(|n| n > 1) {
        die("--streaming is a single-pass detector; it cannot be combined with --threads > 1");
    }
    if streaming && engine.is_some_and(|e| e != EngineChoice::Streaming) {
        die("--streaming conflicts with --engine; pick one");
    }
    if engine == Some(EngineChoice::Serial) && threads.is_some_and(|n| n > 1) {
        die("--engine serial runs one worker; it cannot be combined with --threads > 1");
    }
    let jsonl = format.as_deref() == Some("jsonl");
    if jsonl {
        match csv.as_deref() {
            Some("loops") | Some("streams") => {}
            Some("summary") => {
                die("--format jsonl has no summary form; use --csv loops or --csv streams")
            }
            None => die("--format jsonl needs --csv loops or --csv streams"),
            Some(_) => unreachable!("validated above"),
        }
    }
    if analysis && csv.is_some() {
        die("--analysis replaces the text report; it cannot be combined with --csv");
    }
    if watch && metrics_interval_ms.is_some() {
        die("--watch and --metrics-interval both drive the sampler; choose one");
    }
    if watch && progress {
        die("--watch and --progress both redraw stderr; choose one");
    }
    let threads = if streaming || engine == Some(EngineChoice::Serial) {
        1
    } else {
        threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    };
    let engine = engine.unwrap_or(if streaming {
        EngineChoice::Streaming
    } else if threads > 1 {
        EngineChoice::Block
    } else {
        EngineChoice::Serial
    });
    Args {
        path: path.unwrap_or_else(|| die("missing trace path")),
        csv,
        jsonl,
        analysis,
        cfg,
        engine,
        threads,
        ingest_mode,
        persistent_s,
        metrics,
        metrics_interval_ms,
        watch,
        trace,
        progress,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2)
}

/// Prints a `--progress` line to stderr. `open_candidates` is the engine's
/// live count; buffered engines report `None` until they run ("-").
fn progress_line(done: u64, started: std::time::Instant, open_candidates: Option<usize>) {
    let secs = started.elapsed().as_secs_f64();
    let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    match open_candidates {
        Some(open) => {
            eprintln!("progress: {done} records ({rate:.0} records/s, {open} open candidates)")
        }
        None => eprintln!("progress: {done} records ({rate:.0} records/s, - open candidates)"),
    }
}

/// Prints the default human-readable report.
fn text_report(args: &Args, result: &PipelineResult) {
    println!(
        "{}: {} records over {:.1} s ({} skipped)",
        args.path,
        result.records,
        result.duration_ns() as f64 / 1e9,
        result.skipped
    );
    let h = analysis::ttl_delta_distribution(&result.streams);
    println!(
        "{} validated replica streams (modal TTL delta {:?}), {} routing loops",
        result.streams.len(),
        h.mode(),
        result.loops.len()
    );
    for (i, l) in result.loops.iter().enumerate() {
        let class = match l.classify(args.persistent_s * 1_000_000_000) {
            LoopKind::Transient => "transient",
            LoopKind::Persistent => "PERSISTENT",
        };
        println!(
            "  loop {i}: {} [{:.3} s .. {:.3} s] {} — {} streams, {} replicas, delta {}{}",
            l.prefix,
            l.start_ns as f64 / 1e9,
            l.end_ns as f64 / 1e9,
            class,
            l.num_streams(),
            l.replica_count(),
            l.ttl_delta(),
            if l.is_open_ended(result.trace_end_ns, OPEN_TAIL_GAP_NS) {
                " (still active at trace end)"
            } else {
                ""
            },
        );
    }
    let est = impact::escape_estimate(&result.streams);
    if est.total_streams > 0 {
        println!(
            "impact: {} looping packets died on trace evidence, {} may have escaped",
            est.died, est.may_have_escaped
        );
    }
}

/// Prints one CDF line of the `--analysis` report.
fn analysis_cdf_line(name: &str, cdf: &mut stats::Cdf) {
    if cdf.is_empty() {
        println!("{name}: n=0");
        return;
    }
    println!(
        "{name}: n={} min={:.3} p50={:.3} p90={:.3} max={:.3}",
        cdf.len(),
        cdf.min().unwrap_or(0.0),
        cdf.median().unwrap_or(0.0),
        cdf.quantile(0.9).unwrap_or(0.0),
        cdf.max().unwrap_or(0.0),
    );
}

/// Prints the full §V analysis report, computed incrementally by the
/// [`AnalysisAccumulator`] sink during the (single) pipeline pass.
fn analysis_report(mut report: AnalysisReport) {
    let s = report.summary;
    println!(
        "summary: duration_s={:.3} packets={} bytes={} avg_bandwidth_bps={:.0} looped_packets={} looped_sightings={}",
        s.duration_ns as f64 / 1e9,
        s.total_packets,
        s.total_bytes,
        s.avg_bandwidth_bps,
        s.looped_packets,
        s.looped_sightings,
    );
    let deltas: Vec<String> = report
        .ttl_delta
        .iter()
        .map(|(k, n)| format!("{k}:{n}"))
        .collect();
    println!("ttl_delta: {}", deltas.join(" "));
    analysis_cdf_line("stream_size_cdf", &mut report.stream_size_cdf);
    analysis_cdf_line("spacing_cdf_ms", &mut report.spacing_cdf_ms);
    analysis_cdf_line("stream_duration_cdf_ms", &mut report.stream_duration_cdf_ms);
    analysis_cdf_line("loop_duration_cdf_s", &mut report.loop_duration_cdf_s);
    let mix = |d: &stats::CategoricalDist| {
        d.fractions()
            .iter()
            .map(|(l, f)| format!("{l}:{f:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("mix_all: {}", mix(&report.mix_all));
    println!("mix_looped: {}", mix(&report.mix_looped));
    println!(
        "destinations: {} streams, class_c_share={:.4}",
        report.dest_scatter.len(),
        report.class_c_share,
    );
}

/// `--watch` sampling cadence: fast enough to feel live, slow enough that
/// the sampler never contends with the workers.
const WATCH_INTERVAL_MS: u64 = 200;

fn main() {
    let args = parse_args();
    let started = std::time::Instant::now();

    // SIGINT/SIGTERM stop the source at the next batch boundary; the
    // engine still drains, sinks still flush, and the sampler still
    // emits its final sample — a long `--watch` run never dies
    // mid-stream with half-written output.
    shutdown::install();

    // Observability setup precedes the pipeline so the whole run is
    // covered: tracing records from the first batch, the sampler's first
    // sample is the pre-run zero point.
    if args.trace.is_some() {
        telemetry::trace::enable(telemetry::trace::DEFAULT_RING_CAPACITY);
    }
    let sampler = if let Some(ms) = args.metrics_interval_ms {
        Some(telemetry::export::Sampler::spawn(
            telemetry::global(),
            std::time::Duration::from_millis(ms),
            Box::new(telemetry::export::JsonlConsumer::new(std::io::stderr())),
        ))
    } else if args.watch {
        Some(telemetry::export::Sampler::spawn(
            telemetry::global(),
            std::time::Duration::from_millis(WATCH_INTERVAL_MS),
            Box::new(telemetry::export::StatusLine::new(std::io::stderr())),
        ))
    } else {
        None
    };

    // Input format is sniffed, not told: `.ltc` corpora and pcap captures
    // both work transparently, and everything downstream of the source —
    // engines, sinks, report formats — is unchanged either way.
    let is_ltc = corpus::sniff_is_ltc(std::path::Path::new(&args.path)).unwrap_or_else(|e| {
        eprintln!("error: cannot open {}: {e}", args.path);
        exit(1);
    });
    let mut source: Box<dyn RecordSource> = if is_ltc {
        corpus::open_ltc_source(std::path::Path::new(&args.path), args.ingest_mode).unwrap_or_else(
            |e| {
                eprintln!("error: cannot parse {e}");
                exit(1);
            },
        )
    } else {
        // The batch engines have the file read as one range per worker,
        // each decoded and scanned by its own thread; --streaming reads it
        // batch by batch.
        Box::new(
            PcapFileSource::open(&args.path).unwrap_or_else(|e| match e {
                SourceError::Io(e) => {
                    eprintln!("error: cannot open {}: {e}", args.path);
                    exit(1);
                }
                SourceError::Pcap(e) => {
                    eprintln!("error: cannot parse {}: {e}", args.path);
                    exit(1);
                }
            }),
        )
    };

    // Mode selection is engine selection: all three run the same pipeline.
    let mut engine: Box<dyn Engine> = match args.engine {
        EngineChoice::Streaming => Box::new(StreamingEngine::new(args.cfg)),
        EngineChoice::Block => Box::new(BlockEngine::new(args.cfg, args.threads)),
        EngineChoice::Serial => Box::new(SerialEngine::new(args.cfg)),
    };

    // Output selection is sink selection.
    let persistent_ns = args.persistent_s * 1_000_000_000;
    let mut loops_csv = None;
    let mut streams_csv = None;
    let mut summary_csv = None;
    let mut loops_jsonl = None;
    let mut streams_jsonl = None;
    let mut accumulator = None;
    match (args.csv.as_deref(), args.jsonl) {
        (Some("loops"), false) => {
            loops_csv = Some(LoopCsvSink::new(std::io::stdout(), persistent_ns));
        }
        (Some("loops"), true) => {
            loops_jsonl = Some(LoopJsonlSink::new(std::io::stdout(), persistent_ns));
        }
        (Some("streams"), false) => streams_csv = Some(StreamCsvSink::new(std::io::stdout())),
        (Some("streams"), true) => streams_jsonl = Some(StreamJsonlSink::new(std::io::stdout())),
        (Some("summary"), _) => summary_csv = Some(SummaryCsvSink::new(std::io::stdout())),
        (Some(_), _) => unreachable!("validated in parse_args"),
        (None, _) => {
            if args.analysis {
                accumulator = Some(AnalysisAccumulator::new());
            }
        }
    }
    let mut sinks: Vec<&mut dyn Sink> = Vec::new();
    if let Some(s) = loops_csv.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = streams_csv.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = summary_csv.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = loops_jsonl.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = streams_jsonl.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = accumulator.as_mut() {
        sinks.push(s);
    }

    const PROGRESS_STRIDE: u64 = 200_000;
    let mut next_progress = PROGRESS_STRIDE;
    let want_progress = args.progress;
    let result = run_pipeline_with_progress(
        source.as_mut(),
        engine.as_mut(),
        &mut sinks,
        &mut |p: &EngineProgress| {
            if want_progress && p.records >= next_progress {
                next_progress = p.records + PROGRESS_STRIDE;
                progress_line(p.records, started, p.open_candidates);
            }
            if shutdown::requested() {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot process {}: {e}", args.path);
        exit(1);
    });
    if result.records == 0 && !result.interrupted {
        eprintln!("error: no parseable IPv4 records in {}", args.path);
        exit(1);
    }
    if args.progress {
        // The engine's real post-run state, not an assumption: every
        // candidate the engine still considers open is reported.
        let p = engine.progress();
        progress_line(p.records, started, p.open_candidates);
    }

    if args.csv.is_none() {
        if let Some(acc) = accumulator {
            analysis_report(acc.report());
        } else {
            text_report(&args, &result);
        }
    }

    if let Some(dest) = &args.metrics {
        let json = telemetry::global().snapshot().to_json();
        if dest == "-" {
            println!("{json}");
        } else {
            let mut f = File::create(dest).unwrap_or_else(|e| {
                eprintln!("error: cannot create {dest}: {e}");
                exit(1);
            });
            writeln!(f, "{json}").unwrap_or_else(|e| {
                eprintln!("error: cannot write {dest}: {e}");
                exit(1);
            });
        }
    }

    // Final sample (covering the whole run) before the trace is drained.
    if let Some(sampler) = sampler {
        sampler.stop().unwrap_or_else(|e| {
            eprintln!("error: telemetry sampler failed: {e}");
            exit(1);
        });
    }
    if let Some(dest) = &args.trace {
        telemetry::trace::disable();
        let f = File::create(dest).unwrap_or_else(|e| {
            eprintln!("error: cannot create {dest}: {e}");
            exit(1);
        });
        let mut w = std::io::BufWriter::new(f);
        telemetry::trace::write_chrome_trace(&mut w)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| {
                eprintln!("error: cannot write {dest}: {e}");
                exit(1);
            });
    }

    // Everything is flushed; only now acknowledge an interrupt with the
    // conventional 128+SIGINT exit code.
    if result.interrupted {
        eprintln!(
            "interrupted: report covers the {} records read before shutdown",
            result.records
        );
        exit(130);
    }
}
