//! `loopmond` — the continuous multi-link routing-loop monitor.
//!
//! `loopdetect` answers "what looped in this trace?"; `loopmond` answers
//! "what is looping across the fleet right now?". It multiplexes N
//! concurrent sources — simulated router links from the simnet fleet
//! scenario, or pcap/.ltc captures, one link each — through the
//! [`MonitorRuntime`]: a bounded streaming engine per link feeding one
//! unified, per-link-attributed loop-event JSONL stream.
//!
//! ```text
//! loopmond --fleet 120                          # 120-link rolling-failure demo
//! loopmond --fleet 120 --events events.jsonl    # events to a file
//! loopmond --fleet 8 --watch                    # live status line on stderr
//! loopmond a.pcap b.ltc --events -              # two capture links
//! loopmond --fleet 16 --max-records 100000      # stop after a record budget
//! ```
//!
//! Every event line carries its link: `{"link":"link-007","event":"loop",…}`.
//! Per-link event streams are byte-identical to running that link's trace
//! standalone through the streaming engine (the monitor conformance tests
//! assert this), so the daemon adds concurrency without changing results.
//!
//! SIGINT/SIGTERM stop the sources at the next batch boundary; every
//! link's engine is drained, tail events are written, the sink is
//! flushed, and the final telemetry sample is emitted before the process
//! exits 0 — a stopped monitor is a normally-terminated monitor. A link
//! that fails (unreadable, corrupt, or with records out of time order) is
//! reported on stderr and retired alone: every other link runs to the end
//! and flushes, and the process exits 1. A failing event sink is shared by
//! every link, so it stops the fleet the way a signal does.
//! Diagnostics go to stderr; the event stream alone goes to `--events`.

use routing_loops::corpus::{self, IngestMode};
use routing_loops::loopscope::pipeline::{PcapSource, PipelineError, RecordSource};
use routing_loops::loopscope::{DetectorConfig, MonitorConfig, MonitorRuntime, OutOfOrder};
use routing_loops::shutdown;
use routing_loops::simnet::{FleetSpec, SimDuration};
use routing_loops::sources::TapSource;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};

const USAGE: &str = "\
loopmond — continuous multi-link routing-loop monitor (fleet daemon)

USAGE: loopmond --fleet <N> [OPTIONS]
       loopmond <trace.pcap|trace.ltc>... [OPTIONS]

Fleet mode simulates <N> router links with rolling link failures (the
simnet fleet scenario) and monitors all of them concurrently. Capture
mode monitors each listed file as one link (link id = the file stem).
Both write one unified JSONL event stream; every line carries its link:
  {\"link\":\"link-007\",\"event\":\"loop\",...}

OPTIONS
  --events <path|->       unified loop-event JSONL destination
                          (default: stdout)
  --threads <n>           worker threads (default: min(links, cores, 8))
  --max-records <n>       stop (gracefully) after about <n> records
                          fleet-wide
  --pace-ms <ms>          sleep <ms> between batches on every link —
                          paces a demo fleet like a live one
  --horizon-ms <ms>       per-link history horizon for the bounded
                          streaming engines, never shorter than the
                          replica gap (default: exact equivalence)
  --persistent-s <s>      persistent-loop threshold in seconds for the
                          event `class` field (default 60)
  --fleet <n>             fleet mode with <n> simulated links (1..=512)
  --duration-s <s>        fleet: traffic window per link (default 20)
  --flap-period-s <s>     fleet: failure period per link (default 6)
  --seed <n>              fleet: base seed (default 42)
  --metrics <path|->      write the final telemetry snapshot (JSON)
  --metrics-interval <ms> live telemetry samples (JSONL on stderr)
  --watch                 live single-line status display on stderr;
                          exclusive with --metrics-interval
  -h, --help              this help

EXIT STATUS
  0 on a complete or gracefully stopped (SIGINT/SIGTERM/--max-records)
  run; 1 on errors; 2 on usage errors. A link that fails (unreadable,
  corrupt, or records out of time order) is reported as
  \"error: link <id>: ...\" and retired; the other links run to the end.
  A failing --events sink stops every link.
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    exit(2)
}

struct Args {
    events: Option<String>,
    threads: usize,
    max_records: Option<u64>,
    pace_ms: Option<u64>,
    horizon_ms: Option<u64>,
    persistent_s: u64,
    fleet: Option<usize>,
    duration_s: u64,
    flap_period_s: u64,
    seed: u64,
    files: Vec<String>,
    metrics: Option<String>,
    metrics_interval_ms: Option<u64>,
    watch: bool,
}

fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| die(&format!("{what} must be a number, got {v:?}")))
}

fn parse_args() -> Args {
    let mut events = None;
    let mut threads: Option<usize> = None;
    let mut max_records = None;
    let mut pace_ms = None;
    let mut horizon_ms = None;
    let mut persistent_s = 60u64;
    let mut fleet = None;
    let mut duration_s = 20u64;
    let mut flap_period_s = 6u64;
    let mut seed = 42u64;
    let mut files = Vec::new();
    let mut metrics = None;
    let mut metrics_interval_ms = None;
    let mut watch = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            "--events" => events = Some(val("--events")),
            "--threads" => {
                let n: usize = parse_num(&val("--threads"), "--threads");
                if n == 0 {
                    die("--threads must be at least 1");
                }
                threads = Some(n);
            }
            "--max-records" => {
                let n: u64 = parse_num(&val("--max-records"), "--max-records");
                if n == 0 {
                    die("--max-records must be at least 1");
                }
                max_records = Some(n);
            }
            "--pace-ms" => pace_ms = Some(parse_num(&val("--pace-ms"), "--pace-ms")),
            "--horizon-ms" => {
                let ms: u64 = parse_num(&val("--horizon-ms"), "--horizon-ms");
                if ms == 0 {
                    die("--horizon-ms must be at least 1");
                }
                horizon_ms = Some(ms);
            }
            "--persistent-s" => persistent_s = parse_num(&val("--persistent-s"), "--persistent-s"),
            "--fleet" => {
                let n: usize = parse_num(&val("--fleet"), "--fleet");
                if n == 0 {
                    die("--fleet must be at least 1");
                }
                fleet = Some(n);
            }
            "--duration-s" => {
                let s: u64 = parse_num(&val("--duration-s"), "--duration-s");
                if s == 0 {
                    die("--duration-s must be at least 1");
                }
                duration_s = s;
            }
            "--flap-period-s" => {
                let s: u64 = parse_num(&val("--flap-period-s"), "--flap-period-s");
                if s < 2 {
                    die("--flap-period-s must be at least 2 (flaps must outlast the loop window)");
                }
                flap_period_s = s;
            }
            "--seed" => seed = parse_num(&val("--seed"), "--seed"),
            "--metrics" => metrics = Some(val("--metrics")),
            "--metrics-interval" => {
                let ms: u64 = parse_num(&val("--metrics-interval"), "--metrics-interval");
                if ms == 0 {
                    die("--metrics-interval must be at least 1 ms");
                }
                metrics_interval_ms = Some(ms);
            }
            "--watch" => watch = true,
            s if s.starts_with('-') && s.len() > 1 => die(&format!("unknown option {s:?}")),
            _ => files.push(arg),
        }
    }

    if fleet.is_some() && !files.is_empty() {
        die("--fleet and capture files are exclusive; choose one mode");
    }
    if fleet.is_none() && files.is_empty() {
        die("nothing to monitor: pass --fleet <n> or capture files");
    }
    if watch && metrics_interval_ms.is_some() {
        die("--watch and --metrics-interval both drive the sampler; choose one");
    }
    let links = fleet.unwrap_or(files.len());
    let threads = threads.unwrap_or_else(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        links.min(cores).clamp(1, 8)
    });
    Args {
        events,
        threads,
        max_records,
        pace_ms,
        horizon_ms,
        persistent_s,
        fleet,
        duration_s,
        flap_period_s,
        seed,
        files,
        metrics,
        metrics_interval_ms,
        watch,
    }
}

/// A capture file's link id: the file stem with every byte outside the
/// monitor's `[A-Za-z0-9._-]` charset folded to `-`.
fn link_id_for_file(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    let mut id: String = stem
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    id.truncate(128);
    if id.is_empty() {
        id.push_str("link");
    }
    id
}

/// What one worker monitors: a link id plus how to obtain its records.
enum Job {
    Fleet(usize),
    File(String),
}

/// Records handed to a link's engine per `LinkMonitor::feed` call.
/// Small enough that shutdown and budget checks are responsive, large
/// enough that sink-lock traffic is negligible. Paced runs use a smaller
/// chunk so `--pace-ms` spreads a link over real time instead of
/// sleeping once after one giant batch.
const CHUNK: usize = 4096;
const PACED_CHUNK: usize = 256;

fn main() {
    let args = parse_args();
    shutdown::install();

    let sampler = if let Some(ms) = args.metrics_interval_ms {
        Some(telemetry::export::Sampler::spawn(
            telemetry::global(),
            std::time::Duration::from_millis(ms),
            Box::new(telemetry::export::JsonlConsumer::new(std::io::stderr())),
        ))
    } else if args.watch {
        Some(telemetry::export::Sampler::spawn(
            telemetry::global(),
            std::time::Duration::from_millis(200),
            Box::new(telemetry::export::StatusLine::new(std::io::stderr())),
        ))
    } else {
        None
    };

    let out: Box<dyn Write + Send> = match args.events.as_deref() {
        None | Some("-") => Box::new(BufWriter::new(std::io::stdout())),
        Some(path) => Box::new(BufWriter::new(File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {path}: {e}");
            exit(1);
        }))),
    };

    let spec = args.fleet.map(|links| {
        let mut spec = FleetSpec::demo(links);
        spec.duration = SimDuration::from_secs(args.duration_s);
        spec.flap_period = SimDuration::from_secs(args.flap_period_s);
        spec.seed = args.seed;
        spec.validate();
        spec
    });
    let jobs: Vec<Job> = match args.fleet {
        Some(links) => (0..links).map(Job::Fleet).collect(),
        None => args.files.iter().cloned().map(Job::File).collect(),
    };

    let runtime = MonitorRuntime::new(
        MonitorConfig {
            detector: DetectorConfig::default(),
            persistent_threshold_ns: args.persistent_s.saturating_mul(1_000_000_000),
            history_horizon_ns: args.horizon_ms.map(|ms| ms.saturating_mul(1_000_000)),
        },
        out,
    );

    // Fleet-wide record budget: claimed chunk-by-chunk, so the overshoot
    // is at most one chunk per worker. Going negative requests the same
    // graceful stop a signal does.
    let budget = AtomicI64::new(
        args.max_records
            .map_or(i64::MAX, |n| i64::try_from(n).unwrap_or(i64::MAX)),
    );
    let next_job = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let pace = args.pace_ms.map(std::time::Duration::from_millis);

    std::thread::scope(|s| {
        for _ in 0..workers(args.threads, jobs.len()) {
            s.spawn(|| loop {
                let j = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(j) else { break };
                if shutdown::requested() {
                    break;
                }
                // A failing link is retired on its own; the rest of the
                // fleet runs to completion and the exit status reports it.
                // A failing sink fails every link, so it stops the fleet.
                match run_job(job, &runtime, spec.as_ref(), &budget, pace) {
                    Ok(()) => {}
                    Err(JobError::Link(e)) => {
                        eprintln!("error: {e}");
                        failed.store(true, Ordering::Relaxed);
                    }
                    Err(JobError::Sink(e)) => {
                        eprintln!("error: {e}");
                        failed.store(true, Ordering::Relaxed);
                        shutdown::request();
                        break;
                    }
                }
            });
        }
    });

    let totals = match runtime.finish() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot flush event sink: {e}");
            exit(1);
        }
    };

    if let Some(dest) = &args.metrics {
        let json = telemetry::global().snapshot().to_json();
        let write = |w: &mut dyn Write| writeln!(w, "{json}");
        let res = match dest.as_str() {
            "-" => write(&mut std::io::stdout()),
            path => File::create(path).and_then(|mut f| write(&mut f)),
        };
        if let Err(e) = res {
            eprintln!("error: cannot write {dest}: {e}");
            exit(1);
        }
    }
    // Final sample covering the drained state, after all links retired.
    if let Some(sampler) = sampler {
        if let Err(e) = sampler.stop() {
            eprintln!("error: telemetry sampler failed: {e}");
            exit(1);
        }
    }

    eprintln!(
        "loopmond: {} links ({} closed), {} records, {} streams, {} loops{}",
        totals.links_opened,
        totals.links_closed,
        totals.records,
        totals.streams,
        totals.loops,
        if shutdown::requested() {
            " — stopped"
        } else {
            ""
        }
    );
    if failed.load(Ordering::Relaxed) {
        exit(1);
    }
}

/// The worker threads to start: `--threads`, but never more than there
/// are links to monitor, since each worker takes whole links.
fn workers(threads: usize, jobs: usize) -> usize {
    threads.min(jobs)
}

/// Why [`run_job`] gave up on a link.
enum JobError {
    /// The link's own source failed, or its records went back in time.
    Link(String),
    /// The shared event sink failed.
    Sink(String),
}

/// Monitors one link to completion (or graceful stop): obtains its
/// records, feeds them in [`CHUNK`]-sized batches with shutdown/budget
/// checks between batches, then drains the engine's tail. Interruption
/// still finishes the link — tail events are written and the link
/// retires gracefully; only unread source data is abandoned.
fn run_job(
    job: &Job,
    runtime: &MonitorRuntime,
    spec: Option<&FleetSpec>,
    budget: &AtomicI64,
    pace: Option<std::time::Duration>,
) -> Result<(), JobError> {
    let (id, mut source): (String, Box<dyn RecordSource>) = match job {
        Job::Fleet(i) => {
            let spec = spec.expect("fleet jobs carry a spec");
            let tap = spec.run_link(*i);
            (FleetSpec::link_name(*i), Box::new(TapSource::new(&tap)))
        }
        Job::File(path) => {
            let p = std::path::Path::new(path);
            let is_ltc = corpus::sniff_is_ltc(p)
                .map_err(|e| JobError::Link(format!("cannot open {path}: {e}")))?;
            let source: Box<dyn RecordSource> = if is_ltc {
                corpus::open_ltc_source(p, IngestMode::default())
                    .map_err(|e| JobError::Link(format!("cannot parse {e}")))?
            } else {
                let file = File::open(p)
                    .map_err(|e| JobError::Link(format!("cannot open {path}: {e}")))?;
                Box::new(
                    PcapSource::new(BufReader::new(file))
                        .map_err(|e| JobError::Link(format!("cannot parse {path}: {e}")))?,
                )
            };
            (link_id_for_file(path), source)
        }
    };

    let mut link = runtime.add_link(&id);
    let chunk_len = if pace.is_some() { PACED_CHUNK } else { CHUNK };
    let pulled = source.for_each_batch(&mut |batch| {
        for chunk in batch.chunks(chunk_len) {
            if shutdown::requested() {
                return Err(PipelineError::Interrupted);
            }
            let before = budget.fetch_sub(chunk.len() as i64, Ordering::Relaxed);
            if before <= 0 {
                shutdown::request();
                return Err(PipelineError::Interrupted);
            }
            link.feed(chunk).map_err(PipelineError::Sink)?;
            if let Some(d) = pace {
                std::thread::sleep(d);
            }
        }
        Ok(())
    });
    match pulled {
        // A stop request abandons the rest of the source but the link
        // still drains below.
        Ok(_) | Err(PipelineError::Interrupted) => {}
        // The link's own fault: the handle is dropped undrained, which
        // retires the link.
        Err(PipelineError::Sink(e)) if is_out_of_order(&e) => {
            return Err(JobError::Link(format!("link {id}: {e}")))
        }
        Err(PipelineError::Sink(e)) => {
            return Err(JobError::Sink(format!("link {id}: event sink: {e}")))
        }
        Err(e) => return Err(JobError::Link(format!("link {id}: {e}"))),
    }
    link.finish()
        .map_err(|e| JobError::Sink(format!("link {id}: event sink: {e}")))?;
    Ok(())
}

/// Whether `e` is the refusal of a batch whose records go back in time;
/// any other error from [`LinkMonitor::feed`] is the sink's.
///
/// [`LinkMonitor::feed`]: routing_loops::loopscope::LinkMonitor::feed
fn is_out_of_order(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<OutOfOrder>())
}

#[cfg(test)]
mod tests {
    use super::workers;

    #[test]
    fn workers_are_clamped_to_the_links() {
        assert_eq!(workers(8, 1), 1);
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(2, 640), 2);
        assert_eq!(workers(4, 4), 4);
        assert_eq!(workers(usize::MAX, 2), 2);
    }
}
