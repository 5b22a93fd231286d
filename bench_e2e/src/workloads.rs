//! In-process mirrors of the three workloads, built from the same `pub`
//! calls `loopdetect` and `loopmond` make: set-up timing, the detection
//! lag replay, and the traced per-layer run.

use crate::spans::{attribute, SpanRec, Tracer};
use routing_loops::convert::{pcap_to_ltc, records_from_pcap};
use routing_loops::corpus::{open_ltc_source, records_from_ltc_with, IngestMode};
use routing_loops::loopscope::analysis::AnalysisAccumulator;
use routing_loops::loopscope::block::block_metric;
use routing_loops::loopscope::merge::{merge, RoutingLoop};
use routing_loops::loopscope::pipeline::{
    run_pipeline, BlockEngine, Engine, LoopCsvSink, PcapSource, PipelineError, PipelineResult,
    RecordSource, SerialEngine, Sink, SliceSource,
};
use routing_loops::loopscope::validate::{validate, PrefixIndex};
use routing_loops::loopscope::{
    CandidateScanner, DetectionResult, DetectionStats, Detector, DetectorConfig, MonitorConfig,
    MonitorRuntime, OnlineEvent, ReplicaStream, TraceRecord,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// `loopdetect --csv loops` classifies loops against its default 60 s.
const PERSISTENT_NS: u64 = 60_000_000_000;
/// `loopmond` hands each link's records to its engine in chunks of this
/// many records.
const MONITOR_CHUNK: usize = 4096;
/// Worker threads, as `run.py` passes `--threads` to every command.
const THREADS: usize = 2;
/// Set-up repeats of one call: at least this many, and for at least this
/// long. `run.py` makes four calls per timed run.
const SETUP_MIN_REPEATS: usize = 2;
const SETUP_BUDGET_S: f64 = 0.5;
/// Untraced/traced run pairs behind the per-layer metrics.
const TRACE_PAIRS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflinePcap,
    OfflineLtc,
    MonitorLinks,
}

impl Workload {
    pub fn parse(s: &str) -> Res<Self> {
        match s {
            "offline_pcap" => Ok(Workload::OfflinePcap),
            "offline_ltc" => Ok(Workload::OfflineLtc),
            "monitor_links" => Ok(Workload::MonitorLinks),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

pub fn link_paths(dir: &Path) -> Res<Vec<PathBuf>> {
    let mut links: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(err(&dir.display().to_string()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "pcap")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("link-"))
        })
        .collect();
    links.sort();
    if links.is_empty() {
        return Err(format!("no link-*.pcap in {}", dir.display()));
    }
    Ok(links)
}

fn link_id(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn open_pcap(path: &Path) -> Res<PcapSource<BufReader<File>>> {
    let file = File::open(path).map_err(err(&path.display().to_string()))?;
    PcapSource::new(BufReader::new(file)).map_err(err(&path.display().to_string()))
}

fn load_pcap(path: &Path) -> Res<Vec<TraceRecord>> {
    let file = File::open(path).map_err(err(&path.display().to_string()))?;
    Ok(records_from_pcap(BufReader::new(file))
        .map_err(err(&path.display().to_string()))?
        .0)
}

// ---------------------------------------------------------------- set-up

/// One timed set-up: everything between "the user starts the command"
/// and "the first record reaches a detector" that the public API exposes
/// as open and constructor calls. Creating the events file is left out:
/// that cost is the file system's, and it varied 2–3× from call to call.
fn setup_once(w: Workload, dir: &Path) -> Res<f64> {
    let cfg = DetectorConfig::default();
    match w {
        Workload::OfflinePcap => {
            let t = Instant::now();
            let src = open_pcap(&dir.join("trace.pcap"))?;
            let engine = BlockEngine::new(cfg, THREADS);
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box((src, engine));
            Ok(dt)
        }
        Workload::OfflineLtc => {
            let ltc = dir.join("setup.ltc");
            let t = Instant::now();
            pcap_to_ltc(&dir.join("trace.pcap"), &ltc, THREADS).map_err(err("pcap2ltc"))?;
            let src = open_ltc_source(&ltc, IngestMode::Mmap).map_err(err("open ltc"))?;
            let engine = BlockEngine::new(cfg, THREADS);
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box((src, engine));
            Ok(dt)
        }
        Workload::MonitorLinks => {
            let links = link_paths(dir)?;
            let out = File::create(dir.join("setup-events.jsonl")).map_err(err("events"))?;
            let t = Instant::now();
            let runtime =
                MonitorRuntime::new(MonitorConfig::default(), Box::new(BufWriter::new(out)));
            let mut opened = Vec::with_capacity(links.len());
            for p in &links {
                opened.push((open_pcap(p)?, runtime.add_link(&link_id(p))));
            }
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&opened);
            Ok(dt)
        }
    }
}

/// Repeats set-up for `SETUP_BUDGET_S` and at least `SETUP_MIN_REPEATS`
/// times; returns every sample.
pub fn setup(w: Workload, dir: &Path) -> Res<Vec<f64>> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPEATS || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        samples.push(setup_once(w, dir)?);
    }
    let _ = std::fs::remove_file(dir.join("setup.ltc"));
    let _ = std::fs::remove_file(dir.join("setup-events.jsonl"));
    Ok(samples)
}

// ------------------------------------------------------------------- lag

/// Detection lag samples in trace seconds: for each emitted stream event,
/// the timestamp of the record whose feed emitted it minus the end of the
/// stream's evidence. Events a finish call emits are charged to the last
/// record, since the end of input is what released them. Loop events are
/// left out: the merge rule holds every loop for a fixed 60 s quiet gap,
/// so their lag measures that setting, and mixed with the far more
/// numerous streams they would put the p99 on a bimodal edge.
#[derive(Debug, Default, Clone)]
pub struct Lags {
    pub samples: Vec<f64>,
    pub tail_events: usize,
}

/// Evidence end (seconds) of one monitor stream event line — its start
/// plus its duration — or `None` for a loop event.
pub fn stream_end_s(line: &str) -> Res<Option<f64>> {
    let num = |key: &str| -> Res<f64> {
        let pat = format!("\"{key}\":");
        let at = line
            .find(&pat)
            .ok_or_else(|| format!("no {key} in {line}"))?
            + pat.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].parse().map_err(err(key))
    };
    if line.contains("\"event\":\"stream\"") {
        Ok(Some(num("start_s")? + num("duration_ms")? / 1e3))
    } else if line.contains("\"event\":\"loop\"") {
        Ok(None)
    } else {
        Err(format!("not an event line: {line}"))
    }
}

/// A cloneable in-memory event sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replays one link through `MonitorRuntime`, one record per
/// `LinkMonitor::feed`, and returns the lag of every stream event it
/// emits.
pub fn link_lags(id: &str, records: &[TraceRecord]) -> Res<Lags> {
    let buf = SharedBuf::default();
    let runtime = MonitorRuntime::new(MonitorConfig::default(), Box::new(buf.clone()));
    let mut link = runtime.add_link(id);
    let mut lags = Lags::default();
    let mut seen = 0usize;
    let mut take_new = |now_s: f64, lags: &mut Lags, tail: bool| -> Res<()> {
        let bytes = buf.0.lock().expect("buffer poisoned");
        if bytes.len() > seen {
            let text = std::str::from_utf8(&bytes[seen..]).map_err(err("event utf-8"))?;
            for line in text.lines() {
                if let Some(end) = stream_end_s(line)? {
                    lags.samples.push(now_s - end);
                    lags.tail_events += usize::from(tail);
                }
            }
            seen = bytes.len();
        }
        Ok(())
    };
    for rec in records {
        link.feed(std::slice::from_ref(rec)).map_err(err("feed"))?;
        take_new(rec.timestamp_ns as f64 / 1e9, &mut lags, false)?;
    }
    link.finish().map_err(err("finish"))?;
    let last_s = records.last().map_or(0.0, |r| r.timestamp_ns as f64 / 1e9);
    take_new(last_s, &mut lags, true)?;
    runtime.finish().map_err(err("flush"))?;
    Ok(lags)
}

/// Replays every link of a `monitor_links` input, `THREADS` links at a
/// time, and returns the lag of every stream event.
pub fn monitor_lags(dir: &Path) -> Res<Lags> {
    let links = link_paths(dir)?;
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<Res<Lags>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                while let Some(p) = links.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let r = load_pcap(p).and_then(|recs| link_lags(&link_id(p), &recs));
                    parts.lock().expect("lag parts poisoned").push(r);
                }
            });
        }
    });
    let mut all = Lags::default();
    for part in parts.into_inner().expect("lag parts poisoned") {
        let part = part?;
        all.samples.extend(part.samples);
        all.tail_events += part.tail_events;
    }
    Ok(all)
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

// ------------------------------------------------------------ traced run

/// A writer that times every write and flush as a `sink.write` span and
/// counts the bytes that pass through it.
struct TimedWriter<W: Write> {
    inner: W,
    tracer: Arc<Tracer>,
    bytes: Arc<AtomicU64>,
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _s = self.tracer.span("sink.write");
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        let _s = self.tracer.span("sink.write");
        self.inner.flush()
    }
}

/// What one traced (or untraced) run of a workload leaves behind.
struct RunFacts {
    wall_s: f64,
    spans: Vec<SpanRec>,
    counts: BTreeMap<&'static str, f64>,
}

fn read_timer_s(name: &'static str) -> f64 {
    routing_loops::telemetry::global().timer(name).total_ns() as f64 / 1e9
}

/// The `loopdetect` pipeline of an offline workload, decomposed into the
/// calls `run_pipeline` makes, each inside a span. Writes the command's
/// output to `out` (loops CSV on pcap; on `.ltc`, whose `--analysis` text
/// is formatted inside the binary, the `Debug` form of the report, after
/// the timed part) and returns the canonical result for the equality
/// checks.
fn offline_run(
    w: Workload,
    dir: &Path,
    tr: &Arc<Tracer>,
    out: &mut Vec<u8>,
) -> Res<(RunFacts, PipelineResult)> {
    routing_loops::telemetry::global().reset();
    let cfg = DetectorConfig::default();
    let ltc = w == Workload::OfflineLtc;
    let sink_bytes = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let run = tr.span("run");
    let mut source: Box<dyn RecordSource> = if ltc {
        let path = dir.join("traced.ltc");
        {
            let _s = tr.span("corpus.convert");
            pcap_to_ltc(&dir.join("trace.pcap"), &path, THREADS).map_err(err("pcap2ltc"))?;
        }
        let _s = tr.span("corpus.open");
        open_ltc_source(&path, IngestMode::Mmap).map_err(err("open ltc"))?
    } else {
        let _s = tr.span("pcaplib.open");
        Box::new(open_pcap(&dir.join("trace.pcap"))?)
    };
    let mut engine = BlockEngine::new(cfg, THREADS);
    let mut acc = AnalysisAccumulator::new();
    let mut csv = LoopCsvSink::new(
        TimedWriter {
            inner: &mut *out,
            tracer: Arc::clone(tr),
            bytes: Arc::clone(&sink_bytes),
        },
        PERSISTENT_NS,
    );
    let mut streams: Vec<ReplicaStream> = Vec::new();
    let mut loops: Vec<RoutingLoop> = Vec::new();
    let mut emit = |ev: OnlineEvent| match ev {
        OnlineEvent::Stream(s) => streams.push(s),
        OnlineEvent::Loop(l) => loops.push(l),
    };
    let (mut first_ns, mut last_ns) = (None, 0u64);
    let summary = {
        let _s = tr.span(if ltc { "corpus.decode" } else { "pcaplib.read" });
        source
            .for_each_batch(&mut |batch| {
                if batch.is_empty() {
                    return Ok(());
                }
                if ltc {
                    let _a = tr.span("analysis.fold");
                    for rec in batch {
                        acc.on_record(rec).map_err(PipelineError::Sink)?;
                    }
                }
                let _f = tr.span("pipeline.feed");
                if !ltc {
                    for rec in batch {
                        csv.on_record(rec).map_err(PipelineError::Sink)?;
                    }
                }
                first_ns.get_or_insert(batch[0].timestamp_ns);
                last_ns = batch[batch.len() - 1].timestamp_ns;
                engine.feed(batch, &mut emit);
                Ok(())
            })
            .map_err(err("ingest"))?
    };
    let stats = {
        let _s = tr.span("pipeline.finish");
        let stats = engine.finish(&mut emit);
        streams.sort_by_key(|s| (s.start_ns(), s.record_indices.first().copied()));
        loops.sort_by_key(|l| (l.prefix, l.start_ns));
        stats
    };
    let result = PipelineResult {
        streams,
        loops,
        stats,
        records: summary.records,
        skipped: summary.skipped,
        trace_start_ns: first_ns.unwrap_or(0),
        trace_end_ns: last_ns,
        interrupted: false,
    };
    let report = if ltc {
        let _s = tr.span("analysis.fold");
        acc.on_result(&result).map_err(err("analysis"))?;
        Some(acc.report())
    } else {
        csv.on_result(&result).map_err(err("sink"))?;
        None
    };
    drop(run);
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(report) = report {
        writeln!(out, "{report:?}").map_err(err("report"))?;
        let _ = std::fs::remove_file(dir.join("traced.ltc"));
    }

    let busy: Vec<f64> = (0..THREADS)
        .map(|i| read_timer_s(block_metric(i, "busy")))
        .collect();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let mut counts = BTreeMap::new();
    counts.insert("block.busy_max_s", busy_max);
    counts.insert("block.busy_mean_s", busy_mean);
    counts.insert(
        "block.skew",
        if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            0.0
        },
    );
    counts.insert("sink.bytes", sink_bytes.load(Ordering::Relaxed) as f64);
    Ok((
        RunFacts {
            wall_s,
            spans: tr.take(),
            counts,
        },
        result,
    ))
}

/// The serial decomposition of `Detector::run`: `CandidateScanner` →
/// `PrefixIndex::build` → `validate` → `merge`, each timed, and checked
/// to reproduce `reference` (`Detector::run`'s result) exactly; a
/// disagreement goes to `failures`.
fn decompose(
    records: &[TraceRecord],
    reference: &DetectionResult,
    failures: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let cfg = DetectorConfig::default();
    let reg = routing_loops::telemetry::global();
    reg.reset();
    let mut m = BTreeMap::new();
    let mut stats = DetectionStats::default();
    let t = Instant::now();
    let mut scanner = CandidateScanner::with_capacity(cfg, records.len() / 4);
    for (i, rec) in records.iter().enumerate() {
        scanner.push(i, rec);
    }
    let (candidates, _) = scanner.finish();
    let hits = reg.counter("replica.prefilter_hits").get();
    let misses = reg.counter("replica.prefilter_misses").get();
    let mut looped_flags = vec![false; records.len()];
    for c in &candidates {
        for &i in &c.record_indices {
            looped_flags[i] = true;
        }
    }
    m.insert("replica.scan_s", t.elapsed().as_secs_f64());
    let raw = candidates.len() as f64;
    let t = Instant::now();
    let index = PrefixIndex::build(records);
    m.insert("validate.index_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let streams = validate(records, candidates, &looped_flags, &index, &cfg, &mut stats);
    m.insert("validate.s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let loops = merge(records, &streams, &looped_flags, &index, &cfg);
    m.insert("merge.s", t.elapsed().as_secs_f64());

    if streams != reference.streams || loops != reference.loops {
        failures.push("serial decomposition disagrees with Detector::run".into());
    }
    m.insert("replica.records", records.len() as f64);
    m.insert("replica.prefilter_hits", hits as f64);
    m.insert("replica.prefilter_misses", misses as f64);
    m.insert(
        "replica.useful_ratio",
        if raw > 0.0 {
            streams.len() as f64 / raw
        } else {
            0.0
        },
    );
    m.insert("validate.rejected_short", stats.rejected_short as f64);
    m.insert(
        "validate.rejected_covalidation",
        stats.rejected_covalidation as f64,
    );
    m.insert("merge.loops", loops.len() as f64);
    m
}

/// The analysis report of a serial-engine run over `records`, in the form
/// the traced `.ltc` run writes its own.
fn serial_report(records: &[TraceRecord]) -> Res<Vec<u8>> {
    let mut acc = AnalysisAccumulator::new();
    run_pipeline(
        &mut SliceSource::new(records),
        &mut SerialEngine::new(DetectorConfig::default()),
        &mut [&mut acc as &mut dyn Sink],
    )
    .map_err(err("serial pipeline"))?;
    Ok(format!("{:?}\n", acc.report()).into_bytes())
}

/// `loopmond` capture mode, in process: `THREADS` workers claim links
/// through a shared ticket, feed `MONITOR_CHUNK`-record batches, and
/// share one timed event sink. The events go to `events`.
fn monitor_run(dir: &Path, tr: &Arc<Tracer>, events: &Path) -> Res<RunFacts> {
    let reg = routing_loops::telemetry::global();
    reg.reset();
    let links = link_paths(dir)?;
    let sink_bytes = Arc::new(AtomicU64::new(0));
    let open_max = AtomicU64::new(0);
    let history_max = AtomicU64::new(0);
    let t0 = Instant::now();
    let run = tr.span("run");
    let runtime = {
        let _s = tr.span("monitor.open");
        let file = File::create(events).map_err(err("events"))?;
        MonitorRuntime::new(
            MonitorConfig::default(),
            Box::new(TimedWriter {
                inner: BufWriter::new(file),
                tracer: Arc::clone(tr),
                bytes: Arc::clone(&sink_bytes),
            }),
        )
    };
    let root = tr.current();
    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let history = reg.gauge("online.prefix_history");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let _w = tr.span_under("worker", root);
                while let Some(p) = links.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let job = || -> Res<()> {
                        let (mut src, mut link) = {
                            let _s = tr.span("monitor.open");
                            (open_pcap(p)?, runtime.add_link(&link_id(p)))
                        };
                        {
                            let _s = tr.span("pcaplib.read");
                            src.for_each_batch(&mut |batch| {
                                for chunk in batch.chunks(MONITOR_CHUNK) {
                                    {
                                        let _f = tr.span("monitor.feed");
                                        link.feed(chunk).map_err(PipelineError::Sink)?;
                                    }
                                    open_max.fetch_max(
                                        link.open_candidates() as u64,
                                        Ordering::Relaxed,
                                    );
                                    history_max
                                        .fetch_max(history.get().max(0) as u64, Ordering::Relaxed);
                                }
                                Ok(())
                            })
                            .map_err(err("link"))?;
                        }
                        let _s = tr.span("monitor.finish");
                        link.finish().map_err(err("finish"))?;
                        Ok(())
                    };
                    if let Err(e) = job() {
                        failures.lock().expect("failures poisoned").push(e);
                    }
                }
            });
        }
    });
    let totals = {
        let _s = tr.span("monitor.finish");
        runtime.finish().map_err(err("flush"))?
    };
    drop(run);
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(e) = failures.into_inner().expect("failures poisoned").pop() {
        return Err(e);
    }
    let mut counts = BTreeMap::new();
    counts.insert("sink.bytes", sink_bytes.load(Ordering::Relaxed) as f64);
    counts.insert("online.open_candidates_max", open_max.into_inner() as f64);
    counts.insert("online.history_max", history_max.into_inner() as f64);
    counts.insert("online.events", (totals.streams + totals.loops) as f64);
    Ok(RunFacts {
        wall_s,
        spans: tr.take(),
        counts,
    })
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
/// Layers a workload does not exercise report 0.
pub const LAYER_METRICS: &[&str] = &[
    "pcaplib.read_s",
    "pcaplib.mb_per_s",
    "corpus.convert_s",
    "corpus.open_s",
    "corpus.decode_s",
    "pipeline.feed_s",
    "pipeline.finish_s",
    "block.busy_max_s",
    "block.busy_mean_s",
    "block.skew",
    "replica.scan_s",
    "replica.records",
    "replica.prefilter_hits",
    "replica.prefilter_misses",
    "replica.useful_ratio",
    "validate.index_s",
    "validate.s",
    "validate.rejected_short",
    "validate.rejected_covalidation",
    "merge.s",
    "merge.loops",
    "analysis.fold_s",
    "sink.write_s",
    "sink.bytes",
    "monitor.feed_s",
    "monitor.feed_ms_p50",
    "monitor.feed_ms_p99",
    "monitor.feed_calls",
    "monitor.finish_s",
    "online.open_candidates_max",
    "online.history_max",
    "online.events",
    "traced_wall_s",
    "unattributed_frac",
    "trace_overhead_frac",
];

/// Runs the workload `TRACE_PAIRS` times untraced and traced, alternating,
/// and folds the traced run of median wall time into per-layer metrics.
/// Output of the last run goes to `out_path` for the caller's reference
/// check; the checks made here return as failures.
pub fn traced(
    w: Workload,
    dir: &Path,
    out_path: &Path,
) -> Res<(BTreeMap<&'static str, f64>, Vec<String>)> {
    let mut untraced_walls = Vec::new();
    let mut traced_runs: Vec<RunFacts> = Vec::new();
    let mut last_run = None;
    for _ in 0..TRACE_PAIRS {
        for enabled in [false, true] {
            let tr = Arc::new(Tracer::new(enabled));
            let facts = match w {
                Workload::MonitorLinks => monitor_run(dir, &tr, out_path)?,
                _ => {
                    let mut out = Vec::new();
                    let (facts, result) = offline_run(w, dir, &tr, &mut out)?;
                    std::fs::write(out_path, &out).map_err(err("traced output"))?;
                    last_run = Some((result, out));
                    facts
                }
            };
            if enabled {
                traced_runs.push(facts);
            } else {
                untraced_walls.push(facts.wall_s);
            }
        }
    }
    let traced_walls: Vec<f64> = traced_runs.iter().map(|r| r.wall_s).collect();
    let median_wall = percentile(&traced_walls, 0.5);
    let run = traced_runs
        .into_iter()
        .find(|r| r.wall_s == median_wall)
        .expect("median is one of the runs");
    let a = attribute(&run.spans);
    let own = |name: &str| a.self_s.get(name).copied().unwrap_or(0.0);

    let mut m: BTreeMap<&'static str, f64> = LAYER_METRICS.iter().map(|&k| (k, 0.0)).collect();
    m.extend(run.counts.iter().map(|(k, v)| (*k, *v)));
    m.insert("traced_wall_s", run.wall_s);
    m.insert("unattributed_frac", a.unattributed_frac);
    m.insert(
        "trace_overhead_frac",
        median_wall / percentile(&untraced_walls, 0.5) - 1.0,
    );
    let read_s = own("pcaplib.read");
    m.insert("pcaplib.read_s", read_s);
    m.insert("corpus.convert_s", own("corpus.convert"));
    m.insert("corpus.open_s", own("corpus.open"));
    m.insert("corpus.decode_s", own("corpus.decode"));
    m.insert("pipeline.feed_s", own("pipeline.feed"));
    m.insert("pipeline.finish_s", own("pipeline.finish"));
    m.insert("analysis.fold_s", own("analysis.fold"));
    m.insert("sink.write_s", own("sink.write"));
    m.insert("monitor.feed_s", own("monitor.feed"));
    m.insert("monitor.finish_s", own("monitor.finish"));
    let feeds_ms: Vec<f64> = run
        .spans
        .iter()
        .filter(|s| s.name == "monitor.feed")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    m.insert("monitor.feed_calls", feeds_ms.len() as f64);
    m.insert("monitor.feed_ms_p50", percentile(&feeds_ms, 0.5));
    m.insert("monitor.feed_ms_p99", percentile(&feeds_ms, 0.99));

    let pcaps = match w {
        Workload::OfflinePcap => vec![dir.join("trace.pcap")],
        Workload::OfflineLtc => Vec::new(),
        Workload::MonitorLinks => link_paths(dir)?,
    };
    if read_s > 0.0 {
        let bytes: u64 = pcaps
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        m.insert("pcaplib.mb_per_s", bytes as f64 / 1e6 / read_s);
    }

    let mut failures = Vec::new();
    if let Some((result, out)) = last_run {
        // Pipeline trust check: the traced pipeline and the serial
        // decomposition both reproduce Detector::run, and the traced
        // analysis fold reproduces a serial run's.
        let records = match w {
            Workload::OfflineLtc => {
                records_from_ltc_with(&dir.join("trace.ltc"), 1, IngestMode::Mmap)
                    .map_err(err("ltc"))?
                    .0
            }
            _ => load_pcap(&dir.join("trace.pcap"))?,
        };
        let reference = Detector::new(DetectorConfig::default()).run(&records);
        if result.streams != reference.streams || result.loops != reference.loops {
            failures.push("traced pipeline disagrees with Detector::run".into());
        }
        if w == Workload::OfflineLtc && out != serial_report(&records)? {
            failures.push("traced analysis report differs from a serial run's".into());
        }
        m.extend(decompose(&records, &reference, &mut failures));
    }
    Ok((m, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_loops::net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    fn record(t_ns: u64, dst: Ipv4Addr, ident: u16, ttl: u8) -> TraceRecord {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 9, 9, 9),
            dst,
            5000,
            80,
            TcpFlags::ACK,
            &b"pay"[..],
        );
        p.ip.ident = ident;
        p.ip.ttl = ttl;
        p.fill_checksums();
        TraceRecord::from_packet(t_ns, &p)
    }

    /// A hand-built link: one packet loops five times (TTL -2 each, 1 ms
    /// apart, evidence ending at 4 ms), then unrelated traffic to another
    /// /24 every 250 ms. The stream can close only once a record arrives
    /// more than the 1 s replica gap after its last sighting: the record
    /// at 1.25 s. Its lag is therefore 1.25 - 0.004 = 1.246 s.
    #[test]
    fn lag_is_charged_to_the_emitting_record() {
        let looped = Ipv4Addr::new(203, 0, 7, 1);
        let mut recs: Vec<TraceRecord> = (0..5u64)
            .map(|k| record(k * 1_000_000, looped, 400, 58 - 2 * k as u8))
            .collect();
        for k in 1..=8u64 {
            recs.push(record(
                k * 250_000_000,
                Ipv4Addr::new(198, 51, 100, 1),
                k as u16,
                60,
            ));
        }
        let lags = link_lags("hand-built", &recs).unwrap();
        assert_eq!(lags.samples.len(), 1, "one stream; its loop is not sampled");
        assert!((lags.samples[0] - 1.246).abs() < 1e-6, "{:?}", lags.samples);
        assert_eq!(lags.tail_events, 0);

        // Cut the link before the stream closes: finish releases it, and
        // the lag is charged to the last record (1.0 s).
        let lags = link_lags("hand-built", &recs[..9]).unwrap();
        assert_eq!(lags.tail_events, 1);
        assert!(
            (lags.samples[0] - (1.0 - 0.004)).abs() < 1e-6,
            "{:?}",
            lags.samples
        );
    }

    #[test]
    fn stream_end_parses_streams_and_skips_loops() {
        let s = r#"{"link":"a","event":"stream","dst":"1.2.3.4","ident":1,"first_ttl":9,"last_ttl":5,"ttl_delta":2,"replicas":3,"start_s":1.500000,"duration_ms":250.000,"mean_spacing_ms":125.000}"#;
        assert!((stream_end_s(s).unwrap().unwrap() - 1.75).abs() < 1e-9);
        let l = r#"{"link":"a","event":"loop","prefix":"1.2.3.0/24","start_s":1.000000,"end_s":3.250000,"duration_s":2.25,"streams":1,"replicas":3,"ttl_delta":2,"class":"transient"}"#;
        assert_eq!(stream_end_s(l).unwrap(), None);
        assert!(stream_end_s("{}").is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
