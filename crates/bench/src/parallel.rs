//! Serial-vs-parallel throughput comparison for the block-parallel
//! detector, reported as the `BENCH_parallel.json` artifact.
//!
//! Measured on every run:
//!
//! 1. **Determinism** (hard): every parallel run's full output — streams,
//!    loops, and stage counters — must equal the serial run's. A
//!    divergence is a correctness bug, and the CI bench step fails on it
//!    regardless of timing. Both runs go through the unified
//!    `loopscope::pipeline` (slice fast path), so what is compared is
//!    exactly what every consumer sees.
//! 2. **Throughput**: records/second for serial and per thread count, the
//!    speedup over serial, and the pcap-ingest rate of the zero-alloc
//!    reader. `bench_parallel --gate <baseline.json>` turns these into CI
//!    floors (serial regression, per-core-count scaling) — the scaling
//!    floors are enforced only on machines with enough cores for
//!    wall-clock speedup to be physically possible.
//! 3. **Stage breakdown**: per-stage wall time extracted from the
//!    telemetry timers, for the serial pipeline and each parallel run.
//!    The block engine reports ONE uniform stage schema
//!    ([`BLOCK_STAGES`]) at every thread count — one worker runs the
//!    same machinery as eight, so there is no serial-name special case —
//!    plus a per-worker `scan/validate/merge/busy` row for each worker.
//!    Every row is scoped to its own instrumented run via snapshot
//!    deltas (no cross-row accumulation, no registry reset). Worker-side
//!    stages overlap in time, so their totals are aggregate
//!    worker-seconds, not wall time.
//!
//! The artifact records the machine context every number must be read in:
//! `cores`, the `rustc` version, and a `runner` label
//! (`$BENCH_RUNNER_LABEL`, "local" when unset) so a committed baseline
//! says where it came from.

use loopscope::block::block_metric;
use loopscope::pipeline::{run_pipeline, BlockEngine, Engine, SerialEngine, SliceSource};
use loopscope::{DetectorConfig, PipelineResult, TraceRecord};
use routing_loops::backbone::{paper_backbones, run_backbone};
use std::time::Instant;

/// Serial pipeline stage timers, in pipeline order.
pub const SERIAL_STAGES: [&str; 3] = ["replica.detect", "validate", "merge"];

/// Block-parallel stage timers, in pipeline order — the SAME schema at
/// every thread count (one worker runs the full block machinery). The
/// scan/validate/merge stages aggregate across workers (worker-seconds);
/// reconcile, index, and stitch run on the calling thread (wall time).
pub const BLOCK_STAGES: [&str; 6] = [
    "block.scan",
    "block.reconcile",
    "block.index",
    "block.validate",
    "block.merge",
    "block.stitch",
];

/// Per-worker timer fields reported for each block worker. `index` is the
/// worker's share of the step-2 prefix index, built inside the scan
/// worker so it overlaps the scan instead of serialising after it.
pub const WORKER_FIELDS: [&str; 5] = ["scan", "index", "validate", "merge", "busy"];

/// One thread count's measurement.
#[derive(Debug, Clone)]
pub struct ParallelSample {
    /// Worker count.
    pub threads: usize,
    /// Best-of-repeats wall time in nanoseconds.
    pub best_ns: u64,
    /// Records per second at `best_ns`.
    pub records_per_s: f64,
    /// `serial_best_ns / best_ns`.
    pub speedup: f64,
    /// Whether the run's output equalled the serial output exactly.
    pub identical: bool,
    /// `(timer name, total ns)` per stage, from one instrumented run,
    /// scoped to that run alone (snapshot deltas — earlier thread counts
    /// contribute nothing), in [`BLOCK_STAGES`] order at every thread
    /// count.
    pub stages: Vec<(&'static str, u64)>,
    /// Per-worker `(field, total ns)` rows ([`WORKER_FIELDS`] order),
    /// one row per worker, same instrumented run.
    pub workers: Vec<Vec<(&'static str, u64)>>,
}

impl ParallelSample {
    /// True when some worker row exists and records no time at all —
    /// that worker's instrumentation went dark (or it was never run).
    pub fn any_worker_row_all_zero(&self) -> bool {
        self.workers
            .iter()
            .any(|row| !row.is_empty() && row.iter().all(|&(_, ns)| ns == 0))
    }
}

/// The full comparison: one serial baseline, one sample per thread count,
/// plus the ingest rate of the pcap read path.
#[derive(Debug, Clone)]
pub struct ParallelBench {
    /// Engine label ("block").
    pub engine: &'static str,
    /// Trace size in records.
    pub records: u64,
    /// Validated streams found (same for every conforming run).
    pub streams: u64,
    /// Routing loops found.
    pub loops: u64,
    /// CPU cores available to this process — the context every speedup
    /// number must be read in.
    pub cores: usize,
    /// `rustc --version` of the toolchain that built the bench.
    pub rustc: String,
    /// Runner label (`$BENCH_RUNNER_LABEL`, "local" when unset).
    pub runner: String,
    /// Serial best-of-repeats wall time in nanoseconds.
    pub serial_best_ns: u64,
    /// Serial records per second.
    pub serial_records_per_s: f64,
    /// Serial per-stage breakdown (`(timer name, total ns)`).
    pub serial_stages: Vec<(&'static str, u64)>,
    /// Records scanned by the ingest measurements (same trace both ways).
    pub ingest_records: u64,
    /// Wall time of the pcap-ingest measurement in nanoseconds.
    pub ingest_ns: u64,
    /// Ingest throughput (pcap bytes → `TraceRecord`s) in records/second.
    pub ingest_records_per_s: f64,
    /// Wall time of the columnar (`.ltc`) ingest measurement in
    /// nanoseconds, over the identical record set.
    pub columnar_ingest_ns: u64,
    /// Columnar ingest throughput in records/second.
    pub columnar_ingest_records_per_s: f64,
    /// `columnar_ingest_records_per_s / ingest_records_per_s` — the
    /// within-run, machine-independent ratio the CI gate floors.
    pub columnar_vs_pcap: f64,
    /// Records in the mmap-vs-buffered comparison corpus — the bench
    /// trace cycled up to an out-of-LLC floor, so this can exceed
    /// `ingest_records` on small `--scale` runs.
    pub mmap_ingest_records: u64,
    /// Wall time of the buffered real-file `.ltc` decode (the `--no-mmap`
    /// ablation arm) in nanoseconds, warm cache.
    pub buffered_ingest_ns: u64,
    /// Buffered real-file ingest throughput in records/second.
    pub buffered_ingest_records_per_s: f64,
    /// Wall time of the mapped (zero-copy) `.ltc` decode in nanoseconds,
    /// same file and cache state.
    pub mmap_ingest_ns: u64,
    /// Mapped ingest throughput in records/second.
    pub mmap_ingest_records_per_s: f64,
    /// `mmap_ingest_records_per_s / buffered_ingest_records_per_s` — the
    /// second within-run ratio the CI gate floors.
    pub mmap_vs_buffered: f64,
    /// Per-thread-count samples.
    pub samples: Vec<ParallelSample>,
}

/// Minimal JSON string escaping for the hand-rolled artifact writer.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl ParallelBench {
    /// True when every parallel run matched the serial output.
    pub fn all_identical(&self) -> bool {
        self.samples.iter().all(|s| s.identical)
    }

    /// Renders the artifact document (hand-serialised; the workspace has
    /// no serde).
    pub fn to_json(&self) -> String {
        let stages_json = |stages: &[(&'static str, u64)]| {
            let fields: Vec<String> = stages
                .iter()
                .map(|(name, ns)| format!("\"{name}\": {ns}"))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"parallel\",\n");
        out.push_str(&format!("  \"engine\": \"{}\",\n", self.engine));
        out.push_str(&format!("  \"records\": {},\n", self.records));
        out.push_str(&format!("  \"streams\": {},\n", self.streams));
        out.push_str(&format!("  \"loops\": {},\n", self.loops));
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"rustc\": \"{}\",\n", json_escape(&self.rustc)));
        out.push_str(&format!(
            "  \"runner\": \"{}\",\n",
            json_escape(&self.runner)
        ));
        out.push_str(&format!(
            "  \"ingest\": {{\"records\": {}, \"ns\": {}, \"records_per_s\": {:.1}}},\n",
            self.ingest_records, self.ingest_ns, self.ingest_records_per_s
        ));
        out.push_str(&format!(
            "  \"ingest_columnar\": {{\"records\": {}, \"ns\": {}, \"records_per_s\": {:.1}, \"vs_pcap\": {:.3}}},\n",
            self.ingest_records,
            self.columnar_ingest_ns,
            self.columnar_ingest_records_per_s,
            self.columnar_vs_pcap
        ));
        out.push_str(&format!(
            "  \"ingest_mmap\": {{\"records\": {}, \"ns\": {}, \"records_per_s\": {:.1}, \"buffered_ns\": {}, \"buffered_records_per_s\": {:.1}, \"vs_buffered\": {:.3}}},\n",
            self.mmap_ingest_records,
            self.mmap_ingest_ns,
            self.mmap_ingest_records_per_s,
            self.buffered_ingest_ns,
            self.buffered_ingest_records_per_s,
            self.mmap_vs_buffered
        ));
        out.push_str(&format!(
            "  \"serial\": {{\"ns\": {}, \"records_per_s\": {:.1}}},\n",
            self.serial_best_ns, self.serial_records_per_s
        ));
        out.push_str(&format!(
            "  \"serial_stages\": {},\n",
            stages_json(&self.serial_stages)
        ));
        out.push_str(&format!("  \"all_identical\": {},\n", self.all_identical()));
        out.push_str("  \"parallel\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let workers: Vec<String> = s.workers.iter().map(|row| stages_json(row)).collect();
            out.push_str(&format!(
                "    {{\"threads\": {}, \"ns\": {}, \"records_per_s\": {:.1}, \
                 \"speedup\": {:.3}, \"identical\": {}, \"stages\": {}, \
                 \"workers\": [{}]}}{}\n",
                s.threads,
                s.best_ns,
                s.records_per_s,
                s.speedup,
                s.identical,
                stages_json(&s.stages),
                workers.join(", "),
                if i + 1 < self.samples.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The toolchain version recorded in the artifact: `$RUSTC_VERSION` when
/// set (CI exports it once), else `rustc --version`, else "unknown".
pub fn rustc_version() -> String {
    if let Ok(v) = std::env::var("RUSTC_VERSION") {
        let v = v.trim();
        if !v.is_empty() {
            return v.to_string();
        }
    }
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The runner label recorded in the artifact: `$BENCH_RUNNER_LABEL` when
/// set (CI exports the runner class), "local" otherwise.
pub fn runner_label() -> String {
    std::env::var("BENCH_RUNNER_LABEL")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string())
}

fn results_equal(a: &PipelineResult, b: &PipelineResult) -> bool {
    a.stats == b.stats && a.streams == b.streams && a.loops == b.loops
}

/// One pipeline run over in-memory records with the given engine.
fn detect(records: &[TraceRecord], engine: &mut dyn Engine) -> PipelineResult {
    let mut source = SliceSource::new(records);
    run_pipeline(&mut source, engine, &mut []).expect("in-memory pipeline cannot fail")
}

fn time_best<F: FnMut() -> PipelineResult>(repeats: usize, mut f: F) -> (u64, PipelineResult) {
    let mut best_ns = u64::MAX;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let r = f();
        best_ns = best_ns.min(t.elapsed().as_nanos() as u64);
        out = Some(r);
    }
    (best_ns, out.expect("at least one repeat"))
}

/// Runs `run` once and returns the listed stage timers' totals for *that
/// run alone*, as before/after snapshot deltas. Delta scoping (rather
/// than a registry reset) keeps each row independent of earlier runs in
/// the process *and* leaves the registry intact for anything else
/// observing it — a live `--metrics-interval` sampler keeps its
/// cumulative view. The instrumented run is separate from the timed
/// repeats so snapshotting never perturbs the wall-clock numbers.
fn measure_stages<F: FnMut()>(keys: &[&'static str], mut run: F) -> Vec<(&'static str, u64)> {
    let total = |snap: &telemetry::Snapshot, k: &str| snap.timers.get(k).map_or(0, |t| t.total_ns);
    let before = telemetry::global().snapshot();
    run();
    let after = telemetry::global().snapshot();
    keys.iter()
        .map(|&k| (k, total(&after, k).saturating_sub(total(&before, k))))
        .collect()
}

/// Builds the bench trace: the busiest paper backbone at `scale`.
pub fn bench_trace(scale: f64) -> Vec<TraceRecord> {
    let spec = paper_backbones(scale).remove(1);
    run_backbone(&spec).records
}

/// The pcap-vs-columnar ingest comparison over one synthetic trace.
#[derive(Debug, Clone, Copy)]
pub struct IngestBench {
    /// Records decoded (identical for both paths, asserted).
    pub records: u64,
    /// Best-of-repeats pcap decode wall time in nanoseconds.
    pub pcap_ns: u64,
    /// Pcap decode throughput in records/second.
    pub pcap_records_per_s: f64,
    /// Best-of-repeats columnar (`.ltc`) decode wall time in nanoseconds.
    pub columnar_ns: u64,
    /// Columnar decode throughput in records/second.
    pub columnar_records_per_s: f64,
    /// `columnar_records_per_s / pcap_records_per_s`.
    pub columnar_vs_pcap: f64,
    /// Records in the mmap-vs-buffered comparison corpus (the record set
    /// cycled up to an out-of-LLC floor; ≥ `records`).
    pub mmap_corpus_records: u64,
    /// Best-of-repeats buffered whole-file `.ltc` decode wall time in
    /// nanoseconds — a real temp file on warm cache, the `--no-mmap`
    /// ablation arm.
    pub buffered_ns: u64,
    /// Buffered whole-file decode throughput in records/second.
    pub buffered_records_per_s: f64,
    /// Best-of-repeats mapped (zero-copy) whole-file `.ltc` decode wall
    /// time in nanoseconds, same file, same cache state.
    pub mmap_ns: u64,
    /// Mapped decode throughput in records/second.
    pub mmap_records_per_s: f64,
    /// `mmap_records_per_s / buffered_records_per_s` — the within-run,
    /// machine-independent ratio the CI gate floors.
    pub mmap_vs_buffered: f64,
}

/// Measures both ingest paths like-for-like: synthesises an in-memory
/// 40-byte-snaplen trace of `n_records` packets, times the zero-alloc
/// `records_from_pcap` over it, converts the decoded records to an
/// in-memory `.ltc` image, and times the serial columnar decode of the
/// same data — best of `repeats` passes each, single-threaded both ways,
/// with the decoded record vectors asserted equal. The resulting
/// `columnar_vs_pcap` ratio is within-run and machine-independent, which
/// is what lets the CI gate floor it everywhere.
pub fn bench_ingest(n_records: usize, repeats: usize) -> IngestBench {
    /// Floor on the mmap-vs-buffered comparison corpus: ~45 MB of `.ltc`,
    /// comfortably past any last-level cache on the machines this runs on.
    const MMAP_BENCH_MIN_RECORDS: usize = 800_000;
    use net_types::{Packet, TcpFlags};
    use pcaplib::{FileHeader, PcapWriter};
    use std::net::Ipv4Addr;

    // A small cycling set of distinct pre-emitted packets keeps file
    // construction (untimed) cheap without handing the reader one
    // endlessly repeated block.
    let variants: Vec<Vec<u8>> = (0..256u16)
        .map(|i| {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 64, (i >> 8) as u8, i as u8),
                Ipv4Addr::new(203, 0, 113, (i % 250) as u8 + 1),
                1024 + i,
                80,
                TcpFlags::ACK,
                &b"0123456789abcdef"[..],
            );
            p.ip.ident = i;
            p.fill_checksums();
            p.emit()
        })
        .collect();
    let sink = Vec::with_capacity(n_records * 56 + 24);
    let mut w = PcapWriter::new(sink, FileHeader::raw_ip(40)).expect("in-memory writer");
    for i in 0..n_records {
        w.write_bytes(i as u64 * 1_000, &variants[i % variants.len()])
            .expect("in-memory write");
    }
    let file = w.finish().expect("in-memory finish");

    // All ingest arms time at least four passes: the engine runs that
    // precede this in the full bench churn hundreds of MB of allocations,
    // and for roughly half a second afterwards this box serves big fresh
    // allocations (and mapped page faults) several times slow. Two
    // repeats can land entirely inside that window; best-of-4 cannot.
    let repeats = repeats.max(4);
    let mut pcap_ns = u64::MAX;
    let mut records = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        let (recs, skipped) =
            routing_loops::convert::records_from_pcap(std::io::Cursor::new(&file[..]))
                .expect("synthetic trace must parse");
        pcap_ns = pcap_ns.min(t.elapsed().as_nanos() as u64);
        assert_eq!(skipped, 0, "synthetic packets must all parse");
        records = recs;
    }

    // The conversion (untimed) is what `pcap2ltc` does; the timed part is
    // the repeated-scan payoff.
    let ltc = corpus::ltc_to_vec(&records, 0);
    let mut columnar_ns = u64::MAX;
    let mut columnar_records = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        let mut reader = corpus::LtcReader::new(std::io::Cursor::new(&ltc[..]), "bench.ltc")
            .expect("in-memory corpus must validate");
        let mut out = Vec::with_capacity(records.len());
        let mut batch = Vec::new();
        while reader
            .next_block_into(&mut batch)
            .expect("in-memory corpus must decode")
        {
            out.extend_from_slice(&batch);
        }
        columnar_ns = columnar_ns.min(t.elapsed().as_nanos() as u64);
        columnar_records = out;
    }
    assert_eq!(
        columnar_records, records,
        "columnar ingest must reproduce the pcap decode exactly"
    );

    // The mmap-vs-buffered comparison needs a real file — and a corpus
    // large enough to fall out of the last-level cache. A cache-resident
    // file makes the buffered path's extra copy nearly free (the kernel
    // pages it copies from are already hot), so tiny corpora measure LLC
    // bandwidth, not the read paths; the zero-copy payoff is for the
    // multi-day traces this format exists for. Cycle the record set up to
    // the floor before imaging it.
    let mut mm_records = records.clone();
    while mm_records.len() < MMAP_BENCH_MIN_RECORDS && !records.is_empty() {
        let take = (MMAP_BENCH_MIN_RECORDS - mm_records.len()).min(records.len());
        mm_records.extend_from_slice(&records[..take]);
    }
    let ltc_mm = corpus::ltc_to_vec(&mm_records, 0);
    // Write the corpus image to a temp path, take one untimed pass
    // through each arm (faulting the file into the page cache and
    // amortising lazy setup), then time the arms interleaved so neither
    // sees a colder cache than the other. At least four timed repeats:
    // right after a large allocation churn the kernel can serve one
    // mapped pass an order of magnitude slow (observed once per process,
    // ~500 ms on this box), and best-of-N must be able to step over that
    // outlier. Every repeat runs both decodes in full — no skip path.
    let path = std::env::temp_dir().join(format!("bench-ingest-{}.ltc", std::process::id()));
    std::fs::write(&path, &ltc_mm).expect("bench corpus write");
    let mut buffered_ns = u64::MAX;
    let mut mmap_ns = u64::MAX;
    let mut mmap_records = Vec::new();
    corpus::records_from_ltc(&path).expect("bench corpus read");
    corpus::records_from_ltc_mmap(&path).expect("bench corpus map");
    // Eight passes minimum with the arm order alternating: the two arms
    // race the same drifting machine, so a fixed order would hand
    // whichever arm runs second any systematic slowdown, and a larger
    // best-of pool is what keeps one noisy pass from deciding a CI gate.
    for pass in 0..repeats.max(8) {
        let mut time_buffered = || {
            let t = Instant::now();
            let (buffered_records, _) = corpus::records_from_ltc(&path).expect("bench corpus read");
            buffered_ns = buffered_ns.min(t.elapsed().as_nanos() as u64);
            assert_eq!(buffered_records.len(), mm_records.len());
        };
        let mut time_mmap = |out: &mut Vec<_>| {
            let t = Instant::now();
            let (recs, _) = corpus::records_from_ltc_mmap(&path).expect("bench corpus map");
            mmap_ns = mmap_ns.min(t.elapsed().as_nanos() as u64);
            *out = recs;
        };
        if pass % 2 == 0 {
            time_buffered();
            time_mmap(&mut mmap_records);
        } else {
            time_mmap(&mut mmap_records);
            time_buffered();
        }
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(
        mmap_records, mm_records,
        "mapped ingest must reproduce the buffered decode exactly"
    );

    let rps = |count: usize, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            count as f64 / (ns as f64 / 1e9)
        }
    };
    let pcap_records_per_s = rps(records.len(), pcap_ns);
    let columnar_records_per_s = rps(records.len(), columnar_ns);
    let buffered_records_per_s = rps(mm_records.len(), buffered_ns);
    let mmap_records_per_s = rps(mm_records.len(), mmap_ns);
    IngestBench {
        records: records.len() as u64,
        mmap_corpus_records: mm_records.len() as u64,
        pcap_ns,
        pcap_records_per_s,
        columnar_ns,
        columnar_records_per_s,
        columnar_vs_pcap: if pcap_records_per_s > 0.0 {
            columnar_records_per_s / pcap_records_per_s
        } else {
            0.0
        },
        buffered_ns,
        buffered_records_per_s,
        mmap_ns,
        mmap_records_per_s,
        mmap_vs_buffered: if buffered_records_per_s > 0.0 {
            mmap_records_per_s / buffered_records_per_s
        } else {
            0.0
        },
    }
}

/// Runs the comparison on `records` for each of `thread_counts` with the
/// block engine, timing best-of-`repeats` and cross-checking every output
/// against serial.
pub fn run_on(records: &[TraceRecord], thread_counts: &[usize], repeats: usize) -> ParallelBench {
    let cfg = DetectorConfig::default();
    let (serial_best_ns, serial) =
        time_best(repeats, || detect(records, &mut SerialEngine::new(cfg)));
    let serial_stages = measure_stages(&SERIAL_STAGES, || {
        detect(records, &mut SerialEngine::new(cfg));
    });
    let per_s = |ns: u64| {
        if ns == 0 {
            0.0
        } else {
            records.len() as f64 / (ns as f64 / 1e9)
        }
    };
    let samples = thread_counts
        .iter()
        .map(|&threads| {
            let (best_ns, result) = time_best(repeats, || {
                detect(records, &mut BlockEngine::new(cfg, threads))
            });
            // One instrumented run yields both the stage row and the
            // per-worker rows (same snapshot delta). Uniform schema at
            // EVERY thread count: one block worker runs the same
            // scan/reconcile/index/validate/merge/stitch machinery as
            // eight.
            let mut keys: Vec<&'static str> = BLOCK_STAGES.to_vec();
            for w in 0..threads {
                for field in WORKER_FIELDS {
                    keys.push(block_metric(w, field));
                }
            }
            let all = measure_stages(&keys, || {
                detect(records, &mut BlockEngine::new(cfg, threads));
            });
            let stages = all[..BLOCK_STAGES.len()].to_vec();
            let workers = all[BLOCK_STAGES.len()..]
                .chunks(WORKER_FIELDS.len())
                .enumerate()
                .map(|(w, chunk)| {
                    chunk
                        .iter()
                        .zip(WORKER_FIELDS)
                        .map(|(&(_, ns), field)| (block_metric(w, field), ns))
                        .collect()
                })
                .collect();
            ParallelSample {
                threads,
                best_ns,
                records_per_s: per_s(best_ns),
                speedup: serial_best_ns as f64 / best_ns.max(1) as f64,
                identical: results_equal(&serial, &result),
                stages,
                workers,
            }
        })
        .collect();
    let ingest = bench_ingest(records.len().max(1), repeats);
    ParallelBench {
        engine: "block",
        records: records.len() as u64,
        streams: serial.streams.len() as u64,
        loops: serial.loops.len() as u64,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: rustc_version(),
        runner: runner_label(),
        serial_best_ns,
        serial_records_per_s: per_s(serial_best_ns),
        serial_stages,
        ingest_records: ingest.records,
        ingest_ns: ingest.pcap_ns,
        ingest_records_per_s: ingest.pcap_records_per_s,
        columnar_ingest_ns: ingest.columnar_ns,
        columnar_ingest_records_per_s: ingest.columnar_records_per_s,
        columnar_vs_pcap: ingest.columnar_vs_pcap,
        buffered_ingest_ns: ingest.buffered_ns,
        buffered_ingest_records_per_s: ingest.buffered_records_per_s,
        mmap_ingest_records: ingest.mmap_corpus_records,
        mmap_ingest_ns: ingest.mmap_ns,
        mmap_ingest_records_per_s: ingest.mmap_records_per_s,
        mmap_vs_buffered: ingest.mmap_vs_buffered,
        samples,
    }
}

/// [`run_on`] over the standard bench trace.
pub fn run(scale: f64, thread_counts: &[usize], repeats: usize) -> ParallelBench {
    let records = bench_trace(scale);
    run_on(&records, thread_counts, repeats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that run detector workloads share the process-global
    /// telemetry registry; serialise them so stage deltas stay
    /// attributable to their own run.
    static WORKLOAD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn measure_stages_scopes_to_its_own_run() {
        // A synthetic stage timer with pre-existing state: the
        // measurement must report only what its own run recorded, not
        // the cumulative total and not earlier measurements.
        let timer = telemetry::global().timer("benchtest.scoped_stage");
        let keys: [&'static str; 1] = ["benchtest.scoped_stage"];
        timer.record(5_000);
        let first = measure_stages(&keys, || timer.record(1_000));
        assert_eq!(first, vec![("benchtest.scoped_stage", 1_000)]);
        let second = measure_stages(&keys, || timer.record(250));
        assert_eq!(second, vec![("benchtest.scoped_stage", 250)]);
        // An unrecorded key reports zero, not garbage.
        let empty = measure_stages(&["benchtest.never_recorded"], || {});
        assert_eq!(empty, vec![("benchtest.never_recorded", 0)]);
    }

    #[test]
    fn stage_schema_is_uniform_at_every_thread_count() {
        let _lock = WORKLOAD.lock().unwrap_or_else(|p| p.into_inner());
        let records = bench_trace(0.04);
        let bench = run_on(&records, &[1, 2], 1);
        for row in &bench.samples {
            let names: Vec<&str> = row.stages.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                names, BLOCK_STAGES,
                "threads={} must use the uniform block schema",
                row.threads
            );
            let total: u64 = row.stages.iter().map(|(_, ns)| ns).sum();
            assert!(
                total > 0,
                "threads={} stage row must not be all-zero: {row:?}",
                row.threads
            );
            // Exactly one per-worker row per worker, none dark.
            assert_eq!(row.workers.len(), row.threads);
            assert!(
                !row.any_worker_row_all_zero(),
                "threads={} has a dark worker row: {:?}",
                row.threads,
                row.workers
            );
        }
    }

    #[test]
    fn tiny_bench_is_deterministic_and_serialisable() {
        let _lock = WORKLOAD.lock().unwrap_or_else(|p| p.into_inner());
        let bench = run(0.04, &[2, 4], 1);
        assert!(bench.records > 0);
        assert!(bench.all_identical(), "parallel diverged from serial");
        assert!(bench.cores >= 1);
        assert!(bench.ingest_records == bench.records);
        assert!(bench.ingest_records_per_s > 0.0);
        assert!(bench.columnar_ingest_records_per_s > 0.0);
        assert!(bench.columnar_vs_pcap > 0.0);
        assert!(bench.buffered_ingest_records_per_s > 0.0);
        assert!(bench.mmap_ingest_records_per_s > 0.0);
        assert!(bench.mmap_vs_buffered > 0.0);
        assert!(!bench.rustc.is_empty());
        assert!(!bench.runner.is_empty());
        let serial_detect = bench
            .serial_stages
            .iter()
            .find(|(k, _)| *k == "replica.detect")
            .expect("serial breakdown present");
        assert!(serial_detect.1 > 0, "detect stage must record time");
        let json = bench.to_json();
        assert!(json.contains("\"bench\": \"parallel\""));
        assert!(json.contains("\"engine\": \"block\""));
        assert!(json.contains("\"all_identical\": true"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"rustc\": \""));
        assert!(json.contains("\"runner\": \""));
        assert!(json.contains("\"ingest\": {\"records\": "));
        assert!(json.contains("\"ingest_columnar\": {\"records\": "));
        assert!(json.contains("\"vs_pcap\": "));
        assert!(json.contains("\"ingest_mmap\": {\"records\": "));
        assert!(json.contains("\"vs_buffered\": "));
        assert!(json.contains("\"serial_stages\": {\"replica.detect\": "));
        assert!(json.contains("\"block.scan\": "));
        assert!(json.contains("\"block.w0.index\": "));
        assert!(json.contains("\"block.w0.busy\": "));
    }
}
