//! `bench_parallel` — serial vs block-parallel detector throughput,
//! written to a `BENCH_parallel.json` artifact.
//!
//! ```text
//! cargo run -p bench --release --bin bench_parallel
//! cargo run -p bench --release --bin bench_parallel -- --scale 0.05 --repeat 1
//! cargo run -p bench --release --bin bench_parallel -- --threads 2,4,8,16
//! ```
//!
//! Exit status is nonzero when any parallel run's output diverges from
//! serial, when any run's stage breakdown comes back all zeros, or when
//! any per-worker row records no time at all (stage instrumentation
//! going dark) — the determinism guard CI relies on.
//! `--metrics-interval <ms>` streams live registry snapshots as JSONL on
//! stderr while the bench runs, and `--trace <path>` records a Chrome
//! `trace_event` JSON of the timed runs; both perturb timings, so a loud
//! warning fires when either is combined with `--gate`. With `--gate <baseline>`,
//! throughput floors are enforced too: serial records/s must stay within
//! 10% of the committed baseline (like-for-like on core count), on
//! machines with at least 4 cores the per-core-count speedup floors bind
//! (≥1.6× at 2 threads, ≥2.5× at 4), the columnar (`.ltc`) ingest
//! rate must stay at least 2.5× the pcap ingest rate, and the mapped
//! (mmap) `.ltc` decode must stay at least 1.15× the buffered decode on
//! the same warm-cache file — both within-run ratios that bind on every
//! machine. The scaling floors are skipped
//! (loudly) on smaller machines, where wall-clock parallel speedup is
//! physically impossible. `--summary <path>` writes a markdown delta
//! table (fresh vs baseline) suitable for `$GITHUB_STEP_SUMMARY`.

use bench::parallel;
use std::io::Write;
use std::process::exit;

const USAGE: &str = "\
bench_parallel — serial vs block-parallel detector throughput (BENCH_parallel.json)

USAGE: bench_parallel [OPTIONS]

OPTIONS
  --scale <F>             bench trace scale factor (default 0.4)
  --threads <list>        comma-separated worker counts (default 1,2,4,8)
  --repeat <N>            timing repeats, best-of (default 3)
  --out <path>            artifact path (default BENCH_parallel.json)
  --gate <path>           baseline BENCH_parallel.json to enforce floors against
  --summary <path>        write a markdown delta summary (for $GITHUB_STEP_SUMMARY)
  --metrics-interval <ms> stream telemetry snapshots as JSONL on stderr
  --trace <path>          write a Chrome trace_event JSON of the timed runs
  -h, --help              this text
";

/// Minimum acceptable `serial records/s ÷ baseline records/s` under
/// `--gate` — i.e. at most a 10% serial-throughput regression.
const GATE_SERIAL_FLOOR: f64 = 0.9;

/// Per-core-count speedup floors under `--gate`, enforced only when the
/// machine has at least [`GATE_MIN_CORES`] cores: `(threads, min speedup)`.
const GATE_SPEEDUP_FLOORS: [(usize, f64); 2] = [(2, 1.6), (4, 2.5)];

/// Cores needed before the speedup floors are meaningful: with fewer, the
/// OS time-slices the workers onto the same silicon and thread handoff is
/// pure overhead.
const GATE_MIN_CORES: usize = 4;

/// Minimum `columnar ingest records/s ÷ pcap ingest records/s` under
/// `--gate`. Unlike the other floors this ratio is measured within one
/// run on one machine (same trace, same silicon, both single-threaded),
/// so it is machine-independent and binds everywhere — no core-count or
/// baseline-provenance skip applies.
const GATE_COLUMNAR_INGEST_FLOOR: f64 = 2.5;

/// Minimum `mapped .ltc decode records/s ÷ buffered .ltc decode records/s`
/// under `--gate`. Measured within one run against one warm-cache temp
/// file, both arms single-threaded — machine-independent, binds
/// everywhere, no skip path.
const GATE_MMAP_INGEST_FLOOR: f64 = 1.15;

/// Pulls `"serial": {... "records_per_s": <x> ...}` out of a baseline
/// artifact (hand-rolled; the workspace has no serde).
fn extract_serial_rps(json: &str) -> Option<f64> {
    let serial = json.find("\"serial\":")?;
    let rest = &json[serial..];
    let key = "\"records_per_s\":";
    let at = rest.find(key)?;
    let after = &rest[at + key.len()..];
    let end = after.find([',', '}'])?;
    after[..end].trim().parse().ok()
}

/// Pulls the top-level `"cores": <n>` out of a baseline artifact. Absent
/// in artifacts written before the field existed.
fn extract_cores(json: &str) -> Option<usize> {
    let key = "\"cores\":";
    let at = json.find(key)?;
    let after = &json[at + key.len()..];
    let end = after.find([',', '}'])?;
    after[..end].trim().parse().ok()
}

/// Pulls `"ingest_columnar": {... "vs_pcap": <x>}` out of a baseline
/// artifact. Absent in artifacts written before the columnar format.
fn extract_columnar_vs_pcap(json: &str) -> Option<f64> {
    let at = json.find("\"ingest_columnar\":")?;
    let rest = &json[at..];
    let key = "\"vs_pcap\":";
    let k = rest.find(key)?;
    let after = &rest[k + key.len()..];
    let end = after.find([',', '}'])?;
    after[..end].trim().parse().ok()
}

/// Pulls `"ingest_mmap": {... "vs_buffered": <x>}` out of a baseline
/// artifact. Absent in artifacts written before the mmap read path.
fn extract_mmap_vs_buffered(json: &str) -> Option<f64> {
    let at = json.find("\"ingest_mmap\":")?;
    let rest = &json[at..];
    let key = "\"vs_buffered\":";
    let k = rest.find(key)?;
    let after = &rest[k + key.len()..];
    let end = after.find([',', '}'])?;
    after[..end].trim().parse().ok()
}

/// Pulls every `(threads, speedup)` pair out of a baseline artifact's
/// `"parallel"` rows, in document order.
fn extract_speedups(json: &str) -> Vec<(usize, f64)> {
    let Some(start) = json.find("\"parallel\":") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &json[start..];
    while let Some(at) = rest.find("\"threads\":") {
        rest = &rest[at + "\"threads\":".len()..];
        let Some(end) = rest.find([',', '}']) else {
            break;
        };
        let Ok(threads) = rest[..end].trim().parse::<usize>() else {
            continue;
        };
        let Some(sp_at) = rest.find("\"speedup\":") else {
            break;
        };
        let sp_rest = &rest[sp_at + "\"speedup\":".len()..];
        let Some(sp_end) = sp_rest.find([',', '}']) else {
            break;
        };
        if let Ok(speedup) = sp_rest[..sp_end].trim().parse::<f64>() {
            out.push((threads, speedup));
        }
        rest = sp_rest;
    }
    out
}

/// Applies the throughput floors against a baseline document; returns the
/// list of violations (empty = pass).
///
/// The serial floor is *like-for-like*: it only binds when the baseline
/// was measured on a machine with the same core count (absolute records/s
/// from different silicon are not comparable). The speedup floors are
/// machine-relative (parallel vs serial on the SAME silicon) and bind
/// whenever this machine has enough cores for wall-clock speedup to
/// exist at all. Skips are loud, never silent.
fn gate_failures(bench: &parallel::ParallelBench, baseline_json: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let baseline_cores = extract_cores(baseline_json);
    match extract_serial_rps(baseline_json) {
        Some(base_rps) if base_rps > 0.0 => match baseline_cores {
            Some(bc) if bc == bench.cores => {
                let floor = base_rps * GATE_SERIAL_FLOOR;
                if bench.serial_records_per_s < floor {
                    failures.push(format!(
                        "serial throughput regressed: {:.0} records/s < {:.0} \
                         ({}% of baseline {:.0})",
                        bench.serial_records_per_s,
                        floor,
                        (GATE_SERIAL_FLOOR * 100.0) as u32,
                        base_rps
                    ));
                }
            }
            Some(bc) => eprintln!(
                "gate: SKIPPING the serial floor — baseline was measured on \
                 {bc} core(s), this machine has {}; absolute records/s are \
                 not comparable across machines (re-baseline per \
                 EXPERIMENTS.md)",
                bench.cores
            ),
            None => eprintln!(
                "gate: SKIPPING the serial floor — baseline predates the \
                 \"cores\" field, so like-for-like comparison is impossible \
                 (re-baseline per EXPERIMENTS.md)"
            ),
        },
        _ => failures.push("baseline has no parseable serial records_per_s".to_string()),
    }
    // Within-run ratios: no baseline, no skip.
    if bench.columnar_vs_pcap < GATE_COLUMNAR_INGEST_FLOOR {
        failures.push(format!(
            "columnar ingest only {:.2}x the pcap ingest rate, below the \
             {GATE_COLUMNAR_INGEST_FLOOR}x floor ({:.0} vs {:.0} records/s)",
            bench.columnar_vs_pcap, bench.columnar_ingest_records_per_s, bench.ingest_records_per_s
        ));
    }
    if bench.mmap_vs_buffered < GATE_MMAP_INGEST_FLOOR {
        failures.push(format!(
            "mapped .ltc ingest only {:.2}x the buffered rate, below the \
             {GATE_MMAP_INGEST_FLOOR}x floor ({:.0} vs {:.0} records/s)",
            bench.mmap_vs_buffered,
            bench.mmap_ingest_records_per_s,
            bench.buffered_ingest_records_per_s
        ));
    }
    if bench.cores < GATE_MIN_CORES {
        eprintln!(
            "gate: SKIPPING the per-core-count speedup floors — only {} core(s) \
             available (< {GATE_MIN_CORES}), wall-clock parallel speedup is not \
             physically possible here; run on a multi-core machine to enforce \
             scaling",
            bench.cores
        );
        return failures;
    }
    for (threads, floor) in GATE_SPEEDUP_FLOORS {
        match bench.samples.iter().find(|s| s.threads == threads) {
            Some(s) => {
                if s.speedup < floor {
                    failures.push(format!(
                        "{threads}-thread speedup {:.3}x below the {floor}x \
                         floor on a {}-core machine",
                        s.speedup, bench.cores
                    ));
                }
            }
            None => eprintln!(
                "gate: SKIPPING the {threads}-thread speedup floor — no \
                 {threads}-thread sample in this run"
            ),
        }
    }
    failures
}

/// Renders the markdown delta table (fresh vs optional baseline) for the
/// CI step summary.
fn render_summary(bench: &parallel::ParallelBench, baseline_json: Option<&str>) -> String {
    let base_rps = baseline_json.and_then(extract_serial_rps);
    let base_cores = baseline_json.and_then(extract_cores);
    let base_speedups = baseline_json.map(extract_speedups).unwrap_or_default();
    let fmt_delta = |fresh: f64, base: Option<f64>| match base {
        Some(b) if b > 0.0 => format!("{:+.1}%", (fresh / b - 1.0) * 100.0),
        _ => "—".to_string(),
    };
    let mut out = String::new();
    out.push_str("## bench_parallel\n\n");
    out.push_str(&format!(
        "engine `{}` · {} records · {} cores · `{}` · runner `{}`\n\n",
        bench.engine, bench.records, bench.cores, bench.rustc, bench.runner
    ));
    if let Some(bc) = base_cores {
        if bc != bench.cores {
            out.push_str(&format!(
                "> baseline measured on {bc} core(s); absolute throughput \
                 deltas are not like-for-like\n\n"
            ));
        }
    }
    out.push_str("| metric | baseline | fresh | delta |\n");
    out.push_str("|---|---|---|---|\n");
    out.push_str(&format!(
        "| serial records/s | {} | {:.0} | {} |\n",
        base_rps.map_or("—".to_string(), |r| format!("{r:.0}")),
        bench.serial_records_per_s,
        fmt_delta(bench.serial_records_per_s, base_rps)
    ));
    out.push_str(&format!(
        "| ingest records/s | — | {:.0} | — |\n",
        bench.ingest_records_per_s
    ));
    let base_columnar = baseline_json.and_then(extract_columnar_vs_pcap);
    out.push_str(&format!(
        "| columnar ingest records/s | — | {:.0} | — |\n",
        bench.columnar_ingest_records_per_s
    ));
    out.push_str(&format!(
        "| columnar vs pcap | {} | {:.2}x | {} |\n",
        base_columnar.map_or("—".to_string(), |r| format!("{r:.2}x")),
        bench.columnar_vs_pcap,
        fmt_delta(bench.columnar_vs_pcap, base_columnar)
    ));
    let base_mmap = baseline_json.and_then(extract_mmap_vs_buffered);
    out.push_str(&format!(
        "| mmap ingest records/s | — | {:.0} | — |\n",
        bench.mmap_ingest_records_per_s
    ));
    out.push_str(&format!(
        "| mmap vs buffered | {} | {:.2}x | {} |\n",
        base_mmap.map_or("—".to_string(), |r| format!("{r:.2}x")),
        bench.mmap_vs_buffered,
        fmt_delta(bench.mmap_vs_buffered, base_mmap)
    ));
    for s in &bench.samples {
        let base = base_speedups
            .iter()
            .find(|(t, _)| *t == s.threads)
            .map(|&(_, sp)| sp);
        out.push_str(&format!(
            "| {}-thread speedup | {} | {:.3}x | {} |\n",
            s.threads,
            base.map_or("—".to_string(), |b| format!("{b:.3}x")),
            s.speedup,
            fmt_delta(s.speedup, base)
        ));
    }
    out.push_str(&format!(
        "\nall outputs identical to serial: **{}**\n",
        bench.all_identical()
    ));
    out
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.4f64;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut repeats = 3usize;
    let mut out_path = String::from("BENCH_parallel.json");
    let mut gate_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut metrics_interval_ms: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--scale" => {
                scale = it
                    .next()
                    .unwrap_or_else(|| die("--scale needs a value"))
                    .parse()
                    .unwrap_or_else(|_| die("bad --scale"));
                if !scale.is_finite() || scale <= 0.0 {
                    die("--scale must be positive");
                }
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| die("--threads needs a value"));
                threads = v
                    .split(',')
                    .map(|t| match t.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => die("--threads wants positive integers, e.g. 1,2,4,8"),
                    })
                    .collect();
                if threads.is_empty() {
                    die("--threads list is empty");
                }
            }
            "--repeat" => {
                repeats = it
                    .next()
                    .unwrap_or_else(|| die("--repeat needs a value"))
                    .parse()
                    .unwrap_or_else(|_| die("bad --repeat"));
                if repeats == 0 {
                    die("--repeat must be at least 1");
                }
            }
            "--out" => {
                out_path = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a value"))
                    .clone();
            }
            "--gate" => {
                gate_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--gate needs a value"))
                        .clone(),
                );
            }
            "--summary" => {
                summary_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--summary needs a path"))
                        .clone(),
                );
            }
            "--metrics-interval" => {
                let ms: u64 = it
                    .next()
                    .unwrap_or_else(|| die("--metrics-interval needs milliseconds"))
                    .parse()
                    .unwrap_or_else(|_| die("bad --metrics-interval"));
                if ms == 0 {
                    die("--metrics-interval must be at least 1 ms");
                }
                metrics_interval_ms = Some(ms);
            }
            "--trace" => {
                trace_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--trace needs a path"))
                        .clone(),
                );
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    // Read the baseline up front: `--out` may overwrite the same file.
    let baseline_json = gate_path.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: cannot read gate baseline {p}: {e}");
            exit(2);
        })
    });

    if gate_path.is_some() && (metrics_interval_ms.is_some() || trace_path.is_some()) {
        eprintln!(
            "warning: --gate with live observability enabled — sampler/trace \
             overhead perturbs the timed runs; floors are still enforced"
        );
    }
    if trace_path.is_some() {
        telemetry::trace::enable(telemetry::trace::DEFAULT_RING_CAPACITY);
    }
    let sampler = metrics_interval_ms.map(|ms| {
        telemetry::export::Sampler::spawn(
            telemetry::global(),
            std::time::Duration::from_millis(ms),
            Box::new(telemetry::export::JsonlConsumer::new(std::io::stderr())),
        )
    });

    eprintln!("bench_parallel: building the bench trace (scale {scale}) ...");
    let records = parallel::bench_trace(scale);
    eprintln!(
        "bench_parallel: {} records; timing serial + {:?} block workers, best of {}",
        records.len(),
        threads,
        repeats
    );
    let bench = parallel::run_on(&records, &threads, repeats);

    if let Some(s) = sampler {
        if let Err(e) = s.stop() {
            eprintln!("error: metrics export failed: {e}");
            exit(1);
        }
    }
    if let Some(path) = &trace_path {
        telemetry::trace::disable();
        let write = || -> std::io::Result<()> {
            let f = std::fs::File::create(path)?;
            let mut w = std::io::BufWriter::new(f);
            telemetry::trace::write_chrome_trace(&mut w)?;
            w.flush()
        };
        if let Err(e) = write() {
            eprintln!("error: cannot write trace {path}: {e}");
            exit(1);
        }
        eprintln!("wrote trace {path}");
    }

    let json = bench.to_json();
    let mut f = std::fs::File::create(&out_path).unwrap_or_else(|e| {
        eprintln!("error: cannot create {out_path}: {e}");
        exit(1);
    });
    f.write_all(json.as_bytes()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        exit(1);
    });

    if let Some(path) = &summary_path {
        let summary = render_summary(&bench, baseline_json.as_deref());
        std::fs::write(path, summary).unwrap_or_else(|e| {
            eprintln!("error: cannot write summary {path}: {e}");
            exit(1);
        });
        eprintln!("wrote summary {path}");
    }

    eprintln!("engine: {}", bench.engine);
    eprintln!(
        "cores: {} ({} · {})",
        bench.cores, bench.rustc, bench.runner
    );
    eprintln!(
        "ingest: {:.1} records/s ({} records)",
        bench.ingest_records_per_s, bench.ingest_records
    );
    eprintln!(
        "ingest (columnar): {:.1} records/s ({:.2}x pcap)",
        bench.columnar_ingest_records_per_s, bench.columnar_vs_pcap
    );
    eprintln!(
        "ingest (mmap): {:.1} records/s ({:.2}x buffered {:.1})",
        bench.mmap_ingest_records_per_s,
        bench.mmap_vs_buffered,
        bench.buffered_ingest_records_per_s
    );
    eprintln!(
        "serial: {:.1} records/s ({:.2} ms)",
        bench.serial_records_per_s,
        bench.serial_best_ns as f64 / 1e6
    );
    for s in &bench.samples {
        eprintln!(
            "threads {:>2}: {:.1} records/s  speedup {:.2}x  identical: {}",
            s.threads, s.records_per_s, s.speedup, s.identical
        );
    }
    eprintln!("wrote {out_path}");

    if !bench.all_identical() {
        eprintln!("error: parallel output DIVERGED from serial — determinism bug");
        exit(1);
    }
    // An all-zero stage row — or a per-worker row that recorded no time at
    // all — means instrumentation went dark. That is a regression the
    // same way divergent output is.
    for s in &bench.samples {
        if !s.stages.is_empty() && s.stages.iter().all(|&(_, ns)| ns == 0) {
            eprintln!(
                "error: {}-thread stage breakdown is all zeros — stage \
                 instrumentation regressed",
                s.threads
            );
            exit(1);
        }
        if s.any_worker_row_all_zero() {
            eprintln!(
                "error: {}-thread run has an all-zero per-worker row — worker \
                 instrumentation regressed: {:?}",
                s.threads, s.workers
            );
            exit(1);
        }
    }
    if let Some(baseline) = baseline_json {
        let failures = gate_failures(&bench, &baseline);
        if failures.is_empty() {
            eprintln!("gate: throughput floors passed");
        } else {
            for f in &failures {
                eprintln!("gate FAILURE: {f}");
            }
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bench result shaped like a real run at the given core count and
    /// serial throughput, with the given `(threads, speedup)` samples.
    fn fake_bench(
        cores: usize,
        serial_rps: f64,
        speedups: &[(usize, f64)],
    ) -> parallel::ParallelBench {
        parallel::ParallelBench {
            engine: "block",
            records: 1000,
            streams: 3,
            loops: 1,
            cores,
            rustc: "rustc 0.0.0-test".into(),
            runner: "test".into(),
            serial_best_ns: 1_000_000,
            serial_records_per_s: serial_rps,
            serial_stages: vec![],
            ingest_records: 1000,
            ingest_ns: 1_000_000,
            ingest_records_per_s: serial_rps,
            columnar_ingest_ns: 300_000,
            columnar_ingest_records_per_s: serial_rps * 3.0,
            columnar_vs_pcap: 3.0,
            mmap_ingest_records: 1000,
            buffered_ingest_ns: 250_000,
            buffered_ingest_records_per_s: serial_rps * 4.0,
            mmap_ingest_ns: 200_000,
            mmap_ingest_records_per_s: serial_rps * 5.0,
            mmap_vs_buffered: 1.25,
            samples: speedups
                .iter()
                .map(|&(threads, speedup)| parallel::ParallelSample {
                    threads,
                    best_ns: 1_000_000,
                    records_per_s: serial_rps * speedup,
                    speedup,
                    identical: true,
                    stages: vec![],
                    workers: vec![],
                })
                .collect(),
        }
    }

    fn baseline(cores: Option<usize>, rps: f64) -> String {
        let cores_field = cores.map_or(String::new(), |c| format!("  \"cores\": {c},\n"));
        format!(
            "{{\n{cores_field}  \"serial\": {{\"ns\": 1000, \
             \"records_per_s\": {rps:.1}}}\n}}\n"
        )
    }

    #[test]
    fn extract_cores_reads_the_artifact_field() {
        assert_eq!(extract_cores(&baseline(Some(8), 1.0)), Some(8));
        assert_eq!(extract_cores(&baseline(None, 1.0)), None);
    }

    #[test]
    fn extract_speedups_reads_the_parallel_rows() {
        let doc = fake_bench(4, 1000.0, &[(2, 1.8), (4, 2.9)]).to_json();
        assert_eq!(extract_speedups(&doc), vec![(2, 1.8), (4, 2.9)]);
        assert!(extract_speedups("{}").is_empty());
    }

    #[test]
    fn serial_floor_binds_only_like_for_like() {
        // Same core count + regression below 90% of baseline: failure.
        let bench = fake_bench(1, 800.0, &[]);
        let fails = gate_failures(&bench, &baseline(Some(1), 1000.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("serial throughput regressed"));

        // Same core count, within the floor: pass.
        assert!(gate_failures(&fake_bench(1, 950.0, &[]), &baseline(Some(1), 1000.0)).is_empty());

        // Different core count: the serial floor must not bind, however
        // bad the absolute number looks.
        assert!(gate_failures(&bench, &baseline(Some(64), 1000.0)).is_empty());

        // Pre-`cores` baseline: likewise skipped, not failed.
        assert!(gate_failures(&bench, &baseline(None, 1000.0)).is_empty());
    }

    #[test]
    fn speedup_floors_bind_per_core_count() {
        // 4-core machine meeting both floors: pass.
        let good = fake_bench(4, 1000.0, &[(2, 1.7), (4, 2.6)]);
        assert!(gate_failures(&good, &baseline(Some(4), 1000.0)).is_empty());

        // 2-thread floor violated.
        let slow2 = fake_bench(4, 1000.0, &[(2, 1.4), (4, 2.6)]);
        let fails = gate_failures(&slow2, &baseline(Some(4), 1000.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("2-thread speedup"));

        // Both floors violated: both reported.
        let slow = fake_bench(4, 1000.0, &[(2, 1.0), (4, 1.1)]);
        assert_eq!(gate_failures(&slow, &baseline(Some(4), 1000.0)).len(), 2);

        // 1-core machine: floors loudly skipped, never failed.
        let one_core = fake_bench(1, 1000.0, &[(2, 0.5), (4, 0.4)]);
        assert!(gate_failures(&one_core, &baseline(Some(1), 1000.0)).is_empty());
    }

    #[test]
    fn columnar_ingest_floor_is_within_run_and_never_skipped() {
        // Ratio below the floor: failure, even on a 1-core machine.
        let mut bench = fake_bench(1, 1000.0, &[]);
        bench.columnar_vs_pcap = 2.0;
        let fails = gate_failures(&bench, &baseline(Some(1), 1000.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("columnar ingest"));
        // Binds even when the serial floor is skipped (unlike cores /
        // pre-`cores` baseline): the ratio is within-run.
        let fails = gate_failures(&bench, &baseline(None, 1000.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("columnar ingest"));
        // At the floor: pass.
        bench.columnar_vs_pcap = 2.5;
        assert!(gate_failures(&bench, &baseline(Some(1), 1000.0)).is_empty());
    }

    #[test]
    fn extract_columnar_vs_pcap_reads_the_artifact_field() {
        let doc = fake_bench(4, 1000.0, &[]).to_json();
        assert_eq!(extract_columnar_vs_pcap(&doc), Some(3.0));
        assert_eq!(extract_columnar_vs_pcap("{}"), None);
    }

    #[test]
    fn extract_mmap_vs_buffered_reads_the_artifact_field() {
        let doc = fake_bench(4, 1000.0, &[]).to_json();
        assert_eq!(extract_mmap_vs_buffered(&doc), Some(1.25));
        assert_eq!(extract_mmap_vs_buffered("{}"), None);
    }

    #[test]
    fn mmap_ingest_floor_is_within_run_and_never_skipped() {
        // Ratio below the floor: failure, even on a 1-core machine and
        // even against a baseline the serial floor skips.
        let mut bench = fake_bench(1, 1000.0, &[]);
        bench.mmap_vs_buffered = 1.05;
        let fails = gate_failures(&bench, &baseline(Some(1), 1000.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("mapped .ltc ingest"));
        let fails = gate_failures(&bench, &baseline(None, 1000.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("mapped .ltc ingest"));
        // At the floor: pass.
        bench.mmap_vs_buffered = 1.15;
        assert!(gate_failures(&bench, &baseline(Some(1), 1000.0)).is_empty());
    }

    #[test]
    fn unparseable_baseline_is_a_failure_not_a_skip() {
        let fails = gate_failures(&fake_bench(1, 800.0, &[]), "{}");
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("no parseable serial records_per_s"));
    }

    #[test]
    fn summary_renders_deltas_against_the_baseline() {
        let base = fake_bench(4, 1000.0, &[(2, 1.8), (4, 2.9)]).to_json();
        let fresh = fake_bench(4, 1100.0, &[(2, 1.8), (4, 3.2)]);
        let md = render_summary(&fresh, Some(&base));
        assert!(
            md.contains("| serial records/s | 1000 | 1100 | +10.0% |"),
            "{md}"
        );
        assert!(
            md.contains("| 4-thread speedup | 2.900x | 3.200x |"),
            "{md}"
        );
        assert!(md.contains("identical to serial: **true**"), "{md}");
        // Without a baseline, the table renders with em-dash placeholders.
        let solo = render_summary(&fresh, None);
        assert!(
            solo.contains("| serial records/s | — | 1100 | — |"),
            "{solo}"
        );
    }
}
