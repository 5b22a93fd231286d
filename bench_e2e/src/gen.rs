//! Seeded input generation. Every input is simulated once per seed from
//! the `routing_loops::backbone` specs and written as capture files; the
//! programs under test only ever see those files.

use routing_loops::backbone::{paper_backbones, run_backbone, BackboneSpec};
use routing_loops::convert::{write_tap_to_pcap, PAPER_SNAPLEN};
use routing_loops::loopscope::{Detector, DetectorConfig, TraceRecord};
use routing_loops::simnet::SimDuration;
use std::collections::HashSet;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// Input sizes. `Full` is what the benchmark measures; `Tiny` exists for
/// the self-test, which must finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(Size::Full),
            "tiny" => Ok(Size::Tiny),
            other => Err(format!("unknown size {other:?} (full|tiny)")),
        }
    }

    /// Scale of the offline trace (1.0 = the 300 s Backbone 2 trace).
    fn offline_scale(self) -> f64 {
        match self {
            Size::Full => 0.6,
            Size::Tiny => 0.05,
        }
    }

    /// Monitored links: at least two per worker.
    pub fn links(self) -> usize {
        match self {
            Size::Full => 640,
            Size::Tiny => 4,
        }
    }
}

/// SplitMix64: derives independent per-input seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The offline trace: one loop-dense busy link shaped like Backbone 2.
/// It has no EGP withdrawals: `run_backbone` schedules those after every
/// IGP failure, which would pile the popular prefixes' loops into the
/// trace's last third, so the block engine's two halves (and the batch
/// lag) would differ from seed to seed with how much traffic they caught.
pub fn offline_spec(seed: u64, size: Size) -> BackboneSpec {
    let scale = size.offline_scale();
    let mut spec = paper_backbones(scale).remove(1);
    spec.seed = mix(seed, 2);
    spec.igp_failures = per_duration(OFFLINE_IGP_PER_300S, scale);
    spec.egp_withdrawals = 0;
    spec.fib_jitter = SimDuration::from_millis(OFFLINE_FIB_JITTER_MS);
    spec
}

/// Scripted IGP failures per 300 s of trace, with fast convergence. Both
/// inputs hold many short loops rather than a few long ones: detection
/// cost grows with the loop traffic, and over hundreds of independent
/// loop episodes that traffic (and so the cost of a run) varies little
/// from seed to seed, where a handful of long loops would make it hinge
/// on how many flows those few happened to catch. The offline rate gives
/// about 6% replica sightings.
const OFFLINE_IGP_PER_300S: f64 = 333.0;
const OFFLINE_FIB_JITTER_MS: u64 = 75;
const LINK_IGP_PER_300S: f64 = 120.0;
const LINK_FIB_JITTER_MS: u64 = 150;

/// Scale of each monitored link (1.0 = the 300 s Backbone 3 trace).
/// Per-record monitor cost grows with a link's length, so the length is
/// fixed and load is added as links.
const LINK_SCALE: f64 = 0.025;

/// A failure count for a trace of `scale` × 300 s, never below one.
fn per_duration(per_300s: f64, scale: f64) -> usize {
    ((per_300s * scale).round() as usize).max(1)
}

/// Monitored link `i`: Backbone 3 shape (many /24s, fast convergence,
/// short loops), equal length on every link, its own derived seed.
pub fn link_spec(seed: u64, i: usize) -> BackboneSpec {
    let mut spec = paper_backbones(LINK_SCALE).remove(2);
    spec.seed = mix(seed, 3 + i as u64);
    spec.igp_failures = per_duration(LINK_IGP_PER_300S, LINK_SCALE);
    spec.fib_jitter = SimDuration::from_millis(LINK_FIB_JITTER_MS);
    spec.name = format!("link-{i:03}");
    spec
}

/// Facts about one generated capture, recorded in the input manifest.
pub struct TraceFacts {
    pub file: String,
    pub records: usize,
    pub bytes: u64,
    pub looped_sightings: u64,
    pub slash24s: usize,
    pub trace_s: f64,
    /// Timestamp of the last record, seconds.
    pub end_s: f64,
}

impl TraceFacts {
    fn json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"records\":{},\"bytes\":{},\"looped_sightings\":{},\"looped_share\":{:.6},\"slash24s\":{},\"trace_s\":{:.3},\"end_s\":{:.6}}}",
            self.file,
            self.records,
            self.bytes,
            self.looped_sightings,
            self.looped_sightings as f64 / self.records.max(1) as f64,
            self.slash24s,
            self.trace_s,
            self.end_s
        )
    }
}

fn simulate_to_pcap(spec: &BackboneSpec, path: &Path) -> Result<TraceFacts, String> {
    let run = run_backbone(spec);
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_tap_to_pcap(&run.tap, PAPER_SNAPLEN, &mut w).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut w).map_err(|e| e.to_string())?;
    drop(w);
    Ok(facts(path, &run.records))
}

fn facts(path: &Path, records: &[TraceRecord]) -> TraceFacts {
    let looped = Detector::new(DetectorConfig::default())
        .run(records)
        .stats
        .looped_sightings;
    let slash24s: HashSet<_> = records.iter().map(TraceRecord::dst_slash24).collect();
    let span = match (records.first(), records.last()) {
        (Some(a), Some(b)) => b.timestamp_ns - a.timestamp_ns,
        _ => 0,
    };
    TraceFacts {
        file: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
        records: records.len(),
        bytes: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
        looped_sightings: looped,
        slash24s: slash24s.len(),
        trace_s: span as f64 / 1e9,
        end_s: records.last().map_or(0.0, |r| r.timestamp_ns as f64 / 1e9),
    }
}

/// Identifies the generator's output for `kind` and `size` apart from the
/// seed, so a cache of generated inputs can tell when it is stale.
pub fn fingerprint(kind: &str, size: Size) -> Result<u64, String> {
    let specs = match kind {
        "offline" => format!("{:?}", offline_spec(0, size)),
        "monitor" => format!(
            "{:?}",
            (0..size.links())
                .map(|i| link_spec(0, i))
                .collect::<Vec<_>>()
        ),
        other => return Err(format!("unknown input kind {other:?} (offline|monitor)")),
    };
    // FNV-1a over the specs plus the capture format.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in specs.bytes().chain(PAPER_SNAPLEN.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Ok(h)
}

/// Writes `trace.pcap` (offline) or `link-NNN.pcap` files (monitor) into
/// `dir` plus `manifest.json` describing them.
pub fn generate(kind: &str, seed: u64, size: Size, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let traces: Vec<TraceFacts> = match kind {
        "offline" => vec![simulate_to_pcap(
            &offline_spec(seed, size),
            &dir.join("trace.pcap"),
        )?],
        "monitor" => {
            let paths: Vec<PathBuf> = (0..size.links())
                .map(|i| dir.join(format!("link-{i:03}.pcap")))
                .collect();
            // Links are independent simulations: two at a time.
            let next = std::sync::atomic::AtomicUsize::new(0);
            let results: Vec<std::sync::Mutex<Option<Result<TraceFacts, String>>>> =
                paths.iter().map(|_| std::sync::Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(path) = paths.get(i) else { break };
                        let r = simulate_to_pcap(&link_spec(seed, i), path);
                        *results[i].lock().expect("result slot") = Some(r);
                    });
                }
            });
            results
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("result slot")
                        .expect("every link ran")
                })
                .collect::<Result<_, _>>()?
        }
        other => return Err(format!("unknown input kind {other:?} (offline|monitor)")),
    };
    let total = |f: fn(&TraceFacts) -> u64| traces.iter().map(f).sum::<u64>();
    let records = total(|t| t.records as u64);
    let looped = total(|t| t.looped_sightings);
    let manifest = format!(
        "{{\"kind\":\"{kind}\",\"seed\":{seed},\"size\":\"{size:?}\",\"links\":{},\"records\":{records},\"bytes\":{},\"looped_sightings\":{looped},\"looped_share\":{:.6},\"slash24s\":{},\"trace_s\":{:.3},\"trace_end_s\":{:.6},\"traces\":[{}]}}\n",
        traces.len(),
        total(|t| t.bytes),
        looped as f64 / records.max(1) as f64,
        total(|t| t.slash24s as u64),
        traces.iter().map(|t| t.trace_s).fold(0.0, f64::max),
        traces.iter().map(|t| t.end_s).fold(0.0, f64::max),
        traces.iter().map(TraceFacts::json).collect::<Vec<_>>().join(",")
    );
    std::fs::write(dir.join("manifest.json"), manifest).map_err(|e| e.to_string())
}
