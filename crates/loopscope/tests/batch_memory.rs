//! Memory bound for the batch engines: a range worker keeps the replica
//! window and the records reconciliation reads, never the trace. What
//! still grows with the trace is the step-2 prefix index (one 16-byte
//! posting per record, in vectors that grow by doubling) and one looped
//! flag per record. A counting global allocator tracks live bytes; the
//! same synthetic workload (64 destination /24s, fixed loop content,
//! growing background traffic) runs through `BlockEngine` at one and two
//! workers at N and 4N records, fed by a source that generates its
//! batches on the fly, and the peak live-heap growth per extra record must
//! stay within 40 bytes. Holding the records themselves (56 bytes each)
//! would break it.

use loopscope::analysis::AnalysisAccumulator;
use loopscope::pipeline::{
    run_pipeline, BlockEngine, PipelineError, RecordSource, Sink, SourceSummary,
};
use loopscope::{DetectorConfig, PipelineResult, TraceRecord};
use net_types::{Packet, TcpFlags};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live =
                LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst) + layout.size() as isize;
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live-heap growth (bytes above the starting level) while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (isize, R) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let r = f();
    (PEAK.load(Ordering::SeqCst) - before, r)
}

const BATCH: usize = 512;
const SPACING_NS: u64 = 1_000_000; // one background record per ms
const LOOPS: usize = 8;

/// Generates records on the fly — never holds more than one batch — so
/// whatever grows with the trace in a run is the engine's.
struct SynthSource {
    total: usize,
    templates: Vec<TraceRecord>, // one background packet per /24
    loop_records: Vec<TraceRecord>,
}

impl SynthSource {
    fn new(total: usize) -> Self {
        let mut templates = Vec::new();
        for i in 0..64u8 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 3, i, 1),
                Ipv4Addr::new(10, i, 0, 9),
                50_000,
                443,
                TcpFlags::ACK,
                &b"bg"[..],
            );
            p.ip.ttl = 57;
            p.fill_checksums();
            templates.push(TraceRecord::from_packet(0, &p));
        }
        // Fixed loop content near the trace start: 8 loops of 5 sightings.
        let mut loop_records = Vec::new();
        for j in 0..LOOPS {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 5, 0, 1),
                Ipv4Addr::new(203, 0, j as u8, 7),
                40_000,
                80,
                TcpFlags::ACK,
                &b"lp"[..],
            );
            p.ip.ident = 700 + j as u16;
            p.ip.ttl = 60;
            p.fill_checksums();
            let base = 5_000_000 + j as u64 * 60_000_000;
            for k in 0..5u64 {
                if k > 0 {
                    assert!(p.ip.decrement_ttl());
                    assert!(p.ip.decrement_ttl());
                }
                loop_records.push(TraceRecord::from_packet(base + k * 3_000_000, &p));
            }
        }
        Self {
            total,
            templates,
            loop_records,
        }
    }
}

impl RecordSource for SynthSource {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        let mut batch: Vec<TraceRecord> = Vec::with_capacity(BATCH);
        let mut loop_iter = self.loop_records.iter().copied().peekable();
        let mut emitted = 0u64;
        let mut i = 0usize;
        while i < self.total {
            batch.clear();
            while i < self.total && batch.len() < BATCH {
                let ts = i as u64 * SPACING_NS;
                while loop_iter.peek().is_some_and(|r| r.timestamp_ns <= ts) {
                    batch.push(loop_iter.next().unwrap());
                    emitted += 1;
                }
                let mut rec = self.templates[i % self.templates.len()];
                rec.timestamp_ns = ts;
                rec.ident = (i / self.templates.len()) as u16;
                batch.push(rec.with_fingerprint());
                emitted += 1;
                i += 1;
            }
            f(&batch)?;
        }
        Ok(SourceSummary {
            records: emitted,
            skipped: 0,
        })
    }
}

fn detect(total: usize, threads: usize) -> (isize, PipelineResult) {
    peak_during(|| {
        let mut source = SynthSource::new(total);
        let mut engine = BlockEngine::new(DetectorConfig::default(), threads);
        let mut acc = AnalysisAccumulator::new();
        let mut sinks: Vec<&mut dyn Sink> = vec![&mut acc];
        run_pipeline(&mut source, &mut engine, &mut sinks).expect("pipeline run")
    })
}

#[test]
fn batch_peak_memory_per_record_excludes_the_records() {
    let n = 60_000usize;
    for threads in [1, 2] {
        // Warm-up run so one-time allocations (thread-locals, telemetry
        // registries) don't count against the short run.
        let _ = detect(n / 4, threads);
        let (peak_short, short) = detect(n, threads);
        let (peak_long, long) = detect(4 * n, threads);

        assert_eq!(short.loops, long.loops, "threads={threads}");
        assert_eq!(short.streams, long.streams, "threads={threads}");
        assert_eq!(short.loops.len(), LOOPS, "threads={threads}: fixture loops");
        assert_eq!(long.records, short.records + 3 * n as u64);

        let per_record = (peak_long - peak_short) as f64 / (3 * n) as f64;
        assert!(
            per_record <= 40.0,
            "threads={threads}: peak heap grows {per_record:.1} B per record \
             ({peak_short} B at {n} records, {peak_long} B at {})",
            4 * n
        );
    }
}
