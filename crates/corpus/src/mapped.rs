//! Zero-copy `.ltc` ingest over a shared memory mapping.
//!
//! [`MappedLtc`] maps a corpus file once ([`mmapio::Mmap`]) and validates
//! header and per-block checksums directly against the mapping; column
//! lanes decode straight out of the page cache with no block buffer, no
//! per-block `read` syscall, and no intermediate batch copy. Because the
//! format's block/record addressing is pure arithmetic, a block's bytes
//! are `&map[block_offset(b)..][..block_len(k)]` — so N parallel workers
//! ([`MappedLtc::read_ranges`]) decode disjoint block ranges of ONE
//! shared mapping with zero per-worker file handles, each block into its
//! range's consumer. [`MappedColumnarSource`] has the batch engines' range
//! scans take each block as it is decoded, from one reused buffer per
//! worker; [`records_from_ltc_mmap_parallel`] collects the ranges and
//! joins them for callers that want one vector.
//!
//! Error semantics are the buffered [`LtcReader`]'s by construction: both
//! readers hand their bytes to the same block check (the crate's
//! `LtcLayout`, which owns the header, block-length, block-checksum and
//! trailing-bytes rules), so every defect surfaces as the same typed
//! [`CorpusError`] naming the file and byte offset (truncation is
//! discovered at the first incomplete block, trailing bytes after the
//! last block, checksums per block in file order).
//!
//! The buffered path stays fully supported — `--no-mmap` in the CLIs, the
//! [`IngestMode`] switch here — both as the ablation arm of the ingest
//! bench and as the fallback when a file cannot be mapped (exotic
//! filesystems, non-unix hosts where [`mmapio`] degrades to an owned
//! buffer read). Its batch-engine read fans out over block ranges too, one
//! file handle and read buffer per worker.
//!
//! [`LtcReader`]: crate::reader::LtcReader

use crate::format::{
    block_offset, expected_file_len, CorpusError, LtcHeader, LtcLayout, BLOCK_RECORDS, ROW_BYTES,
};
use crate::reader::{records_from_ltc, to_source_error};
use loopscope::block::{RangeScan, ScanStart};
use loopscope::pipeline::{PipelineError, RecordSource, SourceSummary};
use loopscope::segment::{decode_parallel, DecodeControl, RangeConsumer, RangeEnd, Ranges};
use loopscope::TraceRecord;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use telemetry::LazyCounter;

static TM_MAPS: LazyCounter = LazyCounter::new("ingest.mmap.maps");
static TM_BYTES: LazyCounter = LazyCounter::new("ingest.mmap.bytes");
static TM_FALLBACKS: LazyCounter = LazyCounter::new("ingest.mmap.fallbacks");
static TM_BLOCKS: LazyCounter = LazyCounter::new("ingest.mmap.blocks_decoded");

/// Which `.ltc` read path a decode should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Decode from a shared memory mapping (the default); falls back to
    /// buffered reads — counted in `ingest.mmap.fallbacks` — if the file
    /// cannot be mapped.
    #[default]
    Mmap,
    /// Buffered `Read` through [`LtcReader`](crate::reader::LtcReader)
    /// (the `--no-mmap` ablation path).
    Buffered,
}

/// A `.ltc` corpus file behind one shared read-only mapping, with the
/// header validated. Cheap to clone (the mapping is `Arc`-shared), `Send`
/// + `Sync`, so block-range workers can decode one mapping concurrently.
#[derive(Clone)]
pub struct MappedLtc {
    map: Arc<mmapio::Mmap>,
    layout: LtcLayout,
}

impl MappedLtc {
    /// Maps the file and validates its header. Fails with [`CorpusError::Io`]
    /// when the file cannot be opened *or mapped* — callers wanting a
    /// buffered fallback match on that variant.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        let _t = telemetry::span("ingest.mmap.map");
        let file = std::fs::File::open(path).map_err(|e| CorpusError::io(path, e))?;
        let map = mmapio::Mmap::map(&file).map_err(|e| CorpusError::io(path, e))?;
        // Bulk scans read front to back; say so, and start faulting now.
        map.advise(mmapio::Advice::Sequential);
        map.advise(mmapio::Advice::WillNeed);
        TM_MAPS.inc();
        TM_BYTES.add(map.len() as u64);
        let layout = LtcLayout::parse(path.to_path_buf(), &map)?;
        Ok(Self {
            map: Arc::new(map),
            layout,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &LtcHeader {
        &self.layout.header
    }

    /// The file this mapping reads (as labelled in errors).
    pub fn path(&self) -> &Path {
        &self.layout.path
    }

    /// Whether the backing is a real kernel mapping (false: the
    /// owned-buffer fallback `mmapio` uses on non-unix hosts).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Number of blocks in the file.
    pub fn blocks(&self) -> u64 {
        self.layout.blocks()
    }

    /// The mapped bytes from `offset` to the end (empty past the end).
    fn tail(&self, offset: u64) -> &[u8] {
        usize::try_from(offset)
            .ok()
            .and_then(|o| self.map.get(o..))
            .unwrap_or_default()
    }

    /// Decodes block `b` appended to `out` (verifying its checksum), then
    /// releases the block's pages from the resident set: a whole-file
    /// decode holds the mapping's unread part and the decoded records,
    /// not both in full.
    pub fn decode_block_into(&self, b: u64, out: &mut Vec<TraceRecord>) -> Result<(), CorpusError> {
        let offset = block_offset(b);
        self.layout.decode_block(b, self.tail(offset), out)?;
        let end = block_offset(b + 1);
        self.map.release(offset as usize..end as usize);
        TM_BLOCKS.inc();
        Ok(())
    }

    /// Verifies nothing follows the final block — the mapped equivalent
    /// of the buffered reader's EOF probe.
    fn check_end(&self) -> Result<(), CorpusError> {
        self.layout
            .check_end(self.tail(expected_file_len(self.header().records)))
    }

    /// Decodes blocks `[first, end)` into `consumer`, one block per
    /// chunk; the range owning the final block also verifies nothing
    /// trails it. Stops early when the consumer refuses a block or
    /// `control` asks after one. Returns how the range ended and the time
    /// spent decoding.
    fn read_range<C: RangeConsumer>(
        &self,
        first: u64,
        end: u64,
        consumer: &mut C,
        control: &DecodeControl,
    ) -> Result<(RangeEnd, u64), CorpusError> {
        let mut decode_ns = 0;
        for b in first..end {
            let started = Instant::now();
            self.decode_block_into(b, consumer.chunk_buffer())?;
            decode_ns += started.elapsed().as_nanos() as u64;
            if consumer.take_chunk().is_break() {
                return Ok((RangeEnd::Refused, decode_ns));
            }
            let rows = self.layout.block_records(b) as u64;
            if control.advance(rows).is_break() && b + 1 < end {
                return Ok((RangeEnd::Stopped, decode_ns));
            }
        }
        if end >= self.blocks() {
            self.check_end()?;
        }
        Ok((RangeEnd::Complete, decode_ns))
    }

    /// Reads the whole file as up to `parts` trace-ordered ranges:
    /// contiguous block ranges of the one mapping, each decoded by its own
    /// thread into a consumer from `start`, while the calling thread polls
    /// `poll` (see [`decode_parallel`]). The error reported is the first in
    /// file order; a stop request leaves the ranges before the first
    /// stopped one and that one's decoded blocks, marked `interrupted`.
    /// The workers' decode time is the `ingest.mmap.decode` timer.
    pub fn read_ranges<C: RangeConsumer>(
        &self,
        parts: usize,
        start: &(dyn Fn() -> C + Sync),
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<C>, CorpusError> {
        let blocks = self.blocks();
        let n = (parts.max(1) as u64).min(blocks.max(1));
        let chunk = blocks.div_ceil(n);
        // Records before block `b`, capped by what the mapping can hold so
        // a corrupt record count cannot size an allocation.
        let fits = self.map.len() as u64 / ROW_BYTES as u64;
        let rows = |b: u64| {
            b.saturating_mul(BLOCK_RECORDS as u64)
                .min(self.header().records.min(fits))
        };
        let read = decode_parallel("ltc-r", n as usize, poll, |w, control| {
            let (lo, hi) = (w as u64 * chunk, ((w as u64 + 1) * chunk).min(blocks));
            let mut consumer = start();
            consumer.expect(rows(hi).saturating_sub(rows(lo)) as usize);
            let end = self.read_range(lo, hi, &mut consumer, control);
            consumer.end();
            (consumer, end)
        });
        let mut ranges = Ranges::new(self.header().skipped);
        for (consumer, end) in read {
            let (end, decode_ns) = end?;
            telemetry::global()
                .timer("ingest.mmap.decode")
                .record(decode_ns);
            if ranges.push(consumer, end).is_break() {
                break;
            }
        }
        Ok(ranges)
    }
}

impl std::fmt::Debug for MappedLtc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedLtc")
            .field("path", &self.path())
            .field("records", &self.header().records)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A pipeline [`RecordSource`] streaming a mapped `.ltc` file block by
/// block — the zero-copy twin of [`ColumnarSource`](crate::reader::ColumnarSource),
/// delivering identical batches.
pub struct MappedColumnarSource {
    ltc: MappedLtc,
}

impl MappedColumnarSource {
    /// Maps a corpus file (validates the header).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        Ok(Self {
            ltc: MappedLtc::open(path)?,
        })
    }

    /// The corpus header.
    pub fn header(&self) -> &LtcHeader {
        self.ltc.header()
    }
}

impl RecordSource for MappedColumnarSource {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        let _t = telemetry::span("corpus.read");
        let _tm = telemetry::span("ingest.mmap.decode");
        let mut batch = Vec::new();
        let mut summary = SourceSummary {
            records: 0,
            skipped: self.ltc.header().skipped,
        };
        for b in 0..self.ltc.blocks() {
            batch.clear();
            self.ltc
                .decode_block_into(b, &mut batch)
                .map_err(to_source_error)?;
            summary.records += batch.len() as u64;
            f(&batch)?;
        }
        self.ltc.check_end().map_err(to_source_error)?;
        Ok(summary)
    }

    fn scan(
        &mut self,
        parts: usize,
        start: &ScanStart<'_>,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<RangeScan>, PipelineError> {
        self.ltc
            .read_ranges(parts, start, poll)
            .map_err(to_source_error)
    }

    fn skipped_hint(&self) -> u64 {
        self.ltc.header().skipped
    }
}

/// Whole-file decode through the mapping: `(records, conversion-time skip
/// count)`. Identical output to [`records_from_ltc`], with no block
/// buffer and no batch-to-output copy.
pub fn records_from_ltc_mmap(path: &Path) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
    records_from_ltc_mmap_parallel(path, 1)
}

/// [`records_from_ltc_mmap`] fanned out over `threads` contiguous block
/// ranges of ONE shared mapping ([`MappedLtc::read_ranges`], each range
/// collected into its own vector) — no per-worker file handles, no seeks,
/// no read buffers. The ranges are joined in file order, so the result is
/// identical to the serial read; one range is moved, not copied.
pub fn records_from_ltc_mmap_parallel(
    path: &Path,
    threads: usize,
) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
    let _t = telemetry::span(if threads > 1 {
        "corpus.read_parallel"
    } else {
        "corpus.read"
    });
    let ranges = MappedLtc::open(path)?
        .read_ranges(threads, &Vec::new, &mut |_| ControlFlow::Continue(()))?;
    let skipped = ranges.skipped;
    Ok((ranges.concat(), skipped))
}

/// Counts and reports a failed mapping before the caller retries with
/// buffered reads.
fn note_fallback(path: &Path) {
    TM_FALLBACKS.inc();
    telemetry::tm_warn!(
        "mmap unavailable for {}; falling back to buffered reads",
        path.display()
    );
}

/// Whole-file decode with the preferred backend: the shared mapping under
/// [`IngestMode::Mmap`], fanned out over `threads` contiguous block ranges
/// (buffered fallback, counted, when mapping fails); the serial buffered
/// reader under [`IngestMode::Buffered`], whatever `threads` says.
pub fn records_from_ltc_with(
    path: &Path,
    threads: usize,
    mode: IngestMode,
) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
    match mode {
        IngestMode::Mmap => match records_from_ltc_mmap_parallel(path, threads) {
            Ok(out) => Ok(out),
            Err(CorpusError::Io { .. }) => {
                // The file could not be mapped (or vanished mid-open); the
                // buffered path either succeeds or produces the
                // authoritative error.
                note_fallback(path);
                records_from_ltc(path)
            }
            Err(e) => Err(e),
        },
        IngestMode::Buffered => records_from_ltc(path),
    }
}

/// Opens a `.ltc` file as a boxed pipeline source with the preferred
/// backend ([`MappedColumnarSource`] / [`crate::ColumnarSource`]), with the same
/// fallback rule as [`records_from_ltc_with`].
pub fn open_ltc_source(
    path: &Path,
    mode: IngestMode,
) -> Result<Box<dyn RecordSource>, CorpusError> {
    match mode {
        IngestMode::Mmap => match MappedColumnarSource::open(path) {
            Ok(src) => Ok(Box::new(src)),
            Err(CorpusError::Io { .. }) => {
                note_fallback(path);
                Ok(Box::new(crate::reader::ColumnarSource::open(path)?))
            }
            Err(e) => Err(e),
        },
        IngestMode::Buffered => Ok(Box::new(crate::reader::ColumnarSource::open(path)?)),
    }
}
