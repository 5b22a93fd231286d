//! Reading `.ltc` corpus files: one reader, two places a block's bytes
//! come from.
//!
//! [`LtcFile`] is an open corpus with its header validated, and the one
//! `.ltc` pipeline [`RecordSource`]. Its block bytes come either from a
//! shared read-only mapping ([`mmapio::Mmap`], the default) or from
//! buffered `Read` through an [`LtcReader`] (`--no-mmap`, and the
//! fallback when a file cannot be mapped). Everything else is shared:
//! one block-range loop decodes blocks `[first, end)` into a
//! [`RangeConsumer`], one block at a time, and one fan-out
//! ([`LtcFile::read_ranges`]) runs up to N such ranges on as many
//! threads. The batch engines' range scans, the whole-file decode
//! ([`records_from_ltc_with`]), the batches of
//! [`RecordSource::for_each_batch`] and [`LtcFile::read_blocks`] (both
//! the whole file as one range, on the calling thread; the latter is
//! `pcap2ltc --verify`'s re-read) all go through that loop.
//!
//! Because the format's block addressing is pure arithmetic, a mapped
//! range reads `&map[block_offset(b)..]` with no file handle, no seek and
//! no block buffer, and releases each block's pages once it is decoded; a
//! buffered range opens the file and seeks to its first block. Every
//! format rule — header, the version's row width, block length, block
//! checksum, trailing bytes — lives in the crate's `LtcLayout`, which
//! both hand their bytes to, so every defect surfaces as the same typed
//! [`CorpusError`] naming the file and byte offset whichever way the
//! bytes came (truncation at the first incomplete block, trailing bytes
//! after the last block, checksums per block in file order).

use crate::format::{CorpusError, LtcHeader, LtcLayout, BLOCK_RECORDS, HEADER_LEN};
use loopscope::block::{RangeScan, ScanStart};
use loopscope::pipeline::{PipelineError, RecordSource, SourceError, SourceSummary};
use loopscope::segment::{
    decode_parallel, BatchFeed, DecodeControl, RangeConsumer, RangeEnd, Ranges,
};
use loopscope::TraceRecord;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use telemetry::LazyCounter;

static TM_MAPS: LazyCounter = LazyCounter::new("ingest.mmap.maps");
static TM_BYTES: LazyCounter = LazyCounter::new("ingest.mmap.bytes");
static TM_FALLBACKS: LazyCounter = LazyCounter::new("ingest.mmap.fallbacks");
static TM_BLOCKS: LazyCounter = LazyCounter::new("ingest.mmap.blocks_decoded");

/// Reads as much as possible into `buf`; returns how many bytes landed
/// (short only at end of input).
fn read_full<R: Read>(src: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        let m = src.read(&mut buf[n..])?;
        if m == 0 {
            break;
        }
        n += m;
    }
    Ok(n)
}

/// A streaming `.ltc` reader: validates the header up front, then yields
/// one decoded block per call. All defects surface as [`CorpusError`]s
/// naming the file and byte offset — never a panic, never a silent short
/// read (the final block is length- and checksum-verified like any other).
/// It is the buffered backend of [`LtcFile`], one per block range.
pub struct LtcReader<R: Read> {
    src: R,
    layout: LtcLayout,
    /// Next block to read.
    block: u64,
    /// Whether the end-of-file check (no trailing bytes) has run.
    at_end: bool,
    buf: Vec<u8>,
}

impl LtcReader<BufReader<File>> {
    /// Opens a corpus file and validates its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| CorpusError::io(path, e))?;
        Self::new(BufReader::new(file), path)
    }
}

impl<R: Read> LtcReader<R> {
    /// Wraps a readable positioned at offset 0; `path` labels errors.
    pub fn new(mut src: R, path: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        let path = path.into();
        let mut head = [0u8; HEADER_LEN];
        let got = read_full(&mut src, &mut head).map_err(|e| CorpusError::io(&path, e))?;
        Ok(Self {
            src,
            layout: LtcLayout::parse(path, &head[..got])?,
            block: 0,
            at_end: false,
            buf: Vec::new(),
        })
    }

    /// The validated header.
    pub fn header(&self) -> &LtcHeader {
        &self.layout.header
    }

    /// The file this reader reads (as labelled in errors).
    pub fn path(&self) -> &Path {
        &self.layout.path
    }

    /// Decodes the next block into `out` (cleared first). Returns `false`
    /// once the file's blocks are exhausted, after checking that nothing
    /// trails the last one.
    pub fn next_block_into(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, CorpusError> {
        out.clear();
        if self.block < self.layout.blocks() {
            self.append_block(out)?;
            return Ok(true);
        }
        if !self.at_end {
            self.at_end = true;
            self.check_end()?;
        }
        Ok(false)
    }

    /// Decodes the next block appended to `out`.
    fn append_block(&mut self, out: &mut Vec<TraceRecord>) -> Result<(), CorpusError> {
        self.buf.resize(self.layout.block_len(self.block), 0);
        let got = read_full(&mut self.src, &mut self.buf)
            .map_err(|e| CorpusError::io(&self.layout.path, e))?;
        self.layout
            .decode_block(self.block, &self.buf[..got], out)?;
        self.block += 1;
        Ok(())
    }

    /// Checks that nothing follows the last block, read just now.
    fn check_end(&mut self) -> Result<(), CorpusError> {
        let mut probe = [0u8; 1];
        let extra = read_full(&mut self.src, &mut probe)
            .map_err(|e| CorpusError::io(&self.layout.path, e))?;
        self.layout.check_end(&probe[..extra])
    }
}

/// Which `.ltc` read path a decode should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Decode from a shared memory mapping (the default); falls back to
    /// buffered reads — counted in `ingest.mmap.fallbacks` — if the file
    /// cannot be mapped.
    #[default]
    Mmap,
    /// Buffered `Read` through [`LtcReader`] (the `--no-mmap` ablation
    /// path).
    Buffered,
}

/// Where one block range's bytes come from.
enum Blocks<'a> {
    /// Slices of the shared mapping.
    Mapped(&'a mmapio::Mmap),
    /// A buffered reader of the range's own, seeked to its first block.
    Buffered(LtcReader<BufReader<File>>),
}

/// The mapped bytes from `offset` to the end (empty past the end).
fn tail(map: &mmapio::Mmap, offset: u64) -> &[u8] {
    usize::try_from(offset)
        .ok()
        .and_then(|o| map.get(o..))
        .unwrap_or_default()
}

/// An open `.ltc` corpus file with its header validated: the one `.ltc`
/// reader and pipeline source. Cheap to clone (a mapping is `Arc`-shared),
/// `Send` + `Sync`, so block-range workers read one file concurrently.
#[derive(Clone)]
pub struct LtcFile {
    layout: LtcLayout,
    /// The shared mapping; `None` reads through buffered `Read`.
    map: Option<Arc<mmapio::Mmap>>,
    /// The file's length in bytes, which caps every capacity hint: a
    /// corrupt record count sizes no allocation.
    len: u64,
}

impl LtcFile {
    /// Opens a corpus file with the preferred backend and validates its
    /// header. Under [`IngestMode::Mmap`] a file that cannot be opened or
    /// mapped is read buffered instead (counted and logged); the buffered
    /// open then succeeds or reports the authoritative io error. Format
    /// errors never fall back: a second reader would only blur the
    /// diagnostic.
    pub fn open(path: impl AsRef<Path>, mode: IngestMode) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        if mode == IngestMode::Mmap {
            match Self::map(path) {
                Err(CorpusError::Io { .. }) => {
                    TM_FALLBACKS.inc();
                    telemetry::tm_warn!(
                        "mmap unavailable for {}; falling back to buffered reads",
                        path.display()
                    );
                }
                mapped => return mapped,
            }
        }
        let reader = LtcReader::open(path)?;
        let meta = reader.src.get_ref().metadata();
        Ok(Self {
            layout: reader.layout,
            map: None,
            len: meta.map_err(|e| CorpusError::io(path, e))?.len(),
        })
    }

    /// Maps the file, advises a front-to-back read that starts faulting
    /// now, and validates the header against the mapping.
    fn map(path: &Path) -> Result<Self, CorpusError> {
        let _t = telemetry::span("ingest.mmap.map");
        let file = File::open(path).map_err(|e| CorpusError::io(path, e))?;
        let map = mmapio::Mmap::map(&file).map_err(|e| CorpusError::io(path, e))?;
        map.advise(mmapio::Advice::Sequential);
        map.advise(mmapio::Advice::WillNeed);
        TM_MAPS.inc();
        TM_BYTES.add(map.len() as u64);
        Ok(Self {
            layout: LtcLayout::parse(path.to_path_buf(), &map)?,
            len: map.len() as u64,
            map: Some(Arc::new(map)),
        })
    }

    /// The validated header.
    pub fn header(&self) -> &LtcHeader {
        &self.layout.header
    }

    /// The file this reader reads (as labelled in errors).
    pub fn path(&self) -> &Path {
        &self.layout.path
    }

    /// Number of blocks in the file.
    pub fn blocks(&self) -> u64 {
        self.layout.blocks()
    }

    /// The byte source of a range starting at block `first`.
    fn blocks_from(&self, first: u64) -> Result<Blocks<'_>, CorpusError> {
        if let Some(map) = &self.map {
            return Ok(Blocks::Mapped(map));
        }
        let io = |e| CorpusError::io(&self.layout.path, e);
        let mut file = File::open(&self.layout.path).map_err(io)?;
        file.seek(SeekFrom::Start(self.layout.block_offset(first)))
            .map_err(io)?;
        Ok(Blocks::Buffered(LtcReader {
            src: BufReader::new(file),
            layout: self.layout.clone(),
            block: first,
            at_end: false,
            buf: Vec::new(),
        }))
    }

    /// Decodes block `b` appended to `out`. A mapped block's pages then
    /// leave the resident set: a whole-file decode holds the mapping's
    /// unread part and the decoded records, not both in full.
    fn decode_block(
        &self,
        blocks: &mut Blocks<'_>,
        b: u64,
        out: &mut Vec<TraceRecord>,
    ) -> Result<(), CorpusError> {
        match blocks {
            Blocks::Buffered(reader) => reader.append_block(out),
            Blocks::Mapped(map) => {
                let offset = self.layout.block_offset(b);
                self.layout.decode_block(b, tail(map, offset), out)?;
                map.release(offset as usize..self.layout.block_offset(b + 1) as usize);
                TM_BLOCKS.inc();
                Ok(())
            }
        }
    }

    /// Decodes blocks `[first, end)` into `consumer`, one block per
    /// chunk: the one block-range loop. The range owning the final block
    /// also verifies nothing trails it. Stops early when the consumer
    /// refuses a block or `control` asks after one. A mapped range's
    /// decode time, without the consumer's, is the `ingest.mmap.decode`
    /// timer.
    fn read_range<C: RangeConsumer>(
        &self,
        (first, end): (u64, u64),
        consumer: &mut C,
        control: &DecodeControl,
    ) -> Result<RangeEnd, CorpusError> {
        let mut blocks = self.blocks_from(first)?;
        let mut decode_ns = 0;
        let mut ended = RangeEnd::Complete;
        for b in first..end {
            let started = Instant::now();
            self.decode_block(&mut blocks, b, consumer.chunk_buffer())?;
            decode_ns += started.elapsed().as_nanos() as u64;
            if consumer.take_chunk().is_break() {
                ended = RangeEnd::Refused;
                break;
            }
            let rows = self.layout.block_records(b) as u64;
            if control.advance(rows).is_break() && b + 1 < end {
                ended = RangeEnd::Stopped;
                break;
            }
        }
        if ended == RangeEnd::Complete && end >= self.blocks() {
            match &mut blocks {
                Blocks::Buffered(reader) => reader.check_end()?,
                Blocks::Mapped(map) => self.layout.check_end(tail(map, self.layout.file_len()))?,
            }
        }
        if self.map.is_some() {
            telemetry::global()
                .timer("ingest.mmap.decode")
                .record(decode_ns);
        }
        Ok(ended)
    }

    /// Decodes every block into `consumer`, in file order on the calling
    /// thread: the block-range loop over the whole file. A refused block
    /// ends the read there.
    pub fn read_blocks<C: RangeConsumer>(&self, consumer: &mut C) -> Result<(), CorpusError> {
        let whole = (0, self.blocks());
        self.read_range(whole, consumer, &DecodeControl::default())
            .map(drop)
    }

    /// Reads the whole file as up to `parts` trace-ordered ranges:
    /// contiguous block ranges, each read by its own thread into a
    /// consumer from `start`, while the calling thread polls `poll` (see
    /// [`decode_parallel`]). The error reported is the first in file
    /// order; a stop request leaves the ranges before the first stopped
    /// one and that one's decoded blocks, marked `interrupted`.
    pub fn read_ranges<C: RangeConsumer + Send>(
        &self,
        parts: usize,
        start: &(dyn Fn() -> C + Sync),
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<C>, CorpusError> {
        let blocks = self.blocks();
        let n = (parts.max(1) as u64).min(blocks.max(1));
        let chunk = blocks.div_ceil(n);
        // Records before block `b`, capped by what the file can hold.
        let fits = self.len / self.layout.row as u64;
        let rows = |b: u64| {
            b.saturating_mul(BLOCK_RECORDS as u64)
                .min(self.header().records.min(fits))
        };
        let read = decode_parallel("ltc-r", n as usize, poll, |w, control| {
            let bounds = (w as u64 * chunk, ((w as u64 + 1) * chunk).min(blocks));
            let mut consumer = start();
            consumer.expect(rows(bounds.1).saturating_sub(rows(bounds.0)) as usize);
            let end = self.read_range(bounds, &mut consumer, control);
            consumer.end();
            (consumer, end)
        });
        let mut ranges = Ranges::new(self.header().skipped);
        for (consumer, end) in read {
            if ranges.push(consumer, end?).is_break() {
                break;
            }
        }
        Ok(ranges)
    }
}

impl std::fmt::Debug for LtcFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LtcFile")
            .field("path", &self.path())
            .field("records", &self.header().records)
            .field("mapped", &self.map.is_some())
            .finish()
    }
}

/// Maps a corpus defect into the pipeline's source-error channel. The
/// full typed message (file, offset, region) rides along verbatim.
fn to_source_error(e: CorpusError) -> PipelineError {
    PipelineError::Source(SourceError::Io(std::io::Error::other(e)))
}

/// Fixed-width rows, no header walk, no per-packet header parsing (each
/// record's fingerprint is derived from its decoded key fields): batches
/// are the whole file read as one range on the calling thread, one block
/// per batch, and the batch engines read it as block ranges, one worker
/// each.
impl RecordSource for LtcFile {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        let _t = telemetry::span("corpus.read");
        let whole = (0, self.blocks());
        let records = BatchFeed::run(f, |feed, control| {
            self.read_range(whole, feed, control)
                .map_err(to_source_error)
        })?;
        // Conversion-time drops, so the pipeline summary matches a
        // streamed read of the source capture.
        Ok(SourceSummary {
            records,
            skipped: self.header().skipped,
        })
    }

    fn scan(
        &mut self,
        parts: usize,
        start: &ScanStart<'_>,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<RangeScan>, PipelineError> {
        self.read_ranges(parts, start, poll)
            .map_err(to_source_error)
    }

    fn skipped_hint(&self) -> u64 {
        self.header().skipped
    }
}

/// Whole-file decode, `(records, conversion-time skip count)`, fanned out
/// over `threads` contiguous block ranges ([`LtcFile::read_ranges`], each
/// range collected into its own vector) and joined in file order, so the
/// result does not depend on `threads`; one range is moved, not copied.
/// `mode` picks the backend, with [`LtcFile::open`]'s fallback.
pub fn records_from_ltc_with(
    path: &Path,
    threads: usize,
    mode: IngestMode,
) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
    let _t = telemetry::span(if threads > 1 {
        "corpus.read_parallel"
    } else {
        "corpus.read"
    });
    let ranges = LtcFile::open(path, mode)?
        .read_ranges(threads, &Vec::new, &mut |_| ControlFlow::Continue(()))?;
    let skipped = ranges.skipped;
    Ok((ranges.concat(), skipped))
}

/// Opens a `.ltc` file as a boxed pipeline source ([`LtcFile::open`]).
pub fn open_ltc_source(
    path: &Path,
    mode: IngestMode,
) -> Result<Box<dyn RecordSource>, CorpusError> {
    Ok(Box::new(LtcFile::open(path, mode)?))
}
