//! Reading `.ltc` corpus files through buffered `Read`: block-at-a-time
//! streaming, a pipeline [`RecordSource`] whose batch-engine read fans
//! out over block ranges, each worker with its own file handle, and a
//! serial whole-file decode.
//!
//! This is the `--no-mmap` path and the fallback when a file cannot be
//! mapped. Every format rule it applies — header, block length, block
//! checksum, trailing bytes — lives in the crate's `LtcLayout`, which the
//! mapped reader uses too, so both report the same error at the same
//! offset.

use crate::format::{block_len, block_offset, CorpusError, LtcHeader, LtcLayout, HEADER_LEN};
use loopscope::block::{RangeScan, ScanStart};
use loopscope::pipeline::{PipelineError, RecordSource, SourceError, SourceSummary};
use loopscope::segment::{decode_parallel, DecodeControl, RangeConsumer, RangeEnd, Ranges};
use loopscope::TraceRecord;
use std::io::{Read, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

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
pub struct LtcReader<R: Read> {
    src: R,
    layout: LtcLayout,
    /// Next block to read.
    block: u64,
    /// The block this reader stops before: the file's block count, or a
    /// block range's end.
    end: u64,
    /// Whether the end-of-file check (no trailing bytes) has run.
    at_end: bool,
    buf: Vec<u8>,
}

impl LtcReader<std::io::BufReader<std::fs::File>> {
    /// Opens a corpus file and validates its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| CorpusError::io(path, e))?;
        Self::new(std::io::BufReader::new(file), path)
    }
}

impl<R: Read> LtcReader<R> {
    /// Wraps a readable positioned at offset 0; `path` labels errors.
    pub fn new(mut src: R, path: impl Into<PathBuf>) -> Result<Self, CorpusError> {
        let path = path.into();
        let mut head = [0u8; HEADER_LEN];
        let got = read_full(&mut src, &mut head).map_err(|e| CorpusError::io(&path, e))?;
        let layout = LtcLayout::parse(path, &head[..got])?;
        Ok(Self {
            src,
            end: layout.blocks(),
            layout,
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
    /// once the file's blocks are exhausted.
    pub fn next_block_into(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, CorpusError> {
        out.clear();
        self.append_next_block(out)
    }

    /// Decodes the next block appended to `out`. Returns `false` once the
    /// reader's blocks are exhausted; a reader that ends at the file's
    /// last block then checks that nothing trails it.
    fn append_next_block(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, CorpusError> {
        if self.block >= self.end {
            if self.end == self.layout.blocks() && !self.at_end {
                self.at_end = true;
                let mut probe = [0u8; 1];
                let extra = read_full(&mut self.src, &mut probe)
                    .map_err(|e| CorpusError::io(&self.layout.path, e))?;
                self.layout.check_end(&probe[..extra])?;
            }
            return Ok(false);
        }
        self.buf
            .resize(block_len(self.layout.block_records(self.block)), 0);
        let got = read_full(&mut self.src, &mut self.buf)
            .map_err(|e| CorpusError::io(&self.layout.path, e))?;
        self.layout
            .decode_block(self.block, &self.buf[..got], out)?;
        self.block += 1;
        Ok(true)
    }
}

/// Maps a corpus defect into the pipeline's source-error channel. The
/// full typed message (file, offset, region) rides along verbatim.
pub(crate) fn to_source_error(e: CorpusError) -> PipelineError {
    PipelineError::Source(SourceError::Io(std::io::Error::other(e)))
}

/// Reads blocks `[first, end)` of the file `layout` validated into
/// `consumer`, one block per chunk, through a file handle of its own; the
/// range owning the final block also verifies nothing trails it. Stops
/// early when the consumer refuses a block or `control` asks after one.
fn read_block_range<C: RangeConsumer>(
    layout: &LtcLayout,
    (first, end): (u64, u64),
    consumer: &mut C,
    control: &DecodeControl,
) -> Result<RangeEnd, CorpusError> {
    let io = |e| CorpusError::io(&layout.path, e);
    let mut file = std::fs::File::open(&layout.path).map_err(io)?;
    file.seek(SeekFrom::Start(block_offset(first)))
        .map_err(io)?;
    let mut reader = LtcReader {
        src: std::io::BufReader::new(file),
        layout: layout.clone(),
        block: first,
        end,
        at_end: false,
        buf: Vec::new(),
    };
    for b in first..end {
        reader.append_next_block(consumer.chunk_buffer())?;
        if consumer.take_chunk().is_break() {
            return Ok(RangeEnd::Refused);
        }
        let rows = layout.block_records(b) as u64;
        if control.advance(rows).is_break() && b + 1 < end {
            return Ok(RangeEnd::Stopped);
        }
    }
    reader.append_next_block(consumer.chunk_buffer())?;
    Ok(RangeEnd::Complete)
}

/// Reads the file `layout` validated as up to `parts` trace-ordered block
/// ranges, each on its own thread with its own file handle, into a
/// consumer from `start`, while the calling thread polls `poll`. The
/// error reported is the first in file order, as for the mapped
/// [`crate::MappedLtc::read_ranges`].
fn read_ranges<C: RangeConsumer>(
    layout: &LtcLayout,
    parts: usize,
    start: &(dyn Fn() -> C + Sync),
    poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
) -> Result<Ranges<C>, CorpusError> {
    let blocks = layout.blocks();
    let n = (parts.max(1) as u64).min(blocks.max(1));
    let chunk = blocks.div_ceil(n);
    let read = decode_parallel("ltc-b", n as usize, poll, |w, control| {
        let bounds = (w as u64 * chunk, ((w as u64 + 1) * chunk).min(blocks));
        let mut consumer = start();
        let end = read_block_range(layout, bounds, &mut consumer, control);
        consumer.end();
        (consumer, end)
    });
    let mut ranges = Ranges::new(layout.header.skipped);
    for (consumer, end) in read {
        if ranges.push(consumer, end?).is_break() {
            break;
        }
    }
    Ok(ranges)
}

/// A pipeline [`RecordSource`] streaming a `.ltc` corpus file block by
/// block — fixed-width rows, no header walk, no per-record hashing (the
/// fingerprint column was computed at conversion). The batch engines have
/// it read the file as block ranges, one worker and file handle each.
pub struct ColumnarSource<R: Read> {
    reader: LtcReader<R>,
}

impl ColumnarSource<std::io::BufReader<std::fs::File>> {
    /// Opens a corpus file (validates the header).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        Ok(Self {
            reader: LtcReader::open(path)?,
        })
    }
}

impl<R: Read> ColumnarSource<R> {
    /// The corpus header.
    pub fn header(&self) -> &LtcHeader {
        self.reader.header()
    }
}

impl<R: Read> RecordSource for ColumnarSource<R> {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        let _t = telemetry::span("corpus.read");
        let mut batch = Vec::new();
        let mut summary = SourceSummary {
            records: 0,
            // Conversion-time drops, so the pipeline summary matches a
            // streamed read of the source capture.
            skipped: self.reader.header().skipped,
        };
        while self
            .reader
            .next_block_into(&mut batch)
            .map_err(to_source_error)?
        {
            summary.records += batch.len() as u64;
            f(&batch)?;
        }
        Ok(summary)
    }

    fn scan(
        &mut self,
        parts: usize,
        start: &ScanStart<'_>,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<RangeScan>, PipelineError> {
        read_ranges(&self.reader.layout, parts, start, poll).map_err(to_source_error)
    }

    fn skipped_hint(&self) -> u64 {
        self.reader.header().skipped
    }
}

/// Serial whole-file decode: `(records, conversion-time skip count)`.
pub fn records_from_ltc(path: &Path) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
    let _t = telemetry::span("corpus.read");
    let mut reader = LtcReader::open(path)?;
    let skipped = reader.header().skipped;
    let mut records = Vec::with_capacity(reader.header().records as usize);
    let mut batch = Vec::new();
    while reader.next_block_into(&mut batch)? {
        records.extend_from_slice(&batch);
    }
    Ok((records, skipped))
}
