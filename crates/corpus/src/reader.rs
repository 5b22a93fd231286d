//! Reading `.ltc` corpus files through buffered `Read`: block-at-a-time
//! streaming, a pipeline [`RecordSource`], and a serial whole-file decode.
//!
//! This is the `--no-mmap` path and the fallback when a file cannot be
//! mapped. Every format rule it applies — header, block length, block
//! checksum, trailing bytes — lives in the crate's `LtcLayout`, which the
//! mapped reader uses too, so both report the same error at the same
//! offset.

use crate::format::{block_len, CorpusError, LtcHeader, LtcLayout, HEADER_LEN};
use loopscope::pipeline::{PipelineError, RecordSource, SourceError, SourceSummary};
use loopscope::TraceRecord;
use std::io::Read;
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
    /// once the file's blocks are exhausted.
    pub fn next_block_into(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, CorpusError> {
        out.clear();
        if self.block >= self.layout.blocks() {
            if !self.at_end {
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

/// A pipeline [`RecordSource`] streaming a `.ltc` corpus file block by
/// block — fixed-width rows, no header walk, no per-record hashing (the
/// fingerprint column was computed at conversion).
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
