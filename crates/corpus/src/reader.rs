//! Reading `.ltc` corpus files: block-at-a-time streaming, a pipeline
//! [`RecordSource`], and a parallel whole-file decode.

use crate::columns::decode_columns_push;
use crate::format::{
    block_checksum, block_count, block_len, block_offset, ChecksumRegion, CorpusError, LtcHeader,
    BLOCK_CHECKSUM_LEN, BLOCK_RECORDS, HEADER_LEN,
};
use loopscope::pipeline::{PipelineError, RecordSource, SourceError, SourceSummary};
use loopscope::TraceRecord;
use std::io::{Read, Seek, SeekFrom};
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
    path: PathBuf,
    header: LtcHeader,
    /// Next block to read.
    block: u64,
    /// One past the last block this reader covers.
    end_block: u64,
    /// Whether to verify nothing follows the final block (the whole-file
    /// reader does; range readers of a parallel decode do not own EOF).
    check_trailing: bool,
    /// File offset of the next unread byte.
    offset: u64,
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
        if got < HEADER_LEN {
            return Err(CorpusError::Truncated {
                path,
                offset: 0,
                needed: HEADER_LEN as u64,
                got: got as u64,
            });
        }
        let header = LtcHeader::decode(&head, &path)?;
        let end_block = block_count(header.records);
        Ok(Self {
            src,
            path,
            header,
            block: 0,
            end_block,
            check_trailing: true,
            offset: HEADER_LEN as u64,
            buf: Vec::new(),
        })
    }

    /// A reader over blocks `[first_block, end_block)` of a file whose
    /// header was already validated; `src` must be positioned at
    /// `first_block`'s byte offset. Used by the parallel whole-file
    /// decode — EOF checks are left to the range owning the final block.
    pub fn resume(
        src: R,
        path: impl Into<PathBuf>,
        header: LtcHeader,
        first_block: u64,
        end_block: u64,
    ) -> Self {
        let total = block_count(header.records);
        Self {
            src,
            path: path.into(),
            header,
            block: first_block,
            end_block: end_block.min(total),
            check_trailing: end_block >= total,
            offset: block_offset(first_block),
            buf: Vec::new(),
        }
    }

    /// The validated header.
    pub fn header(&self) -> &LtcHeader {
        &self.header
    }

    /// The file this reader reads (as labelled in errors).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records in block `b`.
    fn block_records(&self, b: u64) -> usize {
        let before = b * BLOCK_RECORDS as u64;
        ((self.header.records - before).min(BLOCK_RECORDS as u64)) as usize
    }

    /// Decodes the next block into `out` (cleared first). Returns `false`
    /// once this reader's blocks are exhausted.
    pub fn next_block_into(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, CorpusError> {
        out.clear();
        if self.block >= self.end_block {
            if self.check_trailing {
                self.check_trailing = false;
                let mut probe = [0u8; 1];
                let extra = read_full(&mut self.src, &mut probe)
                    .map_err(|e| CorpusError::io(&self.path, e))?;
                if extra > 0 {
                    return Err(CorpusError::Corrupt {
                        path: self.path.clone(),
                        offset: self.offset,
                        what: "trailing bytes after the last block",
                    });
                }
            }
            return Ok(false);
        }
        let k = self.block_records(self.block);
        let need = block_len(k);
        self.buf.resize(need, 0);
        let got =
            read_full(&mut self.src, &mut self.buf).map_err(|e| CorpusError::io(&self.path, e))?;
        if got < need {
            return Err(CorpusError::Truncated {
                path: self.path.clone(),
                offset: self.offset,
                needed: need as u64,
                got: got as u64,
            });
        }
        let stored = u64::from_le_bytes(
            self.buf[..BLOCK_CHECKSUM_LEN]
                .try_into()
                .expect("checksum prefix"),
        );
        let computed = block_checksum(self.block, &self.buf[BLOCK_CHECKSUM_LEN..]);
        if stored != computed {
            return Err(CorpusError::ChecksumMismatch {
                path: self.path.clone(),
                offset: self.offset,
                region: ChecksumRegion::Block(self.block),
                expected: stored,
                found: computed,
            });
        }
        decode_columns_push(
            &self.buf[BLOCK_CHECKSUM_LEN..],
            k,
            out,
            &self.path,
            self.offset + BLOCK_CHECKSUM_LEN as u64,
        )?;
        self.offset += need as u64;
        self.block += 1;
        Ok(true)
    }
}

/// A positional-read view over a shared `&File`, starting at `pos`: each
/// range worker of the parallel decode reads through one of these instead
/// of opening its own handle. Unix `read_at` needs no seek, so there is
/// no shared cursor for the workers to race on.
#[cfg(unix)]
struct FileRangeReader<'a> {
    file: &'a std::fs::File,
    pos: u64,
}

#[cfg(unix)]
impl Read for FileRangeReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::os::unix::fs::FileExt;
        let n = self.file.read_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
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
    /// Wraps an already-open reader.
    pub fn from_reader(reader: LtcReader<R>) -> Self {
        Self { reader }
    }

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

/// [`records_from_ltc`] fanned out over `threads` contiguous block
/// ranges — fixed-width blocks make the split offsets pure arithmetic
/// (no header walk). Ranges are concatenated in file order, so the result
/// is identical to the serial read.
///
/// The file is opened exactly once: every range worker reads through a
/// positional view of the same handle (`FileRangeReader`) resumed at
/// its range's byte offset. Only on non-unix hosts, where std has no
/// positional read, does each worker open its own handle.
pub fn records_from_ltc_parallel(
    path: &Path,
    threads: usize,
) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
    let _t = telemetry::span("corpus.read_parallel");
    let file = std::fs::File::open(path).map_err(|e| CorpusError::io(path, e))?;
    let header = *LtcReader::new(std::io::BufReader::new(&file), path)?.header();
    let blocks = block_count(header.records);
    let n = (threads.max(1) as u64).min(blocks.max(1));
    if n <= 1 {
        // Rewind the handle the header probe advanced and decode serially.
        (&file)
            .seek(SeekFrom::Start(0))
            .map_err(|e| CorpusError::io(path, e))?;
        let mut reader = LtcReader::new(std::io::BufReader::new(&file), path)?;
        let mut records = Vec::with_capacity(header.records as usize);
        let mut batch = Vec::new();
        while reader.next_block_into(&mut batch)? {
            records.extend_from_slice(&batch);
        }
        return Ok((records, header.skipped));
    }
    let chunk = blocks.div_ceil(n);
    let file_ref = &file;
    let parts: Vec<Result<Vec<TraceRecord>, CorpusError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(blocks);
                scope.spawn(move || {
                    let mut part = Vec::new();
                    if lo >= hi {
                        return Ok(part);
                    }
                    #[cfg(unix)]
                    let src = std::io::BufReader::new(FileRangeReader {
                        file: file_ref,
                        pos: block_offset(lo),
                    });
                    #[cfg(not(unix))]
                    let src = {
                        let _ = file_ref;
                        let mut f =
                            std::fs::File::open(path).map_err(|e| CorpusError::io(path, e))?;
                        f.seek(SeekFrom::Start(block_offset(lo)))
                            .map_err(|e| CorpusError::io(path, e))?;
                        std::io::BufReader::new(f)
                    };
                    let mut reader = LtcReader::resume(src, path, header, lo, hi);
                    let mut batch = Vec::new();
                    while reader.next_block_into(&mut batch)? {
                        part.extend_from_slice(&batch);
                    }
                    Ok(part)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ltc range reader panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(header.records as usize);
    for part in parts {
        records.append(&mut part?);
    }
    Ok((records, header.skipped))
}
