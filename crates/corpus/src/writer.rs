//! Writing `.ltc` corpus files, block by block.
//!
//! One writer serves every caller. [`LtcWriter`] takes a stream's blocks
//! as they arrive, after a zeroed header placeholder, and
//! [`LtcWriter::finish`] returns the header that belongs over it: a
//! streamed capture's record count is known only at its end.
//! [`PendingLtc`] publishes a file: the blocks go to a temporary file
//! beside the destination, the header lands at offset 0 with one
//! positional write, and only then is the file renamed into place. A
//! failed write removes the temporary file and leaves the destination as
//! it was.

use crate::columns::encode_block;
use crate::format::{
    block_checksum, CorpusError, LtcHeader, BLOCK_CHECKSUM_LEN, BLOCK_RECORDS, HEADER_LEN,
};
use loopscope::TraceRecord;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Streams `.ltc` blocks to a sink. Every block but the last holds
/// exactly [`BLOCK_RECORDS`] records; the bytes depend on the records
/// and the skip count alone.
pub struct LtcWriter<W: Write> {
    sink: W,
    blocks: u64,
    records: u64,
    /// The block being written: its checksum, then its column data.
    bytes: Vec<u8>,
}

impl<W: Write> LtcWriter<W> {
    /// Starts a file on `sink` with a zeroed header placeholder.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(&[0; HEADER_LEN])?;
        Ok(Self {
            sink,
            blocks: 0,
            records: 0,
            bytes: Vec::new(),
        })
    }

    /// Encodes, checksums and writes one block. An empty block writes
    /// nothing.
    ///
    /// # Panics
    ///
    /// If a block follows one of fewer than [`BLOCK_RECORDS`] records, or
    /// holds more: the format fixes every block's place by arithmetic.
    pub fn write_block(&mut self, records: &[TraceRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        assert!(
            records.len() <= BLOCK_RECORDS && self.records.is_multiple_of(BLOCK_RECORDS as u64),
            "only the last .ltc block may be short"
        );
        self.bytes.clear();
        self.bytes.resize(BLOCK_CHECKSUM_LEN, 0);
        encode_block(records, &mut self.bytes);
        let sum = block_checksum(self.blocks, &self.bytes[BLOCK_CHECKSUM_LEN..]);
        self.bytes[..BLOCK_CHECKSUM_LEN].copy_from_slice(&sum.to_le_bytes());
        self.sink.write_all(&self.bytes)?;
        self.blocks += 1;
        self.records += records.len() as u64;
        Ok(())
    }

    /// Flushes the blocks and returns the sink with the header that
    /// belongs at offset 0 (the source's skip count included).
    pub fn finish(mut self, skipped: u64) -> io::Result<(W, LtcHeader)> {
        self.sink.flush()?;
        Ok((self.sink, LtcHeader::new(self.records, skipped)))
    }
}

/// A `.ltc` file being written: a temporary file beside its destination,
/// renamed into place by [`PendingLtc::publish`]. Dropped unpublished, it
/// removes the temporary file; the destination is never opened.
pub struct PendingLtc {
    file: File,
    tmp: PathBuf,
    dst: PathBuf,
    published: bool,
}

impl PendingLtc {
    /// Creates the temporary file beside `dst`. An existing `dst` that is
    /// not a regular file (a directory, a device) is refused: publishing
    /// would replace it.
    pub fn create(dst: &Path) -> Result<Self, CorpusError> {
        let refuse = |what| CorpusError::io(dst, io::Error::new(io::ErrorKind::InvalidInput, what));
        if std::fs::metadata(dst).is_ok_and(|meta| !meta.is_file()) {
            return Err(refuse("exists and is not a regular file"));
        }
        let name = dst.file_name().ok_or_else(|| refuse("names no file"))?;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let tmp = dst.with_file_name(format!(
                ".{}.{}-{}.tmp",
                name.to_string_lossy(),
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            match OpenOptions::new().write(true).create_new(true).open(&tmp) {
                Ok(file) => {
                    return Ok(Self {
                        file,
                        tmp,
                        dst: dst.to_path_buf(),
                        published: false,
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(CorpusError::io(dst, e)),
            }
        }
    }

    /// The temporary file, to write the blocks to.
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Writes `header` at offset 0 with one positional write, then
    /// renames the file into place.
    pub fn publish(mut self, header: &LtcHeader) -> Result<(), CorpusError> {
        let io = |e| CorpusError::io(&self.dst, e);
        write_all_at(&self.file, &header.encode(), 0).map_err(io)?;
        std::fs::rename(&self.tmp, &self.dst).map_err(io)?;
        self.published = true;
        Ok(())
    }
}

impl Drop for PendingLtc {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

#[cfg(not(unix))]
fn write_all_at(mut file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

/// Writes `records` as the blocks of one image on `sink`.
fn write_blocks<W: Write>(
    sink: W,
    records: &[TraceRecord],
    skipped: u64,
) -> io::Result<(W, LtcHeader)> {
    let mut writer = LtcWriter::new(sink)?;
    for block in records.chunks(BLOCK_RECORDS) {
        writer.write_block(block)?;
    }
    writer.finish(skipped)
}

/// Writes `records` (plus the source's skip count) to a `.ltc` file at
/// `path` in one call, published as [`PendingLtc`] does, with errors
/// naming the file. Returns the record count.
pub fn write_ltc_file(
    path: &Path,
    records: &[TraceRecord],
    skipped: u64,
) -> Result<u64, CorpusError> {
    let out = PendingLtc::create(path)?;
    let (_, header) =
        write_blocks(out.file(), records, skipped).map_err(|e| CorpusError::io(path, e))?;
    out.publish(&header)?;
    Ok(header.records)
}

/// Serialises records to an in-memory `.ltc` image (tests, benches).
pub fn ltc_to_vec(records: &[TraceRecord], skipped: u64) -> Vec<u8> {
    let (mut out, header) =
        write_blocks(Vec::new(), records, skipped).expect("in-memory write cannot fail");
    out[..HEADER_LEN].copy_from_slice(&header.encode());
    out
}
