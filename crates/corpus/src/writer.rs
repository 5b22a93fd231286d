//! Writing `.ltc` corpus files.

use crate::columns::encode_block;
use crate::format::{block_checksum, CorpusError, LtcHeader, BLOCK_RECORDS};
use loopscope::TraceRecord;
use std::io::Write;
use std::path::Path;

/// Writes `records` (plus the source's skip count) as a `.ltc` image to
/// `sink`: the final header, then each block encoded straight from the
/// slice. The bytes depend on the records and the skip count alone.
fn write_ltc<W: Write>(sink: &mut W, records: &[TraceRecord], skipped: u64) -> std::io::Result<()> {
    sink.write_all(&LtcHeader::new(records.len() as u64, skipped).encode())?;
    let mut block = Vec::new();
    for (b, chunk) in records.chunks(BLOCK_RECORDS).enumerate() {
        block.clear();
        encode_block(chunk, &mut block);
        sink.write_all(&block_checksum(b as u64, &block).to_le_bytes())?;
        sink.write_all(&block)?;
    }
    sink.flush()
}

/// Writes `records` (plus the source's skip count) to a `.ltc` file at
/// `path` in one call, with errors naming the file. Returns the record
/// count.
pub fn write_ltc_file(
    path: &Path,
    records: &[TraceRecord],
    skipped: u64,
) -> Result<u64, CorpusError> {
    let io = |e| CorpusError::io(path, e);
    let file = std::fs::File::create(path).map_err(io)?;
    write_ltc(&mut std::io::BufWriter::new(file), records, skipped).map_err(io)?;
    Ok(records.len() as u64)
}

/// Serialises records to an in-memory `.ltc` image (tests, benches).
pub fn ltc_to_vec(records: &[TraceRecord], skipped: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_ltc(&mut out, records, skipped).expect("in-memory write cannot fail");
    out
}
