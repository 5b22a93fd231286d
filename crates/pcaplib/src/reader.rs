//! Streaming pcap reader.
//!
//! Two read paths share one block-buffered core:
//!
//! * [`PcapReader::read_into`] — the zero-allocation path. The caller owns
//!   a reusable [`RecordBuf`] whose inline storage covers any sane snap
//!   length (the paper's traces are 40-byte captures); scanning a full
//!   trace performs **no per-record heap allocations**, which
//!   `tests/zero_alloc.rs` enforces with a counting allocator.
//! * [`PcapReader::next_packet`] — the convenience path, which copies the
//!   record into an owned [`CapturedPacket`]. Same parsing, one `Vec`
//!   allocation per record.
//!
//! The source is consumed through a fixed block buffer (one `read`
//! syscall per `BLOCK_LEN` bytes rather than two per record), so both
//! paths are fast even over unbuffered files.
//!
//! Readers on different threads share the process-wide counters, so a
//! reader counts records and truncations locally and adds them to
//! `pcap.records_total` / `pcap.truncated_records` every
//! [`PUBLISH_EVERY`] records, at end-of-file and when it is dropped.
//! `pcap.malformed_records` is rare and published at once.

use crate::format::{FileHeader, PcapError, RecordHeader, FILE_HEADER_LEN, RECORD_HEADER_LEN};
use crate::CapturedPacket;
use std::io::Read;
use telemetry::{tm_warn, LazyCounter};

static TM_RECORDS_TOTAL: LazyCounter = LazyCounter::new("pcap.records_total");
static TM_TRUNCATED: LazyCounter = LazyCounter::new("pcap.truncated_records");
static TM_MALFORMED: LazyCounter = LazyCounter::new("pcap.malformed_records");

/// An upper bound on per-record capture length used to reject corrupt files
/// before allocating absurd buffers. Generous enough for jumbo frames and
/// full-packet captures.
pub(crate) const MAX_SANE_CAPLEN: u32 = 256 * 1024;

/// Records a reader reads between publications of its local counts to
/// `pcap.records_total` and `pcap.truncated_records`.
pub const PUBLISH_EVERY: u64 = 4096;

/// Bytes read from the source per refill of the internal block buffer.
const BLOCK_LEN: usize = 64 * 1024;

/// Captured bytes held inline in a [`RecordBuf`] before spilling to its
/// heap buffer. Sized to cover the paper's 40-byte snap length (and any
/// header-only capture) with slack.
pub const INLINE_RECORD_CAP: usize = 64;

/// A reusable record buffer for the zero-allocation read path.
///
/// Captures of up to [`INLINE_RECORD_CAP`] bytes land in a fixed inline
/// array; longer records spill into an internal `Vec` whose capacity is
/// retained across records, so even the spill path stops allocating after
/// the largest record has been seen once.
///
/// Contents are only meaningful after a [`PcapReader::read_into`] call
/// that returned `Ok(true)`; a failed read leaves the buffer unspecified.
#[derive(Debug, Clone)]
pub struct RecordBuf {
    timestamp_ns: u64,
    orig_len: u32,
    len: u32,
    inline: [u8; INLINE_RECORD_CAP],
    spill: Vec<u8>,
}

impl RecordBuf {
    /// An empty buffer; no heap allocation until a record spills past
    /// [`INLINE_RECORD_CAP`] bytes.
    pub fn new() -> Self {
        Self {
            timestamp_ns: 0,
            orig_len: 0,
            len: 0,
            inline: [0u8; INLINE_RECORD_CAP],
            spill: Vec::new(),
        }
    }

    /// Nanoseconds since the trace epoch of the last record read.
    pub fn timestamp_ns(&self) -> u64 {
        self.timestamp_ns
    }

    /// Original on-the-wire length of the last record read.
    pub fn orig_len(&self) -> u32 {
        self.orig_len
    }

    /// The captured bytes of the last record read.
    pub fn data(&self) -> &[u8] {
        let n = self.len as usize;
        if n <= INLINE_RECORD_CAP {
            &self.inline[..n]
        } else {
            &self.spill[..n]
        }
    }

    /// True when the capture was cut short by the snap length.
    pub fn is_truncated(&self) -> bool {
        self.len < self.orig_len
    }

    /// True when the last record was too large for the inline array and
    /// lives in the spill buffer.
    pub fn is_spilled(&self) -> bool {
        self.len as usize > INLINE_RECORD_CAP
    }

    /// Copies the buffer out into an owned [`CapturedPacket`].
    pub fn to_packet(&self) -> CapturedPacket {
        CapturedPacket {
            timestamp_ns: self.timestamp_ns,
            orig_len: self.orig_len,
            data: self.data().to_vec(),
        }
    }
}

impl Default for RecordBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads a classic pcap file from any [`Read`] source.
///
/// Iterate allocation-free with [`PcapReader::read_into`], or via
/// [`PcapReader::next_packet`] / the [`Iterator`] impl (which yield owned
/// packets).
pub struct PcapReader<R: Read> {
    source: R,
    header: FileHeader,
    records_read: u64,
    /// Records and truncated records read since the counters were last
    /// published.
    unpublished_records: u64,
    unpublished_truncated: u64,
    /// Block buffer: `block[pos..filled]` is unconsumed source data.
    block: Box<[u8]>,
    pos: usize,
    filled: usize,
}

impl<R: Read> PcapReader<R> {
    /// Opens the stream: reads and validates the global header.
    pub fn new(mut source: R) -> Result<Self, PcapError> {
        let mut buf = [0u8; FILE_HEADER_LEN];
        source.read_exact(&mut buf)?;
        let header = FileHeader::decode(&buf)?;
        Ok(Self {
            source,
            header,
            records_read: 0,
            unpublished_records: 0,
            unpublished_truncated: 0,
            block: vec![0u8; BLOCK_LEN].into_boxed_slice(),
            pos: 0,
            filled: 0,
        })
    }

    /// Resumes reading mid-stream: `source` must be positioned at a
    /// record boundary of a capture whose global header is `header`
    /// (typically a [`crate::split::SplitPoint`] offset from a
    /// [`crate::split::BlockIndex`] scan). The reader behaves exactly as
    /// if the records before the boundary did not exist — bound the
    /// source (e.g. [`Read::take`]) to stop at a range end.
    pub fn resume(source: R, header: FileHeader) -> Self {
        Self {
            source,
            header,
            records_read: 0,
            unpublished_records: 0,
            unpublished_truncated: 0,
            block: vec![0u8; BLOCK_LEN].into_boxed_slice(),
            pos: 0,
            filled: 0,
        }
    }

    /// The decoded file header.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// Number of records read so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Copies up to `out.len()` bytes out of the block buffer, refilling
    /// it from the source as needed. Returns the bytes copied — short only
    /// at end-of-file.
    fn read_from_block(&mut self, out: &mut [u8]) -> Result<usize, PcapError> {
        let mut copied = 0;
        while copied < out.len() {
            if self.pos == self.filled {
                let n = self.source.read(&mut self.block)?;
                if n == 0 {
                    return Ok(copied);
                }
                self.pos = 0;
                self.filled = n;
            }
            let take = (out.len() - copied).min(self.filled - self.pos);
            out[copied..copied + take].copy_from_slice(&self.block[self.pos..self.pos + take]);
            self.pos += take;
            copied += take;
        }
        Ok(copied)
    }

    /// Reads the next record into `buf`, reusing its storage; `Ok(false)`
    /// at clean end-of-file. This is the zero-allocation scan path: with
    /// captures at or below [`INLINE_RECORD_CAP`] bytes nothing touches
    /// the heap, and oversize records reuse `buf`'s spill capacity.
    ///
    /// A partial record header at EOF is reported as corruption, not EOF —
    /// a trace cut off mid-record should never be silently accepted.
    // Inlined into the callers' per-record loops: left to the compiler,
    // `loopmond` called it out of line and used about 3% more CPU.
    #[inline]
    pub fn read_into(&mut self, buf: &mut RecordBuf) -> Result<bool, PcapError> {
        let mut hdr_buf = [0u8; RECORD_HEADER_LEN];
        let got = self.read_from_block(&mut hdr_buf)?;
        if got == 0 {
            self.publish_counts();
            return Ok(false);
        }
        if got < RECORD_HEADER_LEN {
            TM_MALFORMED.inc();
            tm_warn!(
                "EOF inside record header after {} records",
                self.records_read
            );
            return Err(PcapError::Corrupt("EOF inside record header"));
        }
        let rec = RecordHeader::decode(&hdr_buf, self.header.swapped);
        if rec.incl_len > MAX_SANE_CAPLEN {
            TM_MALFORMED.inc();
            tm_warn!("oversized record ({} bytes) rejected", rec.incl_len);
            return Err(PcapError::OversizedRecord(rec.incl_len));
        }
        if rec.incl_len > rec.orig_len {
            TM_MALFORMED.inc();
            return Err(PcapError::Corrupt("incl_len exceeds orig_len"));
        }
        let n = rec.incl_len as usize;
        let got = if n <= INLINE_RECORD_CAP {
            self.read_from_block(&mut buf.inline[..n])?
        } else {
            buf.spill.resize(n, 0);
            self.read_from_block(&mut buf.spill[..n])?
        };
        if got < n {
            TM_MALFORMED.inc();
            return Err(PcapError::Corrupt("EOF inside record body"));
        }
        buf.timestamp_ns = rec.timestamp_ns(self.header.resolution);
        buf.orig_len = rec.orig_len;
        buf.len = rec.incl_len;
        self.records_read += 1;
        self.unpublished_records += 1;
        if rec.incl_len < rec.orig_len {
            self.unpublished_truncated += 1;
        }
        if self.unpublished_records == PUBLISH_EVERY {
            self.publish_counts();
        }
        Ok(true)
    }

    /// Adds the locally counted records and truncations to the shared
    /// counters.
    fn publish_counts(&mut self) {
        if self.unpublished_records > 0 {
            TM_RECORDS_TOTAL.add(std::mem::take(&mut self.unpublished_records));
        }
        if self.unpublished_truncated > 0 {
            TM_TRUNCATED.add(std::mem::take(&mut self.unpublished_truncated));
        }
    }

    /// Reads the next packet; `Ok(None)` at clean end-of-file.
    ///
    /// Same parsing and error semantics as [`PcapReader::read_into`], plus
    /// one owned-`Vec` copy per record.
    pub fn next_packet(&mut self) -> Result<Option<CapturedPacket>, PcapError> {
        let mut buf = RecordBuf::new();
        if !self.read_into(&mut buf)? {
            return Ok(None);
        }
        Ok(Some(buf.to_packet()))
    }

    /// Reads all remaining packets into a vector.
    pub fn read_all(&mut self) -> Result<Vec<CapturedPacket>, PcapError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet()? {
            out.push(p);
        }
        Ok(out)
    }
}

impl<R: Read> Drop for PcapReader<R> {
    /// Publishes what was read since the last publication, so a reader
    /// abandoned mid-file still counts every record it returned.
    fn drop(&mut self) {
        self.publish_counts();
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<CapturedPacket, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TsResolution;
    use crate::writer::PcapWriter;
    use std::io::Cursor;

    fn roundtrip_file(packets: &[(u64, Vec<u8>)], snaplen: u32) -> Vec<CapturedPacket> {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(snaplen)).unwrap();
        for (ts, bytes) in packets {
            w.write_bytes(*ts, bytes).unwrap();
        }
        let buf = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        r.read_all().unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let packets = vec![
            (0u64, vec![1u8, 2, 3]),
            (999_999_999, vec![4u8; 40]),
            (5_000_000_000, vec![]),
        ];
        let got = roundtrip_file(&packets, 65535);
        assert_eq!(got.len(), 3);
        for ((ts, bytes), cap) in packets.iter().zip(&got) {
            assert_eq!(cap.timestamp_ns, *ts);
            assert_eq!(&cap.data, bytes);
            assert!(!cap.is_truncated());
        }
    }

    #[test]
    fn snaplen_truncation_roundtrip() {
        let got = roundtrip_file(&[(0, vec![7u8; 1500])], 40);
        assert_eq!(got[0].data.len(), 40);
        assert_eq!(got[0].orig_len, 1500);
        assert!(got[0].is_truncated());
    }

    #[test]
    fn empty_file_yields_no_packets() {
        let got = roundtrip_file(&[], 40);
        assert!(got.is_empty());
    }

    #[test]
    fn read_into_reuses_one_buffer() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
        for i in 0..10u8 {
            w.write_bytes(u64::from(i) * 1000, &[i; 40]).unwrap();
        }
        let file = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(file)).unwrap();
        let mut buf = RecordBuf::new();
        let mut count = 0u8;
        while r.read_into(&mut buf).unwrap() {
            assert_eq!(buf.timestamp_ns(), u64::from(count) * 1000);
            assert_eq!(buf.data(), &vec![count; 40][..]);
            assert!(!buf.is_spilled(), "40-byte captures stay inline");
            assert!(!buf.is_truncated());
            count += 1;
        }
        assert_eq!(count, 10);
        assert_eq!(r.records_read(), 10);
    }

    #[test]
    fn read_into_spill_path_and_inline_return() {
        // Oversize record (spills), then a small one (back inline): the
        // data() view must track the active storage, not stale spill
        // bytes.
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(4096)).unwrap();
        w.write_bytes(1, &[0xaa; 300]).unwrap();
        w.write_bytes(2, &[0xbb; 8]).unwrap();
        w.write_bytes(3, &[0xcc; INLINE_RECORD_CAP + 1]).unwrap();
        let file = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(file)).unwrap();
        let mut buf = RecordBuf::new();

        assert!(r.read_into(&mut buf).unwrap());
        assert!(buf.is_spilled());
        assert_eq!(buf.data(), &vec![0xaa; 300][..]);

        assert!(r.read_into(&mut buf).unwrap());
        assert!(!buf.is_spilled());
        assert_eq!(buf.data(), &vec![0xbb; 8][..]);

        assert!(r.read_into(&mut buf).unwrap());
        assert!(buf.is_spilled(), "one past the inline cap must spill");
        assert_eq!(buf.data(), &vec![0xcc; INLINE_RECORD_CAP + 1][..]);

        assert!(!r.read_into(&mut buf).unwrap());
    }

    #[test]
    fn truncated_record_header_is_corrupt() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
        w.write_bytes(0, &[1, 2, 3]).unwrap();
        let mut buf = w.finish().unwrap();
        buf.truncate(buf.len() - 2 - 3); // cut into the record header
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::Corrupt("EOF inside record header"))
        ));
    }

    #[test]
    fn truncated_record_body_is_corrupt() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
        w.write_bytes(0, &[1, 2, 3, 4]).unwrap();
        let mut buf = w.finish().unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::Corrupt("EOF inside record body"))
        ));
    }

    #[test]
    fn truncated_final_record_after_many_good_ones() {
        // The block-buffered path must attribute a mid-body EOF to the
        // *final* record even when earlier records drained several block
        // refills cleanly.
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(65535)).unwrap();
        for i in 0..200u64 {
            w.write_bytes(i, &vec![i as u8; 1000]).unwrap();
        }
        let mut buf = w.finish().unwrap();
        buf.truncate(buf.len() - 7); // cut into the last record's body
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        let mut rec = RecordBuf::new();
        for _ in 0..199 {
            assert!(r.read_into(&mut rec).unwrap());
        }
        assert!(matches!(
            r.read_into(&mut rec),
            Err(PcapError::Corrupt("EOF inside record body"))
        ));
        assert_eq!(r.records_read(), 199);
    }

    #[test]
    fn short_file_header_rejected() {
        assert!(PcapReader::new(Cursor::new(vec![0u8; 10])).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(u32::MAX)).unwrap();
        w.write_bytes(0, &[0u8; 4]).unwrap();
        let mut buf = w.finish().unwrap();
        // Forge incl_len and orig_len to huge values.
        let off = crate::format::FILE_HEADER_LEN;
        buf[off + 8..off + 12].copy_from_slice(&(10_000_000u32).to_le_bytes());
        buf[off + 12..off + 16].copy_from_slice(&(10_000_000u32).to_le_bytes());
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::OversizedRecord(10_000_000))
        ));
    }

    #[test]
    fn incl_len_gt_orig_len_rejected() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(100)).unwrap();
        w.write_bytes(0, &[0u8; 4]).unwrap();
        let mut buf = w.finish().unwrap();
        let off = crate::format::FILE_HEADER_LEN;
        buf[off + 12..off + 16].copy_from_slice(&(1u32).to_le_bytes()); // orig_len = 1 < incl_len = 4
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::Corrupt(_))));
    }

    #[test]
    fn iterator_interface() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
        for i in 0..5u8 {
            w.write_bytes(u64::from(i) * 1000, &[i]).unwrap();
        }
        let buf = w.finish().unwrap();
        let r = PcapReader::new(Cursor::new(buf)).unwrap();
        let collected: Result<Vec<_>, _> = r.collect();
        let collected = collected.unwrap();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[4].data, vec![4u8]);
    }

    #[test]
    fn microsecond_file_roundtrip() {
        let mut hdr = FileHeader::raw_ip(40);
        hdr.resolution = TsResolution::Micro;
        let mut w = PcapWriter::new(Vec::new(), hdr).unwrap();
        w.write_bytes(1_000_002_000, &[9]).unwrap(); // 1s + 2µs
        let buf = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(buf)).unwrap();
        assert_eq!(r.header().resolution, TsResolution::Micro);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_ns, 1_000_002_000);
    }
}
