//! Streaming pcap reader.
//!
//! One framing loop, [`PcapReader::next_record`], reads every record.
//! The source is consumed into one block buffer (one `read` syscall per
//! `BLOCK_LEN` bytes rather than two per record), and each record is
//! handed out as a [`RecordRef`] borrowed from that block, where it lies:
//! no record header or body is copied. When a record runs past the
//! filled part of the block, the reader moves the unread tail to the
//! front and refills the rest; a record larger than the block grows it,
//! after the header checks have capped its length at 256 KiB
//! (`MAX_SANE_CAPLEN`). Scanning a trace therefore performs **no
//! per-record heap allocations** once the block holds the largest
//! record, which `tests/zero_alloc.rs` enforces with a counting
//! allocator. [`PcapReader::next_packet`] (and the [`Iterator`] impl) is
//! a thin owned copy over the same loop: one `Vec` per record.
//!
//! Readers on different threads share the process-wide counters, so a
//! reader counts records and truncations locally and adds them to
//! `pcap.records_total` / `pcap.truncated_records` every
//! [`PUBLISH_EVERY`] records, at end-of-file and when it is dropped.
//! `pcap.malformed_records` is rare and published at once. A reader
//! [resumed](PcapReader::resume) mid-file publishes nothing on its own:
//! its range may turn out not to start on a record, so its owner takes
//! the [`ReadCounts`] and publishes them once the start is proven.

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

/// Records, truncations and framing errors a reader has counted but not
/// yet added to the shared `pcap.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// Records read (`pcap.records_total`).
    pub records: u64,
    /// Records cut short by the snap length (`pcap.truncated_records`).
    pub truncated: u64,
    /// Framing errors (`pcap.malformed_records`): at most one per pass.
    pub malformed: u64,
}

impl ReadCounts {
    /// Adds the counts to the shared counters.
    pub fn publish(&self) {
        for (counter, n) in [
            (&TM_RECORDS_TOTAL, self.records),
            (&TM_TRUNCATED, self.truncated),
            (&TM_MALFORMED, self.malformed),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Bytes read from the source per refill of the internal block buffer.
const BLOCK_LEN: usize = 64 * 1024;

/// One record as it lies in the reader's block buffer: borrowed until the
/// next read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Nanoseconds since the trace epoch.
    pub timestamp_ns: u64,
    /// Original on-the-wire length.
    pub orig_len: u32,
    /// The captured bytes (`len() <= orig_len`).
    pub data: &'a [u8],
}

impl RecordRef<'_> {
    /// True when the capture was cut short by the snap length.
    pub fn is_truncated(&self) -> bool {
        (self.data.len() as u32) < self.orig_len
    }

    /// Copies the record out into an owned [`CapturedPacket`].
    pub fn to_packet(&self) -> CapturedPacket {
        CapturedPacket {
            timestamp_ns: self.timestamp_ns,
            orig_len: self.orig_len,
            data: self.data.to_vec(),
        }
    }
}

/// Reads a classic pcap file from any [`Read`] source.
///
/// Iterate allocation-free with [`PcapReader::next_record`], which lends
/// each record where it lies in the block buffer, or via
/// [`PcapReader::next_packet`] / the [`Iterator`] impl, which copy it into
/// an owned packet.
pub struct PcapReader<R: Read> {
    source: R,
    header: FileHeader,
    records_read: u64,
    /// What was read since the counters were last published.
    unpublished: ReadCounts,
    /// Whether the counts wait for [`PcapReader::take_counts`] instead of
    /// being published as they accrue.
    deferred: bool,
    /// Block buffer: `block[pos..filled]` is unconsumed source data. At
    /// least [`BLOCK_LEN`] bytes, grown to hold the largest record seen.
    block: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl<R: Read> PcapReader<R> {
    /// Opens the stream: reads and validates the global header.
    pub fn new(mut source: R) -> Result<Self, PcapError> {
        let mut buf = [0u8; FILE_HEADER_LEN];
        source.read_exact(&mut buf)?;
        let header = FileHeader::decode(&buf)?;
        Ok(Self::with_header(source, header, false))
    }

    /// Resumes reading mid-stream: `source` is positioned at a byte
    /// offset of a capture whose global header is `header` (typically a
    /// [`crate::split::split_ranges`] range start). From a record start
    /// the reader behaves exactly as if the records before it did not
    /// exist — bound the source (e.g. [`Read::take`]) to stop at a range
    /// end. Its counts are deferred: nothing reaches the shared counters
    /// until the owner calls [`Self::take_counts`] and publishes them.
    pub fn resume(source: R, header: FileHeader) -> Self {
        Self::with_header(source, header, true)
    }

    fn with_header(source: R, header: FileHeader, deferred: bool) -> Self {
        Self {
            source,
            header,
            records_read: 0,
            unpublished: ReadCounts::default(),
            deferred,
            block: vec![0u8; BLOCK_LEN],
            pos: 0,
            filled: 0,
        }
    }

    /// Hands over the counts not yet published and forgets them: a
    /// resumed reader's whole tally, or what a publishing reader read
    /// since its last publication.
    pub fn take_counts(&mut self) -> ReadCounts {
        std::mem::take(&mut self.unpublished)
    }

    /// Whether this reader defers its counts (see [`Self::resume`]).
    pub fn defers_counts(&self) -> bool {
        self.deferred
    }

    /// The decoded file header.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// Number of records read so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Reads the next record, borrowed from the block buffer until the
    /// next read; `Ok(None)` at clean end-of-file. This is the one framing
    /// loop: the record header and body are read where they lie, and
    /// nothing touches the heap unless a record outgrows the block.
    ///
    /// A partial record header at EOF is reported as corruption, not EOF —
    /// a trace cut off mid-record should never be silently accepted.
    // Inlined into the callers' per-record loops: left to the compiler,
    // `loopmond` called the reader out of line and used about 3% more CPU.
    #[inline]
    pub fn next_record(&mut self) -> Result<Option<RecordRef<'_>>, PcapError> {
        if self.filled - self.pos < RECORD_HEADER_LEN && !self.refill(RECORD_HEADER_LEN)? {
            if self.pos == self.filled {
                self.publish_counts();
                return Ok(None);
            }
            return Err(self.malformed(PcapError::Corrupt("EOF inside record header"), true));
        }
        let raw = self.block[self.pos..self.pos + RECORD_HEADER_LEN]
            .try_into()
            .expect("16 bytes");
        let rec = RecordHeader::decode(raw, self.header.swapped);
        if rec.incl_len > MAX_SANE_CAPLEN {
            return Err(self.malformed(PcapError::OversizedRecord(rec.incl_len), false));
        }
        if rec.incl_len > rec.orig_len {
            return Err(self.malformed(PcapError::Corrupt("incl_len exceeds orig_len"), false));
        }
        let len = RECORD_HEADER_LEN + rec.incl_len as usize;
        if self.filled - self.pos < len && !self.refill(len)? {
            return Err(self.malformed(PcapError::Corrupt("EOF inside record body"), true));
        }
        let body = self.pos + RECORD_HEADER_LEN;
        self.pos += len;
        self.records_read += 1;
        self.unpublished.records += 1;
        if rec.incl_len < rec.orig_len {
            self.unpublished.truncated += 1;
        }
        if self.unpublished.records == PUBLISH_EVERY {
            self.publish_counts();
        }
        Ok(Some(RecordRef {
            timestamp_ns: rec.timestamp_ns(self.header.resolution),
            orig_len: rec.orig_len,
            data: &self.block[body..self.pos],
        }))
    }

    /// Makes `need` unread bytes available from `block[0..]`: moves the
    /// unread tail to the front of the block, grows the block if it is
    /// smaller than `need`, and reads from the source until `need` bytes
    /// are there. `Ok(false)` when the source ends first.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, need: usize) -> Result<bool, PcapError> {
        self.block.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        if self.block.len() < need {
            self.block.resize(need, 0);
        }
        while self.filled < need {
            match self.source.read(&mut self.block[self.filled..])? {
                0 => return Ok(false),
                n => self.filled += n,
            }
        }
        Ok(true)
    }

    /// Counts a framing error — published at once unless deferred — and
    /// returns it. The record's header is consumed, and with `at_eof` the
    /// rest of the input too, so a further read goes on from there.
    #[cold]
    fn malformed(&mut self, e: PcapError, at_eof: bool) -> PcapError {
        self.pos = if at_eof {
            self.filled
        } else {
            self.pos + RECORD_HEADER_LEN
        };
        if self.deferred {
            self.unpublished.malformed += 1;
            return e;
        }
        match e {
            PcapError::Corrupt("EOF inside record header") => tm_warn!(
                "EOF inside record header after {} records",
                self.records_read
            ),
            PcapError::OversizedRecord(n) => tm_warn!("oversized record ({n} bytes) rejected"),
            _ => {}
        }
        TM_MALFORMED.inc();
        e
    }

    /// Adds the locally counted records and truncations to the shared
    /// counters, unless they are deferred.
    fn publish_counts(&mut self) {
        if !self.deferred {
            self.take_counts().publish();
        }
    }

    /// Reads the next packet; `Ok(None)` at clean end-of-file. An owned
    /// copy over [`PcapReader::next_record`]: same parsing and errors, one
    /// `Vec` allocation per record.
    pub fn next_packet(&mut self) -> Result<Option<CapturedPacket>, PcapError> {
        Ok(self.next_record()?.map(|rec| rec.to_packet()))
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
    /// abandoned mid-file still counts every record it returned (a
    /// deferred reader leaves its counts to its owner).
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
    fn next_record_lends_each_record_where_it_lies() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
        for i in 0..10u8 {
            w.write_bytes(u64::from(i) * 1000, &[i; 40]).unwrap();
        }
        let file = w.finish().unwrap();
        let mut r = PcapReader::new(Cursor::new(file)).unwrap();
        let mut count = 0u8;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec.timestamp_ns, u64::from(count) * 1000);
            assert_eq!(rec.data, &[count; 40][..]);
            assert!(!rec.is_truncated());
            count += 1;
        }
        assert_eq!(count, 10);
        assert_eq!(r.records_read(), 10);
        assert_eq!(
            r.block.len(),
            BLOCK_LEN,
            "40-byte captures never grow the block"
        );
    }

    /// A source that hands out at most `step` bytes per read, so the
    /// reader's refills fall at every offset.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// What one pass over a record area made of it: the records, the
    /// counts, and how it ended (the error text and whether it ended
    /// inside a record).
    #[derive(Debug, PartialEq)]
    struct Pass {
        records: Vec<CapturedPacket>,
        counts: ReadCounts,
        end: Option<(String, bool)>,
    }

    /// A resumed reader's pass over a record area, and its block's length
    /// afterwards.
    fn pass(source: impl Read) -> (Pass, usize) {
        let mut r = PcapReader::resume(source, FileHeader::raw_ip(65535));
        let mut records = Vec::new();
        let end = loop {
            match r.next_record() {
                Ok(Some(rec)) => records.push(rec.to_packet()),
                Ok(None) => break None,
                Err(e) => break Some((e.to_string(), e.is_eof_inside_record())),
            }
        };
        let counts = r.take_counts();
        (
            Pass {
                records,
                counts,
                end,
            },
            r.block.len(),
        )
    }

    /// The reference reading: `area` walked header by header in one
    /// slice, with no block and no refill.
    fn walk(area: &[u8]) -> Pass {
        let (mut records, mut counts, mut at) = (Vec::new(), ReadCounts::default(), 0);
        let end = loop {
            let rest = &area[at..];
            if rest.is_empty() {
                break None;
            }
            let Some(raw) = rest.first_chunk::<RECORD_HEADER_LEN>() else {
                break Some(PcapError::Corrupt("EOF inside record header"));
            };
            let rec = RecordHeader::decode(raw, false);
            if rec.incl_len > MAX_SANE_CAPLEN {
                break Some(PcapError::OversizedRecord(rec.incl_len));
            }
            if rec.incl_len > rec.orig_len {
                break Some(PcapError::Corrupt("incl_len exceeds orig_len"));
            }
            let Some(data) = rest[RECORD_HEADER_LEN..].get(..rec.incl_len as usize) else {
                break Some(PcapError::Corrupt("EOF inside record body"));
            };
            records.push(CapturedPacket {
                timestamp_ns: rec.timestamp_ns(TsResolution::Nano),
                orig_len: rec.orig_len,
                data: data.to_vec(),
            });
            counts.records += 1;
            counts.truncated += u64::from(rec.incl_len < rec.orig_len);
            at += RECORD_HEADER_LEN + data.len();
        };
        counts.malformed = u64::from(end.is_some());
        Pass {
            records,
            counts,
            end: end.map(|e| (e.to_string(), e.is_eof_inside_record())),
        }
    }

    /// A record area of records with bodies of `lens` bytes; every other
    /// one is a capture of a 20-byte longer packet.
    fn record_area(lens: &[usize]) -> Vec<u8> {
        let mut area = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let orig_len = len as u32 + 20 * (i as u32 % 2);
            area.extend(
                RecordHeader {
                    ts_sec: i as u32,
                    ts_frac: 7,
                    incl_len: len as u32,
                    orig_len,
                }
                .encode(),
            );
            area.extend((0..len).map(|j| (i + j) as u8));
        }
        area
    }

    /// Reads `area` with refills at every offset (`step`-byte source
    /// reads) and asserts each pass matches the walk. Returns the walk
    /// and the largest block any pass grew.
    fn assert_reads_like_the_walk(area: &[u8], what: &str) -> (Pass, usize) {
        let want = walk(area);
        let mut block = 0;
        for step in [1, 7, 16, 17, 4096, BLOCK_LEN, usize::MAX] {
            let (got, len) = pass(Trickle { bytes: area, step });
            assert!(got == want, "{what}, {step}-byte reads: {:?}", got.end);
            block = block.max(len);
        }
        (want, block)
    }

    #[test]
    fn records_straddling_a_refill_read_like_the_walk() {
        // A lead record of `shift` bytes puts the 56-byte records after it
        // across the block edge at every phase: header split, body split,
        // or a record ending exactly on it.
        for shift in 0..56 {
            let lens: Vec<usize> = [shift].into_iter().chain([40; 1300]).collect();
            let area = record_area(&lens);
            let (want, block) = assert_reads_like_the_walk(&area, &format!("shift {shift}"));
            assert_eq!(want.records.len(), 1301);
            assert_eq!(want.end, None);
            assert_eq!(
                block, BLOCK_LEN,
                "shift {shift}: no record outgrows the block"
            );
        }
    }

    #[test]
    fn records_larger_than_the_block_grow_it_up_to_the_cap() {
        let cap = MAX_SANE_CAPLEN as usize;
        let lens = [
            40,
            BLOCK_LEN - RECORD_HEADER_LEN,
            BLOCK_LEN - RECORD_HEADER_LEN + 1,
            40,
            BLOCK_LEN + 1,
            3 * BLOCK_LEN,
            cap,
            40,
        ];
        let (want, block) = assert_reads_like_the_walk(&record_area(&lens), "oversize records");
        assert_eq!(want.records.len(), lens.len());
        assert_eq!(
            block,
            RECORD_HEADER_LEN + cap,
            "grown to the largest record"
        );

        // One byte past the cap is refused from its header, before any
        // growth, and with no body in the input at all.
        let mut area = record_area(&[40]);
        area.extend(
            RecordHeader {
                ts_sec: 9,
                ts_frac: 0,
                incl_len: MAX_SANE_CAPLEN + 1,
                orig_len: MAX_SANE_CAPLEN + 1,
            }
            .encode(),
        );
        let (want, block) = assert_reads_like_the_walk(&area, "past the cap");
        let oversized = PcapError::OversizedRecord(MAX_SANE_CAPLEN + 1).to_string();
        assert_eq!(want.end, Some((oversized, false)));
        assert_eq!(block, BLOCK_LEN, "a refused record grows nothing");
    }

    #[test]
    fn eof_inside_a_record_exactly_at_a_refill() {
        // 1170 56-byte records and an empty one fill the first block
        // exactly, so a cut at `BLOCK_LEN + k` ends the input `k` bytes
        // after the first refill begins.
        let lens: Vec<usize> = [40; 1170].into_iter().chain([0, 40, 40]).collect();
        let area = record_area(&lens);
        assert_eq!(area.len(), BLOCK_LEN + 2 * 56);
        let header = "corrupt pcap file: EOF inside record header";
        let body = "corrupt pcap file: EOF inside record body";
        for (cut, records, end) in [
            (BLOCK_LEN, 1171, None),
            (BLOCK_LEN + 1, 1171, Some(header)),
            (BLOCK_LEN + 15, 1171, Some(header)),
            (BLOCK_LEN + 16, 1171, Some(body)),
            (BLOCK_LEN + 55, 1171, Some(body)),
            (BLOCK_LEN + 56, 1172, None),
        ] {
            let (want, _) = assert_reads_like_the_walk(&area[..cut], &format!("cut {cut}"));
            assert_eq!(want.records.len(), records, "cut {cut}");
            assert_eq!(want.end, end.map(|e| (e.to_string(), true)), "cut {cut}");
        }
        // A header and then a body split by the block edge, each cut
        // there: the refill that would complete the record finds EOF.
        for (lead, end) in [(5, header), (16, body), (17, body)] {
            let lens: Vec<usize> = [BLOCK_LEN - RECORD_HEADER_LEN - lead, 40].to_vec();
            let area = record_area(&lens);
            let (want, _) = assert_reads_like_the_walk(&area[..BLOCK_LEN], "split cut");
            assert_eq!(want.records.len(), 1);
            assert_eq!(want.end, Some((end.to_string(), true)), "lead {lead}");
        }
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
        for _ in 0..199 {
            assert!(r.next_record().unwrap().is_some());
        }
        assert!(matches!(
            r.next_record(),
            Err(PcapError::Corrupt("EOF inside record body"))
        ));
        assert_eq!(r.records_read(), 199);
    }

    #[test]
    fn resumed_reader_keeps_its_counts_for_its_owner() {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
        for i in 0..10u64 {
            w.write_bytes(i, &vec![0u8; if i % 2 == 0 { 60 } else { 20 }])
                .unwrap();
        }
        let mut file = w.finish().unwrap();
        file.truncate(file.len() - 3);
        let body = file[crate::format::FILE_HEADER_LEN..].to_vec();
        let mut r = PcapReader::resume(Cursor::new(body), FileHeader::raw_ip(40));
        assert!(r.defers_counts());
        while r.next_record().is_ok_and(|rec| rec.is_some()) {}
        let want = ReadCounts {
            records: 9,
            truncated: 5,
            malformed: 1,
        };
        assert_eq!(r.take_counts(), want);
        assert_eq!(r.take_counts(), ReadCounts::default(), "handed over once");
        assert!(!PcapReader::new(Cursor::new(file)).unwrap().defers_counts());
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
