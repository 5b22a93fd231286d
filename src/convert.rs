//! Conversions between the simulator's tap records, pcap files, and the
//! detector's trace records.

use corpus::{IngestMode, LtcFile, LtcHeader, LtcWriter, BLOCK_RECORDS};
use loopscope::pipeline::{PcapSource, RecordSource};
use loopscope::segment::RangeConsumer;
use loopscope::{OutOfOrder, TraceRecord};
use pcaplib::{FileHeader, PcapError, PcapReader, PcapWriter};
use simnet::Tap;
use std::fs::File;
use std::io::{Read, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::mpsc;

/// The monitors the paper used stored the first 40 bytes of each packet;
/// that is the default snap length throughout this workspace.
pub const PAPER_SNAPLEN: u32 = 40;

/// Converts a simulated tap's records into detector records (in-memory
/// path; full headers available, no truncation loss).
pub fn records_from_tap(tap: &Tap) -> Vec<TraceRecord> {
    tap.records
        .iter()
        .map(|r| TraceRecord::from_packet(r.time.as_nanos(), &r.packet))
        .collect()
}

/// Writes a tap's observations to a pcap file with the given snap length —
/// the persistent equivalent of what the IPMON monitors produced.
pub fn write_tap_to_pcap<W: Write>(tap: &Tap, snaplen: u32, sink: W) -> Result<u64, PcapError> {
    let mut writer = PcapWriter::new(sink, FileHeader::raw_ip(snaplen))?;
    for rec in &tap.records {
        let bytes = rec.packet.emit();
        writer.write_packet(&pcaplib::CapturedPacket {
            timestamp_ns: rec.time.as_nanos(),
            orig_len: bytes.len() as u32,
            data: bytes,
        })?;
    }
    let n = writer.records_written();
    writer.finish()?;
    Ok(n)
}

/// Reads detector records back out of a pcap file. Records whose IP header
/// is unparseable (non-IPv4 link noise) are skipped and counted.
pub fn records_from_pcap<R: Read>(source: R) -> Result<(Vec<TraceRecord>, u64), PcapError> {
    let _t = telemetry::span("pcap.read");
    let mut source = PcapSource::from(PcapReader::new(source)?);
    let mut records = Vec::new();
    source.for_each_record(|rec| {
        records.push(rec);
        Ok::<_, PcapError>(())
    })?;
    let skipped = source.skipped_hint();
    if skipped > 0 {
        telemetry::tm_warn!("skipped {} unparseable records", skipped);
    }
    Ok((records, skipped))
}

/// Failure converting a pcap capture to a `.ltc` corpus: either side of
/// the conversion can reject its file.
#[derive(Debug)]
pub enum ConvertError {
    /// The source pcap is unreadable or corrupt. A truncated final record
    /// surfaces here — the conversion never writes a silently shortened
    /// corpus.
    Pcap(PcapError),
    /// The corpus could not be written (or, under `--verify`, re-read).
    Corpus(corpus::CorpusError),
    /// `--verify` re-read the corpus and it did not match the source.
    VerifyMismatch(&'static str),
    /// The source's records go back in time; a corpus must be sorted.
    Unsorted(OutOfOrder),
}

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvertError::Pcap(e) => write!(f, "pcap source: {e}"),
            ConvertError::Corpus(e) => write!(f, "ltc corpus: {e}"),
            ConvertError::VerifyMismatch(what) => {
                write!(
                    f,
                    "verification failed: corpus does not match source ({what})"
                )
            }
            ConvertError::Unsorted(e) => {
                write!(
                    f,
                    "pcap source: trace records must be sorted by timestamp: {e}"
                )
            }
        }
    }
}

impl std::error::Error for ConvertError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConvertError::Pcap(e) => Some(e),
            ConvertError::Corpus(e) => Some(e),
            ConvertError::Unsorted(e) => Some(e),
            ConvertError::VerifyMismatch(_) => None,
        }
    }
}

impl From<PcapError> for ConvertError {
    fn from(e: PcapError) -> Self {
        ConvertError::Pcap(e)
    }
}

impl From<corpus::CorpusError> for ConvertError {
    fn from(e: corpus::CorpusError) -> Self {
        ConvertError::Corpus(e)
    }
}

/// Why a block fill stopped before the capture ended.
enum Stop {
    /// The block is full.
    Full,
    /// The capture is defective here.
    Defect(ConvertError),
}

impl From<PcapError> for Stop {
    fn from(e: PcapError) -> Self {
        Stop::Defect(e.into())
    }
}

/// The decode stage of a conversion: a capture's records, through the
/// one pcap decode loop, in blocks of [`BLOCK_RECORDS`]. Each record is
/// checked against the one before it as it arrives, so of an order error
/// and a pcap defect the one reported is the first in file order.
struct BlockDecoder {
    source: PcapSource<File>,
    records: u64,
    previous_ns: u64,
}

impl BlockDecoder {
    fn open(path: &Path) -> Result<Self, ConvertError> {
        Ok(Self {
            source: PcapSource::from(PcapReader::new(File::open(path).map_err(PcapError::from)?)?),
            records: 0,
            previous_ns: 0,
        })
    }

    /// Refills `block` with the capture's next records: a full block,
    /// fewer at the end of the capture, none after it. Returns whether
    /// any came.
    fn fill(&mut self, block: &mut Vec<TraceRecord>) -> Result<bool, ConvertError> {
        block.clear();
        let read = self.source.for_each_record(|rec| {
            if rec.timestamp_ns < self.previous_ns {
                return Err(Stop::Defect(ConvertError::Unsorted(OutOfOrder {
                    record: self.records,
                    timestamp_ns: rec.timestamp_ns,
                    previous_ns: self.previous_ns,
                })));
            }
            self.previous_ns = rec.timestamp_ns;
            self.records += 1;
            block.push(rec);
            if block.len() == BLOCK_RECORDS {
                Err(Stop::Full)
            } else {
                Ok(())
            }
        });
        match read {
            Ok(()) | Err(Stop::Full) => Ok(!block.is_empty()),
            Err(Stop::Defect(e)) => Err(e),
        }
    }

    /// Unparseable records skipped so far.
    fn skipped(&self) -> u64 {
        self.source.skipped_hint()
    }
}

/// Hands the blocks of the capture at `src` to `write` in file order and
/// returns the skip count. At one thread each block is decoded and then
/// written on the calling thread. At two or more a decode thread fills
/// blocks up to two ahead of the writer, over a 2-deep channel, and takes
/// the emptied vectors back: four blocks in all, whatever the capture's
/// length. Either way the earlier failure in the stream wins: a block
/// that cannot be written stops the decode, and a decode error reaches
/// the writer after every block before it.
fn decode_blocks(
    src: &Path,
    threads: usize,
    mut write: impl FnMut(&[TraceRecord]) -> Result<(), ConvertError>,
) -> Result<u64, ConvertError> {
    let mut decoder = BlockDecoder::open(src)?;
    if threads <= 1 {
        let mut block = Vec::with_capacity(BLOCK_RECORDS);
        while decoder.fill(&mut block)? {
            write(&block)?;
        }
        return Ok(decoder.skipped());
    }
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = mpsc::sync_channel(2);
        let (empty_tx, empty_rx) = mpsc::channel();
        for _ in 0..4 {
            empty_tx
                .send(Vec::with_capacity(BLOCK_RECORDS))
                .expect("the receiver is alive");
        }
        let decode = std::thread::Builder::new()
            .name("pcap2ltc-decode".into())
            .spawn_scoped(scope, move || {
                // Ends when the capture does, on a defect, or once the
                // writer has stopped taking blocks.
                while let Ok(mut block) = empty_rx.recv() {
                    let filled = match decoder.fill(&mut block) {
                        Ok(false) => break,
                        filled => filled.map(|_| block),
                    };
                    let failed = filled.is_err();
                    if full_tx.send(filled).is_err() || failed {
                        break;
                    }
                }
                decoder
            })
            .expect("spawn the decode stage");
        for block in &full_rx {
            let block = block?;
            write(&block)?;
            let _ = empty_tx.send(block);
        }
        let decoder = decode
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok(decoder.skipped())
    })
}

/// Converts a pcap capture at `src` into a `.ltc` columnar corpus at
/// `dst` as a stream: the decode stage fills one block at a time, and
/// the write stage encodes, checksums and writes each one, both on the
/// calling thread at `threads` 1 and on two threads at 2 or more, the
/// decode up to two blocks ahead; memory does not grow with the
/// capture. The corpus is written beside `dst` and renamed into place
/// only on success ([`corpus::PendingLtc`]); a failed conversion removes
/// its temporary file and leaves `dst` as it was, and an existing `dst`
/// that is not a regular file is refused. Returns `(records, skipped)` as written to
/// the corpus header. Any pcap defect (including a truncated final
/// record) aborts the conversion with the pcap layer's error, and records
/// that go back in time abort it with the first of them; of the two, the
/// error reported is the first in file order. The bytes depend on the
/// capture alone, not on `threads`.
pub fn pcap_to_ltc(src: &Path, dst: &Path, threads: usize) -> Result<(u64, u64), ConvertError> {
    let _t = telemetry::span("convert.pcap_to_ltc");
    let out = corpus::PendingLtc::create(dst)?;
    let (_, header) = write_ltc(src, out.file(), dst, threads)?;
    out.publish(&header)?;
    Ok((header.records, header.skipped))
}

/// Streams the capture at `src` to `sink` as a `.ltc` image whose header
/// is still the zeroed placeholder; returns the sink and the header that
/// belongs at offset 0. Write errors name `dst`.
fn write_ltc<W: Write>(
    src: &Path,
    sink: W,
    dst: &Path,
    threads: usize,
) -> Result<(W, LtcHeader), ConvertError> {
    let io = |e| ConvertError::Corpus(corpus::CorpusError::io(dst, e));
    let mut writer = LtcWriter::new(sink).map_err(io)?;
    let skipped = decode_blocks(src, threads, |block| writer.write_block(block).map_err(io))?;
    writer.finish(skipped).map_err(io)
}

/// `pcap2ltc --verify`'s comparison, fed by the corpus's block loop: each
/// corpus block against the capture's next decoded block. The two split
/// alike (full blocks, a short last one), so blocks of unequal length
/// mean the record counts differ.
struct Verify {
    want: BlockDecoder,
    want_block: Vec<TraceRecord>,
    got_block: Vec<TraceRecord>,
    content_differs: bool,
    failed: Option<ConvertError>,
}

impl RangeConsumer for Verify {
    fn chunk_buffer(&mut self) -> &mut Vec<TraceRecord> {
        &mut self.got_block
    }

    fn take_chunk(&mut self) -> ControlFlow<()> {
        let filled = self.want.fill(&mut self.want_block);
        self.content_differs |= self.want_block != self.got_block;
        let failed = match filled {
            Ok(_) if self.want_block.len() == self.got_block.len() => None,
            Ok(_) => Some(ConvertError::VerifyMismatch("record count differs")),
            Err(e) => Some(e),
        };
        self.got_block.clear();
        match failed {
            None => ControlFlow::Continue(()),
            Some(e) => {
                self.failed = Some(e);
                ControlFlow::Break(())
            }
        }
    }
}

/// Re-reads a freshly written corpus through its block loop and compares
/// it block by block against a second decode of the source pcap — the
/// `pcap2ltc --verify` check, in memory that does not grow with the
/// capture. A difference in the record count is reported before one in
/// the skip count, and both before one in content.
pub fn verify_ltc_against_pcap(ltc: &Path, pcap: &Path) -> Result<(), ConvertError> {
    let _t = telemetry::span("convert.verify");
    let mut verify = Verify {
        want: BlockDecoder::open(pcap)?,
        want_block: Vec::with_capacity(BLOCK_RECORDS),
        got_block: Vec::with_capacity(BLOCK_RECORDS),
        content_differs: false,
        failed: None,
    };
    let corpus = LtcFile::open(ltc, IngestMode::default())?;
    corpus.read_blocks(&mut verify)?;
    if let Some(e) = verify.failed {
        return Err(e);
    }
    // The corpus has ended, and so must the capture.
    if verify.want.fill(&mut verify.want_block)? {
        return Err(ConvertError::VerifyMismatch("record count differs"));
    }
    if corpus.header().skipped != verify.want.skipped() {
        return Err(ConvertError::VerifyMismatch("skip count differs"));
    }
    if verify.content_differs {
        return Err(ConvertError::VerifyMismatch("record content differs"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{Packet, TcpFlags};
    use simnet::{LinkId, SimTime};
    use std::io::Cursor;
    use std::net::Ipv4Addr;

    fn sample_tap() -> Tap {
        let mut tap = Tap::new(LinkId(0));
        for i in 0..5u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 0, 0, 1),
                Ipv4Addr::new(203, 0, 113, 4),
                1,
                2,
                TcpFlags::ACK,
                vec![0u8; 200],
            );
            p.ip.ident = i;
            p.fill_checksums();
            tap.record(SimTime::from_millis(u64::from(i)), p);
        }
        tap
    }

    #[test]
    fn tap_to_records_direct() {
        let tap = sample_tap();
        let recs = records_from_tap(&tap);
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[3].ident, 3);
        assert_eq!(recs[3].timestamp_ns, 3_000_000);
    }

    #[test]
    fn pcap_roundtrip_preserves_detector_view() {
        let tap = sample_tap();
        let direct = records_from_tap(&tap);
        let mut buf = Vec::new();
        let written = write_tap_to_pcap(&tap, PAPER_SNAPLEN, &mut buf).unwrap();
        assert_eq!(written, 5);
        let (via_pcap, skipped) = records_from_pcap(Cursor::new(buf)).unwrap();
        assert_eq!(skipped, 0);
        // The 40-byte snaplen preserves every field the detector uses.
        assert_eq!(direct, via_pcap);
    }

    #[test]
    fn unparseable_records_skipped() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, FileHeader::raw_ip(40)).unwrap();
            w.write_bytes(0, &[0xde, 0xad]).unwrap(); // not IPv4
            let p = Packet::tcp_flags(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                1,
                2,
                TcpFlags::SYN,
                &b""[..],
            );
            w.write_bytes(10, &p.emit()).unwrap();
            w.finish().unwrap();
        }
        let (records, skipped) = records_from_pcap(Cursor::new(buf)).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1);
    }

    /// A capture of `n` records, 1 µs apart, every thousandth of them
    /// unparseable noise.
    fn noisy_capture(n: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, FileHeader::raw_ip(PAPER_SNAPLEN)).unwrap();
        for i in 0..n {
            if i % 1000 == 7 {
                w.write_bytes(u64::from(i) * 1_000, &[0xde, 0xad]).unwrap();
                continue;
            }
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 0, 0, 1),
                Ipv4Addr::new(203, 0, 113, (i % 200) as u8),
                1,
                2,
                TcpFlags::ACK,
                vec![0u8; 40],
            );
            p.ip.ident = i as u16;
            p.fill_checksums();
            w.write_bytes(u64::from(i) * 1_000, &p.emit()).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    fn temp_pcap(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "loopdetect_convert_{tag}_{}.pcap",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn parallel_pcap_read_matches_serial() {
        // The two-stage conversion (decode on one thread, write on
        // another) writes the serial one's corpus byte for byte, holding
        // the serial read's records. Enough records for several blocks,
        // plus some unparseable noise so the skip count is exercised.
        let buf = noisy_capture(20_000);
        let path = temp_pcap("parallel", &buf);
        let (serial, serial_skipped) = records_from_pcap(Cursor::new(buf)).unwrap();
        let ltc = path.with_extension("ltc");
        let mut images = Vec::new();
        for threads in [1, 2, 4, 8] {
            let counts = pcap_to_ltc(&path, &ltc, threads).unwrap();
            assert_eq!(
                counts,
                (serial.len() as u64, serial_skipped),
                "threads={threads}"
            );
            let (parallel, skipped) =
                corpus::records_from_ltc_with(&ltc, 1, IngestMode::Buffered).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial_skipped, skipped, "threads={threads}");
            verify_ltc_against_pcap(&ltc, &path).unwrap();
            images.push(std::fs::read(&ltc).unwrap());
        }
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "threads change the bytes"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ltc);
    }

    /// A sink that takes the header placeholder and two blocks, then
    /// fails.
    struct FailsAfterTwoBlocks {
        writes: usize,
    }

    impl Write for FailsAfterTwoBlocks {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes == 3 {
                return Err(std::io::Error::other("sink full"));
            }
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_write_stage_stops_the_conversion() {
        // Five blocks' worth of records: writing the third block fails,
        // on the calling thread or beside a decode thread, which must
        // then stop rather than wait for a writer that is gone.
        let path = temp_pcap("failing_sink", &noisy_capture(5 * BLOCK_RECORDS as u32));
        for threads in [1, 2] {
            let sink = FailsAfterTwoBlocks { writes: 0 };
            let err = write_ltc(&path, sink, Path::new("out.ltc"), threads)
                .map(|(_, header)| header)
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                "ltc corpus: out.ltc: io error: sink full",
                "threads={threads}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_reports_count_then_skips_then_content() {
        // Corpora that differ from their capture, each written without
        // the conversion: the reason is the first of count, skip count
        // and content that differs, wherever in the file it lies.
        let bytes = noisy_capture(20_000);
        let pcap = temp_pcap("verify", &bytes);
        let (records, skipped) = records_from_pcap(Cursor::new(&bytes)).unwrap();
        let mut changed = records.clone();
        changed[3].ttl ^= 1;
        let n = records.len();
        let cases = [
            (corpus::ltc_to_vec(&records, skipped), None),
            (
                corpus::ltc_to_vec(&records[..n - 1], skipped),
                Some("record count differs"),
            ),
            (
                corpus::ltc_to_vec(&[&records[..], &records[..1]].concat(), skipped),
                Some("record count differs"),
            ),
            (
                corpus::ltc_to_vec(&records[..BLOCK_RECORDS], skipped),
                Some("record count differs"),
            ),
            (
                corpus::ltc_to_vec(&changed[..n - 1], skipped),
                Some("record count differs"),
            ),
            (
                corpus::ltc_to_vec(&changed, skipped + 1),
                Some("skip count differs"),
            ),
            (
                corpus::ltc_to_vec(&changed, skipped),
                Some("record content differs"),
            ),
        ];
        let ltc = pcap.with_extension("ltc");
        for (i, (image, want)) in cases.into_iter().enumerate() {
            std::fs::write(&ltc, image).unwrap();
            match (verify_ltc_against_pcap(&ltc, &pcap), want) {
                (Ok(()), None) => {}
                (Err(ConvertError::VerifyMismatch(got)), Some(want)) => {
                    assert_eq!(got, want, "case {i}")
                }
                (got, want) => panic!("case {i}: got {got:?}, want {want:?}"),
            }
        }
        let _ = std::fs::remove_file(&pcap);
        let _ = std::fs::remove_file(&ltc);
    }
}
