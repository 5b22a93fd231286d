//! Conversions between the simulator's tap records, pcap files, and the
//! detector's trace records.

use loopscope::pipeline::{PcapSource, RecordSource};
use loopscope::segment::read_pcap_ranges;
use loopscope::{OutOfOrder, TraceRecord};
use pcaplib::{FileHeader, PcapError, PcapReader, PcapWriter};
use simnet::Tap;
use std::io::{Read, Write};
use std::path::Path;

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
    match decode_pcap(source)? {
        (records, skipped, None) => Ok((records, skipped)),
        (_, _, Some(e)) => Err(e),
    }
}

/// What a pcap read decoded: the records and the skip count, and the
/// reader's error when it failed part-way, the records then being those
/// before the defect. An unreadable file header is an error outright.
type PartialRead = (Vec<TraceRecord>, u64, Option<PcapError>);

/// Decodes every record of `source` in one pass.
fn decode_pcap<R: Read>(source: R) -> Result<PartialRead, PcapError> {
    let _t = telemetry::span("pcap.read");
    let mut source = PcapSource::from(PcapReader::new(source)?);
    let mut records = Vec::new();
    let failed = source
        .for_each_record(|rec| {
            records.push(rec);
            Ok::<_, PcapError>(())
        })
        .err();
    let skipped = source.skipped_hint();
    if skipped > 0 && failed.is_none() {
        telemetry::tm_warn!("skipped {} unparseable records", skipped);
    }
    Ok((records, skipped, failed))
}

/// [`records_from_pcap`] fanned out over up to `threads` byte ranges of
/// one file: [`read_pcap_ranges`] guesses record-aligned split offsets
/// with no header walk, decodes each range on its own thread through the
/// same decode loop into its own vector, and proves every guess. The
/// ranges are joined in file order, so the records, skip count and error
/// are those of the serial read. One thread reads serially.
pub fn records_from_pcap_parallel(
    path: &Path,
    threads: usize,
) -> Result<(Vec<TraceRecord>, u64), PcapError> {
    match read_pcap_file(path, threads)? {
        (records, skipped, None) => Ok((records, skipped)),
        (_, _, Some(e)) => Err(e),
    }
}

/// [`records_from_pcap_parallel`], keeping the records decoded before a
/// defect.
fn read_pcap_file(path: &Path, threads: usize) -> Result<PartialRead, PcapError> {
    if threads <= 1 {
        return decode_pcap(std::io::BufReader::new(std::fs::File::open(path)?));
    }
    let _t = telemetry::span("pcap.read_parallel");
    let mut ranges = read_pcap_ranges(path, threads, &Vec::new, &mut |_| {
        std::ops::ControlFlow::Continue(())
    })?;
    let failed = ranges.failed.take();
    let skipped = ranges.skipped;
    Ok((ranges.concat(), skipped, failed))
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

/// Converts a pcap capture at `src` into a `.ltc` columnar corpus at
/// `dst`, decoding with up to `threads` parallel range readers. Returns
/// `(records, skipped)` as written to the corpus header. Any pcap defect
/// (including a truncated final record) aborts the conversion with the
/// pcap layer's error, and records that go back in time abort it with
/// the first of them; the partially written `dst` is removed. Of the two,
/// the error reported is the first in file order: records out of order
/// before a defect are reported as such.
pub fn pcap_to_ltc(src: &Path, dst: &Path, threads: usize) -> Result<(u64, u64), ConvertError> {
    let _t = telemetry::span("convert.pcap_to_ltc");
    let (records, skipped, failed) = read_pcap_file(src, threads)?;
    if let Some(err) = OutOfOrder::first_in(&records, 0, 0) {
        return Err(ConvertError::Unsorted(err));
    }
    if let Some(e) = failed {
        return Err(e.into());
    }
    match corpus::write_ltc_file(dst, &records, skipped) {
        Ok(n) => Ok((n, skipped)),
        Err(e) => {
            let _ = std::fs::remove_file(dst);
            Err(e.into())
        }
    }
}

/// Re-reads a freshly written corpus and compares it record-for-record
/// against the source pcap — the `pcap2ltc --verify` check.
pub fn verify_ltc_against_pcap(
    ltc: &Path,
    pcap: &Path,
    threads: usize,
) -> Result<(), ConvertError> {
    let _t = telemetry::span("convert.verify");
    let (want, want_skipped) = records_from_pcap_parallel(pcap, threads)?;
    let (got, got_skipped) =
        corpus::records_from_ltc_with(ltc, threads, corpus::IngestMode::default())?;
    if got.len() != want.len() {
        return Err(ConvertError::VerifyMismatch("record count differs"));
    }
    if got_skipped != want_skipped {
        return Err(ConvertError::VerifyMismatch("skip count differs"));
    }
    if got != want {
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

    #[test]
    fn parallel_pcap_read_matches_serial() {
        // Enough distinct records to span several index blocks, plus some
        // unparseable noise so the skip count is exercised.
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, FileHeader::raw_ip(PAPER_SNAPLEN)).unwrap();
            for i in 0..5000u32 {
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
        }
        let path = std::env::temp_dir().join(format!(
            "loopdetect_convert_parallel_{}.pcap",
            std::process::id()
        ));
        std::fs::write(&path, &buf).unwrap();
        let (serial, serial_skipped) = records_from_pcap(Cursor::new(buf)).unwrap();
        for threads in [1, 2, 4, 8] {
            let (parallel, skipped) = records_from_pcap_parallel(&path, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial_skipped, skipped, "threads={threads}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
