//! Byte-range splitting of one pcap capture for parallel decode, with no
//! header walk.
//!
//! Classic pcap has no framing beyond the per-record headers, so an
//! offset in the middle of a file cannot be known to start a record
//! without walking every header before it. [`split_ranges`] does not
//! walk. For each ideal split offset it reads one [`WINDOW_LEN`] window
//! and takes the first position where a chain of [`CHAIN_LEN`]
//! plausible record headers starts, in time order. A header is plausible
//! when its `orig_len` is not 0 (no link carries an empty packet), its
//! `incl_len` is exactly `min(orig_len, snap length)` (what a capture
//! writes: the whole packet, or the snap length of it) and at most the
//! reader's 256 KiB cap, and its sub-second field is below one second in
//! the file's resolution. Each rule matters on real captures: zero
//! payload bytes read as an empty record header, and without the
//! `orig_len` and sub-second rules about one guess in twelve on the
//! benchmark's traces started inside the record before a true start; a
//! header read 4 bytes late takes the packet's first 4 bytes for its
//! `orig_len`, which the exact `incl_len` rule refuses on untruncated
//! captures. A capture whose records are cut shorter than that rule
//! says gets no guessed starts, and is decoded as one range.
//!
//! That is only a guess: payload bytes can forge a chain. The proof
//! comes from the decode. The first range starts right after the file
//! header, so its start is proven. A range decoded from a proven start
//! through a reader bounded at its end ([`std::io::Read::take`]) either
//! ends exactly there, which proves the next range's start, or ends
//! inside a record ([`PcapError::is_eof_inside_record`]), which disproves
//! it. A caller that sees a disproof decodes the rest of the file
//! serially from the last proven start, so a wrong guess costs time,
//! never correctness.
//!
//! Each range is consumed by a [`PcapReader::resume`] reader positioned
//! at the range start with the already-decoded file header, so the one
//! framing loop, [`PcapReader::next_record`], reads it unchanged mid-file.

use crate::format::{FileHeader, RecordHeader, TsResolution, FILE_HEADER_LEN, RECORD_HEADER_LEN};
use crate::reader::MAX_SANE_CAPLEN;
use std::io::{Read, Seek, SeekFrom};

#[cfg(doc)]
use crate::{format::PcapError, reader::PcapReader};

/// Bytes read at each ideal split offset to look for a record start.
pub const WINDOW_LEN: usize = 64 * 1024;

/// Plausible record headers that must follow one another from a guessed
/// record start (fewer when the chain reaches the end of the file or runs
/// past the window).
pub const CHAIN_LEN: usize = 8;

/// Up to `parts` `[lo, hi)` byte ranges covering the record area
/// `[FILE_HEADER_LEN, len)` of a capture of `len` bytes whose file header
/// is `header`, in file order. The first starts at [`FILE_HEADER_LEN`];
/// every other start is a guessed record start near an even split of the
/// bytes. An ideal offset whose window holds no chain adds no range, so a
/// small file may get fewer ranges, and an empty one a single empty range.
pub fn split_ranges<R: Read + Seek>(
    source: &mut R,
    header: &FileHeader,
    len: u64,
    parts: usize,
) -> std::io::Result<Vec<(u64, u64)>> {
    let first = FILE_HEADER_LEN as u64;
    let len = len.max(first);
    let body = len - first;
    let mut starts = vec![first];
    let mut window = Vec::with_capacity(WINDOW_LEN);
    for k in 1..parts.max(1) as u64 {
        let last = *starts.last().expect("the first range");
        let from = (first + body * k / parts as u64).max(last + 1);
        if from >= len {
            break;
        }
        window.clear();
        source.seek(SeekFrom::Start(from))?;
        source
            .by_ref()
            .take(WINDOW_LEN as u64)
            .read_to_end(&mut window)?;
        let at_eof = from + window.len() as u64 >= len;
        if let Some(at) = (0..window.len()).find(|&at| chain_starts(&window[at..], at_eof, header))
        {
            starts.push(from + at as u64);
        }
    }
    let ends = starts[1..].iter().copied().chain([len]);
    Ok(starts.iter().copied().zip(ends).collect())
}

/// Whether `bytes` begins with a chain of plausible record headers whose
/// timestamps never decrease: [`CHAIN_LEN`] of them, or at least one and
/// then exactly the end of the file (`at_eof`: `bytes` runs to the end of
/// the file) or the end of the window (otherwise).
fn chain_starts(bytes: &[u8], at_eof: bool, header: &FileHeader) -> bool {
    // A snap length of 0 stands for none.
    let snaplen = match header.snaplen {
        0 => u32::MAX,
        snaplen => snaplen,
    };
    let frac_limit = match header.resolution {
        TsResolution::Micro => 1_000_000,
        TsResolution::Nano => 1_000_000_000,
    };
    let mut pos = 0usize;
    let mut prev_ts = (0, 0);
    for verified in 0..CHAIN_LEN {
        let Some(raw) = bytes.get(pos..pos + RECORD_HEADER_LEN) else {
            // A header cut by the end of the file is no record; one cut
            // by the window cannot be checked.
            return verified > 0 && (pos == bytes.len() || !at_eof);
        };
        let rec = RecordHeader::decode(raw.try_into().expect("16 bytes"), header.swapped);
        let ts = (rec.ts_sec, rec.ts_frac);
        if rec.orig_len == 0
            || rec.incl_len != rec.orig_len.min(snaplen)
            || rec.incl_len > MAX_SANE_CAPLEN
            || rec.ts_frac >= frac_limit
            || ts < prev_ts
        {
            return false;
        }
        prev_ts = ts;
        pos += RECORD_HEADER_LEN + rec.incl_len as usize;
        if pos > bytes.len() {
            return !at_eof;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PcapError;
    use crate::reader::PcapReader;
    use crate::writer::PcapWriter;
    use std::io::{Cursor, Read};

    /// `n` records with `body_len`-byte bodies of 0xee, which no header
    /// chain can start inside.
    fn capture(n: usize, body_len: usize) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(65535)).unwrap();
        for i in 0..n {
            w.write_bytes(i as u64 * 1_000, &vec![0xee; body_len])
                .unwrap();
        }
        w.finish().unwrap()
    }

    fn ranges(file: &[u8], parts: usize) -> Vec<(u64, u64)> {
        let header = FileHeader::raw_ip(65535);
        split_ranges(&mut Cursor::new(file), &header, file.len() as u64, parts).unwrap()
    }

    /// Decodes `[lo, hi)` with a bounded resumed reader: the timestamps
    /// read and how the range ended.
    fn decode(file: &[u8], (lo, hi): (u64, u64)) -> (Vec<u64>, Result<(), PcapError>) {
        let mut cur = Cursor::new(file);
        cur.set_position(lo);
        let mut r = PcapReader::resume(cur.take(hi - lo), FileHeader::raw_ip(65535));
        let mut ts = Vec::new();
        loop {
            match r.next_record() {
                Ok(Some(rec)) => ts.push(rec.timestamp_ns),
                Ok(None) => return (ts, Ok(())),
                Err(e) => return (ts, Err(e)),
            }
        }
    }

    #[test]
    fn small_capture_splits_into_contiguous_ranges() {
        let file = capture(100, 40);
        for parts in [1, 2, 8] {
            let r = ranges(&file, parts);
            assert!(r.len() <= parts);
            assert_eq!(r[0].0, FILE_HEADER_LEN as u64);
            assert_eq!(r.last().unwrap().1, file.len() as u64);
            assert!(r.windows(2).all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1));
        }
        assert_eq!(
            ranges(&file, 1),
            vec![(FILE_HEADER_LEN as u64, file.len() as u64)]
        );
    }

    #[test]
    fn split_points_are_record_starts() {
        // 1000-byte bodies put most ideal offsets mid-record; every
        // guessed start must still be a record start.
        let file = capture(300, 1000);
        let record_len = (RECORD_HEADER_LEN + 1000) as u64;
        for parts in [2, 3, 4, 8] {
            let r = ranges(&file, parts);
            assert_eq!(r.len(), parts, "parts={parts}");
            for &(lo, _) in &r {
                assert_eq!((lo - FILE_HEADER_LEN as u64) % record_len, 0, "{lo}");
            }
        }
    }

    /// `n` untruncated 40-byte IPv4/TCP packets under a 65535 snap
    /// length, `spacing_ns` apart: a header read 4 bytes late has
    /// `incl_len` 40 and the packet's first 4 bytes for its `orig_len`.
    fn untruncated_ipv4(n: u64, spacing_ns: u64) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(65535)).unwrap();
        for i in 0..n {
            let mut packet = vec![0x45, 0x00, 0x00, 40, 0, 0, 0x40, 0x00, 64, 6, 0xbe, 0xef];
            packet.extend([100, 0, (i >> 8) as u8, i as u8, 203, 0, 113, 9]);
            packet.extend([0x0f, 0xa0, 0x00, 0x50]);
            packet.extend((i as u32).to_be_bytes());
            packet.extend([0, 0, 0, 7, 0x50, 0x10, 0x04, 0x00, 0xca, 0xfe, 0, 0]);
            w.write_bytes(1_000_000_000 + i * spacing_ns, &packet)
                .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn untruncated_captures_split_at_record_starts() {
        for spacing_ns in [1_000, 37_000, 1_000_000] {
            let file = untruncated_ipv4(4000, spacing_ns);
            for parts in [2, 3, 4, 8] {
                let r = ranges(&file, parts);
                assert_eq!(r.len(), parts, "spacing {spacing_ns}, parts={parts}");
                for &(lo, _) in &r {
                    assert_eq!(
                        (lo - FILE_HEADER_LEN as u64) % 56,
                        0,
                        "spacing {spacing_ns}, parts={parts}: {lo}"
                    );
                }
            }
        }
    }

    #[test]
    fn records_cut_below_the_snap_length_get_one_range() {
        // 60-byte packets captured as 40 bytes under a 65535 snap length:
        // no header obeys `incl_len == min(orig_len, snaplen)`, so nothing
        // is guessed, and the one range decodes every record.
        let header = FileHeader::raw_ip(65535);
        let mut w = PcapWriter::new(Vec::new(), header).unwrap();
        for i in 0..2000u64 {
            w.write_packet(&crate::CapturedPacket {
                timestamp_ns: i * 1_000,
                orig_len: 60,
                data: vec![0xee; 40],
            })
            .unwrap();
        }
        let file = w.finish().unwrap();
        for parts in [2, 3, 4, 8] {
            let r = ranges(&file, parts);
            assert_eq!(r, vec![(FILE_HEADER_LEN as u64, file.len() as u64)]);
            let (ts, end) = decode(&file, r[0]);
            end.unwrap();
            assert_eq!(ts, (0..2000).map(|i| i * 1_000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_payload_tails_are_not_taken_for_records() {
        // 40-byte captures of 60-byte packets whose captured bytes end in
        // 12 or 16 zero bytes (empty payloads): an empty record header
        // just before each true one.
        let header = FileHeader::raw_ip(40);
        let mut w = PcapWriter::new(Vec::new(), header).unwrap();
        for i in 0..4000u64 {
            let zeros = if i % 2 == 0 { 12 } else { 16 };
            let body = [vec![0xee; 40 - zeros], vec![0; zeros], vec![0xee; 20]].concat();
            w.write_bytes(1_000_000_000 + i * 1_000, &body).unwrap();
        }
        let file = w.finish().unwrap();
        for parts in [2, 3, 4, 8] {
            let len = file.len() as u64;
            let r = split_ranges(&mut Cursor::new(&file), &header, len, parts).unwrap();
            assert_eq!(r.len(), parts);
            for (lo, _) in r {
                assert_eq!((lo - FILE_HEADER_LEN as u64) % 56, 0, "parts={parts}: {lo}");
            }
        }
    }

    #[test]
    fn split_ranges_decode_to_the_serial_record_stream() {
        let file = capture(500, 1000);
        for parts in [1, 2, 3, 4, 8] {
            let mut timestamps = Vec::new();
            for range in ranges(&file, parts) {
                let (ts, end) = decode(&file, range);
                end.unwrap();
                timestamps.extend(ts);
            }
            let want: Vec<u64> = (0..500).map(|i| i * 1_000).collect();
            assert_eq!(timestamps, want, "parts={parts}");
        }
    }

    #[test]
    fn one_record_file_with_eight_parts_has_one_range() {
        let file = capture(1, 40);
        assert_eq!(ranges(&file, 8).len(), 1);
    }

    #[test]
    fn empty_capture_has_one_empty_range() {
        let file = capture(0, 0);
        let r = ranges(&file, 4);
        assert_eq!(r, vec![(FILE_HEADER_LEN as u64, FILE_HEADER_LEN as u64)]);
        let (ts, end) = decode(&file, r[0]);
        assert!(ts.is_empty() && end.is_ok());
    }

    #[test]
    fn truncated_final_record_is_corrupt() {
        for (cut, what) in [
            (7, "EOF inside record body"),
            (1005, "EOF inside record header"),
        ] {
            let mut file = capture(200, 1000);
            file.truncate(file.len() - cut);
            let r = ranges(&file, 4);
            assert_eq!(r.len(), 4);
            for (i, &range) in r.iter().enumerate() {
                let (_, end) = decode(&file, range);
                if i + 1 < r.len() {
                    end.unwrap();
                } else {
                    let e = end.unwrap_err();
                    assert!(matches!(e, PcapError::Corrupt(w) if w == what), "{e}");
                    assert!(e.is_eof_inside_record());
                }
            }
        }
    }

    #[test]
    fn resume_respects_take_limits() {
        // A resumed reader over a bounded sub-range stops at the range end
        // exactly as if the file ended there.
        let file = capture(300, 1000);
        let record_len = (RECORD_HEADER_LEN + 1000) as u64;
        let (lo, hi) = ranges(&file, 4)[1];
        let (ts, end) = decode(&file, (lo, hi));
        end.unwrap();
        let first = (lo - FILE_HEADER_LEN as u64) / record_len;
        assert_eq!(ts.len() as u64, (hi - lo) / record_len);
        assert_eq!(ts[0], first * 1_000);
    }

    #[test]
    fn a_forged_chain_is_disproved_by_the_range_before_it() {
        // One huge record whose body is a run of plausible records with
        // 4-byte bodies: the guessed split lands inside it, and the first
        // range, bounded there, ends inside a record.
        let mut forged = Vec::new();
        for i in 0..4000u32 {
            forged.extend(
                RecordHeader {
                    ts_sec: i,
                    ts_frac: 0,
                    incl_len: 4,
                    orig_len: 4,
                }
                .encode(),
            );
            forged.extend([0xee; 4]);
        }
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(65535)).unwrap();
        w.write_bytes(0, &forged).unwrap();
        let file = w.finish().unwrap();
        let r = ranges(&file, 2);
        assert_eq!(r.len(), 2, "the forged chain is taken for a record start");
        let (ts, end) = decode(&file, r[0]);
        assert!(ts.is_empty());
        assert!(end.unwrap_err().is_eof_inside_record());
    }
}
