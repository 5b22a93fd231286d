#![warn(missing_docs)]
//! Classic libpcap file format, implemented from scratch.
//!
//! The Sprint IPMON monitors wrote packet traces containing the first ~40
//! bytes of every packet; the moral equivalent today is a pcap file with a
//! 40-byte snap length. This crate reads and writes the classic (non-pcapng)
//! format:
//!
//! * both microsecond (`0xa1b2c3d4`) and nanosecond (`0xa1b23c4d`) magics,
//! * both endiannesses (files written on either byte order),
//! * arbitrary snap lengths with `incl_len`/`orig_len` semantics,
//! * [`LinkType::RawIp`] (packets start at the IPv4 header — what the
//!   simulator's taps emit) and [`LinkType::Ethernet`].
//!
//! Timestamps are surfaced as `u64` nanoseconds since the trace epoch, the
//! time unit used across the workspace.
//!
//! Scanning is zero-copy and allocation-free: [`PcapReader::next_record`]
//! lends each record as a [`RecordRef`] borrowed from the reader's block
//! buffer, where it lies, so a full-trace pass copies no record and
//! performs O(1) heap allocations total. [`PcapReader::next_packet`] is the
//! owned-copy convenience layer over the same loop.
//!
//! ```
//! use pcaplib::{FileHeader, PcapReader, PcapWriter};
//! use std::io::Cursor;
//!
//! let mut writer = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
//! writer.write_bytes(1_000_000_500, &[0x45; 60]).unwrap(); // truncated to 40
//! let file = writer.finish().unwrap();
//!
//! let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
//! let rec = reader.next_record().unwrap().expect("one record");
//! assert_eq!(rec.timestamp_ns, 1_000_000_500);
//! assert_eq!(rec.data.len(), 40);
//! assert_eq!(rec.orig_len, 60);
//! assert!(rec.is_truncated());
//! assert!(reader.next_record().unwrap().is_none()); // clean EOF
//! ```

pub mod format;
pub mod reader;
pub mod split;
pub mod writer;

pub use format::{FileHeader, LinkType, PcapError, RecordHeader, TsResolution};
pub use reader::{PcapReader, ReadCounts, RecordRef, PUBLISH_EVERY};
pub use split::split_ranges;
pub use writer::PcapWriter;

/// One captured record: a timestamp, the original on-the-wire length, and
/// the (possibly truncated) captured bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Nanoseconds since the trace epoch.
    pub timestamp_ns: u64,
    /// Original packet length on the wire.
    pub orig_len: u32,
    /// Captured bytes (`len() <= orig_len` and `<= snaplen`).
    pub data: Vec<u8>,
}

impl CapturedPacket {
    /// True when the capture was cut short by the snap length.
    pub fn is_truncated(&self) -> bool {
        (self.data.len() as u32) < self.orig_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_flag() {
        let full = CapturedPacket {
            timestamp_ns: 0,
            orig_len: 4,
            data: vec![0; 4],
        };
        assert!(!full.is_truncated());
        let cut = CapturedPacket {
            timestamp_ns: 0,
            orig_len: 1500,
            data: vec![0; 40],
        };
        assert!(cut.is_truncated());
    }
}
