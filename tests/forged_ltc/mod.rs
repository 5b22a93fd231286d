//! `.ltc` images of a capture whose fingerprints are forged, for the tests
//! that check no file can hand the detectors a wrong fingerprint.

use routing_loops::convert::records_from_pcap;
use routing_loops::corpus::columns::encode_block;
use routing_loops::corpus::format::block_checksum;
use routing_loops::corpus::{ltc_to_vec, LtcHeader, BLOCK_RECORDS};
use routing_loops::loopscope::TraceRecord;

/// A version-1 image of `records` whose stored fingerprint lane, after
/// each block's timestamps, holds `lane(i)` for record `i`.
fn v1_image(records: &[TraceRecord], skipped: u64, lane: impl Fn(usize) -> u64) -> Vec<u8> {
    let header = LtcHeader {
        version: 1,
        ..LtcHeader::new(records.len() as u64, skipped)
    };
    let mut out = header.encode().to_vec();
    for (b, chunk) in records.chunks(BLOCK_RECORDS).enumerate() {
        let mut block = Vec::new();
        encode_block(chunk, &mut block);
        let at = 8 * chunk.len();
        let first = b * BLOCK_RECORDS;
        let forged = (first..first + chunk.len()).flat_map(|i| lane(i).to_le_bytes());
        block.splice(at..at, forged);
        out.extend_from_slice(&block_checksum(b as u64, &block).to_le_bytes());
        out.extend_from_slice(&block);
    }
    out
}

/// Named `.ltc` images of `pcap`'s records, each with forged
/// fingerprints: a version-1 lane whose every entry is the first
/// record's (a reader trusting it would chain every key onto one index
/// entry), a version-1 lane of the record indexes (a reader trusting it
/// would split every replica from its siblings, so no loop would be
/// found), and a current-version file written from records whose
/// in-memory fingerprints are all the first record's.
pub fn forged_images(pcap: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let (mut records, skipped) = records_from_pcap(std::io::Cursor::new(pcap)).expect("parse pcap");
    let shared = records[0].fingerprint;
    let equal_lane = v1_image(&records, skipped, |_| shared);
    let index_lane = v1_image(&records, skipped, |i| i as u64);
    for r in &mut records {
        r.fingerprint = shared;
    }
    vec![
        ("v1_equal_lane", equal_lane),
        ("v1_index_lane", index_lane),
        ("forged_records", ltc_to_vec(&records, skipped)),
    ]
}
