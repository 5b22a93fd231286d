//! A capture with two defects, for the tests that check which one is
//! reported.

use routing_loops::convert::records_from_pcap;

/// The first 2,000 records of `pcap` (or all, when it holds fewer) with
/// records 100 and 101 swapped and the last record cut 5 bytes short, and
/// the order error that must be reported for it: the swap comes first in
/// the file. The capture is shorter than one 4,096-record decode chunk,
/// so the swap lies among the records decoded just before the cut.
pub fn swapped_and_truncated(pcap: &[u8]) -> (Vec<u8>, String) {
    let mut offsets = vec![24];
    while offsets.len() <= 2_000 && offsets[offsets.len() - 1] < pcap.len() {
        let at = offsets[offsets.len() - 1];
        let incl = u32::from_le_bytes(pcap[at + 8..at + 12].try_into().unwrap()) as usize;
        offsets.push(at + 16 + incl);
    }
    let last = offsets.len() - 1;
    assert!(last > 102, "too few records to swap");
    let record = |i: usize| &pcap[offsets[i]..offsets[i + 1]];
    let mut bytes = pcap[..offsets[100]].to_vec();
    bytes.extend_from_slice(record(101));
    bytes.extend_from_slice(record(100));
    bytes.extend_from_slice(&pcap[offsets[102]..offsets[last]]);
    let (records, _) = records_from_pcap(std::io::Cursor::new(&bytes)).expect("parse");
    bytes.truncate(bytes.len() - 5);
    let first = (1..records.len())
        .find(|&i| records[i].timestamp_ns < records[i - 1].timestamp_ns)
        .expect("the swap puts a record out of order");
    let want = format!(
        "record {first} at {} ns is earlier than the record before it at {} ns",
        records[first].timestamp_ns,
        records[first - 1].timestamp_ns
    );
    (bytes, want)
}
