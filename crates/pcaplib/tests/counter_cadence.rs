//! When a [`PcapReader`] publishes `pcap.records_total` and
//! `pcap.truncated_records`: every [`PUBLISH_EVERY`] records, at end of
//! file, and when it is dropped — never per record, and never losing a
//! count. This file holds exactly one test, so no sibling test thread
//! moves the process-wide counters while it reads them.

use pcaplib::{FileHeader, PcapReader, PcapWriter, RecordBuf, PUBLISH_EVERY};
use std::io::Cursor;

/// `n` records under a 40-byte snap length; every other one is 60 bytes
/// long and so truncated.
fn trace_of(n: u64) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
    for i in 0..n {
        let len = if i % 2 == 0 { 60 } else { 28 };
        w.write_bytes(i * 1_000, &vec![i as u8; len]).unwrap();
    }
    w.finish().unwrap()
}

fn counts() -> (u64, u64) {
    let reg = telemetry::global();
    (
        reg.counter("pcap.records_total").get(),
        reg.counter("pcap.truncated_records").get(),
    )
}

fn moved(before: (u64, u64)) -> (u64, u64) {
    let now = counts();
    (now.0 - before.0, now.1 - before.1)
}

fn read_n(r: &mut PcapReader<Cursor<Vec<u8>>>, buf: &mut RecordBuf, n: u64) {
    for _ in 0..n {
        assert!(r.read_into(buf).unwrap());
    }
}

#[test]
fn counters_publish_in_batches_at_eof_and_on_drop() {
    let total = 2 * PUBLISH_EVERY + 100;
    let file = trace_of(total);
    let mut buf = RecordBuf::new();

    // Batches: nothing until a full batch has been read, then exactly it.
    let before = counts();
    let mut r = PcapReader::new(Cursor::new(file.clone())).unwrap();
    read_n(&mut r, &mut buf, PUBLISH_EVERY - 1);
    assert_eq!(moved(before), (0, 0), "one record short of a batch");
    read_n(&mut r, &mut buf, 1);
    assert_eq!(moved(before), (PUBLISH_EVERY, PUBLISH_EVERY / 2));
    read_n(&mut r, &mut buf, PUBLISH_EVERY - 1);
    assert_eq!(moved(before), (PUBLISH_EVERY, PUBLISH_EVERY / 2));

    // End of file: exact, before the reader is dropped.
    while r.read_into(&mut buf).unwrap() {}
    assert_eq!(moved(before), (total, total / 2), "exact at EOF");
    drop(r);
    assert_eq!(moved(before), (total, total / 2), "drop adds nothing more");

    // Dropped mid-file, mid-batch: every record returned is counted.
    let before = counts();
    let mut r = PcapReader::new(Cursor::new(file.clone())).unwrap();
    read_n(&mut r, &mut buf, PUBLISH_EVERY + 7);
    assert_eq!(moved(before), (PUBLISH_EVERY, PUBLISH_EVERY / 2));
    drop(r);
    assert_eq!(
        moved(before),
        (PUBLISH_EVERY + 7, (PUBLISH_EVERY + 8) / 2),
        "exact after a mid-file drop"
    );

    // Two readers on two threads sum exactly.
    let before = counts();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut r = PcapReader::new(Cursor::new(file.clone())).unwrap();
                let mut buf = RecordBuf::new();
                while r.read_into(&mut buf).unwrap() {}
            });
        }
    });
    assert_eq!(moved(before), (2 * total, total));

    // The owned-packet path counts through the same reader.
    let before = counts();
    let packets = PcapReader::new(Cursor::new(file))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(packets.len() as u64, total);
    assert_eq!(moved(before), (total, total / 2));
}
