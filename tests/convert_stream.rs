//! The streamed conversion's failure paths, past the first block and at
//! the destination: a capture of more than three `.ltc` blocks with its
//! last record cut, a record out of order in block 3, or both, goes
//! through `pcap_to_ltc` and `pcap2ltc` at one and two threads. Each
//! gives the exact error (of the two defects, the order error: it comes
//! first in the file), exit 1 from the binary, and leaves neither the
//! corpus nor its temporary file behind. An existing destination that is
//! not a regular file is refused and left as it was.

use routing_loops::convert::{pcap_to_ltc, PAPER_SNAPLEN};
use routing_loops::corpus::BLOCK_RECORDS;
use routing_loops::net_types::{Packet, TcpFlags};
use routing_loops::pcaplib::{FileHeader, PcapWriter};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Records in the capture: three full blocks and part of a fourth.
const RECORDS: usize = 3 * BLOCK_RECORDS + 50;

/// The record that goes back in time: in block 3 (the third).
const LATE: usize = 2 * BLOCK_RECORDS + 100;

/// Record `i`'s timestamp in an ordered capture: one per millisecond.
fn ts(i: usize) -> u64 {
    i as u64 * 1_000_000
}

/// A capture of [`RECORDS`] records, with record [`LATE`] two
/// milliseconds early when `unsorted`, and the last record's body cut
/// 5 bytes short when `cut`.
fn capture(unsorted: bool, cut: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = PcapWriter::new(&mut bytes, FileHeader::raw_ip(PAPER_SNAPLEN)).unwrap();
    for i in 0..RECORDS {
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
        let at = if unsorted && i == LATE {
            ts(i - 2)
        } else {
            ts(i)
        };
        w.write_bytes(at, &p.emit()).unwrap();
    }
    w.finish().unwrap();
    if cut {
        bytes.truncate(bytes.len() - 5);
    }
    bytes
}

const CUT: &str = "pcap source: corrupt pcap file: EOF inside record body";

fn order_error() -> String {
    format!(
        "pcap source: trace records must be sorted by timestamp: record {LATE} at {} ns is earlier than the record before it at {} ns",
        ts(LATE - 2),
        ts(LATE - 1)
    )
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("convert_stream_{}_{tag}", std::process::id()))
}

/// `dst` itself, if it exists, and any temporary file a conversion to it
/// left in its directory.
fn leftovers(dst: &Path) -> Vec<PathBuf> {
    let name = dst.file_name().unwrap().to_string_lossy();
    let tmp = format!(".{name}.");
    std::fs::read_dir(dst.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let f = p.file_name().unwrap().to_string_lossy();
            *f == *name || f.starts_with(&tmp)
        })
        .collect()
}

fn pcap2ltc(pcap: &Path, dst: &Path, threads: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pcap2ltc"))
        .arg(pcap)
        .arg(dst)
        .args(["--threads", threads])
        .output()
        .expect("run pcap2ltc")
}

#[test]
fn defects_past_the_first_block_refuse_the_conversion() {
    for (name, unsorted, cut, want) in [
        ("cut", false, true, CUT.to_string()),
        ("unsorted", true, false, order_error()),
        ("unsorted_and_cut", true, true, order_error()),
    ] {
        let pcap = temp(&format!("{name}.pcap"));
        std::fs::write(&pcap, capture(unsorted, cut)).unwrap();
        let dst = temp(&format!("{name}.ltc"));
        for threads in [1, 2] {
            let err = pcap_to_ltc(&pcap, &dst, threads).unwrap_err();
            assert_eq!(
                err.to_string(),
                want,
                "{name}, library at {threads} threads"
            );
            assert_eq!(
                leftovers(&dst),
                Vec::<PathBuf>::new(),
                "{name} at {threads}"
            );

            let out = pcap2ltc(&pcap, &dst, &threads.to_string());
            assert_eq!(out.status.code(), Some(1), "{name} at {threads}: {out:?}");
            assert_eq!(
                String::from_utf8(out.stderr).unwrap(),
                format!("pcap2ltc: {want}\n"),
                "{name}, pcap2ltc at {threads} threads"
            );
            assert_eq!(
                leftovers(&dst),
                Vec::<PathBuf>::new(),
                "{name} at {threads}"
            );
        }
        let _ = std::fs::remove_file(&pcap);
    }
}

#[test]
fn a_failed_conversion_leaves_an_existing_corpus_as_it_was() {
    let pcap = temp("replace.pcap");
    let dst = temp("replace.ltc");
    std::fs::write(&pcap, capture(false, false)).unwrap();
    assert_eq!(pcap_to_ltc(&pcap, &dst, 2).unwrap(), (RECORDS as u64, 0));
    let good = std::fs::read(&dst).unwrap();
    std::fs::write(&pcap, capture(true, true)).unwrap();
    for threads in [1, 2] {
        assert!(pcap_to_ltc(&pcap, &dst, threads).is_err());
        assert_eq!(std::fs::read(&dst).unwrap(), good, "{threads} threads");
        assert_eq!(leftovers(&dst), vec![dst.clone()], "{threads} threads");
    }
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&dst);
}

#[test]
fn a_destination_that_is_not_a_regular_file_is_refused() {
    let pcap = temp("dir.pcap");
    std::fs::write(&pcap, capture(false, false)).unwrap();
    let dst = temp("dir.ltc");
    std::fs::create_dir(&dst).unwrap();
    std::fs::write(dst.join("inside"), b"kept").unwrap();
    let want = format!(
        "ltc corpus: {}: io error: exists and is not a regular file",
        dst.display()
    );
    for threads in [1, 2] {
        let err = pcap_to_ltc(&pcap, &dst, threads).unwrap_err();
        assert_eq!(err.to_string(), want, "library at {threads} threads");
        let out = pcap2ltc(&pcap, &dst, &threads.to_string());
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            format!("pcap2ltc: {want}\n"),
            "pcap2ltc at {threads} threads"
        );
        assert!(dst.is_dir());
        assert_eq!(std::fs::read(dst.join("inside")).unwrap(), b"kept");
        assert_eq!(leftovers(&dst), vec![dst.clone()], "{threads} threads");
    }
    let _ = std::fs::remove_dir_all(&dst);
    let _ = std::fs::remove_file(&pcap);
}
