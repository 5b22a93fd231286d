//! Memory bound for the streamed conversion: `pcap_to_ltc` and
//! `pcap2ltc --verify`'s re-read hold a few blocks of records, never the
//! capture. A counting global allocator tracks live heap bytes; the same
//! synthetic capture shape at N and 4N records goes through both at one
//! and two threads, and their peak live heap must differ by less than one
//! block of records. Holding the records (56 bytes each) would put
//! 3N × 56 bytes between them.

use routing_loops::convert::{pcap_to_ltc, verify_ltc_against_pcap, PAPER_SNAPLEN};
use routing_loops::corpus::BLOCK_RECORDS;
use routing_loops::loopscope::TraceRecord;
use routing_loops::net_types::{Packet, TcpFlags};
use routing_loops::pcaplib::{FileHeader, PcapWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufWriter;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live =
                LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst) + layout.size() as isize;
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live-heap growth (bytes above the starting level) while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (isize, R) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let r = f();
    (PEAK.load(Ordering::SeqCst) - before, r)
}

/// Writes a capture of `n` TCP records, 10 µs apart, to a temp file,
/// streaming it so the test itself never holds the capture.
fn write_capture(tag: &str, n: usize) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("convert_memory_{}_{tag}.pcap", std::process::id()));
    let file = BufWriter::new(std::fs::File::create(&path).unwrap());
    let mut w = PcapWriter::new(file, FileHeader::raw_ip(PAPER_SNAPLEN)).unwrap();
    for i in 0..n {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, (i >> 8) as u8, i as u8),
            Ipv4Addr::new(203, 0, 113, (i % 200) as u8),
            1,
            2,
            TcpFlags::ACK,
            &b"payload"[..],
        );
        p.ip.ident = i as u16;
        p.fill_checksums();
        w.write_bytes(i as u64 * 10_000, &p.emit()).unwrap();
    }
    w.finish().unwrap();
    path
}

/// Peak live heap of converting the capture at `pcap` and of verifying
/// the result, at `threads`.
fn peaks(pcap: &Path, threads: usize) -> (isize, isize) {
    let ltc = pcap.with_extension(format!("t{threads}.ltc"));
    let (convert, counts) = peak_during(|| pcap_to_ltc(pcap, &ltc, threads).unwrap());
    assert!(counts.0 > 0);
    let (verify, ()) = peak_during(|| verify_ltc_against_pcap(&ltc, pcap).unwrap());
    let _ = std::fs::remove_file(&ltc);
    (convert, verify)
}

fn assert_bounded(n: usize) {
    let block = (BLOCK_RECORDS * std::mem::size_of::<TraceRecord>()) as isize;
    let warm = write_capture("warm", 1_000);
    let short = write_capture("short", n);
    let long = write_capture("long", 4 * n);
    for threads in [1, 2] {
        // Warm-up run so one-time allocations (telemetry registries,
        // thread-locals) don't count against the short capture.
        let _ = peaks(&warm, threads);
        let (convert_short, verify_short) = peaks(&short, threads);
        let (convert_long, verify_long) = peaks(&long, threads);
        for (what, at_n, at_4n) in [
            ("pcap_to_ltc", convert_short, convert_long),
            ("verify_ltc_against_pcap", verify_short, verify_long),
        ] {
            assert!(
                (at_4n - at_n).abs() < block,
                "{what} at {threads} threads: peak heap {at_n} B at {n} records, \
                 {at_4n} B at {}; one block of records is {block} B",
                4 * n
            );
        }
    }
    for path in [warm, short, long] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn conversion_peak_memory_does_not_grow_with_the_capture() {
    assert_bounded(60_000);
}

/// The same bound at release size: 500,000 and 2,000,000 records.
#[test]
#[ignore = "release-size capture; scripts/check.sh runs it in release"]
fn conversion_peak_memory_does_not_grow_with_a_large_capture() {
    assert_bounded(500_000);
}
