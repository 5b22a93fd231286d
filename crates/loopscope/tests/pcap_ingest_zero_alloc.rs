//! Regression guard for the product's pcap ingest:
//! [`PcapSource::for_each_record`] — the reader's framing loop and the
//! direct header decode, the path every `loopdetect`, `loopmond` and
//! `pcap2ltc` pcap read runs — over a 100 000-record trace must not touch
//! the heap at all once the source exists.
//!
//! The guard is a counting [`GlobalAlloc`] wrapper around the system
//! allocator. This file holds exactly one test so no sibling test thread
//! can allocate concurrently and pollute the count; lazily-registered
//! telemetry counters are forced ahead of the measured window by a warm-up
//! pass.

use loopscope::PcapSource;
use net_types::{IcmpHeader, Packet, TcpFlags, UdpHeader};
use pcaplib::{FileHeader, PcapError, PcapWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A 40-byte-snap capture of `n` TCP, UDP and ICMP packets, and every
/// 50th record a non-IPv4 one the decode skips.
fn capture(n: usize) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
    for i in 0..n {
        let src = Ipv4Addr::new(100, 1, (i >> 8) as u8, i as u8);
        let dst = Ipv4Addr::new(203, 0, 113, (i % 200) as u8);
        let payload = vec![0u8; i % 100];
        let mut p = match i % 3 {
            0 => Packet::tcp_flags(src, dst, 4000, 80, TcpFlags::ACK, payload),
            1 => Packet::udp(src, dst, UdpHeader::new(53, 53), payload),
            _ => Packet::icmp(src, dst, IcmpHeader::echo(true, 7, i as u16), payload),
        };
        p.ip.ident = i as u16;
        p.fill_checksums();
        let mut bytes = p.emit();
        if i % 50 == 49 {
            bytes[0] = 0x60;
        }
        w.write_bytes(i as u64 * 1_000, &bytes).unwrap();
    }
    w.finish().unwrap()
}

/// Decodes `file` through one source: the records decoded and the heap
/// allocations made after the source was opened.
fn ingest(file: &[u8]) -> (u64, u64) {
    let mut source = PcapSource::new(Cursor::new(file)).unwrap();
    let (mut count, mut fingerprints) = (0u64, 0u64);
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    source
        .for_each_record(|rec| {
            count += 1;
            // Use every record so the decode cannot be optimised away.
            fingerprints = fingerprints.wrapping_add(rec.fingerprint);
            Ok::<(), PcapError>(())
        })
        .unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - start;
    assert_ne!(fingerprints, 0);
    (count, allocs)
}

#[test]
fn pcap_ingest_performs_no_per_record_allocations() {
    // Warm-up: forces telemetry's lazily-registered counters (and any
    // other one-time initialisation) outside the measured window.
    assert_eq!(ingest(&capture(64)).0, 64 - 1);

    let file = capture(100_000);
    let (count, allocs) = ingest(&file);
    assert_eq!(count, 100_000 - 100_000 / 50);
    assert_eq!(
        allocs, 0,
        "decoding 100k records must not allocate (saw {allocs} allocations)"
    );
}
