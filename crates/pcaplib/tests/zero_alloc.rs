//! Regression guard for the zero-allocation scan path: reading a
//! 100 000-record trace through [`PcapReader::next_record`] must not touch
//! the heap at all once the reader exists.
//!
//! The guard is a counting [`GlobalAlloc`] wrapper around the system
//! allocator. This file holds exactly one test so no sibling test thread
//! can allocate concurrently and pollute the count; lazily-registered
//! telemetry counters are forced ahead of the measured window by a warm-up
//! scan.

use pcaplib::{FileHeader, PcapReader, PcapWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
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

fn trace_of(records: usize) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
    for i in 0..records {
        // 40-byte capture of a nominal 1500-byte packet, varied slightly
        // so the file is not one repeated block.
        let body = [(i % 251) as u8; 40];
        let mut rec = pcaplib::CapturedPacket {
            timestamp_ns: i as u64 * 1_000,
            orig_len: 1500,
            data: body.to_vec(),
        };
        rec.data[0] = (i % 256) as u8;
        w.write_packet(&rec).unwrap();
    }
    w.finish().unwrap()
}

fn scan(file: &[u8]) -> (u64, u64) {
    let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
    let mut count = 0u64;
    let mut checksum = 0u64;
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    while let Some(rec) = reader.next_record().unwrap() {
        count += 1;
        // Touch the bytes so the read cannot be optimised away.
        checksum = checksum.wrapping_add(u64::from(rec.data[0]));
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - start;
    assert!(checksum > 0);
    (count, allocs)
}

#[test]
fn full_scan_performs_no_per_record_allocations() {
    // Warm-up: forces telemetry's lazily-registered counters (and any
    // other one-time initialisation) outside the measured window.
    let small = trace_of(64);
    let (warm, _) = scan(&small);
    assert_eq!(warm, 64);

    let file = trace_of(100_000);
    let (count, allocs) = scan(&file);
    assert_eq!(count, 100_000);
    assert_eq!(
        allocs, 0,
        "scanning 100k records must not allocate (saw {allocs} allocations)"
    );
}
