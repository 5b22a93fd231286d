//! Regression guard for the level-0 probe path of the two-level candidate
//! index: pushing a trace of first sightings — the dominant shape of real
//! backbone traffic — through [`CandidateScanner`] must not touch the heap
//! at all once the scanner exists. Every record lands in the pre-filter's
//! inline seed lane; the exact map and its per-candidate `Vec`s are never
//! reached.
//!
//! The guard is a counting [`GlobalAlloc`] wrapper around the system
//! allocator. This file holds exactly one test so no sibling test thread
//! can allocate concurrently and pollute the count; lazily-registered
//! telemetry counters are forced ahead of the measured window by a warm-up
//! scan.

use loopscope::{CandidateScanner, DetectorConfig, TraceRecord};
use net_types::{Packet, TcpFlags};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// `n` records with pairwise-distinct replica keys (distinct idents and
/// destinations): every push is a first sighting.
fn first_sightings(n: usize) -> Vec<TraceRecord> {
    assert!(n <= usize::from(u16::MAX));
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 1, (i / 251) as u8, 1),
            Ipv4Addr::new(203, (i % 200) as u8, 113, 9),
            4000,
            80,
            TcpFlags::ACK,
            &b"payload"[..],
        );
        p.ip.ident = i as u16;
        p.ip.ttl = 60;
        p.fill_checksums();
        out.push(TraceRecord::from_packet(i as u64 * 1_000, &p));
    }
    out
}

fn scan(records: &[TraceRecord]) -> (u64, u64) {
    // Sized for the whole trace, as a caller that knows its live
    // population would size it: no growth sweep can trigger. The sweep's
    // own steady state is covered by `scanner_steady_state_alloc.rs`.
    let mut scanner = CandidateScanner::with_capacity(DetectorConfig::default(), records.len());
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    for (idx, rec) in records.iter().enumerate() {
        scanner.push(idx, rec);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - start;
    let (done, counters) = scanner.finish();
    assert!(done.is_empty(), "distinct keys must yield no streams");
    assert_eq!(counters.opened, records.len() as u64);
    assert_eq!(counters.discarded, records.len() as u64);
    (counters.opened, allocs)
}

#[test]
fn first_sighting_probe_path_performs_no_allocations() {
    // Warm-up: forces telemetry's lazily-registered counters (touched in
    // `finish`) and any other one-time initialisation outside the
    // measured window.
    let small = first_sightings(64);
    let (warm, _) = scan(&small);
    assert_eq!(warm, 64);

    let records = first_sightings(60_000);
    let (opened, allocs) = scan(&records);
    assert_eq!(opened, 60_000);
    assert_eq!(
        allocs, 0,
        "the level-0 probe path must not allocate per record (saw {allocs} allocations)"
    );
}
