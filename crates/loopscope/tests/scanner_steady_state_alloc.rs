//! Regression guard for the level-0 table's generation sweep: once a
//! default-sized [`CandidateScanner`] has grown to the replica window of a
//! steady stream of first sightings, further traffic at that rate — many
//! generations of it, so the sweep runs again and again — must not touch
//! the heap. The sweep clears its lanes in place and reuses its survivor
//! scratch; only growth allocates.
//!
//! The guard is a counting [`GlobalAlloc`] wrapper around the system
//! allocator. This file holds exactly one test so no sibling test thread
//! can allocate concurrently and pollute the count.

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

/// The eviction generation of the default configuration: the smallest power
/// of two at or above the 1 s `max_replica_gap_ns`.
const GEN_NS: u64 = 1 << 30;

/// First sightings every `spacing_ns` over `[from_ns, to_ns)`, with
/// pairwise-distinct replica keys.
fn first_sightings(spacing_ns: u64, from_ns: u64, to_ns: u64) -> Vec<TraceRecord> {
    (from_ns / spacing_ns..to_ns / spacing_ns)
        .map(|i| {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, (i >> 16) as u8, (i >> 8) as u8, i as u8),
                Ipv4Addr::new(203, (i % 200) as u8, 113, 9),
                4000,
                80,
                TcpFlags::ACK,
                &b"payload"[..],
            );
            p.ip.ident = i as u16;
            p.ip.ttl = 60;
            p.fill_checksums();
            TraceRecord::from_packet(i * spacing_ns, &p)
        })
        .collect()
}

#[test]
fn steady_rate_sweeps_perform_no_allocations() {
    // Every rate's replica window (two generations) is several times the
    // default table. At each of these rates a table sized from the
    // survivors alone would grow again after the warm-up, when a sweep
    // happens to land at the end of a generation; at 4,750 records/s a
    // survivor scratch grown only on demand would outgrow its first
    // allocation.
    for rate in [1_250u64, 4_750, 9_500] {
        let spacing_ns = 1_000_000_000 / rate;
        // The table reaches its window size at the first sweep that sees a
        // complete generation, which falls in the first two windows.
        let warm = first_sightings(spacing_ns, 0, 4 * GEN_NS);
        let steady = first_sightings(spacing_ns, 4 * GEN_NS, 36 * GEN_NS);

        let mut scanner = CandidateScanner::new(DetectorConfig::default());
        for (idx, rec) in warm.iter().enumerate() {
            scanner.push(idx, rec);
        }
        let start = ALLOCATIONS.load(Ordering::Relaxed);
        for (idx, rec) in steady.iter().enumerate() {
            scanner.push(warm.len() + idx, rec);
        }
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - start;

        let (done, counters) = scanner.finish();
        let total = (warm.len() + steady.len()) as u64;
        assert!(done.is_empty(), "distinct keys must yield no streams");
        assert_eq!(counters.opened, total);
        assert_eq!(counters.discarded, total);
        assert_eq!(
            allocs, 0,
            "sweeps at {rate} records/s must not allocate (saw {allocs} allocations over {} records)",
            steady.len()
        );
    }
}
