//! Regression guard for the §V record fold: once constructed, an
//! [`AnalysisAccumulator`] folds records — through `add_record`, its
//! `Sink::on_record` and the batch `Sink::on_records` — without touching
//! the heap. The traffic mix is a fixed table of class-code counters, so no
//! record builds a label list or searches one.
//!
//! The guard is a counting [`GlobalAlloc`] wrapper around the system
//! allocator. This file holds exactly one test so no sibling test thread
//! can allocate concurrently and pollute the count.

use loopscope::analysis::AnalysisAccumulator;
use loopscope::pipeline::Sink;
use loopscope::TraceRecord;
use net_types::{IcmpHeader, IpProtocol, Packet, TcpFlags, UdpHeader};
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

/// Records of every kind the classifier tells apart: TCP with many flag
/// combinations, UDP, ICMP and IGMP, to unicast and multicast destinations.
fn mixed_records() -> Vec<TraceRecord> {
    let src = Ipv4Addr::new(100, 0, 0, 1);
    let mut out = Vec::new();
    let dsts = [Ipv4Addr::new(203, 0, 113, 9), Ipv4Addr::new(224, 0, 1, 1)];
    for i in 0..512usize {
        let dst = dsts[i / 4 % 2];
        let packet = match i % 4 {
            0 => Packet::tcp_flags(src, dst, 4000, 80, TcpFlags(i as u8), &b"payload"[..]),
            1 => Packet::udp(src, dst, UdpHeader::new(53, 5353), &b"q"[..]),
            2 => Packet::icmp(src, dst, IcmpHeader::echo(true, 1, i as u16), &b""[..]),
            _ => Packet::opaque(src, dst, IpProtocol::Igmp, vec![0x16, 0, 0, 0]),
        };
        out.push(TraceRecord::from_packet(i as u64 * 1_000, &packet));
    }
    out
}

#[test]
fn folding_records_performs_no_allocations() {
    let records = mixed_records();
    let mut acc = AnalysisAccumulator::new();

    let start = ALLOCATIONS.load(Ordering::Relaxed);
    for rec in &records {
        acc.add_record(rec);
    }
    for rec in &records {
        acc.on_record(rec).unwrap();
    }
    acc.on_records(&records).unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - start;

    assert_eq!(
        allocs,
        0,
        "folding {} records must not allocate (saw {allocs} allocations)",
        3 * records.len()
    );
    let report = acc.report();
    assert_eq!(report.summary.total_packets, 3 * records.len() as u64);
    assert_eq!(report.mix_all.items(), 3 * records.len() as u64);
    assert!(report.mix_all.count("MCAST") > 0 && report.mix_all.count("OTHER") > 0);
}
