//! A whole-file parallel pcap read, for the tests that hold the range
//! decode to the serial read: [`read_pcap_ranges`] over up to `threads`
//! byte ranges, joined in file order.

use routing_loops::loopscope::segment::read_pcap_ranges;
use routing_loops::loopscope::TraceRecord;
use routing_loops::pcaplib::PcapError;
use std::ops::ControlFlow;
use std::path::Path;

/// The records and skip count of the capture at `path` read as up to
/// `threads` ranges, or the first error in file order.
pub fn read_joined(path: &Path, threads: usize) -> Result<(Vec<TraceRecord>, u64), PcapError> {
    let mut ranges =
        read_pcap_ranges(path, threads, &Vec::new, &mut |_| ControlFlow::Continue(()))?;
    let skipped = ranges.skipped;
    match ranges.failed.take() {
        Some(e) => Err(e),
        None => Ok((ranges.concat(), skipped)),
    }
}
