//! Pipeline sources bridging the simulator into `loopscope::pipeline`.
//!
//! `loopscope` cannot depend on `simnet` (the detector is deliberately
//! simulator-agnostic), so the [`RecordSource`] implementation for taps
//! lives here: a [`TapSource`] converts a tap's observations into
//! [`loopscope::TraceRecord`]s once and then hands the pipeline its
//! records as one in-memory segment.

use crate::convert::records_from_tap;
use loopscope::pipeline::{PipelineError, RecordSource, Segments, SourceSummary};
use loopscope::TraceRecord;
use simnet::Tap;
use std::ops::ControlFlow;

/// A [`RecordSource`] over a simulated tap's observations.
pub struct TapSource {
    records: Vec<TraceRecord>,
}

impl TapSource {
    /// Converts the tap's records (full headers, no truncation loss) into
    /// a pipeline source.
    pub fn new(tap: &Tap) -> Self {
        Self {
            records: records_from_tap(tap),
        }
    }

    /// The converted records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

impl RecordSource for TapSource {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        f(&self.records)?;
        Ok(SourceSummary {
            records: self.records.len() as u64,
            skipped: 0,
        })
    }

    fn segments(
        &mut self,
        _parts: usize,
        _poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Option<Result<Segments<'_>, PipelineError>> {
        Some(Ok(Segments::borrowed(&self.records)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope::pipeline::{run_pipeline, SerialEngine};
    use loopscope::{Detector, DetectorConfig};
    use net_types::{Packet, TcpFlags};
    use simnet::{LinkId, SimTime};
    use std::net::Ipv4Addr;

    fn looping_tap() -> Tap {
        let mut tap = Tap::new(LinkId(0));
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, 7),
            4000,
            80,
            TcpFlags::ACK,
            &b"xy"[..],
        );
        p.ip.ttl = 60;
        p.fill_checksums();
        for k in 0..6u64 {
            if k > 0 {
                p.ip.decrement_ttl();
                p.ip.decrement_ttl();
            }
            tap.record(SimTime::from_millis(k), p.clone());
        }
        tap
    }

    #[test]
    fn tap_source_matches_direct_detection() {
        let tap = looping_tap();
        assert_eq!(tap.len(), 6);
        assert!(!tap.is_empty());
        let mut source = TapSource::new(&tap);
        let direct = Detector::new(DetectorConfig::default()).run(source.records());
        let result = run_pipeline(
            &mut source,
            &mut SerialEngine::new(DetectorConfig::default()),
            &mut [],
        )
        .expect("pipeline run");
        assert_eq!(result.streams, direct.streams);
        assert_eq!(result.loops, direct.loops);
        assert_eq!(result.stats, direct.stats);
    }
}
