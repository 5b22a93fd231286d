//! Derivation of every figure/table statistic from a detection run.
//!
//! Every statistic here is a *fold*: [`AnalysisAccumulator`] computes the
//! whole §V suite incrementally — records as they are ingested, streams
//! and loops as they are emitted — so a streaming pipeline run produces
//! the full report in one pass with memory bounded by the number of
//! streams, never the number of records. The historical slice functions
//! (`trace_summary`, `mix_all`, …) are thin wrappers over the same folds
//! and remain the convenient API when the trace is already in memory.

use crate::merge::RoutingLoop;
use crate::record::TraceRecord;
use crate::stream::ReplicaStream;
use crate::traffic_class::{self, ClassCounts};
use stats::{CategoricalDist, Cdf, Histogram};

/// Table I row material for one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Observation window length in nanoseconds.
    pub duration_ns: u64,
    /// Total packets captured.
    pub total_packets: u64,
    /// Total bytes (original wire lengths).
    pub total_bytes: u64,
    /// Average offered bandwidth in bits per second.
    pub avg_bandwidth_bps: f64,
    /// Unique packets that looped (one per validated replica stream).
    pub looped_packets: u64,
    /// Total replica sightings (each looping packet seen k times counts k).
    pub looped_sightings: u64,
}

/// The full §V analysis of one trace: everything the paper's figures and
/// tables report, as produced by [`AnalysisAccumulator::report`].
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Table I row.
    pub summary: TraceSummary,
    /// Figure 2: TTL-delta distribution across replica streams.
    pub ttl_delta: Histogram,
    /// Figure 3: CDF of replicas per stream.
    pub stream_size_cdf: Cdf,
    /// Figure 4: CDF of mean inter-replica spacing, milliseconds.
    pub spacing_cdf_ms: Cdf,
    /// Figure 8: CDF of replica stream duration, milliseconds.
    pub stream_duration_cdf_ms: Cdf,
    /// Figure 9: CDF of merged routing-loop duration, seconds.
    pub loop_duration_cdf_s: Cdf,
    /// Figure 5: traffic mix of all traffic on the link.
    pub mix_all: CategoricalDist,
    /// Figure 6: traffic mix of looped traffic (per sighting).
    pub mix_looped: CategoricalDist,
    /// Figure 7: `(time_s, destination)` scatter of replica streams.
    pub dest_scatter: Vec<(f64, std::net::Ipv4Addr)>,
    /// Class-C share of replica-stream destinations.
    pub class_c_share: f64,
}

/// The per-record part of the §V fold: Table I's packet and byte counts
/// and time span, and Figure 5's traffic mix. Folds of consecutive runs
/// of a trace merge in trace order, so a batch engine folds each range in
/// the worker that reads it and merges the folds afterwards.
#[derive(Debug, Clone)]
pub struct RecordFold {
    first_ts: Option<u64>,
    last_ts: u64,
    total_packets: u64,
    total_bytes: u64,
    mix_all: ClassCounts,
}

impl Default for RecordFold {
    fn default() -> Self {
        Self {
            first_ts: None,
            last_ts: 0,
            total_packets: 0,
            total_bytes: 0,
            mix_all: ClassCounts::new(),
        }
    }
}

impl RecordFold {
    /// Folds one record: a few counter bumps, with no allocation and no
    /// label lookup.
    #[inline]
    pub fn add(&mut self, rec: &TraceRecord) {
        self.first_ts.get_or_insert(rec.timestamp_ns);
        self.last_ts = rec.timestamp_ns;
        self.total_packets += 1;
        self.total_bytes += u64::from(rec.total_len);
        self.mix_all.add_record(rec);
    }

    /// Folds a run of records in trace order.
    pub fn add_all(&mut self, recs: &[TraceRecord]) {
        for rec in recs {
            self.add(rec);
        }
    }

    /// Folds in what `later` saw, whose records all come after this
    /// fold's.
    pub fn merge(&mut self, later: &RecordFold) {
        if let Some(first) = later.first_ts {
            self.first_ts.get_or_insert(first);
            self.last_ts = later.last_ts;
        }
        self.total_packets += later.total_packets;
        self.total_bytes += later.total_bytes;
        self.mix_all.merge(&later.mix_all);
    }
}

/// Single-pass fold of the entire §V statistic suite.
///
/// Feed it records (via [`AnalysisAccumulator::add_record`] or the
/// [`crate::pipeline::Sink`] impl) and the detection output (streams and
/// loops), then call [`AnalysisAccumulator::report`]. The result is
/// identical to running the slice functions over a fully materialised
/// trace: every statistic folds over records one at a time, and the
/// looped-traffic mix is computed from each stream's [`crate::ReplicaKey`]
/// — legitimate because replicas of one looped packet share every header
/// field the classifier reads (that is what makes them replicas).
#[derive(Debug, Clone)]
pub struct AnalysisAccumulator {
    records: RecordFold,
    mix_looped: ClassCounts,
    ttl_delta: Histogram,
    stream_size: Cdf,
    spacing_ms: Cdf,
    stream_duration_ms: Cdf,
    loop_duration_s: Cdf,
    dest_scatter: Vec<(f64, std::net::Ipv4Addr)>,
    looped_packets: u64,
    looped_sightings: u64,
    class_c_streams: u64,
}

impl Default for AnalysisAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            records: RecordFold::default(),
            mix_looped: ClassCounts::new(),
            ttl_delta: Histogram::new(),
            stream_size: Cdf::new(),
            spacing_ms: Cdf::new(),
            stream_duration_ms: Cdf::new(),
            loop_duration_s: Cdf::new(),
            dest_scatter: Vec::new(),
            looped_packets: 0,
            looped_sightings: 0,
            class_c_streams: 0,
        }
    }

    /// Folds one captured record (Table I counts, Figure 5 mix): a few
    /// counter bumps, with no allocation and no label lookup.
    #[inline]
    pub fn add_record(&mut self, rec: &TraceRecord) {
        self.records.add(rec);
    }

    /// Folds the records another fold saw, which come after every record
    /// folded here so far.
    pub fn add_records(&mut self, fold: &RecordFold) {
        self.records.merge(fold);
    }

    /// Folds one validated replica stream (Figures 2, 3, 4, 6, 7, 8).
    pub fn add_stream(&mut self, s: &ReplicaStream) {
        self.ttl_delta.add(u64::from(s.ttl_delta()));
        self.stream_size.add(s.len() as f64);
        self.spacing_ms.add(s.mean_spacing_ns() as f64 / 1e6);
        self.stream_duration_ms.add(s.duration_ns() as f64 / 1e6);
        self.dest_scatter
            .push((s.start_ns() as f64 / 1e9, s.key.dst));
        // Every sighting of this stream classifies identically — the key
        // carries the destination and the full transport summary.
        self.mix_looped
            .add(s.key.dst, &s.key.transport, s.len() as u64);
        self.looped_packets += 1;
        self.looped_sightings += s.len() as u64;
        if (192..=223).contains(&s.key.dst.octets()[0]) {
            self.class_c_streams += 1;
        }
    }

    /// Folds one merged routing loop (Figure 9).
    pub fn add_loop(&mut self, l: &RoutingLoop) {
        self.loop_duration_s.add(l.duration_ns() as f64 / 1e9);
    }

    /// The Table I row from what has been folded so far.
    pub fn summary(&self) -> TraceSummary {
        let r = &self.records;
        let duration_ns = r.last_ts - r.first_ts.unwrap_or(r.last_ts);
        let avg_bandwidth_bps = if duration_ns > 0 {
            r.total_bytes as f64 * 8.0 / (duration_ns as f64 / 1e9)
        } else {
            0.0
        };
        TraceSummary {
            duration_ns,
            total_packets: r.total_packets,
            total_bytes: r.total_bytes,
            avg_bandwidth_bps,
            looped_packets: self.looped_packets,
            looped_sightings: self.looped_sightings,
        }
    }

    /// The full report from what has been folded so far.
    pub fn report(&self) -> AnalysisReport {
        let streams = self.looped_packets;
        AnalysisReport {
            summary: self.summary(),
            ttl_delta: self.ttl_delta.clone(),
            stream_size_cdf: self.stream_size.clone(),
            spacing_cdf_ms: self.spacing_ms.clone(),
            stream_duration_cdf_ms: self.stream_duration_ms.clone(),
            loop_duration_cdf_s: self.loop_duration_s.clone(),
            mix_all: self.records.mix_all.dist(),
            mix_looped: self.mix_looped.dist(),
            dest_scatter: self.dest_scatter.clone(),
            class_c_share: if streams == 0 {
                0.0
            } else {
                self.class_c_streams as f64 / streams as f64
            },
        }
    }
}

impl crate::pipeline::Sink for AnalysisAccumulator {
    fn on_record(&mut self, rec: &TraceRecord) -> std::io::Result<()> {
        self.add_record(rec);
        Ok(())
    }

    fn folds_records(&self) -> bool {
        true
    }

    fn on_record_fold(&mut self, fold: &RecordFold) -> std::io::Result<()> {
        self.add_records(fold);
        Ok(())
    }

    fn on_result(&mut self, result: &crate::pipeline::PipelineResult) -> std::io::Result<()> {
        for s in &result.streams {
            self.add_stream(s);
        }
        for l in &result.loops {
            self.add_loop(l);
        }
        Ok(())
    }
}

/// Computes the Table I row for a trace + its validated streams.
pub fn trace_summary(records: &[TraceRecord], streams: &[ReplicaStream]) -> TraceSummary {
    let mut acc = AnalysisAccumulator::new();
    for rec in records {
        let r = &mut acc.records;
        r.first_ts.get_or_insert(rec.timestamp_ns);
        r.last_ts = rec.timestamp_ns;
        r.total_packets += 1;
        r.total_bytes += u64::from(rec.total_len);
    }
    acc.looped_packets = streams.len() as u64;
    acc.looped_sightings = streams.iter().map(|s| s.len() as u64).sum();
    acc.summary()
}

/// Figure 2: distribution of TTL deltas across replica streams.
pub fn ttl_delta_distribution(streams: &[ReplicaStream]) -> Histogram {
    let mut h = Histogram::new();
    for s in streams {
        h.add(u64::from(s.ttl_delta()));
    }
    h
}

/// Figure 3: CDF of the number of replicas per stream.
pub fn stream_size_cdf(streams: &[ReplicaStream]) -> Cdf {
    Cdf::from_samples(streams.iter().map(|s| s.len() as f64))
}

/// Figure 4: CDF of mean inter-replica spacing, in milliseconds.
pub fn spacing_cdf_ms(streams: &[ReplicaStream]) -> Cdf {
    Cdf::from_samples(streams.iter().map(|s| s.mean_spacing_ns() as f64 / 1e6))
}

/// Figure 8: CDF of replica stream duration, in milliseconds.
pub fn stream_duration_cdf_ms(streams: &[ReplicaStream]) -> Cdf {
    Cdf::from_samples(streams.iter().map(|s| s.duration_ns() as f64 / 1e6))
}

/// Figure 9: CDF of merged routing-loop duration, in seconds.
pub fn loop_duration_cdf_s(loops: &[RoutingLoop]) -> Cdf {
    Cdf::from_samples(loops.iter().map(|l| l.duration_ns() as f64 / 1e9))
}

/// Figure 7: `(time_s, destination)` scatter of replica streams.
pub fn dest_scatter(streams: &[ReplicaStream]) -> Vec<(f64, std::net::Ipv4Addr)> {
    streams
        .iter()
        .map(|s| (s.start_ns() as f64 / 1e9, s.key.dst))
        .collect()
}

/// Figure 5: traffic-type distribution of all traffic on the link.
pub fn mix_all(records: &[TraceRecord]) -> CategoricalDist {
    traffic_class::distribution(records.iter())
}

/// Figure 6: traffic-type distribution of looped traffic (every replica
/// sighting of every validated stream). Computed from the stream keys —
/// all replicas of a stream share the classified header fields, so this
/// equals classifying the underlying records individually.
pub fn mix_looped(streams: &[ReplicaStream]) -> CategoricalDist {
    let mut counts = ClassCounts::new();
    for s in streams {
        counts.add(s.key.dst, &s.key.transport, s.len() as u64);
    }
    counts.dist()
}

/// Figure 7 support: number of *distinct* looped /24s per time bucket —
/// the "wide spectrum of addresses are affected by routing loops during
/// the packet trace collection" observation, as a series.
pub fn dest_diversity_series(streams: &[ReplicaStream], bucket_ns: u64) -> Vec<(u64, usize)> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut buckets: BTreeMap<u64, BTreeSet<net_types::Ipv4Prefix>> = BTreeMap::new();
    for s in streams {
        let b = s.start_ns() / bucket_ns * bucket_ns;
        buckets.entry(b).or_default().insert(s.dst_slash24());
    }
    buckets.into_iter().map(|(t, set)| (t, set.len())).collect()
}

/// Class-C share of replica-stream destinations (Figure 7's observation
/// that "there are more looped packets in the Class C IP addresses").
pub fn class_c_share(streams: &[ReplicaStream]) -> f64 {
    if streams.is_empty() {
        return 0.0;
    }
    let class_c = streams
        .iter()
        .filter(|s| {
            let a = s.key.dst.octets()[0];
            (192..=223).contains(&a)
        })
        .count();
    class_c as f64 / streams.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::replica::{DetectionResult, Detector};
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    /// Fabricates a trace with `n_loops` independent loops (delta 2), each
    /// trapping one packet for `sightings` sightings, plus background
    /// traffic.
    fn fabricated(n_loops: u16, sightings: usize) -> (Vec<TraceRecord>, DetectionResult) {
        let mut recs = Vec::new();
        for k in 0..n_loops {
            let dst = Ipv4Addr::new(203, 0, (k % 250) as u8, 1);
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 0, 0, 1),
                dst,
                1000 + k,
                80,
                TcpFlags::ACK,
                &b""[..],
            );
            p.ip.ident = k;
            p.ip.ttl = 60;
            p.fill_checksums();
            let base = u64::from(k) * 100_000_000;
            for s in 0..sightings {
                if s > 0 {
                    p.ip.decrement_ttl();
                    p.ip.decrement_ttl();
                }
                recs.push(TraceRecord::from_packet(base + s as u64 * 1_000_000, &p));
            }
        }
        // Background packets to untouched prefixes.
        for j in 0..50u16 {
            let mut p = Packet::tcp_flags(
                Ipv4Addr::new(100, 0, 0, 2),
                Ipv4Addr::new(11, 1, (j % 250) as u8, 1),
                2000,
                80,
                TcpFlags::ACK | TcpFlags::PSH,
                &b""[..],
            );
            p.ip.ident = j;
            p.fill_checksums();
            recs.push(TraceRecord::from_packet(u64::from(j) * 3_000_000, &p));
        }
        recs.sort_by_key(|r| r.timestamp_ns);
        let result = Detector::new(DetectorConfig::default()).run(&recs);
        (recs, result)
    }

    #[test]
    fn summary_counts() {
        let (recs, result) = fabricated(5, 4);
        let sum = trace_summary(&recs, &result.streams);
        assert_eq!(sum.total_packets, recs.len() as u64);
        assert_eq!(sum.looped_packets, 5);
        assert_eq!(sum.looped_sightings, 20);
        assert!(sum.avg_bandwidth_bps > 0.0);
        assert!(sum.total_bytes >= 40 * recs.len() as u64);
    }

    #[test]
    fn fig2_delta_mode_is_two() {
        let (_recs, result) = fabricated(6, 5);
        let h = ttl_delta_distribution(&result.streams);
        assert_eq!(h.mode(), Some(2));
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn fig3_sizes() {
        let (_recs, result) = fabricated(4, 7);
        let mut cdf = stream_size_cdf(&result.streams);
        assert_eq!(cdf.min(), Some(7.0));
        assert_eq!(cdf.max(), Some(7.0));
    }

    #[test]
    fn fig4_spacing_in_ms() {
        let (_recs, result) = fabricated(3, 5);
        let mut cdf = spacing_cdf_ms(&result.streams);
        // 1 ms spacing in fabrication.
        assert!((cdf.median().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig8_fig9_durations() {
        let (_recs, result) = fabricated(3, 5);
        let mut f8 = stream_duration_cdf_ms(&result.streams);
        assert!((f8.max().unwrap() - 4.0).abs() < 1e-9); // 4 gaps × 1 ms
        let mut f9 = loop_duration_cdf_s(&result.loops);
        assert_eq!(f9.len(), result.loops.len());
        assert!(f9.max().unwrap() < 1.0);
    }

    #[test]
    fn fig7_scatter_and_class_c() {
        let (_recs, result) = fabricated(4, 4);
        let scatter = dest_scatter(&result.streams);
        assert_eq!(scatter.len(), 4);
        assert!(scatter.iter().all(|(t, _)| *t >= 0.0));
        assert_eq!(class_c_share(&result.streams), 1.0); // all 203.x
        assert_eq!(class_c_share(&[]), 0.0);
    }

    #[test]
    fn fig7_diversity_series() {
        let (_recs, result) = fabricated(6, 4);
        // Streams start 100 ms apart; bucket by 250 ms.
        let series = dest_diversity_series(&result.streams, 250_000_000);
        let total: usize = series.iter().map(|(_, n)| n).sum();
        assert!(total >= 6, "every stream's prefix counted: {series:?}");
        assert!(series.windows(2).all(|w| w[0].0 < w[1].0), "sorted buckets");
        assert!(dest_diversity_series(&[], 1_000).is_empty());
    }

    #[test]
    fn fig5_fig6_mixes() {
        let (recs, result) = fabricated(3, 5);
        let all = mix_all(&recs);
        let looped = mix_looped(&result.streams);
        assert_eq!(all.items(), recs.len() as u64);
        assert_eq!(looped.items(), 15);
        // All looped traffic here is TCP ACK.
        assert!((looped.fraction("TCP") - 1.0).abs() < 1e-9);
        assert!((looped.fraction("ACK") - 1.0).abs() < 1e-9);
        assert_eq!(looped.count("PSH"), 0);
        // The background traffic has PSH, so the all-mix does.
        assert!(all.count("PSH") > 0);
    }

    #[test]
    fn mix_looped_key_based_equals_record_based() {
        // The incremental mix classifies stream keys; the definitionally
        // correct version classifies every underlying record. They must
        // agree, because replicas share all classified fields.
        let (recs, result) = fabricated(4, 6);
        let by_key = mix_looped(&result.streams);
        let by_record = crate::traffic_class::distribution(
            result
                .streams
                .iter()
                .flat_map(|s| s.record_indices.iter())
                .map(|&i| &recs[i]),
        );
        assert_eq!(by_key.items(), by_record.items());
        for cat in crate::traffic_class::CATEGORIES {
            assert_eq!(by_key.count(cat), by_record.count(cat), "category {cat}");
        }
    }

    #[test]
    fn accumulator_matches_slice_functions() {
        let (recs, result) = fabricated(5, 4);
        let mut acc = AnalysisAccumulator::new();
        for r in &recs {
            acc.add_record(r);
        }
        for s in &result.streams {
            acc.add_stream(s);
        }
        for l in &result.loops {
            acc.add_loop(l);
        }
        let report = acc.report();
        assert_eq!(report.summary, trace_summary(&recs, &result.streams));
        let mut inc = report.stream_size_cdf.clone();
        let mut slice = stream_size_cdf(&result.streams);
        assert_eq!(inc.steps(), slice.steps());
        let mut inc = report.loop_duration_cdf_s.clone();
        let mut slice = loop_duration_cdf_s(&result.loops);
        assert_eq!(inc.steps(), slice.steps());
        assert_eq!(
            report.ttl_delta.fractions(),
            ttl_delta_distribution(&result.streams).fractions()
        );
        assert_eq!(report.mix_all.fractions(), mix_all(&recs).fractions());
        assert_eq!(
            report.mix_looped.fractions(),
            mix_looped(&result.streams).fractions()
        );
        assert_eq!(report.dest_scatter, dest_scatter(&result.streams));
        assert_eq!(report.class_c_share, class_c_share(&result.streams));
    }
}
