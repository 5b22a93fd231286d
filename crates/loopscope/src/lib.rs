#![warn(missing_docs)]
//! **loopscope** — detection and analysis of routing loops in packet traces.
//!
//! This is the paper's primary contribution (§IV), implemented faithfully:
//!
//! 1. **Detect replicas** ([`replica`]): two packets are replicas of one
//!    looped packet when their headers are identical except TTL and IP
//!    header checksum, their TTLs differ by at least two, and their
//!    payloads are identical — proxied, exactly as in the paper, by equal
//!    transport checksums (traces carry only the first 40 bytes).
//! 2. **Validate replica streams** ([`validate`]): discard two-element
//!    sets (link-layer duplication artefacts) and require that *all*
//!    packets to the same /24 during the proposed loop interval are
//!    themselves looped.
//! 3. **Merge replica streams into routing loops** ([`merge`]): streams to
//!    the same /24 that overlap in time, or that lie within a configurable
//!    gap (1 minute in the paper) with no non-looped packet to the subnet
//!    in between, are merged into one routing loop.
//!
//! [`analysis`] then derives every statistic the paper reports: TTL-delta
//! distribution (Fig. 2), replicas-per-stream CDF (Fig. 3), inter-replica
//! spacing CDF (Fig. 4), traffic-type breakdowns for all and looped
//! traffic (Figs. 5–6), the destination scatter (Fig. 7), stream and loop
//! duration CDFs (Figs. 8–9), and the loss/escape impact estimates (§VI).
//!
//! For multi-core machines, [`block`] fans the same pipeline out
//! share-nothing: the trace is split into contiguous record ranges, each
//! worker scans its own range in place, and a boundary-reconciliation
//! pass keeps the output byte-identical to serial at every thread count
//! (see DESIGN.md for the soundness argument).
//!
//! For continuous operation, [`online`] runs the same three steps as a
//! single bounded-memory pass, with step 1 on the same
//! [`replica::CandidateScanner`] the offline detectors use, and
//! [`monitor`] multiplexes many links through one runtime — a bounded
//! streaming engine per link feeding a unified, per-link-attributed
//! loop-event sink — which is what the `loopmond` fleet daemon drives.
//!
//! The crate is deliberately independent of the simulator: it consumes
//! [`record::TraceRecord`]s, which can come from simulated taps, pcap
//! files, or any other 40-byte-snaplen capture source.
//!
//! ```
//! use loopscope::{Detector, DetectorConfig, TraceRecord};
//! use net_types::{Packet, TcpFlags};
//! use std::net::Ipv4Addr;
//!
//! // One packet sighted five times with TTL falling by 2 — a two-router
//! // loop as seen from a monitored link.
//! let mut p = Packet::tcp_flags(
//!     Ipv4Addr::new(100, 64, 0, 1),
//!     Ipv4Addr::new(203, 0, 113, 9),
//!     4000, 80, TcpFlags::ACK, &b"payload"[..],
//! );
//! p.ip.ttl = 60;
//! p.fill_checksums();
//! let mut records = Vec::new();
//! for k in 0..5u64 {
//!     if k > 0 {
//!         p.ip.decrement_ttl();
//!         p.ip.decrement_ttl();
//!     }
//!     records.push(TraceRecord::from_packet(k * 1_000_000, &p));
//! }
//!
//! let result = Detector::new(DetectorConfig::default()).run(&records);
//! assert_eq!(result.streams.len(), 1);
//! assert_eq!(result.streams[0].ttl_delta(), 2);
//! assert_eq!(result.loops.len(), 1);
//! ```

pub mod analysis;
pub mod block;
pub mod config;
pub mod fxhash;
pub mod impact;
pub mod key;
pub mod merge;
pub mod monitor;
pub mod online;
pub mod pipeline;
pub mod record;
pub mod replica;
pub mod segment;
pub mod stream;
pub mod traffic_class;
pub mod validate;

pub use block::{shard_of, BlockParallelDetector};
pub use config::DetectorConfig;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use key::ReplicaKey;
pub use merge::RoutingLoop;
pub use monitor::{
    LinkMonitor, LinkSummary, MonitorConfig, MonitorRuntime, MonitorTotals, OutOfOrder,
};
pub use online::{OnlineDetector, OnlineEvent};
pub use pipeline::{
    run_pipeline, run_pipeline_with_progress, BlockEngine, Engine, EngineProgress, PcapSource,
    PipelineError, PipelineResult, RecordSource, SerialEngine, Sink, SliceSource, SourceError,
    SourceSummary, StreamingEngine,
};
pub use record::{TraceRecord, TransportSummary};
pub use replica::{CandidateScanner, DetectionResult, DetectionStats, Detector, ScanCounters};
pub use stream::ReplicaStream;
