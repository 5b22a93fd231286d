#![warn(missing_docs)]
//! **telemetry** — the workspace-wide observability substrate.
//!
//! Every stage of the loop-detection pipeline (pcap read, replica
//! detection, validation, merging, the online detector, the simulator)
//! reports what it did through this crate: lock-free counters, gauges with
//! high-water tracking, log2-bucketed histograms, and RAII stage timers,
//! all snapshotable to a hand-serialised JSON document. A leveled
//! structured-logging facility rides along, gated by the `LOOPSCOPE_LOG`
//! environment filter and writing to **stderr** so report/CSV output on
//! stdout stays machine-clean.
//!
//! Deliberately std-only: everything is built on `std::sync::atomic` and
//! `std::time::Instant`, because the build environment has no crates.io
//! access and the pipeline's hot paths cannot afford locks.
//!
//! # Metrics
//!
//! ```
//! use telemetry::{LazyCounter, LazyGauge};
//!
//! // Hot-path handles resolve against the global registry once, then are
//! // a single relaxed atomic op per use.
//! static RECORDS: LazyCounter = LazyCounter::new("demo.records_total");
//! static OPEN: LazyGauge = LazyGauge::new("demo.open_candidates");
//!
//! RECORDS.inc();
//! OPEN.set(17); // tracks the high-water mark automatically
//!
//! // Stage timers are RAII spans.
//! {
//!     let _t = telemetry::span("demo.validate");
//!     // ... stage work ...
//! } // elapsed wall time accumulated on drop
//!
//! let json = telemetry::global().snapshot().to_json();
//! assert!(json.contains("\"demo.records_total\""));
//! ```
//!
//! # Logging
//!
//! ```
//! telemetry::tm_info!("validated {} of {} candidate streams", 3, 9);
//! ```
//!
//! `LOOPSCOPE_LOG` accepts a default level and per-target overrides, e.g.
//! `LOOPSCOPE_LOG=warn,loopscope::online=trace`. See [`logging`] for the
//! full syntax.
//!
//! # Live observability
//!
//! End-of-run snapshots are not enough for a long-running monitor, so two
//! further layers build on the registry:
//!
//! * [`export`] — a sampler thread that snapshots the registry on an
//!   interval and streams counter deltas/rates as timestamped JSONL
//!   (`loopdetect --metrics-interval`), or renders them as a live
//!   single-line status display (`loopdetect --watch`).
//! * [`trace`] — per-thread lock-free event rings (stage spans, prefilter
//!   evictions, loop-closed markers) drained to Chrome
//!   `trace_event` JSON (`loopdetect --trace`). When tracing is enabled,
//!   every [`span`] also emits begin/end trace events, so stage timings
//!   become a per-thread timeline for free.

pub mod export;
pub mod json;
pub mod logging;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, LazyCounter, LazyGauge, LazyHistogram, Timer};
pub use registry::{global, Registry, Snapshot};

use std::time::Instant;

/// An RAII wall-clock timer over one named pipeline stage. Created by
/// [`span`]; on drop it adds the elapsed time and one invocation to the
/// stage's [`Timer`].
#[must_use = "a span only measures while it is alive; bind it with `let _t = ...`"]
pub struct Span {
    timer: &'static Timer,
    start: Instant,
    /// When event tracing was on at open, the stage name — so drop emits
    /// the matching trace end event. `None` costs nothing on drop.
    trace_name: Option<&'static str>,
}

impl Span {
    /// Elapsed time since the span started (the span keeps running).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.timer.record(self.start.elapsed().as_nanos() as u64);
        if let Some(name) = self.trace_name {
            trace::end_raw(name);
        }
    }
}

/// Opens a stage-timer span on the global registry:
/// `let _t = telemetry::span("validate");` accumulates wall time and an
/// invocation count under the timer named `validate`. With event tracing
/// enabled ([`trace::enable`]) the same span also brackets a per-thread
/// trace event.
pub fn span(name: &'static str) -> Span {
    let trace_name = if trace::is_enabled() {
        trace::begin_raw(name);
        Some(name)
    } else {
        None
    };
    Span {
        timer: global().timer(name),
        start: Instant::now(),
        trace_name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulates_into_named_timer() {
        let t = global().timer("test.span_accumulates");
        let before = t.calls();
        {
            let _s = span("test.span_accumulates");
            std::hint::black_box(0u64);
        }
        assert_eq!(t.calls(), before + 1);
    }
}
