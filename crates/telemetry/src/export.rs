//! Periodic telemetry export: a sampler thread that snapshots a registry
//! on an interval, computes counter/timer deltas and rates, and hands each
//! [`Sample`] to a pluggable consumer.
//!
//! Two consumers ship with the crate:
//!
//! * [`JsonlConsumer`] — one compact JSON object per line (the
//!   `loopdetect --metrics-interval <ms>` stream), tailable with standard
//!   line tooling during a long monitor run.
//! * [`StatusLine`] — a carriage-return-refreshed single-line live view
//!   (the `loopdetect --watch` display) summarising scan rate, open
//!   candidates, and emitted streams/loops.
//!
//! The sampler always emits one sample immediately on spawn and one final
//! sample on [`Sampler::stop`], so even a run shorter than the interval
//! produces at least two snapshots — the stream is never empty and the
//! last line always reflects the finished run.
//!
//! # JSONL schema
//!
//! Each line is one object (keys sorted, compact):
//!
//! ```json
//! {"seq":1,"unix_ms":1754650000123,"elapsed_ms":500,"interval_ms":500,
//!  "counters":{"replica.records_scanned":{"total":84000,"delta":42000,"rate_per_s":84000.0}},
//!  "gauges":{"online.open_candidates":{"value":3,"high_water":9}},
//!  "timers":{"replica.detect":{"calls":2,"delta_calls":1,"total_ns":918000,"delta_ns":450000,"max_ns":468000}}}
//! ```
//!
//! `total` is cumulative since process start; `delta` is since the
//! previous sample; `rate_per_s` is `delta / interval`. Histograms are
//! deliberately omitted from the live stream (they are end-of-run
//! artifacts — use `--metrics` for the full snapshot).

use crate::json::JsonWriter;
use crate::registry::{Registry, Snapshot};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One counter's state at a sample point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Cumulative value.
    pub total: u64,
    /// Increase since the previous sample (= `total` on the first).
    pub delta: u64,
    /// `delta` scaled to per-second by the actual inter-sample interval
    /// (0.0 on the first sample).
    pub rate_per_s: f64,
}

/// One timer's state at a sample point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerSample {
    /// Cumulative invocation count.
    pub calls: u64,
    /// Invocations since the previous sample.
    pub delta_calls: u64,
    /// Cumulative nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds accumulated since the previous sample.
    pub delta_ns: u64,
    /// Slowest single invocation ever (cumulative, not windowed).
    pub max_ns: u64,
}

/// A registry snapshot interpreted against its predecessor: cumulative
/// totals plus per-window deltas and rates.
#[derive(Debug, Clone)]
pub struct Sample {
    /// 0-based sample index within this sampler's stream.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Milliseconds since the sampler started.
    pub elapsed_ms: u64,
    /// Actual milliseconds since the previous sample (0 on the first).
    pub interval_ms: u64,
    /// Counters with deltas and rates.
    pub counters: BTreeMap<String, CounterSample>,
    /// Gauge `(value, high_water)` pairs.
    pub gauges: BTreeMap<String, (i64, i64)>,
    /// Timers with deltas.
    pub timers: BTreeMap<String, TimerSample>,
}

impl Sample {
    /// Builds a sample from a snapshot and (optionally) the previous one.
    ///
    /// Counters and timers are monotone, so `saturating_sub` only matters
    /// if the registry was reset between samples — in that case the delta
    /// clamps to 0 rather than wrapping.
    pub fn between(
        prev: Option<&Snapshot>,
        cur: &Snapshot,
        seq: u64,
        unix_ms: u64,
        elapsed_ms: u64,
        interval_ms: u64,
    ) -> Sample {
        let secs = interval_ms as f64 / 1e3;
        let counters = cur
            .counters
            .iter()
            .map(|(name, &total)| {
                let before = prev
                    .and_then(|p| p.counters.get(name))
                    .copied()
                    .unwrap_or(0);
                let delta = total.saturating_sub(before);
                let rate_per_s = if secs > 0.0 { delta as f64 / secs } else { 0.0 };
                (
                    name.clone(),
                    CounterSample {
                        total,
                        delta,
                        rate_per_s,
                    },
                )
            })
            .collect();
        let timers = cur
            .timers
            .iter()
            .map(|(name, t)| {
                let before = prev.and_then(|p| p.timers.get(name));
                (
                    name.clone(),
                    TimerSample {
                        calls: t.calls,
                        delta_calls: t.calls.saturating_sub(before.map_or(0, |b| b.calls)),
                        total_ns: t.total_ns,
                        delta_ns: t.total_ns.saturating_sub(before.map_or(0, |b| b.total_ns)),
                        max_ns: t.max_ns,
                    },
                )
            })
            .collect();
        Sample {
            seq,
            unix_ms,
            elapsed_ms,
            interval_ms,
            counters,
            gauges: cur.gauges.clone(),
            timers,
        }
    }

    /// Serialises the sample as one compact JSON object (no newline).
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        j.begin_object();
        j.key("seq");
        j.u64(self.seq);
        j.key("unix_ms");
        j.u64(self.unix_ms);
        j.key("elapsed_ms");
        j.u64(self.elapsed_ms);
        j.key("interval_ms");
        j.u64(self.interval_ms);
        j.key("counters");
        j.begin_object();
        for (name, c) in &self.counters {
            j.key(name);
            j.begin_object();
            j.key("total");
            j.u64(c.total);
            j.key("delta");
            j.u64(c.delta);
            j.key("rate_per_s");
            j.f64_3(c.rate_per_s);
            j.end_object();
        }
        j.end_object();
        j.key("gauges");
        j.begin_object();
        for (name, &(value, high_water)) in &self.gauges {
            j.key(name);
            j.begin_object();
            j.key("value");
            j.i64(value);
            j.key("high_water");
            j.i64(high_water);
            j.end_object();
        }
        j.end_object();
        j.key("timers");
        j.begin_object();
        for (name, t) in &self.timers {
            j.key(name);
            j.begin_object();
            j.key("calls");
            j.u64(t.calls);
            j.key("delta_calls");
            j.u64(t.delta_calls);
            j.key("total_ns");
            j.u64(t.total_ns);
            j.key("delta_ns");
            j.u64(t.delta_ns);
            j.key("max_ns");
            j.u64(t.max_ns);
            j.end_object();
        }
        j.end_object();
        j.end_object();
        j.finish()
    }

    fn counter(&self, name: &str) -> Option<&CounterSample> {
        self.counters.get(name)
    }
}

/// Receives each sample the sampler takes.
pub trait SampleConsumer: Send {
    /// Called once per sample, in sequence order, from the sampler thread.
    fn consume(&mut self, sample: &Sample) -> std::io::Result<()>;

    /// Called once after the final sample, before the thread exits.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writes each sample as one JSON line.
pub struct JsonlConsumer<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> JsonlConsumer<W> {
    /// Wraps a writer (no buffering is added; pass a `BufWriter` or rely
    /// on line-sized writes being cheap for your sink).
    pub fn new(out: W) -> Self {
        Self { out }
    }
}

impl<W: Write + Send> SampleConsumer for JsonlConsumer<W> {
    fn consume(&mut self, sample: &Sample) -> std::io::Result<()> {
        self.out.write_all(sample.to_json().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Renders each sample as a `\r`-refreshed single status line — the
/// `loopdetect --watch` display. The line is padded to overwrite its
/// predecessor; [`finish`](SampleConsumer::finish) terminates it with a
/// newline so the final state stays on screen.
pub struct StatusLine<W: Write + Send> {
    out: W,
    last_len: usize,
}

impl<W: Write + Send> StatusLine<W> {
    /// Wraps a writer (conventionally stderr).
    pub fn new(out: W) -> Self {
        Self { out, last_len: 0 }
    }

    /// Builds the status text for a sample (exposed for tests).
    pub fn render(sample: &Sample) -> String {
        let scanned = sample
            .counter("replica.records_scanned")
            .copied()
            .unwrap_or(CounterSample {
                total: 0,
                delta: 0,
                rate_per_s: 0.0,
            });
        // Every engine counts its step 2–3 output under these names.
        let streams = sample
            .counter("validate.streams_kept")
            .map_or(0, |c| c.total);
        let loops = sample.counter("merge.loops_total").map_or(0, |c| c.total);
        let open = sample
            .gauges
            .get("online.open_candidates")
            .map_or(0, |&(v, _)| v);
        format!(
            "[{:7.1}s] {} rec ({:.0}/s) | streams {} | loops {} | open {}",
            sample.elapsed_ms as f64 / 1e3,
            scanned.total,
            scanned.rate_per_s,
            streams,
            loops,
            open
        )
    }
}

impl<W: Write + Send> SampleConsumer for StatusLine<W> {
    fn consume(&mut self, sample: &Sample) -> std::io::Result<()> {
        let line = Self::render(sample);
        let pad = self.last_len.saturating_sub(line.len());
        self.last_len = line.len();
        write!(self.out, "\r{line}{}", " ".repeat(pad))?;
        self.out.flush()
    }

    fn finish(&mut self) -> std::io::Result<()> {
        writeln!(self.out)?;
        self.out.flush()
    }
}

struct SamplerShared {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// A background thread sampling `registry` every `interval` and feeding a
/// [`SampleConsumer`]. Dropping the sampler stops it (best-effort);
/// [`stop`](Sampler::stop) additionally surfaces any I/O error the
/// consumer hit.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

impl Sampler {
    /// Spawns the sampler thread. One sample is taken immediately, one per
    /// interval thereafter, and one final sample on stop — so the stream
    /// always holds at least two samples bracketing the observed run.
    pub fn spawn(
        registry: &'static Registry,
        interval: Duration,
        mut consumer: Box<dyn SampleConsumer>,
    ) -> Sampler {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("telemetry-sampler".into())
            .spawn(move || -> std::io::Result<()> {
                let start = Instant::now();
                let mut prev: Option<Snapshot> = None;
                let mut prev_at = start;
                let mut seq = 0u64;
                let mut take = |prev: &mut Option<Snapshot>,
                                prev_at: &mut Instant,
                                seq: &mut u64|
                 -> std::io::Result<()> {
                    let now = Instant::now();
                    let cur = registry.snapshot();
                    let sample = Sample::between(
                        prev.as_ref(),
                        &cur,
                        *seq,
                        unix_ms(),
                        now.duration_since(start).as_millis() as u64,
                        now.duration_since(*prev_at).as_millis() as u64,
                    );
                    consumer.consume(&sample)?;
                    *prev = Some(cur);
                    *prev_at = now;
                    *seq += 1;
                    Ok(())
                };
                // First sample: no predecessor window, interval ~0.
                take(&mut prev, &mut prev_at, &mut seq)?;
                loop {
                    let stopped = {
                        let guard = thread_shared.stop.lock().unwrap_or_else(|p| p.into_inner());
                        let (guard, _) = thread_shared
                            .cv
                            .wait_timeout_while(guard, interval, |stop| !*stop)
                            .unwrap_or_else(|p| p.into_inner());
                        *guard
                    };
                    if stopped {
                        break;
                    }
                    take(&mut prev, &mut prev_at, &mut seq)?;
                }
                take(&mut prev, &mut prev_at, &mut seq)?;
                consumer.finish()
            })
            .expect("spawn telemetry sampler thread");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    fn signal_stop(&self) {
        *self.shared.stop.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.shared.cv.notify_all();
    }

    /// Stops the sampler: takes the final sample, joins the thread, and
    /// returns any I/O error the consumer reported.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.signal_stop();
        match self.handle.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(std::io::Error::other("telemetry sampler thread panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.signal_stop();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn private_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    /// A consumer that appends rendered lines into shared memory.
    struct CaptureJson(Arc<Mutex<Vec<String>>>);

    impl SampleConsumer for CaptureJson {
        fn consume(&mut self, sample: &Sample) -> std::io::Result<()> {
            self.0.lock().unwrap().push(sample.to_json());
            Ok(())
        }
    }

    #[test]
    fn sampler_emits_at_least_two_samples_even_for_instant_runs() {
        let reg = private_registry();
        reg.counter("x.total").inc();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sampler = Sampler::spawn(
            reg,
            Duration::from_secs(3600),
            Box::new(CaptureJson(Arc::clone(&lines))),
        );
        sampler.stop().unwrap();
        let lines = lines.lock().unwrap();
        assert!(lines.len() >= 2, "got {} lines", lines.len());
        for line in lines.iter() {
            crate::json::validate(line).expect("every sample line is valid JSON");
            assert!(line.contains("\"x.total\""));
        }
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
    }

    #[test]
    fn deltas_are_windowed_not_cumulative() {
        let reg = private_registry();
        let c = reg.counter("work.items");
        c.add(10);
        let s0 = reg.snapshot();
        c.add(5);
        let s1 = reg.snapshot();
        c.add(7);
        let s2 = reg.snapshot();

        let first = Sample::between(None, &s0, 0, 0, 0, 0);
        assert_eq!(first.counters["work.items"].total, 10);
        assert_eq!(first.counters["work.items"].delta, 10);
        assert_eq!(first.counters["work.items"].rate_per_s, 0.0);

        let second = Sample::between(Some(&s0), &s1, 1, 0, 500, 500);
        assert_eq!(second.counters["work.items"].total, 15);
        assert_eq!(second.counters["work.items"].delta, 5);
        assert!((second.counters["work.items"].rate_per_s - 10.0).abs() < 1e-9);

        let third = Sample::between(Some(&s1), &s2, 2, 0, 750, 250);
        assert_eq!(third.counters["work.items"].delta, 7);
        assert!((third.counters["work.items"].rate_per_s - 28.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_schema_golden() {
        let reg = private_registry();
        reg.counter("a.count").add(4);
        reg.gauge("b.depth").set(3);
        reg.gauge("b.depth").set(1);
        reg.timer("c.stage").record(1_500);
        let s0 = reg.snapshot();
        reg.counter("a.count").add(6);
        reg.timer("c.stage").record(500);
        let s1 = reg.snapshot();

        let sample = Sample::between(Some(&s0), &s1, 3, 1_754_650_000_123, 2_000, 1_000);
        assert_eq!(
            sample.to_json(),
            concat!(
                r#"{"seq":3,"unix_ms":1754650000123,"elapsed_ms":2000,"interval_ms":1000,"#,
                r#""counters":{"a.count":{"total":10,"delta":6,"rate_per_s":6.000}},"#,
                r#""gauges":{"b.depth":{"value":1,"high_water":3}},"#,
                r#""timers":{"c.stage":{"calls":2,"delta_calls":1,"total_ns":2000,"delta_ns":500,"max_ns":1500}}}"#
            )
        );
        crate::json::validate(&sample.to_json()).unwrap();
    }

    #[test]
    fn deltas_stay_consistent_under_concurrent_writers() {
        // Writers hammer a counter while a reader repeatedly samples; the
        // deltas must sum to exactly the total written, with every delta
        // non-negative (monotonicity of the underlying counter).
        let reg = private_registry();
        let c = reg.counter("conc.items");
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 50_000;
        let mut samples = Vec::new();
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    for _ in 0..PER_WRITER {
                        c.inc();
                    }
                });
            }
            let mut prev: Option<Snapshot> = None;
            loop {
                let cur = reg.snapshot();
                samples.push(Sample::between(prev.as_ref(), &cur, 0, 0, 0, 1));
                let done = cur.counters["conc.items"] == WRITERS * PER_WRITER;
                prev = Some(cur);
                if done {
                    break;
                }
                std::thread::yield_now();
            }
        });
        let total: u64 = samples.iter().map(|s| s.counters["conc.items"].delta).sum();
        assert_eq!(total, WRITERS * PER_WRITER);
    }

    #[test]
    fn sampler_surfaces_consumer_io_errors() {
        struct Failing;
        impl SampleConsumer for Failing {
            fn consume(&mut self, _: &Sample) -> std::io::Result<()> {
                Err(std::io::Error::other("sink full"))
            }
        }
        let sampler = Sampler::spawn(
            private_registry(),
            Duration::from_secs(3600),
            Box::new(Failing),
        );
        let err = sampler.stop().unwrap_err();
        assert_eq!(err.to_string(), "sink full");
    }

    #[test]
    fn status_line_summarises_known_metrics() {
        let reg = private_registry();
        reg.counter("replica.records_scanned").add(84_000);
        reg.counter("validate.streams_kept").add(3);
        reg.counter("merge.loops_total").add(2);
        reg.gauge("online.open_candidates").set(7);
        let snap = reg.snapshot();
        let sample = Sample::between(None, &snap, 0, 0, 1_500, 0);
        let line = StatusLine::<Vec<u8>>::render(&sample);
        assert!(line.contains("84000 rec"), "{line}");
        assert!(line.contains("streams 3"), "{line}");
        assert!(line.contains("loops 2"), "{line}");
        assert!(line.ends_with("| open 7"), "{line}");
    }

    #[test]
    fn status_line_pads_over_previous_output() {
        let mut buf = Vec::new();
        {
            let mut sl = StatusLine::new(&mut buf);
            let reg = private_registry();
            reg.counter("replica.records_scanned").add(1_000_000);
            let long = Sample::between(None, &reg.snapshot(), 0, 0, 0, 0);
            sl.consume(&long).unwrap();
            let short = Sample::between(None, &Registry::new().snapshot(), 1, 0, 0, 0);
            sl.consume(&short).unwrap();
            sl.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches('\r').count(), 2);
        assert!(text.ends_with('\n'));
        let (a, b) = {
            let mut parts = text.trim_end_matches('\n').split('\r').skip(1);
            (
                parts.next().unwrap().to_string(),
                parts.next().unwrap().to_string(),
            )
        };
        assert_eq!(a.len(), b.len(), "second line padded to cover the first");
    }
}
