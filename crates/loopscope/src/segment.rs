//! Whole-trace ingest as trace-ordered segments, each decoded by its own
//! thread.
//!
//! A batch engine needs the whole trace before it detects anything, so a
//! source that can cut its input into independently decodable pieces
//! hands it over as up to N [`Segments`]: each piece is decoded by one
//! worker straight into its own vector, and the block detector scans the
//! pieces where they lie. The main thread decodes and copies nothing.
//!
//! [`decode_parallel`] runs the workers. While they decode, the calling
//! thread polls the pipeline's progress callback with the shared record
//! count ([`DecodeControl`]); a break there stops every worker at its
//! next batch, and the decoded prefix is detected as an interrupted run.
//!
//! [`decode_pcap_segments`] is the pcap instance. It cuts the file with
//! [`pcaplib::split_ranges`], decodes each range through
//! [`PcapSource::for_each_record`] (the one pcap decode loop) with a
//! [resumed](pcaplib::PcapReader::resume) reader, and proves each guessed
//! range start from the range before it: that range, decoded from a
//! proven start, must end exactly on it. A range that ends inside a
//! record instead disproves the next start, and the rest of the file is
//! decoded again from the last proven start by one worker (counted in
//! `pcap.split_fallbacks`). Errors and counters are the serial read's:
//! only ranges with a proven start publish their `pcap.*` counts, and the
//! error reported is the first in file order, from such a range.

use crate::pipeline::{PcapSource, PipelineError, RecordSource, SourceError, SourceSummary};
use crate::record::TraceRecord;
use pcaplib::{FileHeader, PcapError, PcapReader};
use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use telemetry::LazyCounter;

static TM_SPLIT_FALLBACKS: LazyCounter = LazyCounter::new("pcap.split_fallbacks");

/// Records a pcap range worker decodes between looks at the shared state.
pub(crate) const BATCH: u64 = 4096;

/// How long the calling thread of [`decode_parallel`] waits between
/// progress polls while no worker finishes.
const POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(20);

/// Bytes of the smallest pcap record a trace record can come from: a
/// record header and a 20-byte IPv4 header. Sizes a range's output.
const MIN_RECORD_BYTES: u64 = 36;

/// A whole source decoded as trace-ordered segments (see
/// [`RecordSource::segments`]): concatenated in order, the parts are
/// exactly the records the source's batches would have delivered.
#[derive(Debug, Default)]
pub struct Segments<'a> {
    /// The records, in trace order within and across parts.
    pub parts: Vec<Cow<'a, [TraceRecord]>>,
    /// Unparseable records skipped.
    pub skipped: u64,
    /// Whether a stop request cut the decode short; the parts are then a
    /// prefix of the trace.
    pub interrupted: bool,
}

impl Segments<'_> {
    /// One borrowed part (a slice already in memory).
    pub fn borrowed(records: &[TraceRecord]) -> Segments<'_> {
        Segments {
            parts: vec![Cow::Borrowed(records)],
            ..Segments::default()
        }
    }

    /// Records over all parts.
    pub fn records(&self) -> u64 {
        self.parts.iter().map(|p| p.len() as u64).sum()
    }

    /// The records as one vector: moved when there is one part, copied
    /// once otherwise.
    pub fn concat(self) -> Vec<TraceRecord> {
        if self.parts.len() == 1 {
            return self
                .parts
                .into_iter()
                .next()
                .expect("one part")
                .into_owned();
        }
        let mut out = Vec::with_capacity(self.records() as usize);
        for part in self.parts {
            out.extend_from_slice(&part);
        }
        out
    }
}

/// The state the workers of one [`decode_parallel`] call share: the
/// records decoded so far and the stop request.
#[derive(Debug, Default)]
pub struct DecodeControl {
    decoded: AtomicU64,
    stop: AtomicBool,
}

impl DecodeControl {
    /// Adds `n` decoded records to the shared count and says whether the
    /// worker should go on. Workers call it once per batch or block.
    pub fn advance(&self, n: u64) -> ControlFlow<()> {
        self.decoded.fetch_add(n, Ordering::Relaxed);
        if self.stop.load(Ordering::Relaxed) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Counts a finished worker even when it panics, and wakes the polling
/// thread.
struct Finished<'a> {
    done: &'a AtomicUsize,
    poller: std::thread::Thread,
}

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.done.fetch_add(1, Ordering::Release);
        self.poller.unpark();
    }
}

/// Runs `decode(i, control)` for every `i < n` on its own thread, named
/// `<name><i>`, and returns the results in order. The calling thread
/// calls `poll` with the records decoded so far once before the workers
/// start, then every 20 ms and whenever a worker finishes,
/// until the first [`ControlFlow::Break`]; from then on the workers'
/// [`DecodeControl::advance`] tells them to stop.
///
/// # Panics
/// Panics when a worker panics.
pub fn decode_parallel<T: Send>(
    name: &str,
    n: usize,
    poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    decode: impl Fn(usize, &DecodeControl) -> T + Sync,
) -> Vec<T> {
    let control = DecodeControl::default();
    let mut check = |control: &DecodeControl| {
        if !control.stop.load(Ordering::Relaxed)
            && poll(control.decoded.load(Ordering::Relaxed)).is_break()
        {
            control.stop.store(true, Ordering::Relaxed);
        }
    };
    // A stop requested before the decode starts still lets every worker
    // decode one batch: the interrupted run detects a deterministic
    // prefix.
    check(&control);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (decode, control) = (&decode, &control);
                let finished = Finished {
                    done: &done,
                    poller: std::thread::current(),
                };
                std::thread::Builder::new()
                    .name(format!("{name}{i}"))
                    .spawn_scoped(scope, move || {
                        let _finished = finished;
                        decode(i, control)
                    })
                    .expect("spawn decode worker")
            })
            .collect();
        while done.load(Ordering::Acquire) < n {
            std::thread::park_timeout(POLL_INTERVAL);
            check(&control);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("decode worker panicked"))
            .collect()
    })
}

/// Why a pcap range decode ended early.
enum RangeStop {
    /// The reader failed.
    Pcap(PcapError),
    /// A stop request.
    Stopped,
}

impl From<PcapError> for RangeStop {
    fn from(e: PcapError) -> Self {
        RangeStop::Pcap(e)
    }
}

/// One pcap byte range's decode.
struct RangeDecode {
    records: Vec<TraceRecord>,
    /// The range's reader, holding its deferred counts and skips (`None`
    /// when the file could not be opened).
    source: Option<PcapSource<std::io::Take<File>>>,
    end: Result<(), RangeStop>,
}

impl RangeDecode {
    /// Whether the range ended inside a record before its bound: the
    /// next range's guessed start is not a record start.
    fn overran(&self) -> bool {
        matches!(&self.end, Err(RangeStop::Pcap(e)) if e.is_eof_inside_record())
    }
}

/// Decodes the records of `[lo, hi)` of the pcap file at `path`.
fn decode_range(
    path: &Path,
    header: FileHeader,
    (lo, hi): (u64, u64),
    control: &DecodeControl,
) -> RangeDecode {
    let mut records = Vec::with_capacity(((hi - lo) / MIN_RECORD_BYTES) as usize);
    let opened = File::open(path).and_then(|mut file| {
        file.seek(SeekFrom::Start(lo))?;
        Ok(file.take(hi - lo))
    });
    let mut source = match opened {
        Ok(range) => PcapSource::from(PcapReader::resume(range, header)),
        Err(e) => {
            return RangeDecode {
                records,
                source: None,
                end: Err(PcapError::Io(e).into()),
            }
        }
    };
    let mut unreported = 0u64;
    let end = source.for_each_record(|rec| {
        records.push(rec);
        unreported += 1;
        if unreported == BATCH {
            unreported = 0;
            if control.advance(BATCH).is_break() {
                return Err(RangeStop::Stopped);
            }
        }
        Ok(())
    });
    let _ = control.advance(unreported);
    RangeDecode {
        records,
        source: Some(source),
        end,
    }
}

/// Decodes the pcap file at `path` as up to `parts` trace-ordered
/// segments, one worker per byte range, polling `poll` meanwhile (see
/// [`decode_parallel`] and the module docs). The records, skip count,
/// error and `pcap.*` counters are those of a serial read of the file.
pub fn decode_pcap_segments(
    path: &Path,
    parts: usize,
    poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
) -> Result<Segments<'static>, PcapError> {
    let _t = telemetry::span("pcap.read_parallel");
    let mut file = File::open(path)?;
    let mut raw = [0u8; pcaplib::format::FILE_HEADER_LEN];
    file.read_exact(&mut raw)?;
    let header = FileHeader::decode(&raw)?;
    let len = file.metadata()?.len();
    let mut ranges = pcaplib::split_ranges(&mut file, &header, len, parts)?;
    let mut segments = Segments::default();
    'decode: loop {
        let decoded = decode_parallel("pcap-r", ranges.len(), poll, |i, control| {
            decode_range(path, header, ranges[i], control)
        });
        let last = decoded.len() - 1;
        // Range `i`'s start is proven here: it is the file's first record,
        // or range `i - 1` ended exactly on it.
        for (i, range) in decoded.into_iter().enumerate() {
            if i < last && range.overran() {
                TM_SPLIT_FALLBACKS.inc();
                ranges = vec![(ranges[i].0, len)];
                continue 'decode;
            }
            if let Some(mut source) = range.source {
                segments.skipped += source.skipped_hint();
                source.publish_deferred();
            }
            match range.end {
                Ok(()) => segments.parts.push(Cow::Owned(range.records)),
                Err(RangeStop::Stopped) => {
                    segments.parts.push(Cow::Owned(range.records));
                    segments.interrupted = true;
                    break 'decode;
                }
                Err(RangeStop::Pcap(e)) => return Err(e),
            }
        }
        break;
    }
    Ok(segments)
}

/// A pcap file as a pipeline source: batches through [`PcapSource`] for
/// the streaming engine, and [`decode_pcap_segments`] for the batch
/// engines.
pub struct PcapFileSource {
    path: PathBuf,
    batches: PcapSource<std::io::BufReader<File>>,
}

impl PcapFileSource {
    /// Opens a pcap file (validates the file header).
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SourceError> {
        let path = path.into();
        let file = File::open(&path).map_err(SourceError::Io)?;
        Ok(Self {
            batches: PcapSource::new(std::io::BufReader::new(file))?,
            path,
        })
    }
}

impl RecordSource for PcapFileSource {
    fn for_each_batch(
        &mut self,
        f: &mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    ) -> Result<SourceSummary, PipelineError> {
        self.batches.for_each_batch(f)
    }

    fn segments(
        &mut self,
        parts: usize,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Option<Result<Segments<'_>, PipelineError>> {
        Some(decode_pcap_segments(&self.path, parts, poll).map_err(PipelineError::from))
    }

    fn skipped_hint(&self) -> u64 {
        self.batches.skipped_hint()
    }
}
