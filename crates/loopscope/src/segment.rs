//! Whole-trace ingest as contiguous ranges, each read by its own thread
//! straight into whatever consumes it.
//!
//! A batch engine needs the whole trace before it detects anything, but it
//! never needs the trace in memory: a source that can cut its input into
//! independently decodable pieces hands it over as up to N ranges, and
//! each range's worker decodes its piece in cache-sized chunks into one
//! reused buffer and passes every chunk to the range's
//! [`RangeConsumer`]. The block detector's consumer
//! ([`crate::block::RangeScan`]) scans each chunk where it lies; a plain
//! `Vec<TraceRecord>` consumer collects the range instead, which is how
//! the whole-file readers (`records_from_pcap_parallel`, the `.ltc`
//! `records_from_ltc_with`) run the same decode loop. The main thread
//! decodes and copies nothing. A file source's batches are that loop too:
//! its whole input read as one range on the calling thread into a
//! [`BatchFeed`], which hands each chunk to the batch callback.
//!
//! [`decode_parallel`] runs the workers. While they read, the calling
//! thread polls the pipeline's progress callback with the shared record
//! count ([`DecodeControl`]); a break there stops every worker at its
//! next chunk, and the prefix read so far is detected as an interrupted
//! run.
//!
//! [`read_pcap_ranges`] is the pcap instance. It cuts the file with
//! [`pcaplib::split_ranges`], decodes each range through
//! [`PcapSource::for_each_record`] (the one pcap decode loop) with a
//! [resumed](pcaplib::PcapReader::resume) reader, and proves each guessed
//! range start from the range before it: that range, decoded from a
//! proven start, must end exactly on it. A range that ends inside a
//! record instead disproves the next start: what the ranges from there on
//! consumed is dropped, and the rest of the file is read again from the
//! last proven start by one worker (counted in `pcap.split_fallbacks`).
//! Errors and counters are the serial read's: only ranges with a proven
//! start publish their `pcap.*` counts, and the error reported is the
//! first in file order, from such a range. A range whose reader fails
//! still hands the records it decoded before the failure to its consumer,
//! so a record out of order among them, or across the range's start, is
//! reported ahead of the reader's error on every engine.

use crate::block::{check_order, RangeScan, ScanStart};
use crate::pipeline::{PcapSource, PipelineError, RecordSource, SourceError, SourceSummary};
use crate::record::TraceRecord;
use pcaplib::{FileHeader, PcapError, PcapReader};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use telemetry::LazyCounter;

static TM_SPLIT_FALLBACKS: LazyCounter = LazyCounter::new("pcap.split_fallbacks");

/// Records a pcap range worker decodes into its buffer before it hands
/// them on, and so the size of a pcap source's batches: about 230 KB of
/// records, which stay in cache while the consumer reads them.
pub(crate) const CHUNK: u64 = 4096;

/// How long the calling thread of [`decode_parallel`] waits between
/// progress polls while no worker finishes.
const POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(20);

/// Bytes of the smallest pcap record a trace record can come from: a
/// record header and a 20-byte IPv4 header. Sizes a collected range.
const MIN_RECORD_BYTES: u64 = 36;

/// What a range worker does with the records it decodes, chunk by chunk
/// in trace order.
pub trait RangeConsumer {
    /// Says the range holds about `records` records (a hint).
    fn expect(&mut self, _records: usize) {}

    /// The vector the reader appends the range's next chunk to.
    fn chunk_buffer(&mut self) -> &mut Vec<TraceRecord>;

    /// Takes the records appended since the last call. A break refuses
    /// them — the consumer found a record it cannot accept — and the
    /// range ends there.
    fn take_chunk(&mut self) -> ControlFlow<()>;

    /// The range has ended: its last chunk was taken, or it stopped.
    fn end(&mut self) {}
}

/// Collects the range: the reader decodes straight onto the vector.
impl RangeConsumer for Vec<TraceRecord> {
    fn expect(&mut self, records: usize) {
        self.reserve(records);
    }

    fn chunk_buffer(&mut self) -> &mut Vec<TraceRecord> {
        self
    }

    fn take_chunk(&mut self) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Hands each chunk of a one-range read to a batch callback: how a file
/// source answers [`RecordSource::for_each_batch`], by reading its whole
/// input as one range on the calling thread through the same loop its
/// range workers run.
pub struct BatchFeed<'f> {
    f: &'f mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
    chunk: Vec<TraceRecord>,
    records: u64,
    failed: Option<PipelineError>,
}

impl<'f> BatchFeed<'f> {
    /// Runs `read`, a one-range read into the feed, handing each chunk
    /// to `f` as a batch, and returns the records delivered. An error
    /// from `f` ends the read and is returned unchanged; otherwise the
    /// read's own error is.
    pub fn run(
        f: &'f mut dyn FnMut(&[TraceRecord]) -> Result<(), PipelineError>,
        read: impl FnOnce(&mut Self, &DecodeControl) -> Result<RangeEnd, PipelineError>,
    ) -> Result<u64, PipelineError> {
        let mut feed = Self {
            f,
            // Sized once: a short source must not regrow it chunk by chunk.
            chunk: Vec::with_capacity(CHUNK as usize),
            records: 0,
            failed: None,
        };
        let read = read(&mut feed, &DecodeControl::default());
        match feed.failed {
            Some(e) => Err(e),
            None => read.map(|_| feed.records),
        }
    }
}

impl RangeConsumer for BatchFeed<'_> {
    fn chunk_buffer(&mut self) -> &mut Vec<TraceRecord> {
        &mut self.chunk
    }

    fn take_chunk(&mut self) -> ControlFlow<()> {
        let fed = (self.f)(&self.chunk);
        self.records += self.chunk.len() as u64;
        self.chunk.clear();
        match fed {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                self.failed = Some(e);
                ControlFlow::Break(())
            }
        }
    }
}

/// How one range's read ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeEnd {
    /// The whole range was read.
    Complete,
    /// A stop request cut it short.
    Stopped,
    /// The consumer refused a chunk.
    Refused,
}

/// A whole source read as trace-ordered ranges: in order, the consumers
/// saw exactly the records the source's batches would have delivered.
#[derive(Debug)]
pub struct Ranges<C> {
    /// One consumer per range, in trace order.
    pub parts: Vec<C>,
    /// Unparseable records skipped.
    pub skipped: u64,
    /// Whether a stop request cut the read short; the parts then hold a
    /// prefix of the trace.
    pub interrupted: bool,
    /// The reader's error, when the last part's read failed after handing
    /// its consumer every record decoded before the failure. It stands
    /// unless the consumers found an earlier defect among those records.
    pub failed: Option<PcapError>,
}

impl<C> Ranges<C> {
    /// No ranges yet, with the source's skip count.
    pub fn new(skipped: u64) -> Self {
        Self {
            parts: Vec::new(),
            skipped,
            interrupted: false,
            failed: None,
        }
    }

    /// Appends the next range's consumer, given how its read ended, and
    /// says whether later ranges still belong to the trace: a stopped
    /// range ends an interrupted read, a refused one ends the read.
    pub fn push(&mut self, consumer: C, end: RangeEnd) -> ControlFlow<()> {
        self.parts.push(consumer);
        match end {
            RangeEnd::Complete => ControlFlow::Continue(()),
            RangeEnd::Stopped => {
                self.interrupted = true;
                ControlFlow::Break(())
            }
            RangeEnd::Refused => ControlFlow::Break(()),
        }
    }
}

impl Ranges<Vec<TraceRecord>> {
    /// The collected records as one vector: moved when there is one
    /// range, copied once otherwise.
    pub fn concat(self) -> Vec<TraceRecord> {
        if self.parts.len() == 1 {
            return self.parts.into_iter().next().expect("one part");
        }
        self.parts.concat()
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
    /// worker should go on. Workers call it once per chunk or block.
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
    // decode one chunk: the interrupted run detects a deterministic
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

/// Why a pcap range read ended early.
enum RangeStop {
    /// The reader failed.
    Pcap(PcapError),
    /// A stop request or a refusal.
    Early(RangeEnd),
}

impl From<PcapError> for RangeStop {
    fn from(e: PcapError) -> Self {
        RangeStop::Pcap(e)
    }
}

/// Decodes every remaining record of `source` into `consumer`, a chunk
/// at a time: the pcap range loop, which [`PcapSource`]'s batches and
/// every range worker of [`read_pcap_ranges`] run. Stops early when the
/// consumer refuses a chunk or `control` asks after one. Returns how the
/// consumer's read ended and the reader's error, if it failed: the
/// records decoded before the failure reach the consumer first, so a
/// refusal among them comes first in file order.
pub(crate) fn read_pcap_chunks<R: Read, C: RangeConsumer>(
    source: &mut PcapSource<R>,
    consumer: &mut C,
    control: &DecodeControl,
) -> (RangeEnd, Option<PcapError>) {
    let mut pending = 0u64;
    let read = source.for_each_record(|rec| {
        consumer.chunk_buffer().push(rec);
        pending += 1;
        if pending == CHUNK {
            pending = 0;
            if consumer.take_chunk().is_break() {
                return Err(RangeStop::Early(RangeEnd::Refused));
            }
            if control.advance(CHUNK).is_break() {
                return Err(RangeStop::Early(RangeEnd::Stopped));
            }
        }
        Ok(())
    });
    let failed = match read {
        Ok(()) => None,
        Err(RangeStop::Early(end)) => return (end, None),
        Err(RangeStop::Pcap(e)) => Some(e),
    };
    if pending > 0 {
        let _ = control.advance(pending);
        if consumer.take_chunk().is_break() {
            return (RangeEnd::Refused, failed);
        }
    }
    (RangeEnd::Complete, failed)
}

/// How one pcap byte range's read went.
struct RangeRead {
    /// The range's reader, holding its deferred counts and skips (`None`
    /// when the file could not be opened).
    source: Option<PcapSource<std::io::Take<File>>>,
    /// How the consumer's read ended.
    end: RangeEnd,
    /// The reader's error, if it failed.
    failed: Option<PcapError>,
}

impl RangeRead {
    /// Whether the range ended inside a record before its bound: the
    /// next range's guessed start is not a record start. A refusal of the
    /// records before that point does not change this.
    fn overran(&self) -> bool {
        self.failed
            .as_ref()
            .is_some_and(PcapError::is_eof_inside_record)
    }
}

/// Decodes the records of `[lo, hi)` of the pcap file at `path` into
/// `consumer`, a chunk at a time.
fn read_range<C: RangeConsumer>(
    path: &Path,
    header: FileHeader,
    (lo, hi): (u64, u64),
    consumer: &mut C,
    control: &DecodeControl,
) -> RangeRead {
    consumer.expect(((hi - lo) / MIN_RECORD_BYTES) as usize);
    let opened = File::open(path).and_then(|mut file| {
        file.seek(SeekFrom::Start(lo))?;
        Ok(file.take(hi - lo))
    });
    let read = match opened {
        Ok(range) => {
            let mut source = PcapSource::from(PcapReader::resume(range, header));
            let (end, failed) = read_pcap_chunks(&mut source, consumer, control);
            RangeRead {
                source: Some(source),
                end,
                failed,
            }
        }
        Err(e) => RangeRead {
            source: None,
            end: RangeEnd::Complete,
            failed: Some(PcapError::Io(e)),
        },
    };
    consumer.end();
    read
}

/// Reads the pcap file at `path` as up to `parts` trace-ordered ranges,
/// one worker per byte range, each into a consumer from `start`, polling
/// `poll` meanwhile (see [`decode_parallel`] and the module docs). The
/// records, skip count, error and `pcap.*` counters are those of a serial
/// read of the file. A read error after the file header is
/// [`Ranges::failed`], with the records before it in the parts.
pub fn read_pcap_ranges<C: RangeConsumer + Send>(
    path: &Path,
    parts: usize,
    start: &(dyn Fn() -> C + Sync),
    poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
) -> Result<Ranges<C>, PcapError> {
    let mut file = File::open(path)?;
    let mut raw = [0u8; pcaplib::format::FILE_HEADER_LEN];
    file.read_exact(&mut raw)?;
    let header = FileHeader::decode(&raw)?;
    let len = file.metadata()?.len();
    let mut bounds = pcaplib::split_ranges(&mut file, &header, len, parts)?;
    let mut ranges = Ranges::new(0);
    'read: loop {
        let read = decode_parallel("pcap-r", bounds.len(), poll, |i, control| {
            let mut consumer = start();
            let read = read_range(path, header, bounds[i], &mut consumer, control);
            (consumer, read)
        });
        let last = read.len() - 1;
        // Range `i`'s start is proven here: it is the file's first record,
        // or range `i - 1` ended exactly on it.
        for (i, (consumer, range)) in read.into_iter().enumerate() {
            if i < last && range.overran() {
                TM_SPLIT_FALLBACKS.inc();
                bounds = vec![(bounds[i].0, len)];
                continue 'read;
            }
            if let Some(mut source) = range.source {
                ranges.skipped += source.skipped_hint();
                source.publish_deferred();
            }
            // The read ends at a refusal, or at the reader's error.
            let end = match range.failed {
                Some(e) if range.end != RangeEnd::Refused => {
                    ranges.failed = Some(e);
                    RangeEnd::Refused
                }
                _ => range.end,
            };
            if ranges.push(consumer, end).is_break() {
                break 'read;
            }
        }
        break;
    }
    Ok(ranges)
}

/// A pcap file as a pipeline source: batches through [`PcapSource`] for
/// the streaming engine, and [`read_pcap_ranges`] for the batch engines.
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

    fn scan(
        &mut self,
        parts: usize,
        start: &ScanStart<'_>,
        poll: &mut dyn FnMut(u64) -> ControlFlow<()>,
    ) -> Result<Ranges<RangeScan>, PipelineError> {
        let mut ranges = read_pcap_ranges(&self.path, parts, start, poll)?;
        match ranges.failed.take() {
            // A record out of order before the error, across a range
            // start too, is the first defect: detection reports it.
            Some(e) if check_order(&ranges.parts).is_ok() => Err(e.into()),
            _ => Ok(ranges),
        }
    }

    fn skipped_hint(&self) -> u64 {
        self.batches.skipped_hint()
    }
}
