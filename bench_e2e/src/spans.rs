//! The benchmark's own span recorder: name, start, end and parent of each
//! call into a layer, kept in memory and folded into per-layer self times
//! when the run ends. Spans are opened only by benchmark code around
//! `pub` calls; the program itself is not instrumented any further.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span store. A disabled tracer hands out inert guards, so the same
/// code runs traced and untraced and the difference is the overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Guard<'a> {
    tracer: &'a Tracer,
    slot: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.span_under(name, parent)
    }

    /// Opens a span under an explicit parent — how a worker thread's root
    /// span hangs under the span that spawned it.
    pub fn span_under(&self, name: &'static str, parent: Option<usize>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                slot: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len();
        spans.push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        drop(spans);
        STACK.with(|s| s.borrow_mut().push(id));
        Guard {
            tracer: self,
            slot: Some(id),
        }
    }

    /// The innermost open span of this thread, to parent spans that other
    /// threads open.
    pub fn current(&self) -> Option<usize> {
        STACK.with(|s| s.borrow().last().copied())
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.slot else { return };
        let end = self.tracer.now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[id].end_ns = end;
        }
    }
}

/// Self time of every span: its duration minus the union of the parts of
/// its interval that its children cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s.id);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children[s.id]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of self time (seconds).
pub struct Attribution {
    pub self_s: BTreeMap<&'static str, f64>,
    /// Self time of the structural spans (`run`, `worker`) as a share of
    /// their summed durations: the part of the run no layer span claims.
    pub unattributed_frac: f64,
}

/// Names of spans that only give the run its shape; their self time is
/// the unattributed remainder.
pub const STRUCTURAL: &[&str] = &["run", "worker"];

pub fn attribute(spans: &[SpanRec]) -> Attribution {
    let selfs = self_times(spans);
    let mut a = Attribution {
        self_s: BTreeMap::new(),
        unattributed_frac: 0.0,
    };
    let (mut un, mut base) = (0u64, 0u64);
    for (s, &own) in spans.iter().zip(&selfs) {
        *a.self_s.entry(s.name).or_default() += own as f64 / 1e9;
        if STRUCTURAL.contains(&s.name) {
            un += own;
            base += s.dur_ns();
        }
    }
    a.unattributed_frac = un as f64 / base.max(1) as f64;
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..50 overlap (worker
        // threads), 90..120 overhangs the parent and is clipped.
        let spans = vec![
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 40),
            rec(2, Some(0), 30, 50),
            rec(3, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 20, 30]);
    }

    #[test]
    fn nested_guards_record_parents() {
        let t = Tracer::new(true);
        {
            let _a = t.span("run");
            let _b = t.span("inner");
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(Tracer::new(false).span("run").slot.is_none());
    }
}
