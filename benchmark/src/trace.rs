//! In-memory span recorder for the traced run.
//!
//! Every span is recorded from this crate, around a call into a layer's
//! public function; nothing inside the measured crates knows it is
//! being traced. Spans are held in memory and written out as JSON lines
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.entry_point`, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// The op all spans of one request share.
    pub op: u32,
}

impl Span {
    /// Wall time between start and end, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; the innermost open span is the parent of the
/// next one entered.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::since(Instant::now())
    }

    /// An empty tracer on a given clock, so that tracers of concurrent
    /// clients can be merged onto one time axis.
    pub fn since(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            on: true,
        }
    }

    /// A tracer that records nothing: code written against a tracer
    /// runs untraced through it, at the cost of one branch per call.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// [`Tracer::new`] when `on`, else [`Tracer::off`].
    pub fn when(on: bool) -> Tracer {
        if on {
            Tracer::new()
        } else {
            Tracer::off()
        }
    }

    /// False for [`Tracer::off`].
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on spans entered from now on.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays the parent of every span entered before
    /// the matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Appends another tracer's spans (a second client's, say), keeping
    /// their parent links. Op ids are the callers' to keep distinct, and
    /// the clocks theirs to share (see [`Tracer::since`]).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every span recorded so far, in the order entered.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `name`, `op`, `id`, `parent`
    /// (null at a root), `start_ns`, `end_ns`, `self_ns`. Stops at the
    /// first root span after `max_spans` lines, so a file holds whole
    /// ops only and stays readable when a run made hundreds of ops; the
    /// metrics are computed from every span either way. Returns the
    /// number of spans written.
    pub fn write_jsonl(&self, path: &Path, max_spans: usize) -> io::Result<usize> {
        let self_ns = self_times(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        let mut written = 0;
        for (id, s) in self.spans.iter().enumerate() {
            if written >= max_spans && s.parent.is_none() {
                break;
            }
            written += 1;
            line.clear();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                line,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{id},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, self_ns[id]
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()?;
        Ok(written)
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (one thread, strictly nested), so the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Per span name, the total self time (ns) spent in each op, keyed by
/// op id. The per-layer `*_ms` metrics are medians over these per-op
/// totals.
pub fn self_ns_by_name_and_op(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u32, u64>> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *out.entry(s.name).or_default().entry(s.op).or_default() += ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] holds a [10,40] and b [50,70]; a holds a1 [15,25].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // root: 100 - (30 + 20); a: 30 - 10; the grandchild is charged
        // to a only, not to root a second time.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut t = Tracer::new();
        t.enter("root");
        t.span("x", || std::hint::black_box((0..1000).sum::<u64>()));
        t.enter("y");
        t.span("x", || std::hint::black_box((0..1000).sum::<u64>()));
        t.exit();
        t.exit();
        let total: u64 = self_times(t.spans()).iter().sum();
        assert_eq!(total, t.spans()[0].duration_ns());
        assert_eq!(t.spans()[3].parent, Some(2), "x nests under y");
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn totals_group_by_name_and_op() {
        let mut spans = vec![
            span("root", 0, 10, None),
            span("x", 1, 3, Some(0)),
            span("x", 4, 8, Some(0)),
        ];
        let mut second = span("x", 20, 21, None);
        second.op = 1;
        spans.push(second);
        let totals = self_ns_by_name_and_op(&spans);
        assert_eq!(totals["x"][&0], 6);
        assert_eq!(totals["x"][&1], 1);
        assert_eq!(totals["root"][&0], 4);
    }
}
