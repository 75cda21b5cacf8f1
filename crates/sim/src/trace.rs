//! Execution traces: per-process timelines and cumulative totals.
//!
//! The engine emits an [`Interval`] each time a process finishes a
//! contiguous stretch of one activity (CPU burst, synchronization wait,
//! I/O wait). The instrumentation layer consumes intervals online; the
//! engine also maintains a full-resolution [`TraceAccumulator`], the
//! "ground truth" a postmortem analysis (or a historical record) is built
//! from.

use crate::program::{FuncId, ProcId, TagId};
use crate::time::{SimDuration, SimTime};

/// The kind of activity covered by an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActivityKind {
    /// Executing on the CPU.
    Cpu,
    /// Blocked in synchronization (message wait, rendezvous, barrier).
    SyncWait,
    /// Blocked in I/O.
    IoWait,
}

impl ActivityKind {
    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ActivityKind::Cpu => "cpu",
            ActivityKind::SyncWait => "sync_wait",
            ActivityKind::IoWait => "io_wait",
        }
    }

    /// Dense index (declaration order, which is also the `Ord` order).
    pub fn index(self) -> usize {
        match self {
            ActivityKind::Cpu => 0,
            ActivityKind::SyncWait => 1,
            ActivityKind::IoWait => 2,
        }
    }

    /// All kinds in `Ord` order.
    pub const ALL: [ActivityKind; 3] = [
        ActivityKind::Cpu,
        ActivityKind::SyncWait,
        ActivityKind::IoWait,
    ];
}

/// One contiguous stretch of a single activity on one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Process the interval belongs to.
    pub proc: ProcId,
    /// Function the activity is attributed to.
    pub func: FuncId,
    /// Kind of activity.
    pub kind: ActivityKind,
    /// Message tag, for communication waits.
    pub tag: Option<TagId>,
    /// Start timestamp.
    pub start: SimTime,
    /// End timestamp (>= start).
    pub end: SimTime,
    /// Message payload bytes moved during the interval (0 otherwise).
    pub bytes: u64,
}

impl Interval {
    /// The interval's length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// The attribution key.
    pub fn key(&self) -> TotalsKey {
        TotalsKey {
            proc: self.proc,
            func: self.func,
            kind: self.kind,
            tag: self.tag,
        }
    }

    /// The part of this interval overlapping `[from, to)`, as a duration.
    pub fn overlap(&self, from: SimTime, to: SimTime) -> SimDuration {
        let s = self.start.max(from);
        let e = self.end.min(to);
        e - s
    }
}

/// A key of the cumulative totals table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TotalsKey {
    /// Process.
    pub proc: ProcId,
    /// Function.
    pub func: FuncId,
    /// Activity kind.
    pub kind: ActivityKind,
    /// Message tag, if any.
    pub tag: Option<TagId>,
}

/// Per-(proc, func) activity totals: one slot per kind for untagged
/// intervals, plus a short tag-sorted list for tagged ones.
#[derive(Debug, Clone, Default)]
struct FuncCell {
    /// Untagged totals, indexed by [`ActivityKind::index`].
    none: [SimDuration; 3],
    /// Bitmask of kinds observed untagged (so zero totals still list).
    none_seen: u8,
    /// `(tag, per-kind totals, kinds-seen mask)`, sorted by tag.
    tagged: Vec<(TagId, [SimDuration; 3], u8)>,
}

/// Full-resolution cumulative activity totals for a run.
///
/// The accumulator sits on the engine's interval-emission hot path, so
/// totals live in dense per-process, per-function tables (the tag space
/// is tiny) rather than a keyed map; the deterministic key-ordered view
/// is materialized on demand by [`TraceAccumulator::iter`].
#[derive(Debug, Clone, Default)]
pub struct TraceAccumulator {
    /// `[proc][func]`, grown on demand.
    totals: Vec<Vec<FuncCell>>,
    /// `[proc][tag] -> (count, bytes)`, grown on demand.
    msgs: Vec<Vec<(u64, u64)>>,
    proc_end: Vec<SimTime>,
}

impl TraceAccumulator {
    /// An empty accumulator.
    pub fn new() -> TraceAccumulator {
        TraceAccumulator::default()
    }

    /// Folds one interval into the totals.
    pub fn observe(&mut self, iv: &Interval) {
        match iv.tag {
            Some(_) if iv.bytes > 0 => self.add(iv.key(), iv.duration(), 1, iv.bytes, iv.end),
            _ => self.add(iv.key(), iv.duration(), 0, 0, iv.end),
        }
    }

    /// Folds an aggregate of intervals sharing `key`: their summed
    /// `duration`, the `msgs` messages and `bytes` they moved (tagged
    /// intervals with a payload only), and the latest `end` among them.
    pub fn add(
        &mut self,
        key: TotalsKey,
        duration: SimDuration,
        msgs: u64,
        bytes: u64,
        end: SimTime,
    ) {
        let p = key.proc.0 as usize;
        let f = key.func.0 as usize;
        if p >= self.totals.len() {
            self.totals.resize_with(p + 1, Vec::new);
        }
        let by_func = &mut self.totals[p];
        if f >= by_func.len() {
            by_func.resize_with(f + 1, FuncCell::default);
        }
        let cell = &mut by_func[f];
        let k = key.kind.index();
        match key.tag {
            None => {
                cell.none[k] += duration;
                cell.none_seen |= 1 << k;
            }
            Some(tag) => {
                let slot = match cell.tagged.iter_mut().find(|(t, _, _)| *t >= tag) {
                    Some(entry) if entry.0 == tag => entry,
                    _ => {
                        let at = cell.tagged.partition_point(|(t, _, _)| *t < tag);
                        cell.tagged.insert(at, (tag, [SimDuration::ZERO; 3], 0));
                        &mut cell.tagged[at]
                    }
                };
                slot.1[k] += duration;
                slot.2 |= 1 << k;
                if msgs > 0 {
                    let t = tag.0 as usize;
                    if p >= self.msgs.len() {
                        self.msgs.resize_with(p + 1, Vec::new);
                    }
                    let by_tag = &mut self.msgs[p];
                    if t >= by_tag.len() {
                        by_tag.resize(t + 1, (0, 0));
                    }
                    by_tag[t].0 += msgs;
                    by_tag[t].1 += bytes;
                }
            }
        }
        if p >= self.proc_end.len() {
            self.proc_end.resize(p + 1, SimTime::ZERO);
        }
        self.proc_end[p] = self.proc_end[p].max(end);
    }

    /// All (key, total) pairs in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (TotalsKey, SimDuration)> + '_ {
        self.totals.iter().enumerate().flat_map(|(p, by_func)| {
            by_func.iter().enumerate().flat_map(move |(f, cell)| {
                ActivityKind::ALL.into_iter().flat_map(move |kind| {
                    let k = kind.index();
                    let none = (cell.none_seen & (1 << k) != 0).then(|| {
                        (
                            TotalsKey {
                                proc: ProcId(p as u16),
                                func: FuncId(f as u16),
                                kind,
                                tag: None,
                            },
                            cell.none[k],
                        )
                    });
                    let tagged = cell
                        .tagged
                        .iter()
                        .filter(move |(_, _, seen)| seen & (1 << k) != 0)
                        .map(move |(tag, durs, _)| {
                            (
                                TotalsKey {
                                    proc: ProcId(p as u16),
                                    func: FuncId(f as u16),
                                    kind,
                                    tag: Some(*tag),
                                },
                                durs[k],
                            )
                        });
                    none.into_iter().chain(tagged)
                })
            })
        })
    }

    /// Total time of `kind` on `proc` across all functions and tags.
    pub fn proc_total(&self, proc: ProcId, kind: ActivityKind) -> SimDuration {
        self.iter()
            .filter(|(k, _)| k.proc == proc && k.kind == kind)
            .map(|(_, d)| d)
            .sum()
    }

    /// Total time of `kind` attributed to `func` across all processes.
    pub fn func_total(&self, func: FuncId, kind: ActivityKind) -> SimDuration {
        self.iter()
            .filter(|(k, _)| k.func == func && k.kind == kind)
            .map(|(_, d)| d)
            .sum()
    }

    /// Total time of `kind` attributed to message tag `tag`.
    pub fn tag_total(&self, tag: TagId, kind: ActivityKind) -> SimDuration {
        self.iter()
            .filter(|(k, _)| k.tag == Some(tag) && k.kind == kind)
            .map(|(_, d)| d)
            .sum()
    }

    /// Grand total of `kind` over the whole program.
    pub fn total(&self, kind: ActivityKind) -> SimDuration {
        self.iter()
            .filter(|(k, _)| k.kind == kind)
            .map(|(_, d)| d)
            .sum()
    }

    /// The last event timestamp seen for `proc` (its busy time so far).
    pub fn proc_end(&self, proc: ProcId) -> SimTime {
        self.proc_end
            .get(proc.0 as usize)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Wall-clock end of the run seen so far (max over processes).
    pub fn end_time(&self) -> SimTime {
        self.proc_end.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Number of messages tagged `tag` received by `proc`.
    pub fn msg_count(&self, proc: ProcId, tag: TagId) -> u64 {
        self.msgs
            .get(proc.0 as usize)
            .and_then(|by_tag| by_tag.get(tag.0 as usize))
            .map(|&(count, _)| count)
            .unwrap_or(0)
    }

    /// Bytes of messages tagged `tag` moved by `proc`.
    pub fn msg_byte_total(&self, proc: ProcId, tag: TagId) -> u64 {
        self.msgs
            .get(proc.0 as usize)
            .and_then(|by_tag| by_tag.get(tag.0 as usize))
            .map(|&(_, bytes)| bytes)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(
        proc: u16,
        func: u16,
        kind: ActivityKind,
        tag: Option<u16>,
        start: u64,
        end: u64,
        bytes: u64,
    ) -> Interval {
        Interval {
            proc: ProcId(proc),
            func: FuncId(func),
            kind,
            tag: tag.map(TagId),
            start: SimTime(start),
            end: SimTime(end),
            bytes,
        }
    }

    #[test]
    fn interval_duration_and_overlap() {
        let i = iv(0, 0, ActivityKind::Cpu, None, 100, 200, 0);
        assert_eq!(i.duration(), SimDuration(100));
        assert_eq!(i.overlap(SimTime(150), SimTime(300)), SimDuration(50));
        assert_eq!(i.overlap(SimTime(0), SimTime(100)), SimDuration::ZERO);
        assert_eq!(i.overlap(SimTime(0), SimTime(1000)), SimDuration(100));
        assert_eq!(i.overlap(SimTime(250), SimTime(300)), SimDuration::ZERO);
    }

    #[test]
    fn accumulator_totals_by_dimension() {
        let mut acc = TraceAccumulator::new();
        acc.observe(&iv(0, 1, ActivityKind::Cpu, None, 0, 50, 0));
        acc.observe(&iv(0, 2, ActivityKind::SyncWait, Some(0), 50, 80, 64));
        acc.observe(&iv(1, 2, ActivityKind::SyncWait, Some(0), 0, 40, 64));
        acc.observe(&iv(1, 1, ActivityKind::Cpu, None, 40, 70, 0));

        assert_eq!(
            acc.proc_total(ProcId(0), ActivityKind::Cpu),
            SimDuration(50)
        );
        assert_eq!(
            acc.proc_total(ProcId(1), ActivityKind::SyncWait),
            SimDuration(40)
        );
        assert_eq!(
            acc.func_total(FuncId(2), ActivityKind::SyncWait),
            SimDuration(70)
        );
        assert_eq!(
            acc.tag_total(TagId(0), ActivityKind::SyncWait),
            SimDuration(70)
        );
        assert_eq!(acc.total(ActivityKind::Cpu), SimDuration(80));
        assert_eq!(acc.end_time(), SimTime(80));
        assert_eq!(acc.proc_end(ProcId(1)), SimTime(70));
    }

    #[test]
    fn accumulator_counts_messages() {
        let mut acc = TraceAccumulator::new();
        acc.observe(&iv(0, 2, ActivityKind::SyncWait, Some(1), 0, 10, 128));
        acc.observe(&iv(0, 2, ActivityKind::SyncWait, Some(1), 10, 20, 128));
        // Zero-byte sync waits (barriers) are not messages.
        acc.observe(&iv(0, 2, ActivityKind::SyncWait, Some(1), 20, 30, 0));
        assert_eq!(acc.msg_count(ProcId(0), TagId(1)), 2);
        assert_eq!(acc.msg_byte_total(ProcId(0), TagId(1)), 256);
        assert_eq!(acc.msg_count(ProcId(0), TagId(0)), 0);
    }

    #[test]
    fn accumulator_merges_same_key() {
        let mut acc = TraceAccumulator::new();
        acc.observe(&iv(0, 1, ActivityKind::Cpu, None, 0, 10, 0));
        acc.observe(&iv(0, 1, ActivityKind::Cpu, None, 10, 25, 0));
        assert_eq!(acc.iter().count(), 1);
        assert_eq!(
            acc.func_total(FuncId(1), ActivityKind::Cpu),
            SimDuration(25)
        );
    }
}
