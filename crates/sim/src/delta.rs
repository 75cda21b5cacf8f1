//! Aggregated observation deltas.
//!
//! A long online diagnosis processes millions of engine intervals; feeding
//! each one to every active metric-focus pair would dominate the run time
//! of the *tool*, not the application. Within one driver step the
//! attribution key space is tiny (tens of distinct (process, function,
//! activity, tag) keys), so a step's intervals are aggregated into
//! [`Delta`]s and those are fed to the pairs. Values are spread uniformly
//! over the delta's time span, a distortion bounded by the driver's
//! sampling step — far below the conclusion window.
//!
//! The [`Engine`](crate::Engine) folds each interval into its
//! [`DeltaTable`] as it is emitted, so a driver step hands over a few
//! hundred deltas instead of tens of thousands of intervals. A batch of
//! raw intervals (fault-injected sample streams, tests) goes through the
//! same table afterwards. Both orders are part of the contract: deltas
//! come out in *first-touch* order (the order SyncObject resources are
//! discovered in), and each key's `seconds` is the f64 sum of its
//! intervals' durations *in arrival order* — f64 addition does not
//! associate, so any other order changes pair data bits and, through
//! them, verdict values in stored records.

use crate::program::{FuncId, ProcId, TagId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ActivityKind, Interval, TotalsKey, TraceAccumulator};

/// One step's aggregate for a single attribution key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Process.
    pub proc: ProcId,
    /// Function.
    pub func: FuncId,
    /// Activity kind.
    pub kind: ActivityKind,
    /// Message tag, if any.
    pub tag: Option<TagId>,
    /// Earliest interval start in the aggregate.
    pub start: SimTime,
    /// Latest interval end in the aggregate.
    pub end: SimTime,
    /// Total seconds of the activity.
    pub seconds: f64,
    /// Total message bytes.
    pub bytes: u64,
    /// Number of messages.
    pub msgs: u64,
}

impl Delta {
    /// The attribution key.
    pub fn key(&self) -> TotalsKey {
        TotalsKey {
            proc: self.proc,
            func: self.func,
            kind: self.kind,
            tag: self.tag,
        }
    }

    /// The empty aggregate for `iv`'s key, spanning `iv`.
    pub fn opening(iv: &Interval) -> Delta {
        Delta {
            proc: iv.proc,
            func: iv.func,
            kind: iv.kind,
            tag: iv.tag,
            start: iv.start,
            end: iv.end,
            seconds: 0.0,
            bytes: 0,
            msgs: 0,
        }
    }

    /// Folds one interval of this delta's key into it. The only place the
    /// per-key fold is written down.
    #[inline]
    pub fn fold(&mut self, iv: &Interval) {
        self.start = self.start.min(iv.start);
        self.end = self.end.max(iv.end);
        self.seconds += iv.duration().as_secs_f64();
        if iv.tag.is_some() && iv.bytes > 0 {
            self.bytes += iv.bytes;
            self.msgs += 1;
        }
    }
}

/// What one drain of a [`DeltaTable`] hands over.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepDeltas {
    /// One delta per key touched, in first-touch order.
    pub deltas: Vec<Delta>,
    /// Intervals folded per process rank.
    pub per_proc: Vec<u64>,
}

/// The hot half of a table slot: everything [`DeltaTable::fold`] touches.
/// The key is the slot's position (or its spill entry). `count == 0`
/// marks a closed slot.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    /// Intervals folded since the slot was opened.
    count: u64,
    start: SimTime,
    end: SimTime,
    seconds: f64,
    /// Exact activity time since the slot was opened.
    time: SimDuration,
    bytes: u64,
    msgs: u64,
}

impl Acc {
    /// Folds one interval of this slot's key in: [`Delta::fold`]'s
    /// arithmetic, in the same order, plus the exact time and the count.
    #[inline(always)]
    fn fold(&mut self, iv: &Interval) {
        if self.count == 0 {
            *self = Acc {
                start: iv.start,
                end: iv.end,
                ..Acc::default()
            };
        }
        self.count += 1;
        self.start = self.start.min(iv.start);
        self.end = self.end.max(iv.end);
        let d = iv.duration();
        self.seconds += d.as_secs_f64();
        self.time += d;
        if iv.tag.is_some() && iv.bytes > 0 {
            self.bytes += iv.bytes;
            self.msgs += 1;
        }
    }

    fn delta(&self, key: TotalsKey) -> Delta {
        Delta {
            proc: key.proc,
            func: key.func,
            kind: key.kind,
            tag: key.tag,
            start: self.start,
            end: self.end,
            seconds: self.seconds,
            bytes: self.bytes,
            msgs: self.msgs,
        }
    }
}

/// Dense per-step aggregation state sized to one application's
/// attribution-key space: a flat accumulator array indexed by
/// `((proc * nfuncs + func) * 3 + kind) * (ntags + 1) + tagcode`, reused
/// across steps. Every per-step cost (drain, reset, totals flush) is
/// proportional to the keys touched, never to the table size.
///
/// Keys outside the table's dimensions (a script using a tag the app
/// never declared) go to a short side list, so nothing is lost and
/// first-touch order holds across both.
#[derive(Debug)]
pub struct DeltaTable {
    nprocs: usize,
    nfuncs: usize,
    ntags: usize,
    accs: Vec<Acc>,
    /// Out-of-table keys, searched linearly.
    spill: Vec<(TotalsKey, Acc)>,
    /// Open slots in first-touch order; values `>= accs.len()` index
    /// `spill`.
    touched: Vec<u32>,
    /// Cold half, by the same index as `touched`: how much of
    /// `(time, msgs, bytes)` has already been added to the totals.
    flushed: Vec<(SimDuration, u64, u64)>,
    /// Length of the per-process count table: `nprocs`, or one past the
    /// highest rank a spilled key has carried.
    per_proc_len: usize,
}

impl DeltaTable {
    /// A table for an app with the given dimensions.
    pub fn new(nprocs: usize, nfuncs: usize, ntags: usize) -> DeltaTable {
        let slots = nprocs * nfuncs * 3 * (ntags + 1);
        DeltaTable {
            nprocs,
            nfuncs,
            ntags,
            accs: vec![Acc::default(); slots],
            spill: Vec::new(),
            touched: Vec::new(),
            flushed: vec![Default::default(); slots],
            per_proc_len: nprocs,
        }
    }

    fn index(&self, iv: &Interval) -> Option<usize> {
        let p = iv.proc.0 as usize;
        let f = iv.func.0 as usize;
        let t = iv.tag.map_or(0, |tag| 1 + tag.0 as usize);
        if p >= self.nprocs || f >= self.nfuncs || t > self.ntags {
            return None;
        }
        Some(((p * self.nfuncs + f) * 3 + iv.kind.index()) * (self.ntags + 1) + t)
    }

    /// The key of touched slot `n`, and its accumulator.
    fn slot(&self, n: usize) -> (TotalsKey, Acc) {
        let Some(s) = n.checked_sub(self.accs.len()) else {
            let t = n % (self.ntags + 1);
            let rest = n / (self.ntags + 1);
            let key = TotalsKey {
                proc: ProcId((rest / 3 / self.nfuncs) as u16),
                func: FuncId((rest / 3 % self.nfuncs) as u16),
                kind: ActivityKind::ALL[rest % 3],
                tag: t.checked_sub(1).map(|t| TagId(t as u16)),
            };
            return (key, self.accs[n]);
        };
        self.spill[s]
    }

    /// Folds one interval into its key's slot.
    #[inline(always)]
    pub fn fold(&mut self, iv: &Interval) {
        let Some(i) = self.index(iv) else {
            return self.fold_spill(iv);
        };
        let acc = &mut self.accs[i];
        if acc.count == 0 {
            self.touched.push(i as u32);
        }
        acc.fold(iv);
    }

    #[cold]
    fn fold_spill(&mut self, iv: &Interval) {
        let key = iv.key();
        let at = match self.spill.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.touched
                    .push((self.accs.len() + self.spill.len()) as u32);
                self.flushed.push(Default::default());
                self.spill.push((key, Acc::default()));
                self.per_proc_len = self.per_proc_len.max(key.proc.0 as usize + 1);
                self.spill.len() - 1
            }
        };
        self.spill[at].1.fold(iv);
    }

    /// Adds what the open slots gained since the last flush to the
    /// cumulative `totals`. Integer sums, so the totals equal observing
    /// every interval one by one.
    pub fn flush_totals(&mut self, totals: &mut TraceAccumulator) {
        for &n in &self.touched {
            let n = n as usize;
            let (key, acc) = self.slot(n);
            let now = (acc.time, acc.msgs, acc.bytes);
            let was = std::mem::replace(&mut self.flushed[n], now);
            totals.add(
                key,
                SimDuration(now.0.as_micros() - was.0.as_micros()),
                now.1 - was.1,
                now.2 - was.2,
                acc.end,
            );
        }
    }

    /// Takes the step's deltas and per-process interval counts and
    /// resets the table for the next step.
    pub fn drain(&mut self) -> StepDeltas {
        let mut deltas = Vec::with_capacity(self.touched.len());
        let mut per_proc = vec![0; self.per_proc_len];
        for &n in &self.touched {
            let n = n as usize;
            let (key, acc) = self.slot(n);
            deltas.push(acc.delta(key));
            per_proc[key.proc.0 as usize] += acc.count;
            if let Some(acc) = self.accs.get_mut(n) {
                acc.count = 0;
                self.flushed[n] = Default::default();
            }
        }
        self.touched.clear();
        self.spill.clear();
        self.flushed.truncate(self.accs.len());
        StepDeltas { deltas, per_proc }
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
        s: u64,
        e: u64,
        b: u64,
    ) -> Interval {
        Interval {
            proc: ProcId(proc),
            func: FuncId(func),
            kind,
            tag: tag.map(TagId),
            start: SimTime(s),
            end: SimTime(e),
            bytes: b,
        }
    }

    #[test]
    fn groups_by_key_in_first_touch_order() {
        let ivs = [
            iv(1, 0, ActivityKind::SyncWait, Some(1), 10, 60, 32),
            iv(0, 1, ActivityKind::Cpu, None, 0, 100, 0),
            iv(1, 0, ActivityKind::SyncWait, Some(1), 60, 90, 32),
            iv(0, 1, ActivityKind::Cpu, None, 200, 350, 0),
            iv(1, 1, ActivityKind::SyncWait, None, 0, 50, 0),
        ];
        let mut table = DeltaTable::new(2, 3, 2);
        ivs.iter().for_each(|iv| table.fold(iv));
        let step = table.drain();
        assert_eq!(step.per_proc, vec![2, 3]);
        let keys: Vec<_> = step.deltas.iter().map(|d| (d.proc.0, d.func.0)).collect();
        assert_eq!(keys, vec![(1, 0), (0, 1), (1, 1)]);
        let msg = step.deltas[0];
        assert_eq!((msg.start, msg.end), (SimTime(10), SimTime(90)));
        assert_eq!((msg.msgs, msg.bytes), (2, 64));
        assert_eq!(step.deltas[1].seconds, 100.0 / 1e6 + 150.0 / 1e6);
        // Reusable: the next step starts from nothing.
        assert_eq!(
            table.drain(),
            StepDeltas {
                per_proc: vec![0, 0],
                ..StepDeltas::default()
            }
        );
        table.fold(&ivs[1]);
        assert_eq!(table.drain().deltas[0].seconds, 100.0 / 1e6);
    }

    #[test]
    fn out_of_table_keys_keep_their_place() {
        let ivs = [
            iv(0, 0, ActivityKind::Cpu, None, 0, 10, 0),
            iv(0, 0, ActivityKind::SyncWait, Some(5), 10, 20, 8),
            iv(7, 9, ActivityKind::Cpu, None, 0, 10, 0),
            iv(0, 0, ActivityKind::SyncWait, Some(5), 20, 40, 8),
            iv(0, 0, ActivityKind::Cpu, None, 40, 50, 0),
        ];
        let mut table = DeltaTable::new(1, 1, 0);
        ivs.iter().for_each(|iv| table.fold(iv));
        let step = table.drain();
        assert_eq!(step.per_proc, vec![4, 0, 0, 0, 0, 0, 0, 1]);
        let tags: Vec<_> = step.deltas.iter().map(|d| (d.proc.0, d.tag)).collect();
        assert_eq!(tags, vec![(0, None), (0, Some(TagId(5))), (7, None)]);
        assert_eq!(step.deltas[1].msgs, 2);
        // The spill leaves nothing behind.
        table.fold(&ivs[0]);
        let step = table.drain();
        assert_eq!(step.deltas.len(), 1);
        assert_eq!(step.per_proc.len(), 8);
    }

    #[test]
    fn flushed_totals_equal_per_interval_observation() {
        let ivs = [
            iv(0, 1, ActivityKind::Cpu, None, 0, 100, 0),
            iv(1, 0, ActivityKind::SyncWait, Some(1), 10, 60, 32),
            iv(0, 1, ActivityKind::Cpu, None, 200, 350, 0),
            iv(1, 0, ActivityKind::SyncWait, Some(9), 60, 90, 32),
            iv(1, 0, ActivityKind::SyncWait, Some(1), 90, 90, 16),
        ];
        let mut table = DeltaTable::new(2, 2, 2);
        let mut bulk = TraceAccumulator::new();
        let mut each = TraceAccumulator::new();
        // Flushes between folds, with and without a drain in between,
        // never count anything twice.
        for (n, iv) in ivs.iter().enumerate() {
            table.fold(iv);
            each.observe(iv);
            table.flush_totals(&mut bulk);
            table.flush_totals(&mut bulk);
            if n == 2 {
                table.drain();
            }
            assert_eq!(
                bulk.iter().collect::<Vec<_>>(),
                each.iter().collect::<Vec<_>>()
            );
        }
        for p in [ProcId(0), ProcId(1)] {
            assert_eq!(bulk.proc_end(p), each.proc_end(p));
            for t in [TagId(1), TagId(9)] {
                assert_eq!(bulk.msg_count(p, t), each.msg_count(p, t));
                assert_eq!(bulk.msg_byte_total(p, t), each.msg_byte_total(p, t));
            }
        }
    }
}
