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
//! associate, so any other order changes histogram bits and, through
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

/// A table slot: the step's delta plus the exact integer sums the
/// ground-truth totals are fed from.
#[derive(Debug, Clone, Copy)]
struct Slot {
    delta: Delta,
    /// Exact activity time since the slot was opened.
    time: SimDuration,
    /// How much of `(time, delta.msgs, delta.bytes)` has already been
    /// added to the ground-truth totals.
    flushed: (SimDuration, u64, u64),
}

impl Slot {
    fn opening(iv: &Interval) -> Slot {
        Slot {
            delta: Delta::opening(iv),
            time: SimDuration::ZERO,
            flushed: (SimDuration::ZERO, 0, 0),
        }
    }
}

/// Dense per-step aggregation state sized to one application's
/// attribution-key space: a flat slot table indexed by
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
    slots: Vec<Option<Slot>>,
    /// Out-of-table keys, searched linearly.
    spill: Vec<Option<Slot>>,
    /// Open slots in first-touch order; values `>= slots.len()` index
    /// `spill`.
    touched: Vec<u32>,
    per_proc: Vec<u64>,
}

impl DeltaTable {
    /// A table for an app with the given dimensions.
    pub fn new(nprocs: usize, nfuncs: usize, ntags: usize) -> DeltaTable {
        DeltaTable {
            nprocs,
            nfuncs,
            ntags,
            slots: vec![None; nprocs * nfuncs * 3 * (ntags + 1)],
            spill: Vec::new(),
            touched: Vec::new(),
            per_proc: vec![0; nprocs],
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

    /// Folds one interval into its key's slot.
    #[inline(always)]
    pub fn fold(&mut self, iv: &Interval) {
        let slot = match self.index(iv) {
            Some(i) => {
                let slot = &mut self.slots[i];
                if slot.is_none() {
                    self.touched.push(i as u32);
                }
                slot.get_or_insert_with(|| Slot::opening(iv))
            }
            None => self.spill_slot(iv),
        };
        slot.delta.fold(iv);
        slot.time += iv.duration();
        let p = iv.proc.0 as usize;
        if p >= self.per_proc.len() {
            self.per_proc.resize(p + 1, 0);
        }
        self.per_proc[p] += 1;
    }

    #[cold]
    fn spill_slot(&mut self, iv: &Interval) -> &mut Slot {
        let at = self
            .spill
            .iter()
            .position(|s| s.is_some_and(|s| s.delta.key() == iv.key()))
            .unwrap_or_else(|| {
                self.touched
                    .push((self.slots.len() + self.spill.len()) as u32);
                self.spill.push(None);
                self.spill.len() - 1
            });
        self.spill[at].get_or_insert_with(|| Slot::opening(iv))
    }

    fn slot_mut(&mut self, touched: u32) -> &mut Option<Slot> {
        let i = touched as usize;
        match i.checked_sub(self.slots.len()) {
            None => &mut self.slots[i],
            Some(s) => &mut self.spill[s],
        }
    }

    /// Adds what the open slots gained since the last flush to the
    /// cumulative `totals`. Integer sums, so the totals equal observing
    /// every interval one by one.
    pub fn flush_totals(&mut self, totals: &mut TraceAccumulator) {
        for n in 0..self.touched.len() {
            let Some(slot) = self.slot_mut(self.touched[n]) else {
                continue;
            };
            let d = &slot.delta;
            let now = (slot.time, d.msgs, d.bytes);
            totals.add(
                d.key(),
                SimDuration(now.0.as_micros() - slot.flushed.0.as_micros()),
                now.1 - slot.flushed.1,
                now.2 - slot.flushed.2,
                d.end,
            );
            slot.flushed = now;
        }
    }

    /// Takes the step's deltas and per-process interval counts and
    /// resets the table for the next step.
    pub fn drain(&mut self) -> StepDeltas {
        let mut deltas = Vec::with_capacity(self.touched.len());
        for n in 0..self.touched.len() {
            deltas.extend(self.slot_mut(self.touched[n]).take().map(|s| s.delta));
        }
        self.touched.clear();
        self.spill.clear();
        let nprocs = self.per_proc.len();
        StepDeltas {
            deltas,
            per_proc: std::mem::replace(&mut self.per_proc, vec![0; nprocs]),
        }
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
