//! Per-tick sample batches from the simulator to the collector.
//!
//! The driver loop drains the engine once per tick and hands the whole
//! tick over as one [`SampleBatch`]: normally the engine's own per-key
//! deltas ([`SampleBatch::drain`]), or — when something had to look at
//! individual samples first, like the fault injector — the raw intervals
//! ([`SampleBatch::new`]), which the collector aggregates on arrival.
//! Either way the batch carries per-process interval counts, so admission
//! budgeting can rank and shed whole per-process groups (see
//! [`crate::Collector::ingest`]).

use crate::delta::Delta;
use histpc_sim::{Engine, Interval};

/// One driver tick's worth of engine output.
#[derive(Debug, Clone, Default)]
pub struct SampleBatch {
    intervals: Vec<Interval>,
    /// The engine's aggregates, in first-touch order; `None` for a raw
    /// batch.
    deltas: Option<Vec<Delta>>,
    per_proc: Vec<u64>,
}

impl SampleBatch {
    /// Wraps a tick's raw intervals; `proc_count` sizes the per-process
    /// count table (processes beyond it grow the table as needed).
    pub fn new(intervals: Vec<Interval>, proc_count: usize) -> SampleBatch {
        let mut per_proc = vec![0u64; proc_count];
        for iv in &intervals {
            let p = iv.proc.0 as usize;
            if p >= per_proc.len() {
                per_proc.resize(p + 1, 0);
            }
            per_proc[p] += 1;
        }
        SampleBatch {
            intervals,
            deltas: None,
            per_proc,
        }
    }

    /// Drains `engine`'s per-key aggregates — the canonical driver-tick
    /// handoff from the simulator to the collector. Any raw intervals the
    /// engine captured for the tick are discarded.
    pub fn drain(engine: &mut Engine) -> SampleBatch {
        let step = engine.drain_deltas();
        SampleBatch {
            intervals: Vec::new(),
            deltas: Some(step.deltas),
            per_proc: step.per_proc,
        }
    }

    /// Number of intervals the batch stands for.
    pub fn len(&self) -> usize {
        self.per_proc.iter().sum::<u64>() as usize
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw intervals, in delivery order (empty for a drained batch).
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The engine's aggregates in first-touch order, for a drained batch.
    pub fn deltas(&self) -> Option<&[Delta]> {
        self.deltas.as_deref()
    }

    /// Interval count per process rank.
    pub fn per_proc(&self) -> &[u64] {
        &self.per_proc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_sim::workloads::{SyntheticWorkload, Workload};
    use histpc_sim::{ActivityKind, FuncId, ProcId, SimTime};

    fn iv(proc: u16, s: u64, e: u64) -> Interval {
        Interval {
            proc: ProcId(proc),
            func: FuncId(0),
            kind: ActivityKind::Cpu,
            tag: None,
            start: SimTime(s),
            end: SimTime(e),
            bytes: 0,
        }
    }

    #[test]
    fn counts_per_process() {
        let b = SampleBatch::new(vec![iv(0, 0, 1), iv(2, 1, 2), iv(0, 2, 3)], 3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.per_proc(), &[2, 0, 1]);
        assert_eq!(b.intervals()[1].proc, ProcId(2));
    }

    #[test]
    fn grows_for_unexpected_ranks() {
        let b = SampleBatch::new(vec![iv(5, 0, 1)], 2);
        assert_eq!(b.per_proc(), &[0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn drains_an_engine() {
        let wl = SyntheticWorkload::balanced(2, 1, 0.1);
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_millis(500));
        let b = SampleBatch::drain(&mut e);
        assert!(!b.is_empty());
        assert_eq!(b.per_proc().len(), 2);
        // The batch counts intervals, not the deltas standing for them.
        assert_eq!(b.len() as u64, e.events_drained());
        assert_eq!(b.len() as u64, b.per_proc().iter().sum::<u64>());
        assert!(b.deltas().is_some_and(|d| d.len() < b.len()));
        // The engine was drained: a second batch is empty.
        assert!(SampleBatch::drain(&mut e).is_empty());
    }
}
