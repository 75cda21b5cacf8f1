//! Aggregated observation deltas.
//!
//! Pairs are fed one [`Delta`] per attribution key per driver step, not
//! one call per engine interval. The fold lives with the simulator
//! ([`histpc_sim::delta`], which also says why its order matters): the
//! engine aggregates as it emits, and the collector puts raw interval
//! batches through the same [`DeltaTable`]. This module re-exports it
//! and keeps the map-based [`aggregate`] as the reference the tests
//! compare the table against.

pub use histpc_sim::delta::{Delta, DeltaTable, StepDeltas};
use histpc_sim::{ActivityKind, FuncId, Interval, ProcId, TagId};
use std::collections::HashMap;

/// Aggregates a batch of intervals into deltas sorted by attribution
/// key — what [`DeltaTable`] yields once its first-touch order is
/// sorted away.
pub fn aggregate(intervals: &[Interval]) -> Vec<Delta> {
    let mut map: HashMap<(ProcId, FuncId, ActivityKind, Option<TagId>), Delta> = HashMap::new();
    for iv in intervals {
        map.entry((iv.proc, iv.func, iv.kind, iv.tag))
            .or_insert_with(|| Delta::opening(iv))
            .fold(iv);
    }
    let mut out: Vec<Delta> = map.into_values().collect();
    sort_by_key(&mut out);
    out
}

/// Sorts deltas by attribution key: the order pairs consume them in, so
/// pair data is reproducible.
pub fn sort_by_key(deltas: &mut [Delta]) {
    deltas.sort_by_key(|d| (d.proc, d.func, d.kind, d.tag, d.start));
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_sim::SimTime;

    fn sorted(table: &mut DeltaTable, ivs: &[Interval]) -> Vec<Delta> {
        ivs.iter().for_each(|iv| table.fold(iv));
        let mut deltas = table.drain().deltas;
        sort_by_key(&mut deltas);
        deltas
    }

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
    fn groups_by_attribution_key() {
        let ivs = vec![
            iv(0, 1, ActivityKind::Cpu, None, 0, 100, 0),
            iv(0, 1, ActivityKind::Cpu, None, 200, 350, 0),
            iv(0, 2, ActivityKind::Cpu, None, 100, 200, 0),
            iv(1, 1, ActivityKind::SyncWait, Some(0), 0, 50, 64),
        ];
        let ds = aggregate(&ivs);
        assert_eq!(ds.len(), 3);
        let d = ds
            .iter()
            .find(|d| d.proc == ProcId(0) && d.func == FuncId(1))
            .unwrap();
        assert_eq!(d.start, SimTime(0));
        assert_eq!(d.end, SimTime(350));
        assert!((d.seconds - 250e-6).abs() < 1e-12);
        assert_eq!(d.msgs, 0);
        let m = ds.iter().find(|d| d.tag == Some(TagId(0))).unwrap();
        assert_eq!(m.msgs, 1);
        assert_eq!(m.bytes, 64);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(aggregate(&[]).is_empty());
    }

    #[test]
    fn table_matches_the_reference() {
        let ivs = vec![
            iv(0, 1, ActivityKind::Cpu, None, 0, 100, 0),
            iv(1, 0, ActivityKind::SyncWait, Some(1), 10, 60, 32),
            iv(0, 1, ActivityKind::Cpu, None, 200, 350, 0),
            iv(1, 0, ActivityKind::SyncWait, Some(1), 60, 90, 32),
            iv(0, 2, ActivityKind::IoWait, None, 100, 200, 0),
            iv(1, 1, ActivityKind::SyncWait, None, 0, 50, 0),
        ];
        let mut table = DeltaTable::new(2, 3, 2);
        assert_eq!(sorted(&mut table, &ivs), aggregate(&ivs));
        // Reusable: a second batch through the same table.
        assert_eq!(sorted(&mut table, &ivs[..3]), aggregate(&ivs[..3]));
        assert!(sorted(&mut table, &[]).is_empty());
    }

    #[test]
    fn table_spills_out_of_range_keys() {
        let ivs = vec![
            iv(0, 0, ActivityKind::Cpu, None, 0, 10, 0),
            iv(7, 9, ActivityKind::Cpu, None, 0, 10, 0),
        ];
        let mut table = DeltaTable::new(1, 1, 0);
        assert_eq!(sorted(&mut table, &ivs), aggregate(&ivs));
        // The spill must not leave stale state behind.
        assert_eq!(sorted(&mut table, &ivs[..1]), aggregate(&ivs[..1]));
    }

    #[test]
    fn order_is_deterministic() {
        let ivs = vec![
            iv(1, 0, ActivityKind::Cpu, None, 0, 10, 0),
            iv(0, 0, ActivityKind::Cpu, None, 0, 10, 0),
        ];
        let a = aggregate(&ivs);
        let b = aggregate(&ivs);
        assert_eq!(a, b);
        assert_eq!(a[0].proc, ProcId(0));
    }
}
