//! Property-based tests for pair rings and deltas.

use histpc_instr::delta::aggregate;
use histpc_instr::pair::{Ring, SlotClock};
use histpc_sim::{ActivityKind, FuncId, Interval, ProcId, SimDuration, SimTime, TagId};
use proptest::prelude::*;

/// One add as the brute-force reference keeps it: `amount` spread
/// uniformly over `[from, to)` microseconds.
#[derive(Debug, Clone, Copy)]
struct Add {
    from: u64,
    to: u64,
    amount: f64,
}

/// The reference read: every add's share of `[start, end)`, by overlap.
fn overlap_sum(adds: &[Add], start: u64, end: u64) -> f64 {
    adds.iter()
        .map(|a| {
            let overlap = a.to.min(end).saturating_sub(a.from.max(start));
            a.amount * overlap as f64 / (a.to - a.from) as f64
        })
        .sum()
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (
        0u16..4,
        0u16..6,
        0u8..3,
        prop::option::of(0u16..3),
        0u64..10_000_000,
        1u64..500_000,
        0u64..4096,
    )
        .prop_map(|(proc, func, kind, tag, start, len, bytes)| Interval {
            proc: ProcId(proc),
            func: FuncId(func),
            kind: match kind {
                0 => ActivityKind::Cpu,
                1 => ActivityKind::SyncWait,
                _ => ActivityKind::IoWait,
            },
            tag: tag.map(TagId),
            start: SimTime(start),
            end: SimTime(start + len),
            bytes,
        })
}

proptest! {
    /// A ring on a sample clock: its total is the sum of what was
    /// added, and the window that ends at each tick sums exactly what
    /// the adds put in that window, however far they reach back before
    /// it or run on past the tick.
    #[test]
    fn ring_reads_equal_the_overlap_sum_of_its_adds(
        window_ms in 1u64..3_000,
        sample_ms in 1u64..500,
        ticks in prop::collection::vec(
            prop::collection::vec((0u64..4_000_000, 1u64..3_000_000, 0.0f64..10.0), 0..4),
            1..30,
        ),
    ) {
        let window = SimDuration::from_millis(window_ms);
        let clock = SlotClock::new(window, SimDuration::from_millis(sample_ms));
        let mut ring = Ring::default();
        let mut adds = Vec::new();
        let mut total = 0.0;
        for (k, tick) in ticks.iter().enumerate() {
            let now = SimTime::from_millis(sample_ms * (k as u64 + 1));
            for &(back, len, amount) in tick {
                // Starts at most 4 s before the tick, ends up to 3 s past it.
                let from = now.as_micros().saturating_sub(back);
                let to = from + len;
                ring.add(SimTime(from), SimTime(to), amount, clock, now);
                adds.push(Add { from, to, amount });
                total += amount;
                prop_assert_eq!(ring.total().to_bits(), total.to_bits());
            }
            let end = now.as_micros();
            let want = overlap_sum(&adds, end.saturating_sub(window.as_micros()), end);
            let got: f64 = ring.window(clock, now).sum();
            prop_assert!((got - want).abs() <= 1e-9 * want.max(1.0),
                "tick {k}: window read {got} vs overlap sum {want}");
        }
    }

    /// Delta aggregation conserves seconds, bytes and message counts per
    /// attribution key, and overall.
    #[test]
    fn delta_aggregation_conserves(ivs in prop::collection::vec(interval_strategy(), 0..60)) {
        let deltas = aggregate(&ivs);
        let total_secs: f64 = ivs.iter().map(|iv| iv.duration().as_secs_f64()).sum();
        let agg_secs: f64 = deltas.iter().map(|d| d.seconds).sum();
        prop_assert!((total_secs - agg_secs).abs() < 1e-9,
            "seconds {total_secs} vs {agg_secs}");

        let total_msgs: u64 = ivs
            .iter()
            .filter(|iv| iv.tag.is_some() && iv.bytes > 0)
            .count() as u64;
        let agg_msgs: u64 = deltas.iter().map(|d| d.msgs).sum();
        prop_assert_eq!(total_msgs, agg_msgs);

        // Each delta's span covers all its source intervals.
        for d in &deltas {
            for iv in ivs.iter().filter(|iv| {
                iv.proc == d.proc && iv.func == d.func && iv.kind == d.kind && iv.tag == d.tag
            }) {
                prop_assert!(d.start <= iv.start && d.end >= iv.end);
            }
        }
    }

    /// Aggregation is deterministic: same input, same output order.
    #[test]
    fn delta_aggregation_deterministic(ivs in prop::collection::vec(interval_strategy(), 0..40)) {
        prop_assert_eq!(aggregate(&ivs), aggregate(&ivs));
    }
}
