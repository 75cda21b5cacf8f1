//! Property-based tests for histograms, deltas, and pair clipping.

use histpc_instr::delta::aggregate;
use histpc_instr::TimeHistogram;
use histpc_sim::{ActivityKind, FuncId, Interval, ProcId, SimDuration, SimTime, TagId};
use proptest::prelude::*;

/// The dense reference histogram: every logical bucket stored, as
/// `TimeHistogram` once was. The sparse one must agree with it bit for
/// bit.
struct DenseHistogram {
    buckets: Vec<f64>,
    width_us: u64,
}

impl DenseHistogram {
    fn new(capacity: usize, width: SimDuration) -> DenseHistogram {
        DenseHistogram {
            buckets: vec![0.0; capacity],
            width_us: width.as_micros(),
        }
    }

    fn span_end(&self) -> u64 {
        self.width_us * self.buckets.len() as u64
    }

    fn add(&mut self, s: u64, e: u64, amount: f64) {
        if e <= s || amount == 0.0 {
            return;
        }
        while e > self.span_end() {
            let n = self.buckets.len();
            for i in 0..n / 2 {
                self.buckets[i] = self.buckets[2 * i] + self.buckets[2 * i + 1];
            }
            for b in &mut self.buckets[n / 2..] {
                *b = 0.0;
            }
            self.width_us *= 2;
        }
        let total = (e - s) as f64;
        for b in (s / self.width_us) as usize..=((e - 1) / self.width_us) as usize {
            let b_start = b as u64 * self.width_us;
            let overlap = (e.min(b_start + self.width_us) - s.max(b_start)) as f64;
            self.buckets[b] += amount * overlap / total;
        }
    }

    fn sum(&self, s: u64, e: u64) -> f64 {
        let e = e.min(self.span_end());
        if e <= s {
            return 0.0;
        }
        let last = ((e - 1) / self.width_us) as usize;
        let mut acc = 0.0;
        for b in (s / self.width_us) as usize..=last.min(self.buckets.len() - 1) {
            let b_start = b as u64 * self.width_us;
            let overlap = (e.min(b_start + self.width_us) - s.max(b_start)) as f64;
            acc += self.buckets[b] * overlap / self.width_us as f64;
        }
        acc
    }

    fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }
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
    /// Histogram totals are conserved regardless of how many folds the
    /// data forces.
    #[test]
    fn histogram_folding_conserves_total(
        adds in prop::collection::vec((0u64..100_000_000, 1u64..1_000_000, 0.01f64..10.0), 1..50)
    ) {
        let mut h = TimeHistogram::new(32, SimDuration::from_millis(10));
        let mut expect = 0.0;
        for (start, len, amount) in adds {
            h.add(SimTime(start), SimTime(start + len), amount);
            expect += amount;
        }
        prop_assert!((h.total() - expect).abs() < 1e-6 * expect.max(1.0),
            "total {} vs expected {expect}", h.total());
    }

    /// A histogram's windowed sums never exceed its total and the full
    /// window recovers the total.
    #[test]
    fn histogram_window_sums_bounded(
        adds in prop::collection::vec((0u64..1_000_000, 1u64..100_000, 0.01f64..5.0), 1..20),
        from in 0u64..1_000_000,
        len in 1u64..1_000_000,
    ) {
        let mut h = TimeHistogram::new(64, SimDuration::from_millis(1));
        for (start, l, amount) in adds {
            h.add(SimTime(start), SimTime(start + l), amount);
        }
        let windowed = h.sum(SimTime(from), SimTime(from + len));
        prop_assert!(windowed <= h.total() + 1e-9);
        let everything = h.sum(SimTime::ZERO, h.span_end());
        prop_assert!((everything - h.total()).abs() < 1e-6 * h.total().max(1.0));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Storing only the touched bucket range changes no bit: random add
    /// sequences, including ones that fold several times, give the
    /// same windowed sums and total as the dense reference.
    #[test]
    fn sparse_histogram_matches_dense_reference_bit_for_bit(
        adds in prop::collection::vec((0u64..200_000, 1u64..30_000, -5.0f64..10.0), 0..30),
        windows in prop::collection::vec((0u64..300_000, 0u64..100_000), 1..10),
    ) {
        let width = SimDuration::from_millis(1);
        let mut sparse = TimeHistogram::new(16, width);
        let mut dense = DenseHistogram::new(16, width);
        for (start, len, amount) in adds {
            sparse.add(SimTime(start), SimTime(start + len), amount);
            dense.add(start, start + len, amount);
            prop_assert_eq!(sparse.total().to_bits(), dense.total().to_bits());
        }
        prop_assert_eq!(sparse.total().to_bits(), dense.total().to_bits());
        prop_assert_eq!(sparse.span_end(), SimTime(dense.span_end()));
        for (from, len) in windows {
            let got = sparse.sum(SimTime(from), SimTime(from + len));
            prop_assert_eq!(got.to_bits(), dense.sum(from, from + len).to_bits(),
                "window [{from}, {})", from + len);
        }
    }
}
