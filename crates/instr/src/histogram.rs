//! Paradyn-style time histograms with bucket folding.
//!
//! Paradyn stores each metric-focus pair's data as a fixed-size array of
//! time buckets covering the run from t = 0. When the run outgrows the
//! array, adjacent buckets are *folded* (pairwise summed) and the bucket
//! width doubles, so a bounded amount of memory covers an arbitrarily long
//! execution at progressively coarser resolution.
//!
//! Most pairs live for a window or two, so a histogram stores only the
//! contiguous range of buckets its samples have touched; every bucket
//! outside that range reads as zero. Adds, folds and sums run over the
//! same logical buckets, with the same operands, as a dense array would.

use histpc_sim::{SimDuration, SimTime};

/// A fixed-capacity time histogram of a value accumulated over a run.
#[derive(Debug, Clone)]
pub struct TimeHistogram {
    /// Logical number of buckets; the span is `capacity * width`.
    capacity: usize,
    /// Logical index of `stored[0]`.
    base: usize,
    /// Buckets `[base, base + stored.len())`; all others are zero.
    stored: Vec<f64>,
    /// Current bucket width in microseconds.
    width_us: u64,
    /// Number of folds performed so far.
    folds: u32,
}

impl TimeHistogram {
    /// Creates a histogram with `capacity` buckets of `initial_width`.
    pub fn new(capacity: usize, initial_width: SimDuration) -> TimeHistogram {
        assert!(capacity >= 2, "need at least two buckets");
        assert!(capacity.is_multiple_of(2), "capacity must be even to fold");
        assert!(!initial_width.is_zero(), "width must be nonzero");
        TimeHistogram {
            capacity,
            base: 0,
            stored: Vec::new(),
            width_us: initial_width.as_micros(),
            folds: 0,
        }
    }

    /// Default Paradyn-ish sizing: 480 buckets of 200 ms (covers 96 s
    /// before the first fold).
    pub fn standard() -> TimeHistogram {
        TimeHistogram::new(480, SimDuration::from_millis(200))
    }

    /// Current bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        SimDuration(self.width_us)
    }

    /// Number of folds performed.
    pub fn folds(&self) -> u32 {
        self.folds
    }

    /// The end of the covered span at the current width.
    pub fn span_end(&self) -> SimTime {
        SimTime(self.width_us * self.capacity as u64)
    }

    /// The value of logical bucket `b` (zero outside the stored range).
    fn get(&self, b: usize) -> f64 {
        b.checked_sub(self.base)
            .and_then(|i| self.stored.get(i))
            .copied()
            .unwrap_or(0.0)
    }

    /// Widens the stored range to cover buckets `first..=last`.
    fn cover(&mut self, first: usize, last: usize) {
        if self.stored.is_empty() {
            self.base = first;
        } else if first < self.base {
            let grow = self.base - first;
            self.stored.splice(0..0, std::iter::repeat_n(0.0, grow));
            self.base = first;
        }
        let len = last + 1 - self.base;
        if self.stored.len() < len {
            self.stored.resize(len, 0.0);
        }
    }

    /// Adds `amount` of value spread uniformly over `[start, end)`,
    /// folding as needed so the span fits.
    pub fn add(&mut self, start: SimTime, end: SimTime, amount: f64) {
        if end <= start || amount == 0.0 {
            return;
        }
        while end > self.span_end() {
            self.fold();
        }
        let (s, e) = (start.as_micros(), end.as_micros());
        let total = (e - s) as f64;
        let first = (s / self.width_us) as usize;
        let last = ((e - 1) / self.width_us) as usize;
        self.cover(first, last);
        for b in first..=last {
            let b_start = b as u64 * self.width_us;
            let b_end = b_start + self.width_us;
            let overlap = (e.min(b_end) - s.max(b_start)) as f64;
            self.stored[b - self.base] += amount * overlap / total;
        }
    }

    /// Pairwise-sums adjacent buckets and doubles the width.
    fn fold(&mut self) {
        if !self.stored.is_empty() {
            let first = self.base / 2;
            let last = (self.base + self.stored.len() - 1) / 2;
            self.stored = (first..=last)
                .map(|i| self.get(2 * i) + self.get(2 * i + 1))
                .collect();
            self.base = first;
        }
        self.width_us *= 2;
        self.folds += 1;
    }

    /// Total value accumulated in `[from, to)`, assuming uniform
    /// distribution within buckets.
    pub fn sum(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let (s, e) = (
            from.as_micros(),
            to.as_micros().min(self.span_end().as_micros()),
        );
        if e <= s {
            return 0.0;
        }
        let first = (s / self.width_us) as usize;
        let last = ((e - 1) / self.width_us) as usize;
        let mut acc = 0.0;
        for b in first..=last.min(self.capacity - 1) {
            let b_start = b as u64 * self.width_us;
            let b_end = b_start + self.width_us;
            let overlap = (e.min(b_end) - s.max(b_start)) as f64;
            acc += self.get(b) * overlap / self.width_us as f64;
        }
        acc
    }

    /// Total value over the whole histogram.
    pub fn total(&self) -> f64 {
        // Folded from +0.0: the zero buckets before the stored range
        // would have turned a leading -0.0 into +0.0, and `Iterator::sum`
        // starts from -0.0.
        self.stored.iter().fold(0.0, |acc, &b| acc + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> TimeHistogram {
        // 8 buckets of 1 ms.
        TimeHistogram::new(8, SimDuration::from_millis(1))
    }

    #[test]
    fn add_within_one_bucket() {
        let mut hist = h();
        hist.add(SimTime(100), SimTime(600), 2.0);
        assert!((hist.total() - 2.0).abs() < 1e-9);
        assert!((hist.sum(SimTime(0), SimTime(1000)) - 2.0).abs() < 1e-9);
        assert_eq!(hist.sum(SimTime(1000), SimTime(2000)), 0.0);
    }

    #[test]
    fn add_spreads_across_buckets_proportionally() {
        let mut hist = h();
        // 3 ms interval spanning buckets 1,2,3 equally.
        hist.add(SimTime(1000), SimTime(4000), 3.0);
        for b in 1..=3u64 {
            let v = hist.sum(SimTime(b * 1000), SimTime((b + 1) * 1000));
            assert!((v - 1.0).abs() < 1e-9, "bucket {b} had {v}");
        }
    }

    #[test]
    fn partial_bucket_queries_interpolate() {
        let mut hist = h();
        hist.add(SimTime(0), SimTime(1000), 4.0);
        let v = hist.sum(SimTime(250), SimTime(750));
        assert!((v - 2.0).abs() < 1e-9, "half-bucket sum was {v}");
    }

    #[test]
    fn folding_preserves_totals() {
        let mut hist = h(); // spans 8 ms initially
        hist.add(SimTime(0), SimTime(8000), 8.0);
        assert_eq!(hist.folds(), 0);
        // Past the span: forces a fold to 2 ms buckets (16 ms span).
        hist.add(SimTime(9000), SimTime(10000), 1.0);
        assert_eq!(hist.folds(), 1);
        assert_eq!(hist.bucket_width(), SimDuration::from_millis(2));
        assert!((hist.total() - 9.0).abs() < 1e-9);
        // The early data is still queryable at coarser resolution.
        let early = hist.sum(SimTime(0), SimTime(8000));
        assert!((early - 8.0).abs() < 1e-9, "early sum was {early}");
    }

    #[test]
    fn multiple_folds() {
        let mut hist = h();
        hist.add(SimTime(0), SimTime(1000), 1.0);
        hist.add(SimTime(60_000), SimTime(64_000), 4.0); // needs 64 ms span
        assert_eq!(hist.folds(), 3); // 8 -> 16 -> 32 -> 64 ms
        assert!((hist.total() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_or_reversed_ranges_are_noops() {
        let mut hist = h();
        hist.add(SimTime(500), SimTime(500), 1.0);
        hist.add(SimTime(600), SimTime(400), 1.0);
        assert_eq!(hist.total(), 0.0);
        assert_eq!(hist.sum(SimTime(500), SimTime(500)), 0.0);
    }

    #[test]
    fn standard_dimensions() {
        let hist = TimeHistogram::standard();
        assert_eq!(hist.bucket_width(), SimDuration::from_millis(200));
        assert_eq!(hist.span_end(), SimTime::from_secs(96));
    }
}
