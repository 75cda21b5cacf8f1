//! Metric-focus pairs: the unit of dynamic instrumentation.
//!
//! A pair is requested at some time, becomes active after the insertion
//! delay, observes only what happens while it is active, and can be
//! deleted. The consultant only ever reads a pair's last window, so its
//! data is a [`Ring`]: the slots of one window on the sample clock, and a
//! lifetime total.

use crate::binder::{Binder, CompiledFocus};
use crate::delta::Delta;
use crate::metric::Metric;
use histpc_resources::{Focus, FocusId};
use histpc_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The slots pair data is kept in: `width`-wide from t = 0, `count` of
/// them to a window. Both window ends of a read on the sample clock fall
/// on slot edges, so a read sums whole slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotClock {
    width_us: u64,
    count: u64,
}

impl SlotClock {
    /// Slots for reads of `window` at multiples of `sample`: the widest
    /// width that divides both.
    pub fn new(window: SimDuration, sample: SimDuration) -> SlotClock {
        let (mut a, mut b) = (window.as_micros(), sample.as_micros().max(1));
        while b != 0 {
            (a, b) = (b, a % b);
        }
        SlotClock {
            width_us: a,
            count: window.as_micros() / a,
        }
    }

    /// The slots of the window that ends at `now`.
    fn window(self, now: SimTime) -> std::ops::Range<u64> {
        let end = now.as_micros() / self.width_us;
        end.saturating_sub(self.count)..end
    }
}

/// A pair's data: per-slot values from the oldest slot a read can still
/// need, and everything ever added.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// Slot index of `slots[0]`.
    first: u64,
    /// The last window before the newest add's `now`, plus the slots an
    /// interval that overran `now` reaches into.
    slots: VecDeque<f64>,
    total: f64,
}

impl Ring {
    /// Adds `amount` spread uniformly over `[from, to)`, delivered at
    /// `now`. The part before the window that ends at `now` counts only
    /// toward the total: no read at or after `now` covers it.
    pub fn add(&mut self, from: SimTime, to: SimTime, amount: f64, clock: SlotClock, now: SimTime) {
        if to <= from {
            return;
        }
        self.total += amount;
        let oldest = clock.window(now).start;
        if self.first < oldest {
            let gone = (oldest - self.first).min(self.slots.len() as u64);
            self.slots.drain(..gone as usize);
            self.first = oldest;
        }
        let (s, e, w) = (from.as_micros(), to.as_micros(), clock.width_us);
        let last = (e - 1) / w;
        let len = (last + 1).saturating_sub(self.first) as usize;
        if self.slots.len() < len {
            self.slots.resize(len, 0.0);
        }
        let span = (e - s) as f64;
        for b in (s / w).max(self.first)..=last {
            let overlap = (e.min(b * w + w) - s.max(b * w)) as f64;
            self.slots[(b - self.first) as usize] += amount * overlap / span;
        }
    }

    /// The stored slots of the window that ends at `now`, oldest first.
    pub fn window(&self, clock: SlotClock, now: SimTime) -> impl Iterator<Item = f64> + '_ {
        let (window, end) = (clock.window(now), self.first + self.slots.len() as u64);
        let from = window.start.clamp(self.first, end);
        let to = window.end.clamp(from, end);
        self.slots
            .range((from - self.first) as usize..(to - self.first) as usize)
            .copied()
    }

    /// Everything ever added.
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// One instrumented (metric, focus) pair.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The measured metric.
    pub metric: Metric,
    /// The focus, in resource-name form.
    pub focus: Focus,
    /// The focus's id in the collector's interner; the key hot paths
    /// route and look up by instead of the name form.
    pub focus_id: FocusId,
    /// The focus compiled against the application.
    pub compiled: CompiledFocus,
    /// When instrumentation was requested.
    pub requested_at: SimTime,
    /// When instrumentation became active (request + insertion delay).
    pub active_from: SimTime,
    /// When instrumentation was deleted, if it has been.
    pub disabled_at: Option<SimTime>,
    /// Number of matching samples added to the pair's data. Degraded
    /// runs use this to tell "measured zero" from "never measured".
    pub observations: u64,
    ring: Ring,
}

impl Pair {
    /// Creates a pair whose instrumentation activates at `active_from`.
    pub fn new(
        metric: Metric,
        focus: Focus,
        focus_id: FocusId,
        compiled: CompiledFocus,
        requested_at: SimTime,
        active_from: SimTime,
    ) -> Pair {
        Pair {
            metric,
            focus,
            focus_id,
            compiled,
            requested_at,
            active_from,
            disabled_at: None,
            observations: 0,
            ring: Ring::default(),
        }
    }

    /// True while the pair's instrumentation is in place at time `t`.
    pub fn is_active_at(&self, t: SimTime) -> bool {
        t >= self.active_from && self.disabled_at.is_none_or(|d| t < d)
    }

    /// True if the pair has not been deleted.
    pub fn is_live(&self) -> bool {
        self.disabled_at.is_none()
    }

    /// Adds an aggregated delta, delivered at `now`, to the pair's data
    /// if it matches the focus, clipped to the pair's enablement window —
    /// dynamic instrumentation cannot see the past, nor anything after
    /// its deletion. A half-covered delta contributes half its value.
    pub fn observe_delta(&mut self, d: &Delta, binder: &Binder, clock: SlotClock, now: SimTime) {
        if !self.compiled.matches_parts(d.proc, d.func, d.tag, binder) {
            return;
        }
        let from = d.start.max(self.active_from);
        let to = match self.disabled_at {
            Some(dis) => d.end.min(dis),
            None => d.end,
        };
        if to <= from {
            return;
        }
        let full = self.metric.extract(d);
        if full == 0.0 {
            return;
        }
        let span = (d.end - d.start).as_secs_f64().max(1e-12);
        let frac = ((to - from).as_secs_f64() / span).min(1.0);
        self.observations += 1;
        self.ring.add(from, to, full * frac, clock, now);
    }

    /// The pair's share of its focus over the window that ends at `now`:
    /// each slot's value over the slot's width times the focus's process
    /// count, averaged over the window. A focus busy throughout reads 1.
    pub fn window_fraction(&self, clock: SlotClock, now: SimTime) -> f64 {
        let procs = self.compiled.procs().len();
        if procs == 0 || clock.count == 0 {
            return 0.0;
        }
        let capacity = SimDuration::from_micros(clock.width_us).as_secs_f64() * procs as f64;
        let sum = self
            .ring
            .window(clock, now)
            .fold(0.0, |acc, v| acc + v / capacity);
        sum / clock.count as f64
    }

    /// Total value accumulated over the pair's lifetime.
    pub fn total(&self) -> f64 {
        self.ring.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use histpc_sim::workloads::{PoissonVersion, PoissonWorkload, Workload};
    use histpc_sim::{ActivityKind, FuncId, Interval, ProcId};

    /// 100 ms slots, 8 to a window.
    const CLOCK: SlotClock = SlotClock {
        width_us: 100_000,
        count: 8,
    };

    fn setup() -> (Binder, Pair) {
        let b = Binder::new(PoissonWorkload::new(PoissonVersion::A).app_spec());
        let space = b.build_space();
        let focus = space.whole_program();
        let compiled = b.compile(&focus);
        let pair = Pair::new(
            Metric::CpuTime,
            focus,
            FocusId(0),
            compiled,
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        (b, pair)
    }

    /// The delta of one CPU interval of process 0.
    fn cpu(start_ms: u64, end_ms: u64) -> Delta {
        let iv = Interval {
            proc: ProcId(0),
            func: FuncId(0),
            kind: ActivityKind::Cpu,
            tag: None,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            bytes: 0,
        };
        let mut d = Delta::opening(&iv);
        d.fold(&iv);
        d
    }

    /// Delivers `d` at `now_ms`.
    fn observe(p: &mut Pair, b: &Binder, d: Delta, now_ms: u64) {
        p.observe_delta(&d, b, CLOCK, SimTime::from_millis(now_ms));
    }

    /// Asserts the stored slots of the window that ends at `now_ms`.
    fn assert_window(p: &Pair, now_ms: u64, want: &[f64]) {
        let got: Vec<f64> = p.ring.window(CLOCK, SimTime::from_millis(now_ms)).collect();
        assert_eq!(got.len(), want.len(), "{got:?}");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn slot_clocks_divide_window_and_sample() {
        let ms = SimDuration::from_millis;
        let paper = SlotClock::new(ms(2000), ms(250));
        assert_eq!((paper.width_us, paper.count), (250_000, 8));
        let odd = SlotClock::new(ms(300), ms(250));
        assert_eq!((odd.width_us, odd.count), (50_000, 6));
    }

    #[test]
    fn activation_window() {
        let (_, mut p) = setup();
        assert!(!p.is_active_at(SimTime::from_millis(50)));
        assert!(p.is_active_at(SimTime::from_millis(100)));
        p.disabled_at = Some(SimTime::from_millis(500));
        assert!(p.is_active_at(SimTime::from_millis(499)));
        assert!(!p.is_active_at(SimTime::from_millis(500)));
        assert!(!p.is_live());
    }

    #[test]
    fn observes_nothing_before_activation() {
        let (b, mut p) = setup();
        observe(&mut p, &b, cpu(0, 100), 100);
        assert_eq!(p.total(), 0.0);
        assert_eq!(p.observations, 0);
    }

    #[test]
    fn clips_partially_covered_intervals() {
        let (b, mut p) = setup();
        // Active from 100ms; interval covers 50..150ms -> half observed.
        observe(&mut p, &b, cpu(50, 150), 200);
        assert!((p.total() - 0.05).abs() < 1e-9, "got {}", p.total());
    }

    #[test]
    fn clips_after_deletion() {
        let (b, mut p) = setup();
        p.disabled_at = Some(SimTime::from_millis(200));
        observe(&mut p, &b, cpu(150, 250), 300);
        assert!((p.total() - 0.05).abs() < 1e-9);
        // Entirely after deletion: nothing.
        observe(&mut p, &b, cpu(300, 400), 400);
        assert!((p.total() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn a_window_read_sums_whole_slots() {
        let (b, mut p) = setup();
        observe(&mut p, &b, cpu(100, 300), 300);
        assert_window(&p, 300, &[0.0, 0.1, 0.1]);
        // Busy for 200 ms of an 800 ms window on one of 4 processes.
        let procs = p.compiled.procs().len() as f64;
        let want = 0.2 / (0.8 * procs);
        let got = p.window_fraction(CLOCK, SimTime::from_millis(300));
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        // A second later the window has moved past the data.
        assert_eq!(p.window_fraction(CLOCK, SimTime::from_millis(1300)), 0.0);
    }

    #[test]
    fn an_interval_that_overruns_now_lands_once_in_the_slots_it_covers() {
        let (b, mut p) = setup();
        // Delivered at 1 s, the interval runs on to 1.25 s.
        observe(&mut p, &b, cpu(900, 1250), 1000);
        assert!((p.total() - 0.35).abs() < 1e-12);
        // The window at 1 s (slots 2..10) holds only the part before 1 s ...
        let mut want = [0.0; 8];
        want[7] = 0.1;
        assert_window(&p, 1000, &want);
        // ... and the window at 1.3 s (slots 5..13) the rest, slot by slot.
        want = [0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.05];
        assert_window(&p, 1300, &want);
        // A later delivery slides the ring to slot 12 without counting
        // the overrun again.
        observe(&mut p, &b, cpu(1900, 2000), 2000);
        assert!((p.total() - 0.45).abs() < 1e-12);
        assert_eq!(p.ring.first, 12);
        want = [0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1];
        assert_window(&p, 2000, &want);
    }

    #[test]
    fn what_falls_before_the_window_counts_only_toward_the_total() {
        let (b, mut p) = setup();
        // Delivered at 2 s: 100..1200 ms began before the window [1.2 s, 2 s).
        observe(&mut p, &b, cpu(100, 1300), 2000);
        assert!((p.total() - 1.2).abs() < 1e-12);
        assert_eq!(p.ring.first, 12);
        assert_window(&p, 2000, &[0.1]);
    }

    #[test]
    fn non_matching_deltas_ignored() {
        let (b, mut p) = setup();
        // SyncWait does not feed CpuTime.
        let mut d = cpu(100, 200);
        d.kind = ActivityKind::SyncWait;
        observe(&mut p, &b, d, 200);
        assert_eq!(p.total(), 0.0);
    }
}
