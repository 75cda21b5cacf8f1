//! The instrumentation perturbation cost model.
//!
//! "To prevent the PC data requests from overwhelming the system capacity
//! or perturbing the application to a point where reliable results cannot
//! be determined, the cost of instrumentation enabled by the PC is
//! continually monitored. Search expansion ... is halted when the cost
//! reaches a critical threshold, and restarted once instrumentation
//! deletion ... causes the cost to return to an acceptable level." (§2)
//!
//! We model each active metric-focus pair as stealing a fraction of the
//! CPU of every process its focus covers. The fraction scales with how
//! much of the code the pair intercepts: instrumenting the whole program
//! means hooks in every function and message operation, while a single
//! function costs far less. The per-process sum is both the slowdown
//! factor fed back into the engine (perturbation is *real* here) and the
//! signal the Performance Consultant throttles on.

use crate::binder::CompiledFocus;

/// Tunable parameters of the cost model.
#[derive(Debug, Clone)]
pub struct CostConfig {
    /// Cost fraction of one pair whose code selection is the whole
    /// program (hooks everywhere).
    pub base_pair_cost: f64,
    /// Multiplier for a module-level code selection.
    pub module_factor: f64,
    /// Multiplier for a single-function code selection.
    pub function_factor: f64,
    /// Multiplier when the pair only intercepts message events
    /// (a SyncObject-constrained focus).
    pub message_factor: f64,
    /// Residual cost fraction of a *settled* pair: once a pair has run a
    /// full observation window its sampling rate is reduced, so
    /// long-lived persistent pairs are much cheaper to keep than to place.
    pub settle_factor: f64,
    /// The critical cost threshold at which the Performance Consultant
    /// halts search expansion.
    pub halt_threshold: f64,
    /// Expansion restarts once cost falls back below this level.
    pub resume_threshold: f64,
}

impl Default for CostConfig {
    fn default() -> CostConfig {
        CostConfig {
            base_pair_cost: 0.02,
            module_factor: 0.4,
            function_factor: 0.1,
            message_factor: 0.5,
            settle_factor: 0.01,
            halt_threshold: 0.05,
            resume_threshold: 0.035,
        }
    }
}

/// Computes per-pair and per-process instrumentation cost.
#[derive(Debug, Clone)]
pub struct CostModel {
    config: CostConfig,
    /// Per-process accumulated cost fraction from active pairs, as a
    /// *signed* running balance. Refunds subtract exactly; an over-refund
    /// leaves a negative residual that the next charge nets against,
    /// instead of being silently clamped away (which would make the
    /// books drift and skew admission decisions). Read paths clamp to
    /// zero only at the boundary.
    per_proc: Vec<f64>,
}

/// Any steady-state float drift beyond this on a process's signed cost
/// balance means charges and refunds no longer pair up — an accounting
/// bug, not rounding.
const DRIFT_BOUND: f64 = 1e-6;

impl CostModel {
    /// A model for `procs` processes.
    pub fn new(config: CostConfig, procs: usize) -> CostModel {
        CostModel {
            config,
            per_proc: vec![0.0; procs],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CostConfig {
        &self.config
    }

    /// The cost fraction one pair with this focus contributes to each
    /// process it covers.
    pub fn pair_cost(&self, focus: &CompiledFocus) -> f64 {
        let mut c = self.config.base_pair_cost;
        if focus.is_single_function() {
            c *= self.config.function_factor;
        } else if focus.is_module() {
            c *= self.config.module_factor;
        }
        if focus.is_message_constrained() {
            c *= self.config.message_factor;
        }
        c
    }

    /// Adds `amount` of cost to every process in the focus.
    pub fn add(&mut self, focus: &CompiledFocus, amount: f64) {
        for p in focus.procs() {
            self.per_proc[p.0 as usize] += amount;
        }
    }

    /// Refunds `amount` of cost from every process in the focus. The
    /// refund is taken against the signed balance: no clamping, so a
    /// charge/refund mismatch shows up as residual instead of vanishing.
    pub fn sub(&mut self, focus: &CompiledFocus, amount: f64) {
        for p in focus.procs() {
            let bal = &mut self.per_proc[p.0 as usize];
            *bal -= amount;
            debug_assert!(
                *bal >= -DRIFT_BOUND,
                "cost balance of {p:?} drifted to {bal}: refunds exceed charges"
            );
        }
    }

    /// The signed cost balance of one process — negative when refunds
    /// have (erroneously) exceeded charges. Exposed for accounting tests
    /// and diagnostics; consumers of cost use [`CostModel::proc_cost`].
    pub fn residual(&self, proc: usize) -> f64 {
        self.per_proc[proc]
    }

    /// Accounts for a pair being enabled at full (placement) cost.
    pub fn enable(&mut self, focus: &CompiledFocus) {
        self.add(focus, self.pair_cost(focus));
    }

    /// Accounts for a pair being disabled from full cost.
    pub fn disable(&mut self, focus: &CompiledFocus) {
        self.sub(focus, self.pair_cost(focus));
    }

    /// Current cost fraction on one process (clamped at the boundary:
    /// rounding dust below zero reads as zero).
    pub fn proc_cost(&self, proc: usize) -> f64 {
        self.per_proc[proc].max(0.0)
    }

    /// The throttling signal: the worst per-process cost.
    pub fn total_cost(&self) -> f64 {
        self.per_proc.iter().copied().fold(0.0, f64::max)
    }

    /// Slowdown factors (>= 1) to feed into the engine.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.per_proc.iter().map(|c| 1.0 + c.max(0.0)).collect()
    }

    /// Would adding a pair with this focus exceed the halt threshold?
    pub fn would_exceed(&self, focus: &CompiledFocus) -> bool {
        let c = self.pair_cost(focus);
        focus
            .procs()
            .iter()
            .any(|p| self.per_proc[p.0 as usize].max(0.0) + c > self.config.halt_threshold)
    }

    /// True if expansion is currently halted (cost at or above the halt
    /// threshold).
    pub fn is_saturated(&self) -> bool {
        self.total_cost() >= self.config.halt_threshold
    }

    /// True once cost has fallen low enough to resume expansion.
    pub fn can_resume(&self) -> bool {
        self.total_cost() < self.config.resume_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use histpc_resources::ResourceName;
    use histpc_sim::workloads::{PoissonVersion, PoissonWorkload, Workload};

    fn setup() -> (Binder, CostModel) {
        let b = Binder::new(PoissonWorkload::new(PoissonVersion::A).app_spec());
        let m = CostModel::new(CostConfig::default(), 4);
        (b, m)
    }

    fn cf(b: &Binder, sels: &[&str]) -> CompiledFocus {
        let mut f = b.build_space().whole_program();
        for s in sels {
            f = f.with_selection(ResourceName::parse(s).unwrap());
        }
        b.compile(&f)
    }

    #[test]
    fn narrower_code_is_cheaper() {
        let (b, m) = setup();
        let whole = m.pair_cost(&cf(&b, &[]));
        let module = m.pair_cost(&cf(&b, &["/Code/exchng1.f"]));
        let func = m.pair_cost(&cf(&b, &["/Code/exchng1.f/exchng1"]));
        assert!(whole > module && module > func, "{whole} {module} {func}");
    }

    #[test]
    fn message_constrained_is_cheaper() {
        let (b, m) = setup();
        let all = m.pair_cost(&cf(&b, &[]));
        let msg = m.pair_cost(&cf(&b, &["/SyncObject/Message"]));
        assert!(msg < all);
    }

    #[test]
    fn enable_disable_roundtrip() {
        let (b, mut m) = setup();
        let f = cf(&b, &[]);
        assert_eq!(m.total_cost(), 0.0);
        m.enable(&f);
        let c1 = m.total_cost();
        assert!(c1 > 0.0);
        m.enable(&f);
        assert!(m.total_cost() > c1);
        m.disable(&f);
        m.disable(&f);
        assert!(m.total_cost().abs() < 1e-12);
    }

    #[test]
    fn proc_constrained_pairs_cost_only_their_proc() {
        let (b, mut m) = setup();
        m.enable(&cf(&b, &["/Process/poisson:2"]));
        assert!(m.proc_cost(1) > 0.0);
        assert_eq!(m.proc_cost(0), 0.0);
        assert_eq!(m.proc_cost(2), 0.0);
    }

    #[test]
    fn saturation_and_resume() {
        let (b, mut m) = setup();
        let f = cf(&b, &[]);
        assert!(!m.is_saturated());
        // Enable whole-program pairs until the halt threshold is reached.
        let per_pair = m.pair_cost(&f);
        let needed = (m.config().halt_threshold / per_pair).ceil() as usize;
        for _ in 0..needed {
            m.enable(&f);
        }
        assert!(m.is_saturated());
        assert!(!m.can_resume());
        // Disable enough to fall below the resume threshold.
        let keep = (m.config().resume_threshold / per_pair).ceil() as usize - 1;
        for _ in 0..(needed - keep) {
            m.disable(&f);
        }
        assert!(m.can_resume());
    }

    #[test]
    fn slowdowns_reflect_cost() {
        let (b, mut m) = setup();
        m.enable(&cf(&b, &[]));
        let expect = 1.0 + m.config().base_pair_cost;
        let s = m.slowdowns();
        assert_eq!(s.len(), 4);
        for v in s {
            assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn would_exceed_predicts_threshold() {
        let (b, mut m) = setup();
        let f = cf(&b, &[]);
        // Fill the budget to exactly the halt threshold: landing on the
        // threshold is allowed, anything beyond is an excess.
        let halt = m.config().halt_threshold;
        m.add(&f, halt - m.pair_cost(&f));
        assert!(!m.would_exceed(&f));
        m.enable(&f);
        assert!(m.would_exceed(&f));
        let tiny = cf(&b, &["/Code/diff.f/diff"]);
        assert!(m.would_exceed(&tiny));
        m.disable(&f);
        assert!(!m.would_exceed(&tiny));
    }

    #[test]
    fn settled_cost_arithmetic() {
        let (b, mut m) = setup();
        let f = cf(&b, &[]);
        let full = m.pair_cost(&f);
        m.add(&f, full);
        let settled = full * m.config().settle_factor;
        m.sub(&f, full - settled);
        assert!((m.total_cost() - settled).abs() < 1e-12);
        m.sub(&f, settled);
        assert!(m.total_cost().abs() < 1e-12);
        assert!(m.residual(0).abs() < 1e-12);
    }

    #[test]
    fn refunds_track_signed_residual_instead_of_clamping() {
        // Regression: `sub` used to clamp each balance at 0.0, silently
        // swallowing over-refunds. A refund mismatch must stay on the
        // books (negative residual netted by the next charge), while
        // boundary reads still clamp rounding dust.
        let (b, mut m) = setup();
        let f = cf(&b, &[]);
        m.add(&f, 0.010);
        // Many uneven charge/refund pairs: the signed balance nets to
        // exactly the sum, no drift accumulates from clamping.
        for _ in 0..1000 {
            m.add(&f, 0.003);
            m.sub(&f, 0.001);
            m.sub(&f, 0.002);
        }
        assert!((m.residual(0) - 0.010).abs() < 1e-9, "{}", m.residual(0));
        assert!((m.total_cost() - 0.010).abs() < 1e-9);
        m.sub(&f, 0.010);
        assert!(m.residual(0).abs() < 1e-9);
        // Boundary reads clamp float dust, never report negative cost.
        assert!(m.proc_cost(0) >= 0.0);
        for s in m.slowdowns() {
            assert!(s >= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "refunds exceed charges")]
    #[cfg(debug_assertions)]
    fn over_refund_trips_the_drift_assert() {
        let (b, mut m) = setup();
        let f = cf(&b, &[]);
        m.add(&f, 0.01);
        m.sub(&f, 1.0);
    }
}
