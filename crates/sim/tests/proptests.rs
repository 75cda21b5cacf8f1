//! Property-based tests for the discrete-event engine.

use histpc_sim::workloads::{PoissonVersion, PoissonWorkload, SyntheticWorkload, Workload};
use histpc_sim::{ActivityKind, EngineStatus, ProcId, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed => identical full-resolution totals, regardless of how
    /// the horizon is chopped up.
    #[test]
    fn determinism_is_independent_of_horizon_steps(
        seed in 0u64..1000,
        steps in 1usize..6,
    ) {
        let wl = PoissonWorkload::new(PoissonVersion::C).with_seed(seed);
        let total = SimTime::from_millis(1200);

        let mut one = wl.build_engine();
        one.run_until(total);

        let mut many = wl.build_engine();
        for k in 1..=steps {
            let t = SimTime((total.as_micros() * k as u64) / steps as u64);
            many.run_until(t);
        }

        // Both have simulated *at least* to `total`; processes may overrun
        // differently, so compare prefix behaviour: every proc is at or
        // past the horizon, and totals agree once both run to a common
        // barrier point far beyond.
        let far = SimTime::from_millis(1500);
        one.run_until(far);
        many.run_until(far);
        // Run both a little further so any in-flight blocking op resolves
        // identically, then compare.
        let a: Vec<_> = one.totals().iter().collect();
        let b: Vec<_> = many.totals().iter().collect();
        prop_assert_eq!(a, b);
    }

    /// Per-process conservation: a process is always in exactly one state,
    /// so cpu + sync + io time equals its clock (within the engine's
    /// integer rounding of chunked bursts).
    #[test]
    fn per_process_time_is_conserved(seed in 0u64..1000) {
        let wl = PoissonWorkload::new(PoissonVersion::A).with_seed(seed);
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_millis(800));
        for p in 0..4u16 {
            let proc = ProcId(p);
            let cpu = e.totals().proc_total(proc, ActivityKind::Cpu);
            let sync = e.totals().proc_total(proc, ActivityKind::SyncWait);
            let io = e.totals().proc_total(proc, ActivityKind::IoWait);
            let busy = cpu + sync + io;
            let clock = e.proc_clock(proc);
            let diff = clock.as_micros().abs_diff(busy.as_micros());
            prop_assert!(
                diff < 100,
                "proc {p}: clock {} vs busy {} (cpu {cpu} sync {sync} io {io})",
                clock, busy
            );
        }
    }

    /// A compute-only synthetic workload accumulates exactly the planted
    /// CPU time per iteration.
    #[test]
    fn synthetic_cpu_matches_plan(
        funcs in 1usize..4,
        ms in 1u64..5,
        iters in 1u64..30,
    ) {
        let wl = SyntheticWorkload::balanced(2, funcs, ms as f64)
            .with_max_iters(iters);
        let mut e = wl.build_engine();
        prop_assert_eq!(e.run_until(SimTime::from_secs(3600)), EngineStatus::AllDone);
        let per_proc_expect = funcs as u64 * ms * 1000 * iters;
        for p in 0..2u16 {
            let cpu = e.totals().proc_total(ProcId(p), ActivityKind::Cpu);
            prop_assert_eq!(cpu.as_micros(), per_proc_expect);
        }
    }

    /// Slowdown factors stretch CPU time by exactly the factor for
    /// compute-only workloads.
    #[test]
    fn slowdown_scaling_is_exact(factor_pct in 100u32..300) {
        let factor = factor_pct as f64 / 100.0;
        let wl = SyntheticWorkload::balanced(1, 1, 10.0).with_max_iters(10);
        let mut e = wl.build_engine();
        e.set_slowdown(ProcId(0), factor);
        e.run_until(SimTime::from_secs(3600));
        let clock = e.proc_clock(ProcId(0)).as_micros() as f64;
        let expect = 10.0 * 10_000.0 * factor;
        prop_assert!((clock - expect).abs() <= 10.0 * 1.0,
            "clock {clock} expect {expect}");
    }

    /// Messages are conserved: every ring message sent is received
    /// (sender and receiver both log one interval with its bytes).
    #[test]
    fn ring_messages_are_conserved(iters in 1u64..20) {
        let wl = SyntheticWorkload::balanced(4, 1, 1.0)
            .with_ring(256)
            .with_max_iters(iters);
        let mut e = wl.build_engine();
        prop_assert_eq!(e.run_until(SimTime::from_secs(3600)), EngineStatus::AllDone);
        let tag = histpc_sim::TagId(0);
        for p in 0..4u16 {
            // Each process sends one and receives one message per
            // iteration; both directions count toward its tag totals.
            let count = e.totals().msg_count(ProcId(p), tag);
            prop_assert_eq!(count, 2 * iters);
            prop_assert_eq!(e.totals().msg_byte_total(ProcId(p), tag), 2 * iters * 256);
        }
    }

    /// A loop script yields one action sequence however it is read: one
    /// action at a time, an iteration at a time (how the engine reads
    /// it), or any interleaving of the two — iterations of every length,
    /// empty ones included, finite or endless.
    #[test]
    fn loop_script_sequence_is_independent_of_how_it_is_read(
        lens in prop::collection::vec(0usize..5, 1..12),
        finite in 0u8..2,
        batch_mask in 0u64..u64::MAX,
    ) {
        use histpc_sim::{Action, FuncId, LoopScript, ProcessScript, SimDuration};
        let script = || {
            let lens = lens.clone();
            // An endless script stops at its first empty iteration.
            let max = (finite == 1).then_some(lens.len() as u64);
            LoopScript::new(max, move |i, out: &mut Vec<Action>| {
                let n = lens[i as usize % lens.len()];
                out.extend((0..n).map(|k| Action::Compute {
                    func: FuncId(k as u16),
                    dur: SimDuration(i),
                }));
            })
        };
        // Bounded: an endless script with no empty iteration never ends.
        let limit = 200;
        let mut one_by_one = script();
        let mut want = Vec::new();
        while want.len() < limit {
            match one_by_one.next_action() {
                Some(a) => want.push(a),
                None => break,
            }
        }
        for mask in [u64::MAX, batch_mask] {
            let mut mixed = script();
            let mut got = Vec::new();
            let mut turn = 0;
            while got.len() < limit {
                let before = got.len();
                let more = if mask >> (turn % 64) & 1 == 1 {
                    mixed.next_batch(&mut got)
                } else {
                    mixed.next_action().map(|a| got.push(a)).is_some()
                };
                turn += 1;
                // A read either delivers something or ends the script.
                prop_assert_eq!(more, got.len() > before);
                if !more {
                    break;
                }
            }
            got.truncate(limit);
            prop_assert_eq!(&got, &want);
        }
    }
}
