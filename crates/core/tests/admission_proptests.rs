//! Property tests of the admission layer's two determinism contracts:
//!
//! * **Zero-pressure bit-identity** — enabling admission control with
//!   bounds the run never hits must not change a single bit of the
//!   outcome: same record text, same SHG rendering, same cost trace.
//! * **Replay determinism under shedding** — a run that does shed,
//!   saturate and re-admit must replay exactly from the same fault seed:
//!   the degraded result is a function of (workload, config, seed), not
//!   of incidental iteration order.

use histpc::faults::RequestFault;
use histpc::history;
use histpc::instr::{AdmitOutcome, Collector, PairId, RequestClass, SampleBatch};
use histpc::prelude::*;
use proptest::prelude::*;

/// A healthy backing-class request at t = 0, which must be granted.
fn request(c: &mut Collector, metric: Metric, focus: Focus) -> PairId {
    let fate = RequestFault::Deliver;
    match c.request_admitted(metric, focus, SimTime::ZERO, fate, RequestClass::Backing) {
        AdmitOutcome::Granted(id) => id,
        refused => panic!("a healthy request was refused: {refused:?}"),
    }
}

fn fast_config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(60),
        ..SearchConfig::default()
    }
}

fn fingerprint(d: &Diagnosis) -> (String, String, bool, u64) {
    (
        history::format::write_record(&d.record),
        d.report.shg_rendering.clone(),
        d.report.quiescent,
        d.report.peak_cost.to_bits(),
    )
}

proptest! {
    // Each case runs full diagnoses; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Admission enabled with default (generous) bounds on an unloaded
    /// run: never triggered, and bit-identical to the baseline without
    /// admission control, across workload shapes.
    #[test]
    fn untriggered_admission_is_bit_identical(
        nodes in 1usize..3,
        procs_per_node in 1usize..3,
        hotspot_weight in 0.5f64..3.0,
    ) {
        let wl = SyntheticWorkload::balanced(nodes, procs_per_node, 0.1)
            .with_hotspot(0, 0, hotspot_weight);
        let session = Session::new();
        let config = fast_config();
        let baseline = session.diagnose(&wl, &config, "base").unwrap();
        let mut admitted_config = config;
        admitted_config.collector.admission = AdmissionConfig::enabled();
        let admitted = session.diagnose(&wl, &admitted_config, "base").unwrap();
        prop_assert_eq!(fingerprint(&baseline), fingerprint(&admitted));
        prop_assert_eq!(admitted.report.admission.shed_requests, 0);
        prop_assert_eq!(admitted.report.admission.shed_samples, 0);
        prop_assert_eq!(admitted.report.admission.breaker_opens, 0);
        prop_assert_eq!(admitted.report.admission.saturated_refusals, 0);
    }

    /// A shed-then-readmit run (overload faults against tight bounds)
    /// replays bit-identically from the same fault seed — including the
    /// admission statistics, so every shed, trip and readmission happened
    /// at the same point both times.
    #[test]
    fn shedding_run_replays_deterministically(
        fault_seed in 0u64..1000,
        flood in 3.0f64..8.0,
        storm_rate in 0.2f64..0.8,
    ) {
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let mut config = fast_config();
        config.faults.seed = fault_seed;
        config.faults.sample_flood = flood;
        config.faults.request_storm_rate = storm_rate;
        config.faults.request_storm_burst = 6;
        config.faults.slow_collector = SimDuration::from_millis(400);
        config.collector.admission = AdmissionConfig {
            enabled: true,
            max_in_flight: 6,
            sample_budget: 8,
            deadline: SimDuration::from_millis(300),
            breaker_threshold: 2,
            breaker_cooldown: SimDuration::from_secs(2),
        };
        let session = Session::new();
        let first = session
            .diagnose_faulted(&wl, &config, "r", None)
            .unwrap()
            .diagnosis
            .expect("overload degrades, never crashes");
        let second = session
            .diagnose_faulted(&wl, &config, "r", None)
            .unwrap()
            .diagnosis
            .expect("overload degrades, never crashes");
        prop_assert_eq!(fingerprint(&first), fingerprint(&second));
        prop_assert_eq!(first.report.admission, second.report.admission);
        // The pressure must actually have engaged, or this property
        // would silently degenerate into the zero-pressure case.
        prop_assert!(
            first.report.admission.shed_samples > 0
                || first.report.admission.shed_requests > 0,
            "overload plan never engaged: {:?}",
            first.report.admission
        );
    }

    /// Batched delivery, zero pressure, at the collector level: the same
    /// per-tick [`SampleBatch`] stream fed to an admission-enabled
    /// collector (bounds never hit) and an admission-disabled one lands
    /// in every pair's histogram bit-for-bit identically.
    #[test]
    fn zero_pressure_batches_land_bit_identically(
        procs in 1usize..4,
        funcs in 1usize..3,
        ms_each in 0.05f64..0.5,
        ticks in 2u64..8,
    ) {
        let wl = SyntheticWorkload::balanced(procs, funcs, ms_each);
        let mut engine = wl.build_engine();
        let mut plain = Collector::new(wl.app_spec(), CollectorConfig::default());
        let mut admitted = Collector::new(
            wl.app_spec(),
            CollectorConfig {
                admission: AdmissionConfig::enabled(),
                ..CollectorConfig::default()
            },
        );
        let wp = plain.space().whole_program();
        let mut ids = Vec::new();
        for metric in [Metric::CpuTime, Metric::SyncWaitTime, Metric::MsgCount] {
            let a = request(&mut plain, metric, wp.clone());
            let b = request(&mut admitted, metric, wp.clone());
            ids.push((a, b));
        }
        for step in 1..=ticks {
            engine.run_until(SimTime::from_millis(50 * step));
            let batch = SampleBatch::drain(&mut engine);
            plain.ingest(&batch);
            admitted.ingest(&batch);
        }
        for (a, b) in ids {
            prop_assert_eq!(
                plain.pair(a).total().to_bits(),
                admitted.pair(b).total().to_bits()
            );
            prop_assert_eq!(plain.pair(a).observations, admitted.pair(b).observations);
        }
        prop_assert_eq!(admitted.admission().stats().shed_samples, 0);
    }

    /// Whole-group shedding is deterministic and rank-ordered: under a
    /// budget that cannot fit every process's group, replaying the same
    /// batches yields identical histograms and stats, and the data that
    /// does land always comes from a prefix of the process ranks.
    #[test]
    fn group_shedding_is_deterministic_and_rank_ordered(
        procs in 2usize..4,
        ms_each in 0.2f64..1.0,
        budget in 10u64..200,
    ) {
        let wl = SyntheticWorkload::balanced(procs, 1, ms_each);
        let config = CollectorConfig {
            admission: AdmissionConfig {
                enabled: true,
                sample_budget: budget,
                ..AdmissionConfig::enabled()
            },
            ..CollectorConfig::default()
        };
        let run = || {
            let mut engine = wl.build_engine();
            let mut c = Collector::new(wl.app_spec(), config.clone());
            let wp = c.space().whole_program();
            let id = request(&mut c, Metric::CpuTime, wp);
            for step in 1..=6u64 {
                engine.run_until(SimTime::from_millis(100 * step));
                let batch = SampleBatch::drain(&mut engine);
                c.admission_mut().note_phantom_samples(1_000);
                c.ingest(&batch);
            }
            let freshness: Vec<SimTime> =
                (0..procs).map(|p| c.last_data_at(histpc::sim::ProcId(p as u16))).collect();
            (
                c.pair(id).total().to_bits(),
                c.pair(id).observations,
                *c.admission().stats(),
                freshness,
            )
        };
        let first = run();
        let second = run();
        prop_assert_eq!(&first, &second);
        // Rank order: if any process received data, every lower rank
        // received data at least as fresh (groups shed highest-first).
        let freshness = &first.3;
        for w in freshness.windows(2) {
            prop_assert!(w[0] >= w[1], "freshness not rank-ordered: {freshness:?}");
        }
    }
}
