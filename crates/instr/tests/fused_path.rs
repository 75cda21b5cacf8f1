//! Equivalence of the fused emission path (the engine aggregates as it
//! emits, `SampleBatch::drain` hands the aggregates over) with the raw
//! path (`drain_intervals` + `SampleBatch::new`), which stays the
//! reference: bit for bit, order included.

use histpc_instr::delta::{aggregate, sort_by_key, Delta};
use histpc_instr::faults::RequestFault;
use histpc_instr::{
    AdmissionConfig, AdmitOutcome, Collector, CollectorConfig, Metric, PairId, RequestClass,
    SampleBatch,
};
use histpc_resources::ResourceName;
use histpc_sim::workloads::{
    OceanWorkload, PoissonVersion, PoissonWorkload, SyntheticWorkload, TesterWorkload,
    WavefrontWorkload, Workload,
};
use histpc_sim::{
    Action, AppSpec, Engine, FuncId, Interval, MachineModel, ModuleSpec, ProcId, ProcessScript,
    SimDuration, SimTime, TagId, TotalsKey, TraceAccumulator, VecScript,
};
use proptest::prelude::*;

fn workload(kind: u8, seed: u64) -> Box<dyn Workload> {
    match kind % 7 {
        // Ring payloads straddle the eager threshold, so both message
        // protocols and the I/O path show up.
        0 => Box::new(
            SyntheticWorkload::balanced(3, 2, 0.3 + (seed % 7) as f64 / 10.0)
                .with_hotspot(1, 0, 0.7)
                .with_ring(64 + (seed % 5) * 2048)
                .with_io(5, 4096),
        ),
        1 => Box::new(TesterWorkload {
            seed,
            max_iters: Some(40 + seed % 200),
        }),
        2 => Box::new(PoissonWorkload::new(PoissonVersion::B).with_seed(seed)),
        3 => Box::new(PoissonWorkload::new(PoissonVersion::C).with_seed(seed)),
        // The benchmark's 8 ranks.
        4 => Box::new(PoissonWorkload::new(PoissonVersion::D).with_seed(seed)),
        // Rendezvous-heavy on the slow `now_cluster` network.
        5 => Box::new(OceanWorkload {
            seed,
            ..OceanWorkload::new()
        }),
        // The only `AllReduce` user.
        _ => Box::new(WavefrontWorkload {
            seed,
            ..WavefrontWorkload::new()
        }),
    }
}

/// One driver schedule: step lengths, a mid-run perturbation change and
/// a mid-run process death.
#[derive(Debug, Clone)]
struct Schedule {
    steps_ms: Vec<u64>,
    slow_at: usize,
    slow_factor: f64,
    kill_at: usize,
    victim: u16,
}

fn schedule() -> impl Strategy<Value = Schedule> {
    (
        prop::collection::vec(1u64..300, 2..14),
        0usize..16,
        1.0f64..2.5,
        0usize..16,
        0u16..3,
    )
        .prop_map(
            |(steps_ms, slow_at, slow_factor, kill_at, victim)| Schedule {
                steps_ms,
                slow_at,
                slow_factor,
                kill_at,
                victim,
            },
        )
}

impl Schedule {
    /// Applies step `k`'s scheduled events to `engine`, then advances it.
    fn advance(&self, k: usize, engine: &mut Engine, now: SimTime) {
        if k == self.slow_at {
            engine.set_slowdown(ProcId(self.victim), self.slow_factor);
        }
        if k == self.kill_at {
            engine.kill_proc(ProcId(self.victim));
        }
        engine.run_until(now);
    }
}

fn assert_totals_eq(got: &TraceAccumulator, want: &TraceAccumulator, app: &AppSpec) {
    assert_eq!(
        got.iter().collect::<Vec<_>>(),
        want.iter().collect::<Vec<_>>()
    );
    for p in 0..app.process_count() as u16 {
        assert_eq!(got.proc_end(ProcId(p)), want.proc_end(ProcId(p)));
        for t in 0..app.tags.len() as u16 + 2 {
            let (p, t) = (ProcId(p), TagId(t));
            assert_eq!(got.msg_count(p, t), want.msg_count(p, t));
            assert_eq!(got.msg_byte_total(p, t), want.msg_byte_total(p, t));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (i) the engine's deltas and per-process counts equal the
    /// aggregate of the same steps' raw intervals — `seconds` bitwise,
    /// first-touch order included; (ii) `totals()` after every
    /// `run_until` / `kill_proc` equals an accumulator that observed
    /// every raw interval, however rarely the engine is drained;
    /// (iii) `events_drained` counts intervals, not deltas.
    #[test]
    fn engine_deltas_equal_the_aggregate_of_raw_intervals(
        kind in 0u8..7,
        seed in 0u64..1000,
        plan in schedule(),
        drain_every in 1usize..4,
    ) {
        let wl = workload(kind, seed);
        let app = wl.app_spec();
        let mut raw = wl.build_engine();
        let mut fused = wl.build_engine();
        fused.set_raw_capture(false);
        let mut truth = TraceAccumulator::new();
        let mut pending: Vec<Interval> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut emitted = 0u64;
        let last = plan.steps_ms.len() - 1;
        for (k, ms) in plan.steps_ms.iter().enumerate() {
            now += SimDuration::from_millis(*ms);
            plan.advance(k, &mut raw, now);
            plan.advance(k, &mut fused, now);
            // The raw engine is drained every step to feed the reference.
            let step = raw.drain_intervals();
            for iv in &step {
                truth.observe(iv);
            }
            emitted += step.len() as u64;
            pending.extend(step);
            assert_totals_eq(raw.totals(), &truth, &app);
            assert_totals_eq(fused.totals(), &truth, &app);
            if k % drain_every != 0 && k != last {
                continue;
            }
            let got = fused.drain_deltas();
            let mut first_touch: Vec<TotalsKey> = Vec::new();
            let mut per_proc = vec![0u64; app.process_count()];
            for iv in &pending {
                if !first_touch.contains(&iv.key()) {
                    first_touch.push(iv.key());
                }
                per_proc[iv.proc.0 as usize] += 1;
            }
            prop_assert_eq!(got.deltas.iter().map(Delta::key).collect::<Vec<_>>(), first_touch);
            prop_assert_eq!(&got.per_proc, &per_proc);
            let mut sorted = got.deltas;
            sort_by_key(&mut sorted);
            let want = aggregate(&pending);
            prop_assert_eq!(&sorted, &want);
            for (g, w) in sorted.iter().zip(&want) {
                prop_assert_eq!(g.seconds.to_bits(), w.seconds.to_bits());
            }
            pending.clear();
        }
        prop_assert_eq!(raw.events_drained(), emitted);
        prop_assert_eq!(fused.events_drained(), emitted);
        // With capture off there is nothing raw to hand out.
        prop_assert!(fused.drain_intervals().is_empty());
    }

    /// (iv) a collector fed the engine's aggregates and one fed the raw
    /// intervals end in the same state, with admission off, on without
    /// pressure, and shedding.
    #[test]
    fn collectors_agree_on_fused_and_raw_batches(
        kind in 0u8..7,
        seed in 0u64..1000,
        plan in schedule(),
        admission in 0u8..3,
        budget in 8u64..160,
    ) {
        let wl = workload(kind, seed);
        let app = wl.app_spec();
        let config = CollectorConfig {
            admission: match admission {
                0 => AdmissionConfig::default(),
                1 => AdmissionConfig::enabled(),
                _ => AdmissionConfig {
                    sample_budget: budget,
                    breaker_threshold: 2,
                    ..AdmissionConfig::enabled()
                },
            },
            ..CollectorConfig::default()
        };
        let mut raw = wl.build_engine();
        let mut fused = wl.build_engine();
        fused.set_raw_capture(false);
        let mut c_raw = Collector::new(app.clone(), config.clone());
        let mut c_fused = Collector::new(app.clone(), config);
        let request = |c: &mut Collector| -> Vec<PairId> {
            let whole = c.space().whole_program();
            let one_proc = whole.with_selection(
                ResourceName::parse(&format!("/Process/{}", app.processes[1]))
                    .expect("process names are valid segments"),
            );
            let mut ids = Vec::new();
            for (metric, focus) in [
                (Metric::CpuTime, &whole),
                (Metric::SyncWaitTime, &whole),
                (Metric::MsgWaitTime, &one_proc),
                (Metric::BarrierWaitTime, &whole),
                (Metric::IoWaitTime, &whole),
                (Metric::MsgCount, &whole),
                (Metric::MsgBytes, &one_proc),
            ] {
                // Breakers tripped by shedding may refuse a request;
                // both collectors must then refuse the same ones.
                if let AdmitOutcome::Granted(id) = c.request_admitted(
                    metric,
                    focus.clone(),
                    SimTime::ZERO,
                    RequestFault::Deliver,
                    RequestClass::Backing,
                ) {
                    ids.push(id);
                }
            }
            ids
        };
        let ids = request(&mut c_raw);
        prop_assert_eq!(&request(&mut c_fused), &ids);
        let window = SimDuration::from_millis(500);
        let mut now = SimTime::ZERO;
        for (k, ms) in plan.steps_ms.iter().enumerate() {
            now += SimDuration::from_millis(*ms);
            plan.advance(k, &mut raw, now);
            plan.advance(k, &mut fused, now);
            let b_raw = SampleBatch::new(raw.drain_intervals(), app.process_count());
            let b_fused = SampleBatch::drain(&mut fused);
            // (iii) a batch counts intervals whichever way it was made.
            prop_assert_eq!(b_raw.len(), b_fused.len());
            prop_assert_eq!(b_raw.per_proc(), b_fused.per_proc());
            for (c, batch, engine) in [
                (&mut c_raw, &b_raw, &mut raw),
                (&mut c_fused, &b_fused, &mut fused),
            ] {
                c.admission_mut().note_phantom_samples(seed % 50);
                c.ingest(batch);
                c.step(now, window);
                c.apply_perturbation(engine);
            }
            for &id in &ids {
                prop_assert_eq!(
                    c_raw.window_fraction(id, now).to_bits(),
                    c_fused.window_fraction(id, now).to_bits()
                );
            }
        }
        for &id in &ids {
            prop_assert_eq!(c_raw.pair(id).total().to_bits(), c_fused.pair(id).total().to_bits());
            prop_assert_eq!(c_raw.pair(id).observations, c_fused.pair(id).observations);
        }
        prop_assert_eq!(c_raw.admission().stats(), c_fused.admission().stats());
        let tags = |c: &Collector| {
            c.space()
                .hierarchy("SyncObject")
                .expect("standard hierarchy")
                .all_names()
        };
        prop_assert_eq!(tags(&c_raw), tags(&c_fused));
        for p in 0..app.process_count() as u16 {
            prop_assert_eq!(c_raw.last_data_at(ProcId(p)), c_fused.last_data_at(ProcId(p)));
        }
    }
}

/// (vi) a script may use a message tag the app never declared (the
/// engine keeps such channels in `chan_spill`); with raw capture off its
/// intervals must still reach the deltas, the totals and the collector.
#[test]
fn undeclared_tags_survive_fused_emission() {
    let app = AppSpec {
        name: "t".into(),
        version: "1".into(),
        modules: vec![ModuleSpec {
            name: "m.c".into(),
            functions: vec!["f".into()],
        }],
        processes: vec!["t:0".into(), "t:1".into()],
        nodes: vec!["n0".into(), "n1".into()],
        proc_node: vec![0, 1],
        tags: vec!["0".into()],
    };
    let (f, stray) = (FuncId(0), TagId(7));
    let scripts: Vec<Vec<Action>> = vec![
        vec![
            // Long enough for the receiver's wait to outlast the pair's
            // insertion delay.
            Action::Compute {
                func: f,
                dur: SimDuration::from_millis(200),
            },
            Action::Send {
                func: f,
                to: ProcId(1),
                tag: stray,
                bytes: 64,
            },
        ],
        vec![Action::Recv {
            func: f,
            from: ProcId(0),
            tag: stray,
        }],
    ];
    let mut engine = Engine::new(
        app.clone(),
        MachineModel::sp2(2),
        scripts
            .into_iter()
            .map(|s| Box::new(VecScript::new(s)) as Box<dyn ProcessScript>)
            .collect(),
    );
    engine.set_raw_capture(false);
    engine.run_until(SimTime::from_secs(1));
    assert_eq!(engine.totals().msg_count(ProcId(1), stray), 1);
    assert_eq!(engine.totals().msg_byte_total(ProcId(0), stray), 64);

    let mut collector = Collector::new(app, CollectorConfig::default());
    let AdmitOutcome::Granted(wait) = collector.request_admitted(
        Metric::SyncWaitTime,
        collector.space().whole_program(),
        SimTime::ZERO,
        RequestFault::Deliver,
        RequestClass::Backing,
    ) else {
        panic!("a healthy request is granted");
    };
    let resources = collector.space().len();
    let batch = SampleBatch::drain(&mut engine);
    assert_eq!(batch.len(), 3);
    let strays: Vec<&Delta> = batch
        .deltas()
        .expect("a drained batch carries deltas")
        .iter()
        .filter(|d| d.tag == Some(stray))
        .collect();
    assert_eq!(strays.len(), 2, "one key per process");
    assert!(strays.iter().all(|d| d.msgs == 1 && d.bytes == 64));
    collector.ingest(&batch);
    collector.step(SimTime::from_secs(1), SimDuration::from_secs(1));
    // The stray tag has no resource to discover, but its data counts.
    assert_eq!(collector.space().len(), resources);
    assert!(collector.last_data_at(ProcId(1)) > SimTime::ZERO);
    assert!(collector.pair(wait).observations > 0);
}
