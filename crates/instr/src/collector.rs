//! The collector: online management of metric-focus pairs over a running
//! engine.
//!
//! The collector is the boundary between the Performance Consultant and
//! the application: the PC requests and releases (metric, focus) pairs;
//! the driver feeds each tick's engine output into [`Collector::ingest`];
//! the cost model's slowdown factors are pushed back into the engine so
//! instrumentation perturbation is physically real in the simulation.

use crate::admission::{AdmissionConfig, AdmissionController, AdmitVerdict, RequestClass};
use crate::batch::SampleBatch;
use crate::binder::{Binder, CompiledFocus};
use crate::cost::{CostConfig, CostModel};
use crate::delta::{sort_by_key, Delta, DeltaTable};
use crate::histogram::TimeHistogram;
use crate::metric::Metric;
use crate::pair::Pair;
use histpc_faults::RequestFault;
use histpc_resources::{Focus, FocusId, Interner, ResourceName, ResourceSpace};
use histpc_sim::{AppSpec, Engine, Interval, ProcId, SimDuration, SimTime};

/// Handle to a requested metric-focus pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId(pub u32);

/// Collector tuning knobs.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Time between an instrumentation request and the instrumentation
    /// actually being in place (paper §4.1).
    pub insertion_delay: SimDuration,
    /// Histogram bucket count per pair.
    pub hist_buckets: usize,
    /// Initial histogram bucket width.
    pub hist_width: SimDuration,
    /// Cost model parameters.
    pub cost: CostConfig,
    /// Overload admission control (disabled by default).
    pub admission: AdmissionConfig,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            insertion_delay: SimDuration::from_millis(80),
            hist_buckets: 480,
            hist_width: SimDuration::from_millis(200),
            cost: CostConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// What became of one admission-controlled instrumentation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The pair was inserted.
    Granted(PairId),
    /// An injected daemon failure rejected the insertion; retry later.
    Failed,
    /// The admission controller had no capacity; retry later.
    Shed,
    /// Every process the focus covers is behind an open circuit breaker;
    /// the experiment concludes `Saturated`.
    Saturated,
}

/// Manages instrumentation over one application run.
pub struct Collector {
    binder: Binder,
    space: ResourceSpace,
    config: CollectorConfig,
    cost: CostModel,
    pairs: Vec<Pair>,
    /// Cost currently charged per pair (full while fresh, reduced once
    /// settled, zero after release).
    charged: Vec<f64>,
    /// Tags already added to the SyncObject hierarchy.
    discovered_tags: Vec<bool>,
    /// Total number of pairs ever requested (the paper's "hypothesis/
    /// focus pairs tested" instrumentation measure).
    requested_total: usize,
    /// End timestamp of the newest interval seen from each process, at
    /// the raw stream level (before any metric filtering). A process
    /// whose stream goes quiet here has stopped reporting entirely —
    /// the signal the starvation timeout keys on.
    last_data_at: Vec<SimTime>,
    /// Overload admission control (every call is a no-op when disabled).
    admission: AdmissionController,
    /// Resources whose breaker opened (see [`Collector::saturated`]).
    saturated: Vec<ResourceName>,
    /// Backpressure hysteresis (see [`Collector::throttled`]).
    throttled: bool,
    /// Interned foci; ids index [`Collector::compiled_foci`].
    interner: Interner,
    /// Compiled form of every interned focus. Compilation walks the
    /// app's name tables, so the request path goes through
    /// [`Collector::compile_focus`] and pays it once per distinct focus.
    compiled_foci: Vec<CompiledFocus>,
    /// Sample-delivery routes: for each process, the indices of pairs
    /// whose compiled focus covers it. Entries for deleted pairs are
    /// pruned lazily as batches pass their deletion time.
    route: Vec<Vec<u32>>,
    /// Aggregates raw interval batches (the engine's own aggregates
    /// arrive ready-made).
    table: DeltaTable,
}

impl Collector {
    /// Creates a collector for an application.
    pub fn new(app: AppSpec, config: CollectorConfig) -> Collector {
        let binder = Binder::new(app.clone());
        let space = binder.build_space();
        let cost = CostModel::new(config.cost.clone(), app.process_count());
        let tag_count = app.tags.len();
        let proc_count = app.process_count();
        let admission = AdmissionController::new(config.admission.clone(), proc_count);
        let func_count = app.function_count();
        Collector {
            binder,
            space,
            config,
            cost,
            pairs: Vec::new(),
            charged: Vec::new(),
            discovered_tags: vec![false; tag_count],
            requested_total: 0,
            last_data_at: vec![SimTime::ZERO; proc_count],
            admission,
            saturated: Vec::new(),
            throttled: false,
            interner: Interner::new(),
            compiled_foci: Vec::new(),
            route: vec![Vec::new(); proc_count],
            table: DeltaTable::new(proc_count, func_count, tag_count),
        }
    }

    /// Interns `focus`, compiling it against the app on first sight.
    /// Repeats are a hash lookup, so the request path pays compilation
    /// once per distinct focus.
    fn compile_focus(&mut self, focus: &Focus) -> FocusId {
        if let Some(id) = self.interner.lookup_focus(focus) {
            return id;
        }
        let id = self.interner.intern_focus(focus);
        debug_assert_eq!(id.0 as usize, self.compiled_foci.len());
        self.compiled_foci.push(self.binder.compile(focus));
        id
    }

    /// The resource space (grows as resources are discovered).
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// The binder (name tables).
    pub fn binder(&self) -> &Binder {
        &self.binder
    }

    /// The configuration.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// The cost model (throttle signal).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of pairs ever requested.
    pub fn pairs_requested(&self) -> usize {
        self.requested_total
    }

    /// Requests instrumentation of (metric, focus) at time `now`; a
    /// granted pair starts observing at `now + insertion_delay`. The
    /// injected daemon `fault` comes first: a `Fail` insertion is
    /// rejected outright (no pair, no cost — the caller retries), a
    /// `Defer` activates late by the extra delay, and `Deliver` is the
    /// healthy path. The request is then classified for priority
    /// shedding, checked against the in-flight bound and the focus's
    /// circuit breakers, and its activation latency feeds per-process
    /// health tracking. With admission disabled every request that
    /// survives its fault is granted.
    pub fn request_admitted(
        &mut self,
        metric: Metric,
        focus: Focus,
        now: SimTime,
        fault: RequestFault,
        class: RequestClass,
    ) -> AdmitOutcome {
        let fid = self.compile_focus(&focus);
        let compiled = self.compiled_foci[fid.0 as usize].clone();
        let extra = match fault {
            RequestFault::Deliver => SimDuration::ZERO,
            RequestFault::Fail => {
                self.admission.note_failed(compiled.procs(), now);
                return AdmitOutcome::Failed;
            }
            RequestFault::Defer(d) => d,
        };
        match self.admission.admit(compiled.procs(), class, now) {
            AdmitVerdict::Grant => {}
            AdmitVerdict::Shed => return AdmitOutcome::Shed,
            AdmitVerdict::Saturated => return AdmitOutcome::Saturated,
        }
        let cost = self.cost.pair_cost(&compiled);
        self.cost.add(&compiled, cost);
        let hist = TimeHistogram::new(self.config.hist_buckets, self.config.hist_width);
        let active_from = now + self.config.insertion_delay + extra;
        let idx = self.pairs.len() as u32;
        for &p in compiled.procs() {
            self.route[p.0 as usize].push(idx);
        }
        let procs = compiled.procs().to_vec();
        let pair = Pair::new(metric, focus, fid, compiled, now, active_from, hist);
        self.pairs.push(pair);
        self.charged.push(cost);
        self.requested_total += 1;
        self.admission.note_granted(&procs, active_from, now);
        AdmitOutcome::Granted(PairId(idx))
    }

    /// The admission controller (stats, pressure signals, breakers).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Mutable access to the admission controller, for the driver's
    /// injected phantom load.
    pub fn admission_mut(&mut self) -> &mut AdmissionController {
        &mut self.admission
    }

    /// The collector's part of a driver tick at `now`, run before the
    /// search reads it: admission housekeeping (activated in-flight
    /// entries expire, cooled breakers half-open), the names of newly
    /// saturated processes — and of their machine once every process it
    /// hosts is blocked — and the backpressure hysteresis. With
    /// admission disabled all of it is a no-op.
    pub fn step(&mut self, now: SimTime) {
        self.admission.tick(now);
        for p in self.admission.drain_newly_saturated() {
            let app = self.binder.app();
            let mut names = vec![Binder::process_name(&app.processes[p])];
            let node = app.node_of(ProcId(p as u16));
            let blocked = self.admission.blocked_procs();
            if (0..app.process_count())
                .filter(|&q| app.node_of(ProcId(q as u16)) == node)
                .all(|q| blocked.contains(&ProcId(q as u16)))
            {
                names.push(Binder::machine_name(&app.nodes[node]));
            }
            for r in names {
                if !self.saturated.contains(&r) {
                    self.saturated.push(r);
                }
            }
        }
        // Mirrors the cost model's halt/resume split: throttle on
        // pressure, release only once the pressure has drained.
        if self.throttled {
            self.throttled = !self.admission.drained();
        } else {
            self.throttled = self.admission.under_pressure();
        }
    }

    /// Resources whose admission breaker opened, in the order they
    /// saturated: each process, and its machine once every process the
    /// machine hosts was blocked at once.
    pub fn saturated(&self) -> &[ResourceName] {
        &self.saturated
    }

    /// Backpressure: true while the admission controller has reported
    /// pressure that has not yet drained. The search then trickles its
    /// refinement probes.
    pub fn throttled(&self) -> bool {
        self.throttled
    }

    /// End timestamp of the newest raw interval seen from `proc`.
    pub fn last_data_at(&self, proc: ProcId) -> SimTime {
        self.last_data_at[proc.0 as usize]
    }

    /// Deletes a pair's instrumentation at time `now`. Its collected data
    /// remains queryable. Releasing twice is a no-op.
    pub fn release(&mut self, id: PairId, now: SimTime) {
        let i = id.0 as usize;
        let pair = &mut self.pairs[i];
        if pair.is_live() {
            pair.disabled_at = Some(now);
            let fid = pair.focus_id;
            self.cost
                .sub(&self.compiled_foci[fid.0 as usize], self.charged[i]);
            self.charged[i] = 0.0;
        }
    }

    /// Marks a long-lived pair as *settled*: its instrumentation stays in
    /// place but its sampling rate (and therefore cost) drops to the
    /// configured residual fraction. Idempotent; no-op after release.
    pub fn settle(&mut self, id: PairId) {
        let i = id.0 as usize;
        if !self.pairs[i].is_live() {
            return;
        }
        let fid = self.pairs[i].focus_id;
        let compiled = &self.compiled_foci[fid.0 as usize];
        let settled = self.cost.pair_cost(compiled) * self.cost.config().settle_factor;
        if self.charged[i] > settled {
            self.cost.sub(compiled, self.charged[i] - settled);
            self.charged[i] = settled;
        }
    }

    /// Feeds one engine interval to every pair and discovers new
    /// SyncObject resources.
    pub fn observe(&mut self, iv: &Interval) {
        self.note_data(iv.proc, iv.end, iv.tag);
        for pair in &mut self.pairs {
            pair.observe(iv, &self.binder);
        }
    }

    /// Feeds a batch of intervals one by one (exact but slow; prefer
    /// [`Collector::ingest`] for driver loops).
    pub fn observe_all(&mut self, ivs: &[Interval]) {
        for iv in ivs {
            self.observe(iv);
        }
    }

    /// Feeds a batch of raw intervals via per-key aggregation: tag
    /// discovery stays exact, metric values are spread uniformly over
    /// each key's span within the batch (see [`crate::delta`]).
    fn observe_batch(&mut self, ivs: &[Interval]) {
        ivs.iter().for_each(|iv| self.table.fold(iv));
        let step = self.table.drain();
        self.ingest_deltas(&step.deltas, &step.per_proc);
    }

    /// Feeds one driver tick's [`SampleBatch`] — the canonical
    /// sim-to-collector handoff. A raw batch is aggregated here, through
    /// the same table the engine uses; from there on both kinds are the
    /// same per-key deltas.
    ///
    /// With admission enabled the batch first passes the per-batch
    /// sample budget, which works on the batch's per-process groups:
    /// under pressure, whole groups are shed in descending rank order and
    /// never observed — shed data also does not count as stream
    /// freshness, so a fully starved process eventually trips the
    /// existing starvation timeout.
    pub fn ingest(&mut self, batch: &SampleBatch) {
        match batch.deltas() {
            Some(deltas) => self.ingest_deltas(deltas, batch.per_proc()),
            None => self.observe_batch(batch.intervals()),
        }
    }

    /// One tick's deltas, in first-touch order, standing for `per_proc`
    /// intervals of each process: through the admission budget, then
    /// freshness and tag discovery, then on to the routed pairs.
    fn ingest_deltas(&mut self, deltas: &[Delta], per_proc: &[u64]) {
        let now = deltas.iter().map(|d| d.end).max().unwrap_or(SimTime::ZERO);
        let keep = self.admission.sample_quota(per_proc.iter().sum());
        // Processes of rank `cut` and above are shed.
        let cut = self.shed_groups(per_proc, keep.unwrap_or(u64::MAX), now);
        let mut deltas: Vec<Delta> = deltas
            .iter()
            .filter(|d| (d.proc.0 as usize) < cut)
            .copied()
            .collect();
        // First-touch order is the order tags first showed up in the
        // interval stream, so the resource space grows exactly as it
        // would fed interval by interval.
        for d in &deltas {
            self.note_data(d.proc, d.end, d.tag);
        }
        let Some(batch_start) = deltas.iter().map(|d| d.start).min() else {
            return;
        };
        sort_by_key(&mut deltas);
        // Deltas sort leading with proc, so consecutive runs partition
        // the slice per process; each run is delivered only to the pairs
        // routed to that process. Per pair this replays the deltas in
        // exactly the every-pair-scans-everything order, because the run
        // order *is* the sorted order.
        let pairs = &mut self.pairs;
        let binder = &self.binder;
        let route = &self.route;
        let mut i = 0;
        while i < deltas.len() {
            let proc = deltas[i].proc;
            let mut j = i + 1;
            while j < deltas.len() && deltas[j].proc == proc {
                j += 1;
            }
            let group = &deltas[i..j];
            for &pi in &route[proc.0 as usize] {
                let pair = &mut pairs[pi as usize];
                // Pairs deleted before this batch can never observe it.
                // (Not pruned from the route: a wait that started before
                // the deletion may still complete — and arrive — later.)
                if pair.disabled_at.is_some_and(|d| d <= batch_start) {
                    continue;
                }
                for d in group {
                    pair.observe_delta(d, binder);
                }
            }
            i = j;
        }
    }

    /// Decides what a batch loses to its `keep` sample quota, in whole
    /// per-process groups: allowance is granted in ascending rank order,
    /// and the first group that does not fit — plus every higher rank —
    /// is shed entirely. Returns that first shed rank (the group count if
    /// everything fits). Per-process health is recorded as it goes: a
    /// clean delivery resets the sample-path breaker streak, a shed group
    /// is a strike.
    fn shed_groups(&mut self, per_proc: &[u64], keep: u64, now: SimTime) -> usize {
        let mut left = keep;
        let mut cut = per_proc.len();
        for (p, &count) in per_proc.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if cut == per_proc.len() && count <= left {
                left -= count;
                self.admission.note_batch_ok(ProcId(p as u16));
            } else {
                cut = cut.min(p);
                self.admission.note_batch_shed(ProcId(p as u16), now);
            }
        }
        cut
    }

    /// Records that `proc` delivered data ending at `end`, and adds a
    /// first-seen message `tag` to the SyncObject hierarchy. Freshness is
    /// tracked on the raw stream, before metric filtering, so a process
    /// emitting *any* intervals counts as alive even for pairs whose
    /// metric it never feeds (a zero-IO process genuinely measures zero
    /// IO, it is not starved).
    fn note_data(&mut self, proc: ProcId, end: SimTime, tag: Option<histpc_sim::TagId>) {
        let i = proc.0 as usize;
        self.last_data_at[i] = self.last_data_at[i].max(end);
        let Some(tag) = tag else { return };
        let idx = tag.0 as usize;
        if idx < self.discovered_tags.len() && !self.discovered_tags[idx] {
            self.discovered_tags[idx] = true;
            let name = self.binder.tag_name(tag);
            self.space
                .add_resource(&name)
                .expect("tag labels are valid resource segments");
        }
    }

    /// Pushes the current perturbation slowdowns into the engine.
    pub fn apply_perturbation(&self, engine: &mut Engine) {
        for (p, s) in self.cost.slowdowns().into_iter().enumerate() {
            engine.set_slowdown(histpc_sim::ProcId(p as u16), s);
        }
    }

    /// The pair's accumulated metric value over `[from, to)`.
    pub fn value(&self, id: PairId, from: SimTime, to: SimTime) -> f64 {
        self.pairs[id.0 as usize].value(from, to)
    }

    /// Read access to a pair.
    pub fn pair(&self, id: PairId) -> &Pair {
        &self.pairs[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_resources::ResourceName;
    use histpc_sim::workloads::{PoissonVersion, PoissonWorkload, SyntheticWorkload, Workload};
    use histpc_sim::ProcId;

    /// A healthy CPU-time request at t = 0, which must be granted.
    fn request_cpu(c: &mut Collector, focus: Focus) -> PairId {
        let fate = RequestFault::Deliver;
        match c.request_admitted(
            Metric::CpuTime,
            focus,
            SimTime::ZERO,
            fate,
            RequestClass::Backing,
        ) {
            AdmitOutcome::Granted(id) => id,
            refused => panic!("a healthy request was refused: {refused:?}"),
        }
    }

    fn drive(engine: &mut Engine, collector: &mut Collector, until_ms: u64, step_ms: u64) {
        let mut t = 0;
        while t < until_ms {
            t += step_ms;
            engine.run_until(SimTime::from_millis(t));
            let ivs = engine.drain_intervals();
            collector.observe_all(&ivs);
            collector.apply_perturbation(engine);
        }
    }

    #[test]
    fn whole_program_cpu_matches_ground_truth() {
        let wl = SyntheticWorkload::balanced(2, 2, 1.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let focus = c.space().whole_program();
        let id = request_cpu(&mut c, focus);
        drive(&mut engine, &mut c, 1000, 50);
        let measured = c.value(id, SimTime::ZERO, SimTime::from_secs(1));
        let truth = engine
            .totals()
            .total(histpc_sim::ActivityKind::Cpu)
            .as_secs_f64();
        // The pair missed the insertion delay at the start; allow for it.
        assert!(
            measured > 0.5 * truth && measured <= truth * 1.001,
            "measured {measured} truth {truth}"
        );
    }

    #[test]
    fn insertion_delay_hides_early_data() {
        let wl = SyntheticWorkload::balanced(1, 1, 1.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let wp = c.space().whole_program();
        let id = request_cpu(&mut c, wp);
        drive(&mut engine, &mut c, 200, 10);
        // Active from 80ms: at most ~120ms of CPU observable.
        let v = c.value(id, SimTime::ZERO, SimTime::from_secs(1));
        assert!(v <= 0.125, "observed {v}");
        assert!(v >= 0.08, "observed {v}");
    }

    #[test]
    fn release_stops_collection_but_keeps_data() {
        let wl = SyntheticWorkload::balanced(1, 1, 1.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let wp = c.space().whole_program();
        let id = request_cpu(&mut c, wp);
        drive(&mut engine, &mut c, 500, 50);
        c.release(id, SimTime::from_millis(500));
        let at_release = c.value(id, SimTime::ZERO, SimTime::from_secs(5));
        drive(&mut engine, &mut c, 1000, 50);
        let after = c.value(id, SimTime::ZERO, SimTime::from_secs(5));
        assert!((after - at_release).abs() < 1e-9);
        assert!(!c.pair(id).is_live());
        assert_eq!(c.pairs_requested(), 1);
        // Double release is harmless.
        c.release(id, SimTime::from_millis(900));
    }

    #[test]
    fn cost_feeds_back_as_slowdown() {
        // The same fixed-iteration workload takes measurably longer under
        // active instrumentation: perturbation is physically real.
        let wl = SyntheticWorkload::balanced(2, 1, 1.0).with_max_iters(500);
        let mut clean = wl.build_engine();
        clean.run_until(SimTime::from_secs(3600));
        let t_clean = clean.proc_clock(ProcId(0));

        let mut perturbed = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        for _ in 0..4 {
            let wp = c.space().whole_program();
            request_cpu(&mut c, wp);
        }
        c.apply_perturbation(&mut perturbed);
        perturbed.run_until(SimTime::from_secs(3600));
        let t_pert = perturbed.proc_clock(ProcId(0));

        // 4 whole-program pairs, each at the configured base cost.
        let expect = 1.0 + 4.0 * CollectorConfig::default().cost.base_pair_cost;
        let ratio = t_pert.as_micros() as f64 / t_clean.as_micros() as f64;
        assert!(
            (ratio - expect).abs() < 0.005,
            "slowdown ratio was {ratio}, expected ~{expect} ({t_clean} -> {t_pert})"
        );
    }

    #[test]
    fn tags_are_discovered_dynamically() {
        let wl = PoissonWorkload::new(PoissonVersion::C);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let tag_res = ResourceName::parse("/SyncObject/Message/3_0")
            .expect("literal tag resource name is valid");
        assert!(!c.space().contains(&tag_res));
        drive(&mut engine, &mut c, 200, 20);
        assert!(c.space().contains(&tag_res));
        assert!(c.space().contains(
            &ResourceName::parse("/SyncObject/Message/3_-1")
                .expect("literal tag resource name is valid")
        ));
    }

    #[test]
    fn batches_discover_tags_in_stream_order() {
        // Version C's three tags, met by rank 1 before rank 0 and in
        // descending tag order: neither sorted by key nor by tag id.
        let wl = PoissonWorkload::new(PoissonVersion::C);
        let ivs: Vec<Interval> = [(1, 2), (0, 2), (1, 0), (0, 1)]
            .into_iter()
            .enumerate()
            .map(|(n, (proc, tag))| Interval {
                proc: ProcId(proc),
                func: histpc_sim::FuncId(0),
                kind: histpc_sim::ActivityKind::SyncWait,
                tag: Some(histpc_sim::TagId(tag)),
                start: SimTime::from_millis(n as u64),
                end: SimTime::from_millis(n as u64 + 1),
                bytes: 8,
            })
            .collect();
        let tags = |c: &Collector| {
            c.space()
                .hierarchy("SyncObject")
                .expect("standard hierarchy")
                .all_names()
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
        };
        let mut one_by_one = Collector::new(wl.app_spec(), CollectorConfig::default());
        one_by_one.observe_all(&ivs);
        let mut batched = Collector::new(wl.app_spec(), CollectorConfig::default());
        batched.observe_batch(&ivs);
        assert_eq!(tags(&batched), tags(&one_by_one));
        assert_eq!(
            tags(&batched)[2..],
            [
                "/SyncObject/Message/3_-1",
                "/SyncObject/Message/3_0",
                "/SyncObject/Message/3_1"
            ]
        );
    }

    #[test]
    fn faulted_requests_fail_defer_and_count() {
        let wl = SyntheticWorkload::balanced(1, 1, 1.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let wp = c.space().whole_program();
        let request = |c: &mut Collector, fate| {
            c.request_admitted(
                Metric::CpuTime,
                wp.clone(),
                SimTime::ZERO,
                fate,
                RequestClass::Backing,
            )
        };
        assert_eq!(request(&mut c, RequestFault::Fail), AdmitOutcome::Failed);
        assert_eq!(c.pairs_requested(), 0, "a failed request never counts");
        // Deferred: active only from insertion_delay + 200ms extra.
        let defer = RequestFault::Defer(SimDuration::from_millis(200));
        let AdmitOutcome::Granted(id) = request(&mut c, defer) else {
            panic!("a deferred request still yields a pair");
        };
        assert_eq!(c.pair(id).active_from, SimTime::from_millis(280));
        drive(&mut engine, &mut c, 500, 10);
        let v = c.value(id, SimTime::ZERO, SimTime::from_secs(1));
        // 500ms of CPU, observable only after 280ms.
        assert!(v <= 0.225, "observed {v}");
        assert!(v >= 0.15, "observed {v}");
    }

    #[test]
    fn last_data_at_tracks_raw_stream_per_process() {
        let wl = SyntheticWorkload::balanced(2, 1, 1.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        assert_eq!(c.last_data_at(ProcId(0)), SimTime::ZERO);
        engine.run_until(SimTime::from_millis(100));
        c.observe_batch(&engine.drain_intervals());
        let t0 = c.last_data_at(ProcId(0));
        let t1 = c.last_data_at(ProcId(1));
        assert!(t0 > SimTime::ZERO && t1 > SimTime::ZERO);
        // Data flows even with zero pairs requested: the freshness signal
        // is stream-level, not pair-level.
        assert_eq!(c.pairs_requested(), 0);
        engine.run_until(SimTime::from_millis(200));
        c.observe_batch(&engine.drain_intervals());
        assert!(c.last_data_at(ProcId(0)) > t0);
    }

    #[test]
    fn observations_count_matching_samples() {
        let wl = SyntheticWorkload::balanced(1, 1, 1.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let wp = c.space().whole_program();
        let id = request_cpu(&mut c, wp);
        assert_eq!(c.pair(id).observations, 0);
        drive(&mut engine, &mut c, 500, 50);
        assert!(c.pair(id).observations > 0);
    }

    #[test]
    fn proc_constrained_pair_sees_only_its_process() {
        let wl = SyntheticWorkload::balanced(2, 1, 1.0).with_hotspot(0, 0, 3.0);
        let mut engine = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), CollectorConfig::default());
        let f1 = c.space().whole_program().with_selection(
            ResourceName::parse("/Process/synth:1").expect("literal process name is valid"),
        );
        let f2 = c.space().whole_program().with_selection(
            ResourceName::parse("/Process/synth:2").expect("literal process name is valid"),
        );
        let id1 = request_cpu(&mut c, f1);
        let id2 = request_cpu(&mut c, f2);
        drive(&mut engine, &mut c, 1000, 50);
        let v1 = c.value(id1, SimTime::ZERO, SimTime::from_secs(1));
        let v2 = c.value(id2, SimTime::ZERO, SimTime::from_secs(1));
        // Both run flat out (compute only), so CPU time is similar, but
        // they are distinct measurements; with the hotspot on proc 0 both
        // should be near 100% of wall.
        assert!(v1 > 0.8 && v2 > 0.8, "v1={v1} v2={v2}");
        assert_eq!(c.pair(id1).compiled.procs(), [ProcId(0)]);
    }

    fn tight_admission() -> CollectorConfig {
        CollectorConfig {
            admission: crate::admission::AdmissionConfig {
                enabled: true,
                max_in_flight: 2,
                sample_budget: 6,
                deadline: SimDuration::from_millis(500),
                breaker_threshold: 2,
                breaker_cooldown: SimDuration::from_secs(1),
            },
            ..CollectorConfig::default()
        }
    }

    #[test]
    fn admission_bound_sheds_requests_through_the_collector() {
        let wl = SyntheticWorkload::balanced(2, 1, 1.0);
        let _ = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), tight_admission());
        let wp = c.space().whole_program();
        // Pool of 2, reserve 1: only one refinement slot.
        let first = c.request_admitted(
            Metric::CpuTime,
            wp.clone(),
            SimTime::ZERO,
            RequestFault::Deliver,
            RequestClass::Refinement,
        );
        assert!(matches!(first, AdmitOutcome::Granted(_)));
        let second = c.request_admitted(
            Metric::CpuTime,
            wp.clone(),
            SimTime::ZERO,
            RequestFault::Deliver,
            RequestClass::Refinement,
        );
        assert_eq!(second, AdmitOutcome::Shed);
        // The backing class still gets the reserved slot.
        let third = c.request_admitted(
            Metric::CpuTime,
            wp.clone(),
            SimTime::ZERO,
            RequestFault::Deliver,
            RequestClass::Backing,
        );
        assert!(matches!(third, AdmitOutcome::Granted(_)));
        assert_eq!(c.admission().stats().peak_in_flight, 2);
        // A shed request inserted no pair and charged no cost.
        assert_eq!(c.pairs_requested(), 2);
        // After the insertion delay both requests have activated and
        // capacity returns.
        let later = c.request_admitted(
            Metric::CpuTime,
            wp,
            SimTime::from_millis(100),
            RequestFault::Deliver,
            RequestClass::Refinement,
        );
        assert!(matches!(later, AdmitOutcome::Granted(_)));
    }

    #[test]
    fn repeated_failures_saturate_a_single_proc_focus() {
        let wl = SyntheticWorkload::balanced(2, 1, 1.0);
        let _ = wl.build_engine();
        let mut c = Collector::new(wl.app_spec(), tight_admission());
        let f1 = c.space().whole_program().with_selection(
            ResourceName::parse("/Process/synth:1").expect("literal process name is valid"),
        );
        for ms in [0, 100] {
            assert_eq!(
                c.request_admitted(
                    Metric::CpuTime,
                    f1.clone(),
                    SimTime::from_millis(ms),
                    RequestFault::Fail,
                    RequestClass::Refinement,
                ),
                AdmitOutcome::Failed
            );
        }
        // Two consecutive failures tripped proc 0's breaker.
        assert_eq!(
            c.request_admitted(
                Metric::CpuTime,
                f1,
                SimTime::from_millis(200),
                RequestFault::Deliver,
                RequestClass::Refinement,
            ),
            AdmitOutcome::Saturated
        );
        // The whole program still has a healthy process: not saturated.
        let wp = c.space().whole_program();
        assert!(matches!(
            c.request_admitted(
                Metric::CpuTime,
                wp,
                SimTime::from_millis(200),
                RequestFault::Deliver,
                RequestClass::Refinement,
            ),
            AdmitOutcome::Granted(_)
        ));
        assert_eq!(c.admission_mut().drain_newly_saturated(), vec![0]);
    }

    #[test]
    fn sample_budget_starves_highest_ranks_first() {
        let wl = SyntheticWorkload::balanced(2, 1, 1.0);
        let mut engine = wl.build_engine();
        // Budget sized so one process's per-tick group fits but both
        // don't: shedding is whole-group, so the budget must cover the
        // lowest rank's group for it to keep flowing.
        let mut cfg = tight_admission();
        cfg.admission.sample_budget = 150;
        let mut c = Collector::new(wl.app_spec(), cfg);
        // Flood far above the budget: real data competes for the budget
        // lowest-rank-first, so proc 0 keeps flowing while proc 1 (the
        // highest rank) is shed.
        for step in 1..=5u64 {
            engine.run_until(SimTime::from_millis(100 * step));
            let ivs = engine.drain_intervals();
            c.admission_mut().note_phantom_samples(1000);
            c.observe_batch(&ivs);
        }
        assert!(c.last_data_at(ProcId(0)) > SimTime::ZERO);
        assert!(c.admission().stats().shed_samples > 0);
        assert!(
            c.last_data_at(ProcId(1)) <= c.last_data_at(ProcId(0)),
            "shedding must concentrate on the highest rank"
        );
    }
}
