//! A configurable synthetic workload with planted bottlenecks.
//!
//! Tests of the instrumentation layer and the Performance Consultant need
//! programs whose true bottlenecks are known by construction. A
//! [`SyntheticWorkload`] plants an explicit per-process compute profile, an
//! optional communication ring, and optional I/O, so tests can assert that
//! the search finds exactly the planted problems.

use crate::action::{Action, LoopScript, ProcessScript};
use crate::machine::MachineModel;
use crate::program::{AppSpec, ModuleSpec, ProcId, TagId};
use crate::time::SimDuration;
use crate::workloads::Workload;

/// Builder for synthetic applications.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    /// Number of processes.
    pub procs: usize,
    /// Function names (all placed in module `app.c`).
    pub functions: Vec<String>,
    /// Per-process compute profile: for each process, a list of
    /// `(function index, milliseconds per iteration)`.
    pub compute: Vec<Vec<(usize, f64)>>,
    /// If nonzero, processes exchange a ring message of this many bytes
    /// each iteration (tag `ring`, attributed to function index 0).
    pub ring_bytes: u64,
    /// If set, process 0 performs `(bytes)` of I/O every `(iters)`
    /// iterations, attributed to function index 0.
    pub io: Option<(u64, u64)>,
    /// A behaviour change mid-run: from iteration `.0` on, process `.1`
    /// burns an extra `.3` ms per iteration in function `.2` — a
    /// bottleneck that exists only in the later phase of the execution.
    pub phase_change: Option<(u64, usize, usize, f64)>,
    /// Iteration count, or `None` for an endless run.
    pub max_iters: Option<u64>,
    /// Machine to run on.
    pub machine: MachineModel,
}

impl SyntheticWorkload {
    /// A balanced `procs`-process compute-only workload with functions
    /// `f0`, `f1`, ... each burning `ms_each` per iteration.
    pub fn balanced(procs: usize, funcs: usize, ms_each: f64) -> SyntheticWorkload {
        SyntheticWorkload {
            procs,
            functions: (0..funcs).map(|i| format!("f{i}")).collect(),
            compute: (0..procs)
                .map(|_| (0..funcs).map(|f| (f, ms_each)).collect())
                .collect(),
            ring_bytes: 0,
            io: None,
            phase_change: None,
            max_iters: None,
            machine: MachineModel::sp2(procs),
        }
    }

    /// Plants a CPU bottleneck: function `func` burns `ms` per iteration
    /// on process `proc` (in addition to the existing profile).
    pub fn with_hotspot(mut self, proc: usize, func: usize, ms: f64) -> Self {
        self.compute[proc].push((func, ms));
        self
    }

    /// Enables the per-iteration message ring.
    pub fn with_ring(mut self, bytes: u64) -> Self {
        self.ring_bytes = bytes;
        self
    }

    /// Enables periodic I/O on process 0.
    pub fn with_io(mut self, every_iters: u64, bytes: u64) -> Self {
        self.io = Some((every_iters, bytes));
        self
    }

    /// Plants a late-phase bottleneck: from iteration `from_iter` on,
    /// process `proc` burns an extra `ms` per iteration in `func`.
    pub fn with_phase_change(mut self, from_iter: u64, proc: usize, func: usize, ms: f64) -> Self {
        self.phase_change = Some((from_iter, proc, func, ms));
        self
    }

    /// Bounds the iteration count.
    pub fn with_max_iters(mut self, iters: u64) -> Self {
        self.max_iters = Some(iters);
        self
    }
}

impl Workload for SyntheticWorkload {
    fn app_spec(&self) -> AppSpec {
        AppSpec {
            name: "synth".into(),
            version: "1".into(),
            modules: vec![ModuleSpec {
                name: "app.c".into(),
                functions: self.functions.clone(),
            }],
            processes: (1..=self.procs).map(|i| format!("synth:{i}")).collect(),
            nodes: (1..=self.procs).map(|i| format!("n{i:02}")).collect(),
            proc_node: (0..self.procs).collect(),
            tags: vec!["ring".into()],
        }
    }

    fn machine(&self) -> MachineModel {
        self.machine.clone()
    }

    fn scripts(&self) -> Vec<Box<dyn ProcessScript>> {
        let procs = self.procs;
        (0..procs)
            .map(|rank| {
                let profile = self.compute[rank].clone();
                let ring = self.ring_bytes;
                let io = self.io;
                let phase_change = self.phase_change;
                let body = move |iter: u64, acts: &mut Vec<Action>| {
                    for &(f, ms) in &profile {
                        acts.push(Action::Compute {
                            func: crate::program::FuncId(f as u16),
                            dur: SimDuration::from_secs_f64(ms / 1e3),
                        });
                    }
                    if let Some((from, proc, func, ms)) = phase_change {
                        if rank == proc && iter >= from {
                            acts.push(Action::Compute {
                                func: crate::program::FuncId(func as u16),
                                dur: SimDuration::from_secs_f64(ms / 1e3),
                            });
                        }
                    }
                    if ring > 0 && procs > 1 {
                        let next = (rank + 1) % procs;
                        let prev = (rank + procs - 1) % procs;
                        let f0 = crate::program::FuncId(0);
                        if rank % 2 == 0 {
                            acts.push(Action::Send {
                                func: f0,
                                to: ProcId(next as u16),
                                tag: TagId(0),
                                bytes: ring,
                            });
                            acts.push(Action::Recv {
                                func: f0,
                                from: ProcId(prev as u16),
                                tag: TagId(0),
                            });
                        } else {
                            acts.push(Action::Recv {
                                func: f0,
                                from: ProcId(prev as u16),
                                tag: TagId(0),
                            });
                            acts.push(Action::Send {
                                func: f0,
                                to: ProcId(next as u16),
                                tag: TagId(0),
                                bytes: ring,
                            });
                        }
                    }
                    if let Some((every, bytes)) = io {
                        if rank == 0 && every > 0 && iter % every == every - 1 {
                            acts.push(Action::Io {
                                func: crate::program::FuncId(0),
                                bytes,
                            });
                        }
                    }
                };
                Box::new(LoopScript::new(self.max_iters, body)) as Box<dyn ProcessScript>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineStatus;
    use crate::program::FuncId;
    use crate::time::SimTime;
    use crate::trace::ActivityKind;

    #[test]
    fn hotspot_dominates_cpu_profile() {
        let wl = SyntheticWorkload::balanced(2, 3, 0.5).with_hotspot(0, 2, 5.0);
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_secs(2));
        let hot = e.totals().func_total(FuncId(2), ActivityKind::Cpu);
        let cold = e.totals().func_total(FuncId(1), ActivityKind::Cpu);
        // The hotspot runs on one of two processes, so its share is
        // diluted by the other process's fast iterations; a 2.5x margin
        // still clearly identifies it.
        assert!(
            hot.as_micros() > 5 * cold.as_micros() / 2,
            "hot={hot} cold={cold}"
        );
    }

    #[test]
    fn ring_generates_sync_wait_with_imbalance() {
        let wl = SyntheticWorkload::balanced(4, 2, 1.0)
            .with_hotspot(0, 0, 4.0) // rank 0 is slow; others wait in the ring
            .with_ring(256);
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_secs(2));
        let w1 = e.totals().proc_total(ProcId(1), ActivityKind::SyncWait);
        assert!(w1.as_secs_f64() > 0.3, "ring wait was {w1}");
    }

    #[test]
    fn io_lands_on_rank_zero() {
        let wl = SyntheticWorkload::balanced(2, 1, 1.0).with_io(5, 1_000_000);
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_secs(2));
        assert!(e.totals().proc_total(ProcId(0), ActivityKind::IoWait) > SimDuration::ZERO);
        assert_eq!(
            e.totals().proc_total(ProcId(1), ActivityKind::IoWait),
            SimDuration::ZERO
        );
    }

    #[test]
    fn bounded_run_completes() {
        let wl = SyntheticWorkload::balanced(2, 1, 0.1).with_max_iters(10);
        let mut e = wl.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(10)), EngineStatus::AllDone);
    }
}
