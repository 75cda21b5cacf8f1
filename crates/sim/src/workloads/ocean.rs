//! A PVM-era ocean-circulation model on a network of workstations.
//!
//! The paper's §4.2 mentions an earlier threshold study of "an ocean
//! circulation modeling code using PVM, running on SUN SPARCstations",
//! whose optimal synchronization threshold (20%) differed from the MPI
//! application's (12%) — the argument for application-specific historical
//! thresholds. This workload reproduces that *different* bottleneck
//! profile: a master/worker structure over a slow, high-latency network,
//! with a smaller number of larger bottlenecks.

use crate::action::{Action, LoopScript, ProcessScript};
use crate::machine::MachineModel;
use crate::program::{AppSpec, ModuleSpec, ProcId, TagId};
use crate::rng::Rng;
use crate::time::SimDuration;
use crate::workloads::Workload;

/// The ocean-circulation workload.
#[derive(Debug, Clone)]
pub struct OceanWorkload {
    /// Number of processes (master is rank 0).
    pub procs: usize,
    /// Iteration count, or `None` for an endless run.
    pub max_iters: Option<u64>,
    /// Relative work per process.
    pub work_skew: Vec<f64>,
    /// Compute jitter amplitude.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl OceanWorkload {
    /// The default 4-process configuration.
    pub fn new() -> OceanWorkload {
        OceanWorkload {
            procs: 4,
            max_iters: None,
            work_skew: vec![0.85, 1.0, 0.9, 0.8],
            jitter: 0.05,
            seed: 0x0CEA,
        }
    }
}

impl Default for OceanWorkload {
    fn default() -> Self {
        OceanWorkload::new()
    }
}

impl Workload for OceanWorkload {
    fn app_spec(&self) -> AppSpec {
        AppSpec {
            name: "ocean".into(),
            version: "pvm".into(),
            modules: vec![
                ModuleSpec {
                    name: "ocean.c".into(),
                    functions: vec!["main".into()],
                },
                ModuleSpec {
                    name: "currents.c".into(),
                    functions: vec!["compute_currents".into()],
                },
                ModuleSpec {
                    name: "mix.c".into(),
                    functions: vec!["vertical_mix".into()],
                },
                ModuleSpec {
                    name: "state.c".into(),
                    functions: vec!["write_state".into()],
                },
            ],
            processes: (1..=self.procs).map(|i| format!("ocean:{i}")).collect(),
            nodes: (1..=self.procs).map(|i| format!("spark{i:02}")).collect(),
            proc_node: (0..self.procs).collect(),
            tags: vec!["101".into(), "102".into()],
        }
    }

    fn machine(&self) -> MachineModel {
        MachineModel::now_cluster(self.procs)
    }

    fn scripts(&self) -> Vec<Box<dyn ProcessScript>> {
        let app = self.app_spec();
        let f_main = app.func_id("ocean.c", "main").unwrap();
        let f_cur = app.func_id("currents.c", "compute_currents").unwrap();
        let f_mix = app.func_id("mix.c", "vertical_mix").unwrap();
        let f_io = app.func_id("state.c", "write_state").unwrap();
        let machine = self.machine();
        let tag_ring = TagId(0); // "101"
        let tag_gather = TagId(1); // "102"
        let root = Rng::new(self.seed);
        let procs = self.procs;

        (0..procs)
            .map(|rank| {
                let wl = self.clone();
                let mut rng = root.substream(rank as u64);
                let rate = machine.flops_per_sec;
                let body = move |iter: u64, acts: &mut Vec<Action>| {
                    let jit = rng.jitter(wl.jitter);
                    // A heavier per-iteration block than Poisson: the NOW
                    // network is slow, so iterations are coarser.
                    let base = 250_000.0 * wl.work_skew[rank] * jit; // flops
                    acts.push(Action::Compute {
                        func: f_cur,
                        dur: SimDuration::from_secs_f64(base / rate),
                    });
                    // Ring exchange of boundary currents, tag 101.
                    let next = (rank + 1) % procs;
                    let prev = (rank + procs - 1) % procs;
                    if rank % 2 == 0 {
                        acts.push(Action::Send {
                            func: f_cur,
                            to: ProcId(next as u16),
                            tag: tag_ring,
                            bytes: 512,
                        });
                        acts.push(Action::Recv {
                            func: f_cur,
                            from: ProcId(prev as u16),
                            tag: tag_ring,
                        });
                    } else {
                        acts.push(Action::Recv {
                            func: f_cur,
                            from: ProcId(prev as u16),
                            tag: tag_ring,
                        });
                        acts.push(Action::Send {
                            func: f_cur,
                            to: ProcId(next as u16),
                            tag: tag_ring,
                            bytes: 512,
                        });
                    }
                    // Vertical mixing: CPU-heavy second phase.
                    acts.push(Action::Compute {
                        func: f_mix,
                        dur: SimDuration::from_secs_f64(base * 0.6 / rate),
                    });
                    // Master/worker gather of the surface state, tag 102.
                    if rank == 0 {
                        for p in 1..procs {
                            acts.push(Action::Recv {
                                func: f_main,
                                from: ProcId(p as u16),
                                tag: tag_gather,
                            });
                        }
                        // The master occasionally writes the model state.
                        if iter % 25 == 24 {
                            acts.push(Action::Io {
                                func: f_io,
                                bytes: 256 * 1024,
                            });
                        }
                    } else {
                        acts.push(Action::Send {
                            func: f_main,
                            to: ProcId(0),
                            tag: tag_gather,
                            bytes: 900,
                        });
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
    use crate::time::SimTime;
    use crate::trace::ActivityKind;

    #[test]
    fn runs_without_deadlock() {
        let wl = OceanWorkload::new();
        let mut e = wl.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(3)), EngineStatus::Running);
    }

    #[test]
    fn profile_differs_from_poisson() {
        // Ocean has a substantial CPU component (vertical_mix) and a sync
        // component concentrated in the gather, with sync fraction lower
        // than Poisson C's ~75%.
        let wl = OceanWorkload::new();
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_secs(3));
        let sync = e.totals().total(ActivityKind::SyncWait).as_secs_f64();
        let cpu = e.totals().total(ActivityKind::Cpu).as_secs_f64();
        let frac = sync / (sync + cpu);
        assert!((0.25..0.70).contains(&frac), "sync fraction was {frac:.2}");
    }

    #[test]
    fn master_accumulates_gather_waits() {
        let wl = OceanWorkload::new();
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_secs(3));
        let app = e.app().clone();
        let f_main = app.func_id("ocean.c", "main").unwrap();
        let w = e.totals().func_total(f_main, ActivityKind::SyncWait);
        assert!(w.as_secs_f64() > 0.05, "main wait was {w}");
    }

    #[test]
    fn io_appears_on_master_only() {
        let wl = OceanWorkload::new();
        let mut e = wl.build_engine();
        e.run_until(SimTime::from_secs(5));
        let io0 = e.totals().proc_total(ProcId(0), ActivityKind::IoWait);
        let io1 = e.totals().proc_total(ProcId(1), ActivityKind::IoWait);
        assert!(io0 > SimDuration::ZERO);
        assert_eq!(io1, SimDuration::ZERO);
    }
}
