//! A Sweep3D-style wavefront transport kernel.
//!
//! A classic 1990s ASCI workload with a bottleneck profile unlike the
//! Poisson or ocean codes: processes form a 1-D pipeline, and each sweep
//! angle flows down the pipeline (receive upstream boundary → compute →
//! send downstream), alternating direction. Waiting concentrates at the
//! pipeline ends (fill and drain), and every iteration closes with a
//! data-carrying collective (`AllReduce`) whose waits are *barrier*
//! waits — exercising the `ExcessiveBarrierWaitingTime` hypothesis and
//! the engine's collective support.

use crate::action::{Action, LoopScript, ProcessScript};
use crate::machine::MachineModel;
use crate::program::{AppSpec, ModuleSpec, ProcId, TagId};
use crate::rng::Rng;
use crate::time::SimDuration;
use crate::workloads::Workload;

/// The wavefront workload.
#[derive(Debug, Clone)]
pub struct WavefrontWorkload {
    /// Number of pipeline stages (processes).
    pub procs: usize,
    /// Sweep angles per iteration (each angle = one pipeline pass).
    pub angles: usize,
    /// Iteration count, or `None` for an endless run.
    pub max_iters: Option<u64>,
    /// Compute jitter amplitude.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WavefrontWorkload {
    /// The default 4-stage pipeline with 6 angles.
    pub fn new() -> WavefrontWorkload {
        WavefrontWorkload {
            procs: 4,
            angles: 6,
            max_iters: None,
            jitter: 0.04,
            seed: 0x3D,
        }
    }
}

impl Default for WavefrontWorkload {
    fn default() -> Self {
        WavefrontWorkload::new()
    }
}

impl Workload for WavefrontWorkload {
    fn app_spec(&self) -> AppSpec {
        AppSpec {
            name: "sweep3d".into(),
            version: "1".into(),
            modules: vec![
                ModuleSpec {
                    name: "driver.f".into(),
                    functions: vec!["main".into()],
                },
                ModuleSpec {
                    name: "sweep.f".into(),
                    functions: vec!["sweep".into()],
                },
                ModuleSpec {
                    name: "flux.f".into(),
                    functions: vec!["flux_err".into()],
                },
                ModuleSpec {
                    name: "source.f".into(),
                    functions: vec!["source".into()],
                },
            ],
            processes: (1..=self.procs).map(|i| format!("sweep3d:{i}")).collect(),
            nodes: (1..=self.procs).map(|i| format!("node{i:02}")).collect(),
            proc_node: (0..self.procs).collect(),
            tags: vec!["fwd".into(), "bwd".into()],
        }
    }

    fn machine(&self) -> MachineModel {
        MachineModel::sp2(self.procs)
    }

    fn scripts(&self) -> Vec<Box<dyn ProcessScript>> {
        let app = self.app_spec();
        let f_main = app.func_id("driver.f", "main").unwrap();
        let f_sweep = app.func_id("sweep.f", "sweep").unwrap();
        let f_flux = app.func_id("flux.f", "flux_err").unwrap();
        let f_source = app.func_id("source.f", "source").unwrap();
        let machine = self.machine();
        let tag_fwd = TagId(0);
        let tag_bwd = TagId(1);
        let root = Rng::new(self.seed);
        let procs = self.procs;
        let angles = self.angles;

        (0..procs)
            .map(|rank| {
                let mut rng = root.substream(rank as u64);
                let rate = machine.flops_per_sec;
                let jitter = self.jitter;
                let body = move |_iter: u64, acts: &mut Vec<Action>| {
                    let jit = rng.jitter(jitter);
                    let cell_flops = 9_000.0 * jit; // one angle-block of work
                    let block = SimDuration::from_secs_f64(cell_flops / rate);

                    // Source iteration: uniform local compute.
                    acts.push(Action::Compute {
                        func: f_source,
                        dur: block.mul_f64(1.5),
                    });

                    for angle in 0..angles {
                        // Alternate sweep direction per angle.
                        let forward = angle % 2 == 0;
                        let (upstream, downstream, tag) = if forward {
                            (
                                (rank > 0).then(|| rank - 1),
                                (rank + 1 < procs).then(|| rank + 1),
                                tag_fwd,
                            )
                        } else {
                            (
                                (rank + 1 < procs).then(|| rank + 1),
                                (rank > 0).then(|| rank - 1),
                                tag_bwd,
                            )
                        };
                        if let Some(up) = upstream {
                            acts.push(Action::Recv {
                                func: f_sweep,
                                from: ProcId(up as u16),
                                tag,
                            });
                        }
                        acts.push(Action::Compute {
                            func: f_sweep,
                            dur: block,
                        });
                        if let Some(down) = downstream {
                            acts.push(Action::Send {
                                func: f_sweep,
                                to: ProcId(down as u16),
                                tag,
                                bytes: 640,
                            });
                        }
                    }

                    // Flux/error evaluation, then the global convergence
                    // reduction — a data-carrying collective.
                    acts.push(Action::Compute {
                        func: f_flux,
                        dur: block.mul_f64(0.8),
                    });
                    // A 16 KiB flux-moment reduction: the log-tree
                    // transfer makes this a substantial barrier-class
                    // wait for every process, each iteration.
                    acts.push(Action::AllReduce {
                        func: f_main,
                        bytes: 16 * 1024,
                    });
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

    fn run(secs: u64) -> crate::engine::Engine {
        let wl = WavefrontWorkload::new();
        let mut e = wl.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(secs)), EngineStatus::Running);
        e
    }

    #[test]
    fn pipeline_runs_without_deadlock() {
        let e = run(2);
        assert!(e.totals().end_time() >= SimTime::from_secs(2));
    }

    #[test]
    fn sweep_function_carries_pipeline_waits() {
        let e = run(3);
        let app = e.app().clone();
        let f_sweep = app.func_id("sweep.f", "sweep").unwrap();
        let f_source = app.func_id("source.f", "source").unwrap();
        let w_sweep = e.totals().func_total(f_sweep, ActivityKind::SyncWait);
        let w_source = e.totals().func_total(f_source, ActivityKind::SyncWait);
        assert!(w_sweep.as_secs_f64() > 0.2, "sweep wait was {w_sweep}");
        assert_eq!(w_source, crate::time::SimDuration::ZERO);
    }

    #[test]
    fn allreduce_waits_are_tagless_barrier_waits_in_main() {
        let e = run(3);
        let app = e.app().clone();
        let f_main = app.func_id("driver.f", "main").unwrap();
        // All of main's sync waits come from the collective: no tag.
        let total: f64 = e
            .totals()
            .iter()
            .filter(|(k, _)| k.func == f_main && k.kind == ActivityKind::SyncWait)
            .map(|(k, d)| {
                assert!(k.tag.is_none(), "collective wait carried a tag");
                d.as_secs_f64()
            })
            .sum();
        assert!(total > 0.05, "main barrier wait was {total}");
    }

    #[test]
    fn pipeline_ends_wait_more_than_middle() {
        let e = run(4);
        let w = |p: u16| {
            e.totals()
                .proc_total(ProcId(p), ActivityKind::SyncWait)
                .as_secs_f64()
        };
        // Alternating sweep directions make both pipeline ends wait for
        // the fill; middle ranks receive earlier on average.
        let ends = w(0).min(w(3));
        let middle = w(1).max(w(2));
        assert!(
            ends > middle * 0.8,
            "ends {:.3}/{:.3} vs middle {:.3}/{:.3}",
            w(0),
            w(3),
            w(1),
            w(2)
        );
    }

    #[test]
    fn bounded_run_completes() {
        let wl = WavefrontWorkload {
            max_iters: Some(20),
            ..WavefrontWorkload::new()
        };
        let mut e = wl.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(600)), EngineStatus::AllDone);
    }

    #[test]
    fn deterministic() {
        let wl = WavefrontWorkload::new();
        let mut a = wl.build_engine();
        let mut b = wl.build_engine();
        a.run_until(SimTime::from_secs(2));
        b.run_until(SimTime::from_secs(2));
        let ta: Vec<_> = a.totals().iter().collect();
        let tb: Vec<_> = b.totals().iter().collect();
        assert_eq!(ta, tb);
    }
}
