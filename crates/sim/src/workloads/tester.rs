//! The "Tester" toy program of the paper's Figure 1.
//!
//! Four processes `Tester:1`..`Tester:4` on CPUs `CPU_1`..`CPU_4`, with
//! code spread over `testutil.C`, `main.c` and `vect.c`. It exists mainly
//! to regenerate Figure 1's resource hierarchies, but it runs: each process
//! builds a vector, verifies it, and periodically synchronizes.

use crate::action::{Action, LoopScript, ProcessScript};
use crate::machine::MachineModel;
use crate::program::{AppSpec, ModuleSpec};
use crate::rng::Rng;
use crate::time::SimDuration;
use crate::workloads::Workload;

/// The Tester workload.
#[derive(Debug, Clone)]
pub struct TesterWorkload {
    /// Iteration count, or `None` for an endless run.
    pub max_iters: Option<u64>,
    /// RNG seed.
    pub seed: u64,
}

impl TesterWorkload {
    /// The default 4-process Tester.
    pub fn new() -> TesterWorkload {
        TesterWorkload {
            max_iters: None,
            seed: 0x7E57,
        }
    }
}

impl Default for TesterWorkload {
    fn default() -> Self {
        TesterWorkload::new()
    }
}

impl Workload for TesterWorkload {
    fn app_spec(&self) -> AppSpec {
        AppSpec {
            name: "Tester".into(),
            version: "1".into(),
            modules: vec![
                ModuleSpec {
                    name: "testutil.C".into(),
                    functions: vec!["printstatus".into(), "verifyA".into(), "verifyB".into()],
                },
                ModuleSpec {
                    name: "main.c".into(),
                    functions: vec!["main".into()],
                },
                ModuleSpec {
                    name: "vect.c".into(),
                    functions: vec![
                        "vect::addEl".into(),
                        "vect::findEl".into(),
                        "vect::print".into(),
                    ],
                },
            ],
            processes: (1..=4).map(|i| format!("Tester:{i}")).collect(),
            nodes: (1..=4).map(|i| format!("CPU_{i}")).collect(),
            proc_node: vec![0, 1, 2, 3],
            tags: vec![],
        }
    }

    fn machine(&self) -> MachineModel {
        MachineModel::sp2(4)
    }

    fn scripts(&self) -> Vec<Box<dyn ProcessScript>> {
        let app = self.app_spec();
        let f_main = app.func_id("main.c", "main").unwrap();
        let f_add = app.func_id("vect.c", "vect::addEl").unwrap();
        let f_find = app.func_id("vect.c", "vect::findEl").unwrap();
        let f_verify_a = app.func_id("testutil.C", "verifyA").unwrap();
        let f_verify_b = app.func_id("testutil.C", "verifyB").unwrap();
        let f_print = app.func_id("testutil.C", "printstatus").unwrap();
        let root = Rng::new(self.seed);

        (0..4)
            .map(|rank| {
                let mut rng = root.substream(rank as u64);
                let body = move |iter: u64, acts: &mut Vec<Action>| {
                    let jit = rng.jitter(0.1);
                    let ms = |f: f64| SimDuration::from_secs_f64(f * jit / 1e3);
                    acts.extend([
                        Action::Compute {
                            func: f_main,
                            dur: ms(0.2),
                        },
                        Action::Compute {
                            func: f_add,
                            dur: ms(1.0),
                        },
                        Action::Compute {
                            func: f_find,
                            dur: ms(2.5),
                        },
                        Action::Compute {
                            func: f_verify_a,
                            dur: ms(0.8),
                        },
                        Action::Compute {
                            func: f_verify_b,
                            dur: ms(0.3),
                        },
                    ]);
                    if iter % 10 == 9 {
                        acts.push(Action::Compute {
                            func: f_print,
                            dur: ms(0.1),
                        });
                        acts.push(Action::Barrier { func: f_main });
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
    fn spec_matches_figure_1() {
        let app = TesterWorkload::new().app_spec();
        assert_eq!(
            app.processes,
            vec!["Tester:1", "Tester:2", "Tester:3", "Tester:4"]
        );
        assert_eq!(app.nodes, vec!["CPU_1", "CPU_2", "CPU_3", "CPU_4"]);
        assert!(app.func_id("testutil.C", "verifyA").is_some());
        assert!(app.func_id("vect.c", "vect::print").is_some());
        assert_eq!(app.function_count(), 7);
    }

    #[test]
    fn runs_and_findel_dominates_cpu() {
        let wl = TesterWorkload::new();
        let mut e = wl.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(2)), EngineStatus::Running);
        let app = e.app().clone();
        let find = app.func_id("vect.c", "vect::findEl").unwrap();
        let find_cpu = e.totals().func_total(find, ActivityKind::Cpu);
        for other in 0..app.function_count() as u16 {
            if FuncId(other) != find {
                assert!(find_cpu >= e.totals().func_total(FuncId(other), ActivityKind::Cpu));
            }
        }
    }

    #[test]
    fn bounded_run_finishes() {
        let wl = TesterWorkload {
            max_iters: Some(20),
            seed: 1,
        };
        let mut e = wl.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(60)), EngineStatus::AllDone);
    }
}
