//! The iterative Poisson function decomposition application (Gropp et al.,
//! *Using MPI*, ch. 4), in the four versions studied in the paper's §4.3:
//!
//! * **A** — 1-D decomposition, blocking send/receive (`exchng1`);
//! * **B** — 1-D decomposition, non-blocking operators (`nbexchng1`);
//! * **C** — 2-D decomposition (`exchng2`);
//! * **D** — the same code as C run across 8 nodes (others use 4).
//!
//! Per the paper, all versions compute a fixed number of iterations rather
//! than stopping at convergence. Each iteration sweeps a Jacobi stencil
//! over the local block, exchanges ghost cells with the decomposition
//! neighbours (tags `3_0` for the first dimension and `3_1` for the
//! second), and performs a residual reduction rooted at rank 0 (tag
//! `3_-1`, attributed to `main`). Per-process work skew plus the reduction
//! make the application strongly synchronization-dominated, matching the
//! profile reported in §4.2 (roughly 75% of execution time spent waiting,
//! concentrated in the exchange function and `main`).
//!
//! The module and function names per version match the paper's fig. 3
//! (`oned.f`/`exchng1.f`/`sweep.f` for A, `onednb.f`/`nbexchng.f`/
//! `nbsweep.f` for B), which is what makes the cross-version mapping
//! experiments meaningful.

use crate::action::{Action, LoopScript, ProcessScript, ReqId};
use crate::machine::MachineModel;
use crate::program::{AppSpec, FuncId, ModuleSpec, ProcId, TagId};
use crate::rng::Rng;
use crate::time::SimDuration;
use crate::workloads::Workload;

/// Which version of the Poisson application to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoissonVersion {
    /// 1-D decomposition with blocking send/receive.
    A,
    /// 1-D decomposition with non-blocking operators.
    B,
    /// 2-D decomposition on 4 nodes.
    C,
    /// 2-D decomposition on 8 nodes.
    D,
}

impl PoissonVersion {
    /// The version's label used in reports ("A".."D").
    pub fn label(self) -> &'static str {
        match self {
            PoissonVersion::A => "A",
            PoissonVersion::B => "B",
            PoissonVersion::C => "C",
            PoissonVersion::D => "D",
        }
    }

    /// Number of processes (one per node, MPI-1 static model).
    pub fn procs(self) -> usize {
        match self {
            PoissonVersion::D => 8,
            _ => 4,
        }
    }
}

/// Configurable Poisson workload.
#[derive(Debug, Clone)]
pub struct PoissonWorkload {
    /// Version to simulate.
    pub version: PoissonVersion,
    /// Global grid edge length (points).
    pub grid: usize,
    /// Fixed iteration count, or `None` to iterate until the diagnosis
    /// session stops the run.
    pub max_iters: Option<u64>,
    /// Per-process relative work factors (length = process count). The
    /// defaults reproduce the per-process wait profile of §4.2.
    pub work_skew: Vec<f64>,
    /// Compute jitter amplitude (fraction, e.g. 0.03 = ±3%).
    pub jitter: f64,
    /// RNG seed for the jitter streams.
    pub seed: u64,
    /// First machine-node number; version D defaults to a different base
    /// so machine resources differ across runs, exercising the paper's
    /// node-mapping scenario.
    pub node_base: usize,
    /// Write a checkpoint (I/O on rank 0) every this many iterations.
    pub checkpoint_every: u64,
}

impl PoissonWorkload {
    /// The paper-shaped default configuration for `version`.
    pub fn new(version: PoissonVersion) -> PoissonWorkload {
        let procs = version.procs();
        // Rank work skew: ranks 0 and 1 carry roughly full blocks while
        // ranks 2 and 3 carry light ones, so the light ranks wait ~80-85%
        // of the time and the heavy ones ~45% (cf. §4.2's 81/86/46/47).
        let mut work_skew = vec![1.0, 0.96, 0.35, 0.27];
        if procs == 8 {
            work_skew = vec![1.0, 0.96, 0.35, 0.27, 0.9, 0.5, 0.6, 0.3];
        }
        PoissonWorkload {
            version,
            grid: 96,
            max_iters: None,
            work_skew,
            jitter: 0.03,
            seed: 0x5EED,
            node_base: if version == PoissonVersion::D { 9 } else { 1 },
            checkpoint_every: 400,
        }
    }

    /// Overrides the iteration count.
    pub fn with_max_iters(mut self, iters: Option<u64>) -> Self {
        self.max_iters = iters;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn module_names(&self) -> (&'static str, &'static str, &'static str) {
        // (main module, exchange module, sweep module) per paper fig. 3.
        match self.version {
            PoissonVersion::A => ("oned.f", "exchng1.f", "sweep.f"),
            PoissonVersion::B => ("onednb.f", "nbexchng.f", "nbsweep.f"),
            PoissonVersion::C | PoissonVersion::D => ("twod.f", "exchng2.f", "sweep2d.f"),
        }
    }

    fn function_names(&self) -> (&'static str, &'static str, &'static str) {
        match self.version {
            PoissonVersion::A => ("main", "exchng1", "sweep1d"),
            PoissonVersion::B => ("main", "nbexchng1", "nbsweep"),
            PoissonVersion::C | PoissonVersion::D => ("main", "exchng2", "sweep2d"),
        }
    }

    /// Resolved function ids: (main, exchange, sweep, diff).
    fn funcs(&self, app: &AppSpec) -> (FuncId, FuncId, FuncId, FuncId) {
        let (mm, me, ms) = self.module_names();
        let (fm, fe, fs) = self.function_names();
        (
            app.func_id(mm, fm).expect("main exists"),
            app.func_id(me, fe).expect("exchange exists"),
            app.func_id(ms, fs).expect("sweep exists"),
            app.func_id("diff.f", "diff").expect("diff exists"),
        )
    }

    /// Decomposition shape `(px, py)`; 1-D versions use `(procs, 1)`.
    fn shape(&self) -> (usize, usize) {
        match self.version {
            PoissonVersion::A | PoissonVersion::B => (self.version.procs(), 1),
            PoissonVersion::C => (2, 2),
            PoissonVersion::D => (4, 2),
        }
    }

    /// Unperturbed sweep flops for `rank`, before jitter.
    fn sweep_flops(&self, rank: usize) -> f64 {
        let (px, py) = self.shape();
        let bx = self.grid / px;
        let by = self.grid / py;
        // Five-point stencil: ~5 flops per interior point.
        (bx * by) as f64 * 5.0 * self.work_skew[rank]
    }

    /// Ghost-cell message size for dimension `dim` (0 = x, 1 = y), bytes.
    fn ghost_bytes(&self, dim: usize) -> u64 {
        let (px, py) = self.shape();
        let edge = if dim == 0 {
            self.grid / py // a column of the local block
        } else {
            self.grid / px // a row of the local block
        };
        (edge * 8) as u64
    }
}

/// Ordered blocking exchange with one neighbour: the lower rank sends
/// first, the higher rank receives first (a deadlock-free pairwise
/// ordering in the spirit of Gropp et al.'s parity trick, valid for any
/// neighbour pair regardless of decomposition shape).
fn blocking_exchange(
    out: &mut Vec<Action>,
    func: FuncId,
    me: usize,
    peer: usize,
    tag: TagId,
    bytes: u64,
) {
    let send = Action::Send {
        func,
        to: ProcId(peer as u16),
        tag,
        bytes,
    };
    let recv = Action::Recv {
        func,
        from: ProcId(peer as u16),
        tag,
    };
    if me < peer {
        out.push(send);
        out.push(recv);
    } else {
        out.push(recv);
        out.push(send);
    }
}

impl Workload for PoissonWorkload {
    fn app_spec(&self) -> AppSpec {
        let (mm, me, ms) = self.module_names();
        let (fm, fe, fs) = self.function_names();
        let procs = self.version.procs();
        AppSpec {
            name: "poisson".into(),
            version: self.version.label().into(),
            modules: vec![
                ModuleSpec {
                    name: mm.into(),
                    functions: vec![fm.into()],
                },
                ModuleSpec {
                    name: me.into(),
                    functions: vec![fe.into()],
                },
                ModuleSpec {
                    name: ms.into(),
                    functions: vec![fs.into()],
                },
                ModuleSpec {
                    name: "diff.f".into(),
                    functions: vec!["diff".into()],
                },
                // Setup and helper code from the Gropp et al. program:
                // mostly trivial at run time, but every function enlarges
                // the search space the Performance Consultant must cover
                // (and gives historic trivial-function prunes something
                // to prune).
                ModuleSpec {
                    name: "decomp.f".into(),
                    functions: vec!["mpe_decomp1d".into(), "mpe_decomp2d".into()],
                },
                ModuleSpec {
                    name: "init.f".into(),
                    functions: vec!["initgrid".into(), "initguess".into(), "setparams".into()],
                },
                ModuleSpec {
                    name: "bc.f".into(),
                    functions: vec!["applybc".into(), "cornerfix".into()],
                },
            ],
            processes: (1..=procs).map(|i| format!("poisson:{i}")).collect(),
            nodes: (0..procs)
                .map(|i| format!("node{:02}", self.node_base + i))
                .collect(),
            proc_node: (0..procs).collect(),
            tags: vec!["3_0".into(), "3_1".into(), "3_-1".into()],
        }
    }

    fn machine(&self) -> MachineModel {
        MachineModel::sp2(self.version.procs())
    }

    fn scripts(&self) -> Vec<Box<dyn ProcessScript>> {
        let app = self.app_spec();
        let (f_main, f_exch, f_sweep, f_diff) = self.funcs(&app);
        let f_decomp = app.func_id("decomp.f", "mpe_decomp1d").expect("exists");
        let f_decomp2 = app.func_id("decomp.f", "mpe_decomp2d").expect("exists");
        let f_initgrid = app.func_id("init.f", "initgrid").expect("exists");
        let f_initguess = app.func_id("init.f", "initguess").expect("exists");
        let f_setparams = app.func_id("init.f", "setparams").expect("exists");
        let f_applybc = app.func_id("bc.f", "applybc").expect("exists");
        let f_cornerfix = app.func_id("bc.f", "cornerfix").expect("exists");
        let procs = self.version.procs();
        let (px, py) = self.shape();
        let machine = self.machine();
        let tag_x = TagId(0); // "3_0"
        let tag_y = TagId(1); // "3_1"
        let tag_reduce = TagId(2); // "3_-1"
        let root = Rng::new(self.seed);

        (0..procs)
            .map(|rank| {
                let mut rng = root.substream(rank as u64);
                let flops = self.sweep_flops(rank);
                let rate = machine.flops_per_sec;
                let (amp, checkpoint_every) = (self.jitter, self.checkpoint_every);
                let x = rank % px;
                let y = rank / px;
                let nonblocking = self.version == PoissonVersion::B;
                // Neighbour ranks in the decomposition.
                let left = (x > 0).then(|| rank - 1);
                let right = (x + 1 < px).then(|| rank + 1);
                let down = (y > 0).then(|| rank - px);
                let up = (y + 1 < py).then(|| rank + px);
                let (ghost_x, ghost_y) = (self.ghost_bytes(0), self.ghost_bytes(1));
                // Every iteration's blocking ghost exchange: x dimension
                // (tag 3_0), then y (tag 3_1, 2-D only).
                let mut exchange = Vec::new();
                for peer in [left, right].into_iter().flatten() {
                    blocking_exchange(&mut exchange, f_exch, rank, peer, tag_x, ghost_x);
                }
                for peer in [down, up].into_iter().flatten() {
                    blocking_exchange(&mut exchange, f_exch, rank, peer, tag_y, ghost_y);
                }
                // The residual reduction rooted at rank 0 (attributed to
                // main, tag 3_-1), as in the paper's profile where `main`
                // carries ~20% of the wait.
                let reduce: Vec<Action> = if rank == 0 {
                    let recvs = (1..procs).map(|p| Action::Recv {
                        func: f_main,
                        from: ProcId(p as u16),
                        tag: tag_reduce,
                    });
                    let sends = (1..procs).map(|p| Action::Send {
                        func: f_main,
                        to: ProcId(p as u16),
                        tag: tag_reduce,
                        bytes: 16,
                    });
                    recvs.chain(sends).collect()
                } else {
                    vec![
                        Action::Send {
                            func: f_main,
                            to: ProcId(0),
                            tag: tag_reduce,
                            bytes: 16,
                        },
                        Action::Recv {
                            func: f_main,
                            from: ProcId(0),
                            tag: tag_reduce,
                        },
                    ]
                };
                let body = move |iter: u64, acts: &mut Vec<Action>| {
                    let jit = rng.jitter(amp);
                    let sweep_time = SimDuration::from_secs_f64(flops * jit / rate);

                    // One-time setup on the first iteration: domain
                    // decomposition and grid initialization.
                    if iter == 0 {
                        for (f, frac) in [
                            (f_setparams, 0.2),
                            (f_decomp, 0.3),
                            (f_decomp2, 0.3),
                            (f_initgrid, 2.0),
                            (f_initguess, 1.0),
                        ] {
                            acts.push(Action::Compute {
                                func: f,
                                dur: sweep_time.mul_f64(frac),
                            });
                        }
                    }
                    // Boundary conditions: small per-iteration work.
                    acts.push(Action::Compute {
                        func: f_applybc,
                        dur: sweep_time.mul_f64(0.015),
                    });
                    if iter.is_multiple_of(8) {
                        acts.push(Action::Compute {
                            func: f_cornerfix,
                            dur: sweep_time.mul_f64(0.004),
                        });
                    }

                    if nonblocking {
                        // Post receives and sends, overlap the sweep, then
                        // wait and finish the boundary rows.
                        let first = ReqId(iter as u32 * 64);
                        let mut req = 0u32;
                        for peer in [left, right].into_iter().flatten() {
                            for mk in 0..2 {
                                let r = ReqId(first.0 + req);
                                req += 1;
                                if mk == 0 {
                                    acts.push(Action::Irecv {
                                        func: f_exch,
                                        from: ProcId(peer as u16),
                                        tag: tag_x,
                                        req: r,
                                    });
                                } else {
                                    acts.push(Action::Isend {
                                        func: f_exch,
                                        to: ProcId(peer as u16),
                                        tag: tag_x,
                                        bytes: ghost_x,
                                        req: r,
                                    });
                                }
                            }
                        }
                        // Interior sweep overlaps the transfers.
                        acts.push(Action::Compute {
                            func: f_sweep,
                            dur: sweep_time.mul_f64(0.8),
                        });
                        acts.push(Action::WaitAll {
                            func: f_exch,
                            first,
                            count: req,
                        });
                        // Boundary rows once ghost data has arrived.
                        acts.push(Action::Compute {
                            func: f_sweep,
                            dur: sweep_time.mul_f64(0.2),
                        });
                    } else {
                        acts.push(Action::Compute {
                            func: f_sweep,
                            dur: sweep_time,
                        });
                        acts.extend_from_slice(&exchange);
                    }

                    // Local residual, then the reduction.
                    acts.push(Action::Compute {
                        func: f_diff,
                        dur: sweep_time.mul_f64(0.06),
                    });
                    acts.extend_from_slice(&reduce);

                    // Periodic checkpoint from rank 0.
                    if rank == 0
                        && checkpoint_every > 0
                        && iter > 0
                        && iter.is_multiple_of(checkpoint_every)
                    {
                        acts.push(Action::Io {
                            func: f_main,
                            bytes: 64 * 1024,
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

    fn run(version: PoissonVersion, secs: u64) -> crate::engine::Engine {
        let wl = PoissonWorkload::new(version);
        let mut e = wl.build_engine();
        let status = e.run_until(SimTime::from_secs(secs));
        assert_eq!(status, EngineStatus::Running, "workload should be endless");
        e
    }

    #[test]
    fn spec_has_paper_module_names() {
        let a = PoissonWorkload::new(PoissonVersion::A).app_spec();
        assert!(a.func_id("oned.f", "main").is_some());
        assert!(a.func_id("exchng1.f", "exchng1").is_some());
        assert!(a.func_id("sweep.f", "sweep1d").is_some());
        let b = PoissonWorkload::new(PoissonVersion::B).app_spec();
        assert!(b.func_id("onednb.f", "main").is_some());
        assert!(b.func_id("nbexchng.f", "nbexchng1").is_some());
        let c = PoissonWorkload::new(PoissonVersion::C).app_spec();
        assert!(c.func_id("exchng2.f", "exchng2").is_some());
        assert_eq!(c.process_count(), 4);
        let d = PoissonWorkload::new(PoissonVersion::D).app_spec();
        assert_eq!(d.process_count(), 8);
        // D runs on differently-numbered nodes (mapping scenario).
        assert_eq!(d.nodes[0], "node09");
        assert_eq!(c.nodes[0], "node01");
    }

    #[test]
    fn all_versions_run_without_deadlock() {
        for v in [
            PoissonVersion::A,
            PoissonVersion::B,
            PoissonVersion::C,
            PoissonVersion::D,
        ] {
            let e = run(v, 2);
            assert!(e.totals().end_time() >= SimTime::from_secs(2));
        }
    }

    #[test]
    fn version_c_is_sync_dominated() {
        let e = run(PoissonVersion::C, 5);
        let sync = e.totals().total(ActivityKind::SyncWait).as_secs_f64();
        let cpu = e.totals().total(ActivityKind::Cpu).as_secs_f64();
        let io = e.totals().total(ActivityKind::IoWait).as_secs_f64();
        let frac = sync / (sync + cpu + io);
        assert!(
            (0.55..0.92).contains(&frac),
            "sync fraction was {frac:.2} (sync={sync:.2} cpu={cpu:.2})"
        );
    }

    #[test]
    fn light_ranks_wait_more_than_heavy_ranks() {
        let e = run(PoissonVersion::C, 5);
        let wait = |p: u16| {
            e.totals()
                .proc_total(ProcId(p), ActivityKind::SyncWait)
                .as_secs_f64()
        };
        // Ranks 2 and 3 have light blocks; they must wait much more than
        // ranks 0 and 1 (paper §4.2: 81/86% vs 46/47%).
        assert!(wait(2) > wait(0) * 1.3, "w2={} w0={}", wait(2), wait(0));
        assert!(wait(3) > wait(1) * 1.3, "w3={} w1={}", wait(3), wait(1));
    }

    #[test]
    fn nonblocking_version_waits_less_than_blocking() {
        let a = run(PoissonVersion::A, 5);
        let b = run(PoissonVersion::B, 5);
        // Identical decomposition, but B overlaps communication: the
        // exchange function's share of wait time must drop.
        let a_app = a.app().clone();
        let b_app = b.app().clone();
        let a_ex = a_app.func_id("exchng1.f", "exchng1").unwrap();
        let b_ex = b_app.func_id("nbexchng.f", "nbexchng1").unwrap();
        let wa = a
            .totals()
            .func_total(a_ex, ActivityKind::SyncWait)
            .as_secs_f64();
        let wb = b
            .totals()
            .func_total(b_ex, ActivityKind::SyncWait)
            .as_secs_f64();
        assert!(wb < wa, "blocking {wa:.3}s vs non-blocking {wb:.3}s");
    }

    #[test]
    fn deterministic_across_runs() {
        let w = PoissonWorkload::new(PoissonVersion::C);
        let mut e1 = w.build_engine();
        let mut e2 = w.build_engine();
        e1.run_until(SimTime::from_secs(3));
        e2.run_until(SimTime::from_secs(3));
        let t1: Vec<_> = e1.totals().iter().collect();
        let t2: Vec<_> = e2.totals().iter().collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn fixed_iterations_terminate() {
        let w = PoissonWorkload::new(PoissonVersion::A).with_max_iters(Some(50));
        let mut e = w.build_engine();
        assert_eq!(e.run_until(SimTime::from_secs(3600)), EngineStatus::AllDone);
    }

    #[test]
    fn reduce_tag_waits_land_in_main() {
        let e = run(PoissonVersion::C, 5);
        let app = e.app().clone();
        let f_main = app.func_id("twod.f", "main").unwrap();
        let w_main = e.totals().func_total(f_main, ActivityKind::SyncWait);
        assert!(w_main.as_secs_f64() > 0.1, "main wait was {w_main}");
        let t_reduce = app.tag_id("3_-1").unwrap();
        let w_tag = e.totals().tag_total(t_reduce, ActivityKind::SyncWait);
        assert!(w_tag.as_secs_f64() > 0.1);
    }
}
