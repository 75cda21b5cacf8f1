//! The discrete-event engine executing process scripts against a machine
//! model.
//!
//! Each process runs its sequential [`ProcessScript`]; processes interact
//! only through messages, barriers, and (indirectly) instrumentation
//! perturbation. The engine advances each process's local clock, matches
//! sends to receives with eager/rendezvous semantics, and emits an
//! [`Interval`] for every contiguous stretch of CPU, synchronization-wait
//! or I/O-wait activity. Each interval is folded, as it is emitted, into
//! the step's per-key [`Delta`](crate::delta::Delta)s — what a driver
//! step hands to the instrumentation layer — and is additionally kept
//! as a raw [`Interval`] while raw capture is on.
//!
//! # Online operation
//!
//! The Performance Consultant drives the engine in small steps with
//! [`Engine::run_until`], draining intervals after each step and adjusting
//! per-process *slowdown factors* that model instrumentation perturbation.
//! A process may overrun the horizon while completing a blocking operation
//! whose end time is determined by its peers; CPU bursts are chunked at the
//! horizon so perturbation changes take effect promptly.

use crate::action::{Action, ProcessScript, ReqId};
use crate::delta::{DeltaTable, StepDeltas};
use crate::machine::MachineModel;
use crate::program::{AppSpec, FuncId, ProcId, TagId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ActivityKind, Interval, TraceAccumulator};
use std::collections::{BTreeMap, VecDeque};

/// Channel key: (source, destination, tag).
type ChanKey = (ProcId, ProcId, TagId);

/// A message in flight (sent, not yet consumed).
#[derive(Debug, Clone, Copy)]
struct Msg {
    /// Time the payload is fully available at the receiver.
    avail: SimTime,
    bytes: u64,
}

/// State of a non-blocking request.
#[derive(Debug, Clone, Copy)]
enum ReqState {
    /// Completion time is known: (when, bytes, message tag).
    CompleteAt(SimTime, u64, Option<TagId>),
    /// An `Irecv` is posted but no matching message has been sent yet.
    PendingRecv,
}

/// Why a process is blocked.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// Blocking receive on a channel.
    Recv {
        key: ChanKey,
        func: FuncId,
        since: SimTime,
    },
    /// Rendezvous send waiting for the receiver.
    SendRdv {
        key: ChanKey,
        func: FuncId,
        since: SimTime,
        bytes: u64,
    },
    /// Waiting for requests `first..first + count`.
    WaitAll {
        func: FuncId,
        since: SimTime,
        first: ReqId,
        count: u32,
    },
    /// Waiting in a barrier or data-carrying collective.
    Barrier {
        func: FuncId,
        since: SimTime,
        bytes: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum ProcState {
    Ready,
    Blocked(Blocked),
    Done,
    /// Killed by fault injection; never runs again and emits nothing.
    Dead,
}

struct Proc {
    clock: SimTime,
    script: Box<dyn ProcessScript>,
    /// The script's current batch of actions; `next` indexes the first
    /// one not yet executed.
    batch: Vec<Action>,
    next: usize,
    state: ProcState,
    slowdown: f64,
    /// A CPU burst interrupted by the horizon: (func, remaining unperturbed).
    pending_compute: Option<(FuncId, SimDuration)>,
    /// Outstanding non-blocking requests, a handful at most.
    reqs: Vec<(ReqId, ReqState)>,
}

impl Proc {
    fn set_req(&mut self, req: ReqId, state: ReqState) {
        match self.reqs.iter_mut().find(|(r, _)| *r == req) {
            Some(slot) => slot.1 = state,
            None => self.reqs.push((req, state)),
        }
    }

    /// If requests `first..first + count` all have a known completion
    /// time, the latest of them.
    fn waitall_ready(&self, first: ReqId, count: u32) -> Option<SimTime> {
        let mut done = SimTime::ZERO;
        for r in (first.0..first.0 + count).map(ReqId) {
            match self.reqs.iter().find(|(q, _)| *q == r) {
                Some((_, ReqState::CompleteAt(t, _, _))) => done = done.max(*t),
                _ => return None,
            }
        }
        Some(done)
    }

    /// Removes requests `first..first + count`, returning the total
    /// moved bytes and — when every request involved the same message
    /// tag — that tag, so a wait over a homogeneous exchange stays
    /// attributable to its SyncObject.
    fn consume_reqs(&mut self, first: ReqId, count: u32) -> (u64, Option<TagId>) {
        let mut bytes = 0;
        let mut tag: Option<Option<TagId>> = None;
        for r in (first.0..first.0 + count).map(ReqId) {
            let Some(at) = self.reqs.iter().position(|(q, _)| *q == r) else {
                continue;
            };
            if let (_, ReqState::CompleteAt(_, b, t)) = self.reqs.swap_remove(at) {
                bytes += b;
                tag = match tag {
                    None => Some(t),
                    Some(prev) if prev == t => Some(prev),
                    Some(_) => Some(None), // mixed tags: unattributed
                };
            }
        }
        (bytes, tag.flatten())
    }
}

#[derive(Debug, Clone)]
struct Channel {
    inflight: VecDeque<Msg>,
    /// A rendezvous sender blocked on this channel: (block time, bytes).
    /// At most one, because a blocking send halts its process.
    pending_rdv: Option<(SimTime, u64)>,
    /// Posted `Irecv`s awaiting a message: (request, post time).
    posted_irecvs: VecDeque<(ReqId, SimTime)>,
    /// The last payload size sent on this channel and its
    /// [`MachineModel::transfer_time`].
    wire: (u64, SimDuration),
}

impl Channel {
    fn new(machine: &MachineModel) -> Channel {
        Channel {
            inflight: VecDeque::new(),
            pending_rdv: None,
            posted_irecvs: VecDeque::new(),
            wire: (0, machine.transfer_time(0)),
        }
    }

    /// The wire time of a `bytes`-byte message, recomputed only when the
    /// payload size differs from the last one.
    #[inline]
    fn wire_time(&mut self, machine: &MachineModel, bytes: u64) -> SimDuration {
        if self.wire.0 != bytes {
            self.wire = (bytes, machine.transfer_time(bytes));
        }
        self.wire.1
    }
}

/// Result of driving the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineStatus {
    /// Some processes still have work; the horizon was reached.
    Running,
    /// Every process script ran to completion.
    AllDone,
    /// No process can make progress: a communication deadlock.
    /// Carries a human-readable description of each blocked process.
    Deadlock(Vec<String>),
}

/// The discrete-event simulation engine.
pub struct Engine {
    app: AppSpec,
    machine: MachineModel,
    procs: Vec<Proc>,
    /// Each process's clock while it is Ready, `u64::MAX` otherwise: all
    /// the scheduler reads. Kept current wherever a state or a Ready
    /// clock changes.
    ready: Vec<u64>,
    /// Channels for the app's declared tags, dense by
    /// `(from * nprocs + to) * ntags + tag` — message ops index straight
    /// in instead of walking a map — then those for tags outside the
    /// app's tag table (rare), in `chan_spill` order of first use.
    channels: Vec<Channel>,
    /// Where each out-of-table channel sits in `channels`.
    chan_spill: BTreeMap<ChanKey, usize>,
    /// The intervals emitted since the last drain, per attribution key.
    step: DeltaTable,
    /// Whether `emitted` is kept (see [`Engine::set_raw_capture`]).
    raw_capture: bool,
    /// The same intervals one by one, while raw capture is on.
    emitted: Vec<Interval>,
    /// Ground truth, brought up to date from `step` at the end of every
    /// call that can emit (`run_until`, `kill_proc`).
    totals: TraceAccumulator,
    /// Cumulative count of intervals handed out by either drain; the
    /// throughput denominator for histbench's `sim.events_per_s`.
    events_drained: u64,
}

impl Engine {
    /// Creates an engine for `app` on `machine` with one script per
    /// process. Panics if the spec is inconsistent or script count differs
    /// from the process count.
    pub fn new(
        app: AppSpec,
        machine: MachineModel,
        scripts: Vec<Box<dyn ProcessScript>>,
    ) -> Engine {
        app.validate().expect("invalid AppSpec");
        assert_eq!(
            scripts.len(),
            app.process_count(),
            "need one script per process"
        );
        assert!(
            app.nodes.len() <= machine.nodes,
            "app uses more nodes than the machine has"
        );
        let procs = scripts
            .into_iter()
            .map(|script| Proc {
                clock: SimTime::ZERO,
                script,
                batch: Vec::new(),
                next: 0,
                state: ProcState::Ready,
                slowdown: 1.0,
                pending_compute: None,
                reqs: Vec::new(),
            })
            .collect();
        let nprocs = app.process_count();
        let ntags = app.tags.len();
        Engine {
            step: DeltaTable::new(nprocs, app.function_count(), ntags),
            raw_capture: true,
            ready: vec![0; nprocs],
            channels: vec![Channel::new(&machine); nprocs * nprocs * ntags],
            app,
            machine,
            procs,
            chan_spill: BTreeMap::new(),
            emitted: Vec::new(),
            totals: TraceAccumulator::new(),
            events_drained: 0,
        }
    }

    /// Index of channel `key` in `channels`.
    #[inline]
    fn chan(&mut self, key: ChanKey) -> usize {
        let nprocs = self.procs.len();
        let ntags = self.app.tags.len();
        let t = key.2 .0 as usize;
        if t < ntags {
            return (key.0 .0 as usize * nprocs + key.1 .0 as usize) * ntags + t;
        }
        self.spill_chan(key)
    }

    /// Index of the channel for a tag outside the app's tag table,
    /// appended to `channels` on first use.
    #[cold]
    fn spill_chan(&mut self, key: ChanKey) -> usize {
        let next = self.channels.len();
        let c = *self.chan_spill.entry(key).or_insert(next);
        if c == next {
            self.channels.push(Channel::new(&self.machine));
        }
        c
    }

    /// The application being simulated.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// The machine model in use.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Sets the perturbation slowdown factor for `proc` (clamped to >= 1).
    /// Applied to CPU bursts executed from now on.
    pub fn set_slowdown(&mut self, proc: ProcId, factor: f64) {
        self.procs[proc.0 as usize].slowdown = factor.max(1.0);
    }

    /// Full-resolution cumulative totals observed so far (ground truth).
    pub fn totals(&self) -> &TraceAccumulator {
        &self.totals
    }

    /// Turns the keeping of raw [`Interval`]s on or off (on by default).
    /// A driver that only consumes [`Engine::drain_deltas`] turns it off;
    /// [`Engine::drain_intervals`] then returns nothing.
    pub fn set_raw_capture(&mut self, on: bool) {
        self.raw_capture = on;
        if !on {
            self.emitted = Vec::new();
        }
    }

    /// Removes and returns the intervals emitted since the last drain
    /// (of either kind), in emission order.
    pub fn drain_intervals(&mut self) -> Vec<Interval> {
        let raw = std::mem::take(&mut self.emitted);
        self.drain_deltas();
        raw
    }

    /// Removes and returns the per-key aggregates of the intervals
    /// emitted since the last drain (of either kind), with the interval
    /// count per process.
    pub fn drain_deltas(&mut self) -> StepDeltas {
        let step = self.step.drain();
        self.events_drained += step.per_proc.iter().sum::<u64>();
        self.emitted.clear();
        step
    }

    /// Total number of intervals ever handed out by
    /// [`Engine::drain_intervals`] or [`Engine::drain_deltas`].
    pub fn events_drained(&self) -> u64 {
        self.events_drained
    }

    /// The local clock of `proc`.
    pub fn proc_clock(&self, proc: ProcId) -> SimTime {
        self.procs[proc.0 as usize].clock
    }

    /// True if every process has finished its script.
    pub fn all_done(&self) -> bool {
        self.procs
            .iter()
            .all(|p| matches!(p.state, ProcState::Done))
    }

    /// True if every process has either finished or been killed.
    fn all_finished(&self) -> bool {
        self.procs
            .iter()
            .all(|p| matches!(p.state, ProcState::Done | ProcState::Dead))
    }

    /// Processes killed by [`Engine::kill_proc`] / [`Engine::kill_node`].
    pub fn dead_procs(&self) -> Vec<ProcId> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.state, ProcState::Dead))
            .map(|(i, _)| ProcId(i as u16))
            .collect()
    }

    /// The index of the named node in the app spec, if it exists.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.app.nodes.iter().position(|n| n == name)
    }

    /// Kills `proc` immediately: it never runs again, emits no further
    /// intervals, and abandons every communication it was engaged in.
    /// Peers blocked on the dead process stay blocked (and eventually
    /// surface as a deadlock), exactly as a real daemon loss looks to
    /// the survivors. No-op on an already finished or dead process.
    pub fn kill_proc(&mut self, proc: ProcId) {
        let i = proc.0 as usize;
        if matches!(self.procs[i].state, ProcState::Done | ProcState::Dead) {
            return;
        }
        let p = &mut self.procs[i];
        p.state = ProcState::Dead;
        p.pending_compute = None;
        p.batch = Vec::new();
        p.next = 0;
        p.reqs.clear();
        self.ready[i] = u64::MAX;
        // Withdraw the dead process from every channel it touched so the
        // resume paths never try to wake it: its blocked rendezvous sends
        // and its posted Irecvs simply vanish with it.
        let nprocs = self.procs.len();
        let ntags = self.app.tags.len();
        for from in 0..nprocs {
            for to in 0..nprocs {
                for t in 0..ntags {
                    let chan = &mut self.channels[(from * nprocs + to) * ntags + t];
                    if from == i {
                        chan.pending_rdv = None;
                    }
                    if to == i {
                        chan.posted_irecvs.clear();
                    }
                }
            }
        }
        for (key, &c) in &self.chan_spill {
            let chan = &mut self.channels[c];
            if key.0 == proc {
                chan.pending_rdv = None;
            }
            if key.1 == proc {
                chan.posted_irecvs.clear();
            }
        }
        // Like a process exiting, a death can complete a barrier for the
        // surviving participants.
        self.check_barrier();
        self.step.flush_totals(&mut self.totals);
    }

    /// Kills every process placed on node `node` (an index into the app
    /// spec's node list). Returns the processes killed.
    pub fn kill_node(&mut self, node: usize) -> Vec<ProcId> {
        let victims: Vec<ProcId> = (0..self.procs.len())
            .filter(|&i| self.app.proc_node[i] == node)
            .map(|i| ProcId(i as u16))
            .collect();
        for &p in &victims {
            self.kill_proc(p);
        }
        victims
    }

    /// Advances the simulation until every runnable process has reached
    /// `horizon` (blocked operations may overrun it), all processes finish,
    /// or a deadlock is detected.
    pub fn run_until(&mut self, horizon: SimTime) -> EngineStatus {
        let status = loop {
            // The ready process with the smallest clock below the
            // horizon, ties to the lowest rank.
            let (mut best, mut next) = (horizon.0, None);
            for (i, &clock) in self.ready.iter().enumerate() {
                if clock < best {
                    (best, next) = (clock, Some(i));
                }
            }
            let Some(i) = next else {
                break if self.all_finished() {
                    EngineStatus::AllDone
                } else if self
                    .procs
                    .iter()
                    .any(|p| matches!(p.state, ProcState::Ready))
                {
                    // Everyone runnable is parked at the horizon.
                    EngineStatus::Running
                } else {
                    EngineStatus::Deadlock(self.describe_blocked())
                };
            };
            self.step_proc(i, horizon);
        };
        self.step.flush_totals(&mut self.totals);
        status
    }

    fn describe_blocked(&self) -> Vec<String> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match &p.state {
                ProcState::Blocked(b) => {
                    let what = match b {
                        Blocked::Recv { key, .. } => {
                            format!("recv from {} tag {}", key.0, key.2 .0)
                        }
                        Blocked::SendRdv { key, .. } => {
                            format!("rendezvous send to {} tag {}", key.1, key.2 .0)
                        }
                        Blocked::WaitAll { count, .. } => format!("waitall on {count} reqs"),
                        Blocked::Barrier { .. } => "barrier".to_string(),
                    };
                    Some(format!("{}: blocked in {what}", ProcId(i as u16)))
                }
                _ => None,
            })
            .collect()
    }

    /// Runs process `i` until it blocks, finishes, or reaches the horizon.
    fn step_proc(&mut self, i: usize, horizon: SimTime) {
        // Resume an interrupted CPU burst first. Only a burst chunked at
        // the horizon leaves one, so it is never set inside the loop.
        if let Some((func, remaining)) = self.procs[i].pending_compute.take() {
            self.exec_compute(i, func, remaining, horizon);
        }
        while matches!(self.procs[i].state, ProcState::Ready) && self.procs[i].clock < horizon {
            let p = &mut self.procs[i];
            if p.next == p.batch.len() {
                // One call per script iteration, into the same buffer.
                p.batch.clear();
                p.next = 0;
                if !p.script.next_batch(&mut p.batch) {
                    p.state = ProcState::Done;
                    // A process exiting can complete a barrier for the others.
                    self.check_barrier();
                    break;
                }
            }
            let n = p.next;
            p.next += 1;
            self.exec_action(i, n, horizon);
        }
        let p = &self.procs[i];
        self.ready[i] = match p.state {
            ProcState::Ready => p.clock.0,
            _ => u64::MAX,
        };
    }

    /// Makes blocked process `p` ready at `clock`.
    fn wake(&mut self, p: usize, clock: SimTime) {
        self.procs[p].clock = clock;
        self.procs[p].state = ProcState::Ready;
        self.ready[p] = clock.0;
    }

    /// Executes action `n` of process `i`'s batch.
    fn exec_action(&mut self, i: usize, n: usize, horizon: SimTime) {
        match self.procs[i].batch[n] {
            Action::Compute { func, dur } => self.exec_compute(i, func, dur, horizon),
            Action::Io { func, bytes } => {
                let start = self.procs[i].clock;
                let end = start + self.machine.io_time(bytes);
                self.emit(Interval {
                    proc: ProcId(i as u16),
                    func,
                    kind: ActivityKind::IoWait,
                    tag: None,
                    start,
                    end,
                    bytes,
                });
                self.procs[i].clock = end;
            }
            Action::Send {
                func,
                to,
                tag,
                bytes,
            } => self.exec_send(i, func, to, tag, bytes),
            Action::Recv { func, from, tag } => self.exec_recv(i, func, from, tag),
            Action::Isend {
                func,
                to,
                tag,
                bytes,
                req,
            } => self.exec_isend(i, func, to, tag, bytes, req),
            Action::Irecv {
                func,
                from,
                tag,
                req,
            } => self.exec_irecv(i, func, from, tag, req),
            Action::WaitAll { func, first, count } => self.exec_waitall(i, func, first, count),
            Action::Barrier { func } => self.enter_barrier(i, func, 0),
            Action::AllReduce { func, bytes } => self.enter_barrier(i, func, bytes),
        }
    }

    fn exec_compute(&mut self, i: usize, func: FuncId, dur: SimDuration, horizon: SimTime) {
        let slowdown = self.procs[i].slowdown;
        let start = self.procs[i].clock;
        let actual = dur.mul_f64(slowdown);
        if start + actual <= horizon || actual.is_zero() {
            self.emit(Interval {
                proc: ProcId(i as u16),
                func,
                kind: ActivityKind::Cpu,
                tag: None,
                start,
                end: start + actual,
                bytes: 0,
            });
            self.procs[i].clock = start + actual;
        } else {
            // Chunk the burst at the horizon; keep the unperturbed
            // remainder so later slowdown changes apply to it.
            let consumed_actual = horizon - start;
            let mut consumed_unpert =
                SimDuration(((consumed_actual.as_micros() as f64) / slowdown).floor() as u64);
            if consumed_unpert.is_zero() {
                consumed_unpert = SimDuration(1);
            }
            let consumed_unpert = SimDuration(consumed_unpert.as_micros().min(dur.as_micros()));
            let remaining = dur.saturating_sub(consumed_unpert);
            self.emit(Interval {
                proc: ProcId(i as u16),
                func,
                kind: ActivityKind::Cpu,
                tag: None,
                start,
                end: horizon,
                bytes: 0,
            });
            self.procs[i].clock = horizon;
            if !remaining.is_zero() {
                self.procs[i].pending_compute = Some((func, remaining));
            }
        }
    }

    fn exec_send(&mut self, i: usize, func: FuncId, to: ProcId, tag: TagId, bytes: u64) {
        let key: ChanKey = (ProcId(i as u16), to, tag);
        let clock = self.procs[i].clock;
        let c = self.chan(key);
        let wire = self.channels[c].wire_time(&self.machine, bytes);
        if self.machine.is_eager(bytes) {
            // Eager: local completion after the posting overhead; the
            // payload lands at the receiver after the wire time.
            let end = clock + self.machine.msg_overhead;
            self.emit(Interval {
                proc: ProcId(i as u16),
                func,
                kind: ActivityKind::SyncWait,
                tag: Some(tag),
                start: clock,
                end,
                bytes,
            });
            self.procs[i].clock = end;
            self.deliver(
                key,
                c,
                Msg {
                    avail: end + wire,
                    bytes,
                },
            );
            return;
        }
        // Rendezvous: complete against an already-blocked receiver or a
        // posted Irecv, otherwise block.
        let recv_blocked_since = match self.procs[to.0 as usize].state {
            ProcState::Blocked(Blocked::Recv { key: k, since, .. }) if k == key => Some(since),
            _ => None,
        };
        let (start, posted) = match recv_blocked_since {
            Some(since) => (since, None),
            // A posted Irecv lets the transfer start immediately.
            None => match self.channels[c].posted_irecvs.pop_front() {
                Some((req, post)) => (post, Some(req)),
                None => {
                    let chan = &mut self.channels[c];
                    debug_assert!(chan.pending_rdv.is_none(), "one blocking send per proc");
                    chan.pending_rdv = Some((clock, bytes));
                    self.procs[i].state = ProcState::Blocked(Blocked::SendRdv {
                        key,
                        func,
                        since: clock,
                        bytes,
                    });
                    return;
                }
            },
        };
        let done = clock.max(start) + wire;
        self.emit(Interval {
            proc: ProcId(i as u16),
            func,
            kind: ActivityKind::SyncWait,
            tag: Some(tag),
            start: clock,
            end: done,
            bytes,
        });
        self.procs[i].clock = done;
        match posted {
            None => self.resume_recv(to, done, bytes),
            Some(req) => self.complete_req(to, req, done, bytes, Some(tag)),
        }
    }

    fn exec_recv(&mut self, i: usize, func: FuncId, from: ProcId, tag: TagId) {
        let key: ChanKey = (from, ProcId(i as u16), tag);
        let clock = self.procs[i].clock;
        let c = self.chan(key);
        let chan = &mut self.channels[c];
        // 1. A queued (eager/Isend) message.
        if let Some(msg) = chan.inflight.pop_front() {
            let end = (clock + self.machine.msg_overhead).max(msg.avail);
            self.emit(Interval {
                proc: ProcId(i as u16),
                func,
                kind: ActivityKind::SyncWait,
                tag: Some(tag),
                start: clock,
                end,
                bytes: msg.bytes,
            });
            self.procs[i].clock = end;
            return;
        }
        // 2. A rendezvous sender already blocked on this channel.
        if let Some((s_since, bytes)) = chan.pending_rdv.take() {
            let done = clock.max(s_since) + chan.wire_time(&self.machine, bytes);
            self.emit(Interval {
                proc: ProcId(i as u16),
                func,
                kind: ActivityKind::SyncWait,
                tag: Some(tag),
                start: clock,
                end: done,
                bytes,
            });
            self.procs[i].clock = done;
            self.resume_sender(from, done);
            return;
        }
        // 3. Nothing yet: block.
        self.procs[i].state = ProcState::Blocked(Blocked::Recv {
            key,
            func,
            since: clock,
        });
    }

    fn exec_isend(
        &mut self,
        i: usize,
        func: FuncId,
        to: ProcId,
        tag: TagId,
        bytes: u64,
        req: ReqId,
    ) {
        let key: ChanKey = (ProcId(i as u16), to, tag);
        let clock = self.procs[i].clock;
        let end = clock + self.machine.msg_overhead;
        let c = self.chan(key);
        let avail = end + self.channels[c].wire_time(&self.machine, bytes);
        self.emit(Interval {
            proc: ProcId(i as u16),
            func,
            kind: ActivityKind::SyncWait,
            tag: Some(tag),
            start: clock,
            end,
            bytes,
        });
        self.procs[i].clock = end;
        // The send request is complete as soon as the payload is handed to
        // the transport (a simplification of MPI buffering semantics).
        self.procs[i].set_req(req, ReqState::CompleteAt(end, 0, Some(tag)));
        self.deliver(key, c, Msg { avail, bytes });
    }

    fn exec_irecv(&mut self, i: usize, func: FuncId, from: ProcId, tag: TagId, req: ReqId) {
        let key: ChanKey = (from, ProcId(i as u16), tag);
        let clock = self.procs[i].clock;
        let end = clock + self.machine.msg_overhead;
        self.emit(Interval {
            proc: ProcId(i as u16),
            func,
            kind: ActivityKind::SyncWait,
            tag: Some(tag),
            start: clock,
            end,
            bytes: 0,
        });
        self.procs[i].clock = end;
        // Match a queued message, a blocked rendezvous sender, or post.
        let c = self.chan(key);
        let chan = &mut self.channels[c];
        if let Some(msg) = chan.inflight.pop_front() {
            let state = ReqState::CompleteAt(end.max(msg.avail), msg.bytes, Some(tag));
            self.procs[i].set_req(req, state);
            return;
        }
        if let Some((s_since, bytes)) = chan.pending_rdv.take() {
            let done = end.max(s_since) + chan.wire_time(&self.machine, bytes);
            self.procs[i].set_req(req, ReqState::CompleteAt(done, bytes, Some(tag)));
            self.resume_sender(from, done);
            return;
        }
        chan.posted_irecvs.push_back((req, end));
        self.procs[i].set_req(req, ReqState::PendingRecv);
    }

    fn exec_waitall(&mut self, i: usize, func: FuncId, first: ReqId, count: u32) {
        let p = &mut self.procs[i];
        let clock = p.clock;
        let Some(done) = p.waitall_ready(first, count) else {
            p.state = ProcState::Blocked(Blocked::WaitAll {
                func,
                since: clock,
                first,
                count,
            });
            return;
        };
        let end = clock.max(done);
        let (bytes, tag) = p.consume_reqs(first, count);
        p.clock = end;
        self.emit(Interval {
            proc: ProcId(i as u16),
            func,
            kind: ActivityKind::SyncWait,
            tag,
            start: clock,
            end,
            bytes,
        });
    }

    /// Delivers a message on channel `key` (index `c`): wakes a blocked
    /// receiver, completes a posted `Irecv`, or queues it.
    fn deliver(&mut self, key: ChanKey, c: usize, msg: Msg) {
        let to = key.1;
        match self.procs[to.0 as usize].state {
            ProcState::Blocked(Blocked::Recv {
                key: k,
                func,
                since,
            }) if k == key => {
                // Resume the receiver blocked in a blocking recv.
                let end = since.max(msg.avail);
                self.wake(to.0 as usize, end);
                self.emit(Interval {
                    proc: to,
                    func,
                    kind: ActivityKind::SyncWait,
                    tag: Some(key.2),
                    start: since,
                    end,
                    bytes: msg.bytes,
                });
                return;
            }
            _ => {}
        }
        let chan = &mut self.channels[c];
        if let Some((req, post)) = chan.posted_irecvs.pop_front() {
            let done = post.max(msg.avail);
            self.complete_req(to, req, done, msg.bytes, Some(key.2));
            return;
        }
        chan.inflight.push_back(msg);
    }

    /// Resumes a receiver blocked in a blocking recv at `done` (rendezvous
    /// completion path, where the sender already emitted the transfer).
    fn resume_recv(&mut self, to: ProcId, done: SimTime, bytes: u64) {
        let ProcState::Blocked(Blocked::Recv { func, since, key }) =
            self.procs[to.0 as usize].state
        else {
            unreachable!("caller checked the state");
        };
        self.wake(to.0 as usize, done);
        self.emit(Interval {
            proc: to,
            func,
            kind: ActivityKind::SyncWait,
            tag: Some(key.2),
            start: since,
            end: done,
            bytes,
        });
    }

    /// Resumes a rendezvous sender at `done`.
    fn resume_sender(&mut self, from: ProcId, done: SimTime) {
        let ProcState::Blocked(Blocked::SendRdv {
            func,
            since,
            key,
            bytes,
        }) = self.procs[from.0 as usize].state
        else {
            unreachable!("caller holds the pending_rdv entry");
        };
        self.wake(from.0 as usize, done);
        self.emit(Interval {
            proc: from,
            func,
            kind: ActivityKind::SyncWait,
            tag: Some(key.2),
            start: since,
            end: done,
            bytes,
        });
    }

    /// Marks request `req` of process `to` complete at `done`, resuming a
    /// WaitAll that was blocked on it if all its requests are now complete.
    fn complete_req(
        &mut self,
        to: ProcId,
        req: ReqId,
        done: SimTime,
        bytes: u64,
        tag: Option<TagId>,
    ) {
        let p = &mut self.procs[to.0 as usize];
        p.set_req(req, ReqState::CompleteAt(done, bytes, tag));
        let ProcState::Blocked(Blocked::WaitAll {
            func,
            since,
            first,
            count,
        }) = p.state
        else {
            return;
        };
        let Some(all_done) = p.waitall_ready(first, count) else {
            return;
        };
        let end = since.max(all_done);
        let (total, wait_tag) = p.consume_reqs(first, count);
        self.wake(to.0 as usize, end);
        self.emit(Interval {
            proc: to,
            func,
            kind: ActivityKind::SyncWait,
            tag: wait_tag,
            start: since,
            end,
            bytes: total,
        });
    }

    fn enter_barrier(&mut self, i: usize, func: FuncId, bytes: u64) {
        let since = self.procs[i].clock;
        self.procs[i].state = ProcState::Blocked(Blocked::Barrier { func, since, bytes });
        self.check_barrier();
    }

    /// Completes the barrier/collective when every live process has
    /// arrived. A data-carrying collective additionally pays a log-tree
    /// transfer cost for the largest payload contributed.
    fn check_barrier(&mut self) {
        let (mut arrived, mut latest, mut max_bytes) = (0usize, SimTime::ZERO, 0u64);
        for p in &self.procs {
            match p.state {
                ProcState::Done | ProcState::Dead => continue,
                ProcState::Blocked(Blocked::Barrier { since, bytes, .. }) => {
                    arrived += 1;
                    latest = latest.max(since);
                    max_bytes = max_bytes.max(bytes);
                }
                _ => return, // someone has not arrived yet
            }
        }
        if arrived == 0 {
            return;
        }
        let mut done = latest + self.machine.barrier_cost(arrived);
        if max_bytes > 0 {
            let stages = (arrived as f64).log2().ceil().max(1.0);
            done += self.machine.transfer_time(max_bytes).mul_f64(stages);
        }
        for idx in 0..self.procs.len() {
            let ProcState::Blocked(Blocked::Barrier { func, since, .. }) = self.procs[idx].state
            else {
                continue;
            };
            self.wake(idx, done);
            self.emit(Interval {
                proc: ProcId(idx as u16),
                func,
                kind: ActivityKind::SyncWait,
                tag: None,
                start: since,
                end: done,
                bytes: 0,
            });
        }
    }

    /// Inlined into every call site on purpose: there the interval's
    /// kind and tagged-ness are constants and, with raw capture off, the
    /// `Interval` is never materialised.
    #[inline(always)]
    fn emit(&mut self, iv: Interval) {
        if iv.duration().is_zero() && iv.bytes == 0 {
            return;
        }
        self.step.fold(&iv);
        if self.raw_capture {
            self.emitted.push(iv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::VecScript;
    use crate::program::ModuleSpec;

    fn two_proc_app() -> AppSpec {
        AppSpec {
            name: "t".into(),
            version: "1".into(),
            modules: vec![ModuleSpec {
                name: "m.c".into(),
                functions: vec!["f".into(), "g".into()],
            }],
            processes: vec!["t:0".into(), "t:1".into()],
            nodes: vec!["n0".into(), "n1".into()],
            proc_node: vec![0, 1],
            tags: vec!["0".into()],
        }
    }

    fn engine(scripts: Vec<Vec<Action>>) -> Engine {
        let app = two_proc_app();
        let machine = MachineModel::sp2(2);
        Engine::new(
            app,
            machine,
            scripts
                .into_iter()
                .map(|s| Box::new(VecScript::new(s)) as Box<dyn ProcessScript>)
                .collect(),
        )
    }

    const F: FuncId = FuncId(0);
    const G: FuncId = FuncId(1);
    const T: TagId = TagId(0);

    #[test]
    fn compute_advances_clock() {
        let mut e = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(5),
            }],
            vec![],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        assert_eq!(e.proc_clock(ProcId(0)), SimTime::from_millis(5));
        let ivs = e.drain_intervals();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].kind, ActivityKind::Cpu);
        assert_eq!(ivs[0].duration(), SimDuration::from_millis(5));
    }

    #[test]
    fn eager_send_recv_transfers_message() {
        // p0 computes 1ms then sends 64B; p1 recvs immediately and waits.
        let mut e = engine(vec![
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(1),
                },
                Action::Send {
                    func: G,
                    to: ProcId(1),
                    tag: T,
                    bytes: 64,
                },
            ],
            vec![Action::Recv {
                func: G,
                from: ProcId(0),
                tag: T,
            }],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        // p1 blocked from t=0 until the payload arrived.
        let wait = e.totals().proc_total(ProcId(1), ActivityKind::SyncWait);
        assert!(wait > SimDuration::from_millis(1), "wait was {wait}");
        // The sender finished quickly (eager).
        assert!(e.proc_clock(ProcId(0)) < SimTime::from_millis(2));
        assert_eq!(e.totals().msg_count(ProcId(1), T), 1);
    }

    #[test]
    fn rendezvous_send_blocks_until_recv() {
        // 64 KiB exceeds the 4 KiB eager threshold.
        let mut e = engine(vec![
            vec![Action::Send {
                func: G,
                to: ProcId(1),
                tag: T,
                bytes: 64 * 1024,
            }],
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(10),
                },
                Action::Recv {
                    func: G,
                    from: ProcId(0),
                    tag: T,
                },
            ],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        // The sender had to wait for the receiver's 10ms compute plus the
        // transfer time.
        let transfer = MachineModel::sp2(2).transfer_time(64 * 1024);
        let expect = SimTime::from_millis(10) + transfer;
        assert_eq!(e.proc_clock(ProcId(0)), expect);
        assert_eq!(e.proc_clock(ProcId(1)), expect);
        let sender_wait = e.totals().proc_total(ProcId(0), ActivityKind::SyncWait);
        assert_eq!(sender_wait, expect - SimTime::ZERO);
    }

    #[test]
    fn nonblocking_overlap_hides_transfer() {
        // p0: isend; compute 10ms; waitall -> transfer hidden by compute.
        let req = ReqId(1);
        let mut e = engine(vec![
            vec![
                Action::Isend {
                    func: G,
                    to: ProcId(1),
                    tag: T,
                    bytes: 64,
                    req,
                },
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(10),
                },
                Action::WaitAll {
                    func: G,
                    first: req,
                    count: 1,
                },
            ],
            vec![Action::Recv {
                func: G,
                from: ProcId(0),
                tag: T,
            }],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        // WaitAll completes instantly: only the posting overhead shows up
        // as sync time for p0.
        let wait0 = e.totals().proc_total(ProcId(0), ActivityKind::SyncWait);
        assert_eq!(wait0, MachineModel::sp2(2).msg_overhead);
    }

    #[test]
    fn irecv_completes_when_message_arrives() {
        let req = ReqId(7);
        let mut e = engine(vec![
            vec![
                Action::Irecv {
                    func: G,
                    from: ProcId(1),
                    tag: T,
                    req,
                },
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(1),
                },
                Action::WaitAll {
                    func: G,
                    first: req,
                    count: 1,
                },
            ],
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(5),
                },
                Action::Send {
                    func: G,
                    to: ProcId(0),
                    tag: T,
                    bytes: 64,
                },
            ],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        // p0 waited in WaitAll from ~1ms until the message arrived (~5ms+).
        let wait0 = e.totals().proc_total(ProcId(0), ActivityKind::SyncWait);
        assert!(wait0 > SimDuration::from_millis(3), "wait was {wait0}");
        assert!(e.proc_clock(ProcId(0)) > SimTime::from_millis(5));
    }

    #[test]
    fn barrier_synchronizes_all() {
        let mut e = engine(vec![
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(2),
                },
                Action::Barrier { func: G },
            ],
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(8),
                },
                Action::Barrier { func: G },
            ],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        let cost = MachineModel::sp2(2).barrier_cost(2);
        let done = SimTime::from_millis(8) + cost;
        assert_eq!(e.proc_clock(ProcId(0)), done);
        assert_eq!(e.proc_clock(ProcId(1)), done);
        // The early arriver waited ~6ms + cost, the late one only the cost.
        let w0 = e.totals().proc_total(ProcId(0), ActivityKind::SyncWait);
        let w1 = e.totals().proc_total(ProcId(1), ActivityKind::SyncWait);
        assert!(w0 > w1);
        assert_eq!(w1, cost);
    }

    #[test]
    fn barrier_completes_when_last_proc_exits() {
        // p1 finishes without entering the barrier -> p0's barrier
        // completes over the remaining single participant.
        let mut e = engine(vec![
            vec![Action::Barrier { func: G }],
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(1),
            }],
        ]);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
    }

    #[test]
    fn deadlock_is_detected() {
        // Both processes recv first: classic deadlock.
        let mut e = engine(vec![
            vec![Action::Recv {
                func: G,
                from: ProcId(1),
                tag: T,
            }],
            vec![Action::Recv {
                func: G,
                from: ProcId(0),
                tag: T,
            }],
        ]);
        match e.run_until(SimTime::from_secs(1)) {
            EngineStatus::Deadlock(desc) => {
                assert_eq!(desc.len(), 2);
                assert!(desc[0].contains("recv"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn horizon_pauses_and_resumes() {
        let mut e = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(100),
            }],
            vec![],
        ]);
        assert_eq!(e.run_until(SimTime::from_millis(30)), EngineStatus::Running);
        assert_eq!(e.proc_clock(ProcId(0)), SimTime::from_millis(30));
        // The chunked burst emitted a partial interval.
        let cpu = e.totals().proc_total(ProcId(0), ActivityKind::Cpu);
        assert_eq!(cpu, SimDuration::from_millis(30));
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        let cpu = e.totals().proc_total(ProcId(0), ActivityKind::Cpu);
        assert_eq!(cpu, SimDuration::from_millis(100));
    }

    #[test]
    fn slowdown_stretches_cpu_time() {
        let mut e = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(10),
            }],
            vec![],
        ]);
        e.set_slowdown(ProcId(0), 1.5);
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        assert_eq!(e.proc_clock(ProcId(0)), SimTime::from_millis(15));
        // Slowdown below 1 clamps to 1.
        let mut e2 = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(10),
            }],
            vec![],
        ]);
        e2.set_slowdown(ProcId(0), 0.2);
        e2.run_until(SimTime::from_secs(1));
        assert_eq!(e2.proc_clock(ProcId(0)), SimTime::from_millis(10));
    }

    #[test]
    fn slowdown_change_applies_to_remaining_chunk() {
        let mut e = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(100),
            }],
            vec![],
        ]);
        // First half unperturbed, second half at 2x.
        e.run_until(SimTime::from_millis(50));
        e.set_slowdown(ProcId(0), 2.0);
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.proc_clock(ProcId(0)), SimTime::from_millis(150));
    }

    #[test]
    fn io_counts_as_io_wait() {
        let mut e = engine(vec![
            vec![Action::Io {
                func: F,
                bytes: 8_000_000,
            }],
            vec![],
        ]);
        e.run_until(SimTime::from_secs(5));
        assert_eq!(
            e.totals().proc_total(ProcId(0), ActivityKind::IoWait),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn killed_proc_stops_emitting_and_run_completes() {
        let mut e = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(100),
            }],
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(5),
            }],
        ]);
        e.run_until(SimTime::from_millis(10));
        e.kill_proc(ProcId(0));
        assert_eq!(e.dead_procs(), vec![ProcId(0)]);
        // The dead process never advances again; the survivor's exit
        // counts the run as done.
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
        assert_eq!(e.proc_clock(ProcId(0)), SimTime::from_millis(10));
        assert!(!e.all_done(), "a killed proc never finishes its script");
        // Killing again is a no-op.
        e.kill_proc(ProcId(0));
        assert_eq!(e.dead_procs(), vec![ProcId(0)]);
    }

    #[test]
    fn kill_node_kills_its_procs_and_completes_barriers() {
        // p1 dies on its node while p0 waits in a barrier: the barrier
        // completes over the single survivor instead of hanging forever.
        let mut e = engine(vec![
            vec![Action::Barrier { func: G }],
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(50),
                },
                Action::Barrier { func: G },
            ],
        ]);
        e.run_until(SimTime::from_millis(10));
        assert_eq!(e.node_index("n1"), Some(1));
        assert_eq!(e.node_index("nope"), None);
        let killed = e.kill_node(1);
        assert_eq!(killed, vec![ProcId(1)]);
        // The survivor's barrier wait was emitted by the kill itself, not
        // by a `run_until`; the ground truth must already hold it.
        assert_eq!(
            e.totals().proc_total(ProcId(0), ActivityKind::SyncWait),
            MachineModel::sp2(2).barrier_cost(1)
        );
        assert_eq!(e.run_until(SimTime::from_secs(1)), EngineStatus::AllDone);
    }

    #[test]
    fn kill_withdraws_pending_communication() {
        // p0 blocks in a rendezvous send to p1, then p0 dies; p1's later
        // recv must not wake the dead sender (it blocks instead, and the
        // run reports deadlock rather than panicking).
        let mut e = engine(vec![
            vec![Action::Send {
                func: G,
                to: ProcId(1),
                tag: T,
                bytes: 64 * 1024,
            }],
            vec![
                Action::Compute {
                    func: F,
                    dur: SimDuration::from_millis(10),
                },
                Action::Recv {
                    func: G,
                    from: ProcId(0),
                    tag: T,
                },
            ],
        ]);
        e.run_until(SimTime::from_millis(5));
        e.kill_proc(ProcId(0));
        match e.run_until(SimTime::from_secs(1)) {
            EngineStatus::Deadlock(desc) => {
                assert_eq!(desc.len(), 1);
                assert!(desc[0].contains("recv"));
            }
            other => panic!("expected the survivor to block, got {other:?}"),
        }
    }

    #[test]
    fn intervals_drain_once() {
        let mut e = engine(vec![
            vec![Action::Compute {
                func: F,
                dur: SimDuration::from_millis(1),
            }],
            vec![],
        ]);
        e.run_until(SimTime::from_secs(1));
        assert_eq!(e.drain_intervals().len(), 1);
        assert!(e.drain_intervals().is_empty());
    }
}
