//! Session supervision for long-running diagnosis.
//!
//! A diagnosis session is a long-lived tool run against a live
//! application; in the field it hangs, crashes, and contends with its
//! siblings for the shared execution store. A [`Supervisor`] wraps any
//! number of sessions and keeps each one moving to a *classified* end:
//!
//! * **Watchdog** — every drive-loop tick reports a heartbeat; a
//!   monitor thread watches all heartbeats and, when one goes quiet for
//!   the stall deadline, raises that session's cancel flag so the drive
//!   loop stops at a clean checkpoint instead of spinning forever.
//! * **Auto-resume** — a session that halts (injected tool crash, stall
//!   cancellation, or a real panic) is retried from its persisted
//!   checkpoint under a bounded retry budget with capped exponential
//!   backoff; the deterministic replay machinery makes the resumed
//!   search provably continue where the crashed one stopped.
//! * **Degradation ladder** — when the retry budget exhausts, the
//!   session is re-attempted fresh down an escalating ladder of cheaper
//!   configurations: admission control tightened
//!   ([`Rung::TightenAdmission`]), then instrumentation restricted to
//!   top-level hypotheses ([`Rung::TopLevelOnly`]), and finally a
//!   history-only prognosis from the store with no instrumentation at
//!   all ([`Rung::HistoryOnly`]).
//! * **Owner cancel** — a session whose cancel flag its owner raised
//!   (see [`SessionDriver::cancel_flag`]) stops at its next drive-loop
//!   step and is abandoned as "cancelled by client", with no resume, no
//!   ladder and no prognosis. A flag the watchdog raised is a bark, and
//!   the session resumes as from any other halt.
//! * **Classification** — every session ends as exactly one
//!   [`Outcome`]: `Completed`, `Recovered` (finished after resumes),
//!   `Degraded` (finished on a ladder rung), or `Abandoned`.
//!
//! Sessions plug in through the [`SessionDriver`] trait, which
//! [`WorkloadSession`] implements for real workloads: attempts run
//! through [`Session::diagnose_faulted`] with the supervisor's
//! [`DriveHooks`] installed, checkpoints are [`SearchCheckpoint`]s
//! (persisted as the store's `ckpt` artifact), and the ladder maps onto
//! the search config. The trait keeps the policy engine — budgets,
//! backoff, ladder, classification — testable with scripted mock
//! drivers. Only the watchdog reads the wall clock.
//!
//! ```
//! use histpc::prelude::*;
//! use histpc::supervise::SessionDriver;
//!
//! let workload = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
//! let config = SearchConfig {
//!     window: SimDuration::from_millis(800),
//!     sample: SimDuration::from_millis(100),
//!     ..SearchConfig::default()
//! };
//! let session = Session::new();
//! let driver = WorkloadSession::new(&session, &workload, config, "run-1");
//! let report = Supervisor::new(SupervisorConfig::default()).run(&[&driver]);
//! assert_eq!(report.completed(), 1);
//! ```

use crate::session::{Session, SessionError};
use histpc_consultant::{DriveHooks, HaltReason, SearchCheckpoint, SearchConfig};
use histpc_history::store::StoreError;
use histpc_sim::workloads::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store-contention retries allowed (uncounted, cheap) before a session
/// is abandoned as unable to reach the store.
const CONTENTION_BUDGET: u32 = 16;

/// The abandonment reason of a session its owner cancelled.
const CANCELLED: &str = "cancelled by client";

/// How many of the application's most recent stored runs feed the
/// history-only prognosis.
const PROGNOSIS_WINDOW: usize = 10;

/// What one attempt at driving a session produced.
#[derive(Debug)]
pub enum Attempt {
    /// The session finished and its artifacts are persisted.
    Done {
        /// On a resumed attempt: whether the replayed search state
        /// matched the checkpoint digest (`true` for fresh attempts).
        digest_ok: bool,
    },
    /// The session stopped at a checkpoint without finishing.
    Halted {
        /// The checkpoint to resume from; `None` when the halt left
        /// nothing behind (the supervisor then asks
        /// [`SessionDriver::load_checkpoint`] for a persisted one).
        checkpoint: Option<SearchCheckpoint>,
        /// Why it stopped.
        reason: HaltReason,
    },
    /// The shared store was locked by a sibling; retry shortly. Not
    /// counted against the retry budget.
    Contended,
    /// The attempt failed outright (store error, bad artifacts, ...).
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

/// A rung of the degradation ladder, top to bottom. Every session
/// starts on [`Rung::Normal`] and only ever steps down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The session's own configuration, unmodified.
    Normal,
    /// Admission control enabled and tightened: lower in-flight and
    /// sample budgets shed load before it can wedge the session again.
    TightenAdmission,
    /// Tightened admission, and instrumentation restricted to top-level
    /// hypotheses at the whole-program focus — the cheapest search that
    /// still concludes.
    TopLevelOnly,
    /// No diagnosis runs at all; a history-only prognosis from the
    /// store stands in for the report.
    HistoryOnly,
}

impl Rung {
    /// The rung below this one; the bottom rung is its own successor.
    fn next(self) -> Rung {
        match self {
            Rung::Normal => Rung::TightenAdmission,
            Rung::TightenAdmission => Rung::TopLevelOnly,
            Rung::TopLevelOnly | Rung::HistoryOnly => Rung::HistoryOnly,
        }
    }

    /// What running on this rung means, for the escalation notes.
    fn describe(self) -> &'static str {
        match self {
            Rung::Normal => "the session's own configuration",
            Rung::TightenAdmission => "tightened admission control",
            Rung::TopLevelOnly => "top-level-only instrumentation",
            Rung::HistoryOnly => "history-only prognosis",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rung::Normal => "normal",
            Rung::TightenAdmission => "tighten-admission",
            Rung::TopLevelOnly => "top-level-only",
            Rung::HistoryOnly => "history-only",
        })
    }
}

/// The final classification of one supervised session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Finished on the first attempt on [`Rung::Normal`].
    Completed,
    /// Finished on [`Rung::Normal`] after `retries` resumes.
    Recovered {
        /// How many checkpoint resumes it took.
        retries: u32,
    },
    /// Finished only on a degradation-ladder rung.
    Degraded {
        /// The rung it finished on.
        rung: Rung,
    },
    /// Nothing worked, or the session's owner cancelled it.
    Abandoned {
        /// Why the session was given up on.
        reason: String,
    },
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Completed => f.write_str("completed"),
            Outcome::Recovered { retries } => write!(f, "recovered after {retries} resume(s)"),
            Outcome::Degraded { rung } => write!(f, "degraded ({rung})"),
            Outcome::Abandoned { reason } => write!(f, "abandoned: {reason}"),
        }
    }
}

/// One supervised session, as the supervisor sees it. Implementations
/// wrap a workload + config + label and run one attempt per call.
pub trait SessionDriver: Sync {
    /// The session's label, used to order and address reports.
    fn label(&self) -> &str;

    /// Runs one attempt on `rung` (never [`Rung::HistoryOnly`], which
    /// is [`prognose`](SessionDriver::prognose)), resuming from
    /// `resume_from` when given. `hooks` must go into the drive loop's
    /// [`SearchConfig::hooks`] so the watchdog can observe and cancel
    /// the attempt.
    fn attempt(
        &self,
        rung: Rung,
        resume_from: Option<&SearchCheckpoint>,
        hooks: &DriveHooks,
    ) -> Attempt;

    /// Loads this session's persisted checkpoint — used to resume after
    /// a crash that returned nothing (a panic) or a failed attempt.
    /// `Ok(None)` when there is none; `Err` when it does not parse.
    fn load_checkpoint(&self) -> Result<Option<SearchCheckpoint>, String>;

    /// Produces the history-only prognosis for [`Rung::HistoryOnly`]:
    /// a report derived purely from stored runs. `Err` abandons the
    /// session.
    fn prognose(&self) -> Result<String, String>;

    /// The cancel flag the session's owner raises to stop it; the
    /// watchdog and the drive loop share it. `None` (the default) gives
    /// the session a private flag that only the watchdog raises.
    fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        None
    }
}

/// Supervision policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Checkpoint resumes allowed per session before the ladder engages.
    pub retry_budget: u32,
    /// Wall-clock watchdog deadline: a session whose heartbeat does not
    /// change for this long is cancelled at its next checkpoint. `None`
    /// disables the watchdog thread entirely.
    pub stall: Option<Duration>,
    /// First retry backoff; doubles per resume.
    pub backoff_base: Duration,
    /// Cap on the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            retry_budget: 3,
            stall: Some(Duration::from_secs(30)),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// The classified end of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// The session's label.
    pub label: String,
    /// How it ended.
    pub outcome: Outcome,
    /// Total attempts made, ladder rungs included.
    pub attempts: u32,
    /// Checkpoint resumes used.
    pub resumes: u32,
    /// Times the watchdog cancelled this session for stalling.
    pub watchdog_barks: u32,
    /// Human-readable trail of what happened, in order.
    pub notes: Vec<String>,
}

/// Everything the supervisor did, one entry per session, sorted by
/// label — deterministic however the threads interleaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Per-session classifications, sorted by label.
    pub sessions: Vec<SessionReport>,
}

impl SupervisionReport {
    /// Sessions that completed on the first normal attempt.
    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Completed))
    }

    /// Sessions that finished normally after resumes.
    pub fn recovered(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Recovered { .. }))
    }

    /// Sessions that finished on a degradation-ladder rung.
    pub fn degraded(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Degraded { .. }))
    }

    /// Sessions nothing could save.
    pub fn abandoned(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Abandoned { .. }))
    }

    fn count(&self, pred: impl Fn(&Outcome) -> bool) -> usize {
        self.sessions.iter().filter(|s| pred(&s.outcome)).count()
    }

    /// Renders the report as stable text, one line per session plus a
    /// summary line.
    pub fn render(&self) -> String {
        let mut out = String::from("histpc-supervision v1\n");
        for s in &self.sessions {
            out.push_str(&format!(
                "session {}: {} [{} attempt(s), {} resume(s), {} bark(s)]\n",
                s.label, s.outcome, s.attempts, s.resumes, s.watchdog_barks
            ));
        }
        out.push_str(&format!(
            "summary: {} completed, {} recovered, {} degraded, {} abandoned\n",
            self.completed(),
            self.recovered(),
            self.degraded(),
            self.abandoned()
        ));
        out
    }
}

/// Per-session slot the watchdog polls. Arming is a generation counter
/// (odd = an attempt is live) so the watchdog can reset its notion of
/// "last progress" exactly when a new attempt starts, without sharing
/// any lock with the session thread.
#[derive(Debug, Default)]
struct WatchSlot {
    heartbeat: Arc<AtomicU64>,
    cancel: Arc<AtomicBool>,
    generation: AtomicU64,
    barks: AtomicU32,
    /// True while `cancel` is up because the watchdog barked; a raised
    /// flag without it is the owner's cancel.
    barked: AtomicBool,
}

impl WatchSlot {
    /// The hooks an attempt hands its drive loop.
    fn hooks(&self) -> DriveHooks {
        DriveHooks {
            heartbeat: Some(Arc::clone(&self.heartbeat)),
            cancel: Some(Arc::clone(&self.cancel)),
        }
    }

    /// Lowers the flag only if the watchdog raised it: the owner's
    /// cancel outlives the attempt it interrupted. (An owner's cancel
    /// that lands while a bark is up is taken for the bark.)
    fn arm(&self) {
        if self.barked.swap(false, Ordering::SeqCst) {
            self.cancel.store(false, Ordering::SeqCst);
        }
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// `barked` goes up before `cancel`, so whoever sees the flag a
    /// bark raised also sees the bark.
    fn bark(&self) {
        self.barks.fetch_add(1, Ordering::SeqCst);
        self.barked.store(true, Ordering::SeqCst);
        self.cancel.store(true, Ordering::SeqCst);
    }

    fn owner_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst) && !self.barked.load(Ordering::SeqCst)
    }
}

/// The watchdog's per-slot memory between polls.
struct WatchState {
    generation: u64,
    last_beat: u64,
    since: Instant,
}

/// Polls every slot until `done` disconnects. The watchdog sleeps in
/// poll-sized slices but wakes *immediately* when the last session
/// finishes and the sender drops. (A plain sleep would make every
/// supervised run pay up to one full poll interval of teardown
/// latency, dwarfing the supervision overhead on short runs.)
fn watchdog_loop(slots: &[WatchSlot], stall: Duration, done: &mpsc::Receiver<()>) {
    let poll = (stall / 8).clamp(Duration::from_millis(2), Duration::from_millis(250));
    let mut states: Vec<WatchState> = slots
        .iter()
        .map(|s| WatchState {
            generation: s.generation.load(Ordering::SeqCst),
            last_beat: s.heartbeat.load(Ordering::SeqCst),
            since: Instant::now(),
        })
        .collect();
    while done.recv_timeout(poll) == Err(RecvTimeoutError::Timeout) {
        for (slot, state) in slots.iter().zip(states.iter_mut()) {
            let generation = slot.generation.load(Ordering::SeqCst);
            let beat = slot.heartbeat.load(Ordering::SeqCst);
            if generation != state.generation || beat != state.last_beat {
                // New attempt, or progress: restart the deadline.
                state.generation = generation;
                state.last_beat = beat;
                state.since = Instant::now();
                continue;
            }
            let armed = generation % 2 == 1;
            let already_cancelled = slot.cancel.load(Ordering::SeqCst);
            if armed && !already_cancelled && state.since.elapsed() >= stall {
                slot.bark();
            }
        }
    }
}

/// Deterministic backoff: capped exponential in the attempt number,
/// with a small label-dependent jitter so sibling sessions retrying a
/// contended store do not re-collide in lockstep.
fn backoff(cfg: &SupervisorConfig, label: &str, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    let base = cfg
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(cfg.backoff_cap);
    let hash = histpc_resources::fnv64(label.as_bytes());
    let jitter_us = (hash.rotate_left(attempt) % 1000).max(1);
    base + Duration::from_micros(jitter_us)
}

/// Drives one session to a classified end. Never panics; a driver
/// panic is treated as a tool crash and resumed from the persisted
/// checkpoint.
fn supervise_one(
    driver: &dyn SessionDriver,
    cfg: &SupervisorConfig,
    slot: &WatchSlot,
) -> SessionReport {
    let label = driver.label().to_string();
    let mut notes: Vec<String> = Vec::new();
    let mut attempts = 0u32;
    let mut resumes = 0u32;
    let mut contended = 0u32;
    let mut rung = Rung::Normal;
    // What the next attempt resumes from; `Err` is a persisted
    // checkpoint that does not parse.
    let mut resume: Result<Option<SearchCheckpoint>, String> = Ok(None);
    let mut last_error = String::new();

    let outcome = loop {
        if rung == Rung::HistoryOnly {
            break match driver.prognose() {
                Ok(_) => Outcome::Degraded { rung },
                Err(e) => Outcome::Abandoned {
                    reason: format!("{last_error}; prognosis failed: {e}"),
                },
            };
        }
        attempts += 1;
        let attempt = match &resume {
            Err(e) => Attempt::Failed {
                error: format!("unusable checkpoint: {e}"),
            },
            Ok(checkpoint) => {
                slot.arm();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    driver.attempt(rung, checkpoint.as_ref(), &slot.hooks())
                }));
                slot.disarm();
                // A panic is a crash halt with no inline checkpoint; the
                // persisted one (if any) is loaded below.
                result.unwrap_or_else(|_| {
                    notes.push(format!("attempt {attempts}: session panicked"));
                    Attempt::Halted {
                        checkpoint: None,
                        reason: HaltReason::Crash,
                    }
                })
            }
        };

        let (error, checkpoint) = match attempt {
            Attempt::Done { digest_ok } => {
                if !digest_ok {
                    notes.push(format!(
                        "attempt {attempts}: resumed state diverged from the checkpoint digest"
                    ));
                }
                break match rung {
                    Rung::Normal if resumes == 0 => Outcome::Completed,
                    Rung::Normal => Outcome::Recovered { retries: resumes },
                    rung => Outcome::Degraded { rung },
                };
            }
            Attempt::Contended => {
                contended += 1;
                if contended > CONTENTION_BUDGET {
                    break Outcome::Abandoned {
                        reason: format!("store still contended after {contended} attempts"),
                    };
                }
                std::thread::sleep(backoff(cfg, &label, contended));
                continue;
            }
            Attempt::Halted { checkpoint, reason } => {
                notes.push(format!("attempt {attempts}: halted ({reason})"));
                (format!("halted ({reason})"), checkpoint)
            }
            Attempt::Failed { error } => {
                notes.push(format!("attempt {attempts}: failed: {error}"));
                (error, None)
            }
        };
        // A cancel the watchdog did not bark for came from the owner:
        // it ends the session here, before any resume or escalation.
        if slot.owner_cancelled() {
            break Outcome::Abandoned {
                reason: CANCELLED.into(),
            };
        }
        last_error = error;

        // Resume from a checkpoint while the budget lasts, then step
        // down the ladder; rungs start fresh.
        if rung == Rung::Normal && resumes < cfg.retry_budget {
            resumes += 1;
            resume = match checkpoint {
                Some(c) => Ok(Some(c)),
                None => driver.load_checkpoint(),
            };
            std::thread::sleep(backoff(cfg, &label, resumes));
            continue;
        }
        rung = rung.next();
        notes.push(format!("escalating to {}", rung.describe()));
        resume = Ok(None);
    };

    SessionReport {
        label,
        outcome,
        attempts,
        resumes,
        watchdog_barks: slot.barks.load(Ordering::SeqCst),
        notes,
    }
}

/// Supervises any number of concurrent sessions over one shared store.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
}

impl Supervisor {
    /// A supervisor with the given policy.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        Supervisor { config }
    }

    /// Runs every driver to a classified end, one thread per session
    /// plus (when a stall deadline is configured) one watchdog thread.
    /// Returns when all sessions are classified; the report is sorted
    /// by label.
    pub fn run(&self, drivers: &[&dyn SessionDriver]) -> SupervisionReport {
        let slots: Vec<WatchSlot> = drivers
            .iter()
            .map(|d| WatchSlot {
                cancel: d.cancel_flag().unwrap_or_default(),
                ..WatchSlot::default()
            })
            .collect();
        let (done, watchdog_done) = mpsc::channel::<()>();
        let mut sessions: Vec<SessionReport> = std::thread::scope(|scope| {
            let slots = &slots;
            if let Some(stall) = self.config.stall {
                scope.spawn(move || watchdog_loop(slots, stall, &watchdog_done));
            }
            let handles: Vec<_> = drivers
                .iter()
                .zip(slots)
                .map(|(driver, slot)| {
                    let cfg = &self.config;
                    scope.spawn(move || supervise_one(*driver, cfg, slot))
                })
                .collect();
            let reports = handles
                .into_iter()
                .zip(drivers)
                .map(|(h, driver)| {
                    h.join().unwrap_or_else(|_| SessionReport {
                        label: driver.label().to_string(),
                        outcome: Outcome::Abandoned {
                            reason: "supervision thread panicked".into(),
                        },
                        attempts: 0,
                        resumes: 0,
                        watchdog_barks: 0,
                        notes: Vec::new(),
                    })
                })
                .collect();
            drop(done);
            reports
        });
        sessions.sort_by(|a, b| a.label.cmp(&b.label));
        SupervisionReport { sessions }
    }
}

/// One supervisable diagnosis session: a workload, its search config,
/// and the label its artifacts live under.
pub struct WorkloadSession<'a> {
    session: &'a Session,
    workload: &'a (dyn Workload + Sync),
    config: SearchConfig,
    label: String,
    app: String,
    /// `app/label`, the name supervision reports address this session
    /// by — unambiguous when many apps share one store label.
    display: String,
    /// Where a normal-rung attempt that the supervisor gives no
    /// checkpoint resumes from.
    resume: Option<SearchCheckpoint>,
    cancel: Option<Arc<AtomicBool>>,
}

impl<'a> WorkloadSession<'a> {
    /// A driver running `workload` under `config`, labelled `label`,
    /// persisting through `session`'s store (if it has one).
    pub fn new(
        session: &'a Session,
        workload: &'a (dyn Workload + Sync),
        config: SearchConfig,
        label: impl Into<String>,
    ) -> WorkloadSession<'a> {
        let app = workload.app_spec().name;
        let label = label.into();
        let display = format!("{app}/{label}");
        WorkloadSession {
            session,
            workload,
            config,
            label,
            app,
            display,
            resume: None,
            cancel: None,
        }
    }

    /// Continues a run an earlier process left at `checkpoint`: the
    /// first attempt (and any later normal-rung attempt that has no
    /// newer checkpoint) resumes from it instead of starting fresh.
    pub fn resuming_from(mut self, checkpoint: Option<SearchCheckpoint>) -> WorkloadSession<'a> {
        self.resume = checkpoint;
        self
    }

    /// Lets the caller cancel the session by raising `cancel`; see
    /// [`SessionDriver::cancel_flag`].
    pub fn cancelled_by(mut self, cancel: Arc<AtomicBool>) -> WorkloadSession<'a> {
        self.cancel = Some(cancel);
        self
    }

    /// The config an attempt on `rung` actually runs with: the
    /// session's own config with the supervisor's hooks installed and
    /// the rung's restrictions applied.
    fn config_for(&self, rung: Rung, hooks: &DriveHooks) -> SearchConfig {
        let mut cfg = self.config.clone();
        cfg.hooks = hooks.clone();
        if rung != Rung::Normal {
            // Tighten admission control to half its configured bounds
            // (enabling it if it was off) so the load that wedged the
            // normal attempts is shed at the door.
            let adm = &mut cfg.collector.admission;
            adm.enabled = true;
            adm.max_in_flight = (adm.max_in_flight / 2).max(1);
            adm.sample_budget = (adm.sample_budget / 2).max(64);
            cfg.top_level_only |= rung == Rung::TopLevelOnly;
        }
        cfg
    }
}

impl SessionDriver for WorkloadSession<'_> {
    // The supervisor-facing label is the qualified `app/label` display
    // name, not the bare store label.
    #[allow(clippy::misnamed_getters)]
    fn label(&self) -> &str {
        &self.display
    }

    fn attempt(
        &self,
        rung: Rung,
        resume_from: Option<&SearchCheckpoint>,
        hooks: &DriveHooks,
    ) -> Attempt {
        let resume = match rung {
            Rung::Normal => resume_from.or(self.resume.as_ref()),
            _ => resume_from,
        };
        let cfg = self.config_for(rung, hooks);
        match self
            .session
            .diagnose_faulted(self.workload, &cfg, &self.label, resume)
        {
            Ok(run) => match run.halted {
                None => Attempt::Done {
                    digest_ok: run.resumed_digest_ok,
                },
                Some(reason) => Attempt::Halted {
                    checkpoint: run.checkpoint,
                    reason,
                },
            },
            Err(SessionError::Store(StoreError::Locked { .. })) => Attempt::Contended,
            Err(e) => Attempt::Failed {
                error: e.to_string(),
            },
        }
    }

    fn load_checkpoint(&self) -> Result<Option<SearchCheckpoint>, String> {
        let Some(store) = self.session.store() else {
            return Ok(None);
        };
        match store.load_artifact(&self.app, &self.label, "ckpt") {
            Ok(text) => SearchCheckpoint::parse(&text).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// The last ladder rung: a prognosis derived purely from the
    /// application's stored history — which bottlenecks past runs
    /// concluded, how often, and at what magnitude — with no
    /// instrumentation at all. Persisted as a `prognosis` artifact
    /// under the session's label (best effort: a locked store does not
    /// fail the rung).
    fn prognose(&self) -> Result<String, String> {
        let store = self
            .session
            .store()
            .ok_or_else(|| "no store attached".to_string())?;
        let labels = store.labels(&self.app).map_err(|e| e.to_string())?;
        let recent = labels.iter().rev().take(PROGNOSIS_WINDOW).rev();
        let mut runs = 0usize;
        let mut seen: BTreeMap<(String, String), (usize, f64)> = BTreeMap::new();
        for label in recent {
            let Ok(rec) = store.load(&self.app, label) else {
                continue;
            };
            runs += 1;
            for o in rec
                .outcomes
                .iter()
                .filter(|o| o.outcome == histpc_consultant::Outcome::True)
            {
                let entry = seen
                    .entry((o.hypothesis.clone(), o.focus.to_string()))
                    .or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += o.last_value;
            }
        }
        if runs == 0 {
            return Err(format!("no stored history for application {}", self.app));
        }
        let mut text = format!("histpc-prognosis v1\napp {}\nruns {runs}\n", self.app);
        for ((hyp, focus), (count, sum)) in &seen {
            text.push_str(&format!(
                "bottleneck {hyp} {focus} seen {count}/{runs} mean {:.4}\n",
                sum / *count as f64
            ));
        }
        let _ = store.save_artifact(&self.app, &self.label, "prognosis", &text);
        Ok(text)
    }

    fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.cancel.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_sim::workloads::SyntheticWorkload;
    use histpc_sim::{SimDuration, SimTime};
    use std::sync::Mutex;

    /// What a scripted attempt should do.
    enum Step {
        Done,
        DoneDigestBad,
        Halt(HaltReason),
        Panic,
        Contend,
        Fail,
        /// Spin without heartbeats until the watchdog cancels us.
        WaitForCancel,
        /// Raise the cancel flag the way the session's owner would,
        /// then halt.
        OwnerCancel(HaltReason),
    }

    fn ckpt(at_us: u64) -> SearchCheckpoint {
        SearchCheckpoint {
            at: SimTime::from_micros(at_us),
            digest: at_us,
        }
    }

    /// The checkpoint a scripted halt leaves behind.
    fn halt_ckpt(reason: HaltReason) -> SearchCheckpoint {
        ckpt(match reason {
            HaltReason::Crash => 1,
            HaltReason::Stall => 2,
            HaltReason::Cancelled => 3,
        })
    }

    const PERSISTED: u64 = 99;

    struct Mock {
        label: String,
        steps: Mutex<Vec<Step>>,
        persisted_ckpt: Result<Option<SearchCheckpoint>, String>,
        prognosis: Result<String, String>,
        modes_seen: Mutex<Vec<Rung>>,
        resumes_seen: Mutex<Vec<Option<SearchCheckpoint>>>,
    }

    impl Mock {
        fn new(label: &str, steps: Vec<Step>) -> Mock {
            Mock {
                label: label.into(),
                steps: Mutex::new(steps),
                persisted_ckpt: Ok(Some(ckpt(PERSISTED))),
                prognosis: Ok("prognosis".into()),
                modes_seen: Mutex::new(Vec::new()),
                resumes_seen: Mutex::new(Vec::new()),
            }
        }
    }

    impl SessionDriver for Mock {
        fn label(&self) -> &str {
            &self.label
        }

        fn attempt(
            &self,
            rung: Rung,
            resume_from: Option<&SearchCheckpoint>,
            hooks: &DriveHooks,
        ) -> Attempt {
            self.modes_seen.lock().unwrap().push(rung);
            self.resumes_seen.lock().unwrap().push(resume_from.copied());
            let step = {
                let mut steps = self.steps.lock().unwrap();
                if steps.is_empty() {
                    Step::Done
                } else {
                    steps.remove(0)
                }
            };
            let cancel = hooks.cancel.as_ref().unwrap();
            match step {
                Step::Done => Attempt::Done { digest_ok: true },
                Step::DoneDigestBad => Attempt::Done { digest_ok: false },
                Step::Halt(reason) => Attempt::Halted {
                    checkpoint: Some(halt_ckpt(reason)),
                    reason,
                },
                Step::Panic => panic!("injected session panic"),
                Step::Contend => Attempt::Contended,
                Step::Fail => Attempt::Failed {
                    error: "store exploded".into(),
                },
                Step::WaitForCancel => {
                    while !cancel.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Attempt::Halted {
                        checkpoint: Some(ckpt(7)),
                        reason: HaltReason::Cancelled,
                    }
                }
                Step::OwnerCancel(reason) => {
                    cancel.store(true, Ordering::SeqCst);
                    Attempt::Halted {
                        checkpoint: Some(halt_ckpt(reason)),
                        reason,
                    }
                }
            }
        }

        fn load_checkpoint(&self) -> Result<Option<SearchCheckpoint>, String> {
            self.persisted_ckpt.clone()
        }

        fn prognose(&self) -> Result<String, String> {
            self.prognosis.clone()
        }
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            stall: None,
            ..SupervisorConfig::default()
        }
    }

    fn run_one(driver: &Mock, cfg: SupervisorConfig) -> SessionReport {
        let report = Supervisor::new(cfg).run(&[driver]);
        assert_eq!(report.sessions.len(), 1);
        report.sessions.into_iter().next().unwrap()
    }

    #[test]
    fn clean_session_completes_first_try() {
        let m = Mock::new("a", vec![Step::Done]);
        let r = run_one(&m, quick_config());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.resumes, 0);
    }

    #[test]
    fn crash_resumes_from_its_checkpoint_and_recovers() {
        let m = Mock::new("a", vec![Step::Halt(HaltReason::Crash), Step::Done]);
        let r = run_one(&m, quick_config());
        assert_eq!(r.outcome, Outcome::Recovered { retries: 1 });
        assert_eq!(r.attempts, 2);
        // The second attempt resumed from the checkpoint the halt
        // returned, not the persisted fallback.
        let resumes = m.resumes_seen.lock().unwrap();
        assert_eq!(resumes[1], Some(halt_ckpt(HaltReason::Crash)));
    }

    #[test]
    fn panic_resumes_from_the_persisted_checkpoint() {
        let m = Mock::new("a", vec![Step::Panic, Step::Done]);
        let r = run_one(&m, quick_config());
        assert_eq!(r.outcome, Outcome::Recovered { retries: 1 });
        let resumes = m.resumes_seen.lock().unwrap();
        assert_eq!(resumes[1], Some(ckpt(PERSISTED)));
    }

    /// A persisted checkpoint that does not parse fails every resume
    /// without reaching the driver, and the ladder takes over.
    #[test]
    fn unusable_persisted_checkpoint_fails_the_resumes() {
        let mut m = Mock::new("a", vec![Step::Panic, Step::Done]);
        m.persisted_ckpt = Err("garbled".into());
        let r = run_one(&m, quick_config());
        assert_eq!(
            r.outcome,
            Outcome::Degraded {
                rung: Rung::TightenAdmission
            }
        );
        assert!(
            r.notes
                .contains(&"attempt 2: failed: unusable checkpoint: garbled".to_string()),
            "{:?}",
            r.notes
        );
        assert_eq!(
            *m.modes_seen.lock().unwrap(),
            [Rung::Normal, Rung::TightenAdmission]
        );
    }

    #[test]
    fn exhausted_retries_climb_the_ladder() {
        // Four stalls burn the first attempt and the 3-resume budget;
        // the tightened-admission rung then completes.
        let m = Mock::new(
            "a",
            vec![
                Step::Halt(HaltReason::Stall),
                Step::Halt(HaltReason::Stall),
                Step::Halt(HaltReason::Stall),
                Step::Halt(HaltReason::Stall),
                Step::Done,
            ],
        );
        let r = run_one(&m, quick_config());
        assert_eq!(
            r.outcome,
            Outcome::Degraded {
                rung: Rung::TightenAdmission
            }
        );
        let modes = m.modes_seen.lock().unwrap();
        assert_eq!(modes[4], Rung::TightenAdmission);
        // Ladder rungs start fresh, never from a stall checkpoint.
        assert_eq!(m.resumes_seen.lock().unwrap()[4], None);
    }

    #[test]
    fn full_ladder_falls_back_to_history_only() {
        let always_halt: Vec<Step> = (0..8).map(|_| Step::Halt(HaltReason::Stall)).collect();
        let m = Mock::new("a", always_halt);
        let r = run_one(&m, quick_config());
        assert_eq!(
            r.outcome,
            Outcome::Degraded {
                rung: Rung::HistoryOnly
            }
        );
        let modes = m.modes_seen.lock().unwrap();
        assert_eq!(modes[4], Rung::TightenAdmission);
        assert_eq!(modes[5], Rung::TopLevelOnly);
        assert_eq!(modes.len(), 6);
    }

    #[test]
    fn failed_prognosis_abandons_with_both_causes() {
        let mut m = Mock::new("a", (0..8).map(|_| Step::Halt(HaltReason::Crash)).collect());
        m.prognosis = Err("no history".into());
        let r = run_one(&m, quick_config());
        match r.outcome {
            Outcome::Abandoned { reason } => {
                assert!(reason.contains("halted"), "reason: {reason}");
                assert!(reason.contains("no history"), "reason: {reason}");
            }
            other => panic!("expected abandonment, got {other:?}"),
        }
    }

    #[test]
    fn contention_retries_do_not_consume_the_retry_budget() {
        let m = Mock::new("a", vec![Step::Contend, Step::Contend, Step::Done]);
        let r = run_one(&m, quick_config());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.attempts, 3);
        assert_eq!(r.resumes, 0);
    }

    #[test]
    fn endless_contention_abandons() {
        let m = Mock::new("a", (0..64).map(|_| Step::Contend).collect());
        let r = run_one(&m, quick_config());
        assert!(matches!(r.outcome, Outcome::Abandoned { .. }));
    }

    #[test]
    fn store_failure_consumes_retries_then_ladder() {
        let m = Mock::new("a", vec![Step::Fail, Step::Done]);
        let r = run_one(&m, quick_config());
        assert_eq!(r.outcome, Outcome::Recovered { retries: 1 });
    }

    #[test]
    fn watchdog_cancels_a_silent_session() {
        let m = Mock::new("a", vec![Step::WaitForCancel, Step::Done]);
        let cfg = SupervisorConfig {
            stall: Some(Duration::from_millis(30)),
            ..quick_config()
        };
        let r = run_one(&m, cfg);
        assert_eq!(r.outcome, Outcome::Recovered { retries: 1 });
        assert!(r.watchdog_barks >= 1, "watchdog never barked: {r:?}");
    }

    /// The owner's cancel ends the session after the attempt it
    /// interrupted, whatever that attempt reports: no resume, no
    /// ladder, no prognosis — and nothing lowers the owner's flag.
    #[test]
    fn owner_cancel_abandons_without_resume_or_ladder() {
        for reason in [HaltReason::Cancelled, HaltReason::Crash] {
            let mut m = Mock::new("a", vec![Step::OwnerCancel(reason)]);
            m.prognosis = Err("prognosis must not run".into());
            let r = run_one(&m, quick_config());
            assert_eq!(
                r.outcome,
                Outcome::Abandoned {
                    reason: CANCELLED.into()
                },
                "{reason}: {r:?}"
            );
            assert_eq!((r.attempts, r.resumes), (1, 0), "{reason}");
        }
        let flag = Arc::new(AtomicBool::new(true));
        let m = Mock::new("a", vec![Step::Halt(HaltReason::Cancelled)]);
        let r = supervise_one(
            &m,
            &quick_config(),
            &WatchSlot {
                cancel: Arc::clone(&flag),
                ..WatchSlot::default()
            },
        );
        assert_eq!(r.outcome.to_string(), "abandoned: cancelled by client");
        assert!(
            flag.load(Ordering::SeqCst),
            "arming lowered the owner's flag"
        );
    }

    #[test]
    fn heartbeats_keep_the_watchdog_quiet() {
        struct Beater {
            label: String,
        }
        impl SessionDriver for Beater {
            fn label(&self) -> &str {
                &self.label
            }
            fn attempt(
                &self,
                _: Rung,
                _: Option<&SearchCheckpoint>,
                hooks: &DriveHooks,
            ) -> Attempt {
                let heartbeat = hooks.heartbeat.as_ref().unwrap();
                for i in 0..20u64 {
                    heartbeat.store(i + 1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                }
                Attempt::Done { digest_ok: true }
            }
            fn load_checkpoint(&self) -> Result<Option<SearchCheckpoint>, String> {
                Ok(None)
            }
            fn prognose(&self) -> Result<String, String> {
                Err("unused".into())
            }
        }
        let b = Beater { label: "a".into() };
        let cfg = SupervisorConfig {
            stall: Some(Duration::from_millis(40)),
            ..quick_config()
        };
        let report = Supervisor::new(cfg).run(&[&b]);
        assert_eq!(report.sessions[0].outcome, Outcome::Completed);
        assert_eq!(report.sessions[0].watchdog_barks, 0);
    }

    #[test]
    fn report_is_sorted_by_label_and_renders_stably() {
        let c = Mock::new("c", vec![Step::Done]);
        let a = Mock::new("a", vec![Step::Halt(HaltReason::Crash), Step::Done]);
        let b = Mock::new("b", (0..8).map(|_| Step::Halt(HaltReason::Stall)).collect());
        let report = Supervisor::new(quick_config()).run(&[&c, &a, &b]);
        let labels: Vec<&str> = report.sessions.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.recovered(), 1);
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.abandoned(), 0);
        let text = report.render();
        assert!(text.starts_with("histpc-supervision v1\n"));
        assert!(text.contains("session a: recovered after 1 resume(s)"));
        assert!(text.contains("session b: degraded (history-only)"));
        assert!(text.contains("summary: 1 completed, 1 recovered, 1 degraded, 0 abandoned"));
    }

    #[test]
    fn digest_divergence_is_noted_not_fatal() {
        let m = Mock::new(
            "a",
            vec![Step::Halt(HaltReason::Crash), Step::DoneDigestBad],
        );
        let r = run_one(&m, quick_config());
        assert_eq!(r.outcome, Outcome::Recovered { retries: 1 });
        assert!(r.notes.iter().any(|n| n.contains("diverged")));
    }

    fn fast_config() -> SearchConfig {
        SearchConfig {
            window: SimDuration::from_millis(800),
            sample: SimDuration::from_millis(100),
            max_time: SimDuration::from_secs(120),
            ..SearchConfig::default()
        }
    }

    fn quick_supervisor() -> Supervisor {
        Supervisor::new(SupervisorConfig {
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            stall: None,
            ..SupervisorConfig::default()
        })
    }

    #[test]
    fn clean_session_completes_and_matches_bare_diagnosis() {
        let dir = std::env::temp_dir().join(format!("histpc-supglue-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);

        let driver = WorkloadSession::new(&session, &wl, fast_config(), "sup");
        let report = quick_supervisor().run(&[&driver]);
        assert_eq!(report.sessions[0].outcome, Outcome::Completed);

        // Zero-fault supervised run produces the identical record a bare
        // Session::diagnose would have.
        let bare = Session::new().diagnose(&wl, &fast_config(), "sup").unwrap();
        let stored = session.store().unwrap().load("synth", "sup").unwrap();
        assert_eq!(
            histpc_history::format::write_record(&stored),
            histpc_history::format::write_record(&bare.record),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_recovers_through_the_persisted_checkpoint() {
        let dir = std::env::temp_dir().join(format!("histpc-suprec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let mut config = fast_config();
        config.faults.tool_crash_at = Some(SimTime::from_micros(1_000_000));

        let driver = WorkloadSession::new(&session, &wl, config, "rec");
        let report = quick_supervisor().run(&[&driver]);
        assert_eq!(
            report.sessions[0].outcome,
            Outcome::Recovered { retries: 1 },
            "notes: {:?}",
            report.sessions[0].notes
        );
        // The recovered run superseded its checkpoint artifact.
        assert!(session
            .store()
            .unwrap()
            .orphaned_checkpoints()
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_checkpoint_is_parsed_where_it_is_loaded() {
        let dir = std::env::temp_dir().join(format!("histpc-supckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
        let driver = WorkloadSession::new(&session, &wl, fast_config(), "c");
        assert_eq!(driver.load_checkpoint(), Ok(None));
        let store = session.store().unwrap();
        store
            .save_artifact("synth", "c", "ckpt", &ckpt(5).to_text())
            .unwrap();
        assert_eq!(driver.load_checkpoint(), Ok(Some(ckpt(5))));
        store
            .save_artifact("synth", "c", "ckpt", "not a checkpoint\n")
            .unwrap();
        let err = driver.load_checkpoint().unwrap_err();
        assert!(err.contains("histpc-ckpt v1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_drive_loop_degrades_down_the_ladder() {
        let dir = std::env::temp_dir().join(format!("histpc-supstall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
        // Seed history so the last rung has something to prognose from.
        session.diagnose(&wl, &fast_config(), "seed").unwrap();

        // Every sample dropped and a data timeout past max_time: the
        // search can never progress nor conclude, under any rung — only
        // the in-loop stall detector ends each attempt.
        let mut config = fast_config();
        config.faults.drop_rate = 1.0;
        config.faults.seed = 9;
        config.data_timeout = SimDuration::from_secs(600);
        config.max_time = SimDuration::from_secs(300);
        config.stall = Some(SimDuration::from_secs(2));

        let driver = WorkloadSession::new(&session, &wl, config, "stuck");
        let report = quick_supervisor().run(&[&driver]);
        assert_eq!(
            report.sessions[0].outcome,
            Outcome::Degraded {
                rung: Rung::HistoryOnly
            },
            "notes: {:?}",
            report.sessions[0].notes
        );
        // The prognosis artifact landed, derived from the seed run.
        let text = session
            .store()
            .unwrap()
            .load_artifact("synth", "stuck", "prognosis")
            .unwrap();
        assert!(text.starts_with("histpc-prognosis v1\n"), "{text}");
        assert!(text.contains("bottleneck "), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prognosis_without_history_abandons() {
        let dir = std::env::temp_dir().join(format!("histpc-supnohist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
        let mut config = fast_config();
        config.faults.drop_rate = 1.0;
        config.faults.seed = 9;
        config.data_timeout = SimDuration::from_secs(600);
        config.max_time = SimDuration::from_secs(300);
        config.stall = Some(SimDuration::from_secs(2));

        let driver = WorkloadSession::new(&session, &wl, config, "doomed");
        let report = quick_supervisor().run(&[&driver]);
        assert!(
            matches!(
                &report.sessions[0].outcome,
                Outcome::Abandoned { reason } if reason.contains("no stored history")
            ),
            "outcome: {:?}",
            report.sessions[0].outcome
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
