//! `histpcd` — a crash-tolerant diagnosis-as-a-service daemon.
//!
//! The daemon multiplexes concurrent diagnosis sessions from many
//! *tenants* over one shared [`ExecutionStore`], speaking the
//! line-oriented [`histpc::remote`] protocol (`histpcd/v1`) on a
//! Unix-domain socket. It composes machinery this workspace already
//! has, rather than reinventing it:
//!
//! * every session runs under the full supervision ladder
//!   ([`histpc::supervise`]): heartbeat watchdog, checkpoint
//!   auto-resume under a retry budget, escalating degradation — so
//!   every accepted session ends *classified* (`completed`,
//!   `recovered`, `degraded`, or `abandoned`), never silently lost;
//! * per-tenant quotas map onto the admission controller's knobs:
//!   each tenant gets a bounded slot pool (bulkhead — one tenant's
//!   saturation returns `busy` to that tenant without touching the
//!   others) and a sample budget whose per-session slice becomes the
//!   session's [`AdmissionConfig`] bound whenever the fault plan
//!   touches overload;
//! * every accepted session writes a crash-safe *lease*
//!   ([`histpc::history::lease`]) before any work runs — tmp+rename
//!   installed and checksum-framed, carrying the full start spec.
//!
//! # Crash recovery
//!
//! A killed daemon leaves leases behind. The next incarnation, *before
//! accepting any new work*: advances the persisted lease epoch and
//! declares it to the advisory-lock layer (so an epoch-stale lock from
//! the dead predecessor is broken even if its pid was reused); then
//! scans every lease and either
//!
//! * marks the session **completed** (its record is already in the
//!   store — the crash happened after the save),
//! * **re-adopts** it (a checkpoint exists: the session restarts under
//!   supervision, resuming from the persisted checkpoint), or
//! * classifies it **abandoned** (no checkpoint — nothing to resume)
//!   and removes the lease.
//!
//! A lease that survives all of this (e.g. seen by `histpc ls` while
//! no daemon is running) is an *orphaned lease*, lint code HL035.
//!
//! # Protocol features
//!
//! Idempotent `start` per `(tenant, label)` — retrying a start whose
//! response was lost cannot double-run a session; `attach` with a
//! bounded wait and optional request deadline; `report` returning the
//! stored record text bit-identically; `health`/`drain`/`shutdown`
//! for operators; idle connections are reaped after a configurable
//! timeout so a stalled client cannot pin a handler thread forever.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use histpc::history::lease::{self, Lease};
use histpc::history::lock;
use histpc::prelude::*;
use histpc::remote::{Request, Response, PROTOCOL};
use histpc::supervise::Outcome as SupOutcome;
use histpc::RunSpec;

/// Retry hint (ms) returned with `busy` — how long a tenant should
/// back off when its slot pool is full.
const BUSY_RETRY_MS: u64 = 200;

/// Retry hint (ms) returned with `quota` — sample budget exhausted;
/// budget frees only when a session ends, so the hint is longer.
const QUOTA_RETRY_MS: u64 = 500;

/// Locks `m` even if a thread panicked while holding it. Every critical
/// section here inserts, replaces or reads whole values, so a poisoned
/// lock still guards consistent state — and one panicking session
/// thread must not take every tenant down with it.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything `histpcd` needs to serve one store on one socket.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the shared execution store.
    pub store_root: PathBuf,
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Concurrent-session slots per tenant (the bulkhead width).
    pub tenant_slots: usize,
    /// Total sample budget per tenant, divided among its in-flight
    /// sessions; a `start` whose slice cannot be carved returns
    /// `quota`.
    pub tenant_sample_budget: u64,
    /// Idle-connection reap deadline: a connection with no complete
    /// request for this long is closed.
    pub idle_timeout: Duration,
    /// Checkpoint-resume retry budget per session (supervision).
    pub retry_budget: u32,
    /// Wall-clock stall deadline per session (supervision watchdog).
    pub stall: Option<Duration>,
}

impl DaemonConfig {
    /// A config with the default quota/supervision knobs.
    pub fn new(store_root: impl Into<PathBuf>, socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            store_root: store_root.into(),
            socket: socket.into(),
            tenant_slots: 2,
            tenant_sample_budget: 4096,
            idle_timeout: Duration::from_secs(30),
            retry_budget: 3,
            stall: Some(Duration::from_secs(30)),
        }
    }
}

/// Errors starting or running the daemon.
#[derive(Debug)]
pub enum DaemonError {
    /// A live daemon already answers on the socket.
    AlreadyRunning(PathBuf),
    /// The store could not be opened.
    Store(String),
    /// Socket/filesystem failure.
    Io(io::Error),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::AlreadyRunning(p) => {
                write!(f, "a daemon is already serving {}", p.display())
            }
            DaemonError::Store(e) => write!(f, "store error: {e}"),
            DaemonError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<io::Error> for DaemonError {
    fn from(e: io::Error) -> Self {
        DaemonError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Session configs
// ---------------------------------------------------------------------------

/// The search config a session runs with: its spec's, with a 2 s
/// in-loop stall. Per-tenant quotas map onto the admission controller
/// only when the fault plan touches overload — a zero-fault session must
/// stay bit-identical to an unsupervised `Session::diagnose`, and the
/// admission layer is a total no-op only when disabled.
fn session_config(spec: &RunSpec, budget_slice: u64, slots: usize) -> Result<SearchConfig, String> {
    let mut config = spec.search_config()?;
    config.stall = Some(SimDuration::from_secs(2));
    if config.faults.touches_overload() {
        let adm = &mut config.collector.admission;
        adm.enabled = true;
        adm.sample_budget = budget_slice.max(64);
        adm.max_in_flight = (adm.max_in_flight / slots.max(1)).max(1);
    }
    Ok(config)
}

// ---------------------------------------------------------------------------
// Session registry
// ---------------------------------------------------------------------------

/// Where one session is in its life.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SessionState {
    Running,
    /// Terminal, with its supervision classification.
    Done {
        classification: String,
        detail: String,
    },
}

#[derive(Debug)]
struct SessionEntry {
    tenant: String,
    /// The application spec the session was started by (the lease's
    /// store name when its spec line is unusable), and its label.
    app: String,
    label: String,
    /// The application name the store keys this session's record and
    /// artifacts under ([`AppSpec::name`], not the catalogue spec
    /// string a client starts it by).
    store_app: String,
    state: SessionState,
    cancel: Arc<AtomicBool>,
    /// Sample-budget slice this session holds against its tenant.
    budget: u64,
    /// True when this entry was re-adopted from a crashed daemon's
    /// lease rather than started by a client of this incarnation.
    adopted: bool,
}

/// What startup lease recovery did, for operators and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdoptionReport {
    /// Sessions re-adopted from checkpoints (now running).
    pub adopted: Vec<String>,
    /// Sessions whose record was already stored (completed pre-crash).
    pub completed: Vec<String>,
    /// Sessions with no checkpoint to resume (classified abandoned).
    pub abandoned: Vec<String>,
    /// Damaged lease files that were removed.
    pub damaged: Vec<String>,
}

/// Daemon-wide serving state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Serving {
    Accepting,
    Draining,
    ShuttingDown,
}

struct Inner {
    cfg: DaemonConfig,
    session: Session,
    epoch: u64,
    /// Filled once by startup lease recovery, before the socket binds.
    adoption: Mutex<AdoptionReport>,
    registry: Mutex<HashMap<String, SessionEntry>>,
    /// Rings whenever a session reaches a terminal state.
    bell: Condvar,
    serving: Mutex<Serving>,
    /// Session threads not yet joined: the running ones, and any that
    /// finished since the last session started.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn key(tenant: &str, label: &str) -> String {
        format!("{tenant}/{label}")
    }

    fn active_count(&self, registry: &HashMap<String, SessionEntry>) -> usize {
        registry
            .values()
            .filter(|e| e.state == SessionState::Running)
            .count()
    }

    /// Classify a finished session, release its lease, ring the bell.
    fn finish(&self, key: &str, classification: &str, detail: String) {
        let mut registry = locked(&self.registry);
        if let Some(entry) = registry.get_mut(key) {
            entry.state = SessionState::Done {
                classification: classification.to_string(),
                detail,
            };
            let _ = lease::remove_lease(&self.cfg.store_root, &entry.tenant, &entry.label);
        }
        self.bell.notify_all();
    }

    /// Spawns the supervised session thread for an accepted spec.
    /// Caller must already hold a registry entry for it.
    fn spawn_session(
        self: &Arc<Inner>,
        tenant: String,
        spec: RunSpec,
        cancel: Arc<AtomicBool>,
        budget: u64,
        adopt_ckpt: Option<SearchCheckpoint>,
    ) {
        let inner = Arc::clone(self);
        let handle = std::thread::spawn(move || {
            let key = Inner::key(&tenant, &spec.label);
            let built = histpc::apps::build_workload(&spec.app, spec.seed)
                .and_then(|wl| Ok((wl, session_config(&spec, budget, inner.cfg.tenant_slots)?)));
            let (workload, mut config) = match built {
                Ok(built) => built,
                Err(e) => {
                    inner.finish(&key, "abandoned", format!("abandoned: {e}"));
                    return;
                }
            };
            if let Some(from) = &spec.harvest_from {
                // Trust-weighted harvest scoped to this tenant: source
                // runs are keyed `tenant/app/label` in the ledger, so a
                // tenant that poisons its own history only ever taints
                // its own trust. A failed harvest degrades to an
                // unguided run rather than killing the session —
                // history is an accelerant, never a requirement.
                let app_name = workload.app_spec().name;
                match inner.session.harvest_scoped(
                    &app_name,
                    from,
                    &histpc::history::ExtractionOptions::priorities_and_safe_prunes(),
                    Some(&tenant),
                ) {
                    Ok(directives) => config.directives = directives,
                    Err(e) => eprintln!(
                        "histpcd: harvest-from {app_name}/{from} failed for {key}: {e}; \
                         running without history"
                    ),
                }
            }
            // The client's cancel flag is the one the watchdog and the
            // drive loop share; a re-adopted session continues from the
            // checkpoint its dead predecessor left.
            let driver =
                WorkloadSession::new(&inner.session, workload.as_ref(), config, &spec.label)
                    .resuming_from(adopt_ckpt)
                    .cancelled_by(cancel);
            let sup = Supervisor::new(SupervisorConfig {
                retry_budget: inner.cfg.retry_budget,
                stall: inner.cfg.stall,
                ..SupervisorConfig::default()
            });
            let report = sup.run(&[&driver]);
            let session = &report.sessions[0];
            let classification = match &session.outcome {
                SupOutcome::Completed => "completed",
                SupOutcome::Recovered { .. } => "recovered",
                SupOutcome::Degraded { .. } => "degraded",
                SupOutcome::Abandoned { .. } => "abandoned",
            };
            inner.finish(&key, classification, session.outcome.to_string());
        });
        let mut workers = locked(&self.workers);
        reap(&mut workers);
        workers.push(handle);
    }
}

/// Joins every session thread in `workers` that has exited, so that a
/// long-lived daemon keeps no finished thread's stack.
fn reap(workers: &mut Vec<JoinHandle<()>>) {
    let (done, running): (Vec<_>, Vec<_>) = std::mem::take(workers)
        .into_iter()
        .partition(JoinHandle::is_finished);
    *workers = running;
    for h in done {
        let _ = h.join();
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// A running `histpcd` instance: lease recovery already done, socket
/// bound, accept loop live on a background thread.
pub struct Daemon {
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon: advances the lease epoch, breaks epoch-stale
    /// locks, opens the store, classifies every leftover lease
    /// (re-adopting from checkpoints), then binds the socket and
    /// starts accepting.
    pub fn start(cfg: DaemonConfig) -> Result<Daemon, DaemonError> {
        // Refuse to double-serve: a connectable socket means a live
        // daemon; a dead one leaves a stale file we can reclaim.
        if cfg.socket.exists() {
            if UnixStream::connect(&cfg.socket).is_ok() {
                return Err(DaemonError::AlreadyRunning(cfg.socket.clone()));
            }
            std::fs::remove_file(&cfg.socket)?;
        }

        // New incarnation: persist the next lease epoch and declare it
        // to the lock layer *before* opening the store, so recovery can
        // break a dead predecessor's lock even if its pid was reused.
        let epoch = lease::next_epoch(&cfg.store_root)?;
        lock::set_lease_epoch(epoch);

        let session =
            Session::with_store(&cfg.store_root).map_err(|e| DaemonError::Store(e.to_string()))?;

        let inner = Arc::new(Inner {
            session,
            epoch,
            adoption: Mutex::new(AdoptionReport::default()),
            registry: Mutex::new(HashMap::new()),
            bell: Condvar::new(),
            serving: Mutex::new(Serving::Accepting),
            workers: Mutex::new(Vec::new()),
            cfg: cfg.clone(),
        });

        // Lease recovery happens BEFORE the listener exists: no new
        // work can race the adoption scan.
        let adoption = Self::adopt_leases(&inner)?;
        *locked(&inner.adoption) = adoption;

        let listener = UnixListener::bind(&cfg.socket)?;
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::spawn(move || accept_loop(&accept_inner, &listener));
        Ok(Daemon {
            inner,
            accept_thread: Some(accept_thread),
        })
    }

    /// Scans leftover leases and classifies each (see module docs).
    /// Re-adopted sessions are spawned immediately; their registry
    /// entries predate the first client connection.
    fn adopt_leases(inner: &Arc<Inner>) -> Result<AdoptionReport, DaemonError> {
        let root = &inner.cfg.store_root;
        let store = inner
            .session
            .store()
            .ok_or_else(|| DaemonError::Store("daemon session has no store".into()))?;
        let mut report = AdoptionReport::default();
        for (file, parsed) in lease::read_leases(root)? {
            let lease = match parsed {
                Ok(l) => l,
                Err(why) => {
                    // A damaged lease names nothing re-adoptable;
                    // remove it so it cannot shadow future sessions.
                    let _ = std::fs::remove_file(root.join(lease::LEASE_DIR).join(&file));
                    report.damaged.push(format!("{file}: {why}"));
                    continue;
                }
            };
            let key = Inner::key(&lease.tenant, &lease.label);
            let spec = RunSpec::from_spec_line(&lease.spec);
            let record_exists = store.load(&lease.app, &lease.label).is_ok();
            // A checkpoint that does not parse still re-adopts, fresh:
            // resume replays from t = 0 anyway, so only the digest
            // check at the checkpoint is lost.
            let checkpoint = store
                .load_artifact(&lease.app, &lease.label, "ckpt")
                .ok()
                .map(|text| SearchCheckpoint::parse(&text).ok());
            // Every recovered entry carries the lease's identity; only
            // its state, budget and cancel flag differ.
            let app = spec.as_ref().map_or(&lease.app, |s| &s.app).clone();
            let entry = |state: SessionState, budget: u64, cancel: Arc<AtomicBool>| SessionEntry {
                tenant: lease.tenant.clone(),
                app: app.clone(),
                label: lease.label.clone(),
                store_app: lease.app.clone(),
                state,
                cancel,
                budget,
                adopted: true,
            };
            let mut registry = locked(&inner.registry);
            match (record_exists, checkpoint, spec) {
                // Crash landed after the record was saved: done.
                (true, _, _) => {
                    let _ = lease::remove_lease(root, &lease.tenant, &lease.label);
                    let done = SessionState::Done {
                        classification: "completed".into(),
                        detail: "completed before daemon crash".into(),
                    };
                    registry.insert(key.clone(), entry(done, 0, Arc::default()));
                    report.completed.push(key);
                }
                // Checkpoint + usable spec: re-adopt under supervision.
                (false, Some(ckpt), Ok(spec)) => {
                    let budget = spec
                        .budget
                        .unwrap_or(inner.cfg.tenant_sample_budget / inner.cfg.tenant_slots as u64);
                    let cancel = Arc::new(AtomicBool::new(false));
                    // Re-write the lease under OUR epoch: if we crash
                    // too, the next incarnation re-adopts again.
                    let _ = lease::write_lease(
                        root,
                        &Lease {
                            epoch: inner.epoch,
                            ..lease.clone()
                        },
                    );
                    let running = entry(SessionState::Running, budget, Arc::clone(&cancel));
                    registry.insert(key.clone(), running);
                    drop(registry);
                    inner.spawn_session(lease.tenant.clone(), spec, cancel, budget, ckpt);
                    report.adopted.push(key);
                }
                // No checkpoint (or an unusable spec): nothing to
                // resume — classified abandoned, lease released.
                (false, ckpt, spec) => {
                    let _ = lease::remove_lease(root, &lease.tenant, &lease.label);
                    let why = match (&ckpt, &spec) {
                        (None, _) => "no checkpoint to re-adopt".to_string(),
                        (_, Err(e)) => format!("unusable lease spec: {e}"),
                        _ => unreachable!("adoptable leases are handled above"),
                    };
                    let done = SessionState::Done {
                        classification: "abandoned".into(),
                        detail: format!("abandoned: {why}"),
                    };
                    registry.insert(key.clone(), entry(done, 0, Arc::default()));
                    report.abandoned.push(key);
                }
            }
        }
        Ok(report)
    }

    /// The daemon's lease epoch for this incarnation.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// What startup lease recovery found and did.
    pub fn adoption(&self) -> AdoptionReport {
        locked(&self.inner.adoption).clone()
    }

    /// The socket path this daemon serves on.
    pub fn socket(&self) -> &std::path::Path {
        &self.inner.cfg.socket
    }

    /// Blocks until a `shutdown` request stops the daemon, then joins
    /// every session thread (sessions run to their classified end).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let workers = std::mem::take(&mut *locked(&self.inner.workers));
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
    }
}

// ---------------------------------------------------------------------------
// Accept + connection handling
// ---------------------------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, listener: &UnixListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if *locked(&inner.serving) == Serving::ShuttingDown {
                    // The self-poke (or a late client): stop accepting.
                    return;
                }
                let conn_inner = Arc::clone(inner);
                std::thread::spawn(move || {
                    let _ = handle_conn(&conn_inner, stream);
                });
            }
            Err(_) => return,
        }
    }
}

/// Reads one line with the idle-reap timeout; distinguishes timeout
/// (reap) from EOF and hard errors.
fn read_request_line(reader: &mut BufReader<UnixStream>) -> io::Result<Option<String>> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => Ok(Some(line)),
        Err(e) => Err(e),
    }
}

fn write_response(stream: &mut UnixStream, resp: &Response) -> io::Result<()> {
    let mut text = resp.header_line();
    text.push('\n');
    for line in resp.body() {
        text.push_str(line);
        text.push('\n');
    }
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

fn handle_conn(inner: &Arc<Inner>, stream: UnixStream) -> io::Result<()> {
    stream.set_read_timeout(Some(inner.cfg.idle_timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    // Handshake: `histpcd/v1 hello tenant=T`.
    let hello = match read_request_line(&mut reader) {
        Ok(Some(line)) => line,
        _ => return Ok(()), // reaped, torn, or gone before hello
    };
    // Handshake responses are protocol-prefixed so a client can tell
    // a `histpcd/v1` server from anything else squatting on the socket.
    let tenant = match parse_hello(&hello) {
        Ok(t) => t,
        Err(msg) => {
            let resp = Response::err("bad-request", msg);
            writer.write_all(format!("{PROTOCOL} {}\n", resp.header_line()).as_bytes())?;
            return writer.flush();
        }
    };
    let welcome = Response::ok(vec![("epoch", inner.epoch.to_string())]);
    writer.write_all(format!("{PROTOCOL} {}\n", welcome.header_line()).as_bytes())?;
    writer.flush()?;

    loop {
        let line = match read_request_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle reap: the client had its chance.
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let req = match Request::parse(&line) {
            Ok(r) => r,
            Err(msg) => {
                write_response(&mut writer, &Response::err("bad-request", msg))?;
                continue;
            }
        };
        let shutdown = req.verb == "shutdown";
        let resp = dispatch(inner, &tenant, &req);
        write_response(&mut writer, &resp)?;
        if shutdown && matches!(resp, Response::Ok { .. }) {
            initiate_shutdown(inner);
            return Ok(());
        }
    }
}

/// The handshake line must be `histpcd/v1 hello tenant=T`.
fn parse_hello(line: &str) -> Result<String, String> {
    let rest = line
        .trim_end()
        .strip_prefix(PROTOCOL)
        .ok_or_else(|| format!("expected `{PROTOCOL} hello ...`"))?;
    let req = Request::parse(rest)?;
    if req.verb != "hello" {
        return Err(format!("expected hello, got {:?}", req.verb));
    }
    let tenant = req.get("tenant").unwrap_or_default();
    if tenant.is_empty() || tenant.contains('/') {
        return Err(format!("bad tenant {tenant:?}"));
    }
    Ok(tenant.to_string())
}

fn initiate_shutdown(inner: &Arc<Inner>) {
    *locked(&inner.serving) = Serving::ShuttingDown;
    // Self-poke so the blocking accept() wakes and observes the state.
    let _ = UnixStream::connect(&inner.cfg.socket);
}

fn dispatch(inner: &Arc<Inner>, tenant: &str, req: &Request) -> Response {
    match req.verb.as_str() {
        "start" => verb_start(inner, tenant, req),
        "attach" => verb_attach(inner, tenant, req),
        "status" => verb_status(inner, tenant),
        "report" => verb_report(inner, tenant, req),
        "cancel" => verb_cancel(inner, tenant, req),
        "health" => verb_health(inner),
        "drain" => verb_drain(inner),
        "shutdown" => {
            // Flip to draining now; the caller completes the shutdown
            // after the response is on the wire.
            let mut serving = locked(&inner.serving);
            if *serving == Serving::Accepting {
                *serving = Serving::Draining;
            }
            Response::ok(vec![("state", "shutting-down".to_string())])
        }
        other => Response::err("bad-request", format!("unknown verb {other:?}")),
    }
}

fn verb_start(inner: &Arc<Inner>, tenant: &str, req: &Request) -> Response {
    if *locked(&inner.serving) != Serving::Accepting {
        return Response::err("draining", "daemon is draining; no new sessions");
    }
    let spec = match RunSpec::from_request(req) {
        Ok(s) => s,
        Err(msg) => return Response::err("bad-request", msg),
    };
    // Validate the app and resolve the name the store will key this
    // session under — leases and report lookups must use it, not the
    // catalogue spec string.
    let store_app = match histpc::apps::build_workload(&spec.app, spec.seed) {
        Ok(wl) => wl.app_spec().name,
        Err(_) => {
            return Response::err("bad-request", format!("unknown application {:?}", spec.app))
        }
    };
    let key = Inner::key(tenant, &spec.label);
    let default_slice = inner.cfg.tenant_sample_budget / inner.cfg.tenant_slots as u64;
    let budget = spec.budget.unwrap_or(default_slice);

    let mut registry = locked(&inner.registry);
    // Idempotent start: a retry after a lost response re-finds the
    // session instead of double-running it.
    if let Some(entry) = registry.get(&key) {
        let state = match &entry.state {
            SessionState::Running => "running".to_string(),
            SessionState::Done { classification, .. } => classification.clone(),
        };
        return Response::ok(vec![
            ("id", key),
            ("state", state),
            ("accepted", "0".to_string()),
        ]);
    }
    // Bulkhead: this tenant's slots and budget only.
    let mine: Vec<&SessionEntry> = registry
        .values()
        .filter(|e| e.tenant == tenant && e.state == SessionState::Running)
        .collect();
    if mine.len() >= inner.cfg.tenant_slots {
        return Response::err_retry(
            "busy",
            format!(
                "tenant {tenant} has {} of {} session slots in flight",
                mine.len(),
                inner.cfg.tenant_slots
            ),
            BUSY_RETRY_MS,
        );
    }
    let committed: u64 = mine.iter().map(|e| e.budget).sum();
    if committed + budget > inner.cfg.tenant_sample_budget {
        return Response::err_retry(
            "quota",
            format!(
                "tenant {tenant} sample budget exhausted ({committed}+{budget} of {})",
                inner.cfg.tenant_sample_budget
            ),
            QUOTA_RETRY_MS,
        );
    }

    // Crash-safe intent first: lease before registry, registry before
    // thread. A crash between lease and spawn re-adopts or abandons on
    // restart — never loses the session silently.
    let the_lease = Lease {
        tenant: tenant.to_string(),
        app: store_app.clone(),
        label: spec.label.clone(),
        epoch: inner.epoch,
        state: "active".into(),
        spec: spec.to_spec_line(),
    };
    if let Err(e) = lease::write_lease(&inner.cfg.store_root, &the_lease) {
        return Response::err("internal", format!("cannot write lease: {e}"));
    }
    let cancel = Arc::new(AtomicBool::new(false));
    registry.insert(
        key.clone(),
        SessionEntry {
            tenant: tenant.to_string(),
            app: spec.app.clone(),
            label: spec.label.clone(),
            store_app,
            state: SessionState::Running,
            cancel: Arc::clone(&cancel),
            budget,
            adopted: false,
        },
    );
    drop(registry);
    inner.spawn_session(tenant.to_string(), spec, cancel, budget, None);
    Response::ok(vec![
        ("id", key),
        ("state", "running".to_string()),
        ("accepted", "1".to_string()),
    ])
}

fn verb_attach(inner: &Arc<Inner>, tenant: &str, req: &Request) -> Response {
    let Some(label) = req.get("label") else {
        return Response::err("bad-request", "attach needs label=");
    };
    let key = Inner::key(tenant, label);
    let wait_ms: u64 = req.get("wait-ms").and_then(|v| v.parse().ok()).unwrap_or(0);
    let deadline_ms: Option<u64> = req.get("deadline-ms").and_then(|v| v.parse().ok());
    let wait = Duration::from_millis(match deadline_ms {
        Some(d) => wait_ms.min(d),
        None => wait_ms,
    });

    let start = Instant::now();
    let mut registry = locked(&inner.registry);
    loop {
        let Some(entry) = registry.get(&key) else {
            return Response::err("unknown", format!("no session {key}"));
        };
        match &entry.state {
            SessionState::Done {
                classification,
                detail,
            } => {
                return Response::ok(vec![
                    ("id", key),
                    ("state", classification.clone()),
                    ("detail", detail.clone()),
                    ("adopted", (entry.adopted as u8).to_string()),
                ]);
            }
            SessionState::Running => {
                let elapsed = start.elapsed();
                if elapsed >= wait {
                    // A request-level deadline that elapsed is an
                    // error; a plain bounded wait just reports state.
                    if deadline_ms.is_some_and(|d| elapsed >= Duration::from_millis(d)) {
                        return Response::err("deadline", format!("session {key} still running"));
                    }
                    return Response::ok(vec![("id", key), ("state", "running".to_string())]);
                }
                let (next, _timeout) = inner
                    .bell
                    .wait_timeout(registry, wait - elapsed)
                    .unwrap_or_else(PoisonError::into_inner);
                registry = next;
            }
        }
    }
}

fn verb_status(inner: &Arc<Inner>, tenant: &str) -> Response {
    let registry = locked(&inner.registry);
    let mut lines: Vec<String> = Vec::new();
    let mut active = 0usize;
    let mut done = 0usize;
    for entry in registry.values().filter(|e| e.tenant == tenant) {
        let state = match &entry.state {
            SessionState::Running => {
                active += 1;
                "running".to_string()
            }
            SessionState::Done { classification, .. } => {
                done += 1;
                classification.clone()
            }
        };
        lines.push(format!(
            "{}/{} {state} budget={}",
            entry.app, entry.label, entry.budget
        ));
    }
    lines.sort();
    Response::ok_with_body(
        vec![("active", active.to_string()), ("done", done.to_string())],
        lines,
    )
}

fn verb_report(inner: &Arc<Inner>, tenant: &str, req: &Request) -> Response {
    let Some(label) = req.get("label") else {
        return Response::err("bad-request", "report needs label=");
    };
    let key = Inner::key(tenant, label);
    let registry = locked(&inner.registry);
    let Some(entry) = registry.get(&key) else {
        return Response::err("unknown", format!("no session {key}"));
    };
    let (classification, detail) = match &entry.state {
        SessionState::Running => {
            return Response::err("busy", format!("session {key} still running"))
        }
        SessionState::Done {
            classification,
            detail,
        } => (classification.clone(), detail.clone()),
    };
    let app = entry.store_app.clone();
    let adopted = entry.adopted;
    drop(registry);
    let Some(store) = inner.session.store() else {
        return Response::err("internal", "daemon session has no store");
    };
    let body: Vec<String> = match store.load(&app, label) {
        Ok(record) => histpc::history::format::write_record(&record)
            .lines()
            .map(str::to_string)
            .collect(),
        // Degraded-to-prognosis or abandoned sessions have no record;
        // the prognosis artifact stands in when it exists.
        Err(_) => store
            .load_artifact(&app, label, "prognosis")
            .map(|t| t.lines().map(str::to_string).collect())
            .unwrap_or_default(),
    };
    Response::ok_with_body(
        vec![
            ("id", key),
            ("state", classification),
            ("detail", detail),
            ("adopted", (adopted as u8).to_string()),
        ],
        body,
    )
}

fn verb_cancel(inner: &Arc<Inner>, tenant: &str, req: &Request) -> Response {
    let Some(label) = req.get("label") else {
        return Response::err("bad-request", "cancel needs label=");
    };
    let key = Inner::key(tenant, label);
    let registry = locked(&inner.registry);
    let Some(entry) = registry.get(&key) else {
        return Response::err("unknown", format!("no session {key}"));
    };
    match &entry.state {
        SessionState::Running => {
            // The drive loop polls this flag every step: the running
            // attempt stops at its next step boundary and the
            // supervisor classifies the session abandoned.
            entry.cancel.store(true, Ordering::SeqCst);
            Response::ok(vec![("id", key), ("state", "cancelling".to_string())])
        }
        SessionState::Done { classification, .. } => Response::ok(vec![
            ("id", key),
            ("state", classification.clone()),
            ("cancelled", "0".to_string()),
        ]),
    }
}

fn verb_health(inner: &Arc<Inner>) -> Response {
    let registry = locked(&inner.registry);
    let active = inner.active_count(&registry);
    let done = registry.len() - active;
    let serving = match *locked(&inner.serving) {
        Serving::Accepting => "serving",
        Serving::Draining => "draining",
        Serving::ShuttingDown => "shutting-down",
    };
    Response::ok(vec![
        ("state", serving.to_string()),
        ("epoch", inner.epoch.to_string()),
        ("active", active.to_string()),
        ("done", done.to_string()),
        ("adopted", locked(&inner.adoption).adopted.len().to_string()),
    ])
}

fn verb_drain(inner: &Arc<Inner>) -> Response {
    let mut serving = locked(&inner.serving);
    if *serving == Serving::Accepting {
        *serving = Serving::Draining;
    }
    drop(serving);
    let registry = locked(&inner.registry);
    Response::ok(vec![
        ("state", "draining".to_string()),
        ("active", inner.active_count(&registry).to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leases and `start` lines keep their form and their defaults: a
    /// spec line as the daemon wrote it before `RunSpec` existed
    /// re-adopts to the config it ran with then, a spec round-trips
    /// through that form, and a `start` naming only app and label runs
    /// the service's short settings with a 2 s in-loop stall.
    #[test]
    fn spec_round_trips_through_the_lease_line() {
        let old = "app=poisson-b label=run%201 window-ms=800 sample-ms=100 max-time-ms=120000 \
                   seed=7 faults=histpc-faults%20v1%0Aseed%203%0Adrop%200.2%0A budget=512 \
                   harvest-from=run%200 audit-budget=16";
        let spec = RunSpec::from_spec_line(old).unwrap();
        assert_eq!(spec.to_spec_line(), old);
        assert_eq!(
            spec,
            RunSpec {
                seed: Some(7),
                window_ms: 800,
                sample_ms: 100,
                max_time_ms: 120_000,
                faults: Some("histpc-faults v1\nseed 3\ndrop 0.2\n".into()),
                budget: Some(512),
                harvest_from: Some("run 0".into()),
                audit_budget: Some(16),
                ..RunSpec::new("poisson-b", "run 1")
            }
        );
        let config = session_config(&spec, 512, 2).unwrap();
        assert_eq!(config.window, SimDuration::from_millis(800));
        assert_eq!(config.sample, SimDuration::from_millis(100));
        assert_eq!(config.max_time, SimDuration::from_secs(120));
        assert_eq!(config.stall, Some(SimDuration::from_secs(2)));
        assert_eq!(config.faults.drop_rate, 0.2);
        assert!(!config.collector.admission.enabled);
        // Applied with the directives harvested from `run 0`; without
        // directives an audit has nothing to probe.
        assert_eq!(config.audit_budget, 16);

        let bare = Request::new("start").arg("app", "tester").arg("label", "l");
        let config = session_config(&RunSpec::from_request(&bare).unwrap(), 512, 2).unwrap();
        assert_eq!(config.window, SimDuration::from_millis(800));
        assert_eq!(config.sample, SimDuration::from_millis(100));
        assert_eq!(config.max_time, SimDuration::from_secs(120));
        assert_eq!(config.stall, Some(SimDuration::from_secs(2)));
        assert!(config.faults.is_disabled());
    }

    /// A plan naming a store kind, which no run injects, is refused at
    /// `start` and leaves the shared store alone; a lease that carries
    /// one is an unusable spec, and the daemon still boots.
    #[test]
    fn plans_naming_store_kinds_are_refused() {
        use histpc::history::trust::{TrustLedger, TRUST_FILE};
        let root = scratch("storekinds");
        let store = root.join("store");
        let config = || DaemonConfig::new(store.clone(), root.join("d.sock"));
        let daemon = Daemon::start(config()).unwrap();
        let mut ledger = TrustLedger::new();
        ledger.record_audit("t/Tester/r0", false);
        ledger.save(&store).unwrap();
        let trust = std::fs::read(store.join(TRUST_FILE)).unwrap();
        let start = |label: &str, plan: &str| {
            Request::new("start")
                .arg("app", "tester")
                .arg("label", label)
                .arg("faults", format!("histpc-faults v1\nseed 3\n{plan}\n"))
        };
        for kind in ["torn-write", "trust-ledger-corrupt"] {
            match verb_start(&daemon.inner, "t", &start(kind, kind)) {
                Response::Err { code, msg, .. } => {
                    assert_eq!(code, "bad-request");
                    assert!(msg.starts_with("bad fault plan"), "{kind}: {msg}");
                }
                other => panic!("{kind}: expected a refusal, got {other:?}"),
            }
        }
        initiate_shutdown(&daemon.inner);
        daemon.join();
        let findings = histpc::history::fsck(&store);
        let notes = |d: &histpc::lint::Diagnostic| d.severity == histpc::lint::Severity::Note;
        assert!(findings.iter().all(notes), "{findings:?}");
        assert_eq!(std::fs::read(store.join(TRUST_FILE)).unwrap(), trust);

        // A lease with a checkpoint, whose spec names a store kind.
        let line = start("old", "torn-write").to_line();
        let lease = Lease {
            tenant: "t".into(),
            app: "Tester".into(),
            label: "old".into(),
            epoch: 1,
            state: "active".into(),
            spec: line["start ".len()..].to_string(),
        };
        lease::write_lease(&store, &lease).unwrap();
        ExecutionStore::open(&store)
            .unwrap()
            .save_artifact("Tester", "old", "ckpt", "x")
            .unwrap();
        let daemon = Daemon::start(config()).unwrap();
        assert_eq!(daemon.adoption().abandoned, ["t/old"]);
        {
            let registry = locked(&daemon.inner.registry);
            let entry = &registry["t/old"];
            assert_eq!((&*entry.app, &*entry.label), ("Tester", "old"));
            let SessionState::Done { detail, .. } = &entry.state else {
                panic!("re-adopted an unusable spec");
            };
            assert!(
                detail.contains("unusable lease spec: bad fault plan"),
                "{detail}"
            );
        }
        initiate_shutdown(&daemon.inner);
        daemon.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("histpcd-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fake_running(tenant: &str, label: &str, budget: u64) -> (String, SessionEntry) {
        (
            Inner::key(tenant, label),
            SessionEntry {
                tenant: tenant.into(),
                app: "tester".into(),
                label: label.into(),
                store_app: "Tester".into(),
                state: SessionState::Running,
                cancel: Arc::new(AtomicBool::new(false)),
                budget,
                adopted: false,
            },
        )
    }

    /// Bulkhead semantics at the verb layer: a tenant's full slot pool
    /// returns `busy` (with a retry hint) to that tenant only; budget
    /// over-ask returns `quota`; draining refuses new sessions —
    /// exercised against a fabricated registry so no timing races.
    #[test]
    fn bulkhead_busy_quota_and_draining() {
        let root = scratch("bulkhead");
        let cfg = {
            let mut c = DaemonConfig::new(root.join("store"), root.join("d.sock"));
            c.tenant_slots = 1;
            c.tenant_sample_budget = 1000;
            c
        };
        let daemon = Daemon::start(cfg).unwrap();
        let inner = &daemon.inner;
        let (key, entry) = fake_running("t1", "busy", 600);
        inner.registry.lock().unwrap().insert(key, entry);

        let start = |label: &str| {
            Request::new("start")
                .arg("app", "tester")
                .arg("label", label)
        };
        // t1's only slot is taken: busy, with a retry hint.
        match verb_start(inner, "t1", &start("more")) {
            Response::Err {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, "busy");
                assert_eq!(retry_after_ms, Some(BUSY_RETRY_MS));
            }
            other => panic!("expected busy, got {other:?}"),
        }
        // The bulkhead is per-tenant: t2 sails through.
        match verb_start(inner, "t2", &start("mine")) {
            Response::Ok { params, .. } => {
                assert!(params.contains(&("accepted".to_string(), "1".to_string())));
            }
            other => panic!("expected accept, got {other:?}"),
        }
        // Budget over-ask (fresh tenant, free slot): quota.
        match verb_start(inner, "t3", &start("big").arg("budget", 2000u64)) {
            Response::Err {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, "quota");
                assert_eq!(retry_after_ms, Some(QUOTA_RETRY_MS));
            }
            other => panic!("expected quota, got {other:?}"),
        }
        // Idempotent start: retrying t1's held label is not an error.
        match verb_start(inner, "t1", &start("busy")) {
            Response::Ok { params, .. } => {
                assert!(params.contains(&("accepted".to_string(), "0".to_string())));
                assert!(params.contains(&("state".to_string(), "running".to_string())));
            }
            other => panic!("expected idempotent ok, got {other:?}"),
        }
        // Draining refuses new sessions outright.
        *inner.serving.lock().unwrap() = Serving::Draining;
        match verb_start(inner, "t4", &start("late")) {
            Response::Err { code, .. } => assert_eq!(code, "draining"),
            other => panic!("expected draining, got {other:?}"),
        }
        // Unblock join(): drop the fabricated entry and shut down.
        inner.registry.lock().unwrap().remove("t1/busy");
        initiate_shutdown(inner);
        daemon.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A thread that panics while holding the registry poisons its
    /// lock; every verb must still answer.
    #[test]
    fn a_poisoned_registry_keeps_serving() {
        let root = scratch("poison");
        let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
        let daemon = Daemon::start(cfg).unwrap();
        let inner = Arc::clone(&daemon.inner);
        let poisoner = std::thread::spawn(move || {
            let _held = inner.registry.lock().unwrap();
            panic!("a session thread dies holding the registry");
        });
        assert!(poisoner.join().is_err());
        let inner = &daemon.inner;
        assert!(inner.registry.is_poisoned());

        assert!(matches!(verb_health(inner), Response::Ok { .. }));
        assert!(matches!(verb_status(inner, "t"), Response::Ok { .. }));
        let start = Request::new("start")
            .arg("app", "tester")
            .arg("label", "after");
        match verb_start(inner, "t", &start) {
            Response::Ok { params, .. } => {
                assert!(params.contains(&("accepted".to_string(), "1".to_string())));
            }
            other => panic!("expected accept, got {other:?}"),
        }
        initiate_shutdown(inner);
        daemon.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A long-lived daemon joins exited session threads as the next
    /// session starts: after each of 40 sessions in a row, no more
    /// threads are kept than one tenant may run at once.
    #[test]
    fn finished_session_threads_are_joined() {
        let root = scratch("reap");
        let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
        let slots = cfg.tenant_slots;
        let daemon = Daemon::start(cfg).unwrap();
        let inner = &daemon.inner;
        for i in 0..40 {
            let label = format!("s{i:02}");
            let start = Request::new("start")
                .arg("app", "tester")
                .arg("label", &label);
            assert!(matches!(
                verb_start(inner, "t", &start),
                Response::Ok { .. }
            ));
            let attach = Request::new("attach")
                .arg("label", &label)
                .arg("wait-ms", 120_000u64);
            match verb_attach(inner, "t", &attach) {
                Response::Ok { params, .. } => assert!(
                    !params.contains(&("state".to_string(), "running".to_string())),
                    "session {i} still running"
                ),
                other => panic!("session {i}: {other:?}"),
            }
            let kept = inner.workers.lock().unwrap().len();
            assert!(kept <= slots, "after session {i}: {kept} threads kept");
        }
        initiate_shutdown(inner);
        daemon.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn overload_plans_map_quota_onto_admission() {
        let mk = |faults: Option<&str>| RunSpec {
            faults: faults.map(str::to_string),
            ..RunSpec::new("tester", "l")
        };
        // Zero-fault: admission stays untouched (bit-identity).
        let cfg = session_config(&mk(None), 2048, 2).unwrap();
        assert!(!cfg.collector.admission.enabled);
        // Overload fault: the tenant slice lands in the admission knobs.
        let flood = "histpc-faults v1\nseed 1\nsample-flood 3.0\n";
        let cfg = session_config(&mk(Some(flood)), 2048, 2).unwrap();
        assert!(cfg.collector.admission.enabled);
        assert_eq!(cfg.collector.admission.sample_budget, 2048);
        // A plan without overload kinds runs its faults, admission off.
        let lossy = "histpc-faults v1\nseed 1\ndrop 0.5\n";
        let cfg = session_config(&mk(Some(lossy)), 2048, 2).unwrap();
        assert!(!cfg.collector.admission.enabled);
        assert_eq!(cfg.faults.drop_rate, 0.5);
    }
}
