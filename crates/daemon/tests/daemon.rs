//! End-to-end daemon tests: a real `Daemon` on a real Unix socket,
//! driven through the retrying [`histpc::remote::Client`]; then the
//! built `histpcd` binary as a child process — the daemon soak, which
//! SIGKILLs it mid-serve, and the `histpc daemon` smoke.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use histpc::history::format::write_record;
use histpc::history::fsck::fsck;
use histpc::history::lease::{self, Lease};
use histpc::prelude::*;
use histpc::remote::{Client, RemoteError, Request, Response, WireFaults, WireInjector};
use histpc::RunSpec;
use histpc_daemon::{Daemon, DaemonConfig};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histpcd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The config every test session runs with, daemon-side defaults.
fn local_config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(120),
        stall: Some(SimDuration::from_secs(2)),
        ..SearchConfig::default()
    }
}

fn start_req(app: &str, label: &str) -> Request {
    Request::new("start").arg("app", app).arg("label", label)
}

fn attach(client: &mut Client, label: &str) -> Response {
    client
        .expect_ok(
            &Request::new("attach")
                .arg("label", label)
                .arg("wait-ms", 60_000u64),
        )
        .expect("attach")
}

#[test]
fn start_attach_report_is_bit_identical_to_in_process() {
    let root = scratch("bitident");
    let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
    let daemon = Daemon::start(cfg).unwrap();

    let mut client = Client::new(root.join("d.sock"), "team-a");
    let resp = client.expect_ok(&start_req("tester", "run1")).unwrap();
    assert_eq!(resp.get("accepted"), Some("1"));
    assert_eq!(client.epoch, Some(daemon.epoch()));

    let done = attach(&mut client, "run1");
    assert_eq!(done.get("state"), Some("completed"), "{done:?}");

    let report = client
        .expect_ok(&Request::new("report").arg("label", "run1"))
        .unwrap();
    assert_eq!(report.get("state"), Some("completed"));
    let remote_text = format!("{}\n", report.body().join("\n"));

    // The same workload diagnosed in-process on a scratch store must
    // produce the byte-identical record.
    let local_root = scratch("bitident-local");
    let session = Session::with_store(&local_root).unwrap();
    let workload = histpc::apps::build_workload("tester", None).unwrap();
    let diag = session
        .diagnose(workload.as_ref(), &local_config(), "run1")
        .unwrap();
    assert_eq!(
        remote_text,
        histpc::history::format::write_record(&diag.record),
        "remote record must be bit-identical to the in-process run"
    );

    // No lease survives a classified session.
    assert!(lease::read_leases(&root.join("store")).unwrap().is_empty());

    client
        .expect_ok(&Request::new("shutdown"))
        .expect("shutdown");
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&local_root);
}

#[test]
fn harvest_from_steers_a_second_session_with_tenant_scoped_trust() {
    let root = scratch("harvestfrom");
    let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = Client::new(root.join("d.sock"), "team-a");

    client.expect_ok(&start_req("tester", "base")).unwrap();
    let done = attach(&mut client, "base");
    assert_eq!(done.get("state"), Some("completed"), "{done:?}");

    // A directed re-run harvesting from the first, with shadow audits
    // on. The daemon scopes the harvest to this tenant: its trust
    // ledger sources are keyed `team-a/Tester/base`.
    let resp = client
        .expect_ok(
            &start_req("tester", "directed")
                .arg("harvest-from", "base")
                .arg("audit-budget", 8u64),
        )
        .unwrap();
    assert_eq!(resp.get("accepted"), Some("1"));
    let done = attach(&mut client, "directed");
    assert_eq!(done.get("state"), Some("completed"), "{done:?}");
    let report = client
        .expect_ok(&Request::new("report").arg("label", "directed"))
        .unwrap();
    assert_eq!(report.get("state"), Some("completed"));

    // The audit loop ran end to end: probes were assigned against the
    // harvested prunes, their outcomes were absorbed into the trust
    // ledger, and every source key is tenant-scoped. (Outcomes may
    // include failures — "safe" prunes generalize over subtrees the
    // base run never fully tested, and a probe concluding True there
    // is exactly the contradiction the audit exists to catch.)
    let ledger = histpc::history::trust::TrustLedger::load(&root.join("store"));
    assert!(!ledger.is_empty(), "budget-8 audits left no ledger entry");
    for (source, _) in ledger.sources() {
        assert!(
            source.starts_with("team-a/") && source.ends_with("/base"),
            "trust source {source:?} not tenant-scoped to team-a/<app>/base"
        );
    }

    client.expect_ok(&Request::new("shutdown")).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_sessions_apps_and_verbs_err_cleanly() {
    let root = scratch("badreq");
    let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = Client::new(root.join("d.sock"), "t");

    let err = client
        .expect_ok(&Request::new("attach").arg("label", "ghost"))
        .unwrap_err();
    assert!(
        matches!(&err, RemoteError::Daemon { code, .. } if code == "unknown"),
        "{err}"
    );

    let err = client.expect_ok(&start_req("not-an-app", "x")).unwrap_err();
    assert!(
        matches!(&err, RemoteError::Daemon { code, .. } if code == "bad-request"),
        "{err}"
    );

    let err = client.expect_ok(&Request::new("frobnicate")).unwrap_err();
    assert!(
        matches!(&err, RemoteError::Daemon { code, .. } if code == "bad-request"),
        "{err}"
    );

    client.expect_ok(&Request::new("shutdown")).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// Stages the disk state a daemon killed mid-session leaves in `store`:
/// the `crashed` (tenant, label) session halted at a real checkpoint
/// (tool crash) with its lease still on disk, a `hopeless` lease with
/// no checkpoint at all, and a damaged lease file.
fn stage_crashed_daemon(
    store: &Path,
    seed: Option<u64>,
    epoch: u64,
    crashed: (&str, &str),
    hopeless: (&str, &str),
) {
    let spec = RunSpec {
        seed,
        window_ms: 800,
        sample_ms: 100,
        max_time_ms: 120_000,
        faults: Some("histpc-faults v1\nseed 5\ncrash-tool 1000000\n".into()),
        ..RunSpec::new("tester", crashed.1)
    };
    // Leases name the app the way the *store* keys it (the resolved
    // AppSpec name), which need not equal the catalogue spec string.
    let store_app = histpc::apps::build_workload("tester", seed)
        .unwrap()
        .app_spec()
        .name;
    {
        // The scope drops the store lock before the daemon restarts.
        let session = Session::with_store(store).unwrap();
        let workload = histpc::apps::build_workload("tester", seed).unwrap();
        let mut config = local_config();
        config.faults = FaultPlan::parse(spec.faults.as_deref().unwrap()).unwrap();
        let run = session
            .diagnose_faulted(workload.as_ref(), &config, crashed.1, None)
            .unwrap();
        assert!(run.halted.is_some(), "crash plan must halt the session");
        assert!(
            session
                .store()
                .unwrap()
                .load_artifact(&store_app, crashed.1, "ckpt")
                .is_ok(),
            "halt must persist a checkpoint"
        );
    }
    for ((tenant, label), spec) in [(crashed, spec.to_spec_line()), (hopeless, String::new())] {
        let lease = Lease {
            tenant: tenant.into(),
            app: store_app.clone(),
            label: label.into(),
            epoch,
            state: "active".into(),
            spec,
        };
        lease::write_lease(store, &lease).unwrap();
    }
    std::fs::write(
        store.join(lease::LEASE_DIR).join("torn.lease"),
        "histpc-frame v1 99 deadbeef\ntruncated",
    )
    .unwrap();
}

#[test]
fn crashed_daemon_leases_are_readopted_or_abandoned() {
    let root = scratch("readopt");
    let store_root = root.join("store");

    stage_crashed_daemon(
        &store_root,
        None,
        1,
        ("team-a", "crashed"),
        ("team-b", "hopeless"),
    );

    // Restart: the next incarnation classifies everything before
    // accepting work.
    let daemon = Daemon::start(DaemonConfig::new(&store_root, root.join("d.sock"))).unwrap();
    let adoption = daemon.adoption();
    assert_eq!(adoption.adopted, vec!["team-a/crashed".to_string()]);
    assert_eq!(adoption.abandoned, vec!["team-b/hopeless".to_string()]);
    assert_eq!(adoption.damaged.len(), 1, "{adoption:?}");
    assert!(daemon.epoch() >= 2, "epoch advances past the dead daemon's");

    // The re-adopted session resumes from its checkpoint and ends
    // classified; its lease is released.
    let mut client = Client::new(root.join("d.sock"), "team-a");
    let done = attach(&mut client, "crashed");
    assert!(
        matches!(done.get("state"), Some("completed") | Some("recovered")),
        "{done:?}"
    );
    assert_eq!(done.get("adopted"), Some("1"));
    let report = client
        .expect_ok(&Request::new("report").arg("label", "crashed"))
        .unwrap();
    assert!(!report.body().is_empty(), "re-adopted run stored a record");

    // The abandoned tenant sees its classification too.
    let mut client_b = Client::new(root.join("d.sock"), "team-b");
    let gone = attach(&mut client_b, "hopeless");
    assert_eq!(gone.get("state"), Some("abandoned"), "{gone:?}");

    // All leases were consumed by recovery.
    assert!(lease::read_leases(&store_root).unwrap().is_empty());

    client.expect_ok(&Request::new("shutdown")).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drain_health_and_idempotent_start() {
    let root = scratch("drain");
    let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = Client::new(root.join("d.sock"), "ops");

    let health = client.expect_ok(&Request::new("health")).unwrap();
    assert_eq!(health.get("state"), Some("serving"));
    assert_eq!(
        health.get("epoch"),
        Some(daemon.epoch().to_string().as_str())
    );

    // Run one session to completion, then retry its start: idempotent.
    client.expect_ok(&start_req("tester", "once")).unwrap();
    attach(&mut client, "once");
    let again = client.expect_ok(&start_req("tester", "once")).unwrap();
    assert_eq!(again.get("accepted"), Some("0"));
    assert_eq!(again.get("state"), Some("completed"));

    let status = client.expect_ok(&Request::new("status")).unwrap();
    assert_eq!(status.get("done"), Some("1"));
    assert!(
        status.body()[0].starts_with("tester/once completed"),
        "{status:?}"
    );

    let drained = client.expect_ok(&Request::new("drain")).unwrap();
    assert_eq!(drained.get("state"), Some("draining"));
    let err = client.expect_ok(&start_req("tester", "late")).unwrap_err();
    assert!(
        matches!(&err, RemoteError::Daemon { code, .. } if code == "draining"),
        "{err}"
    );
    let health = client.expect_ok(&Request::new("health")).unwrap();
    assert_eq!(health.get("state"), Some("draining"));

    client.expect_ok(&Request::new("shutdown")).unwrap();
    daemon.join();
    assert!(!root.join("d.sock").exists(), "socket removed on shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// `cancel` stops the attempt that is running: the drive loop halts at
/// its next step and the session is abandoned as cancelled by the
/// client, with no resume and no ladder.
#[test]
fn cancel_stops_the_running_session() {
    let root = scratch("cancel");
    let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = Client::new(root.join("d.sock"), "ops");

    client.expect_ok(&start_req("poisson-d", "long")).unwrap();
    // Give the first attempt time to get going; a poisson-d diagnosis
    // runs for seconds.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let resp = client
        .expect_ok(&Request::new("cancel").arg("label", "long"))
        .unwrap();
    assert_eq!(resp.get("state"), Some("cancelling"), "{resp:?}");
    let done = attach(&mut client, "long");
    assert_eq!(done.get("state"), Some("abandoned"), "{done:?}");
    assert_eq!(
        done.get("detail"),
        Some("abandoned: cancelled by client"),
        "{done:?}"
    );
    let report = client
        .expect_ok(&Request::new("report").arg("label", "long"))
        .unwrap();
    assert!(
        report.body().is_empty(),
        "a cancelled session stores no record"
    );

    client.expect_ok(&Request::new("shutdown")).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn faulty_wire_client_still_converges() {
    let root = scratch("wire");
    let cfg = DaemonConfig::new(root.join("store"), root.join("d.sock"));
    let daemon = Daemon::start(cfg).unwrap();

    // A client whose own transport tears requests and drops
    // connections: every exchange may need retries, yet the session
    // must still run exactly once and classify.
    let faults = WireFaults {
        seed: 11,
        conn_drop_rate: 0.3,
        torn_request_rate: 0.2,
        slow_client_ms: 0,
    };
    let mut client =
        Client::new(root.join("d.sock"), "flaky").with_injector(WireInjector::new(faults));
    client.max_attempts = 32;

    let resp = client.expect_ok(&start_req("tester", "wired")).unwrap();
    assert!(matches!(resp.get("accepted"), Some("0") | Some("1")));
    let done = attach(&mut client, "wired");
    assert_eq!(done.get("state"), Some("completed"), "{done:?}");
    let status = client.expect_ok(&Request::new("status")).unwrap();
    assert_eq!(status.get("done"), Some("1"), "retries must not double-run");

    client.expect_ok(&Request::new("shutdown")).unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// SplitMix64 — a tiny seeded generator so soak fault plans are a pure
/// function of `(seed, tenant, session)` and a failing case replays
/// exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The faults rolled for one soak session: a fault plan (shipped to the
/// daemon in the `start` request) plus wire-level client faults
/// (inflicted locally by the [`WireInjector`]). The daemon kill is not
/// rolled — it is staged explicitly so its recovery gates stay
/// deterministic.
fn roll_faults(rng: &mut Rng, plan_seed: u64) -> (FaultPlan, WireFaults, String) {
    let mut plan = FaultPlan::none();
    plan.seed = plan_seed;
    let mut wire = WireFaults {
        seed: plan_seed,
        ..WireFaults::default()
    };
    let mut parts = Vec::new();
    if rng.chance(30) {
        let at = rng.range(300_000, 2_300_000);
        plan.tool_crash_at = Some(SimTime::from_micros(at));
        parts.push(format!("crash@{at}us"));
    }
    if rng.chance(25) {
        let flood = 2.0 + (rng.range(0, 40) as f64) / 10.0;
        plan.sample_flood = flood;
        parts.push(format!("flood×{flood:.1}"));
    }
    if rng.chance(15) {
        plan.drop_rate = (rng.range(5, 30) as f64) / 100.0;
        parts.push(format!("drop{:.0}%", plan.drop_rate * 100.0));
    }
    if rng.chance(30) {
        wire.conn_drop_rate = (rng.range(10, 40) as f64) / 100.0;
        parts.push(format!("conn-drop{:.0}%", wire.conn_drop_rate * 100.0));
    }
    if rng.chance(25) {
        wire.torn_request_rate = (rng.range(5, 30) as f64) / 100.0;
        parts.push(format!("torn-req{:.0}%", wire.torn_request_rate * 100.0));
    }
    if rng.chance(15) {
        wire.slow_client_ms = rng.range(1, 10);
        parts.push(format!("slow-client{}ms", wire.slow_client_ms));
    }
    let summary = if parts.is_empty() {
        "healthy".to_string()
    } else {
        parts.join(" ")
    };
    (plan, wire, summary)
}

/// Waits up to 10 s for `path` to exist (`present`) or vanish.
fn await_path(path: &Path, present: bool) -> bool {
    for _ in 0..200 {
        if path.exists() == present {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// A `histpcd` child process, killed if a failing test unwinds past it.
struct Histpcd(Child);

impl Histpcd {
    /// Waits for the daemon to exit and returns what it printed.
    fn output(&mut self) -> String {
        let _ = self.0.wait();
        let mut text = String::new();
        if let Some(mut stdout) = self.0.stdout.take() {
            let _ = stdout.read_to_string(&mut text);
        }
        text
    }
}

impl Drop for Histpcd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the built `histpcd` on the store/socket and waits for the
/// socket to appear (the daemon binds it only after lease recovery).
fn spawn_histpcd(store: &Path, socket: &Path) -> Histpcd {
    let bin = env!("CARGO_BIN_EXE_histpcd");
    let child = Command::new(bin)
        .arg("--store")
        .arg(store)
        .arg("--socket")
        .arg(socket)
        .args(["--stall-ms", "30000"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let child = Histpcd(child);
    assert!(
        await_path(socket, true),
        "histpcd never bound {}",
        socket.display()
    );
    child
}

fn classified(state: &str) -> bool {
    matches!(state, "completed" | "recovered" | "degraded" | "abandoned")
}

/// Fails naming every gate that does not hold, with the transcript.
fn assert_gates(case: &str, gates: &[(&str, bool)], transcript: &str) {
    let failed: Vec<&str> = gates
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        failed.is_empty(),
        "{case}: gates failed: {failed:?}\n{transcript}"
    );
}

/// The daemon soak: `tenants` tenants hammer one real `histpcd` child
/// over its socket, each session under a seeded plan of sim-level and
/// wire-level faults. Unless `zero_faults`, the daemon is then
/// SIGKILLed, the disk state a mid-session crash leaves is staged (a
/// checkpointed lease, a checkpoint-less lease, a torn lease file), and
/// the next incarnation is held to its recovery contract. Asserts every
/// gate:
///
/// * every session terminates with a classification;
/// * after one repair pass the store has zero integrity errors;
/// * faulted: the checkpointed lease is re-adopted and stores a record,
///   the checkpoint-less one is abandoned, the lease epoch advances,
///   and no lease file survives classification;
/// * zero faults: every session completes and its stored record is
///   byte-identical to an in-process diagnosis.
///
/// Returns the transcript with the scratch path replaced by `<scratch>`.
fn daemon_fleet(
    test: &str,
    tenants: usize,
    sessions: usize,
    seed: u64,
    zero_faults: bool,
) -> String {
    let mode = if zero_faults { "zero" } else { "faulted" };
    let case = format!("{tenants} tenant(s) × {sessions} session(s), seed {seed}, {mode}");
    let dir = scratch(&format!("soak-{test}-{tenants}-{sessions}-{seed}-{mode}"));
    let store = dir.join("store");
    let socket = dir.join("histpcd.sock");

    // One plan per (tenant, session), a pure function of the seed.
    // Labels are globally unique: all tenants share one store app
    // namespace, which is exactly the contention under test.
    let mut rng = Rng(seed);
    let mut plans: Vec<Vec<(FaultPlan, WireFaults, String, u64)>> = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let mut row = Vec::with_capacity(sessions);
        for s in 0..sessions {
            let idx = (t * sessions + s) as u64;
            let plan_seed = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (plan, wire, summary) = if zero_faults {
                (FaultPlan::none(), WireFaults::default(), "healthy".into())
            } else {
                roll_faults(&mut rng, plan_seed)
            };
            row.push((plan, wire, summary, plan_seed));
        }
        plans.push(row);
    }
    let mut out = format!("daemon soak: {case}\n");
    for (t, row) in plans.iter().enumerate() {
        for (s, (_, _, summary, _)) in row.iter().enumerate() {
            out.push_str(&format!("  plan soak-t{t:02}-s{s:02}: {summary}\n"));
        }
    }

    let mut child = spawn_histpcd(&store, &socket);
    let epoch_before = Client::new(&socket, "soak-probe")
        .expect_ok(&Request::new("health"))
        .unwrap_or_else(|e| panic!("{case}: daemon health probe failed: {e}"))
        .get("epoch")
        .and_then(|v| v.parse::<u64>().ok());

    // One thread per tenant, each starting all its sessions (exercising
    // the slot bulkhead) then attaching each to its classified end. The
    // retrying Client plus idempotent `start` must absorb every tear.
    let results: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(t, row)| {
                let socket = &socket;
                scope.spawn(move || {
                    let tenant = format!("tenant-{t:02}");
                    let mut states = Vec::with_capacity(row.len());
                    for (s, (plan, wire, _, plan_seed)) in row.iter().enumerate() {
                        let label = format!("soak-t{t:02}-s{s:02}");
                        let mut client =
                            Client::new(socket, &tenant).with_injector(WireInjector::new(*wire));
                        client.max_attempts = 8;
                        let mut req = Request::new("start")
                            .arg("app", "tester")
                            .arg("label", &label)
                            .arg("seed", plan_seed);
                        if !zero_faults {
                            req = req.arg("faults", plan.to_text());
                        }
                        let state = match client.expect_ok(&req) {
                            Err(e) => format!("start failed: {e}"),
                            Ok(_) => {
                                let attach = Request::new("attach")
                                    .arg("label", &label)
                                    .arg("wait-ms", 120_000u64);
                                match client.expect_ok(&attach) {
                                    Ok(resp) => {
                                        resp.get("state").unwrap_or("missing-state").to_string()
                                    }
                                    Err(e) => format!("attach failed: {e}"),
                                }
                            }
                        };
                        states.push((format!("{tenant}/{label}"), state));
                    }
                    states
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    for (who, state) in &results {
        out.push_str(&format!("  {who}: {state}\n"));
    }
    let mut gates = vec![(
        "every session terminated with a classification",
        results.len() == tenants * sessions && results.iter().all(|(_, s)| classified(s)),
    )];

    if zero_faults {
        let _ = Client::new(&socket, "soak-probe").expect_ok(&Request::new("shutdown"));
        out.push_str(&child.output());
    } else {
        child.0.kill().expect("SIGKILL histpcd");
        out.push_str(&child.output());
        out.push_str("killed histpcd mid-serve\n");
        gates.extend(kill_and_recover(&store, &socket, epoch_before, &mut out));
    }

    // Post-mortem store maintenance, with every daemon gone: one
    // repair pass, then a read-only integrity walk.
    let session = Session::with_store(&store).expect("store reopens after shutdown");
    let store_handle = session.store().expect("soak session has a store");
    for note in store_handle.repair().expect("store repair runs") {
        out.push_str(&format!("repair: {note}\n"));
    }
    let findings = fsck(store_handle.root());
    let errors = findings.iter().filter(|d| d.is_error()).count();
    out.push_str(&format!(
        "fsck: {errors} error(s), {} warning(s) after repair\n",
        findings.len() - errors
    ));
    gates.push(("store is fsck-clean after one repair pass", errors == 0));

    // Zero-fault bit-identity: what the daemon stored must be exactly
    // what a bare in-process diagnose produces.
    if zero_faults {
        gates.push((
            "zero-fault fleet completed without intervention",
            results.iter().all(|(_, s)| s == "completed"),
        ));
        let store_app = histpc::apps::build_workload("tester", Some(0))
            .expect("tester app")
            .app_spec()
            .name;
        let bare = Session::new();
        let identical = plans.iter().enumerate().all(|(t, row)| {
            row.iter().enumerate().all(|(s, (_, _, _, plan_seed))| {
                let label = format!("soak-t{t:02}-s{s:02}");
                let Ok(stored) = store_handle.load(&store_app, &label) else {
                    return false;
                };
                let workload =
                    histpc::apps::build_workload("tester", Some(*plan_seed)).expect("tester app");
                let d = bare
                    .diagnose(workload.as_ref(), &local_config(), &label)
                    .expect("zero-fault config lints clean");
                write_record(&stored) == write_record(&d.record)
            })
        });
        gates.push(("reports byte-identical to in-process diagnoses", identical));
    }
    drop(session);
    let out = out.replace(&dir.display().to_string(), "<scratch>");
    assert_gates(&case, &gates, &out);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Stages the disk state a daemon SIGKILLed mid-session leaves, restarts
/// `histpcd` on it, and returns the recovery gates.
fn kill_and_recover(
    store: &Path,
    socket: &Path,
    epoch_before: Option<u64>,
    out: &mut String,
) -> Vec<(&'static str, bool)> {
    stage_crashed_daemon(
        store,
        Some(5),
        epoch_before.unwrap_or(1),
        ("team-kill", "kill-crashed"),
        ("team-kill", "kill-hopeless"),
    );
    let mut child = spawn_histpcd(store, socket);
    let mut client = Client::new(socket, "team-kill");
    let health = client
        .expect_ok(&Request::new("health"))
        .expect("health after restart");
    let epoch_after: Option<u64> = health.get("epoch").and_then(|v| v.parse().ok());
    let adopted: u64 = health
        .get("adopted")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    out.push_str(&format!(
        "restart: epoch {epoch_before:?} -> {epoch_after:?}, {adopted} lease(s) re-adopted\n"
    ));
    let crashed = client
        .expect_ok(
            &Request::new("attach")
                .arg("label", "kill-crashed")
                .arg("wait-ms", 120_000u64),
        )
        .expect("attach re-adopted session");
    let crashed_state = crashed.get("state").unwrap_or("missing").to_string();
    let report_lines = client
        .expect_ok(&Request::new("report").arg("label", "kill-crashed"))
        .map(|r| r.body().len())
        .unwrap_or(0);
    let hopeless = client
        .expect_ok(&Request::new("attach").arg("label", "kill-hopeless"))
        .expect("attach abandoned session");
    out.push_str(&format!(
        "  kill-crashed: {crashed_state} (adopted={}, report {report_lines} line(s)); \
         kill-hopeless: {}\n",
        crashed.get("adopted").unwrap_or("?"),
        hopeless.get("state").unwrap_or("missing"),
    ));
    let leases_left = lease::read_leases(store).map(|l| l.len()).unwrap_or(99);
    let _ = client.expect_ok(&Request::new("shutdown"));
    out.push_str(&child.output());

    vec![
        (
            "restarted daemon re-adopted the checkpointed lease",
            adopted >= 1
                && matches!(crashed_state.as_str(), "completed" | "recovered")
                && crashed.get("adopted") == Some("1"),
        ),
        (
            "re-adopted session stored a readable record",
            report_lines > 0,
        ),
        (
            "checkpoint-less lease was classified abandoned",
            hopeless.get("state") == Some("abandoned"),
        ),
        (
            "lease epoch advanced across the kill",
            matches!((epoch_before, epoch_after), (Some(b), Some(a)) if a > b),
        ),
        ("no lease file survives classification", leases_left == 0),
    ]
}

/// Compares `actual` with `tests/golden/<name>.txt`; to refresh a golden,
/// copy the file the failure message names over it.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let dump = std::env::temp_dir().join(format!("histpc-golden-actual-{name}.txt"));
    std::fs::write(&dump, actual).expect("temp dir is writable");
    panic!(
        "{name}: transcript differs from {}\n--- want\n{expected}--- got\n{actual}\
         actual text written to {}",
        path.display(),
        dump.display()
    );
}

#[test]
fn daemon_soak_survives_faults_and_a_sigkill() {
    let transcript = daemon_fleet("golden", 4, 2, 1, false);
    check_golden("daemon-soak-4x2-seed1", &transcript);
}

#[test]
fn daemon_soak_without_faults_is_bit_identical() {
    let transcript = daemon_fleet("golden", 4, 2, 1, true);
    check_golden("daemon-soak-4x2-seed1-zero", &transcript);
}

#[test]
#[ignore = "the daemon soak matrix: run in release mode"]
fn daemon_soak_matrix_holds_its_gates() {
    for seed in [1, 7, 99] {
        for tenants in [4, 8] {
            for zero_faults in [false, true] {
                daemon_fleet("matrix", tenants, 3, seed, zero_faults);
            }
        }
    }
}

/// The operator path end to end through the built binaries: `histpc
/// daemon start` launches the `histpcd` beside it, a remote run
/// completes, status answers, and `stop` shuts the daemon down.
#[test]
fn histpc_daemon_start_run_status_stop() {
    let histpc = Path::new(env!("CARGO_BIN_EXE_histpcd")).with_file_name("histpc");
    assert!(
        histpc.exists(),
        "{}: histpc binary not built; build the workspace (cargo test --workspace)",
        histpc.display()
    );
    let root = scratch("smoke");
    let (store, socket) = (root.join("store"), root.join("d.sock"));
    // A failing step must not leave the detached daemon serving.
    struct StopOnDrop<'a>(&'a Path);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            if self.0.exists() {
                let _ = Client::new(self.0, "cleanup").expect_ok(&Request::new("shutdown"));
            }
        }
    }
    let _stop = StopOnDrop(&socket);
    // `daemon start` leaves histpcd holding the streams it inherited, so
    // they go to a file: a pipe would never reach end of file.
    let log = root.join("histpc.log");
    let histpc_ok = |args: &[&str]| {
        let status = Command::new(&histpc)
            .args(args)
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log).expect("log file"))
            .status()
            .expect("histpc runs");
        assert!(
            status.success(),
            "histpc {args:?} failed ({status}):\n{}",
            std::fs::read_to_string(&log).unwrap_or_default()
        );
    };
    let (store_arg, socket_arg) = (
        store.to_str().expect("utf-8 path"),
        socket.to_str().expect("utf-8 path"),
    );
    histpc_ok(&[
        "daemon", "start", "--store", store_arg, "--socket", socket_arg,
    ]);
    histpc_ok(&[
        "run", "--remote", socket_arg, "--app", "tester", "--label", "smoke", "--tenant", "ci",
        "--seed", "7",
    ]);
    histpc_ok(&["daemon", "status", "--socket", socket_arg]);
    histpc_ok(&["daemon", "stop", "--socket", socket_arg]);
    assert!(await_path(&socket, false), "histpcd did not shut down");
    let _ = std::fs::remove_dir_all(&root);
}

/// The same `histpc run` command line diagnoses the same configuration
/// with or without `--remote`: both build one `RunSpec` from the flags,
/// and the remote one sends it with every setting written out, so the
/// daemon's store holds the byte-identical record.
#[test]
fn local_and_remote_runs_store_the_same_record() {
    let histpc = Path::new(env!("CARGO_BIN_EXE_histpcd")).with_file_name("histpc");
    assert!(
        histpc.exists(),
        "{}: histpc binary not built",
        histpc.display()
    );
    let root = scratch("samerecord");
    let (local, remote, socket) = (root.join("a"), root.join("b"), root.join("d.sock"));
    let daemon = Daemon::start(DaemonConfig::new(&remote, &socket)).unwrap();
    let run = |extra: [&Path; 2]| {
        let out = Command::new(&histpc)
            .args(["run", "--app", "tester", "--seed", "7", "--label", "r"])
            .args(extra)
            .output()
            .expect("histpc runs");
        assert!(
            out.status.success(),
            "histpc run {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run([Path::new("--store"), &local]);
    run([Path::new("--remote"), &socket]);
    let record = |store: &Path| std::fs::read(store.join("Tester/r.record")).unwrap();
    assert!(
        record(&local) == record(&remote),
        "local and remote records differ"
    );
    Client::new(&socket, "t")
        .expect_ok(&Request::new("shutdown"))
        .unwrap();
    daemon.join();
    let _ = std::fs::remove_dir_all(&root);
}
