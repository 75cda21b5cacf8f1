//! End-to-end daemon tests: a real `Daemon` on a real Unix socket,
//! driven through the retrying [`histpc::remote::Client`].

use std::path::PathBuf;

use histpc::history::lease::{self, Lease};
use histpc::prelude::*;
use histpc::remote::{Client, RemoteError, Request, Response};
use histpc_daemon::{Daemon, DaemonConfig, SessionSpec};

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

#[test]
fn crashed_daemon_leases_are_readopted_or_abandoned() {
    let root = scratch("readopt");
    let store_root = root.join("store");

    // Simulate a crashed daemon: a session that halted at a checkpoint
    // (tool crash), its lease still on disk; plus a lease with no
    // checkpoint at all; plus a damaged lease file.
    let spec = SessionSpec {
        app: "tester".into(),
        label: "crashed".into(),
        seed: None,
        window_ms: 800,
        sample_ms: 100,
        max_time_ms: 120_000,
        faults: Some("histpc-faults v1\nseed 5\ncrash-tool 1000000\n".into()),
        budget: None,
        harvest_from: None,
        audit_budget: None,
    };
    // Leases name the app the way the *store* keys it (the resolved
    // AppSpec name), which need not equal the catalogue spec string.
    let store_app = histpc::apps::build_workload("tester", None)
        .unwrap()
        .app_spec()
        .name;
    {
        let session = Session::with_store(&store_root).unwrap();
        let workload = histpc::apps::build_workload("tester", None).unwrap();
        let mut config = local_config();
        config.faults = FaultPlan::parse(spec.faults.as_deref().unwrap()).unwrap();
        let run = session
            .diagnose_faulted(workload.as_ref(), &config, "crashed", None)
            .unwrap();
        assert!(run.halted.is_some(), "crash plan must halt the session");
        assert!(
            session
                .store()
                .unwrap()
                .load_artifact(&store_app, "crashed", "ckpt")
                .is_ok(),
            "halt must persist a checkpoint"
        );
    }
    lease::write_lease(
        &store_root,
        &Lease {
            tenant: "team-a".into(),
            app: store_app.clone(),
            label: "crashed".into(),
            epoch: 1,
            state: "active".into(),
            spec: spec.to_spec_line(),
        },
    )
    .unwrap();
    lease::write_lease(
        &store_root,
        &Lease {
            tenant: "team-b".into(),
            app: store_app,
            label: "hopeless".into(),
            epoch: 1,
            state: "active".into(),
            spec: String::new(),
        },
    )
    .unwrap();
    std::fs::write(
        store_root.join(lease::LEASE_DIR).join("torn.lease"),
        "histpc-frame v1 99 deadbeef\ntruncated",
    )
    .unwrap();

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
    let plan =
        FaultPlan::parse("histpc-faults v1\nseed 11\nwire-conn-drop 0.3\nwire-torn-request 0.2\n")
            .unwrap();
    let mut client = Client::new(root.join("d.sock"), "flaky")
        .with_injector(histpc::faults::WireInjector::new(plan));
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
