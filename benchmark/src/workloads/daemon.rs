//! `daemon_fleet`: two clients driving `tester` sessions through an
//! in-process `histpcd` over its real Unix socket.

use super::diagnosis::{quick_config, span_metrics, write_trace};
use crate::run::{repeat_setup, timed, Measured, RunArgs, RunOutput, Scratch, Timed, MIN_OPS};
use crate::stats;
use crate::trace::Tracer;
use histpc::history::format::write_record;
use histpc::history::ExecutionRecord;
use histpc::prelude::*;
use histpc::remote::{Client, RemoteError, Request, Response};
use histpc::supervise::SessionDriver;
use histpc_daemon::{Daemon, DaemonConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Client connections (and generator threads).
const CLIENTS: usize = 2;
/// Both clients are one tenant, so they share its two session slots and
/// its sample budget: the contention the workload exists to show.
const TENANT: &str = "fleet";
const APP: &str = "tester";

/// A running daemon plus what the oracle needs.
struct Fleet {
    daemon: Option<Daemon>,
    socket: PathBuf,
    dir: PathBuf,
    boot_ms: f64,
    seed: u64,
    /// The in-process `Session::diagnose` record for the same app, seed
    /// and configuration; a report body must equal it, label aside.
    reference: ExecutionRecord,
}

impl Fleet {
    fn boot(args: &RunArgs, scratch: &Scratch) -> Result<Fleet, String> {
        let dir = scratch.fresh("daemon")?;
        let socket = dir.join("d.sock");
        let (daemon, boot_ms) =
            timed(|| Daemon::start(DaemonConfig::new(dir.join("store"), &socket)));
        let daemon = daemon.map_err(|e| format!("daemon start: {e:?}"))?;
        let workload = histpc::build_workload(APP, Some(args.seed))?;
        let reference = Session::new()
            .diagnose(workload.as_ref(), &session_config(), "reference")
            .map_err(|e| e.to_string())?
            .record;
        Ok(Fleet {
            daemon: Some(daemon),
            socket,
            dir,
            boot_ms,
            seed: args.seed,
            reference,
        })
    }

    fn client(&self) -> Client {
        let mut client = Client::new(&self.socket, TENANT);
        // `busy` answers are retried here, where they can be counted.
        client.max_attempts = 1;
        client
    }

    fn expected_report(&self, label: &str) -> String {
        let mut rec = self.reference.clone();
        rec.label = label.to_string();
        write_record(&rec)
    }

    /// Asks the daemon to shut down and waits for it; returns the
    /// milliseconds that took.
    fn shutdown(&mut self) -> Result<f64, String> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(0.0);
        };
        let mut client = self.client();
        let (result, ms) = timed(|| {
            let r = client.expect_ok(&Request::new("shutdown"));
            daemon.join();
            r
        });
        result.map(|_| ms).map_err(|e| e.to_string())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Every process and thread the run started must have ended
        // before it exits.
        let _ = self.shutdown();
    }
}

/// The configuration a daemon session runs with by default (see
/// `SessionSpec::search_config`), for the in-process comparisons.
fn session_config() -> SearchConfig {
    SearchConfig {
        stall: Some(SimDuration::from_secs(2)),
        ..quick_config()
    }
}

/// Sends `req`, retrying (and counting) `busy` answers. The pause is
/// shorter than the daemon's 200 ms hint: a slot frees as soon as a
/// ~10 ms session ends, and waiting out the hint would measure the hint.
fn request(client: &mut Client, req: &Request, busy: &mut u64) -> Result<Response, String> {
    loop {
        match client.expect_ok(req) {
            Ok(resp) => return Ok(resp),
            Err(RemoteError::Daemon { code, .. }) if code == "busy" => {
                *busy += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// One op: start a session, wait for it, fetch its report; the report
/// must be the in-process record. Returns the op's milliseconds.
fn session_op(
    fleet: &Fleet,
    client: &mut Client,
    label: &str,
    tr: &mut Tracer,
    busy: &mut u64,
) -> Result<f64, String> {
    let t = Instant::now();
    tr.enter("daemon.op");
    let start = Request::new("start")
        .arg("app", APP)
        .arg("label", label)
        .arg("seed", fleet.seed);
    let outcome = (|| {
        tr.span("daemon.start_rtt", || request(client, &start, busy))?;
        let attach = Request::new("attach")
            .arg("label", label)
            .arg("wait-ms", 30_000u64);
        let done = tr.span("daemon.attach_wait", || request(client, &attach, busy))?;
        if done.get("state") != Some("completed") {
            return Err(format!("{label}: state {:?}", done.get("state")));
        }
        let report = Request::new("report").arg("label", label);
        tr.span("daemon.report_rtt", || request(client, &report, busy))
    })();
    tr.exit();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let body = format!("{}\n", outcome?.body().join("\n"));
    if body != fleet.expected_report(label) {
        return Err(format!(
            "{label}: report differs from the in-process record"
        ));
    }
    Ok(ms)
}

/// What one client thread brings back.
struct ClientRun {
    timed: Timed,
    tracer: Tracer,
    busy: u64,
}

/// Runs the closed loops of all clients for `seconds` (at least
/// `min_ops` each); labels are `<phase>-c<client>-<op>`.
fn fleet_loop(
    fleet: &Fleet,
    phase: &str,
    seconds: f64,
    min_ops: usize,
    traced: bool,
) -> (Vec<ClientRun>, f64) {
    let t = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    let mut run = ClientRun {
                        timed: Timed::default(),
                        tracer: if traced {
                            Tracer::since(t)
                        } else {
                            Tracer::off()
                        },
                        busy: 0,
                    };
                    let mut client = fleet.client();
                    let start = Instant::now();
                    let mut i = 0;
                    while start.elapsed().as_secs_f64() < seconds || i < min_ops {
                        let label = format!("{phase}-c{k}-{i:05}");
                        run.tracer.begin_op((k * 1_000_000 + i) as u32);
                        run.timed.record(session_op(
                            fleet,
                            &mut client,
                            &label,
                            &mut run.tracer,
                            &mut run.busy,
                        ));
                        i += 1;
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (runs, t.elapsed().as_secs_f64())
}

fn merged(runs: &[ClientRun], wall_s: f64) -> Timed {
    let mut all = Timed::default();
    for r in runs {
        all.merge(r.timed.clone());
    }
    all.wall_s = wall_s;
    all
}

/// Runs `daemon_fleet`.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let scratch = Scratch::create(args)?;
    let mut out = RunOutput::default();
    // Enough warm-up ops that set-up is mostly steady-state sessions:
    // the first few on a fresh store (directories, first manifest) are
    // file-system bound and twice as noisy as the rest.
    let warmups = if args.quick { 2 } else { 50 };
    let (mut fleet, setup_s) = repeat_setup(args.setup_repeats(), || {
        let fleet = Fleet::boot(args, &scratch)?;
        let (runs, _) = fleet_loop(&fleet, "warm", 0.0, warmups, false);
        match runs.iter().flat_map(|r| &r.timed.failures).next() {
            Some(msg) => Err(format!("warm-up op failed: {msg}")),
            None => Ok(fleet),
        }
    })?;

    if !args.trace {
        let (runs, wall_s) = fleet_loop(&fleet, "run", args.seconds, MIN_OPS, false);
        out.set_end_to_end(setup_s, &merged(&runs, wall_s));
        set_store_size(&fleet, &mut out)?;
        return Ok(out);
    }

    // Half the window untraced, half traced: the two medians give the
    // tracing overhead.
    let half = args.seconds / 2.0;
    let (plain_runs, plain_wall) = fleet_loop(&fleet, "plain", half, MIN_OPS, false);
    let plain = merged(&plain_runs, plain_wall);
    let (traced_runs, traced_wall) = fleet_loop(&fleet, "traced", half, MIN_OPS, true);
    let traced = merged(&traced_runs, traced_wall);
    out.absorb(&plain);
    out.absorb(&traced);
    out.set_partial_end_to_end(&plain);

    let mut tr = Tracer::new();
    let mut busy = 0;
    for run in traced_runs.into_iter().chain(plain_runs) {
        tr.absorb(run.tracer);
        busy += run.busy;
    }
    span_metrics(&tr, &mut out);
    out.set(Measured::one("daemon.busy_retries", busy as f64));
    out.set(Measured::one("daemon.boot_ms", fleet.boot_ms));
    out.set_trace_overhead(&traced, &plain);

    probes(
        args,
        &scratch,
        &fleet,
        stats::median(&plain.op_ms),
        &mut out,
    )?;
    set_store_size(&fleet, &mut out)?;
    out.set(Measured::one("daemon.shutdown_ms", fleet.shutdown()?));
    write_trace(args, &tr, &mut out);
    Ok(out)
}

fn set_store_size(fleet: &Fleet, out: &mut RunOutput) -> Result<(), String> {
    let store_dir = fleet.dir.join("store");
    let store = ExecutionStore::open(&store_dir).map_err(|e| e.to_string())?;
    let mut records = 0;
    for app in store.applications().map_err(|e| e.to_string())? {
        records += store.labels(&app).map_err(|e| e.to_string())?.len();
    }
    out.set_store_size(&store_dir, records);
    Ok(())
}

/// Single-client measurements after the fleet loops: the bare wire
/// round trip, the same sessions in-process and under the supervisor,
/// and a guided cycle through the daemon.
fn probes(
    args: &RunArgs,
    scratch: &Scratch,
    fleet: &Fleet,
    fleet_p50: Option<f64>,
    out: &mut RunOutput,
) -> Result<(), String> {
    let n = if args.quick { 3 } else { 30 };
    let mut client = fleet.client();
    let mut busy = 0;

    let health_ms: Vec<f64> = (0..n * 3)
        .map(|_| timed(|| request(&mut client, &Request::new("health"), &mut busy)))
        .map(|(r, ms)| r.map(|_| ms))
        .collect::<Result<_, _>>()?;
    out.set(Measured::median_of("daemon.health_rtt_ms_p50", &health_ms));

    // The same sessions without the daemon: straight through
    // `Session::diagnose` into a scratch store, then through the
    // supervisor the daemon wraps every session in.
    let workload = histpc::build_workload(APP, Some(fleet.seed))?;
    let config = session_config();
    let bare_session = Session::with_store(scratch.fresh("bare")?).map_err(|e| e.to_string())?;
    let mut bare_ms = Vec::with_capacity(n);
    for i in 0..n {
        let label = format!("bare-{i:03}");
        let (d, ms) = timed(|| bare_session.diagnose(workload.as_ref(), &config, &label));
        d.map_err(|e| e.to_string())?;
        bare_ms.push(ms);
    }
    let bare = Measured::median_of("daemon.inprocess_ms_p50", &bare_ms);
    if let Some(p50) = fleet_p50 {
        out.set(Measured {
            name: "daemon.overhead_ms",
            value: p50 - bare.value,
            n: bare.n,
        });
    }

    let sup_session = Session::with_store(scratch.fresh("sup")?).map_err(|e| e.to_string())?;
    let supervisor = Supervisor::new(SupervisorConfig::default());
    let mut sup_ms = Vec::with_capacity(n);
    for i in 0..n {
        let driver = WorkloadSession::new(
            &sup_session,
            workload.as_ref(),
            config.clone(),
            format!("sup-{i:03}"),
        );
        let (report, ms) = timed(|| supervisor.run(&[&driver as &dyn SessionDriver]));
        if report.completed() != 1 {
            out.failures
                .push(format!("supervised session sup-{i:03} did not complete"));
        }
        sup_ms.push(ms);
    }
    let sup = Measured::median_of("supervise.run_ms_p50", &sup_ms);
    out.set(Measured {
        name: "supervise.overhead_ms",
        value: sup.value - bare.value,
        n: sup.n,
    });
    out.set(sup);
    out.set(bare);

    // Ten guided sessions: each harvests its directives from a finished
    // session of this tenant before diagnosing.
    let from = "warm-c0-00000";
    let (cycle, cycle_ms) = timed(|| -> Result<(), String> {
        for i in 0..10 {
            let label = format!("guided-{i:02}");
            let start = Request::new("start")
                .arg("app", APP)
                .arg("label", &label)
                .arg("seed", fleet.seed)
                .arg("harvest-from", from);
            request(&mut client, &start, &mut busy)?;
            let attach = Request::new("attach")
                .arg("label", &label)
                .arg("wait-ms", 30_000u64);
            let done = request(&mut client, &attach, &mut busy)?;
            if done.get("state") != Some("completed") {
                return Err(format!("{label}: state {:?}", done.get("state")));
            }
            request(
                &mut client,
                &Request::new("report").arg("label", &label),
                &mut busy,
            )?;
        }
        Ok(())
    });
    cycle?;
    out.set(Measured {
        name: "daemon.guided_cycle_ms",
        value: cycle_ms,
        n: 10,
    });
    Ok(())
}
