//! Durability of the trust ledger sidecar: revocations pinned by a
//! failed shadow audit must survive every store maintenance operation
//! (`store compact`, v0→v1 `migrate`), a `TRUST` damaged at an
//! arbitrary byte offset must never half-parse into a wrong ledger —
//! the loader falls back to the committed tmp or to full trust — and
//! concurrent updates must all land.

use histpc_consultant::Outcome;
use histpc_history::trust::{TrustLedger, TRUST_FILE};
use histpc_history::{ExecutionRecord, ExecutionStore};
use histpc_resources::{Focus, ResourceName};
use histpc_sim::SimTime;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "histpc-trust-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(label: &str) -> ExecutionRecord {
    ExecutionRecord {
        app_name: "poisson".into(),
        app_version: "A".into(),
        label: label.into(),
        resources: vec![ResourceName::parse("/Code/solve.c/jacobi").unwrap()],
        outcomes: vec![histpc_consultant::NodeOutcome {
            hypothesis: "CPUbound".into(),
            focus: Focus::whole_program(["Code"]),
            outcome: Outcome::True,
            first_true_at: Some(SimTime(5)),
            concluded_at: Some(SimTime(5)),
            last_value: 0.5,
            samples: 4,
        }],
        thresholds_used: vec![("CPUbound".into(), 0.2)],
        end_time: SimTime(100),
        pairs_tested: 7,
        unreachable: vec![],
        saturated: vec![],
    }
}

/// A ledger carrying every kind of state: a dropped score, pass/fail
/// counters, a conflict key, and a pinned revocation.
fn tarnished_ledger() -> TrustLedger {
    let mut ledger = TrustLedger::new();
    ledger.record_audit("poisson/a1", false);
    ledger.record_audit("poisson/a1", false);
    ledger.record_audit("poisson/a2", true);
    ledger.record_conflict("poisson/a1", "CPUbound /Code/solve.c/jacobi");
    ledger.record_revocation("poisson/a1", "prune CPUbound focus /Code/solve.c/jacobi");
    ledger
}

/// `store compact` rebuilds the manifest, resets the journal, and
/// sweeps app-directory temp files — but the root `TRUST` sidecar
/// (and even a committed `TRUST.tmp` from an interrupted save) must
/// come through byte-identical, or a compaction would quietly
/// resurrect a revoked directive on the next harvest.
#[test]
fn revocation_survives_store_compact() {
    let dir = scratch("compact");
    let store = ExecutionStore::open(&dir).unwrap();
    store.save(&record("a1")).unwrap();

    let ledger = tarnished_ledger();
    ledger.save(&dir).unwrap();
    let before = std::fs::read_to_string(dir.join(TRUST_FILE)).unwrap();
    // An interrupted save leaves a committed tmp; compact's stray-tmp
    // sweep covers app dirs and the manifest only, never root sidecars.
    std::fs::write(dir.join(format!("{TRUST_FILE}.tmp")), &before).unwrap();

    store.compact().unwrap();

    let after = std::fs::read_to_string(dir.join(TRUST_FILE)).unwrap();
    assert_eq!(before, after, "compact rewrote the TRUST sidecar");
    assert!(
        dir.join(format!("{TRUST_FILE}.tmp")).exists(),
        "compact swept the root TRUST.tmp fallback"
    );
    let reloaded = TrustLedger::load(&dir);
    assert_eq!(reloaded, ledger);
    assert!(reloaded.is_revoked("poisson/a1", "prune CPUbound focus /Code/solve.c/jacobi"));
}

/// v0→v1 `migrate` rewrites every loose record into a checksum frame
/// and creates the control files; a `TRUST` ledger dropped into a v0
/// root beforehand must survive untouched, revocations included.
#[test]
fn revocation_survives_v0_migrate() {
    let dir = scratch("migrate");
    let app = dir.join("poisson");
    std::fs::create_dir_all(&app).unwrap();
    std::fs::write(
        app.join("a1.record"),
        histpc_history::format::write_record(&record("a1")),
    )
    .unwrap();

    let ledger = tarnished_ledger();
    ledger.save(&dir).unwrap();
    let before = std::fs::read_to_string(dir.join(TRUST_FILE)).unwrap();

    let store = ExecutionStore::open(&dir).unwrap();
    assert_eq!(store.migrate().unwrap(), 1);

    let framed = std::fs::read_to_string(app.join("a1.record")).unwrap();
    assert!(framed.starts_with("histpc-frame v1 "), "record not framed");
    let after = std::fs::read_to_string(dir.join(TRUST_FILE)).unwrap();
    assert_eq!(before, after, "migrate rewrote the TRUST sidecar");
    let reloaded = TrustLedger::load(&dir);
    assert_eq!(reloaded, ledger);
    assert!(reloaded.is_revoked("poisson/a1", "prune CPUbound focus /Code/solve.c/jacobi"));

    // And fsck agrees the sidecar is not store data to be validated.
    let diags = histpc_history::fsck::fsck(&dir);
    assert!(
        diags.iter().all(|d| !d.is_error()),
        "fsck errors: {diags:?}"
    );
}

/// Ledger-shaped proptest input: a sequence of trust events applied in
/// order. Sources and payloads vary in length so truncation offsets
/// land everywhere in the serialized form.
fn events() -> impl Strategy<Value = Vec<(String, u8, String)>> {
    prop::collection::vec(("[a-z][a-z0-9/._-]{0,12}", 0u8..4, "[ -~]{1,40}"), 1..16)
}

fn ledger_from(events: &[(String, u8, String)]) -> TrustLedger {
    let mut ledger = TrustLedger::new();
    for (source, kind, payload) in events {
        match kind {
            0 => ledger.record_audit(source, true),
            1 => ledger.record_audit(source, false),
            2 => {
                ledger.record_conflict(source, payload);
            }
            _ => {
                ledger.record_revocation(source, payload);
            }
        }
    }
    ledger
}

proptest! {
    /// A `TRUST` that is damaged — torn at any byte offset by a writer
    /// outside the store's protocol, or garbled — never yields a wrong
    /// ledger: every proper prefix of a serialized ledger is rejected
    /// (that is what the FNV-framed body buys), and a load falls back
    /// to a complete `TRUST.tmp` an interrupted save left behind.
    /// Cuts of the store's own saves are enumerated by the crash tests
    /// in `durable.rs`.
    #[test]
    fn torn_trust_write_never_corrupts(
        old_events in events(),
        new_events in events(),
        cut in 0.0f64..1.0,
    ) {
        let dir = scratch("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let old = ledger_from(&old_events);
        let mut new = old.clone();
        for (source, kind, payload) in &new_events {
            match kind {
                0 => new.record_audit(source, true),
                1 => new.record_audit(source, false),
                2 => { new.record_conflict(source, payload); }
                _ => { new.record_revocation(source, payload); }
            }
        }
        let new_bytes = new.to_text().into_bytes();
        let cut_at = ((new_bytes.len() as f64) * cut) as usize;
        let torn = &new_bytes[..cut_at.min(new_bytes.len())];

        // A proper prefix must never parse.
        if cut_at < new_bytes.len() {
            if let Ok(text) = std::str::from_utf8(torn) {
                prop_assert!(TrustLedger::parse(text).is_none());
            }
        }

        // The tmp was written in full, then TRUST itself was damaged.
        // The loader falls back to the tmp.
        std::fs::write(dir.join(TRUST_FILE), torn).unwrap();
        std::fs::write(dir.join(format!("{TRUST_FILE}.tmp")), &new_bytes).unwrap();
        prop_assert_eq!(&TrustLedger::load(&dir), &new);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sessions sharing one store (as `histpcd`'s tenants do) update `TRUST`
/// at the same time. Each update runs under the store lock, so none is
/// lost and no save can interleave with another in `TRUST.tmp`: the
/// ledger loads whole, with every thread's every revocation in it.
#[test]
fn concurrent_trust_updates_keep_every_revocation() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 12;
    let dir = scratch("concurrent");
    let store = ExecutionStore::open(&dir).unwrap();
    let round = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (store, round) = (&store, &round);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    round.wait();
                    store
                        .update_trust(|l| {
                            l.record_revocation(&format!("poisson/t{t}"), &format!("prune {r}"));
                        })
                        .unwrap();
                }
            });
        }
    });
    let text = std::fs::read_to_string(dir.join(TRUST_FILE)).unwrap();
    let ledger = TrustLedger::parse(&text).expect("TRUST loads whole");
    for t in 0..THREADS {
        for r in 0..ROUNDS {
            assert!(
                ledger.is_revoked(&format!("poisson/t{t}"), &format!("prune {r}")),
                "thread {t} round {r}: revocation lost"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
