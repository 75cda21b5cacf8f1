//! Corpus analyzer integration tests: one seeded fixture per `HL03x`
//! code, plus the incremental fact-cache contract over a 1k-run store.

use histpc_consultant::directive::PriorityLevel;
use histpc_consultant::{NodeOutcome, Outcome};
use histpc_history::factcache::FACTCACHE_FILE;
use histpc_history::{ExecutionRecord, ExecutionStore};
use histpc_lint::{CorpusAnalyzer, CorpusOptions, VerdictMemo};
use histpc_resources::{Focus, ResourceName};
use histpc_sim::SimTime;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histpc-corpus-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Stages a writer that died tearing `<app>/<label>.record`: its `put`
/// intent left in the journal without an `ok`, and the file cut at
/// `cut` (a fraction of its length, at least one byte short).
fn tear_record(dir: &std::path::Path, app: &str, label: &str, cut: f64) {
    use std::io::Write;
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(histpc_history::journal::JOURNAL_FILE))
        .unwrap();
    writeln!(journal, "put 0000000000000000 record {app} {label}").unwrap();
    let path = dir.join(app).join(format!("{label}.record"));
    let text = std::fs::read_to_string(&path).unwrap();
    let mut at = ((text.len() as f64 * cut) as usize).min(text.len() - 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    std::fs::write(&path, &text[..at]).unwrap();
}

fn n(s: &str) -> ResourceName {
    ResourceName::parse(s).unwrap()
}

fn wp() -> Focus {
    Focus::whole_program(["Code", "Machine", "Process", "SyncObject"])
}

/// An outcome on the whole-program focus narrowed by `sels`.
fn o(hyp: &str, sels: &[&str], outcome: Outcome, value: f64) -> NodeOutcome {
    let mut focus = wp();
    for s in sels {
        focus = focus.with_selection(n(s));
    }
    NodeOutcome {
        hypothesis: hyp.into(),
        focus,
        outcome,
        first_true_at: (outcome == Outcome::True).then_some(SimTime(1)),
        concluded_at: Some(SimTime(1)),
        last_value: value,
        samples: 5,
    }
}

/// A record over a small fixed resource set plus `extra` resources.
fn rec(
    app: &str,
    version: &str,
    label: &str,
    extra: &[&str],
    outcomes: Vec<NodeOutcome>,
) -> ExecutionRecord {
    let mut resources = vec![
        n("/Code"),
        n("/Code/a.c"),
        n("/Code/a.c/f"),
        n("/Code/a.c/g"),
        n("/Machine"),
        n("/Machine/n1"),
        n("/Process"),
        n("/Process/p1"),
        n("/SyncObject"),
    ];
    resources.extend(extra.iter().map(|s| n(s)));
    ExecutionRecord {
        app_name: app.into(),
        app_version: version.into(),
        label: label.into(),
        resources,
        outcomes,
        thresholds_used: vec![],
        end_time: SimTime(10),
        pairs_tested: 1,
        unreachable: vec![],
        saturated: vec![],
    }
}

fn analyze(store: &ExecutionStore) -> histpc_lint::CorpusAnalysis {
    CorpusAnalyzer::new(store).analyze().unwrap()
}

#[test]
fn hl030_cross_run_prune_priority_conflict() {
    let dir = scratch("hl030");
    let store = ExecutionStore::open(&dir).unwrap();
    // Run 1 finds f trivial (subtree prune); run 2 finds f a bottleneck
    // (high priority). The corpus contradicts itself about f.
    store
        .save(&rec(
            "app",
            "A",
            "r1",
            &[],
            vec![o("CPUbound", &["/Code/a.c/f"], Outcome::False, 0.001)],
        ))
        .unwrap();
    store
        .save(&rec(
            "app",
            "A",
            "r2",
            &[],
            vec![o("CPUbound", &["/Code/a.c/f"], Outcome::True, 0.4)],
        ))
        .unwrap();

    let analysis = analyze(&store);
    let conflicts = analysis.report.with_code("HL030");
    assert_eq!(
        conflicts.len(),
        1,
        "report: {:?}",
        analysis.report.diagnostics
    );
    assert!(conflicts[0].message.contains("/Code/a.c/f"));
    assert_eq!(conflicts[0].file, "app/r2.record");
    assert_eq!(analysis.verdicts.len(), 1);

    // Harvest-time vetting: the high priority from r2 and the trivial
    // prune from r1 are both down-ranked.
    let opts = histpc_history::ExtractionOptions::priorities_and_safe_prunes();
    let raw2 = histpc_history::extract(&store.load("app", "r2").unwrap(), &opts);
    let (vetted2, dropped2) = analysis.verdicts.down_rank(&raw2, "app", "A");
    assert_eq!(dropped2, 1);
    assert!(!vetted2
        .priorities
        .iter()
        .any(|p| p.level == PriorityLevel::High
            && p.focus.selection("Code") == Some(&n("/Code/a.c/f"))));

    let raw1 = histpc_history::extract(&store.load("app", "r1").unwrap(), &opts);
    let (vetted1, dropped1) = analysis.verdicts.down_rank(&raw1, "app", "A");
    assert_eq!(dropped1, 1);
    assert!(vetted1.prunes.len() == raw1.prunes.len() - 1);

    // Verdicts are scoped: another app/version is untouched.
    let (other, dropped_other) = analysis.verdicts.down_rank(&raw2, "app", "B");
    assert_eq!(dropped_other, 0);
    assert_eq!(other.to_text(), raw2.to_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hl031_stale_resource_outside_recent_window() {
    let dir = scratch("hl031");
    let store = ExecutionStore::open(&dir).unwrap();
    // Oldest run harvests a high priority naming /Code/old.c/h; the
    // resource disappears from every later run.
    store
        .save(&rec(
            "app",
            "A",
            "r1",
            &["/Code/old.c", "/Code/old.c/h"],
            vec![o("CPUbound", &["/Code/old.c/h"], Outcome::True, 0.4)],
        ))
        .unwrap();
    for label in ["r2", "r3", "r4"] {
        store
            .save(&rec(
                "app",
                "A",
                label,
                &[],
                vec![o("CPUbound", &[], Outcome::True, 0.4)],
            ))
            .unwrap();
    }

    let opts = CorpusOptions {
        recent_window: 2,
        ..CorpusOptions::default()
    };
    let analysis = CorpusAnalyzer::with_options(&store, opts)
        .analyze()
        .unwrap();
    let stale = analysis.report.with_code("HL031");
    assert_eq!(stale.len(), 1, "report: {:?}", analysis.report.diagnostics);
    assert!(stale[0].message.contains("/Code/old.c/h"));
    assert_eq!(stale[0].file, "app/r1.record");

    // A window covering every run means nothing is stale.
    let wide = CorpusOptions {
        recent_window: 10,
        ..CorpusOptions::default()
    };
    let analysis = CorpusAnalyzer::with_options(&store, wide)
        .analyze()
        .unwrap();
    assert!(analysis.report.with_code("HL031").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hl032_threshold_drift_across_runs() {
    let dir = scratch("hl032");
    let store = ExecutionStore::open(&dir).unwrap();
    // Run d1 sees the sync bottleneck at 0.5 (threshold 0.45); run d2
    // sees the same bottleneck at only 0.1 — d1's threshold hides it.
    store
        .save(&rec(
            "app",
            "A",
            "d1",
            &[],
            vec![o("ExcessiveSyncWaitingTime", &[], Outcome::True, 0.5)],
        ))
        .unwrap();
    store
        .save(&rec(
            "app",
            "A",
            "d2",
            &[],
            vec![o("ExcessiveSyncWaitingTime", &[], Outcome::True, 0.1)],
        ))
        .unwrap();

    let analysis = analyze(&store);
    let drift = analysis.report.with_code("HL032");
    assert_eq!(drift.len(), 1, "report: {:?}", analysis.report.diagnostics);
    assert_eq!(drift[0].file, "app/d1.record");
    assert!(drift[0].message.contains("ExcessiveSyncWaitingTime"));
    // The lower threshold (from d2) hides nothing and is not flagged.
    assert!(!drift.iter().any(|d| d.file == "app/d2.record"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hl033_directive_dominated_by_foreign_prune() {
    let dir = scratch("hl033");
    let store = ExecutionStore::open(&dir).unwrap();
    // Run g1 harvests a low priority on g; run g2 finds g trivial and
    // prunes its subtree. After a corpus merge the low priority can
    // never fire.
    store
        .save(&rec(
            "app",
            "A",
            "g1",
            &[],
            vec![o("CPUbound", &["/Code/a.c/g"], Outcome::False, 0.05)],
        ))
        .unwrap();
    store
        .save(&rec(
            "app",
            "A",
            "g2",
            &[],
            vec![o("CPUbound", &["/Code/a.c/g"], Outcome::False, 0.001)],
        ))
        .unwrap();

    let analysis = analyze(&store);
    let dominated = analysis.report.with_code("HL033");
    assert_eq!(
        dominated.len(),
        1,
        "report: {:?}",
        analysis.report.diagnostics
    );
    assert_eq!(dominated[0].file, "app/g1.record");
    assert!(dominated[0].message.contains("priority low"));
    // A low priority is dead weight, not a contradiction: no HL030.
    assert!(analysis.report.with_code("HL030").is_empty());
    assert!(analysis.verdicts.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saves the conflict (HL030), drift (HL032) and dominance (HL033)
/// fixtures, two runs each, under apps `confl`, `drift` and `dom`.
fn save_pair_fixtures(store: &ExecutionStore) {
    let cpu_f = |v: f64, oc| vec![o("CPUbound", &["/Code/a.c/f"], oc, v)];
    let cpu_g = |v: f64| vec![o("CPUbound", &["/Code/a.c/g"], Outcome::False, v)];
    let sync = |v: f64| vec![o("ExcessiveSyncWaitingTime", &[], Outcome::True, v)];
    for r in [
        rec("confl", "A", "c1", &[], cpu_f(0.001, Outcome::False)),
        rec("confl", "A", "c2", &[], cpu_f(0.4, Outcome::True)),
        rec("drift", "A", "d1", &[], sync(0.5)),
        rec("drift", "A", "d2", &[], sync(0.1)),
        rec("dom", "A", "g1", &[], cpu_g(0.05)),
        rec("dom", "A", "g2", &[], cpu_g(0.001)),
    ] {
        store.save(&r).unwrap();
    }
}

/// What identifies one write of the FACTS sidecar: its bytes, its
/// mtime and (a rewrite renames a new file into place) its inode.
fn facts_stamp(dir: &std::path::Path) -> (Vec<u8>, std::time::SystemTime, u64) {
    use std::os::unix::fs::MetadataExt;
    let path = dir.join(FACTCACHE_FILE);
    let meta = std::fs::metadata(&path).unwrap();
    (
        std::fs::read(&path).unwrap(),
        meta.modified().unwrap(),
        meta.ino(),
    )
}

/// Findings, verdicts and the JSON report are a function of the store
/// alone: a cold cache, a warm one, one with a damaged entry and a
/// deleted one all give the same answer, and only a changed cache is
/// ever written back.
#[test]
fn analysis_does_not_depend_on_cache_state() {
    let dir = scratch("cache-states");
    let store = ExecutionStore::open(&dir).unwrap();
    save_pair_fixtures(&store);
    // The stale fixture (HL031) of `hl031_stale_resource_outside_recent_window`.
    let old = ["/Code/old.c", "/Code/old.c/h"];
    let in_old = vec![o("CPUbound", &["/Code/old.c/h"], Outcome::True, 0.4)];
    store.save(&rec("stale", "A", "r1", &old, in_old)).unwrap();
    for label in ["r2", "r3", "r4"] {
        let whole = vec![o("CPUbound", &[], Outcome::True, 0.4)];
        store.save(&rec("stale", "A", label, &[], whole)).unwrap();
    }
    let total = 10;
    let analyze = || {
        let opts = CorpusOptions {
            recent_window: 2,
            ..CorpusOptions::default()
        };
        CorpusAnalyzer::with_options(&store, opts)
            .analyze()
            .unwrap()
    };
    let answer = |a: &histpc_lint::CorpusAnalysis| {
        (
            histpc_lint::report_to_json(&a.report),
            format!("{:?}", a.verdicts.iter().collect::<Vec<_>>()),
        )
    };

    let cold = analyze();
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, total));
    for code in ["HL030", "HL031", "HL032", "HL033"] {
        assert!(!cold.report.with_code(code).is_empty(), "{code} missing");
    }
    let want = answer(&cold);
    let written = facts_stamp(&dir);

    // Warm: same answer, and the sidecar is not written again.
    let warm = analyze();
    assert_eq!((warm.cache_hits, warm.cache_misses), (total, 0));
    assert_eq!(answer(&warm), want);
    assert_eq!(warm.report.diagnostics, cold.report.diagnostics);
    assert_eq!(facts_stamp(&dir), written, "a warm pass rewrote FACTS");

    // One byte flipped inside a `d` line: that entry alone is
    // re-lowered, never half-trusted, and the repaired sidecar is
    // byte-identical to the original.
    let mut damaged = written.0.clone();
    let at = damaged
        .windows(4)
        .position(|w| w == b"\nd p")
        .expect("a cached directive line");
    damaged[at + 3] ^= 1;
    std::fs::write(dir.join(FACTCACHE_FILE), &damaged).unwrap();
    let repaired = analyze();
    assert_eq!((repaired.cache_hits, repaired.cache_misses), (total - 1, 1));
    assert_eq!(answer(&repaired), want);
    assert_eq!(facts_stamp(&dir).0, written.0);

    // Deleted: everything is lowered again.
    std::fs::remove_file(dir.join(FACTCACHE_FILE)).unwrap();
    let relowered = analyze();
    assert_eq!((relowered.cache_hits, relowered.cache_misses), (0, total));
    assert_eq!(answer(&relowered), want);
    assert_eq!(facts_stamp(&dir).0, written.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of the memo script: a long-lived [`VerdictMemo`] must give
/// exactly what a fresh analysis gives, and leave `FACTS` exactly as a
/// fresh pass would (the fresh pass after it finds nothing to repair).
/// The sidecar's mtime is then set back so the next answer is not racy
/// and the memo keeps it; a second call with nothing changed in
/// between must then be served from the memo.
fn memo_step(store: &ExecutionStore, memo: &VerdictMemo, step: &str, keeps: bool) {
    let facts = store.root().join(FACTCACHE_FILE);
    let analyzer = CorpusAnalyzer::new(store);
    let verdicts = || memo.conflict_verdicts(&analyzer).unwrap().0;
    let warm = verdicts();
    let left = std::fs::read(&facts).ok();
    let fresh = analyzer.conflict_verdicts().unwrap();
    assert_eq!(*warm, fresh, "{step}: memoized verdicts differ");
    assert_eq!(
        std::fs::read(&facts).ok(),
        left,
        "{step}: a fresh pass changed the FACTS the memo left"
    );

    if let Ok(file) = std::fs::File::options().write(true).open(&facts) {
        let long_ago = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
        file.set_modified(long_ago).unwrap();
    }
    let first = verdicts();
    let again = verdicts();
    assert_eq!(*again, fresh, "{step}: settled verdicts differ");
    assert_eq!(
        Arc::ptr_eq(&first, &again),
        keeps,
        "{step}: whether the memo keeps a settled pass"
    );
    assert_eq!(
        memo.conflict_verdicts(&analyzer).unwrap().1,
        store.generation().unwrap(),
        "{step}: the listing's generation"
    );
}

/// A long-lived memo stays equal to a fresh analysis through every
/// kind of store change, and never keeps a pass that skipped a record
/// or could not write the `FACTS` it needed.
#[test]
fn verdict_memo_tracks_every_store_change() {
    let dir = scratch("memo");
    let store = ExecutionStore::open(&dir).unwrap();
    save_pair_fixtures(&store);
    let memo = VerdictMemo::new();
    let facts = dir.join(FACTCACHE_FILE);
    let cpu = |focus: &str, v: f64, oc| vec![o("CPUbound", &[focus], oc, v)];
    let conflicts = |store: &ExecutionStore| CorpusAnalyzer::new(store).conflict_verdicts();

    memo_step(&store, &memo, "cold", true);
    assert_eq!(conflicts(&store).unwrap().len(), 1);
    memo_step(&store, &memo, "unchanged", true);

    // A new run contradicts g2's prune of g: a second verdict.
    let g = cpu("/Code/a.c/g", 0.4, Outcome::True);
    let g3 = rec("dom", "A", "g3", &[], g);
    store.save(&g3).unwrap();
    memo_step(&store, &memo, "save", true);
    assert_eq!(conflicts(&store).unwrap().len(), 2);

    // Same label, new payload: c2 stops contradicting c1.
    let f = cpu("/Code/a.c/f", 0.001, Outcome::False);
    let c2 = rec("confl", "A", "c2", &[], f);
    store.save(&c2).unwrap();
    memo_step(&store, &memo, "overwrite", true);
    assert_eq!(conflicts(&store).unwrap().len(), 1);

    store.delete("dom", "g3").unwrap();
    memo_step(&store, &memo, "delete", true);
    store.save(&g3).unwrap();
    memo_step(&store, &memo, "save again", true);
    store.compact().unwrap();
    memo_step(&store, &memo, "compact", true);

    // The sidecar damaged in place (same length, same inode) or gone:
    // the memo must notice and repair it like a fresh pass.
    let mut damaged = std::fs::read(&facts).unwrap();
    let at = damaged.windows(4).position(|w| w == b"\nd p").unwrap();
    damaged[at + 3] ^= 1;
    std::fs::write(&facts, &damaged).unwrap();
    memo_step(&store, &memo, "FACTS byte flipped", true);
    std::fs::remove_file(&facts).unwrap();
    memo_step(&store, &memo, "FACTS deleted", true);

    // A torn record is skipped, so no pass over it is kept — until
    // recovery settles the store again.
    tear_record(&dir, "dom", "g3", 0.5);
    std::fs::remove_file(&facts).unwrap();
    memo_step(&store, &memo, "torn write", false);
    let store = ExecutionStore::open(&dir).unwrap();
    memo_step(&store, &memo, "recovered", true);

    // A read-only root: FACTS cannot be written (a directory in the way
    // of its tmp file makes sure of that even for root, who may write
    // anyway). The answer still holds but is not kept, so the first
    // harvest once the root is writable again writes FACTS back.
    use std::os::unix::fs::PermissionsExt;
    let blocker = dir.join(format!("{FACTCACHE_FILE}.tmp"));
    std::fs::remove_file(&facts).unwrap();
    std::fs::create_dir(&blocker).unwrap();
    std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
    memo_step(&store, &memo, "read-only root", false);
    std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::fs::remove_dir(&blocker).unwrap();
    assert!(!facts.exists());
    memo_step(&store, &memo, "writable again", true);
    assert!(
        facts.exists(),
        "FACTS not repaired once the root is writable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario: a 1k-run synthetic store with all four
/// fixture classes seeded, analyzed cold, warm, and after touching one
/// record.
#[test]
fn thousand_run_store_detects_fixtures_and_reanalyzes_incrementally() {
    let dir = scratch("1k");
    let store = ExecutionStore::open(&dir).unwrap();

    // 1000 bulk runs of one app. Run 0 carries the stale fixture (a
    // resource no later run has); the rest are uniform.
    const BULK: usize = 1000;
    for i in 0..BULK {
        let label = format!("run-{i:04}");
        let r = if i == 0 {
            rec(
                "bulk",
                "A",
                &label,
                &["/Code/old.c", "/Code/old.c/h"],
                vec![o("CPUbound", &["/Code/old.c/h"], Outcome::True, 0.4)],
            )
        } else {
            rec(
                "bulk",
                "A",
                &label,
                &[],
                vec![o("CPUbound", &[], Outcome::True, 0.4)],
            )
        };
        store.save(&r).unwrap();
    }
    save_pair_fixtures(&store);

    let total = BULK + 6;

    // Cold: every record is lowered.
    let cold = analyze(&store);
    assert_eq!(cold.records, total);
    assert_eq!(cold.cache_misses, total);
    assert_eq!(cold.cache_hits, 0);
    for code in ["HL030", "HL031", "HL032", "HL033"] {
        assert!(
            !cold.report.with_code(code).is_empty(),
            "{code} fixture not detected"
        );
    }

    // Warm: every record comes from the sidecar, findings identical.
    let warm = analyze(&store);
    assert_eq!(warm.records, total);
    assert_eq!(warm.cache_hits, total);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.report.diagnostics, cold.report.diagnostics);

    // Touch exactly one record: only it is re-lowered.
    store
        .save(&rec(
            "bulk",
            "A",
            "run-0500",
            &[],
            vec![o("CPUbound", &[], Outcome::True, 0.41)],
        ))
        .unwrap();
    let incremental = analyze(&store);
    assert_eq!(incremental.records, total);
    assert_eq!(incremental.cache_misses, 1);
    assert_eq!(incremental.cache_hits, total - 1);
    assert_eq!(incremental.report.diagnostics, cold.report.diagnostics);

    // The re-lowered entry was written back: the next pass is fully
    // warm again and leaves the sidecar alone.
    let written = facts_stamp(&dir);
    let settled = analyze(&store);
    assert_eq!(settled.cache_misses, 0);
    assert_eq!(settled.cache_hits, total);
    assert_eq!(facts_stamp(&dir), written, "a warm pass rewrote FACTS");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hl034_abandoned_checkpoint_surfaces_in_corpus_analysis() {
    let dir = scratch("hl034");
    let store = ExecutionStore::open(&dir).unwrap();
    store
        .save(&rec(
            "app",
            "A",
            "r1",
            &[],
            vec![o("CPUbound", &[], Outcome::False, 0.01)],
        ))
        .unwrap();
    // A checkpoint whose session never completed — crash debris nothing
    // resumed. The analyzer reports it alongside the cross-run passes.
    store
        .save_artifact(
            "app",
            "crashed",
            "ckpt",
            "histpc-ckpt v1\nat_us 5\ndigest 1\n",
        )
        .unwrap();

    let analysis = analyze(&store);
    let hits = analysis.report.with_code("HL034");
    assert_eq!(hits.len(), 1, "report: {:?}", analysis.report.diagnostics);
    assert!(hits[0].message.contains("app/crashed.ckpt"));
    let _ = std::fs::remove_dir_all(&dir);
}
