//! High-level diagnosis sessions.
//!
//! [`Session`] wraps the full pipeline of the paper: run a diagnosis,
//! capture an execution record (and the full-resolution postmortem
//! data), save it to a store, harvest directives from earlier runs —
//! optionally mapped across code versions — and feed them into the next
//! diagnosis.

use histpc_consultant::{
    drive_diagnosis_faulted, DiagnosisReport, HaltReason, HypothesisTree, PriorityLevel,
    SearchCheckpoint, SearchConfig, SearchDirectives,
};
use histpc_history::store::StoreError;
use histpc_history::{
    extract, ExecutionRecord, ExecutionStore, ExtractionOptions, MappingSet, TrustLedger,
    TrustVerdict,
};
use histpc_instr::faults::FaultStats;
use histpc_instr::PostmortemData;
use histpc_lint::{CorpusAnalyzer, Diagnostic, LintReport, Linter, SourceCache, VerdictMemo};
use histpc_sim::workloads::Workload;
use std::fmt;
use std::path::Path;

/// Why a session operation refused to proceed.
#[derive(Debug)]
pub enum SessionError {
    /// The directive/mapping artifacts failed their pre-flight lint; the
    /// report holds every diagnostic, rendered ones included in `Display`.
    Lint(LintReport),
    /// The backing execution store failed.
    Store(StoreError),
    /// The operation reads history, but the session has no store (it
    /// was built with [`Session::new`], not [`Session::with_store`]).
    NoStore,
    /// The drive loop stopped at a checkpoint before the diagnosis
    /// finished (see [`Session::diagnose`]).
    Interrupted(HaltReason),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Lint(report) => {
                let first = report
                    .diagnostics
                    .iter()
                    .find(|d| d.is_error())
                    .or(report.diagnostics.first());
                match (histpc_lint::summary(&report.diagnostics), first) {
                    (Some(s), Some(d)) => {
                        write!(f, "search directives failed lint ({s}); first: {d}")
                    }
                    _ => write!(f, "search directives failed lint"),
                }
            }
            SessionError::Store(e) => write!(f, "execution store error: {e}"),
            SessionError::NoStore => write!(f, "this session has no execution store"),
            SessionError::Interrupted(reason) => {
                write!(f, "diagnosis interrupted ({reason}) before it finished")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> SessionError {
        SessionError::Store(e)
    }
}

/// Lints a directive set before it steers a search: errors refuse the
/// operation, warnings are returned for the caller to surface.
fn preflight(directives: &SearchDirectives, file: &str) -> Result<Vec<Diagnostic>, SessionError> {
    if directives.is_empty() {
        return Ok(Vec::new());
    }
    let report = Linter::new().directives(directives.to_text(), file).run();
    if report.has_errors() {
        return Err(SessionError::Lint(report));
    }
    Ok(report.diagnostics)
}

/// The complete result of one diagnosis session.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The Performance Consultant's report.
    pub report: DiagnosisReport,
    /// The persisted execution record (structural + outcome data).
    pub record: ExecutionRecord,
    /// Full-resolution postmortem data. The evaluation's "100% of true
    /// bottlenecks" reference is derived from it on demand with
    /// `histpc_history::ground_truth`; a diagnosis does not pay for it.
    pub postmortem: PostmortemData,
    /// Warnings from the pre-flight lint of the search directives (the
    /// lint's errors refuse the diagnosis instead).
    pub lint_warnings: Vec<Diagnostic>,
    /// Number of engine intervals delivered through the sample pipeline
    /// over the whole run — the denominator for per-sample cost figures
    /// (histbench's `sim.events`).
    pub events: u64,
}

/// The result of [`Session::diagnose_faulted`]: either a completed
/// (possibly degraded) [`Diagnosis`], or the checkpoint an interrupted
/// run left behind.
#[derive(Debug)]
pub struct DegradedDiagnosis {
    /// The finished diagnosis; `None` when a crash, cancellation or
    /// stall interrupted the search (resume with
    /// [`DegradedDiagnosis::checkpoint`]).
    pub diagnosis: Option<Diagnosis>,
    /// The checkpoint when the run was interrupted. Also saved as a
    /// `ckpt` artifact when a store is attached.
    pub checkpoint: Option<SearchCheckpoint>,
    /// Why the run was interrupted (crash, watchdog stall, external
    /// cancellation); `None` when it completed.
    pub halted: Option<HaltReason>,
    /// What the injector actually did during the run.
    pub stats: FaultStats,
    /// On a resumed run: whether the replayed search state matched the
    /// checkpoint digest at the crash point. `true` otherwise.
    pub resumed_digest_ok: bool,
}

/// A diagnosis session, optionally backed by an execution store.
#[derive(Debug, Default)]
pub struct Session {
    store: Option<ExecutionStore>,
    /// The corpus conflict verdicts of the last harvest, reused while
    /// the store's record listing and `FACTS` are unchanged. Only a
    /// re-harvest of an unchanged store hits; a harvest after a save
    /// (the tuning cycle, histpcd's guided sessions) misses.
    verdicts: VerdictMemo,
}

impl Session {
    /// An in-memory session (nothing persisted).
    pub fn new() -> Session {
        Session::default()
    }

    /// A session persisting records into a store at `path`.
    pub fn with_store(
        path: impl AsRef<Path>,
    ) -> Result<Session, histpc_history::store::StoreError> {
        Ok(Session {
            store: Some(ExecutionStore::open(path)?),
            verdicts: VerdictMemo::new(),
        })
    }

    /// The backing store, if any.
    pub fn store(&self) -> Option<&ExecutionStore> {
        self.store.as_ref()
    }

    /// Runs one full online diagnosis of `workload` under `config`,
    /// labels it `label`, saves the record if a store is attached, and
    /// returns the report together with the record and postmortem ground
    /// truth. This is [`Session::diagnose_faulted`] with nothing to
    /// resume from.
    ///
    /// The search directives in `config` are linted first:
    /// [`SessionError::Lint`] refuses directives with errors (unknown
    /// hypotheses, malformed foci, out-of-range thresholds), while
    /// warnings are surfaced in [`Diagnosis::lint_warnings`].
    ///
    /// [`SessionError::Interrupted`] reports a run that stopped at a
    /// checkpoint instead of finishing: only possible when `config`
    /// arms `hooks.cancel`, a `stall` deadline, or a tool crash in its
    /// fault plan. The checkpoint is saved as a `ckpt` artifact when a
    /// store is attached; resume it with [`Session::diagnose_faulted`].
    pub fn diagnose(
        &self,
        workload: &dyn Workload,
        config: &SearchConfig,
        label: &str,
    ) -> Result<Diagnosis, SessionError> {
        let run = self.diagnose_faulted(workload, config, label, None)?;
        match (run.diagnosis, run.halted) {
            (Some(diagnosis), None) => Ok(diagnosis),
            (_, Some(reason)) => Err(SessionError::Interrupted(reason)),
            // Not built by `diagnose_faulted`: a run that did not halt
            // carries its diagnosis.
            (None, None) => Err(SessionError::Interrupted(HaltReason::Crash)),
        }
    }

    /// Runs one diagnosis like [`Session::diagnose`], optionally resuming
    /// from a checkpoint, and reports an interrupted run as a
    /// [`DegradedDiagnosis`] instead of an error.
    ///
    /// The fault plan in `config.faults` degrades the run in place.
    /// Injected sample loss, delays, and request failures can leave
    /// `Unknown` (starved) and `Unreachable` (dead-resource) outcomes
    /// alongside the usual verdicts. Overload faults (sample floods, slow
    /// collectors, request storms) pressure the admission layer instead:
    /// with admission control enabled in `config.collector.admission`,
    /// overwhelmed processes trip circuit breakers and their pairs
    /// conclude `Saturated`. An injected tool crash, a set
    /// `config.hooks.cancel` or an expired `config.stall` deadline
    /// interrupts the run instead, returning a [`SearchCheckpoint`] —
    /// persisted as a `ckpt` artifact when a store is attached — and no
    /// diagnosis; passing that checkpoint back as `resume_from`
    /// deterministically replays the search past that point.
    pub fn diagnose_faulted(
        &self,
        workload: &dyn Workload,
        config: &SearchConfig,
        label: &str,
        resume_from: Option<&SearchCheckpoint>,
    ) -> Result<DegradedDiagnosis, SessionError> {
        let lint_warnings = preflight(&config.directives, "<search directives>")?;
        let mut engine = workload.build_engine();
        let run = drive_diagnosis_faulted(&mut engine, config, resume_from);
        if let Some(ckpt) = run.checkpoint {
            if let Some(store) = &self.store {
                store.save_artifact(&run.report.app_name, label, "ckpt", &ckpt.to_text())?;
            }
            return Ok(DegradedDiagnosis {
                diagnosis: None,
                checkpoint: Some(ckpt),
                halted: run.halted,
                stats: run.stats,
                resumed_digest_ok: run.resumed_digest_ok,
            });
        }
        let report = run.report;
        let pm = PostmortemData::from_totals(engine.app().clone(), engine.totals());
        let tree = HypothesisTree::standard();
        let thresholds_used = tree
            .testable()
            .iter()
            .map(|&h| {
                let hyp = tree.get(h);
                let v = config
                    .directives
                    .threshold_for(&hyp.name)
                    .unwrap_or(hyp.default_threshold);
                (hyp.name.clone(), v)
            })
            .collect();
        let record = ExecutionRecord::from_report(&report, pm.space(), label, thresholds_used);
        if let Some(store) = &self.store {
            store.save(&record)?;
            store.save_artifact(&record.app_name, label, "shg", &report.shg_rendering)?;
            // A completed run supersedes the crash checkpoint an earlier
            // interrupted attempt left under this label; without this the
            // store accumulates dead `ckpt` artifacts (lint HL034).
            store.delete_artifact(&record.app_name, label, "ckpt")?;
        }
        // Audit feedback runs only on the completed path: a resumed run
        // replays the same audits, and absorbing them twice would
        // double-count the trust updates.
        self.absorb_audits(&report);
        Ok(DegradedDiagnosis {
            diagnosis: Some(Diagnosis {
                report,
                record,
                postmortem: pm,
                lint_warnings,
                events: engine.events_drained(),
            }),
            checkpoint: None,
            halted: None,
            stats: run.stats,
            resumed_digest_ok: run.resumed_digest_ok,
        })
    }

    /// Harvests directives from a stored run, vetted against the
    /// corpus: the cross-run conflict pass (`HL030`) runs over the
    /// whole store first, and any directive the corpus *contradicts* —
    /// a high priority one run asserts while another run prunes the
    /// same pair, or the prune side of the same disagreement — is
    /// down-ranked (dropped) before it can steer a diagnosis. On a
    /// conflict-free corpus the vetting is a no-op and the result is
    /// bit-identical to raw extraction. Runs dropped directives are
    /// noted on stderr.
    ///
    /// Every returned directive carries [`Provenance`] naming
    /// `app/label` and the store generation at harvest time, and the
    /// whole set is weighed against the store's **trust ledger** — see
    /// [`Session::harvest_scoped`] for the rules.
    ///
    /// [`Provenance`]: histpc_consultant::Provenance
    pub fn harvest(
        &self,
        app: &str,
        label: &str,
        opts: &ExtractionOptions,
    ) -> Result<SearchDirectives, SessionError> {
        self.harvest_scoped(app, label, opts, None)
    }

    /// [`Session::harvest`] with an optional tenant scope (the daemon
    /// prefixes each tenant so one tenant's poisoned history can never
    /// taint another's trust).
    ///
    /// Trust-weighted harvesting, in order:
    ///
    /// 1. Extracted directives are stamped with provenance
    ///    `source@generation`, where source is `app/label` (or
    ///    `tenant/app/label`).
    /// 2. Each `HL030` conflict the corpus pass finds decays the trust
    ///    of *both* runs involved, once per distinct contradicted pair
    ///    — chronically contradicted sources slide toward quarantine.
    /// 3. Corpus down-ranking drops contradicted directives (as ever).
    /// 4. The ledger's verdict on the source gates the rest: a
    ///    **quarantined** source contributes nothing (`HL036`); a
    ///    **down-weighted** source keeps only its priorities, with
    ///    High demoted to Medium — prunes and thresholds, the kinds
    ///    that silently remove search work, are dropped.
    /// 5. Directive lines a shadow audit already **revoked** for this
    ///    source are dropped (`HL037`): a convicted lie stays dead no
    ///    matter how often the record is re-harvested.
    pub fn harvest_scoped(
        &self,
        app: &str,
        label: &str,
        opts: &ExtractionOptions,
        tenant: Option<&str>,
    ) -> Result<SearchDirectives, SessionError> {
        let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
        let rec = store.load(app, label)?;
        let mut harvested = extract(&rec, opts);
        let source = match tenant {
            Some(t) => format!("{t}/{app}/{label}"),
            None => format!("{app}/{label}"),
        };
        // The corpus listing's manifest load also yields the provenance
        // generation.
        let (verdicts, generation) = self
            .verdicts
            .conflict_verdicts(&CorpusAnalyzer::new(store))?;
        let generation = generation.unwrap_or(0);
        // Stamp before any filtering so every survivor can name its
        // source run in audits, revocations, and reports.
        harvested.stamp_provenance(&source, generation);

        // Every HL030 conflict decays both sides' trust, once per
        // distinct contradicted pair.
        let mut conflicts = Vec::new();
        for v in verdicts.iter() {
            let key = format!("{}/{} {} {}", v.app, v.version, v.hypothesis, v.focus);
            for src_label in [&v.prune_source, &v.priority_source] {
                let src = match tenant {
                    Some(t) => format!("{t}/{}/{src_label}", v.app),
                    None => format!("{}/{src_label}", v.app),
                };
                conflicts.push((src, key.clone()));
            }
        }
        let mut ledger = TrustLedger::load(store.root());
        let charge = |ledger: &mut TrustLedger| {
            conflicts.iter().fold(false, |fresh, (src, key)| {
                ledger.record_conflict(src, key) | fresh
            })
        };
        if charge(&mut ledger) {
            // Non-fatal: worst case the next session re-learns the
            // same distrust from the same corpus.
            if let Ok(saved) = store.update_trust(|l| {
                charge(l);
            }) {
                ledger = saved;
            }
        }
        let (mut vetted, dropped) = verdicts.down_rank(&harvested, &rec.app_name, &rec.app_version);
        vetted.adopt_provenance(&harvested);
        if dropped > 0 {
            eprintln!(
                "harvest: down-ranked {dropped} directive(s) from {app}/{label} \
                 contradicted elsewhere in the corpus (see `histpc lint corpus`)"
            );
        }

        // Trust gate on the source run as a whole.
        let mut vetted = match ledger.verdict(&source) {
            TrustVerdict::Trusted => vetted,
            TrustVerdict::Quarantined => {
                eprintln!(
                    "harvest: source {source} is quarantined (trust {} < {}); \
                     applying none of its {} directive(s) (HL036)",
                    ledger.score(&source),
                    histpc_history::trust::QUARANTINE_FLOOR,
                    vetted.len(),
                );
                SearchDirectives::none()
            }
            TrustVerdict::Downweighted => {
                let mut out = SearchDirectives::none();
                let mut demoted = 0usize;
                for p in &vetted.priorities {
                    let mut p = p.clone();
                    if p.level == PriorityLevel::High {
                        p.level = PriorityLevel::Medium;
                        demoted += 1;
                    }
                    out.add_priority(p);
                }
                out.stamp_provenance(&source, generation);
                eprintln!(
                    "harvest: source {source} is down-weighted (trust {} < {}); \
                     dropped its prunes/thresholds, demoted {demoted} High priorit{}",
                    ledger.score(&source),
                    histpc_history::trust::DOWNWEIGHT_BELOW,
                    if demoted == 1 { "y" } else { "ies" },
                );
                out
            }
        };

        // Revoked lines stay dead (HL037).
        let mut revoked_dropped = 0usize;
        for line in vetted.lines() {
            if ledger.is_revoked(&source, &line) {
                vetted.remove_by_line(&line);
                revoked_dropped += 1;
            }
        }
        if revoked_dropped > 0 {
            eprintln!(
                "harvest: dropped {revoked_dropped} directive(s) from {source} \
                 previously revoked by shadow audits (HL037)"
            );
        }

        Ok(vetted)
    }

    /// Feeds a finished report's shadow-audit outcomes into the trust
    /// ledger: passes slowly restore trust, failures halve it, and
    /// every revoked directive line is pinned so no later harvest can
    /// resurrect it. No-op without a store or without audits.
    fn absorb_audits(&self, report: &DiagnosisReport) {
        let Some(store) = &self.store else { return };
        if report.audits.is_empty() {
            return;
        }
        // Non-fatal, like every trust save.
        let _ = store.update_trust(|ledger| {
            for a in &report.audits {
                ledger.record_audit(&a.source_run, a.passed);
                if !a.passed {
                    ledger.record_revocation(&a.source_run, &a.directive);
                }
            }
        });
    }

    /// Harvests directives from a record of a *different* execution or
    /// code version: extracts, auto-suggests resource mappings from the
    /// old record's structure to the new one's, merges user-specified
    /// mappings (which take precedence: a user mapping beats a suggestion
    /// for the same source), and rewrites the directives.
    ///
    /// The combined mapping set and the rewritten directives are linted
    /// before being returned: errors (e.g. a cyclic or cross-hierarchy
    /// user mapping) refuse the harvest with [`SessionError::Lint`];
    /// warnings are printed to stderr.
    pub fn harvest_mapped(
        &self,
        old: &ExecutionRecord,
        new_resources: &[histpc_resources::ResourceName],
        opts: &ExtractionOptions,
        user_mappings: &MappingSet,
    ) -> Result<SearchDirectives, SessionError> {
        let directives = extract(old, opts);
        let mut mappings = user_mappings.clone();
        for (from, to) in MappingSet::suggest(&old.resources, new_resources).entries() {
            // User mappings win ties: `apply_to_name` prefers the first
            // entry among equally specific sources, so only add a
            // suggestion when the user did not map that source already.
            if !mappings.entries().iter().any(|(f, _)| f == from) {
                mappings.add(from.clone(), to.clone());
            }
        }
        // Structural lint of the combined mapping set (cycles, chains,
        // non-injective merges brought in by the user's file).
        let map_text = mappings.to_text();
        let map_linter = Linter::new().mappings(&map_text, "<mappings>");
        let map_report = map_linter.run();
        if map_report.has_errors() {
            return Err(SessionError::Lint(map_report));
        }
        let mapped = mappings.apply_to_directives(&directives);
        let warnings = preflight(&mapped, "<mapped directives>")?;
        let mut sources = SourceCache::new();
        sources.insert("<mappings>", &map_text);
        sources.insert("<mapped directives>", &mapped.to_text());
        for w in map_report.diagnostics.iter().chain(&warnings) {
            eprint!(
                "{}",
                histpc_lint::render_all(std::slice::from_ref(w), &sources)
            );
        }
        Ok(mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_resources::Focus;
    use histpc_sim::workloads::{PoissonVersion, PoissonWorkload, SyntheticWorkload};
    use histpc_sim::SimDuration;

    fn fast_config() -> SearchConfig {
        SearchConfig {
            window: SimDuration::from_millis(800),
            sample: SimDuration::from_millis(100),
            max_time: SimDuration::from_secs(120),
            ..SearchConfig::default()
        }
    }

    #[test]
    fn diagnose_produces_consistent_artifacts() {
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let session = Session::new();
        let config = fast_config();
        let d = session.diagnose(&wl, &config, "r1").unwrap();
        assert!(d.report.bottleneck_count() > 0);
        assert_eq!(d.record.label, "r1");
        assert_eq!(d.record.outcomes.len(), d.report.outcomes.len());
        let truth = histpc_history::ground_truth(
            &d.postmortem,
            &HypothesisTree::standard(),
            &config.directives,
        );
        assert!(!truth.is_empty());
        // Thresholds recorded for every testable hypothesis.
        assert_eq!(
            d.record.thresholds_used.len(),
            histpc_consultant::HypothesisTree::standard()
                .testable()
                .len()
        );
    }

    #[test]
    fn online_findings_are_a_subset_of_ground_truth_mostly() {
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let session = Session::new();
        let config = fast_config();
        let d = session.diagnose(&wl, &config, "r1").unwrap();
        let truth = histpc_history::ground_truth(
            &d.postmortem,
            &HypothesisTree::standard(),
            &config.directives,
        );
        // Every whole-program bottleneck the online search found must be
        // in the postmortem ground truth (windows can differ on
        // borderline deep foci, but the top level is unambiguous).
        for (h, f) in d.report.bottleneck_set() {
            if f.is_whole_program() {
                assert!(
                    truth.contains(&(h.clone(), f.clone())),
                    "online-only bottleneck {h} {f}"
                );
            }
        }
    }

    #[test]
    fn store_roundtrip_through_session() {
        let dir = std::env::temp_dir().join(format!("histpc-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
        let d = session.diagnose(&wl, &fast_config(), "r1").unwrap();
        let directives = session
            .harvest("synth", "r1", &ExtractionOptions::priorities_only())
            .unwrap();
        assert_eq!(
            directives.priorities.len(),
            d.record
                .outcomes
                .iter()
                .filter(|o| matches!(
                    o.outcome,
                    histpc_consultant::Outcome::True | histpc_consultant::Outcome::False
                ))
                .count()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directed_rerun_is_faster() {
        // The paper's headline effect, end to end.
        let wl = PoissonWorkload::new(PoissonVersion::C);
        let session = Session::new();
        let config = fast_config();
        let base = session.diagnose(&wl, &config, "base").unwrap();
        let t_base = base
            .report
            .time_of_last_bottleneck()
            .expect("base finds bottlenecks");

        let directives = extract(
            &base.record,
            &ExtractionOptions::priorities_and_safe_prunes(),
        );
        let directed = session
            .diagnose(&wl, &config.clone().with_directives(directives), "directed")
            .unwrap();
        let t_directed = directed
            .report
            .time_of_last_bottleneck()
            .expect("directed finds bottlenecks");
        assert!(
            t_directed.as_micros() * 2 < t_base.as_micros(),
            "directed {t_directed} not much faster than base {t_base}"
        );
    }

    #[test]
    fn faulted_run_with_disabled_plan_is_bit_identical() {
        // `diagnose` is `diagnose_faulted(.., None)` with the diagnosis
        // unwrapped; the records must agree byte for byte.
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let session = Session::new();
        let config = fast_config();
        let plain = session.diagnose(&wl, &config, "r1").unwrap();
        let faulted = session
            .diagnose_faulted(&wl, &config, "r1", None)
            .unwrap()
            .diagnosis
            .expect("no crash scheduled");
        assert_eq!(
            histpc_history::format::write_record(&plain.record),
            histpc_history::format::write_record(&faulted.record),
        );
    }

    #[test]
    fn diagnose_reports_an_interrupted_run_as_an_error() {
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let mut config = fast_config();
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        config.hooks.cancel = Some(cancel);
        let err = Session::new().diagnose(&wl, &config, "r1").unwrap_err();
        assert!(
            matches!(err, SessionError::Interrupted(HaltReason::Cancelled)),
            "got {err}"
        );
    }

    #[test]
    fn injected_crash_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("histpc-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let mut config = fast_config();
        config.faults.tool_crash_at = Some(histpc_sim::SimTime::from_micros(1_000_000));
        let interrupted = session.diagnose_faulted(&wl, &config, "c1", None).unwrap();
        assert!(interrupted.diagnosis.is_none());
        let ckpt = interrupted.checkpoint.expect("crash leaves a checkpoint");
        let saved = session
            .store()
            .unwrap()
            .load_artifact("synth", "c1", "ckpt")
            .unwrap();
        assert_eq!(SearchCheckpoint::parse(&saved).unwrap(), ckpt);
        assert_eq!(
            interrupted.halted,
            Some(histpc_consultant::HaltReason::Crash)
        );
        assert_eq!(
            session.store().unwrap().orphaned_checkpoints().unwrap(),
            vec![("synth".to_string(), "c1".to_string())],
            "interrupted run not reported as an orphaned checkpoint"
        );
        let resumed = session
            .diagnose_faulted(&wl, &config, "c1", Some(&ckpt))
            .unwrap();
        assert!(
            resumed.resumed_digest_ok,
            "replayed state diverged from the checkpoint"
        );
        assert!(resumed.diagnosis.is_some());
        // The completed resume supersedes the persisted checkpoint: no
        // dead ckpt artifact may accumulate in the store.
        assert!(
            session
                .store()
                .unwrap()
                .load_artifact("synth", "c1", "ckpt")
                .is_err(),
            "stale checkpoint survived a successful resume"
        );
        assert!(session
            .store()
            .unwrap()
            .orphaned_checkpoints()
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_is_bit_identical_on_conflict_free_corpus() {
        let dir = std::env::temp_dir().join(format!("histpc-vetclean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        // Two identical runs: the corpus agrees with itself, so vetting
        // must change nothing — not even byte order.
        session.diagnose(&wl, &fast_config(), "r1").unwrap();
        session.diagnose(&wl, &fast_config(), "r2").unwrap();
        let store = session.store().unwrap();
        let opts = ExtractionOptions::priorities_and_safe_prunes();
        for label in ["r1", "r2"] {
            let raw = extract(&store.load("synth", label).unwrap(), &opts);
            let vetted = session.harvest("synth", label, &opts).unwrap();
            assert_eq!(vetted.to_text(), raw.to_text(), "label {label}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_down_ranks_corpus_contradicted_directives() {
        use histpc_consultant::{NodeOutcome, Outcome};
        use histpc_resources::ResourceName;

        let n = |s: &str| ResourceName::parse(s).unwrap();
        let outcome = |val: f64, oc: Outcome| NodeOutcome {
            hypothesis: "CPUbound".into(),
            focus: Focus::whole_program(["Code", "Machine", "Process", "SyncObject"])
                .with_selection(n("/Code/a.c/f")),
            outcome: oc,
            first_true_at: (oc == Outcome::True).then_some(histpc_sim::SimTime(1)),
            concluded_at: Some(histpc_sim::SimTime(1)),
            last_value: val,
            samples: 5,
        };
        let rec = |label: &str, outcomes| ExecutionRecord {
            app_name: "app".into(),
            app_version: "A".into(),
            label: label.into(),
            resources: vec![
                n("/Code"),
                n("/Code/a.c"),
                n("/Code/a.c/f"),
                n("/Machine"),
                n("/Machine/n1"),
                n("/Process"),
                n("/Process/p1"),
                n("/SyncObject"),
            ],
            outcomes,
            thresholds_used: vec![],
            end_time: histpc_sim::SimTime(10),
            pairs_tested: 1,
            unreachable: vec![],
            saturated: vec![],
        };

        let dir = std::env::temp_dir().join(format!("histpc-vetconfl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let store = session.store().unwrap();
        // r1 finds f trivial (harvests a subtree prune); r2 finds f a
        // real bottleneck (harvests a high priority). The corpus
        // contradicts itself about f, so harvest must drop both sides.
        store
            .save(&rec("r1", vec![outcome(0.001, Outcome::False)]))
            .unwrap();
        store
            .save(&rec("r2", vec![outcome(0.4, Outcome::True)]))
            .unwrap();

        let opts = ExtractionOptions::priorities_and_safe_prunes();
        let raw2 = extract(&store.load("app", "r2").unwrap(), &opts);
        assert!(raw2
            .priorities
            .iter()
            .any(|p| p.level == histpc_consultant::directive::PriorityLevel::High));
        let vetted2 = session.harvest("app", "r2", &opts).unwrap();
        assert!(
            !vetted2.priorities.iter().any(|p| p.level
                == histpc_consultant::directive::PriorityLevel::High
                && p.focus.selection("Code") == Some(&n("/Code/a.c/f"))),
            "contradicted high priority survived vetting"
        );

        let raw1 = extract(&store.load("app", "r1").unwrap(), &opts);
        let vetted1 = session.harvest("app", "r1", &opts).unwrap();
        assert_eq!(vetted1.prunes.len(), raw1.prunes.len() - 1);

        // The vetting is a function of the store, not of the FACTS
        // cache: a damaged cache entry and a deleted cache give the
        // same directives as the warm cache above.
        let facts = dir.join(histpc_history::factcache::FACTCACHE_FILE);
        let want = [vetted1.to_text(), vetted2.to_text()];
        let harvest_both =
            || ["r1", "r2"].map(|label| session.harvest("app", label, &opts).unwrap().to_text());
        let warm = std::fs::read(&facts).unwrap();
        let mut damaged = warm.clone();
        let at = damaged.windows(4).position(|w| w == b"\nd p").unwrap();
        damaged[at + 3] ^= 1;
        std::fs::write(&facts, &damaged).unwrap();
        assert_eq!(harvest_both(), want);
        assert_eq!(std::fs::read(&facts).unwrap(), warm, "damage not repaired");
        std::fs::remove_file(&facts).unwrap();
        assert_eq!(harvest_both(), want);

        // A harvest against a warm, unchanged store writes nothing: it
        // works on a read-only store root and leaves FACTS (bytes,
        // mtime, inode) exactly as it found it.
        use std::os::unix::fs::{MetadataExt, PermissionsExt};
        let stamp = || {
            let meta = std::fs::metadata(&facts).unwrap();
            (
                std::fs::read(&facts).unwrap(),
                meta.modified().unwrap(),
                meta.ino(),
            )
        };
        let before = stamp();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        let read_only = harvest_both();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        assert_eq!(read_only, want);
        assert_eq!(stamp(), before, "a warm harvest rewrote FACTS");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_without_a_store_is_an_error_not_a_panic() {
        let err = Session::new()
            .harvest("app", "r1", &ExtractionOptions::priorities_only())
            .unwrap_err();
        assert!(matches!(err, SessionError::NoStore), "got {err}");
    }

    #[test]
    fn failed_audits_decay_trust_and_pin_revocations() {
        use histpc_consultant::directive::{Prune, PruneTarget};

        let dir = std::env::temp_dir().join(format!("histpc-trustaudit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        let base = session.diagnose(&wl, &fast_config(), "r1").unwrap();

        // Poison: prune every true bottleneck pair, claiming r1 as the
        // source. Shadow audits probe within budget, convict the lies,
        // and the session must charge them to r1's trust.
        let mut poisoned = SearchDirectives::none();
        for (h, f) in base.report.bottleneck_set() {
            poisoned.add_prune(Prune {
                hypothesis: Some(h.clone()),
                target: PruneTarget::Pair(f.clone()),
            });
        }
        poisoned.stamp_provenance("synth/r1", 1);
        let mut config = fast_config();
        config.directives = poisoned;
        config.audit_budget = 64;
        let audited = session.diagnose(&wl, &config, "r2").unwrap();
        let revoked = audited.report.revocations();
        assert!(!revoked.is_empty(), "no poisoned prune was convicted");
        assert!(revoked.iter().all(|a| a.source_run == "synth/r1"));

        let ledger = TrustLedger::load(&dir);
        assert!(
            ledger.score("synth/r1") < histpc_history::trust::FULL_SCORE,
            "failed audits left trust untouched"
        );
        for a in &revoked {
            assert!(
                ledger.is_revoked("synth/r1", &a.directive),
                "revocation of `{}` was not pinned",
                a.directive
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_drops_revoked_lines_and_gates_on_trust() {
        let dir = std::env::temp_dir().join(format!("histpc-trustgate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
        session.diagnose(&wl, &fast_config(), "r1").unwrap();
        let opts = ExtractionOptions::priorities_and_safe_prunes();
        let full = session.harvest("synth", "r1", &opts).unwrap();
        assert!(!full.is_empty());
        // Every harvested directive names its source run.
        for line in full.lines() {
            let p = full.provenance_of(&line).expect("unstamped directive");
            assert_eq!(p.source_run, "synth/r1");
        }

        // Pin a revocation for one line the extraction produces: the
        // next harvest must drop exactly that line (HL037).
        let victim = full.lines().into_iter().next().unwrap();
        let mut ledger = TrustLedger::load(&dir);
        ledger.record_revocation("synth/r1", &victim);
        ledger.save(&dir).unwrap();
        let vetted = session.harvest("synth", "r1", &opts).unwrap();
        assert_eq!(vetted.len(), full.len() - 1);
        assert!(!vetted.lines().contains(&victim));

        // Decay to down-weighted: only priorities survive, High demoted.
        let mut ledger = TrustLedger::load(&dir);
        ledger.record_audit("synth/r1", false); // 1000 -> 500
        ledger.save(&dir).unwrap();
        let weighted = session.harvest("synth", "r1", &opts).unwrap();
        assert!(weighted.prunes.is_empty() && weighted.thresholds.is_empty());
        assert!(!weighted.priorities.is_empty());
        assert!(weighted
            .priorities
            .iter()
            .all(|p| p.level != PriorityLevel::High));

        // Decay past the floor: a quarantined source contributes nothing.
        let mut ledger = TrustLedger::load(&dir);
        ledger.record_audit("synth/r1", false); // 500 -> 250
        ledger.record_audit("synth/r1", false); // 250 -> 125, quarantined
        ledger.save(&dir).unwrap();
        let gone = session.harvest("synth", "r1", &opts).unwrap();
        assert!(gone.is_empty(), "quarantined source still harvested");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_trust_ledger_loads_as_full_trust() {
        let dir = std::env::temp_dir().join(format!("histpc-trustcorr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_store(&dir).unwrap();
        let mut ledger = TrustLedger::new();
        ledger.record_audit("synth/r0", false);
        ledger.save(&dir).unwrap();
        // A writer that died mid-write of TRUST, bypassing the atomic
        // install, leaves the file cut short.
        let path = dir.join(histpc_history::trust::TRUST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(TrustLedger::parse(&std::fs::read_to_string(&path).unwrap()).is_none());
        // The checksum frame makes the load fail safe: a fresh ledger
        // (conservative full trust), not a half-parsed one, and the
        // next diagnosis runs as usual.
        let recovered = TrustLedger::load(&dir);
        assert_eq!(
            recovered.score("synth/r0"),
            histpc_history::trust::FULL_SCORE
        );
        let wl = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
        let run = session.diagnose_faulted(&wl, &fast_config(), "c1", None);
        assert!(run.unwrap().diagnosis.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_mapped_rewrites_cross_version() {
        let session = Session::new();
        let config = fast_config();
        let a = session
            .diagnose(&PoissonWorkload::new(PoissonVersion::A), &config, "a1")
            .unwrap();
        let b_wl = PoissonWorkload::new(PoissonVersion::B);
        let b_resources: Vec<_> = {
            let d = session.diagnose(&b_wl, &config, "b-probe").unwrap();
            d.record.resources.clone()
        };
        let mapped = session
            .harvest_mapped(
                &a.record,
                &b_resources,
                &ExtractionOptions::priorities_only(),
                &MappingSet::new(),
            )
            .unwrap();
        // Directives extracted from A must now speak B's names.
        let mentions_a_names = mapped.priorities.iter().any(|p| {
            p.focus
                .selection("Code")
                .is_some_and(|s| s.to_string().contains("oned.f"))
        });
        let mentions_b_names = mapped.priorities.iter().any(|p| {
            p.focus
                .selection("Code")
                .is_some_and(|s| s.to_string().contains("onednb.f"))
        });
        assert!(!mentions_a_names, "unmapped A-version names remain");
        assert!(mentions_b_names, "no mapped B-version names found");
    }
}
