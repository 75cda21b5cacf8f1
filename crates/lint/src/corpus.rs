//! The corpus analyzer: multi-pass, cross-run analysis of a whole
//! execution store.
//!
//! Per-file lints ([`Linter`](crate::Linter)) judge one artifact at a
//! time; they cannot see that run 3 of a store prunes the very pair run
//! 41 marks a high-priority bottleneck. The corpus analyzer can. It
//! runs in two stages:
//!
//! 1. **Lowering** — every stored record is distilled into a fact
//!    payload and read back as [`RecordFacts`], ids into one interned
//!    [`FactTable`] ([`crate::facts`]). Payloads are cached in the
//!    store's `FACTS` sidecar keyed on the record's FNV-64 payload
//!    checksum (the same one the store manifest tracks), so a
//!    re-analysis only lowers records whose bytes changed —
//!    O(changed records), not O(store) — and the sidecar is rewritten
//!    only when an entry changed.
//! 2. **Passes** — cross-run analyses over the fact tables
//!    ([`crate::passes`]): directive conflicts (`HL030`), staleness
//!    (`HL031`), threshold drift (`HL032`), and prune dominance
//!    (`HL033`). A final store scan reports abandoned session
//!    checkpoints (`HL034`) — `ckpt` artifacts whose session never
//!    completed, left behind by a crash nothing ever resumed.
//!
//! The conflict pass additionally returns [`ConflictVerdicts`], which
//! `Session::harvest` consults to down-rank contradictory directives
//! before they ever reach the consultant — it runs lowering and that
//! one pass ([`CorpusAnalyzer::conflict_verdicts`]), nothing else. A
//! corpus with no conflicts yields an empty verdict set and a
//! bit-identical harvest. A long-lived caller keeps the verdicts in a
//! [`VerdictMemo`], which skips even that while the store's record
//! listing is unchanged.

use crate::facts::{self, FactTable, RecordFacts};
use crate::passes;
use crate::LintReport;
use histpc_consultant::directive::{PriorityLevel, SearchDirectives};
use histpc_history::factcache::FACTCACHE_FILE;
use histpc_history::manifest::ManifestState;
use histpc_history::{ExecutionStore, ExtractionOptions, StoreError};
use histpc_resources::fnv64;
use histpc_resources::intern::Interner;
use histpc_resources::Focus;
use std::collections::BTreeSet;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime};

/// Tuning knobs for a corpus analysis.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// How many of an application's most recent runs define the "live"
    /// resource set for the staleness pass (`HL031`).
    pub recent_window: usize,
    /// How facts derive each record's harvested directives. Changing
    /// these invalidates cached facts (the options fingerprint is part
    /// of the cache key).
    pub extraction: ExtractionOptions,
}

impl Default for CorpusOptions {
    fn default() -> CorpusOptions {
        CorpusOptions {
            recent_window: 20,
            extraction: ExtractionOptions::priorities_and_safe_prunes().with_thresholds(),
        }
    }
}

/// One (hypothesis, focus) pair the corpus both prunes and prioritizes
/// (`HL030`), scoped to the application and version the conflict was
/// found in.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictVerdict {
    /// Application the conflicting runs belong to.
    pub app: String,
    /// Version group the conflict was found in.
    pub version: String,
    /// Hypothesis of the contradicted pair.
    pub hypothesis: String,
    /// Focus of the contradicted pair.
    pub focus: Focus,
    /// Label of the run whose extraction harvests the prune side.
    /// Harvest feeds this into the trust ledger: a run whose guidance
    /// is chronically contradicted decays toward quarantine.
    pub prune_source: String,
    /// Label of the run whose extraction harvests the high priority.
    pub priority_source: String,
}

/// The conflict pass's output: every contradicted pair, ready for
/// harvest-time down-ranking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConflictVerdicts {
    verdicts: Vec<ConflictVerdict>,
}

impl ConflictVerdicts {
    /// No conflicts anywhere.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Number of contradicted pairs.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// All verdicts, in deterministic (app, version, pair) order.
    pub fn iter(&self) -> impl Iterator<Item = &ConflictVerdict> {
        self.verdicts.iter()
    }

    pub(crate) fn push(&mut self, v: ConflictVerdict) {
        self.verdicts.push(v);
    }

    /// Down-ranks a harvested directive set against the verdicts that
    /// apply to `(app, version)`: high priorities on a contradicted
    /// pair and prunes removing one are dropped (the corpus cannot
    /// honestly claim either side), everything else is preserved in
    /// order. Returns the vetted set and how many directives were
    /// dropped. With no applicable verdicts the result is a plain
    /// clone — byte-identical `to_text()`.
    pub fn down_rank(
        &self,
        directives: &SearchDirectives,
        app: &str,
        version: &str,
    ) -> (SearchDirectives, usize) {
        let applicable: Vec<&ConflictVerdict> = self
            .verdicts
            .iter()
            .filter(|v| v.app == app && v.version == version)
            .collect();
        if applicable.is_empty() {
            return (directives.clone(), 0);
        }
        let mut out = SearchDirectives::none();
        let mut dropped = 0;
        for p in &directives.prunes {
            if applicable
                .iter()
                .any(|v| p.matches(&v.hypothesis, &v.focus))
            {
                dropped += 1;
            } else {
                out.add_prune(p.clone());
            }
        }
        for p in &directives.priorities {
            let contradicted = p.level == PriorityLevel::High
                && applicable
                    .iter()
                    .any(|v| v.hypothesis == p.hypothesis && v.focus == p.focus);
            if contradicted {
                dropped += 1;
            } else {
                out.add_priority(p.clone());
            }
        }
        for t in &directives.thresholds {
            out.add_threshold(t.clone());
        }
        (out, dropped)
    }
}

/// The result of one corpus analysis.
#[derive(Debug, Clone, Default)]
pub struct CorpusAnalysis {
    /// Every finding, sorted and deduplicated like any lint report.
    pub report: LintReport,
    /// Contradicted pairs for harvest-time down-ranking.
    pub verdicts: ConflictVerdicts,
    /// Records analyzed (damaged records are skipped; `fsck` owns those).
    pub records: usize,
    /// Records whose facts came from the sidecar cache.
    pub cache_hits: usize,
    /// Records that were lowered from scratch this analysis.
    pub cache_misses: usize,
}

/// Drives lowering + passes over one execution store.
#[derive(Debug)]
pub struct CorpusAnalyzer<'a> {
    store: &'a ExecutionStore,
    opts: CorpusOptions,
}

impl<'a> CorpusAnalyzer<'a> {
    /// An analyzer with default options.
    pub fn new(store: &'a ExecutionStore) -> CorpusAnalyzer<'a> {
        CorpusAnalyzer::with_options(store, CorpusOptions::default())
    }

    /// An analyzer with explicit options.
    pub fn with_options(store: &'a ExecutionStore, opts: CorpusOptions) -> CorpusAnalyzer<'a> {
        CorpusAnalyzer { store, opts }
    }

    /// The options fingerprint every cache key carries.
    fn fingerprint(&self) -> u64 {
        fnv64(format!("{}|{:?}", facts::FACTS_HEADER, self.opts.extraction).as_bytes())
    }

    /// Lists what a lowering reads: every stored record, in
    /// (application, label) order, with its payload checksum. One
    /// directory read per application and one manifest load; records
    /// the manifest misses (v0 stores, drift) fall back to hashing.
    fn listing(&self) -> Result<Listing, StoreError> {
        let manifest = match self.store.manifest() {
            Ok(ManifestState::Loaded(m)) => Some(m),
            _ => None,
        };
        let mut apps = Vec::new();
        for (app, labels) in self.store.runs()? {
            let records = labels
                .into_iter()
                .map(|label| {
                    let rel = format!("{app}/{label}.record");
                    let checksum = match manifest.as_ref().and_then(|m| m.lookup(&rel)) {
                        Some(c) => Some(c),
                        None => self.store.record_checksum(&app, &label).ok(),
                    };
                    (label, checksum)
                })
                .collect();
            apps.push((app, records));
        }
        Ok(Listing {
            apps,
            generation: manifest.map(|m| m.generation),
        })
    }

    /// Stage one: load (or lower) the facts of every listed record
    /// through one [`FactTable`], and write the sidecar back if — and
    /// only if — an entry was added, replaced or dropped. A record that
    /// fails to checksum or load is skipped (it is `fsck`'s job to
    /// report it, and one torn record must not hide corpus findings
    /// about the rest).
    fn lower(&self, apps: &[ListedApp]) -> Lowered {
        let mut cache = self.store.load_facts();
        let mut interner = Interner::new();
        let fingerprint = self.fingerprint();
        let mut lowered = Lowered::default();
        let mut live = BTreeSet::new();

        for (app, records) in apps {
            for (seq, (label, checksum)) in records.iter().enumerate() {
                let Some(checksum) = *checksum else {
                    lowered.skipped += 1;
                    continue;
                };
                let rel = format!("{app}/{label}.record");
                let key = checksum ^ fingerprint;
                let cached = cache
                    .lookup(&rel, key)
                    .and_then(|payload| lowered.table.load(payload).ok());
                let facts = match cached {
                    Some(f) => {
                        lowered.hits += 1;
                        f
                    }
                    None => {
                        let Ok(rec) = self.store.load(app, label) else {
                            lowered.skipped += 1;
                            continue;
                        };
                        let payload = facts::lower(&rec, &mut interner, &self.opts.extraction);
                        // Cold and warm analyses read facts back through
                        // the same loader, so they cannot disagree.
                        let Ok(f) = lowered.table.load(&payload) else {
                            lowered.skipped += 1;
                            continue;
                        };
                        cache.insert(&rel, key, payload);
                        lowered.misses += 1;
                        f
                    }
                };
                live.insert(rel);
                lowered.facts.push(RecordFacts {
                    app: app.clone(),
                    label: label.clone(),
                    seq,
                    checksum,
                    ..facts
                });
            }
        }

        // Drop entries for deleted records; a warm pass over an
        // unchanged store leaves the sidecar file alone. The write is
        // best-effort (a read-only store must still analyze).
        cache.retain_paths(&live);
        if cache.is_dirty() {
            lowered.unsaved = self.store.save_facts(&cache).is_err();
        }
        lowered
    }

    /// Lowering plus the conflict pass alone — all `Session::harvest`
    /// needs from the corpus.
    pub fn conflict_verdicts(&self) -> Result<ConflictVerdicts, StoreError> {
        Ok(self.lower(&self.listing()?.apps).conflicts())
    }

    /// Runs the full analysis: lowering, then every pass.
    pub fn analyze(&self) -> Result<CorpusAnalysis, StoreError> {
        let lowered = self.lower(&self.listing()?.apps);
        let (table, facts) = (&lowered.table, &lowered.facts);
        let mut diags = Vec::new();
        let verdicts = passes::conflicts::check(table, facts, &mut diags);
        passes::stale::check(table, facts, self.opts.recent_window, &mut diags);
        passes::drift::check(table, facts, &mut diags);
        passes::dominance::check(table, facts, &mut diags);
        diags.extend(crate::checks::check_abandoned_checkpoints(
            self.store.root(),
        ));
        diags.extend(crate::checks::check_orphaned_leases(self.store.root()));

        Ok(CorpusAnalysis {
            report: LintReport::from(diags),
            verdicts,
            records: facts.len(),
            cache_hits: lowered.hits,
            cache_misses: lowered.misses,
        })
    }
}

/// What lowering hands the passes.
#[derive(Debug, Default)]
struct Lowered {
    table: FactTable,
    facts: Vec<RecordFacts>,
    /// Records whose payload came from the sidecar cache.
    hits: usize,
    /// Records lowered from scratch.
    misses: usize,
    /// Listed records left out: unreadable checksum, record or facts.
    skipped: usize,
    /// The sidecar needed a write that failed (read-only root, full
    /// disk), so FACTS is missing or stale until a later pass repairs it.
    unsaved: bool,
}

impl Lowered {
    fn conflicts(&self) -> ConflictVerdicts {
        passes::conflicts::check(&self.table, &self.facts, &mut Vec::new())
    }
}

/// The records a corpus lowering reads, as
/// [`CorpusAnalyzer::listing`] found them: per application (sorted),
/// each label (sorted) with its payload checksum, `None` where not even
/// that could be read. Besides the options, it is all the conflict
/// verdicts depend on — the `FACTS` sidecar only decides which records
/// are lowered again.
#[derive(Debug)]
struct Listing {
    apps: Vec<ListedApp>,
    /// The store generation of the manifest the checksums came from;
    /// `None` when it was missing or damaged.
    generation: Option<u64>,
}

/// One application of a [`Listing`]: its name and its records'
/// `(label, checksum)` pairs.
type ListedApp = (String, Vec<(String, Option<u64>)>);

/// What a warm answer is valid for: the listing, the options
/// fingerprint, and the `FACTS` sidecar's [`FactsStamp`].
#[derive(Debug, PartialEq)]
struct MemoKey {
    apps: Vec<ListedApp>,
    fingerprint: u64,
    facts: Option<FactsStamp>,
}

/// One `stat` of the `FACTS` sidecar. Every save renames a new file
/// into place, so the inode changes with each write the lowering makes;
/// length and mtime catch a damaged file rewritten in place.
#[derive(Debug, PartialEq)]
struct FactsStamp {
    len: u64,
    modified: SystemTime,
    ino: u64,
}

/// A sidecar modified less than this long before it is stamped (or
/// stamped in the future) may be modified again within the same mtime
/// tick, unseen; such a stamp is never memoized (the "racy clean"
/// problem of any stat-keyed cache).
const RACY_STAMP: Duration = Duration::from_secs(2);

fn facts_stamp(root: &Path) -> Option<FactsStamp> {
    let meta = std::fs::metadata(root.join(FACTCACHE_FILE)).ok()?;
    Some(FactsStamp {
        len: meta.len(),
        modified: meta.modified().ok()?,
        ino: meta.ino(),
    })
}

/// The conflict verdicts of the last complete corpus lowering, reused
/// while nothing they are computed from has changed: a warm
/// `Session::harvest` then costs one [`Listing`] and one `stat`, not a
/// corpus pass.
///
/// The key is the listing (every record with its payload checksum),
/// the options fingerprint, and one `stat` of `FACTS`. `FACTS` itself
/// is never read on a hit — it cannot change the verdicts — but a
/// damaged or deleted sidecar changes its `stat`, so the next call
/// lowers again and repairs it exactly as a fresh analysis would. A
/// pass that skipped a record, or could not write the `FACTS` it
/// needed, is never kept. The memo is `Sync`: the lock is held only to
/// compare or replace the stored pair, never while lowering.
///
/// Only a re-harvest of an unchanged store hits. Any save changes the
/// listing, and the pass after it rewrites `FACTS` and is too fresh to
/// keep, so a harvest that follows each save (the tuning cycle,
/// histpcd's guided sessions) always does the full pass.
#[derive(Debug, Default)]
pub struct VerdictMemo {
    last: Mutex<Option<(MemoKey, Arc<ConflictVerdicts>)>>,
}

impl VerdictMemo {
    /// An empty memo.
    pub fn new() -> VerdictMemo {
        VerdictMemo::default()
    }

    /// [`CorpusAnalyzer::conflict_verdicts`], answered from the memo
    /// when the store listing, `analyzer`'s options and the `FACTS`
    /// stamp all match the last stored pass; with the store generation
    /// of the manifest the listing read (`None` when it was missing or
    /// damaged).
    pub fn conflict_verdicts(
        &self,
        analyzer: &CorpusAnalyzer<'_>,
    ) -> Result<(Arc<ConflictVerdicts>, Option<u64>), StoreError> {
        let root = analyzer.store.root();
        let listing = analyzer.listing()?;
        let mut key = MemoKey {
            apps: listing.apps,
            fingerprint: analyzer.fingerprint(),
            facts: facts_stamp(root),
        };
        if let Some((k, verdicts)) = &*self.lock() {
            if *k == key {
                return Ok((Arc::clone(verdicts), listing.generation));
            }
        }
        let lowered = analyzer.lower(&key.apps);
        let verdicts = Arc::new(lowered.conflicts());
        // Keyed on the sidecar this pass leaves behind. The clock only
        // decides whether to keep the pair, never what it holds.
        key.facts = facts_stamp(root);
        let settled = key.facts.as_ref().is_none_or(|s| {
            SystemTime::now()
                .duration_since(s.modified)
                .is_ok_and(|age| age >= RACY_STAMP)
        });
        let complete = lowered.skipped == 0 && !lowered.unsaved;
        *self.lock() = (complete && settled).then(|| (key, Arc::clone(&verdicts)));
        Ok((verdicts, listing.generation))
    }

    fn lock(&self) -> MutexGuard<'_, Option<(MemoKey, Arc<ConflictVerdicts>)>> {
        // A panic elsewhere cannot leave the pair half-written: it is
        // replaced whole, so a poisoned lock still guards a valid memo.
        self.last.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
