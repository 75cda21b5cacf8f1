//! The trust ledger: a crash-safe sidecar scoring every source run
//! whose harvested directives the tool has ever applied.
//!
//! Historical guidance is only as good as the run it came from. A
//! stale or poisoned record harvests directives that *silently* hide
//! true bottlenecks — nothing in the pipeline fails, the report is
//! just wrong. The ledger closes that loop: shadow audits (see
//! `histpc-consultant`) and corpus conflict findings (`HL030`) feed
//! per-source-run trust scores, and harvest consults those scores
//! before applying anything:
//!
//! * score ≥ [`DOWNWEIGHT_BELOW`] — fully trusted, directives apply
//!   as harvested;
//! * [`QUARANTINE_FLOOR`] ≤ score < [`DOWNWEIGHT_BELOW`] —
//!   down-weighted: prunes and thresholds (the dangerous kinds — they
//!   *remove* search work) are dropped, High priorities demoted to
//!   Medium (hints, not mandates);
//! * score < [`QUARANTINE_FLOOR`] — quarantined: nothing from the run
//!   is applied (`HL036`).
//!
//! Scores move by integer rules chosen to be deterministic and
//! asymmetric — trust is lost in halves and regained in eighths:
//!
//! * audit pass:     `score += (FULL_SCORE - score) / 8`
//! * audit failure:  `score /= 2`
//! * HL030 conflict: `score = score * 9 / 10`, applied **once** per
//!   distinct conflict key, so a chronic contradiction decays the
//!   source instead of being re-litigated every harvest.
//!
//! The ledger also pins every **revoked** directive line per source:
//! once an audit catches a directive lying, re-harvesting the same
//! record must not resurrect it — revocation survives `store compact`
//! and v0→v1 `migrate` because neither touches root sidecars.
//!
//! On disk it is one root-level `TRUST` sidecar, its body covered by an
//! FNV-64 checksum ([`histpc_resources::fnv64`]) and saved under the
//! store lock by
//! [`ExecutionStore::update_trust`](crate::ExecutionStore::update_trust).
//! A damaged `TRUST` falls back to a committed `TRUST.tmp`, then to an
//! empty ledger: every source simply starts back at full trust.

use crate::durable::{self, RealFs, Vfs};
use crate::factcache::payload_after;
use histpc_resources::fnv64;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// The sidecar file name, directly under the store root.
pub const TRUST_FILE: &str = "TRUST";

/// First line of the sidecar file.
pub const TRUST_HEADER: &str = "histpc-trust v1";

/// Score of a source run the ledger has no complaints about, in
/// thousandths.
pub const FULL_SCORE: u32 = 1000;

/// Below this score a source's prunes/thresholds are dropped and its
/// High priorities demoted at harvest.
pub const DOWNWEIGHT_BELOW: u32 = 750;

/// Below this score nothing from the source is applied at all.
pub const QUARANTINE_FLOOR: u32 = 250;

/// The ledger's verdict on one source run, derived from its score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustVerdict {
    /// Directives apply as harvested.
    Trusted,
    /// Prunes/thresholds dropped, High priorities demoted.
    Downweighted,
    /// Nothing from this source is applied.
    Quarantined,
}

/// Everything the ledger knows about one source run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustEntry {
    /// Current score in thousandths ([`FULL_SCORE`] = untarnished).
    pub score: u32,
    /// Shadow audits whose probe agreed with the directive.
    pub audits_passed: u64,
    /// Shadow audits whose probe contradicted the directive.
    pub audits_failed: u64,
    /// Distinct HL030 conflict keys already charged to this source.
    pub conflicts: BTreeSet<String>,
    /// Canonical directive lines revoked by audits — never re-applied.
    pub revoked: BTreeSet<String>,
}

impl Default for TrustEntry {
    fn default() -> TrustEntry {
        TrustEntry {
            score: FULL_SCORE,
            audits_passed: 0,
            audits_failed: 0,
            conflicts: BTreeSet::new(),
            revoked: BTreeSet::new(),
        }
    }
}

/// A persistent map of source run id → [`TrustEntry`], with tolerant
/// checksum-verified loading and atomic saving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrustLedger {
    entries: BTreeMap<String, TrustEntry>,
}

impl TrustLedger {
    /// An empty ledger: every source at full trust.
    pub fn new() -> TrustLedger {
        TrustLedger::default()
    }

    /// Loads the sidecar from a store root. Damage never errors: a
    /// torn `TRUST` falls back to a committed `TRUST.tmp` (the save
    /// that was cut may have left a complete tmp behind), and if both
    /// are unusable the ledger is empty — sources revert to full
    /// trust, which only costs re-auditing.
    pub fn load(root: &Path) -> TrustLedger {
        Self::load_in(&RealFs, root)
    }

    /// [`TrustLedger::load`] on the file system `fs`.
    pub(crate) fn load_in(fs: &dyn Vfs, root: &Path) -> TrustLedger {
        let parse = |text: &str| Self::parse(text).ok_or_else(|| "damaged".to_string());
        match durable::read_tolerant(fs, &root.join(TRUST_FILE), true, parse) {
            Ok(Some(Ok(ledger))) => ledger,
            _ => TrustLedger::default(),
        }
    }

    /// The score of a source run ([`FULL_SCORE`] when unknown).
    pub fn score(&self, source: &str) -> u32 {
        self.entries.get(source).map_or(FULL_SCORE, |e| e.score)
    }

    /// The ledger's verdict on a source run.
    pub fn verdict(&self, source: &str) -> TrustVerdict {
        let score = self.score(source);
        if score < QUARANTINE_FLOOR {
            TrustVerdict::Quarantined
        } else if score < DOWNWEIGHT_BELOW {
            TrustVerdict::Downweighted
        } else {
            TrustVerdict::Trusted
        }
    }

    /// The full entry for a source run, if the ledger has one.
    pub fn entry(&self, source: &str) -> Option<&TrustEntry> {
        self.entries.get(source)
    }

    /// All (source, entry) pairs in deterministic order.
    pub fn sources(&self) -> impl Iterator<Item = (&String, &TrustEntry)> {
        self.entries.iter()
    }

    /// Number of sources with a recorded entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no source has ever been scored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `line` (a canonical directive line) has been revoked
    /// for `source` by a failed shadow audit.
    pub fn is_revoked(&self, source: &str, line: &str) -> bool {
        self.entries
            .get(source)
            .is_some_and(|e| e.revoked.contains(line))
    }

    /// Records a shadow-audit outcome for a source run: a pass earns
    /// back an eighth of the lost trust, a failure halves the score.
    pub fn record_audit(&mut self, source: &str, passed: bool) {
        let e = self.entries.entry(source.to_string()).or_default();
        if passed {
            e.audits_passed += 1;
            e.score += (FULL_SCORE - e.score) / 8;
        } else {
            e.audits_failed += 1;
            e.score /= 2;
        }
    }

    /// Charges one HL030 conflict to a source run. The `key` names
    /// the contradicted pair; each distinct key decays the score once
    /// (`*9/10`) and is then remembered, so repeat analyses of the
    /// same corpus do not compound the penalty. Returns whether the
    /// ledger changed.
    pub fn record_conflict(&mut self, source: &str, key: &str) -> bool {
        let e = self.entries.entry(source.to_string()).or_default();
        if !e.conflicts.insert(key.to_string()) {
            return false;
        }
        e.score = e.score * 9 / 10;
        true
    }

    /// Pins a revoked directive line to a source run so it is never
    /// re-applied by a later harvest. Returns whether it was new.
    pub fn record_revocation(&mut self, source: &str, line: &str) -> bool {
        self.entries
            .entry(source.to_string())
            .or_default()
            .revoked
            .insert(line.to_string())
    }

    /// Serializes the ledger. The second line frames the body with an
    /// FNV-64 checksum so a torn write is *detected* (and the tmp
    /// fallback consulted) rather than half-parsed. Conflict keys and
    /// revoked lines are length-prefixed à la the FACTS sidecar, and
    /// everything is emitted in `BTreeMap`/`BTreeSet` order so equal
    /// ledgers serialize identically.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        for (source, e) in &self.entries {
            body.push_str(&format!(
                "entry {} {} {} {source}\n",
                e.score, e.audits_passed, e.audits_failed
            ));
            for key in &e.conflicts {
                body.push_str(&format!("conflict {} {source}\n{key}\n", key.len()));
            }
            for line in &e.revoked {
                body.push_str(&format!("revoke {} {source}\n{line}\n", line.len()));
            }
        }
        format!(
            "{TRUST_HEADER}\nchecksum {:016x}\n{body}",
            fnv64(body.as_bytes())
        )
    }

    /// Parses a serialized ledger. Any structural damage — bad
    /// header, checksum mismatch, malformed entry — returns `None`.
    pub fn parse(text: &str) -> Option<TrustLedger> {
        let rest = text.strip_prefix(TRUST_HEADER)?.strip_prefix('\n')?;
        let (checksum_line, body) = rest.split_once('\n')?;
        let want = u64::from_str_radix(checksum_line.strip_prefix("checksum ")?, 16).ok()?;
        if fnv64(body.as_bytes()) != want {
            return None;
        }
        let mut entries: BTreeMap<String, TrustEntry> = BTreeMap::new();
        let mut pos = 0;
        while pos < body.len() {
            let line_end = body[pos..].find('\n').map(|i| pos + i)?;
            let line = &body[pos..line_end];
            if let Some(meta) = line.strip_prefix("entry ") {
                let mut parts = meta.splitn(4, ' ');
                let score: u32 = parts.next()?.parse().ok()?;
                let passed: u64 = parts.next()?.parse().ok()?;
                let failed: u64 = parts.next()?.parse().ok()?;
                let source = parts.next()?.to_string();
                let e = entries.entry(source).or_default();
                e.score = score.min(FULL_SCORE);
                e.audits_passed = passed;
                e.audits_failed = failed;
                pos = line_end + 1;
            } else if let Some(meta) = line
                .strip_prefix("conflict ")
                .or_else(|| line.strip_prefix("revoke "))
            {
                let is_conflict = line.starts_with("conflict ");
                let (len_text, source) = meta.split_once(' ')?;
                let len: usize = len_text.parse().ok()?;
                let payload = payload_after(body, line_end, len)?.to_string();
                let e = entries.entry(source.to_string()).or_default();
                if is_conflict {
                    e.conflicts.insert(payload);
                } else {
                    e.revoked.insert(payload);
                }
                pos = line_end + len + 2;
            } else {
                return None;
            }
        }
        Some(TrustLedger { entries })
    }

    /// Installs the ledger under a store root without the store lock, to
    /// seed a store no session uses; sessions go through
    /// [`ExecutionStore::update_trust`](crate::ExecutionStore::update_trust).
    pub fn save(&self, root: &Path) -> io::Result<()> {
        self.save_in(&RealFs, root)
    }

    /// [`TrustLedger::save`] on the file system `fs`.
    pub(crate) fn save_in(&self, fs: &dyn Vfs, root: &Path) -> io::Result<()> {
        durable::install(fs, &root.join(TRUST_FILE), self.to_text().as_bytes(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-trust-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unknown_sources_start_fully_trusted() {
        let l = TrustLedger::new();
        assert_eq!(l.score("app/run"), FULL_SCORE);
        assert_eq!(l.verdict("app/run"), TrustVerdict::Trusted);
        assert!(!l.is_revoked("app/run", "prune * resource /Machine"));
    }

    #[test]
    fn audit_failures_halve_and_passes_recover_in_eighths() {
        let mut l = TrustLedger::new();
        l.record_audit("app/bad", false);
        assert_eq!(l.score("app/bad"), 500);
        assert_eq!(l.verdict("app/bad"), TrustVerdict::Downweighted);
        l.record_audit("app/bad", false);
        assert_eq!(l.score("app/bad"), 250);
        l.record_audit("app/bad", false);
        assert_eq!(l.score("app/bad"), 125);
        assert_eq!(l.verdict("app/bad"), TrustVerdict::Quarantined);
        // Recovery is slow: one pass from 125 earns (1000-125)/8 = 109.
        l.record_audit("app/bad", true);
        assert_eq!(l.score("app/bad"), 234);
        assert_eq!(l.verdict("app/bad"), TrustVerdict::Quarantined);
    }

    #[test]
    fn conflicts_decay_once_per_key() {
        let mut l = TrustLedger::new();
        assert!(l.record_conflict("app/r1", "app CPUbound </Code,...>"));
        assert_eq!(l.score("app/r1"), 900);
        // The same conflict re-found on the next analysis is free.
        assert!(!l.record_conflict("app/r1", "app CPUbound </Code,...>"));
        assert_eq!(l.score("app/r1"), 900);
        assert!(l.record_conflict("app/r1", "app Excessive </Sync,...>"));
        assert_eq!(l.score("app/r1"), 810);
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let mut l = TrustLedger::new();
        l.record_audit("tenant/app/r1", false);
        l.record_audit("tenant/app/r1", true);
        l.record_conflict("tenant/app/r1", "key with spaces\nand a newline");
        l.record_revocation("tenant/app/r1", "prune CPUbound resource /Code/diff.f");
        l.record_audit("app/r2", true);
        let back = TrustLedger::parse(&l.to_text()).unwrap();
        assert_eq!(back, l);
        assert!(back.is_revoked("tenant/app/r1", "prune CPUbound resource /Code/diff.f"));
    }

    #[test]
    fn damaged_text_parses_to_none() {
        let mut l = TrustLedger::new();
        l.record_audit("app/r", false);
        let good = l.to_text();
        assert!(TrustLedger::parse(&good).is_some());
        // Flip one byte of the body: checksum catches it.
        let flipped = good.replace("entry 500", "entry 501");
        assert!(TrustLedger::parse(&flipped).is_none());
        assert!(TrustLedger::parse("not a ledger").is_none());
        assert!(TrustLedger::parse("histpc-trust v1\nchecksum zz\n").is_none());
        // Every prefix is either the full text or rejected (no partial
        // parse ever half-succeeds thanks to the frame).
        for cut in 0..good.len() {
            if !good.is_char_boundary(cut) {
                continue;
            }
            if let Some(partial) = TrustLedger::parse(&good[..cut]) {
                panic!("prefix of {cut} bytes parsed to {partial:?}");
            }
        }
    }

    #[test]
    fn load_falls_back_to_committed_tmp() {
        let dir = scratch("tmpfallback");
        let mut l = TrustLedger::new();
        l.record_audit("app/r", false);
        // Simulate a save cut between writing the tmp and the rename:
        // the target is torn garbage, the tmp is complete.
        std::fs::write(dir.join(TRUST_FILE), "histpc-trust v1\nchecksum 00").unwrap();
        std::fs::write(dir.join(format!("{TRUST_FILE}.tmp")), l.to_text()).unwrap();
        assert_eq!(TrustLedger::load(&dir), l);
        // Both damaged: empty ledger, full trust.
        std::fs::write(dir.join(format!("{TRUST_FILE}.tmp")), "junk").unwrap();
        assert!(TrustLedger::load(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = scratch("roundtrip");
        let mut l = TrustLedger::new();
        l.record_conflict("app/r1", "k");
        l.record_revocation("app/r2", "threshold CPUbound 0.9");
        l.save(&dir).unwrap();
        assert_eq!(TrustLedger::load(&dir), l);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
