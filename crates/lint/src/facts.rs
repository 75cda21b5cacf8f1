//! Lowering: from a stored [`ExecutionRecord`] to interned facts.
//!
//! The corpus analyzer never walks raw records twice. A single lowering
//! pass ([`lower`]) distills each record into a compact line-oriented
//! text payload (`histpc-facts v2`) — the version, a content-based
//! resource-set signature (via the [`Interner`]'s FNV hashing, stable
//! across processes), the sorted resource list, the smallest
//! well-observed bottleneck magnitude per hypothesis, the degraded
//! markers, and every directive `histpc harvest` would extract — which
//! lives in the store's
//! [`FactCache`](histpc_history::factcache::FactCache) sidecar.
//!
//! Payloads, cached or freshly lowered, are read back through one
//! per-analysis [`FactTable`]. A thousand near-identical runs repeat
//! the same few hundred directive lines and resource names, so the
//! table parses and validates each *distinct* line once and
//! [`RecordFacts`] hold ids; the passes compare ids, not strings.

use histpc_consultant::directive::{parse_with_spans, Directive};
use histpc_history::{ExecutionRecord, ExtractionOptions, MIN_THRESHOLD_SAMPLES};
use histpc_resources::intern::Interner;
use std::fmt::Write;

/// First line of a serialized fact payload. Bump the version to
/// invalidate every cached payload at once.
pub const FACTS_HEADER: &str = "histpc-facts v2";

/// Strings numbered in first-seen order.
#[derive(Debug, Default)]
struct Names {
    // det-audit: allow(hashmap) — looked up by key only, never
    // iterated; ids come from `names`' push order.
    ids: std::collections::HashMap<String, usize>,
    names: Vec<String>,
}

impl Names {
    fn intern(&mut self, s: &str) -> usize {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        self.ids.insert(s.to_string(), self.names.len());
        self.names.push(s.to_string());
        self.names.len() - 1
    }
}

/// Everything the corpus passes need to know about one stored run.
/// Directives, resources and hypotheses are ids into the [`FactTable`]
/// that loaded the payload.
///
/// Identity fields (`app`, `label`, `seq`, `checksum`) are keyed
/// externally by the store listing and are *not* part of the payload;
/// [`FactTable::load`] leaves them empty for the corpus loader to fill.
#[derive(Debug, Clone, Default)]
pub struct RecordFacts {
    /// Application name (from the store listing).
    pub app: String,
    /// Run label (from the store listing).
    pub label: String,
    /// Position in the app's sorted label order (0 = oldest).
    pub seq: usize,
    /// The record's FNV-64 payload checksum.
    pub checksum: u64,
    /// Application version string.
    pub version: String,
    /// Order-independent content signature of the resource set
    /// ([`Interner::set_signature`]).
    pub resource_sig: u64,
    /// Name ids of every recorded resource.
    pub resources: Vec<usize>,
    /// Per hypothesis (name id), the smallest true magnitude grounded
    /// in at least [`MIN_THRESHOLD_SAMPLES`] samples — the anchor
    /// threshold-drift reasoning compares against.
    pub minima: Vec<(usize, f64)>,
    /// True when the run recorded unreachable (dead) resources.
    pub degraded_unreachable: bool,
    /// True when the run recorded saturated (overload-shed) resources.
    pub degraded_saturated: bool,
    /// Ids of the directives `histpc harvest` would extract from this
    /// run, in serialization order.
    pub directives: Vec<usize>,
}

impl RecordFacts {
    /// The store-relative path of the record these facts came from —
    /// the `file` every corpus diagnostic points at.
    pub fn rel_path(&self) -> String {
        format!("{}/{}.record", self.app, self.label)
    }
}

/// Lowers one record into its fact payload. `interner` caches per-name
/// hashes across the whole corpus, so repeated names cost one hash
/// total.
pub fn lower(rec: &ExecutionRecord, interner: &mut Interner, opts: &ExtractionOptions) -> String {
    let mut out = format!(
        "{FACTS_HEADER}\nversion {}\nsig {:016x}\n",
        rec.app_version,
        interner.set_signature(&rec.resources)
    );
    if !rec.unreachable.is_empty() {
        out.push_str("degraded unreachable\n");
    }
    if !rec.saturated.is_empty() {
        out.push_str("degraded saturated\n");
    }
    let mut resources: Vec<String> = rec.resources.iter().map(|r| r.to_string()).collect();
    resources.sort();
    let mut minima: Vec<(&str, f64)> = Vec::new();
    for o in rec.true_outcomes() {
        if o.samples < MIN_THRESHOLD_SAMPLES {
            continue;
        }
        match minima.iter_mut().find(|(h, _)| *h == o.hypothesis) {
            Some((_, min)) => *min = min.min(o.last_value),
            None => minima.push((&o.hypothesis, o.last_value)),
        }
    }
    // Writing to a String cannot fail.
    for r in &resources {
        let _ = writeln!(out, "resource {r}");
    }
    for (hypothesis, min) in minima {
        let _ = writeln!(out, "min {hypothesis} {min}");
    }
    // Directive lines reuse the directive file grammar verbatim,
    // prefixed `d `.
    for line in histpc_history::extract(rec, opts).lines() {
        let _ = writeln!(out, "d {line}");
    }
    out
}

/// The per-analysis interned table every payload is loaded through.
#[derive(Debug, Default)]
pub struct FactTable {
    /// Canonical directive lines; a directive's id indexes both this
    /// and `directives`.
    lines: Names,
    directives: Vec<Directive>,
    /// Resource and hypothesis names.
    names: Names,
}

impl FactTable {
    /// Loads a payload, interning its lines. Identity fields come back
    /// empty. Any malformed line fails the whole payload — a damaged
    /// cache entry must be re-derived, never half-trusted. (What a
    /// failed payload interned before its bad line stays in the table,
    /// referenced by no record.)
    pub fn load(&mut self, payload: &str) -> Result<RecordFacts, String> {
        let mut lines = payload.lines();
        if lines.next() != Some(FACTS_HEADER) {
            return Err("missing facts header".into());
        }
        let mut facts = RecordFacts::default();
        for line in lines {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "version" => facts.version = rest.to_string(),
                "sig" => {
                    facts.resource_sig = u64::from_str_radix(rest, 16)
                        .map_err(|_| format!("bad signature {rest:?}"))?;
                }
                "degraded" => match rest {
                    "unreachable" => facts.degraded_unreachable = true,
                    "saturated" => facts.degraded_saturated = true,
                    other => return Err(format!("unknown degraded marker {other:?}")),
                },
                "resource" => facts.resources.push(self.names.intern(rest)),
                "min" => {
                    let bad = || format!("bad minimum line {line:?}");
                    let (hypothesis, value) = rest.rsplit_once(' ').ok_or_else(bad)?;
                    let value: f64 = value.parse().map_err(|_| bad())?;
                    let hypothesis = self.names.intern(hypothesis);
                    if !value.is_finite() || facts.minima.iter().any(|(h, _)| *h == hypothesis) {
                        return Err(bad());
                    }
                    facts.minima.push((hypothesis, value));
                }
                "d" => facts.directives.push(self.intern_directive(rest)?),
                other => return Err(format!("unknown fact line kind {other:?}")),
            }
        }
        Ok(facts)
    }

    /// The id of a directive line, parsing and validating it on first
    /// sight. Only the canonical form is accepted, so one directive has
    /// one id.
    fn intern_directive(&mut self, line: &str) -> Result<usize, String> {
        if let Some(&id) = self.lines.ids.get(line) {
            return Ok(id);
        }
        let (mut located, diags) = parse_with_spans(line, "<facts>");
        if let Some(d) = diags.first() {
            return Err(d.message.clone());
        }
        match located.pop() {
            Some(l) if l.directive.line() == line => {
                self.directives.push(l.directive);
                Ok(self.lines.intern(line))
            }
            _ => Err(format!("not a canonical directive line: {line:?}")),
        }
    }

    /// Number of distinct directives loaded so far (ids are `0..count`).
    pub fn directive_count(&self) -> usize {
        self.directives.len()
    }

    /// The parsed directive behind an id.
    pub fn directive(&self, id: usize) -> &Directive {
        &self.directives[id]
    }

    /// The canonical line of a directive id.
    pub fn line(&self, id: usize) -> &str {
        &self.lines.names[id]
    }

    /// Number of distinct resource and hypothesis names loaded so far.
    pub fn name_count(&self) -> usize {
        self.names.names.len()
    }

    /// The resource or hypothesis name behind an id.
    pub fn name(&self, id: usize) -> &str {
        &self.names.names[id]
    }

    /// The id of a resource or hypothesis name, if any payload held it.
    pub fn name_id(&self, name: &str) -> Option<usize> {
        self.names.ids.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(body: &str) -> String {
        format!("{FACTS_HEADER}\nversion A\nsig 00000000000000ff\n{body}")
    }

    #[test]
    fn equal_lines_share_one_id_across_payloads() {
        let mut table = FactTable::default();
        let a = table
            .load(&payload(
                "resource /Code/a.c\nmin CPUbound 0.4\n\
                 d prune * resource /Code/a.c\nd threshold CPUbound 0.36\n",
            ))
            .unwrap();
        let b = table
            .load(&payload(
                "degraded saturated\nresource /Code/b.c\nresource /Code/a.c\n\
                 d threshold CPUbound 0.36\nd prune * resource /Code/a.c\n",
            ))
            .unwrap();
        assert_eq!(table.directive_count(), 2);
        assert_eq!(a.directives, [0, 1]);
        assert_eq!(b.directives, [1, 0]);
        assert_eq!(table.line(1), "threshold CPUbound 0.36");
        assert!(matches!(table.directive(0), Directive::Prune(_)));
        assert_eq!(a.resources[0], b.resources[1]);
        assert_eq!(table.name(a.minima[0].0), "CPUbound");
        assert_eq!(a.minima[0].1, 0.4);
        assert_eq!((a.resource_sig, a.version.as_str()), (0xff, "A"));
        assert!(b.degraded_saturated && !b.degraded_unreachable);
        assert_eq!(table.name_id("/Code/b.c"), Some(b.resources[0]));
        assert_eq!(table.name_id("/Code/never.c"), None);
    }

    #[test]
    fn any_bad_line_fails_the_whole_payload() {
        for body in [
            "d qrune * resource /Code/a.c\n",          // unknown directive kind
            "d prune  * resource /Code/a.c\n",         // parses, but not canonical
            "d prune * resource /Code/a.c from r@1\n", // provenance is never cached
            "d threshold CPUbound 1.5\n",              // fails directive validation
            "d # comment\n",
            "min CPUbound NaN\n",
            "min CPUbound\n",
            "min CPUbound 0.4\nmin CPUbound 0.3\n",
            "degraded somehow\n",
            "true CPUbound 0.4 5\n", // a v1 line kind
        ] {
            let mut table = FactTable::default();
            assert!(table.load(&payload(body)).is_err(), "accepted {body:?}");
        }
        assert!(FactTable::default()
            .load("histpc-facts v1\nversion A\n")
            .is_err());
    }
}
