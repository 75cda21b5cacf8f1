//! Search directives: prunes, priorities, and thresholds (paper §3.1).
//!
//! * **Pruning directives** instruct the tool to ignore a subtree of a
//!   resource hierarchy (or one exact focus) in its evaluation of a
//!   specific hypothesis — or of all hypotheses (`*`).
//! * **Priorities** assign High or Low importance to specific
//!   hypothesis/focus pairs; High pairs are instrumented at search start
//!   and are persistent, Low pairs are tested after their Medium siblings.
//! * **Thresholds** replace a hypothesis's default test level.
//!
//! The textual form is line-oriented, one directive per line, matching
//! the spirit of the paper's input files:
//!
//! ```text
//! # comment
//! prune * resource /SyncObject
//! prune CPUbound resource /Code/diff.f/diff
//! prune ExcessiveSyncWaitingTime pair </Code/oned.f,/Machine,/Process,/SyncObject>
//! priority high ExcessiveSyncWaitingTime </Code/exchng1.f/exchng1,/Machine,/Process,/SyncObject>
//! priority low CPUbound </Code/diff.f,/Machine,/Process,/SyncObject>
//! threshold ExcessiveSyncWaitingTime 0.12
//! ```

use histpc_resources::diag::{did_you_mean, tokenize, Diagnostic, Span, MEMORY_FILE};
use histpc_resources::{Focus, ResourceName};
use std::collections::HashMap;

/// Priority of a hypothesis/focus pair in the search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityLevel {
    /// Tested after Medium siblings.
    Low,
    /// The default.
    Medium,
    /// Instrumented at search start; persistent for the whole run.
    High,
}

impl PriorityLevel {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PriorityLevel::High => "high",
            PriorityLevel::Medium => "medium",
            PriorityLevel::Low => "low",
        }
    }

    /// Parses the lowercase name.
    pub fn from_name(s: &str) -> Option<PriorityLevel> {
        match s {
            "high" => Some(PriorityLevel::High),
            "medium" => Some(PriorityLevel::Medium),
            "low" => Some(PriorityLevel::Low),
            _ => None,
        }
    }
}

/// Where a directive came from: the stored run whose extraction
/// produced it and the store manifest generation current at harvest
/// time. Provenance rides beside the directives in a side table keyed
/// by canonical line (see [`SearchDirectives::provenance_of`]) so that
/// directive equality, hashing, and `to_text` never see it — a
/// provenance-stamped set serializes byte-identically to an unstamped
/// one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Source run id, `app/label` (daemon harvests prefix the tenant).
    pub source_run: String,
    /// Store manifest generation at harvest time (0 for v0 stores).
    pub generation: u64,
}

impl Provenance {
    /// A provenance marker.
    pub fn new(source_run: impl Into<String>, generation: u64) -> Provenance {
        Provenance {
            source_run: source_run.into(),
            generation,
        }
    }

    /// Stable `source@generation` rendering, as written by
    /// [`SearchDirectives::to_annotated_text`].
    pub fn tag(&self) -> String {
        format!("{}@{}", self.source_run, self.generation)
    }

    /// Parses the `source@generation` form (the generation is the part
    /// after the *last* `@`, so source run ids may contain `@`).
    pub fn parse_tag(s: &str) -> Option<Provenance> {
        let (source, gen) = s.rsplit_once('@')?;
        if source.is_empty() {
            return None;
        }
        Some(Provenance {
            source_run: source.to_string(),
            generation: gen.parse().ok()?,
        })
    }
}

/// What a pruning directive removes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PruneTarget {
    /// A resource subtree: any focus whose selection descends into the
    /// subtree is pruned. Pruning a hierarchy root (e.g. `/Machine`)
    /// blocks refinement *into* that hierarchy while keeping foci whose
    /// selection is the root itself.
    Resource(ResourceName),
    /// One exact focus.
    Pair(Focus),
}

/// A pruning directive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Prune {
    /// Hypothesis name the prune applies to; `None` means all hypotheses
    /// (written `*`).
    pub hypothesis: Option<String>,
    /// What is pruned.
    pub target: PruneTarget,
}

impl Prune {
    /// True if this prune removes (hypothesis `hyp`, focus `f`).
    pub fn matches(&self, hyp: &str, f: &Focus) -> bool {
        if let Some(h) = &self.hypothesis {
            if h != hyp {
                return false;
            }
        }
        match &self.target {
            PruneTarget::Pair(p) => p == f,
            PruneTarget::Resource(r) => match f.selection(r.hierarchy()) {
                None => false,
                Some(sel) => {
                    if r.is_root() {
                        // Pruning a hierarchy root blocks descent into it,
                        // not the unconstrained root selection itself.
                        r.is_ancestor_of(sel)
                    } else {
                        r.is_prefix_of(sel)
                    }
                }
            },
        }
    }

    /// The canonical `prune ...` line this directive serializes to (no
    /// trailing newline) — the stable key for provenance and trust
    /// bookkeeping.
    pub fn line(&self) -> String {
        let hyp = self.hypothesis.as_deref().unwrap_or("*");
        match &self.target {
            PruneTarget::Resource(r) => format!("prune {hyp} resource {r}"),
            PruneTarget::Pair(f) => format!("prune {hyp} pair {f}"),
        }
    }
}

/// A priority directive for one hypothesis/focus pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PriorityDirective {
    /// Hypothesis name.
    pub hypothesis: String,
    /// Exact focus.
    pub focus: Focus,
    /// High or Low (Medium is the default and never written).
    pub level: PriorityLevel,
}

impl PriorityDirective {
    /// The canonical `priority ...` line (no trailing newline).
    pub fn line(&self) -> String {
        format!(
            "priority {} {} {}",
            self.level.name(),
            self.hypothesis,
            self.focus
        )
    }
}

/// A threshold directive for one hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdDirective {
    /// Hypothesis name.
    pub hypothesis: String,
    /// Fraction of execution time (0..1).
    pub value: f64,
}

impl ThresholdDirective {
    /// The canonical `threshold ...` line (no trailing newline).
    pub fn line(&self) -> String {
        format!("threshold {} {}", self.hypothesis, self.value)
    }
}

/// A complete set of search directives.
#[derive(Debug, Clone, Default)]
pub struct SearchDirectives {
    /// Pruning directives.
    pub prunes: Vec<Prune>,
    /// Priority directives.
    pub priorities: Vec<PriorityDirective>,
    /// Threshold directives.
    pub thresholds: Vec<ThresholdDirective>,
    /// Index for exact-pair priority lookups.
    priority_index: HashMap<(String, Focus), PriorityLevel>,
    /// Provenance side table, keyed by canonical directive line. Never
    /// consulted by equality or serialization (`to_text`): a stamped
    /// set and an unstamped one are byte-identical on disk unless the
    /// caller asks for [`to_annotated_text`](Self::to_annotated_text).
    provenance: HashMap<String, Provenance>,
}

impl SearchDirectives {
    /// An empty directive set (the unmodified Performance Consultant).
    pub fn none() -> SearchDirectives {
        SearchDirectives::default()
    }

    /// Adds a prune.
    pub fn add_prune(&mut self, p: Prune) {
        self.prunes.push(p);
    }

    /// Adds a priority directive (replacing an earlier one for the same
    /// pair).
    pub fn add_priority(&mut self, p: PriorityDirective) {
        // The index holds exactly the pairs in `priorities` (only this
        // and `remove_by_line` change either), so the linear sweep for
        // the directive being replaced runs only when there is one.
        let replaced = self
            .priority_index
            .insert((p.hypothesis.clone(), p.focus.clone()), p.level);
        if replaced.is_some() {
            self.priorities
                .retain(|q| !(q.hypothesis == p.hypothesis && q.focus == p.focus));
        }
        self.priorities.push(p);
    }

    /// Adds a threshold directive (replacing an earlier one for the same
    /// hypothesis).
    pub fn add_threshold(&mut self, t: ThresholdDirective) {
        self.thresholds.retain(|q| q.hypothesis != t.hypothesis);
        self.thresholds.push(t);
    }

    /// True if (hypothesis, focus) is pruned.
    pub fn is_pruned(&self, hyp: &str, focus: &Focus) -> bool {
        self.prunes.iter().any(|p| p.matches(hyp, focus))
    }

    /// The first prune that removes (hypothesis, focus), if any — the
    /// one a shadow audit would hold accountable.
    pub fn prune_matching(&self, hyp: &str, focus: &Focus) -> Option<&Prune> {
        self.prunes.iter().find(|p| p.matches(hyp, focus))
    }

    /// Removes the directive serializing to `line`, along with its
    /// provenance entry. Returns true if anything was removed. This is
    /// how a shadow audit **revokes** a convicted directive mid-search:
    /// once removed, `is_pruned`/`threshold_for` stop honouring it and
    /// the consultant can reopen the subtree it was hiding.
    pub fn remove_by_line(&mut self, line: &str) -> bool {
        let before = self.len();
        self.prunes.retain(|p| p.line() != line);
        let mut removed_pairs = Vec::new();
        self.priorities.retain(|p| {
            if p.line() == line {
                removed_pairs.push((p.hypothesis.clone(), p.focus.clone()));
                false
            } else {
                true
            }
        });
        for key in removed_pairs {
            self.priority_index.remove(&key);
        }
        self.thresholds.retain(|t| t.line() != line);
        self.provenance.remove(line);
        self.len() != before
    }

    /// Records where the directive serializing to `line` came from.
    pub fn set_provenance(&mut self, line: impl Into<String>, p: Provenance) {
        self.provenance.insert(line.into(), p);
    }

    /// The recorded provenance of the directive serializing to `line`.
    pub fn provenance_of(&self, line: &str) -> Option<&Provenance> {
        self.provenance.get(line)
    }

    /// Stamps every directive that does not yet carry provenance with
    /// `source_run@generation`. Harvest calls this so each applied
    /// prune/priority/threshold can name the run that caused it.
    pub fn stamp_provenance(&mut self, source_run: &str, generation: u64) {
        for line in self.lines() {
            self.provenance
                .entry(line)
                .or_insert_with(|| Provenance::new(source_run, generation));
        }
    }

    /// Copies provenance from `from` for every directive present in
    /// `self` that lacks it — used after filtering/merging a stamped
    /// set so the survivors keep naming their source runs.
    pub fn adopt_provenance(&mut self, from: &SearchDirectives) {
        for line in self.lines() {
            if let Some(p) = from.provenance.get(&line) {
                self.provenance.entry(line).or_insert_with(|| p.clone());
            }
        }
    }

    /// Canonical lines of every directive, in serialization order.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.prunes.iter().map(Prune::line));
        out.extend(self.priorities.iter().map(PriorityDirective::line));
        out.extend(self.thresholds.iter().map(ThresholdDirective::line));
        out
    }

    /// The priority of (hypothesis, focus); Medium unless directed.
    pub fn priority_of(&self, hyp: &str, focus: &Focus) -> PriorityLevel {
        self.priority_index
            .get(&(hyp.to_string(), focus.clone()))
            .copied()
            .unwrap_or(PriorityLevel::Medium)
    }

    /// The directed threshold for a hypothesis, if any.
    pub fn threshold_for(&self, hyp: &str) -> Option<f64> {
        self.thresholds
            .iter()
            .find(|t| t.hypothesis == hyp)
            .map(|t| t.value)
    }

    /// All High-priority pairs (instrumented at search start).
    pub fn high_priority_pairs(&self) -> impl Iterator<Item = &PriorityDirective> {
        self.priorities
            .iter()
            .filter(|p| p.level == PriorityLevel::High)
    }

    /// Total number of directives.
    pub fn len(&self) -> usize {
        self.prunes.len() + self.priorities.len() + self.thresholds.len()
    }

    /// True if the set holds no directives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges another directive set into this one (later wins on
    /// conflicting priorities/thresholds).
    pub fn merge(&mut self, other: &SearchDirectives) {
        for p in &other.prunes {
            if !self.prunes.contains(p) {
                self.prunes.push(p.clone());
            }
        }
        for p in &other.priorities {
            self.add_priority(p.clone());
        }
        for t in &other.thresholds {
            self.add_threshold(t.clone());
        }
        self.adopt_provenance(other);
    }

    /// Serializes to the line-oriented text form. Provenance is never
    /// written — harvest baselines, fact-cache keys, and conflict-pass
    /// dedupe lines all compare this output byte-for-byte.
    pub fn to_text(&self) -> String {
        self.render(false)
    }

    /// Like [`to_text`](Self::to_text) but appends ` from source@gen`
    /// to every directive with recorded provenance. The output is
    /// still parseable: [`parse`](Self::parse) recovers both the
    /// directives and their provenance.
    pub fn to_annotated_text(&self) -> String {
        self.render(true)
    }

    fn render(&self, annotated: bool) -> String {
        let mut out = String::from("# histpc search directives v1\n");
        let mut push = |line: String, prov: &HashMap<String, Provenance>| match prov
            .get(&line)
            .filter(|_| annotated)
        {
            Some(p) => out.push_str(&format!("{line} from {}\n", p.tag())),
            None => {
                out.push_str(&line);
                out.push('\n');
            }
        };
        for p in &self.prunes {
            push(p.line(), &self.provenance);
        }
        for p in &self.priorities {
            push(p.line(), &self.provenance);
        }
        for t in &self.thresholds {
            push(t.line(), &self.provenance);
        }
        out
    }

    /// Parses the line-oriented text form. Unknown lines produce errors;
    /// blank lines and `#` comments are skipped. On failure the first
    /// error-severity [`Diagnostic`] is returned; use [`parse_with_spans`]
    /// to recover all diagnostics at once.
    pub fn parse(text: &str) -> Result<SearchDirectives, Diagnostic> {
        let (located, diags) = parse_with_spans(text, MEMORY_FILE);
        match diags.into_iter().find(|d| d.is_error()) {
            Some(err) => Err(err),
            None => Ok(SearchDirectives::from_located(&located)),
        }
    }

    /// Builds a directive set from located directives (spans discarded,
    /// parsed provenance annotations preserved).
    pub fn from_located(located: &[LocatedDirective]) -> SearchDirectives {
        let mut out = SearchDirectives::none();
        for l in located {
            match &l.directive {
                Directive::Prune(p) => out.add_prune(p.clone()),
                Directive::Priority(p) => out.add_priority(p.clone()),
                Directive::Threshold(t) => out.add_threshold(t.clone()),
            }
            if let Some(p) = &l.provenance {
                out.set_provenance(l.directive.line(), p.clone());
            }
        }
        out
    }
}

/// One directive of any kind, as parsed from a single line.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// A `prune` line.
    Prune(Prune),
    /// A `priority` line.
    Priority(PriorityDirective),
    /// A `threshold` line.
    Threshold(ThresholdDirective),
}

impl Directive {
    /// The hypothesis this directive constrains, if named (`*` prunes
    /// apply to every hypothesis and return `None`).
    pub fn hypothesis(&self) -> Option<&str> {
        match self {
            Directive::Prune(p) => p.hypothesis.as_deref(),
            Directive::Priority(p) => Some(&p.hypothesis),
            Directive::Threshold(t) => Some(&t.hypothesis),
        }
    }

    /// The canonical line this directive serializes to.
    pub fn line(&self) -> String {
        match self {
            Directive::Prune(p) => p.line(),
            Directive::Priority(p) => p.line(),
            Directive::Threshold(t) => t.line(),
        }
    }
}

/// A parsed directive together with the source spans linters need to
/// point at: the whole directive, its hypothesis token, and its value
/// token(s) (resource, focus, or threshold number).
#[derive(Debug, Clone, PartialEq)]
pub struct LocatedDirective {
    /// The directive itself.
    pub directive: Directive,
    /// Span of the whole directive (trimmed line content).
    pub span: Span,
    /// Span of the hypothesis token (the `*` token for wildcard prunes).
    pub hypothesis_span: Span,
    /// Span of the target/value part of the line.
    pub value_span: Span,
    /// Provenance parsed from a trailing ` from source@gen` annotation.
    pub provenance: Option<Provenance>,
}

const DIRECTIVE_KINDS: [&str; 3] = ["prune", "priority", "threshold"];

/// Parses a directive file with error recovery: every line that parses
/// contributes a [`LocatedDirective`], every line that does not
/// contributes an error-severity [`Diagnostic`] (codes `HL001`, `HL003`,
/// `HL007`), and parsing always continues to the end of the input.
pub fn parse_with_spans(text: &str, file: &str) -> (Vec<LocatedDirective>, Vec<Diagnostic>) {
    let mut located = Vec::new();
    let mut diags = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_line(raw, lineno, file) {
            Ok(dir) => located.push(dir),
            Err(diag) => diags.push(diag),
        }
    }
    (located, diags)
}

/// Splits a trailing ` from source@gen` provenance annotation off a
/// token list. Only splits when the annotation actually parses, so a
/// hypothesis or resource that merely resembles one is left alone.
fn split_provenance<'a, 'b>(
    tokens: &'b [histpc_resources::diag::Token<'a>],
) -> (&'b [histpc_resources::diag::Token<'a>], Option<Provenance>) {
    if tokens.len() >= 4 && tokens[tokens.len() - 2].text == "from" {
        if let Some(p) = Provenance::parse_tag(tokens[tokens.len() - 1].text) {
            return (&tokens[..tokens.len() - 2], Some(p));
        }
    }
    (tokens, None)
}

/// Parses one non-blank, non-comment directive line.
fn parse_line(raw: &str, lineno: usize, file: &str) -> Result<LocatedDirective, Diagnostic> {
    let tokens = tokenize(raw);
    let (tokens, provenance) = split_provenance(&tokens);
    let kind = tokens[0];
    let line_span = Span::new(
        lineno,
        kind.col_start,
        tokens.last().expect("non-empty line").col_end,
    );
    // Span pointing just past the last token, for "missing X" errors.
    let eol = Span::new(lineno, line_span.col_end, line_span.col_end + 1);
    let missing = |what: &str| {
        Diagnostic::error(
            "HL001",
            format!("{} directive is missing {what}", kind.text),
        )
        .with_file(file)
        .with_span(eol)
    };
    match kind.text {
        "prune" => {
            let hyp = *tokens.get(1).ok_or_else(|| missing("a hypothesis name"))?;
            let target_kind = *tokens.get(2).ok_or_else(|| missing("a target kind"))?;
            let rest = &tokens[3..];
            if rest.is_empty() {
                return Err(missing("a target"));
            }
            let value_span = Span::new(lineno, rest[0].col_start, rest[rest.len() - 1].col_end);
            let rest_text = rest.iter().map(|t| t.text).collect::<Vec<_>>().join(" ");
            let target = match target_kind.text {
                "resource" => {
                    PruneTarget::Resource(ResourceName::parse(&rest_text).map_err(|e| {
                        Diagnostic::error("HL007", format!("malformed resource name: {e}"))
                            .with_file(file)
                            .with_span(value_span)
                    })?)
                }
                "pair" => PruneTarget::Pair(Focus::parse(&rest_text).map_err(|e| {
                    Diagnostic::error("HL007", format!("malformed focus: {e}"))
                        .with_file(file)
                        .with_span(value_span)
                })?),
                other => {
                    let mut d = Diagnostic::error(
                        "HL001",
                        format!("prune target kind must be `resource` or `pair`, found `{other}`"),
                    )
                    .with_file(file)
                    .with_span(target_kind.span(lineno));
                    if let Some(s) = did_you_mean(other, ["resource", "pair"]) {
                        d = d.with_suggestion(format!("did you mean `{s}`?"));
                    }
                    return Err(d);
                }
            };
            Ok(LocatedDirective {
                directive: Directive::Prune(Prune {
                    hypothesis: (hyp.text != "*").then(|| hyp.text.to_string()),
                    target,
                }),
                span: line_span,
                hypothesis_span: hyp.span(lineno),
                value_span,
                provenance,
            })
        }
        "priority" => {
            let level_tok = *tokens.get(1).ok_or_else(|| missing("a priority level"))?;
            let level = PriorityLevel::from_name(level_tok.text).ok_or_else(|| {
                let mut d = Diagnostic::error(
                    "HL001",
                    format!(
                        "priority level must be `high`, `medium`, or `low`, found `{}`",
                        level_tok.text
                    ),
                )
                .with_file(file)
                .with_span(level_tok.span(lineno));
                if let Some(s) = did_you_mean(level_tok.text, ["high", "medium", "low"]) {
                    d = d.with_suggestion(format!("did you mean `{s}`?"));
                }
                d
            })?;
            let hyp = *tokens.get(2).ok_or_else(|| missing("a hypothesis name"))?;
            let rest = &tokens[3..];
            if rest.is_empty() {
                return Err(missing("a focus"));
            }
            let value_span = Span::new(lineno, rest[0].col_start, rest[rest.len() - 1].col_end);
            let rest_text = rest.iter().map(|t| t.text).collect::<Vec<_>>().join(" ");
            let focus = Focus::parse(&rest_text).map_err(|e| {
                Diagnostic::error("HL007", format!("malformed focus: {e}"))
                    .with_file(file)
                    .with_span(value_span)
            })?;
            Ok(LocatedDirective {
                directive: Directive::Priority(PriorityDirective {
                    hypothesis: hyp.text.to_string(),
                    focus,
                    level,
                }),
                span: line_span,
                hypothesis_span: hyp.span(lineno),
                value_span,
                provenance,
            })
        }
        "threshold" => {
            let hyp = *tokens.get(1).ok_or_else(|| missing("a hypothesis name"))?;
            let value_tok = *tokens.get(2).ok_or_else(|| missing("a value"))?;
            let value: f64 = value_tok.text.parse().map_err(|_| {
                Diagnostic::error(
                    "HL001",
                    format!("threshold value `{}` is not a number", value_tok.text),
                )
                .with_file(file)
                .with_span(value_tok.span(lineno))
            })?;
            if !(value > 0.0 && value <= 1.0) {
                return Err(Diagnostic::error(
                    "HL003",
                    format!("threshold {value} is outside (0, 1]"),
                )
                .with_file(file)
                .with_span(value_tok.span(lineno))
                .with_suggestion(
                    "thresholds are fractions of execution time; use a value in (0, 1]",
                ));
            }
            Ok(LocatedDirective {
                directive: Directive::Threshold(ThresholdDirective {
                    hypothesis: hyp.text.to_string(),
                    value,
                }),
                span: line_span,
                hypothesis_span: hyp.span(lineno),
                value_span: value_tok.span(lineno),
                provenance,
            })
        }
        other => {
            let mut d = Diagnostic::error("HL001", format!("unknown directive kind `{other}`"))
                .with_file(file)
                .with_span(kind.span(lineno));
            if let Some(s) = did_you_mean(other, DIRECTIVE_KINDS) {
                d = d.with_suggestion(format!("did you mean `{s}`?"));
            }
            Err(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp() -> Focus {
        Focus::whole_program(["Code", "Machine", "Process", "SyncObject"])
    }

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    #[test]
    fn resource_prune_matches_subtree() {
        let p = Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/Code/diff.f")),
        };
        let f_mod = wp().with_selection(n("/Code/diff.f"));
        let f_func = wp().with_selection(n("/Code/diff.f/diff"));
        let f_other = wp().with_selection(n("/Code/oned.f"));
        assert!(p.matches("CPUbound", &f_mod));
        assert!(p.matches("CPUbound", &f_func));
        assert!(!p.matches("CPUbound", &f_other));
        assert!(!p.matches("CPUbound", &wp()));
    }

    #[test]
    fn root_prune_blocks_descent_only() {
        // Pruning /Machine (redundant hierarchy) keeps the root selection
        // but blocks any refinement into the hierarchy.
        let p = Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/Machine")),
        };
        assert!(!p.matches("CPUbound", &wp()));
        assert!(p.matches("CPUbound", &wp().with_selection(n("/Machine/node01"))));
    }

    #[test]
    fn hypothesis_scoped_prune() {
        // The paper's general prune: /SyncObject from all but sync
        // hypotheses.
        let p = Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Resource(n("/SyncObject")),
        };
        let f = wp().with_selection(n("/SyncObject/Message"));
        assert!(p.matches("CPUbound", &f));
        assert!(!p.matches("ExcessiveSyncWaitingTime", &f));
    }

    #[test]
    fn pair_prune_is_exact() {
        let f = wp().with_selection(n("/Code/oned.f"));
        let p = Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Pair(f.clone()),
        };
        assert!(p.matches("CPUbound", &f));
        assert!(!p.matches("CPUbound", &f.with_selection(n("/Code/oned.f/main"))));
    }

    #[test]
    fn priority_lookup_defaults_to_medium() {
        let mut d = SearchDirectives::none();
        let f = wp().with_selection(n("/Code/oned.f"));
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: f.clone(),
            level: PriorityLevel::High,
        });
        assert_eq!(d.priority_of("CPUbound", &f), PriorityLevel::High);
        assert_eq!(d.priority_of("CPUbound", &wp()), PriorityLevel::Medium);
        assert_eq!(
            d.priority_of("ExcessiveSyncWaitingTime", &f),
            PriorityLevel::Medium
        );
    }

    #[test]
    fn add_priority_replaces_existing() {
        let mut d = SearchDirectives::none();
        let f = wp();
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: f.clone(),
            level: PriorityLevel::High,
        });
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: f.clone(),
            level: PriorityLevel::Low,
        });
        assert_eq!(d.priorities.len(), 1);
        assert_eq!(d.priority_of("CPUbound", &f), PriorityLevel::Low);
    }

    #[test]
    fn add_priority_replacement_order_survives_removals() {
        // `add_priority` only sweeps `priorities` when its index says
        // the pair is already there, so the index must track every
        // mutation: a replaced pair moves to the back, a revoked one
        // can be re-added without a stale index entry hiding it.
        let pri = |file: &str, level| PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: Focus::whole_program(["Code"]).with_selection(n(&format!("/Code/{file}"))),
            level,
        };
        let mut d = SearchDirectives::none();
        d.add_priority(pri("a.c", PriorityLevel::High));
        d.add_priority(pri("b.c", PriorityLevel::Low));
        d.add_priority(pri("c.c", PriorityLevel::High));
        d.add_priority(pri("a.c", PriorityLevel::Low));
        assert!(d.remove_by_line("priority high CPUbound </Code/c.c>"));
        d.add_priority(pri("c.c", PriorityLevel::Low));
        d.add_priority(pri("b.c", PriorityLevel::High));
        assert_eq!(
            d.to_text(),
            "# histpc search directives v1\n\
             priority low CPUbound </Code/a.c>\n\
             priority low CPUbound </Code/c.c>\n\
             priority high CPUbound </Code/b.c>\n"
        );
        for p in &d.priorities {
            assert_eq!(d.priority_of(&p.hypothesis, &p.focus), p.level);
        }
        let reparsed = SearchDirectives::parse(&d.to_text()).unwrap();
        assert_eq!(reparsed.priorities, d.priorities);
    }

    #[test]
    fn threshold_replacement_and_lookup() {
        let mut d = SearchDirectives::none();
        d.add_threshold(ThresholdDirective {
            hypothesis: "ExcessiveSyncWaitingTime".into(),
            value: 0.20,
        });
        d.add_threshold(ThresholdDirective {
            hypothesis: "ExcessiveSyncWaitingTime".into(),
            value: 0.12,
        });
        assert_eq!(d.threshold_for("ExcessiveSyncWaitingTime"), Some(0.12));
        assert_eq!(d.threshold_for("CPUbound"), None);
        assert_eq!(d.thresholds.len(), 1);
    }

    #[test]
    fn text_roundtrip() {
        let mut d = SearchDirectives::none();
        d.add_prune(Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/SyncObject")),
        });
        d.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Pair(wp()),
        });
        d.add_priority(PriorityDirective {
            hypothesis: "ExcessiveSyncWaitingTime".into(),
            focus: wp().with_selection(n("/Code/exchng1.f/exchng1")),
            level: PriorityLevel::High,
        });
        d.add_threshold(ThresholdDirective {
            hypothesis: "ExcessiveSyncWaitingTime".into(),
            value: 0.12,
        });
        let text = d.to_text();
        let parsed = SearchDirectives::parse(&text).unwrap();
        assert_eq!(parsed.prunes, d.prunes);
        assert_eq!(parsed.priorities, d.priorities);
        assert_eq!(parsed.thresholds.len(), 1);
        assert_eq!(parsed.threshold_for("ExcessiveSyncWaitingTime"), Some(0.12));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "frobnicate all the things",
            "prune",
            "prune * gadget /Code",
            "priority sideways CPUbound </Code>",
            "threshold CPUbound notanumber",
            "threshold CPUbound 3.5",
        ] {
            assert!(SearchDirectives::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let d = SearchDirectives::parse("# header\n\n  \nthreshold CPUbound 0.3\n").unwrap();
        assert_eq!(d.threshold_for("CPUbound"), Some(0.3));
    }

    #[test]
    fn merge_unions_and_overrides() {
        let mut a = SearchDirectives::none();
        a.add_threshold(ThresholdDirective {
            hypothesis: "CPUbound".into(),
            value: 0.2,
        });
        a.add_prune(Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/Machine")),
        });
        let mut b = SearchDirectives::none();
        b.add_threshold(ThresholdDirective {
            hypothesis: "CPUbound".into(),
            value: 0.1,
        });
        b.add_prune(Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/Machine")),
        });
        a.merge(&b);
        assert_eq!(a.threshold_for("CPUbound"), Some(0.1));
        assert_eq!(a.prunes.len(), 1);
    }

    #[test]
    fn provenance_is_invisible_to_text_and_survives_annotation() {
        let mut d = SearchDirectives::none();
        d.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Resource(n("/Code/diff.f")),
        });
        d.add_threshold(ThresholdDirective {
            hypothesis: "CPUbound".into(),
            value: 0.25,
        });
        let plain = d.to_text();
        d.stamp_provenance("app/run1", 7);
        // Stamping never perturbs the canonical serialization.
        assert_eq!(d.to_text(), plain);
        let annotated = d.to_annotated_text();
        assert!(annotated.contains("prune CPUbound resource /Code/diff.f from app/run1@7"));
        assert!(annotated.contains("threshold CPUbound 0.25 from app/run1@7"));
        // Round trip: directives and provenance both come back.
        let parsed = SearchDirectives::parse(&annotated).unwrap();
        assert_eq!(parsed.prunes, d.prunes);
        assert_eq!(
            parsed.provenance_of("prune CPUbound resource /Code/diff.f"),
            Some(&Provenance::new("app/run1", 7))
        );
        // And the canonical text of the round-tripped set is unchanged.
        assert_eq!(parsed.to_text(), plain);
    }

    #[test]
    fn stamp_does_not_overwrite_existing_provenance() {
        let mut d = SearchDirectives::none();
        d.add_threshold(ThresholdDirective {
            hypothesis: "CPUbound".into(),
            value: 0.3,
        });
        d.set_provenance("threshold CPUbound 0.3", Provenance::new("app/old", 1));
        d.stamp_provenance("app/new", 9);
        assert_eq!(
            d.provenance_of("threshold CPUbound 0.3"),
            Some(&Provenance::new("app/old", 1))
        );
    }

    #[test]
    fn merge_adopts_provenance_of_adopted_directives() {
        let mut a = SearchDirectives::none();
        let mut b = SearchDirectives::none();
        b.add_prune(Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/Machine")),
        });
        b.stamp_provenance("app/src", 3);
        a.merge(&b);
        assert_eq!(
            a.provenance_of("prune * resource /Machine"),
            Some(&Provenance::new("app/src", 3))
        );
    }

    #[test]
    fn provenance_tag_roundtrip_and_rejects_garbage() {
        let p = Provenance::new("tenant/app/run", 12);
        assert_eq!(Provenance::parse_tag(&p.tag()), Some(p));
        assert_eq!(Provenance::parse_tag("nogeneration"), None);
        assert_eq!(Provenance::parse_tag("run@notanumber"), None);
        assert_eq!(Provenance::parse_tag("@7"), None);
    }

    #[test]
    fn remove_by_line_revokes_exactly_one_directive() {
        let mut d = SearchDirectives::none();
        d.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Pair(wp()),
        });
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: wp(),
            level: PriorityLevel::Low,
        });
        d.add_threshold(ThresholdDirective {
            hypothesis: "CPUbound".into(),
            value: 0.9,
        });
        d.stamp_provenance("app/evil", 4);
        assert!(d.remove_by_line("prune CPUbound pair </Code,/Machine,/Process,/SyncObject>"));
        assert!(!d.is_pruned("CPUbound", &wp()));
        assert_eq!(
            d.provenance_of("prune CPUbound pair </Code,/Machine,/Process,/SyncObject>"),
            None
        );
        assert!(d.remove_by_line("priority low CPUbound </Code,/Machine,/Process,/SyncObject>"));
        assert_eq!(d.priority_of("CPUbound", &wp()), PriorityLevel::Medium);
        assert!(d.remove_by_line("threshold CPUbound 0.9"));
        assert_eq!(d.threshold_for("CPUbound"), None);
        assert!(d.is_empty());
        assert!(!d.remove_by_line("threshold CPUbound 0.9"));
    }

    #[test]
    fn high_priority_pairs_iterator() {
        let mut d = SearchDirectives::none();
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: wp(),
            level: PriorityLevel::High,
        });
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: wp().with_selection(n("/Code/diff.f")),
            level: PriorityLevel::Low,
        });
        assert_eq!(d.high_priority_pairs().count(), 1);
        assert_eq!(d.len(), 2);
    }
}
