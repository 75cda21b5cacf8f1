//! The Performance Consultant search engine.
//!
//! The search proceeds exactly as described in paper §2, with the §3
//! directive extensions:
//!
//! 1. The root `(TopLevelHypothesis : WholeProgram)` expands into the base
//!    hypotheses for the whole program. High-priority directive pairs are
//!    instrumented immediately and persistently.
//! 2. Each tested node needs a full observation window of data; its
//!    metric value, normalized to a fraction of execution time under the
//!    focus, is compared against the hypothesis threshold (directives can
//!    override thresholds per hypothesis).
//! 3. True nodes are refined along the hypothesis axis and the focus axis;
//!    false nodes are not refined and their instrumentation is deleted.
//! 4. Expansion is throttled by the instrumentation cost model: it halts
//!    at the critical cost threshold and resumes after deletions.
//! 5. Pruned (hypothesis, focus) pairs are recorded but never
//!    instrumented; Low-priority pairs sort behind their Medium siblings.

use crate::directive::{
    PriorityDirective, PriorityLevel, Provenance, PruneTarget, SearchDirectives,
};
use crate::hypothesis::{HypothesisId, HypothesisTree};
use crate::report::{AuditOutcome, DiagnosisReport, NodeOutcome, Outcome};
use crate::shg::{NodeState, Shg, ShgNodeId};
use histpc_faults::{FaultInjector, FaultPlan, FaultStats, KillTarget, RequestFault};
use histpc_instr::{
    AdmitOutcome, Collector, CollectorConfig, Metric, PairId, RequestClass, SampleBatch,
};
use histpc_resources::{Focus, ResourceName, CODE, MACHINE, PROCESS, SYNC_OBJECT};
use histpc_sim::{Engine, EngineStatus, ProcId, SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// Configuration of one diagnosis session.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Search directives (empty = the unmodified Performance Consultant).
    pub directives: SearchDirectives,
    /// Observation window needed to conclude a hypothesis ("each
    /// conclusion ... is determined once a set time interval of data has
    /// been received", paper §4.1).
    pub window: SimDuration,
    /// Driver sampling step.
    pub sample: SimDuration,
    /// Give up after this much application time.
    pub max_time: SimDuration,
    /// Keep the session open for the whole program run (until `max_time`
    /// or program exit) even after the search quiesces, so persistent
    /// High-priority pairs keep testing — the paper's "testing continues
    /// throughout the entire program run". Off by default: most sessions
    /// end when the search has nothing left to do.
    pub run_full_program: bool,
    /// Instrumentation layer configuration.
    pub collector: CollectorConfig,
    /// Faults to inject. The empty plan is a perfectly healthy daemon
    /// layer: [`drive_diagnosis_faulted`] then builds no injector and
    /// runs no fault step, with or without a checkpoint to resume from.
    pub faults: FaultPlan,
    /// How long an experiment may go without fresh data from any of its
    /// processes before it concludes [`Outcome::Unknown`].
    pub data_timeout: SimDuration,
    /// Watchdog stall deadline in *application* time: when the drive
    /// loop sees no observable search progress (digest change) for
    /// this long, it halts the session at a checkpoint instead of
    /// spinning until `max_time`. The loop never applies less than
    /// `window + sample`, because a healthy search can sit unchanged
    /// for a whole window while its nodes collect data. `None`
    /// disables stall detection.
    pub stall: Option<SimDuration>,
    /// Restrict instrumentation to the top-level hypotheses at the
    /// whole-program focus: no refinement along either axis. The
    /// cheapest search that still concludes something — the second rung
    /// of a supervisor's degradation ladder.
    pub top_level_only: bool,
    /// Heartbeat/cancellation hooks a supervisor can attach to observe
    /// and interrupt the drive loop, with or without a fault plan. The
    /// defaults are inert.
    pub hooks: DriveHooks,
    /// Shadow-audit budget: how many history-pruned subtrees,
    /// history-lowered pairs, and raised thresholds get probe
    /// instrumentation anyway, so lying directives can be caught and
    /// **revoked** mid-search. Audit probes ride the admission layer's
    /// reserved `Backing` class, so they cannot be shed by the same
    /// overload that history mispredicts. 0 (the default) disables
    /// auditing entirely and keeps runs bit-identical to pre-audit
    /// baselines.
    pub audit_budget: u32,
}

/// Heartbeat and cancellation hooks into the drive loop.
///
/// A supervisor hands the same hooks to a session and its watchdog: the
/// drive loop stores the current application time into `heartbeat`
/// every tick, and checks `cancel` at every tick boundary — a set flag
/// makes [`drive_diagnosis_faulted`] stop at a [`SearchCheckpoint`]
/// exactly as an injected crash would, whether or not a fault plan is
/// set. Both hooks are optional and the disarmed default costs nothing.
#[derive(Debug, Clone, Default)]
pub struct DriveHooks {
    /// Written every tick with the tick's application time in µs.
    pub heartbeat: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
    /// When set, the drive loop returns at the next tick boundary with
    /// a checkpoint (`HaltReason::Cancelled`).
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl DriveHooks {
    fn beat(&self, now: SimTime) {
        if let Some(hb) = &self.heartbeat {
            hb.store(now.as_micros(), std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            directives: SearchDirectives::none(),
            window: SimDuration::from_secs(5),
            sample: SimDuration::from_millis(500),
            max_time: SimDuration::from_secs(3600),
            run_full_program: false,
            collector: CollectorConfig::default(),
            faults: FaultPlan::none(),
            data_timeout: SimDuration::from_secs(10),
            stall: None,
            top_level_only: false,
            hooks: DriveHooks::default(),
            audit_budget: 0,
        }
    }
}

impl SearchConfig {
    /// Replaces the directive set.
    pub fn with_directives(mut self, d: SearchDirectives) -> SearchConfig {
        self.directives = d;
        self
    }
}

fn window_start(now: SimTime, window: SimDuration) -> SimTime {
    SimTime(now.as_micros().saturating_sub(window.as_micros()))
}

/// The directive a shadow-audit probe holds accountable: its canonical
/// line (the revocation key) and the provenance naming the source run
/// that will answer for a contradiction.
#[derive(Debug, Clone)]
struct AuditTag {
    line: String,
    provenance: Provenance,
    /// Best fraction observed under a raised-threshold audit that has
    /// not tripped — what an untripped audit reports as its evidence.
    max_seen: f64,
}

/// The online Performance Consultant.
pub struct Consultant {
    tree: HypothesisTree,
    directives: SearchDirectives,
    window: SimDuration,
    shg: Shg,
    pending: Vec<ShgNodeId>,
    halted: bool,
    peak_cost: f64,
    quiesced_at: Option<SimTime>,
    /// Degradation policy; only consulted with a fault injector in the
    /// loop.
    data_timeout: SimDuration,
    /// Per-node failed-request bookkeeping: (attempts so far, earliest
    /// next retry). Looked up by id only, never iterated, so it cannot
    /// perturb determinism.
    retry: HashMap<ShgNodeId, (u32, SimTime)>,
    /// Processes killed by fault injection.
    dead_procs: Vec<ProcId>,
    /// Resource names of everything that died, for the report.
    unreachable: Vec<ResourceName>,
    /// When set, [`Consultant::refine`] is a no-op: the search stays on
    /// the top-level hypotheses at the whole-program focus.
    top_level_only: bool,
    /// Shadow-audit slots available (0 = auditing off; the audit maps
    /// below then stay empty and every audit branch is dead code).
    audit_budget: u32,
    /// Shadow-audit slots consumed so far.
    audits_assigned: u32,
    /// Probe nodes standing in for history-pruned pairs: if one tests
    /// True, its prune lied and is revoked.
    prune_audits: HashMap<ShgNodeId, AuditTag>,
    /// Probe nodes promoted from history-lowered priority: if one tests
    /// True, the "unimportant" claim lied and is revoked.
    low_audits: HashMap<ShgNodeId, AuditTag>,
    /// Canonical lines of every pair prune ever armed as a probe.
    /// Pair prunes whose line is absent keep a budget slot reserved
    /// (see [`Consultant::reserved_prune_slots`]) so the unbounded
    /// lowered-pair class cannot starve them.
    probed_prune_lines: std::collections::HashSet<String>,
    /// Raised-threshold watches, one per suspect hypothesis: a False
    /// conclusion whose value clears the *default* threshold convicts
    /// the raise. Vec (not map) for deterministic report ordering.
    threshold_audits: Vec<(HypothesisId, AuditTag)>,
    /// Concluded audits, in conclusion order.
    audit_outcomes: Vec<AuditOutcome>,
    /// Failed audits per source run this session, feeding the
    /// wholesale-distrust escalation ([`SOURCE_REVOCATION_FAILURES`]).
    audit_failures: HashMap<String, u32>,
    /// Source runs already revoked wholesale this session.
    revoked_sources: Vec<String>,
    /// The tick's releases and settles (see [`Consultant::conclude`]);
    /// kept between ticks only to reuse the allocation.
    decisions: Vec<Decision>,
    /// The tick's request outcomes (see [`Consultant::take_outcomes`]);
    /// likewise.
    outcomes: Vec<(usize, AdmitOutcome)>,
}

/// A change to the collector's instrumentation that the search decided
/// on; [`step`] applies them in the order they were decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Delete the pair's instrumentation; its data stays queryable.
    Release(PairId),
    /// Keep the pair in place at its residual, settled cost.
    Settle(PairId),
}

/// One instrumentation request of a tick's expansion.
struct Request<'a> {
    /// The node's place in the pending queue, which its outcome names.
    at: usize,
    metric: Metric,
    focus: &'a Focus,
    class: RequestClass,
}

/// Once a single session has caught this many of a source run's
/// directives lying, the session stops auditing the source one
/// directive at a time and revokes everything it contributed: each
/// audit costs a probe's conclusion window, and a source with three
/// independent convictions has forfeited the benefit of the doubt for
/// the rest of its guidance.
pub const SOURCE_REVOCATION_FAILURES: u32 = 3;

/// First retry delay after a failed or shed instrumentation request.
const RETRY_BASE: SimDuration = SimDuration::from_millis(500);
/// Cap on the exponential retry backoff.
const RETRY_CAP: SimDuration = SimDuration::from_secs(8);
/// Give up on a request (conclude Unknown) after this many failures.
const RETRY_MAX_ATTEMPTS: u32 = 6;

impl Consultant {
    /// Creates a consultant and performs the initial expansion: the SHG
    /// root, its base-hypothesis children, and the High-priority seeds.
    pub fn new(
        tree: HypothesisTree,
        directives: SearchDirectives,
        window: SimDuration,
        collector: &Collector,
    ) -> Consultant {
        let mut shg = Shg::new();
        let whole = collector.space().whole_program();
        let (root, _) = shg.add(
            tree.root(),
            whole.clone(),
            NodeState::True,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        shg.node_mut(root).first_true_at = Some(SimTime::ZERO);
        shg.node_mut(root).concluded_at = Some(SimTime::ZERO);

        let defaults = SearchConfig::default();
        let mut c = Consultant {
            tree,
            directives,
            window,
            shg,
            pending: Vec::new(),
            halted: false,
            peak_cost: 0.0,
            quiesced_at: None,
            data_timeout: defaults.data_timeout,
            retry: HashMap::new(),
            dead_procs: Vec::new(),
            unreachable: Vec::new(),
            top_level_only: false,
            audit_budget: 0,
            audits_assigned: 0,
            prune_audits: HashMap::new(),
            low_audits: HashMap::new(),
            probed_prune_lines: std::collections::HashSet::new(),
            threshold_audits: Vec::new(),
            audit_outcomes: Vec::new(),
            audit_failures: HashMap::new(),
            revoked_sources: Vec::new(),
            decisions: Vec::new(),
            outcomes: Vec::new(),
        };

        // Base hypotheses for the whole program.
        for h in c.tree.children(c.tree.root()) {
            c.create_child(h, whole.clone(), Some(root), SimTime::ZERO);
        }

        // High-priority seeds: instrumented at search start, persistent.
        for p in c
            .directives
            .high_priority_pairs()
            .cloned()
            .collect::<Vec<_>>()
        {
            let Some(h) = c.tree.by_name(&p.hypothesis) else {
                continue; // stale directive for an unknown hypothesis
            };
            // Attach under the base node of the same hypothesis if the
            // focus is a refinement; the base node itself just becomes
            // persistent.
            if let Some(id) = c.shg.find(h, &p.focus) {
                c.shg.node_mut(id).persistent = true;
                c.shg.node_mut(id).priority = PriorityLevel::High;
            } else if !c.directives.is_pruned(&p.hypothesis, &p.focus) {
                let parent = c.shg.find(h, &whole);
                let (id, created) = c.shg.add(
                    h,
                    p.focus.clone(),
                    NodeState::Pending,
                    PriorityLevel::High,
                    true,
                    parent,
                    SimTime::ZERO,
                );
                if created {
                    c.pending.push(id);
                }
            }
        }
        c
    }

    /// The search history graph.
    pub fn shg(&self) -> &Shg {
        &self.shg
    }

    /// The hypothesis tree.
    pub fn tree(&self) -> &HypothesisTree {
        &self.tree
    }

    /// True once the search has no pending or testing nodes left.
    pub fn is_quiescent(&self) -> bool {
        self.quiesced_at.is_some()
    }

    /// Adopts the data timeout and `top_level_only` from a config. The
    /// data timeout is read only with a fault injector in the loop. The
    /// drive loop calls this before the first tick.
    pub fn set_fault_policy(&mut self, config: &SearchConfig) {
        self.data_timeout = config.data_timeout;
        self.top_level_only = config.top_level_only;
    }

    /// Restricts (or un-restricts) the search to the top-level
    /// hypotheses at the whole-program focus. The drive loop applies
    /// `config.top_level_only` through [`Consultant::set_fault_policy`].
    pub fn set_top_level_only(&mut self, on: bool) {
        self.top_level_only = on;
    }

    /// Arms the shadow-audit loop with `budget` probe slots. The drive
    /// loop calls this right after construction and before the first
    /// tick — including on resume, so replayed digests stay comparable.
    /// Budget 0 returns immediately: every audit structure stays empty
    /// and the search is bit-identical to a pre-audit consultant.
    ///
    /// Only directives that carry [`Provenance`] are auditable — an
    /// audit that cannot name a source run has nobody to hold
    /// accountable, and hand-written directive files stay exempt.
    pub fn enable_audits(&mut self, budget: u32, collector: &Collector) {
        self.audit_budget = budget;
        if budget == 0 {
            return;
        }
        // Stale mappings first, and statically: a directive whose focus
        // names a resource this program does not have was harvested
        // against another code version and can never match an interval.
        // The binder already knows every name, so detection costs no
        // probe slot and draws nothing from the budget.
        self.detect_stale_mappings(collector);
        // Raised-threshold watches: a provenance-carrying threshold
        // above the hypothesis default silently converts true
        // conclusions into false ones, so watch every conclusion under
        // it for values that clear the default.
        let suspects: Vec<(HypothesisId, AuditTag)> = self
            .directives
            .thresholds
            .iter()
            .filter_map(|t| {
                let hyp = self.tree.by_name(&t.hypothesis)?;
                if t.value <= self.tree.get(hyp).default_threshold {
                    return None;
                }
                let line = t.line();
                let provenance = self.directives.provenance_of(&line)?.clone();
                Some((
                    hyp,
                    AuditTag {
                        line,
                        provenance,
                        max_seen: 0.0,
                    },
                ))
            })
            .collect();
        for s in suspects {
            if self.audits_assigned >= self.audit_budget {
                break;
            }
            self.audits_assigned += 1;
            self.threshold_audits.push(s);
        }
        // The initial expansion ran before audits were armed: convert
        // nodes pruned by provenance-carrying directives into probes.
        for id in self.shg.ids().collect::<Vec<_>>() {
            if self.audits_assigned >= self.audit_budget {
                break;
            }
            if self.shg.node(id).state != NodeState::Pruned {
                continue;
            }
            let hyp = self.shg.node(id).hypothesis;
            if self.tree.get(hyp).metric.is_none() {
                continue;
            }
            let name = self.tree.get(hyp).name.clone();
            let focus = self.shg.node(id).focus.clone();
            let Some(tag) = self.prune_audit_tag(&name, &focus) else {
                continue;
            };
            self.audits_assigned += 1;
            self.probed_prune_lines.insert(tag.line.clone());
            let node = self.shg.node_mut(id);
            node.state = NodeState::Pending;
            // High priority: a probe is only worth its slot if it
            // concludes before the search has spent the time the prune
            // claimed to save. The budget bounds how many pairs this
            // front-loads.
            node.priority = PriorityLevel::High;
            self.pending.push(id);
            self.prune_audits.insert(id, tag);
        }
        // Ditto for history-lowered pairs: promote an audited sample to
        // Medium so the claim "this pair doesn't matter" actually gets
        // tested this run instead of starving behind its siblings.
        // Lowered-pair audits draw only on what the pair prunes — the
        // lies that hide bottlenecks outright — have not reserved.
        let lowered_budget = self
            .audit_budget
            .saturating_sub(self.reserved_prune_slots());
        for id in self.pending.clone() {
            if self.audits_assigned >= lowered_budget {
                break;
            }
            if self.shg.node(id).priority != PriorityLevel::Low
                || self.prune_audits.contains_key(&id)
            {
                continue;
            }
            let name = self.tree.get(self.shg.node(id).hypothesis).name.clone();
            let line = PriorityDirective {
                hypothesis: name,
                focus: self.shg.node(id).focus.clone(),
                level: PriorityLevel::Low,
            }
            .line();
            let Some(provenance) = self.directives.provenance_of(&line).cloned() else {
                continue;
            };
            self.audits_assigned += 1;
            self.shg.node_mut(id).priority = PriorityLevel::Medium;
            self.low_audits.insert(
                id,
                AuditTag {
                    line,
                    provenance,
                    max_seen: 0.0,
                },
            );
        }
    }

    /// Budget slots held back for pair prunes whose probe has not been
    /// armed yet. An exact-pair prune hides a bottleneck outright — the
    /// most dangerous lie history can tell — but its SHG node often
    /// does not exist until the search refines down to it, while the
    /// lowered-pair promotions (an unbounded class: every Low priority
    /// is a candidate) arm eagerly. Without the reservation a modest
    /// budget is gone before the first pruned pair is ever created and
    /// the lie is applied unprobed.
    fn reserved_prune_slots(&self) -> u32 {
        self.directives
            .prunes
            .iter()
            .filter(|p| matches!(p.target, PruneTarget::Pair(_)))
            .filter(|p| {
                let line = p.line();
                !self.probed_prune_lines.contains(&line)
                    && self.directives.provenance_of(&line).is_some()
            })
            .count() as u32
    }

    /// Convicts every provenance-carrying directive whose focus names a
    /// resource absent from the bound application. Each detection is
    /// recorded as a failed audit at t=0, the directive is dropped, and
    /// the failures count toward the source's wholesale-revocation
    /// escalation — a source that shipped three stale mappings loses
    /// every directive before the search spends a single probe on it.
    fn detect_stale_mappings(&mut self, collector: &Collector) {
        let wp = Focus::whole_program([CODE, MACHINE, PROCESS, SYNC_OBJECT]);
        let mut stale: Vec<(String, Provenance, String, Focus)> = Vec::new();
        for p in &self.directives.prunes {
            let line = p.line();
            let Some(prov) = self.directives.provenance_of(&line) else {
                continue;
            };
            let focus = match &p.target {
                PruneTarget::Pair(f) => f.clone(),
                PruneTarget::Resource(r) => wp.with_selection(r.clone()),
            };
            if collector.binder().compile(&focus).names_unknown_resource() {
                let hyp = p.hypothesis.clone().unwrap_or_else(|| "*".to_string());
                stale.push((line, prov.clone(), hyp, focus));
            }
        }
        for p in &self.directives.priorities {
            let line = p.line();
            let Some(prov) = self.directives.provenance_of(&line) else {
                continue;
            };
            if collector
                .binder()
                .compile(&p.focus)
                .names_unknown_resource()
            {
                stale.push((line, prov.clone(), p.hypothesis.clone(), p.focus.clone()));
            }
        }
        let mut sources: Vec<String> = Vec::new();
        for (line, prov, hypothesis, focus) in stale {
            self.audit_outcomes.push(AuditOutcome {
                directive: line.clone(),
                source_run: prov.source_run.clone(),
                generation: prov.generation,
                hypothesis,
                focus,
                passed: false,
                observed: 0.0,
                at: SimTime::ZERO,
            });
            *self
                .audit_failures
                .entry(prov.source_run.clone())
                .or_insert(0) += 1;
            self.directives.remove_by_line(&line);
            if !sources.contains(&prov.source_run) {
                sources.push(prov.source_run.clone());
            }
        }
        for s in sources {
            self.escalate_distrust(&s, SimTime::ZERO, collector);
        }
    }

    /// The audit tag for the prune currently hiding (name, focus), if
    /// that prune is an exact-pair claim carrying provenance.
    ///
    /// Only pair prunes are falsifiable by a single probe: they claim
    /// one specific pair is false. Subtree prunes (the redundant
    /// Machine hierarchy, trivial functions, the SyncObject policy
    /// prunes) encode structural claims — a True probe under one
    /// proves duplication, not a lie — so they are cross-checked
    /// statically (HL030 trust conflicts) rather than probed.
    fn prune_audit_tag(&self, name: &str, focus: &histpc_resources::Focus) -> Option<AuditTag> {
        let p = self.directives.prune_matching(name, focus)?;
        if !matches!(p.target, PruneTarget::Pair(_)) {
            return None;
        }
        let line = p.line();
        let provenance = self.directives.provenance_of(&line)?.clone();
        Some(AuditTag {
            line,
            provenance,
            max_seen: 0.0,
        })
    }

    /// Records one concluded audit.
    fn record_audit(
        &mut self,
        tag: &AuditTag,
        id: ShgNodeId,
        passed: bool,
        observed: f64,
        at: SimTime,
    ) {
        let n = self.shg.node(id);
        self.audit_outcomes.push(AuditOutcome {
            directive: tag.line.clone(),
            source_run: tag.provenance.source_run.clone(),
            generation: tag.provenance.generation,
            hypothesis: self.tree.get(n.hypothesis).name.clone(),
            focus: n.focus.clone(),
            passed,
            observed,
            at,
        });
        if !passed {
            *self
                .audit_failures
                .entry(tag.provenance.source_run.clone())
                .or_insert(0) += 1;
        }
    }

    /// The wholesale-distrust escalation: once `source` has
    /// [`SOURCE_REVOCATION_FAILURES`] convictions this session, every
    /// directive it contributed is revoked at once — its pruned
    /// subtrees reopen, its raised thresholds fall back to the
    /// defaults (rescuing the conclusions they buried), and its
    /// priorities stop steering. Convicting lies one probe at a time
    /// costs a conclusion window each; a source caught lying three
    /// times has forfeited the benefit of the doubt.
    fn escalate_distrust(&mut self, source: &str, now: SimTime, collector: &Collector) {
        if self.audit_failures.get(source).copied().unwrap_or(0) < SOURCE_REVOCATION_FAILURES
            || self.revoked_sources.iter().any(|s| s == source)
        {
            return;
        }
        self.revoked_sources.push(source.to_string());
        let doomed: Vec<String> = self
            .directives
            .lines()
            .into_iter()
            .filter(|l| {
                self.directives
                    .provenance_of(l)
                    .is_some_and(|p| p.source_run == source)
            })
            .collect();
        let rescue: Vec<HypothesisId> = self
            .directives
            .thresholds
            .iter()
            .filter(|t| doomed.contains(&t.line()))
            .filter_map(|t| self.tree.by_name(&t.hypothesis))
            .collect();
        for line in &doomed {
            self.directives.remove_by_line(line);
        }
        self.reopen_pruned(now);
        for hyp in rescue {
            let default = self.tree.get(hyp).default_threshold;
            self.requeue_hidden(hyp, None, default, now, collector);
        }
    }

    /// After a prune revocation: every Pruned node no longer covered by
    /// any surviving prune goes back to Pending — the subtree the lie
    /// was hiding reopens.
    fn reopen_pruned(&mut self, _now: SimTime) {
        for id in self.shg.ids().collect::<Vec<_>>() {
            if self.shg.node(id).state != NodeState::Pruned {
                continue;
            }
            let hyp = self.shg.node(id).hypothesis;
            if self.tree.get(hyp).metric.is_none() {
                continue;
            }
            let name = self.tree.get(hyp).name.clone();
            let focus = self.shg.node(id).focus.clone();
            if self.directives.is_pruned(&name, &focus) {
                continue;
            }
            // The node was parked at whatever priority it held when the
            // prune hit it; the surviving directives may rank it High
            // (a truth pair whose poisoned prune just fell) — re-ask
            // them, or the reopened pair queues behind the entire
            // Medium class and the revocation saves nothing.
            let priority = self.directives.priority_of(&name, &focus);
            let node = self.shg.node_mut(id);
            node.state = NodeState::Pending;
            node.priority = priority;
            self.pending.push(id);
        }
    }

    /// After a threshold revocation: False non-persistent conclusions
    /// of the same hypothesis whose honestly-measured value clears the
    /// restored default were hidden by the same lie — flip them and
    /// resume the search under them.
    fn requeue_hidden(
        &mut self,
        hyp: HypothesisId,
        except: Option<ShgNodeId>,
        default: f64,
        now: SimTime,
        collector: &Collector,
    ) {
        for id in self.shg.ids().collect::<Vec<_>>() {
            if Some(id) == except {
                continue;
            }
            let node = self.shg.node(id);
            if node.hypothesis != hyp
                || node.state != NodeState::False
                || node.persistent
                || node.last_value <= default
            {
                continue;
            }
            let node = self.shg.node_mut(id);
            node.state = NodeState::True;
            node.first_true_at = Some(now);
            self.refine(id, now, collector);
        }
    }

    /// Audit bookkeeping for a node that just concluded in phase 1.
    /// Probe audits (prune/low) conclude with their node: True convicts
    /// the directive, False vindicates it. Threshold watches trip when
    /// the node tested False but its value clears the default — the
    /// raise was hiding a well-observed bottleneck.
    fn note_audit_conclusion(
        &mut self,
        id: ShgNodeId,
        fraction: f64,
        now: SimTime,
        collector: &Collector,
    ) {
        let state = self.shg.node(id).state;
        if let Some(tag) = self
            .prune_audits
            .remove(&id)
            .or_else(|| self.low_audits.remove(&id))
        {
            let convicted = state == NodeState::True;
            self.record_audit(&tag, id, !convicted, fraction, now);
            if convicted {
                self.directives.remove_by_line(&tag.line);
                self.reopen_pruned(now);
                self.escalate_distrust(&tag.provenance.source_run, now, collector);
            }
        }
        let hyp = self.shg.node(id).hypothesis;
        let Some(pos) = self.threshold_audits.iter().position(|(h, _)| *h == hyp) else {
            return;
        };
        let default = self.tree.get(hyp).default_threshold;
        if state == NodeState::False && fraction > default {
            let (_, tag) = self.threshold_audits.remove(pos);
            self.record_audit(&tag, id, false, fraction, now);
            self.directives.remove_by_line(&tag.line);
            // The convicted threshold was hiding this very conclusion:
            // flip it, resume the search under it, and rescue any other
            // conclusion the same lie already buried.
            let node = self.shg.node_mut(id);
            node.state = NodeState::True;
            node.first_true_at = Some(now);
            self.refine(id, now, collector);
            self.requeue_hidden(hyp, Some(id), default, now, collector);
            self.escalate_distrust(&tag.provenance.source_run, now, collector);
        } else {
            let tag = &mut self.threshold_audits[pos].1;
            tag.max_seen = tag.max_seen.max(fraction);
        }
    }

    /// Records that `procs` died (with the resource names they and their
    /// node answer to). Later ticks mark every unconcluded experiment
    /// stranded on dead processes as `Unreachable`.
    fn note_dead(&mut self, procs: &[ProcId], resources: Vec<ResourceName>) {
        for &p in procs {
            if !self.dead_procs.contains(&p) {
                self.dead_procs.push(p);
            }
        }
        for r in resources {
            if !self.unreachable.contains(&r) {
                self.unreachable.push(r);
            }
        }
    }

    /// A deterministic fingerprint of the search state (FNV-1a over every
    /// node's state, conclusion time and value, plus the expansion queue
    /// length). A resumed run replays to the checkpoint time and compares
    /// digests to prove it reconstructed the interrupted search exactly.
    pub fn digest(&self) -> u64 {
        let mut h = histpc_resources::Fnv64::default();
        for id in self.shg.ids() {
            let n = self.shg.node(id);
            h.write(&[n.state.marker() as u8]);
            let concluded = n.concluded_at.map_or(u64::MAX, SimTime::as_micros);
            h.write(&concluded.to_le_bytes());
            h.write(&n.last_value.to_bits().to_le_bytes());
        }
        h.write(&(self.pending.len() as u64).to_le_bytes());
        h.finish()
    }

    /// Creates (or links) a child node, honouring prunes and priorities.
    fn create_child(
        &mut self,
        hyp: HypothesisId,
        focus: histpc_resources::Focus,
        parent: Option<ShgNodeId>,
        now: SimTime,
    ) {
        let name = self.tree.get(hyp).name.clone();
        if let Some(existing) = self.shg.find(hyp, &focus) {
            // Link only; state unchanged.
            let _ = self.shg.add(
                hyp,
                focus,
                self.shg.node(existing).state,
                self.shg.node(existing).priority,
                false,
                parent,
                now,
            );
            return;
        }
        if self.directives.is_pruned(&name, &focus) {
            // Shadow audit: within budget, a pruned pair with
            // provenance becomes a probe instead of a dead node — if
            // the probe tests True, the prune lied and is revoked.
            if self.audits_assigned < self.audit_budget && self.tree.get(hyp).metric.is_some() {
                if let Some(tag) = self.prune_audit_tag(&name, &focus) {
                    self.audits_assigned += 1;
                    self.probed_prune_lines.insert(tag.line.clone());
                    let (id, created) = self.shg.add(
                        hyp,
                        focus,
                        NodeState::Pending,
                        // High, as at arm time: a conviction is only
                        // useful before the prune's savings are spent.
                        PriorityLevel::High,
                        false,
                        parent,
                        now,
                    );
                    if created {
                        self.pending.push(id);
                        self.prune_audits.insert(id, tag);
                    }
                    return;
                }
            }
            self.shg.add(
                hyp,
                focus,
                NodeState::Pruned,
                PriorityLevel::Medium,
                false,
                parent,
                now,
            );
            return;
        }
        let priority = self.directives.priority_of(&name, &focus);
        // Shadow audit: within budget, a history-lowered pair with
        // provenance is promoted back to Medium so the "unimportant"
        // claim actually gets tested this run. Slots reserved for
        // not-yet-armed pair-prune probes are off limits here too.
        if priority == PriorityLevel::Low
            && self.audits_assigned + self.reserved_prune_slots() < self.audit_budget
        {
            let line = PriorityDirective {
                hypothesis: name.clone(),
                focus: focus.clone(),
                level: PriorityLevel::Low,
            }
            .line();
            if let Some(provenance) = self.directives.provenance_of(&line).cloned() {
                self.audits_assigned += 1;
                let (id, created) = self.shg.add(
                    hyp,
                    focus,
                    NodeState::Pending,
                    PriorityLevel::Medium,
                    false,
                    parent,
                    now,
                );
                if created {
                    self.pending.push(id);
                    self.low_audits.insert(
                        id,
                        AuditTag {
                            line,
                            provenance,
                            max_seen: 0.0,
                        },
                    );
                }
                return;
            }
        }
        let (id, created) =
            self.shg
                .add(hyp, focus, NodeState::Pending, priority, false, parent, now);
        if created {
            self.pending.push(id);
        }
    }

    /// Refines a true node along both axes.
    fn refine(&mut self, id: ShgNodeId, now: SimTime, collector: &Collector) {
        if self.top_level_only {
            return;
        }
        let hyp = self.shg.node(id).hypothesis;
        let focus = self.shg.node(id).focus.clone();
        // "Why" axis: more specific hypotheses at the same focus.
        for h in self.tree.children(hyp) {
            self.create_child(h, focus.clone(), Some(id), now);
        }
        // "Where" axis: more specific foci for the same hypothesis —
        // but only for real (metric-bearing) hypotheses.
        if self.tree.get(hyp).metric.is_some() {
            for child in collector.space().refine(&focus) {
                self.create_child(hyp, child, Some(id), now);
            }
        }
    }

    /// Evaluates a node's current fraction-of-execution-time value.
    fn evaluate(&self, id: ShgNodeId, now: SimTime, collector: &Collector) -> f64 {
        let node = self.shg.node(id);
        let Some(pid) = node.pair else { return 0.0 };
        let pair = collector.pair(pid);
        let procs = pair.compiled.procs().len();
        if procs == 0 {
            return 0.0;
        }
        let value = collector.value(pid, window_start(now, self.window), now);
        value / (self.window.as_secs_f64() * procs as f64)
    }

    fn threshold_of(&self, hyp: HypothesisId) -> f64 {
        let h = self.tree.get(hyp);
        self.directives
            .threshold_for(&h.name)
            .unwrap_or(h.default_threshold)
    }

    /// One search tick at application time `now`, as
    /// [`drive_diagnosis_faulted`] takes it each step. Kept public for
    /// the benchmark's hand-driven copy of that loop.
    pub fn tick(&mut self, now: SimTime, collector: &mut Collector) {
        step(self, collector, None, now);
    }

    /// [`Consultant::tick`] with a fault injector drawing every request's
    /// fate, and the degradation policy on (starvation timeouts).
    pub fn tick_faulted(
        &mut self,
        now: SimTime,
        collector: &mut Collector,
        inj: &mut FaultInjector,
    ) {
        step(self, collector, Some(inj), now);
    }

    /// Concludes what the collector's data settles at `now`, and returns
    /// the pair releases and settles that follow, in the order they
    /// must reach the cost model:
    ///
    /// 0. Stranded experiments can never conclude honestly. Those whose
    ///    processes are all behind open breakers conclude `Saturated`
    ///    (persistent pairs are spared: they keep measuring and recover
    ///    when the breaker re-admits); those whose processes are all
    ///    dead conclude `Unreachable`.
    /// 1. Nodes with a full window of data conclude. When `degraded`, a
    ///    window with no fresh data from any of the node's processes is
    ///    not evidence of anything: the conclusion waits, and past the
    ///    data timeout the node gives up as `Unknown` rather than a
    ///    false "false".
    /// 2. Persistent pairs keep testing for the entire run: a False
    ///    persistent node that crosses its threshold later flips to
    ///    True and is refined.
    fn conclude(&mut self, now: SimTime, collector: &Collector, degraded: bool) -> &[Decision] {
        self.decisions.clear();
        let admission = collector.admission();
        let blocked = if admission.any_breaker_open() {
            admission.blocked_procs()
        } else {
            Vec::new()
        };
        for (verdict, stranded, spare_persistent) in [
            (NodeState::Saturated, blocked.as_slice(), true),
            (NodeState::Unreachable, self.dead_procs.as_slice(), false),
        ] {
            if stranded.is_empty() {
                continue;
            }
            for i in 0..self.shg.len() {
                let id = ShgNodeId(i as u32);
                let node = self.shg.node(id);
                if (spare_persistent && node.persistent)
                    || !matches!(node.state, NodeState::Pending | NodeState::Testing)
                {
                    continue;
                }
                let compiled = collector.binder().compile(&node.focus);
                let procs = compiled.procs();
                if procs.is_empty() || !procs.iter().all(|p| stranded.contains(p)) {
                    continue;
                }
                let node = self.shg.node_mut(id);
                node.state = verdict;
                node.concluded_at = Some(now);
                self.decisions.extend(node.pair.map(Decision::Release));
                self.pending.retain(|&p| p != id);
                self.retry.remove(&id);
            }
        }

        for id in self.shg.in_state(NodeState::Testing) {
            let Some(pid) = self.shg.node(id).pair else {
                continue;
            };
            let pair = collector.pair(pid);
            if now < pair.active_from + self.window {
                continue;
            }
            if degraded {
                let procs = pair.compiled.procs();
                let last_seen = procs.iter().map(|&p| collector.last_data_at(p)).max();
                if let Some(seen) = last_seen.filter(|&t| t < window_start(now, self.window)) {
                    if now > seen.max(pair.active_from) + self.data_timeout {
                        let node = self.shg.node_mut(id);
                        node.state = NodeState::Unknown;
                        node.concluded_at = Some(now);
                        self.decisions.push(Decision::Release(pid));
                    }
                    continue;
                }
            }
            let fraction = self.evaluate(id, now, collector);
            let threshold = self.threshold_of(self.shg.node(id).hypothesis);
            let node = self.shg.node_mut(id);
            node.last_value = fraction;
            node.concluded_at = Some(now);
            // Free the pair's budget for the refinement's children;
            // persistent pairs keep monitoring for the whole run.
            // (Deviation from Paradyn, which kept true nodes
            // instrumented: releasing concluded pairs keeps the cost
            // economics workable with our cost constants, while
            // preserving the paper's key asymmetry — false conclusions
            // free budget and stop, true conclusions spawn children.)
            self.decisions.push(if node.persistent {
                Decision::Settle(pid)
            } else {
                Decision::Release(pid)
            });
            if fraction > threshold {
                node.state = NodeState::True;
                node.first_true_at = Some(now);
                self.refine(id, now, collector);
            } else {
                node.state = NodeState::False;
            }
            self.note_audit_conclusion(id, fraction, now, collector);
        }

        for id in self.shg.ids().collect::<Vec<_>>() {
            let node = self.shg.node(id);
            let Some(pid) = node.pair.filter(|_| node.persistent) else {
                continue;
            };
            if node.state == NodeState::False {
                if now < collector.pair(pid).active_from + self.window {
                    continue;
                }
                let fraction = self.evaluate(id, now, collector);
                if fraction > self.threshold_of(node.hypothesis) {
                    let node = self.shg.node_mut(id);
                    node.state = NodeState::True;
                    node.last_value = fraction;
                    node.first_true_at = Some(now);
                    self.refine(id, now, collector);
                }
            } else if node.state == NodeState::True {
                let fraction = self.evaluate(id, now, collector);
                self.shg.node_mut(id).last_value = fraction;
            }
        }
        &self.decisions
    }

    /// This tick's expansion: the pending nodes as instrumentation
    /// requests, best first, yielded as the caller walks them.
    ///
    /// Expansion halts at the critical cost threshold and resumes once
    /// deletions bring cost back below the resume threshold; while
    /// halted there is nothing to rank. High before Medium before Low,
    /// then oldest first. A node in retry backoff stays queued but is
    /// skipped until its retry time. While the collector is throttled
    /// only the first refinement probe of the tick goes out. Outcomes
    /// come back after the walk, which changes nothing it reads: each
    /// node is queued once, and its outcome touches only its own state.
    fn requests(
        &mut self,
        now: SimTime,
        collector: &Collector,
    ) -> impl Iterator<Item = Request<'_>> + '_ {
        if self.halted && collector.cost().can_resume() {
            self.halted = false;
        }
        if !self.halted {
            self.pending.sort_by_key(|&id| {
                let n = self.shg.node(id);
                (std::cmp::Reverse(n.priority), n.created_at, id)
            });
        }
        let this = &*self;
        let live = if this.halted { 0 } else { this.pending.len() };
        let throttled = collector.throttled();
        let mut refinements = 0;
        this.pending[..live]
            .iter()
            .enumerate()
            .filter_map(move |(at, &id)| {
                if this
                    .retry
                    .get(&id)
                    .is_some_and(|&(_, next_at)| next_at > now)
                {
                    return None;
                }
                // Pairs backing active SHG nodes (persistent, or seeded
                // High priority) keep the full admission pool;
                // everything else is a refinement probe, shed first
                // under pressure and cut to a trickle of one probe per
                // tick while throttled — sustained overload must slow
                // the search, not stop it, or a long flood would starve
                // every untested hypothesis into `Unknown`.
                // Audit probes also ride the reserved Backing class:
                // shedding them under the very overload history
                // mispredicted would blind the audit exactly when it
                // matters most.
                let node = this.shg.node(id);
                let class = if node.persistent
                    || node.priority == PriorityLevel::High
                    || this.prune_audits.contains_key(&id)
                    || this.low_audits.contains_key(&id)
                {
                    RequestClass::Backing
                } else {
                    RequestClass::Refinement
                };
                if throttled && class == RequestClass::Refinement {
                    refinements += 1;
                    if refinements > 1 {
                        return None;
                    }
                }
                Some(Request {
                    at,
                    metric: this.tree.get(node.hypothesis).metric?,
                    focus: &node.focus,
                    class,
                })
            })
    }

    /// Takes back what became of this tick's requests, each as its place
    /// in the pending queue and the collector's answer, and whether the
    /// walk stopped at the cost gate (expansion then halts). Then
    /// records the tick's peak cost and checks for quiescence.
    fn take_outcomes(
        &mut self,
        now: SimTime,
        collector: &Collector,
        mut outcomes: Vec<(usize, AdmitOutcome)>,
        refused: bool,
    ) {
        self.halted |= refused;
        // Last first, so each removal leaves the earlier places valid.
        for &(at, outcome) in outcomes.iter().rev() {
            let id = self.pending[at];
            let verdict = match outcome {
                AdmitOutcome::Granted(pid) => {
                    self.shg.node_mut(id).pair = Some(pid);
                    NodeState::Testing
                }
                // Every process under the focus is behind an open
                // breaker: refusing is terminal for this experiment
                // (half-open probes re-admit the processes for later
                // experiments).
                AdmitOutcome::Saturated => NodeState::Saturated,
                // Failed insertion: retry with capped exponential
                // backoff; past the attempt budget the pair concludes
                // Unknown (never false).
                AdmitOutcome::Failed | AdmitOutcome::Shed => {
                    let attempts = self.retry.get(&id).map_or(0, |&(a, _)| a) + 1;
                    if attempts < RETRY_MAX_ATTEMPTS {
                        let exp = (attempts - 1).min(16);
                        let backoff = SimDuration::from_micros(
                            RETRY_BASE
                                .as_micros()
                                .saturating_mul(1 << exp)
                                .min(RETRY_CAP.as_micros()),
                        );
                        self.retry.insert(id, (attempts, now + backoff));
                        continue;
                    }
                    NodeState::Unknown
                }
            };
            self.pending.remove(at);
            self.retry.remove(&id);
            let node = self.shg.node_mut(id);
            node.state = verdict;
            if verdict != NodeState::Testing {
                node.concluded_at = Some(now);
            }
        }
        outcomes.clear();
        self.outcomes = outcomes;

        self.peak_cost = self.peak_cost.max(collector.cost().total_cost());
        if self.quiesced_at.is_none()
            && self.pending.is_empty()
            && self.shg.count_state(NodeState::Testing) == 0
        {
            self.quiesced_at = Some(now);
        }
    }

    /// Builds the final report at application time `now`.
    pub fn report(&self, collector: &Collector, now: SimTime) -> DiagnosisReport {
        let root = self
            .shg
            .find(self.tree.root(), &collector.space().whole_program());
        let outcomes = self
            .shg
            .ids()
            .filter(|id| Some(*id) != root)
            .map(|id| {
                let n = self.shg.node(id);
                NodeOutcome {
                    hypothesis: self.tree.get(n.hypothesis).name.clone(),
                    focus: n.focus.clone(),
                    outcome: match n.state {
                        NodeState::True => Outcome::True,
                        NodeState::False => Outcome::False,
                        NodeState::Pruned => Outcome::Pruned,
                        NodeState::Pending | NodeState::Testing => Outcome::Untested,
                        NodeState::Unknown => Outcome::Unknown,
                        NodeState::Unreachable => Outcome::Unreachable,
                        NodeState::Saturated => Outcome::Saturated,
                    },
                    first_true_at: n.first_true_at,
                    concluded_at: n.concluded_at,
                    last_value: n.last_value,
                    samples: n.pair.map(|p| collector.pair(p).observations).unwrap_or(0),
                }
            })
            .collect();
        // Untripped raised-threshold watches pass: across the whole
        // run, nothing the default threshold would have caught was
        // hidden. Their evidence is the best fraction observed.
        let mut audits = self.audit_outcomes.clone();
        for (hyp, tag) in &self.threshold_audits {
            audits.push(AuditOutcome {
                directive: tag.line.clone(),
                source_run: tag.provenance.source_run.clone(),
                generation: tag.provenance.generation,
                hypothesis: self.tree.get(*hyp).name.clone(),
                focus: collector.space().whole_program(),
                passed: true,
                observed: tag.max_seen,
                at: self.quiesced_at.unwrap_or(now),
            });
        }
        DiagnosisReport {
            app_name: collector.binder().app().name.clone(),
            app_version: collector.binder().app().version.clone(),
            outcomes,
            pairs_tested: collector.pairs_requested(),
            end_time: self.quiesced_at.unwrap_or(now),
            peak_cost: self.peak_cost,
            quiescent: self.quiesced_at.is_some(),
            unreachable: self.unreachable.clone(),
            saturated: collector.saturated().to_vec(),
            admission: *collector.admission().stats(),
            shg_rendering: self.shg.render(&self.tree),
            audits,
        }
    }
}

/// One tick of the search at application time `now`, in three parts:
/// the collector's own step (admission housekeeping, saturation,
/// backpressure); the consultant's policy, which reads the collector
/// and decides; and the application of those decisions to the
/// collector. Releases and settles reach the cost model before
/// expansion reads it, in the order the policy decided them:
/// per-process costs are float sums, so the order can decide a halt.
/// The ranked walk then submits requests best first. It stops at the
/// first request the cost gate refuses, and draws each attempted
/// request's fate from the injector, if any, in rank order. The
/// outcomes go back to the consultant last.
fn step(
    consultant: &mut Consultant,
    collector: &mut Collector,
    mut faults: Option<&mut FaultInjector>,
    now: SimTime,
) {
    collector.step(now);
    for &decision in consultant.conclude(now, collector, faults.is_some()) {
        match decision {
            Decision::Release(pid) => collector.release(pid, now),
            Decision::Settle(pid) => collector.settle(pid),
        }
    }
    let mut outcomes = std::mem::take(&mut consultant.outcomes);
    let mut refused = false;
    for req in consultant.requests(now, collector) {
        if collector
            .cost()
            .would_exceed(&collector.binder().compile(req.focus))
        {
            refused = true;
            break;
        }
        let fate = faults
            .as_deref_mut()
            .map_or(RequestFault::Deliver, FaultInjector::request_outcome);
        let outcome =
            collector.request_admitted(req.metric, req.focus.clone(), now, fate, req.class);
        outcomes.push((req.at, outcome));
    }
    consultant.take_outcomes(now, collector, outcomes, refused);
}

/// A checkpoint of an interrupted diagnosis session.
///
/// Resume works by deterministic replay: the whole session re-runs from
/// t=0 on the same seed with the crash suppressed, and at the checkpoint
/// time the reconstructed search state's [`Consultant::digest`] is
/// compared against the recorded one to prove the resume is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchCheckpoint {
    /// Application time at which the tool crashed.
    pub at: SimTime,
    /// Search-state digest at that time.
    pub digest: u64,
}

impl SearchCheckpoint {
    /// Serializes to the `histpc-ckpt v1` text format.
    pub fn to_text(&self) -> String {
        format!(
            "histpc-ckpt v1\nat_us {}\ndigest {}\n",
            self.at.as_micros(),
            self.digest
        )
    }

    /// Parses the `histpc-ckpt v1` text format.
    pub fn parse(text: &str) -> Result<SearchCheckpoint, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("histpc-ckpt v1") {
            return Err("missing 'histpc-ckpt v1' header".into());
        }
        let mut at = None;
        let mut digest = None;
        for line in lines {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("at_us"), Some(v)) => {
                    at = Some(v.parse::<u64>().map_err(|e| format!("bad at_us: {e}"))?);
                }
                (Some("digest"), Some(v)) => {
                    digest = Some(v.parse::<u64>().map_err(|e| format!("bad digest: {e}"))?);
                }
                _ => return Err(format!("unrecognized checkpoint line: {line}")),
            }
        }
        match (at, digest) {
            (Some(at), Some(digest)) => Ok(SearchCheckpoint {
                at: SimTime(at),
                digest,
            }),
            _ => Err("checkpoint needs both at_us and digest lines".into()),
        }
    }
}

/// Why the drive loop stopped at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// An injected tool crash fired (`FaultPlan::tool_crash_at`).
    Crash,
    /// The watchdog stall deadline expired: no observable search
    /// progress for `SearchConfig::stall` of application time.
    Stall,
    /// An external supervisor set the cancellation hook.
    Cancelled,
}

impl fmt::Display for HaltReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaltReason::Crash => write!(f, "crash"),
            HaltReason::Stall => write!(f, "stall"),
            HaltReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The result of a diagnosis session.
#[derive(Debug, Clone)]
pub struct DegradedRun {
    /// The diagnosis report (partial if the session was interrupted).
    pub report: DiagnosisReport,
    /// Present iff the session was interrupted (crash, stall, or
    /// cancellation); feed it back as `resume_from` to finish the
    /// diagnosis.
    pub checkpoint: Option<SearchCheckpoint>,
    /// Why the session stopped at [`DegradedRun::checkpoint`]; `None`
    /// when it ran to completion.
    pub halted: Option<HaltReason>,
    /// What the injector actually did.
    pub stats: FaultStats,
    /// On a resumed run: whether the replayed search state matched the
    /// checkpoint digest at the crash time. Always true otherwise.
    pub resumed_digest_ok: bool,
}

/// Runs a full online diagnosis session — the one drive loop. Each step
/// advances the engine by `config.sample`, feeds the samples to the
/// collector, ticks the consultant, and applies the instrumentation
/// perturbation back to the application.
///
/// A non-empty `config.faults` plan puts a [`FaultInjector`] in the
/// loop: it filters samples, applies scheduled kills (reported to the
/// consultant as unreachable resources), presses on the admission layer
/// and can crash the tool. Every run honours `config.hooks.cancel` and
/// the `config.stall` watch. A crash, cancel or stall stops the run at
/// a [`SearchCheckpoint`]; passing it back as `resume_from` replays the
/// session deterministically (crash suppressed) and checks the replayed
/// state against it.
pub fn drive_diagnosis_faulted(
    engine: &mut Engine,
    config: &SearchConfig,
    resume_from: Option<&SearchCheckpoint>,
) -> DegradedRun {
    let mut injector =
        (!config.faults.is_disabled()).then(|| FaultInjector::new(config.faults.clone()));
    // Dropping, delaying and reordering act on individual samples (and
    // imply an injector); every other run takes the engine's own
    // aggregates as the batch.
    let lossy_samples = config.faults.touches_samples();
    engine.set_raw_capture(lossy_samples);
    let mut collector = Collector::new(engine.app().clone(), config.collector.clone());
    let mut consultant = Consultant::new(
        HypothesisTree::standard(),
        config.directives.clone(),
        config.window,
        &collector,
    );
    consultant.set_fault_policy(config);
    consultant.enable_audits(config.audit_budget, &collector);
    // Initial expansion at t=0: high-priority pairs are instrumented at
    // search start (paper §3.1).
    let mut now = SimTime::ZERO;
    step(&mut consultant, &mut collector, injector.as_mut(), now);
    collector.apply_perturbation(engine);

    let max = SimTime::ZERO + config.max_time;
    let mut digest_ok = true;
    // A crash scheduled at or before the resume point was already taken
    // on the interrupted run; replay suppresses it. A crash scheduled
    // *after* the resume point is still armed, so chained
    // crash/resume/crash sequences replay exactly.
    let crash_armed = config
        .faults
        .tool_crash_at
        .is_some_and(|t| resume_from.is_none_or(|c| t > c.at));
    // Watchdog stall tracking: "progress" is any change in the search
    // state digest. All in application time, so detection is
    // deterministic and replays identically on resume. A healthy search
    // can sit unchanged for a whole window while its nodes collect
    // data, so the deadline never drops below one window plus a step.
    let stall = config.stall.map(|s| s.max(config.window + config.sample));
    let mut last_digest = consultant.digest();
    let mut last_progress_at = SimTime::ZERO;
    let halted = loop {
        now += config.sample;
        if let Some(inj) = &mut injector {
            for kill in inj.due_kills(now) {
                let (victims, mut resources) = match &kill.target {
                    KillTarget::Node(name) => match engine.node_index(name) {
                        Some(idx) => (engine.kill_node(idx), vec![format!("/Machine/{name}")]),
                        None => (Vec::new(), Vec::new()),
                    },
                    KillTarget::Proc(rank) => {
                        let p = ProcId(*rank);
                        if (*rank as usize) < engine.app().process_count() {
                            engine.kill_proc(p);
                            (vec![p], Vec::new())
                        } else {
                            (Vec::new(), Vec::new())
                        }
                    }
                };
                for &p in &victims {
                    resources.push(format!("/Process/{}", engine.app().processes[p.0 as usize]));
                }
                let resources = resources
                    .iter()
                    .filter_map(|r| ResourceName::parse(r).ok())
                    .collect();
                consultant.note_dead(&victims, resources);
            }
        }
        let status = engine.run_until(now);
        let batch = match &mut injector {
            Some(inj) if lossy_samples => SampleBatch::new(
                inj.filter_intervals(engine.drain_intervals(), now),
                engine.app().process_count(),
            ),
            _ => SampleBatch::drain(engine),
        };
        if let Some(inj) = &mut injector {
            // Overload faults press on the admission layer: flood units
            // compete with the real stream for the sample budget, storm
            // requests occupy in-flight slots. Both draws happen even
            // with admission disabled (keeping RNG streams stable); the
            // collector then absorbs them as no-ops.
            let flood = inj.flood_units(batch.len());
            collector.admission_mut().note_phantom_samples(flood);
            let storm = inj.storm_requests();
            collector.admission_mut().absorb_storm(storm, now);
        }
        collector.ingest(&batch);
        step(&mut consultant, &mut collector, injector.as_mut(), now);
        collector.apply_perturbation(engine);
        config.hooks.beat(now);
        if let Some(ckpt) = resume_from {
            if now == ckpt.at {
                digest_ok = consultant.digest() == ckpt.digest;
            }
        }
        // The tool "crashes", a supervisor cancels from outside, or
        // nothing about the search has changed for a full stall
        // deadline: stop at a tick boundary with a resumable checkpoint.
        if crash_armed && injector.as_mut().is_some_and(|inj| inj.crash_due(now)) {
            break Some(HaltReason::Crash);
        }
        if config.hooks.cancelled() {
            break Some(HaltReason::Cancelled);
        }
        if let Some(deadline) = stall {
            let digest = consultant.digest();
            if digest != last_digest {
                last_digest = digest;
                last_progress_at = now;
            } else if now - last_progress_at >= deadline {
                break Some(HaltReason::Stall);
            }
        }
        if consultant.is_quiescent() && !config.run_full_program {
            break None;
        }
        // Without faults the session ends with the program. Under
        // faults, starving experiments must be given time to resolve to
        // Unknown even after the program (or what's left of it) exits.
        if status != EngineStatus::Running && (injector.is_none() || consultant.is_quiescent()) {
            break None;
        }
        if now >= max {
            break None;
        }
    };
    DegradedRun {
        report: consultant.report(&collector, now),
        checkpoint: halted.map(|_| SearchCheckpoint {
            at: now,
            digest: consultant.digest(),
        }),
        halted,
        stats: injector.map_or_else(FaultStats::default, |inj| inj.stats()),
        resumed_digest_ok: digest_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directive::{PriorityDirective, Prune, PruneTarget, ThresholdDirective};
    use histpc_resources::ResourceName;
    use histpc_sim::workloads::{SyntheticWorkload, Workload};

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).expect("test resource names are literal and valid")
    }

    /// A fast config for tests: short windows and steps.
    fn fast_config() -> SearchConfig {
        SearchConfig {
            window: SimDuration::from_millis(800),
            sample: SimDuration::from_millis(100),
            max_time: SimDuration::from_secs(120),
            ..SearchConfig::default()
        }
    }

    /// The drive loop's report for a run that is not interrupted.
    fn drive(engine: &mut Engine, config: &SearchConfig) -> DiagnosisReport {
        drive_diagnosis_faulted(engine, config, None).report
    }

    /// Two processes, f1 is a clear CPU hotspot, light ring traffic.
    fn hotspot_workload() -> SyntheticWorkload {
        SyntheticWorkload::balanced(2, 3, 0.05).with_hotspot(0, 1, 3.0)
    }

    #[test]
    fn finds_planted_cpu_bottleneck_and_refines() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let report = drive(&mut engine, &fast_config());
        assert!(report.quiescent, "search should quiesce");
        let b = report.bottleneck_set();
        // Whole-program CPUbound must be true...
        assert!(
            b.iter()
                .any(|(h, f)| h == "CPUbound" && f.is_whole_program()),
            "whole-program CPUbound missing; found {b:?}"
        );
        // ...and refined down to the hotspot function f1.
        assert!(
            b.iter().any(|(h, f)| {
                h == "CPUbound"
                    && f.selection("Code").map(|s| s.to_string())
                        == Some("/Code/app.c/f1".to_string())
            }),
            "function-level CPUbound missing; found {b:?}"
        );
        // The sync and IO hypotheses are false at the whole program and
        // must not have been refined below it.
        assert!(!b.iter().any(|(h, _)| h == "ExcessiveIOBlockingTime"));
    }

    #[test]
    fn false_nodes_are_not_refined() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let report = drive(&mut engine, &fast_config());
        // No IO bottleneck exists, so only the single whole-program IO
        // node may mention the hypothesis.
        let io_nodes: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.hypothesis == "ExcessiveIOBlockingTime")
            .collect();
        assert_eq!(io_nodes.len(), 1, "IO was refined: {io_nodes:?}");
        assert_eq!(io_nodes[0].outcome, Outcome::False);
    }

    #[test]
    fn prune_directive_excludes_subtree() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let mut directives = SearchDirectives::none();
        // Prune the hotspot function from the CPU hypothesis.
        directives.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Resource(n("/Code/app.c/f1")),
        });
        let config = fast_config().with_directives(directives);
        let report = drive(&mut engine, &config);
        let b = report.bottleneck_set();
        assert!(
            !b.iter().any(|(_, f)| f
                .selection("Code")
                .is_some_and(|s| s.to_string() == "/Code/app.c/f1")),
            "pruned function was still reported: {b:?}"
        );
        // The prune is recorded in the SHG.
        assert!(report.outcomes.iter().any(|o| o.outcome == Outcome::Pruned));
    }

    #[test]
    fn machine_hierarchy_prune_blocks_descent() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let mut directives = SearchDirectives::none();
        directives.add_prune(Prune {
            hypothesis: None,
            target: PruneTarget::Resource(n("/Machine")),
        });
        let config = fast_config().with_directives(directives);
        let report = drive(&mut engine, &config);
        for o in &report.outcomes {
            if o.outcome != Outcome::Pruned {
                let m = o
                    .focus
                    .selection("Machine")
                    .expect("every focus carries a Machine selection");
                assert!(m.is_root(), "machine refinement leaked: {}", o.focus);
            }
        }
    }

    #[test]
    fn high_priority_pairs_found_faster() {
        // Base run.
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let base = drive(&mut engine, &fast_config());
        let hotspot = base
            .bottlenecks()
            .iter()
            .find(|o| {
                o.focus
                    .selection("Code")
                    .is_some_and(|s| s.to_string() == "/Code/app.c/f1")
                    && o.focus.depth() == 2 // only the Code selection is refined
            })
            .map(|o| {
                (
                    o.hypothesis.clone(),
                    o.focus.clone(),
                    o.first_true_at
                        .expect("bottlenecks always carry a first-true timestamp"),
                )
            })
            .expect("base run finds the hotspot");

        // Directed run: the hotspot pair is high priority.
        let mut directives = SearchDirectives::none();
        directives.add_priority(PriorityDirective {
            hypothesis: hotspot.0.clone(),
            focus: hotspot.1.clone(),
            level: PriorityLevel::High,
        });
        let mut engine2 = wl.build_engine();
        let config = fast_config().with_directives(directives);
        let directed = drive(&mut engine2, &config);
        let t_directed = directed
            .outcomes
            .iter()
            .find(|o| o.hypothesis == hotspot.0 && o.focus == hotspot.1)
            .and_then(|o| o.first_true_at)
            .expect("directed run finds the hotspot");
        assert!(
            t_directed < hotspot.2,
            "high priority not faster: {} vs {}",
            t_directed,
            hotspot.2
        );
    }

    #[test]
    fn threshold_directive_changes_conclusions() {
        let wl = SyntheticWorkload::balanced(2, 2, 1.0).with_hotspot(0, 1, 0.9);
        // f1's CPU fraction on proc 0 is high, but the whole-program CPU
        // fraction per process is ~100% (compute-bound): pick a sub-
        // hypothesis effect instead — ring sync is tiny, so with a huge
        // threshold nothing but CPU is true; with a tiny threshold the
        // sync hypothesis also fires.
        let wl = wl.with_ring(64);
        let mut d_strict = SearchDirectives::none();
        d_strict.add_threshold(ThresholdDirective {
            hypothesis: "ExcessiveSyncWaitingTime".into(),
            value: 0.9,
        });
        let mut engine = wl.build_engine();
        let strict = drive(&mut engine, &fast_config().with_directives(d_strict));

        let mut d_lax = SearchDirectives::none();
        d_lax.add_threshold(ThresholdDirective {
            hypothesis: "ExcessiveSyncWaitingTime".into(),
            value: 0.001,
        });
        let mut engine = wl.build_engine();
        let lax = drive(&mut engine, &fast_config().with_directives(d_lax));

        let strict_sync = strict
            .bottleneck_set()
            .iter()
            .filter(|(h, _)| h == "ExcessiveSyncWaitingTime")
            .count();
        let lax_sync = lax
            .bottleneck_set()
            .iter()
            .filter(|(h, _)| h == "ExcessiveSyncWaitingTime")
            .count();
        assert_eq!(strict_sync, 0);
        assert!(lax_sync > 0, "lax threshold found no sync bottlenecks");
        assert!(lax.pairs_tested > strict.pairs_tested);
    }

    #[test]
    fn cost_stays_bounded() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let config = fast_config();
        let report = drive(&mut engine, &config);
        let halt = config.collector.cost.halt_threshold;
        let slack = config.collector.cost.base_pair_cost;
        assert!(
            report.peak_cost <= halt + slack,
            "peak cost {} exceeded halt {} + slack",
            report.peak_cost,
            halt
        );
        assert!(report.peak_cost > 0.0);
    }

    #[test]
    fn report_includes_shg_rendering() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let report = drive(&mut engine, &fast_config());
        assert!(report.shg_rendering.contains("TopLevelHypothesis"));
        assert!(report.shg_rendering.contains("CPUbound"));
        assert!(report.pairs_tested >= 3);
    }

    #[test]
    fn persistent_pair_flips_true_when_bottleneck_appears_late() {
        // The paper: "High priority pairs are instrumented at search
        // start and are persistent (i.e., testing continues throughout
        // the entire program run, regardless of whether a true or false
        // conclusion is reached)." A bottleneck that only exists in the
        // later phase of the run is missed by the one-shot search but
        // caught by a persistent pair.
        // f2 burns nothing until iteration 100 (~9s at ~90ms/iter), then
        // becomes a hotspot on proc 0.
        let mut wl = SyntheticWorkload::balanced(2, 3, 45.0).with_phase_change(100, 0, 2, 300.0);
        // Only f0 and f1 run in the early phase; f2 is idle until the
        // phase change.
        wl.compute = vec![vec![(0, 45.0), (1, 45.0)]; 2];
        let f2 = {
            let collector = Collector::new(wl.app_spec(), CollectorConfig::default());
            collector
                .space()
                .whole_program()
                .with_selection(n("/Code/app.c/f2"))
        };

        // Base run: (CPUbound, f2) never tests true — it is either
        // concluded false early or never reached (the parent module node
        // concludes before the phase change).
        let config = SearchConfig {
            window: SimDuration::from_millis(800),
            sample: SimDuration::from_millis(100),
            max_time: SimDuration::from_secs(30),
            run_full_program: true,
            ..SearchConfig::default()
        };
        let mut engine = wl.build_engine();
        let base = drive(&mut engine, &config);
        let base_f2 = base
            .outcomes
            .iter()
            .find(|o| o.hypothesis == "CPUbound" && o.focus == f2);
        assert!(
            base_f2.is_none_or(|o| o.outcome != Outcome::True),
            "base run unexpectedly caught the late hotspot: {base_f2:?}"
        );

        // Directed run with a persistent high-priority pair on f2: the
        // pair concludes false early, keeps testing, and flips true once
        // the phase change hits.
        let mut directives = SearchDirectives::none();
        directives.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: f2.clone(),
            level: PriorityLevel::High,
        });
        let mut engine = wl.build_engine();
        let directed = drive(&mut engine, &config.with_directives(directives));
        let o = directed
            .outcomes
            .iter()
            .find(|o| o.hypothesis == "CPUbound" && o.focus == f2)
            .expect("persistent pair recorded");
        assert_eq!(o.outcome, Outcome::True, "persistent pair did not flip");
        let t = o.first_true_at.expect("flip timestamp recorded");
        assert!(
            t > SimTime::from_secs(9),
            "flip happened before the phase change: {t}"
        );
    }

    #[test]
    fn contradictory_prune_and_priority_prune_wins() {
        let wl = hotspot_workload();
        let f = {
            // Build a focus naming the hotspot function.
            let collector = Collector::new(wl.app_spec(), CollectorConfig::default());
            collector
                .space()
                .whole_program()
                .with_selection(n("/Code/app.c/f1"))
        };
        let mut directives = SearchDirectives::none();
        directives.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Pair(f.clone()),
        });
        directives.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: f.clone(),
            level: PriorityLevel::High,
        });
        let mut engine = wl.build_engine();
        let report = drive(&mut engine, &fast_config().with_directives(directives));
        let o = report
            .outcomes
            .iter()
            .find(|o| o.focus == f && o.hypothesis == "CPUbound")
            .expect("node recorded");
        assert_eq!(o.outcome, Outcome::Pruned);
    }

    #[test]
    fn stall_deadline_cancels_a_dead_drive_loop() {
        // Every sample dropped and a data timeout past the horizon: no
        // experiment ever concludes, the digest never changes, and
        // without the watchdog the loop would spin until max_time.
        let wl = hotspot_workload();
        let mut config = fast_config();
        config.faults.drop_rate = 1.0;
        config.data_timeout = SimDuration::from_secs(600);
        config.max_time = SimDuration::from_secs(300);
        config.stall = Some(SimDuration::from_secs(2));
        let mut engine = wl.build_engine();
        let run = drive_diagnosis_faulted(&mut engine, &config, None);
        assert_eq!(run.halted, Some(HaltReason::Stall));
        let ckpt = run.checkpoint.expect("stall leaves a checkpoint");
        assert!(
            ckpt.at < SimTime::ZERO + SimDuration::from_secs(10),
            "stall detected far too late: {}",
            ckpt.at
        );
    }

    #[test]
    fn cancel_hook_stops_at_a_checkpoint() {
        let wl = hotspot_workload();
        let mut config = fast_config();
        config.faults.drop_rate = 0.01; // with an injector in the loop
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        config.hooks.cancel = Some(cancel);
        let mut engine = wl.build_engine();
        let run = drive_diagnosis_faulted(&mut engine, &config, None);
        assert_eq!(run.halted, Some(HaltReason::Cancelled));
        let ckpt = run.checkpoint.expect("cancellation leaves a checkpoint");
        assert_eq!(
            ckpt.at,
            SimTime::ZERO + config.sample,
            "first tick boundary"
        );
    }

    #[test]
    fn zero_fault_run_honours_cancel_and_resumes_exactly() {
        // No fault plan: the same loop must still stop on cancel, and a
        // resume from that checkpoint must end where an uninterrupted
        // run ends.
        let wl = hotspot_workload();
        let mut config = fast_config();
        let reference = drive_diagnosis_faulted(&mut wl.build_engine(), &config, None);
        assert_eq!(reference.halted, None);

        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        config.hooks.cancel = Some(cancel);
        let run = drive_diagnosis_faulted(&mut wl.build_engine(), &config, None);
        assert_eq!(run.halted, Some(HaltReason::Cancelled));
        let ckpt = run.checkpoint.expect("cancellation leaves a checkpoint");
        assert_eq!(
            ckpt.at,
            SimTime::ZERO + config.sample,
            "first tick boundary"
        );

        config.hooks.cancel = None;
        let resumed = drive_diagnosis_faulted(&mut wl.build_engine(), &config, Some(&ckpt));
        assert_eq!(resumed.halted, None);
        assert!(
            resumed.resumed_digest_ok,
            "replay diverged from the checkpoint"
        );
        let (want, got) = (&reference.report, &resumed.report);
        assert_eq!(got.outcomes, want.outcomes);
        assert_eq!(got.end_time, want.end_time);
        assert_eq!(got.pairs_tested, want.pairs_tested);
        assert_eq!(got.shg_rendering, want.shg_rendering);
    }

    #[test]
    fn stall_deadline_below_one_window_spares_a_progressing_search() {
        // A node waits out its whole window with the digest unchanged,
        // so a deadline shorter than that must not halt a search that
        // is still concluding nodes.
        let wl = hotspot_workload();
        let mut config = fast_config();
        config.faults.seed = 3;
        config.faults.drop_rate = 0.05;
        config.stall = Some(SimDuration::from_millis(200));
        assert!(config.stall < Some(config.window));
        let run = drive_diagnosis_faulted(&mut wl.build_engine(), &config, None);
        assert_eq!(run.halted, None, "stalled at {:?}", run.checkpoint);
        assert!(run.report.quiescent);
    }

    #[test]
    fn top_level_only_restricts_instrumentation_to_whole_program() {
        let wl = hotspot_workload();
        let mut config = fast_config();
        config.top_level_only = true;
        let mut engine = wl.build_engine();
        let report = drive(&mut engine, &config);
        assert!(report.quiescent);
        assert!(
            report.outcomes.iter().all(|o| o.focus.is_whole_program()),
            "refined focus escaped top-level-only mode"
        );
        assert!(!report.outcomes.is_empty());
    }

    #[test]
    fn a_later_crash_after_resume_fires_and_replays() {
        // crash -> resume with a later crash -> crash again -> resume:
        // the chained replay must end bit-identical to a run that never
        // crashed (same faulted loop, crash armed past the horizon).
        let wl = hotspot_workload();
        let mut config = fast_config();
        config.faults.seed = 3;
        config.faults.tool_crash_at = Some(SimTime::from_micros(u64::MAX / 2));
        let mut engine = wl.build_engine();
        let reference = drive_diagnosis_faulted(&mut engine, &config, None);
        assert!(reference.checkpoint.is_none());

        config.faults.tool_crash_at = Some(SimTime::from_micros(1_000_000));
        let mut engine = wl.build_engine();
        let first = drive_diagnosis_faulted(&mut engine, &config, None);
        assert_eq!(first.halted, Some(HaltReason::Crash));
        let ckpt1 = first.checkpoint.expect("first crash checkpoints");

        config.faults.tool_crash_at = Some(SimTime::from_micros(2_000_000));
        let mut engine = wl.build_engine();
        let second = drive_diagnosis_faulted(&mut engine, &config, Some(&ckpt1));
        assert_eq!(second.halted, Some(HaltReason::Crash));
        assert!(second.resumed_digest_ok, "replay diverged before 2nd crash");
        let ckpt2 = second.checkpoint.expect("second crash checkpoints");
        assert!(ckpt2.at > ckpt1.at);

        config.faults.tool_crash_at = Some(SimTime::from_micros(u64::MAX / 2));
        let mut engine = wl.build_engine();
        let done = drive_diagnosis_faulted(&mut engine, &config, Some(&ckpt2));
        assert!(done.checkpoint.is_none());
        assert!(done.resumed_digest_ok);
        assert_eq!(
            done.report.shg_rendering, reference.report.shg_rendering,
            "chained crash/resume diverged from the uncrashed run"
        );
    }

    #[test]
    fn audited_poison_prune_is_revoked_and_bottleneck_recovered() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let base = drive(&mut engine, &fast_config());
        let truth = base.bottleneck_set();
        assert!(!truth.is_empty());

        // Poison: prune every true pair, with provenance naming the liar.
        let mut directives = SearchDirectives::none();
        for (h, f) in &truth {
            directives.add_prune(Prune {
                hypothesis: Some(h.clone()),
                target: PruneTarget::Pair(f.clone()),
            });
        }
        directives.stamp_provenance("app/evil", 7);

        let mut config = fast_config().with_directives(directives);
        config.audit_budget = 64;
        let mut engine = wl.build_engine();
        let audited = drive(&mut engine, &config);
        let found = audited.bottleneck_set();
        for t in &truth {
            assert!(found.contains(t), "poisoned prune still hid {t:?}");
        }
        let revs = audited.revocations();
        assert!(!revs.is_empty(), "no revocations despite lying prunes");
        for r in revs {
            assert_eq!(r.source_run, "app/evil");
            assert_eq!(r.generation, 7);
            assert!(r.directive.starts_with("prune "));
        }
    }

    #[test]
    fn audited_raised_threshold_is_revoked_and_conclusions_flip() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let base = drive(&mut engine, &fast_config());
        let cpu_truth: Vec<_> = base
            .bottleneck_set()
            .into_iter()
            .filter(|(h, _)| h == "CPUbound")
            .collect();
        assert!(!cpu_truth.is_empty());

        // Poison: a near-1.0 CPUbound threshold hides every CPU
        // conclusion; the raised-threshold watch must catch the first
        // well-observed False that clears the default and revoke it.
        let mut directives = SearchDirectives::none();
        directives.add_threshold(ThresholdDirective {
            hypothesis: "CPUbound".into(),
            value: 0.99,
        });
        directives.stamp_provenance("app/evil", 3);
        let mut config = fast_config().with_directives(directives);
        config.audit_budget = 4;
        let mut engine = wl.build_engine();
        let audited = drive(&mut engine, &config);
        let found = audited.bottleneck_set();
        for t in &cpu_truth {
            assert!(found.contains(t), "raised threshold still hid {t:?}");
        }
        let revs = audited.revocations();
        assert_eq!(revs.len(), 1, "expected exactly the threshold revocation");
        assert_eq!(revs[0].source_run, "app/evil");
        assert_eq!(revs[0].directive, "threshold CPUbound 0.99");
        assert!(revs[0].observed > 0.2, "revocation carries the evidence");
    }

    #[test]
    fn honest_prune_audit_passes_and_keeps_the_directive() {
        let wl = hotspot_workload();
        let mut engine = wl.build_engine();
        let base = drive(&mut engine, &fast_config());
        let io_focus = base
            .outcomes
            .iter()
            .find(|o| o.hypothesis == "ExcessiveIOBlockingTime")
            .expect("base run tests the IO hypothesis")
            .focus
            .clone();

        // An honest prune: there is no IO bottleneck, so the probe
        // vindicates the directive and nothing is revoked.
        let mut directives = SearchDirectives::none();
        directives.add_prune(Prune {
            hypothesis: Some("ExcessiveIOBlockingTime".into()),
            target: PruneTarget::Pair(io_focus),
        });
        directives.stamp_provenance("app/honest", 2);
        let mut config = fast_config().with_directives(directives);
        config.audit_budget = 2;
        let mut engine = wl.build_engine();
        let r = drive(&mut engine, &config);
        assert!(r.revocations().is_empty());
        assert_eq!(r.audits.len(), 1);
        assert!(r.audits[0].passed);
        assert_eq!(r.audits[0].source_run, "app/honest");
        assert_eq!(r.audits[0].generation, 2);
    }

    #[test]
    fn budget_zero_is_bit_identical_to_unstamped_run() {
        let wl = hotspot_workload();
        let mut directives = SearchDirectives::none();
        directives.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Resource(n("/Code/app.c/f1")),
        });
        let mut engine = wl.build_engine();
        let plain = drive(
            &mut engine,
            &fast_config().with_directives(directives.clone()),
        );

        // Same directives, provenance-stamped, audits armed at budget 0:
        // the report must be indistinguishable from the unstamped run.
        let mut stamped = directives.clone();
        stamped.stamp_provenance("app/run1", 5);
        let mut config = fast_config().with_directives(stamped);
        config.audit_budget = 0;
        let mut engine = wl.build_engine();
        let audited = drive(&mut engine, &config);
        assert_eq!(plain.outcomes, audited.outcomes);
        assert_eq!(plain.end_time, audited.end_time);
        assert_eq!(plain.pairs_tested, audited.pairs_tested);
        assert_eq!(plain.shg_rendering, audited.shg_rendering);
        assert!(audited.audits.is_empty());
    }

    /// The engine-free tests' sampling step.
    const STEP: SimDuration = SimDuration::from_millis(100);

    /// A consultant over a bare collector for `wl`'s application, ticked
    /// once at t = 0: no engine is built, and every sample is made by
    /// hand.
    fn engine_free(
        wl: &SyntheticWorkload,
        config: CollectorConfig,
        directives: SearchDirectives,
    ) -> (Consultant, Collector) {
        let mut collector = Collector::new(wl.app_spec(), config);
        let tree = HypothesisTree::standard();
        let mut c = Consultant::new(tree, directives, fast_config().window, &collector);
        step(&mut c, &mut collector, None, SimTime::ZERO);
        (c, collector)
    }

    /// Advances `now` by one [`STEP`] in which every process in `procs`
    /// computes in function f1 throughout, and steps the search.
    fn cpu_step(c: &mut Consultant, collector: &mut Collector, now: &mut SimTime, procs: &[u16]) {
        let start = *now;
        *now += STEP;
        let intervals = procs
            .iter()
            .map(|&p| histpc_sim::Interval {
                proc: ProcId(p),
                func: histpc_sim::FuncId(1),
                kind: histpc_sim::ActivityKind::Cpu,
                tag: None,
                start,
                end: *now,
                bytes: 0,
            })
            .collect();
        collector.ingest(&SampleBatch::new(intervals, 2));
        step(c, collector, None, *now);
    }

    /// The whole-program node of hypothesis `name`.
    fn base_node(c: &Consultant, collector: &Collector, name: &str) -> ShgNodeId {
        let hyp = c.tree.by_name(name).expect("standard hypothesis");
        c.shg
            .find(hyp, &collector.space().whole_program())
            .expect("base nodes exist from the start")
    }

    #[test]
    fn engine_free_hotspot_concludes_true_after_one_window_and_refines() {
        let wl = hotspot_workload();
        let (mut c, mut collector) =
            engine_free(&wl, CollectorConfig::default(), SearchDirectives::none());
        let cpu = base_node(&c, &collector, "CPUbound");
        // Active from the 80 ms insertion delay, so the first step with
        // a full 800 ms window behind it is the one at 900 ms.
        let mut now = SimTime::ZERO;
        while now < SimTime::from_millis(900) {
            assert_eq!(c.shg.node(cpu).state, NodeState::Testing, "at {now}");
            cpu_step(&mut c, &mut collector, &mut now, &[0, 1]);
        }
        let node = c.shg.node(cpu);
        assert_eq!(node.state, NodeState::True);
        assert_eq!(node.concluded_at, Some(now));
        assert!(
            node.last_value > 0.8,
            "f1 burns both CPUs: {}",
            node.last_value
        );
        let refined = |hierarchy: &str| {
            node.children.iter().any(|&k| {
                let f = &c.shg.node(k).focus;
                f.selection(hierarchy).is_some_and(|s| !s.is_root())
            })
        };
        assert!(refined("Code") && refined("Process"), "not refined");
        let sync = base_node(&c, &collector, "ExcessiveSyncWaitingTime");
        assert_eq!(c.shg.node(sync).state, NodeState::False);
    }

    #[test]
    fn engine_free_conclusions_release_or_settle_each_pair_once() {
        // A High-priority directive makes the base CPUbound node persistent.
        let wl = hotspot_workload();
        let mut directives = SearchDirectives::none();
        directives.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: Collector::new(wl.app_spec(), CollectorConfig::default())
                .space()
                .whole_program(),
            level: PriorityLevel::High,
        });
        let (mut c, mut collector) = engine_free(&wl, CollectorConfig::default(), directives);
        let cpu = base_node(&c, &collector, "CPUbound");
        assert!(c.shg.node(cpu).persistent);
        let mut now = SimTime::ZERO;
        while c.shg.node(cpu).concluded_at.is_none() {
            assert!(c.decisions.is_empty(), "nothing concluded by {now}");
            cpu_step(&mut c, &mut collector, &mut now, &[0, 1]);
        }
        let concluded: Vec<ShgNodeId> = c
            .shg
            .ids()
            .filter(|&id| c.shg.node(id).concluded_at == Some(now) && id != cpu)
            .collect();
        assert!(
            !concluded.is_empty(),
            "a base node beside CPUbound concluded"
        );
        let pair = |id| c.shg.node(id).pair.expect("a concluded node had a pair");
        let mut want: Vec<Decision> = concluded
            .iter()
            .map(|&id| Decision::Release(pair(id)))
            .collect();
        want.insert(0, Decision::Settle(pair(cpu)));
        assert_eq!(c.decisions, want);
        // ... and the step applied them.
        assert!(collector.pair(pair(cpu)).is_live());
        assert!(concluded
            .iter()
            .all(|&id| !collector.pair(pair(id)).is_live()));
    }

    #[test]
    fn engine_free_dead_processes_strand_their_experiments() {
        let wl = hotspot_workload();
        let (mut c, mut collector) =
            engine_free(&wl, CollectorConfig::default(), SearchDirectives::none());
        let mut now = SimTime::ZERO;
        // Conclude and refine the whole program, then instrument the
        // refinements.
        while now < SimTime::from_millis(1000) {
            cpu_step(&mut c, &mut collector, &mut now, &[0, 1]);
        }
        c.note_dead(&[ProcId(0)], vec![n("/Process/synth:1")]);
        cpu_step(&mut c, &mut collector, &mut now, &[1]);
        let unreachable = c.shg.in_state(NodeState::Unreachable);
        let on_proc_0 = |id: ShgNodeId| {
            let procs = collector
                .binder()
                .compile(&c.shg.node(id).focus)
                .procs()
                .to_vec();
            procs == [ProcId(0)]
        };
        assert!(!unreachable.is_empty());
        assert!(unreachable.iter().all(|&id| on_proc_0(id)));
        let open = |id: ShgNodeId| {
            matches!(
                c.shg.node(id).state,
                NodeState::Pending | NodeState::Testing
            )
        };
        assert!(!c.shg.ids().any(|id| open(id) && on_proc_0(id)));
        // One release per stranded pair, first in the tick's decisions.
        let released: Vec<Decision> = unreachable
            .iter()
            .filter_map(|&id| c.shg.node(id).pair)
            .map(Decision::Release)
            .collect();
        assert!(!released.is_empty(), "no stranded experiment was testing");
        assert_eq!(c.decisions[..released.len()], released[..]);
        for d in &released {
            assert_eq!(c.decisions.iter().filter(|&e| e == d).count(), 1);
        }
    }

    #[test]
    fn engine_free_closed_cost_gate_requests_nothing() {
        let mut config = CollectorConfig::default();
        config.cost.halt_threshold = 0.0;
        config.cost.resume_threshold = 0.0;
        let (mut c, collector) = engine_free(&hotspot_workload(), config, SearchDirectives::none());
        assert_eq!(collector.pairs_requested(), 0);
        assert!(c.halted && !c.pending.is_empty());
        // Halted, the expansion ranks nothing at all.
        assert_eq!(c.requests(SimTime::ZERO, &collector).count(), 0);
    }
}
