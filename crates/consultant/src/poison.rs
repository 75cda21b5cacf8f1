//! Adversarial directive poisoning: the attack half of the trust loop.
//!
//! The shadow-audit machinery ([`crate::search`]) and the trust ledger
//! (`histpc-history::trust`) exist to catch historical guidance that
//! lies. This module *makes* guidance lie, deterministically, so the
//! poison soak tests (`histpc-bench`) and the fault-injection suite can
//! prove the defenses work: given a harvested directive set and the
//! run's known true bottlenecks, it applies a set of [`PoisonRates`]
//! and stamps every injected or mangled directive with a recognizable
//! poisoned [`Provenance`] — which is exactly what lets the acceptance
//! gate check that every revocation in the final report names the
//! poisoned source run.
//!
//! All draws come from dedicated substreams of the rates' seed, so a
//! given (rates, truth) pair poisons identically on every run.

use crate::directive::{Provenance, Prune, PruneTarget, SearchDirectives, ThresholdDirective};
use histpc_resources::{Focus, ResourceName};
use histpc_sim::Rng;

/// Selection every stale-mapped directive is re-pointed at: a module
/// that exists in no workload, modelling a resource mapping carried
/// across a code version that renamed everything.
pub const STALE_SELECTION: &str = "/Code/__stale__.f";

/// How hard [`poison_directives`] lies: each rate is a probability in
/// `[0,1]`, and 0 disables its kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoisonRates {
    /// Seed for all poison draws.
    pub seed: u64,
    /// Chance that a true-bottleneck pair gains an adversarial prune.
    pub prune: f64,
    /// Chance that a bottlenecked hypothesis gains a 0.95 threshold.
    pub threshold: f64,
    /// Chance that a harvested directive is re-pointed at
    /// [`STALE_SELECTION`].
    pub stale_mapping: f64,
}

/// What [`poison_directives`] did, for soak-harness logging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoisonSummary {
    /// Adversarial pair prunes injected (each hides a true bottleneck).
    pub prunes_injected: usize,
    /// Adversarial near-1.0 thresholds injected.
    pub thresholds_raised: usize,
    /// Harvested directives re-pointed at a nonexistent resource.
    pub mappings_staled: usize,
}

impl PoisonSummary {
    /// Total adversarial edits.
    pub fn total(&self) -> usize {
        self.prunes_injected + self.thresholds_raised + self.mappings_staled
    }
}

/// Applies poison rates to a harvested directive set.
///
/// * `prune` — for each (hypothesis, focus) in `truth`, inject
///   an exact-pair prune with that probability: the most damaging lie
///   history can tell, silently hiding a true bottleneck.
/// * `threshold` — for each distinct hypothesis in `truth`,
///   raise its threshold to 0.95 with that probability, so genuine
///   bottlenecks test false.
/// * `stale_mapping` — re-point each harvested directive's resource or
///   focus at [`STALE_SELECTION`] with that probability: a mapping
///   applied across a renamed code base. Stale prunes stop protecting
///   anything; stale priorities aim instrumentation at nothing.
///
/// Every injected or mangled directive carries
/// `Provenance::new(source_run, generation)`, so audits downstream can
/// hold the poisoned run accountable. The input set's own provenance
/// is preserved for untouched directives.
pub fn poison_directives(
    directives: &SearchDirectives,
    rates: &PoisonRates,
    truth: &[(String, Focus)],
    source_run: &str,
    generation: u64,
) -> (SearchDirectives, PoisonSummary) {
    let mut summary = PoisonSummary::default();
    let poisoned = Provenance::new(source_run, generation);
    let stale = ResourceName::parse(STALE_SELECTION).expect("stale selection parses");
    let root = Rng::new(rates.seed);
    let mut stale_rng = root.substream(11);
    let mut prune_rng = root.substream(12);
    let mut threshold_rng = root.substream(13);

    // Stage 1: stale-mapping rewrites over the harvested set.
    let mut out = SearchDirectives::none();
    for p in &directives.prunes {
        if rates.stale_mapping > 0.0 && stale_rng.next_f64() < rates.stale_mapping {
            let target = match &p.target {
                PruneTarget::Resource(_) => PruneTarget::Resource(stale.clone()),
                PruneTarget::Pair(f) => PruneTarget::Pair(f.with_selection(stale.clone())),
            };
            let mangled = Prune {
                hypothesis: p.hypothesis.clone(),
                target,
            };
            let line = mangled.line();
            out.add_prune(mangled);
            out.set_provenance(line, poisoned.clone());
            summary.mappings_staled += 1;
        } else {
            out.add_prune(p.clone());
        }
    }
    for p in &directives.priorities {
        if rates.stale_mapping > 0.0 && stale_rng.next_f64() < rates.stale_mapping {
            let mut mangled = p.clone();
            mangled.focus = p.focus.with_selection(stale.clone());
            let line = mangled.line();
            out.add_priority(mangled);
            out.set_provenance(line, poisoned.clone());
            summary.mappings_staled += 1;
        } else {
            out.add_priority(p.clone());
        }
    }
    for t in &directives.thresholds {
        out.add_threshold(t.clone());
    }
    out.adopt_provenance(directives);

    // Stage 2: adversarial pair prunes over the true bottlenecks.
    if rates.prune > 0.0 {
        for (hyp, focus) in truth {
            if prune_rng.next_f64() >= rates.prune {
                continue;
            }
            let prune = Prune {
                hypothesis: Some(hyp.clone()),
                target: PruneTarget::Pair(focus.clone()),
            };
            if out.prunes.contains(&prune) {
                continue;
            }
            let line = prune.line();
            out.add_prune(prune);
            out.set_provenance(line, poisoned.clone());
            summary.prunes_injected += 1;
        }
    }

    // Stage 3: adversarial thresholds per bottlenecked hypothesis.
    if rates.threshold > 0.0 {
        let mut seen = Vec::new();
        for (hyp, _) in truth {
            if seen.contains(hyp) {
                continue;
            }
            seen.push(hyp.clone());
            if threshold_rng.next_f64() >= rates.threshold {
                continue;
            }
            let t = ThresholdDirective {
                hypothesis: hyp.clone(),
                value: 0.95,
            };
            let line = t.line();
            out.add_threshold(t);
            out.set_provenance(line, poisoned.clone());
            summary.thresholds_raised += 1;
        }
    }

    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directive::PriorityLevel;
    use crate::PriorityDirective;

    fn wp() -> Focus {
        Focus::whole_program(["Code", "Machine", "Process", "SyncObject"])
    }

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    fn truth() -> Vec<(String, Focus)> {
        vec![
            ("CPUbound".into(), wp().with_selection(n("/Code/diff.f"))),
            (
                "ExcessiveSyncWaitingTime".into(),
                wp().with_selection(n("/Code/exchng1.f")),
            ),
        ]
    }

    #[test]
    fn zero_rates_are_an_identity() {
        let mut d = SearchDirectives::none();
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: wp(),
            level: PriorityLevel::High,
        });
        d.stamp_provenance("app/clean", 2);
        let (out, summary) =
            poison_directives(&d, &PoisonRates::default(), &truth(), "app/evil", 9);
        assert_eq!(summary.total(), 0);
        assert_eq!(out.to_text(), d.to_text());
        assert_eq!(out.to_annotated_text(), d.to_annotated_text());
    }

    #[test]
    fn full_rate_prunes_every_true_bottleneck_with_poisoned_provenance() {
        let rates = PoisonRates {
            prune: 1.0,
            ..PoisonRates::default()
        };
        let (out, summary) =
            poison_directives(&SearchDirectives::none(), &rates, &truth(), "app/evil", 9);
        assert_eq!(summary.prunes_injected, 2);
        for (hyp, focus) in truth() {
            assert!(out.is_pruned(&hyp, &focus));
            let p = out.prune_matching(&hyp, &focus).unwrap();
            assert_eq!(
                out.provenance_of(&p.line()),
                Some(&Provenance::new("app/evil", 9))
            );
        }
    }

    #[test]
    fn thresholds_raised_once_per_hypothesis() {
        let rates = PoisonRates {
            threshold: 1.0,
            ..PoisonRates::default()
        };
        let many_truth = vec![truth()[0].clone(), truth()[0].clone(), truth()[1].clone()];
        let (out, summary) = poison_directives(
            &SearchDirectives::none(),
            &rates,
            &many_truth,
            "app/evil",
            1,
        );
        assert_eq!(summary.thresholds_raised, 2);
        assert_eq!(out.threshold_for("CPUbound"), Some(0.95));
        assert_eq!(out.threshold_for("ExcessiveSyncWaitingTime"), Some(0.95));
    }

    #[test]
    fn stale_mapping_points_directives_nowhere_and_is_deterministic() {
        let mut d = SearchDirectives::none();
        d.add_prune(Prune {
            hypothesis: Some("CPUbound".into()),
            target: PruneTarget::Resource(n("/Code/diff.f")),
        });
        d.add_priority(PriorityDirective {
            hypothesis: "CPUbound".into(),
            focus: wp().with_selection(n("/Code/diff.f")),
            level: PriorityLevel::High,
        });
        let rates = PoisonRates {
            seed: 5,
            stale_mapping: 1.0,
            ..PoisonRates::default()
        };
        let (a, summary) = poison_directives(&d, &rates, &[], "app/evil", 3);
        assert_eq!(summary.mappings_staled, 2);
        // The original pruned subtree is no longer protected...
        assert!(!a.is_pruned("CPUbound", &wp().with_selection(n("/Code/diff.f/diff"))));
        // ...and the mangled directives point at the stale module.
        assert!(a.is_pruned("CPUbound", &wp().with_selection(n(STALE_SELECTION))));
        let (b, _) = poison_directives(&d, &rates, &[], "app/evil", 3);
        assert_eq!(a.to_annotated_text(), b.to_annotated_text());
    }
}
