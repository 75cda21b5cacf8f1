//! Property test of the supervisor's retry and degradation policy over
//! random scripted sessions.
//!
//! A scripted driver plays back a random sequence of attempt results —
//! finish, finish with a diverged digest, halt (crash / stall /
//! cancelled), panic, store contention, outright failure — under a
//! random retry budget and a prognosis that may or may not succeed.
//! Whatever the script, the supervisor must:
//!
//! * end the session classified, consistently with what it attempted;
//! * never resume more often than the retry budget allows;
//! * attempt modes that form an ordered prefix of the ladder;
//! * start every ladder rung fresh, never from a checkpoint;
//! * never spend the retry budget on store contention: the same script
//!   with its contention steps removed ends the same way.

use std::sync::Mutex;
use std::time::Duration;

use histpc::consultant::{DriveHooks as Hooks, HaltReason as Halt};
use histpc::prelude::*;
use histpc::supervise::{Attempt, Outcome as SupOutcome, SessionDriver};
use proptest::prelude::*;

/// The attempt modes of the degradation ladder, in escalation order.
use histpc::supervise::Rung as Ladder;
const LADDER: [Ladder; 3] = [
    Ladder::Normal,
    Ladder::TightenAdmission,
    Ladder::TopLevelOnly,
];

fn ckpt(at_us: u64) -> SearchCheckpoint {
    SearchCheckpoint {
        at: SimTime::from_micros(at_us),
        digest: at_us,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Done,
    DoneDigestBad,
    Halt(Halt),
    Panic,
    Contend,
    Fail,
}

/// Failures are drawn more often than finishes so scripts reach the
/// ladder's lower rungs.
fn step(code: u8) -> Step {
    match code {
        0 => Step::Done,
        1 => Step::DoneDigestBad,
        2 | 3 => Step::Halt(Halt::Crash),
        4 | 5 => Step::Halt(Halt::Stall),
        6 => Step::Halt(Halt::Cancelled),
        7 | 8 => Step::Panic,
        9 | 10 => Step::Contend,
        _ => Step::Fail,
    }
}

/// Plays `steps` back one per attempt, then finishes.
struct Scripted {
    steps: Mutex<Vec<Step>>,
    prognosis_ok: bool,
    /// `(mode, resumed from a checkpoint)` per attempt.
    seen: Mutex<Vec<(Ladder, bool)>>,
}

impl Scripted {
    fn new(script: &[Step], prognosis_ok: bool) -> Scripted {
        Scripted {
            steps: Mutex::new(script.iter().rev().copied().collect()),
            prognosis_ok,
            seen: Mutex::new(Vec::new()),
        }
    }

    fn next(&self) -> Step {
        self.steps.lock().unwrap().pop().unwrap_or(Step::Done)
    }
}

impl SessionDriver for Scripted {
    fn label(&self) -> &str {
        "scripted"
    }

    fn attempt(
        &self,
        mode: Ladder,
        resume_from: Option<&SearchCheckpoint>,
        _hooks: &Hooks,
    ) -> Attempt {
        self.seen
            .lock()
            .unwrap()
            .push((mode, resume_from.is_some()));
        match self.next() {
            Step::Done => Attempt::Done { digest_ok: true },
            Step::DoneDigestBad => Attempt::Done { digest_ok: false },
            Step::Halt(reason) => Attempt::Halted {
                checkpoint: Some(ckpt(1)),
                reason,
            },
            Step::Panic => panic!("scripted session panic"),
            Step::Contend => Attempt::Contended,
            Step::Fail => Attempt::Failed {
                error: "scripted failure".into(),
            },
        }
    }

    fn load_checkpoint(&self) -> Result<Option<SearchCheckpoint>, String> {
        Ok(Some(ckpt(2)))
    }

    fn prognose(&self) -> Result<String, String> {
        if self.prognosis_ok {
            Ok("prognosis".into())
        } else {
            Err("no history".into())
        }
    }
}

/// Supervises one scripted session; returns its outcome, resume count
/// and per-attempt `(ladder rank, resumed)` trail.
fn supervise(
    script: &[Step],
    retry_budget: u32,
    prognosis_ok: bool,
) -> (SupOutcome, u32, u32, Vec<(usize, bool)>) {
    let driver = Scripted::new(script, prognosis_ok);
    let report = Supervisor::new(SupervisorConfig {
        retry_budget,
        stall: None,
        backoff_base: Duration::from_micros(10),
        backoff_cap: Duration::from_micros(50),
    })
    .run(&[&driver as &dyn SessionDriver]);
    assert_eq!(report.sessions.len(), 1, "one session, one classification");
    let session = report.sessions.into_iter().next().unwrap();
    let trail = driver
        .seen
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|(mode, resumed)| (LADDER.iter().position(|m| *m == mode).unwrap(), resumed))
        .collect();
    (session.outcome, session.resumes, session.attempts, trail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn supervision_policy_holds_for_any_script(
        codes in proptest::collection::vec(0u8..12, 0..14),
        retry_budget in 0u32..4,
        prognosis in 0u8..2,
    ) {
        let script: Vec<Step> = codes.into_iter().map(step).collect();
        let prognosis_ok = prognosis == 1;
        let (outcome, resumes, attempts, trail) = supervise(&script, retry_budget, prognosis_ok);

        // Every attempt the supervisor counted reached the driver.
        prop_assert_eq!(attempts as usize, trail.len(), "script {:?}", script);
        prop_assert!(resumes <= retry_budget, "{} resumes over budget {}", resumes, retry_budget);

        // The modes attempted form an ordered prefix of the ladder.
        prop_assert_eq!(trail.first().map(|t| t.0), Some(0), "script {:?}", script);
        for pair in trail.windows(2) {
            prop_assert!(
                pair[1].0 == pair[0].0 || pair[1].0 == pair[0].0 + 1,
                "ladder skipped or went back: {:?} (script {:?})", trail, script
            );
        }
        // A rung attempt never resumes from a checkpoint.
        prop_assert!(
            trail.iter().all(|&(rank, resumed)| rank == 0 || !resumed),
            "a rung resumed: {:?} (script {:?})", trail, script
        );
        // Only resumes carry a checkpoint in the normal mode.
        let resumed_attempts = trail.iter().filter(|t| t.1).count() as u32;
        prop_assert!(resumed_attempts >= resumes, "{:?} (script {:?})", trail, script);

        // The classification agrees with what was attempted.
        let last_rank = trail.last().map_or(0, |t| t.0);
        match &outcome {
            SupOutcome::Completed => {
                prop_assert_eq!(resumes, 0);
                prop_assert_eq!(last_rank, 0);
            }
            SupOutcome::Recovered { retries } => {
                prop_assert_eq!(*retries, resumes);
                prop_assert!(resumes >= 1);
                prop_assert_eq!(last_rank, 0);
            }
            SupOutcome::Degraded { rung } => {
                let rung = rung.to_string();
                match rung.as_str() {
                    "tighten-admission" => prop_assert_eq!(last_rank, 1),
                    "top-level-only" => prop_assert_eq!(last_rank, 2),
                    "history-only" => {
                        prop_assert!(prognosis_ok);
                        prop_assert_eq!(last_rank, 2);
                    }
                    other => prop_assert!(false, "unknown rung {}", other),
                }
            }
            SupOutcome::Abandoned { reason } => {
                prop_assert!(!reason.is_empty());
            }
        }

        // Contention never consumes the retry budget: stripping every
        // contention step leaves the outcome and the resumes unchanged.
        let calm: Vec<Step> = script.iter().copied().filter(|s| *s != Step::Contend).collect();
        let (calm_outcome, calm_resumes, _, calm_trail) =
            supervise(&calm, retry_budget, prognosis_ok);
        prop_assert_eq!(&calm_outcome, &outcome, "script {:?}", script);
        prop_assert_eq!(calm_resumes, resumes, "script {:?}", script);
        prop_assert!(calm_trail.len() <= trail.len());
    }
}
