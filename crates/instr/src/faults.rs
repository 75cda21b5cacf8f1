//! Deterministic, seeded fault injection for the simulated daemon
//! layer.
//!
//! Paradyn's Performance Consultant ran against real daemons on real
//! SP/2 nodes, where instrumentation requests fail, sample streams
//! stall, and processes die mid-experiment. This module models that
//! lossy substrate as a reproducible [`FaultPlan`]: every fault draw
//! comes from a seeded [`Rng`](histpc_sim::Rng) substream, so a given
//! plan injects exactly the same faults on every run — which is what
//! lets the test suite assert that a diagnosis *degrades gracefully*
//! rather than merely *differently*.
//!
//! The plan covers five fault surfaces, all of them injected while the
//! search runs:
//!
//! * **sample stream** — drop, delay, or reorder emitted
//!   [`Interval`]s before the collector sees them
//!   ([`FaultInjector::filter_intervals`]);
//! * **instrumentation requests** — fail or defer insertions
//!   ([`FaultInjector::request_outcome`]);
//! * **resource death** — kill a node or a single process at a
//!   scheduled [`SimTime`] ([`FaultInjector::due_kills`]);
//! * **tool crash** — crash the consultant itself mid-search
//!   ([`FaultInjector::crash_due`]);
//! * **overload** — flood the collector with phantom sample traffic
//!   ([`FaultInjector::flood_units`]), slow every instrumentation
//!   insertion (`slow-collector`, folded into
//!   [`FaultInjector::request_outcome`]), and fire bursts of phantom
//!   in-flight requests ([`FaultInjector::storm_requests`]) that eat
//!   the admission controller's capacity.
//!
//! Every kind a plan names is injected by a run. The daemon transport
//! faults (`histpc::remote::WireFaults`) and adversarial history
//! (`histpc_consultant::PoisonRates`) are configured by their
//! own readers, not by a plan.
//!
//! A disabled plan ([`FaultPlan::none`]) is guaranteed zero-cost: the
//! drive loop in `histpc-consultant` bypasses the injector entirely,
//! so a faultless run is bit-identical to one that never built one.

use histpc_sim::{Interval, Rng, SimDuration, SimTime};

/// What a fault plan does to a single instrumentation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// The request is inserted normally.
    Deliver,
    /// The daemon rejects the insertion outright; the caller must retry.
    Fail,
    /// The insertion succeeds but activates late by the given extra delay.
    Defer(SimDuration),
}

/// The resource a scheduled kill removes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KillTarget {
    /// Kill every process placed on the named node.
    Node(String),
    /// Kill the single process with this rank.
    Proc(u16),
}

/// A scheduled death of a node or process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillEvent {
    /// When the target dies.
    pub at: SimTime,
    /// What dies.
    pub target: KillTarget,
}

/// A complete, serialisable description of the faults to inject into
/// one run. Parsed from / written to a small line-oriented text format
/// (see [`FaultPlan::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault draws; independent of the workload seed.
    pub seed: u64,
    /// Probability in `[0,1]` that a sample interval is dropped.
    pub drop_rate: f64,
    /// Probability that a surviving interval is delivered late.
    pub delay_rate: f64,
    /// How late a delayed interval is delivered.
    pub delay: SimDuration,
    /// Probability that a surviving interval is moved to the end of its
    /// delivery batch (out-of-order delivery).
    pub reorder_rate: f64,
    /// Probability that an instrumentation request fails outright.
    pub request_fail_rate: f64,
    /// Probability that an instrumentation request activates late.
    pub request_defer_rate: f64,
    /// Extra activation delay for deferred requests.
    pub request_defer_by: SimDuration,
    /// Scheduled node/process deaths.
    pub kills: Vec<KillEvent>,
    /// When, if ever, the consultant tool itself crashes mid-search.
    pub tool_crash_at: Option<SimTime>,
    /// Sample-pressure multiplier (`>= 1`): a factor of 5 means every
    /// real interval batch arrives with 4× its size in phantom sample
    /// traffic, which counts against the admission controller's
    /// per-interval budget. `1.0` disables the flood.
    pub sample_flood: f64,
    /// Extra activation latency added to *every* instrumentation
    /// insertion — an overloaded daemon that still answers, just
    /// slowly. [`SimDuration::ZERO`] disables it.
    pub slow_collector: SimDuration,
    /// Probability per consultant tick that a burst of phantom
    /// in-flight requests hits the collector.
    pub request_storm_rate: f64,
    /// Size of each storm burst.
    pub request_storm_burst: u64,
}

impl FaultPlan {
    /// The empty plan: no faults at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay: SimDuration::ZERO,
            reorder_rate: 0.0,
            request_fail_rate: 0.0,
            request_defer_rate: 0.0,
            request_defer_by: SimDuration::ZERO,
            kills: Vec::new(),
            tool_crash_at: None,
            sample_flood: 1.0,
            slow_collector: SimDuration::ZERO,
            request_storm_rate: 0.0,
            request_storm_burst: 0,
        }
    }

    /// True if the plan injects nothing; the drive loop uses this to
    /// bypass the injector entirely.
    pub fn is_disabled(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.reorder_rate == 0.0
            && self.request_fail_rate == 0.0
            && self.request_defer_rate == 0.0
            && self.kills.is_empty()
            && self.tool_crash_at.is_none()
            && !self.touches_overload()
    }

    /// True if any overload-class fault is set.
    pub fn touches_overload(&self) -> bool {
        self.sample_flood > 1.0
            || self.slow_collector > SimDuration::ZERO
            || self.request_storm_rate > 0.0
    }

    /// True if any sample-stream fault rate is set.
    pub fn touches_samples(&self) -> bool {
        self.drop_rate > 0.0 || self.delay_rate > 0.0 || self.reorder_rate > 0.0
    }

    /// Parse a fault plan from its text form.
    ///
    /// The format is line-oriented: a `histpc-faults v1` header, then
    /// one fault per line, with `#` comments and blank lines ignored.
    ///
    /// ```text
    /// histpc-faults v1
    /// seed 42
    /// drop 0.10
    /// delay 0.05 250000
    /// reorder 0.02
    /// request-fail 0.20
    /// request-defer 0.10 160000
    /// kill-node node11 5000000
    /// kill-proc 3 2500000
    /// crash-tool 4000000
    /// sample-flood 5
    /// slow-collector 200000
    /// request-storm 0.25 8
    /// ```
    ///
    /// Durations and timestamps are in microseconds, matching
    /// [`SimTime`]'s resolution.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                Some((_, l)) if meaningful(l).is_some() => break l.trim(),
                Some(_) => continue,
                None => return Err("empty fault plan: missing `histpc-faults v1` header".into()),
            }
        };
        if header != "histpc-faults v1" {
            return Err(format!(
                "bad header `{header}`: expected `histpc-faults v1`"
            ));
        }
        let mut plan = FaultPlan::none();
        for (i, raw) in lines {
            let Some(line) = meaningful(raw) else {
                continue;
            };
            let n = i + 1; // 1-based for messages
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let words: Vec<&str> = rest.split_whitespace().collect();
            match kind {
                "seed" => plan.seed = parse_u64(&words, 0, n, "seed")?,
                "drop" => plan.drop_rate = parse_rate(&words, 0, n, "drop")?,
                "delay" => {
                    plan.delay_rate = parse_rate(&words, 0, n, "delay")?;
                    plan.delay = SimDuration::from_micros(parse_u64(&words, 1, n, "delay")?);
                }
                "reorder" => plan.reorder_rate = parse_rate(&words, 0, n, "reorder")?,
                "request-fail" => {
                    plan.request_fail_rate = parse_rate(&words, 0, n, "request-fail")?;
                }
                "request-defer" => {
                    plan.request_defer_rate = parse_rate(&words, 0, n, "request-defer")?;
                    plan.request_defer_by =
                        SimDuration::from_micros(parse_u64(&words, 1, n, "request-defer")?);
                }
                "kill-node" => {
                    let name = words
                        .first()
                        .ok_or_else(|| format!("line {n}: kill-node needs a node name"))?;
                    plan.kills.push(KillEvent {
                        at: SimTime::from_micros(parse_u64(&words, 1, n, "kill-node")?),
                        target: KillTarget::Node((*name).to_string()),
                    });
                }
                "kill-proc" => {
                    let rank: u16 = words
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("line {n}: kill-proc needs a process rank"))?;
                    plan.kills.push(KillEvent {
                        at: SimTime::from_micros(parse_u64(&words, 1, n, "kill-proc")?),
                        target: KillTarget::Proc(rank),
                    });
                }
                "crash-tool" => {
                    plan.tool_crash_at =
                        Some(SimTime::from_micros(parse_u64(&words, 0, n, "crash-tool")?));
                }
                "sample-flood" => {
                    let f: f64 = words
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| format!("line {n}: sample-flood needs a factor"))?;
                    if f < 1.0 {
                        return Err(format!("line {n}: sample-flood factor {f} must be >= 1"));
                    }
                    plan.sample_flood = f;
                }
                "slow-collector" => {
                    plan.slow_collector =
                        SimDuration::from_micros(parse_u64(&words, 0, n, "slow-collector")?);
                }
                "request-storm" => {
                    plan.request_storm_rate = parse_rate(&words, 0, n, "request-storm")?;
                    plan.request_storm_burst = parse_u64(&words, 1, n, "request-storm")?;
                }
                other => return Err(format!("line {n}: unknown fault kind `{other}`")),
            }
        }
        plan.kills.sort_by_key(|k| k.at);
        Ok(plan)
    }

    /// Write the plan back out in the form [`FaultPlan::parse`] accepts.
    pub fn to_text(&self) -> String {
        let mut out = String::from("histpc-faults v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        if self.drop_rate > 0.0 {
            out.push_str(&format!("drop {}\n", self.drop_rate));
        }
        if self.delay_rate > 0.0 {
            out.push_str(&format!(
                "delay {} {}\n",
                self.delay_rate,
                self.delay.as_micros()
            ));
        }
        if self.reorder_rate > 0.0 {
            out.push_str(&format!("reorder {}\n", self.reorder_rate));
        }
        if self.request_fail_rate > 0.0 {
            out.push_str(&format!("request-fail {}\n", self.request_fail_rate));
        }
        if self.request_defer_rate > 0.0 {
            out.push_str(&format!(
                "request-defer {} {}\n",
                self.request_defer_rate,
                self.request_defer_by.as_micros()
            ));
        }
        for k in &self.kills {
            match &k.target {
                KillTarget::Node(name) => {
                    out.push_str(&format!("kill-node {name} {}\n", k.at.as_micros()));
                }
                KillTarget::Proc(rank) => {
                    out.push_str(&format!("kill-proc {rank} {}\n", k.at.as_micros()));
                }
            }
        }
        if let Some(at) = self.tool_crash_at {
            out.push_str(&format!("crash-tool {}\n", at.as_micros()));
        }
        if self.sample_flood > 1.0 {
            out.push_str(&format!("sample-flood {}\n", self.sample_flood));
        }
        if self.slow_collector > SimDuration::ZERO {
            out.push_str(&format!(
                "slow-collector {}\n",
                self.slow_collector.as_micros()
            ));
        }
        if self.request_storm_rate > 0.0 {
            out.push_str(&format!(
                "request-storm {} {}\n",
                self.request_storm_rate, self.request_storm_burst
            ));
        }
        out
    }
}

/// The meaningful content of a plan line, or `None` for blank/comment.
fn meaningful(line: &str) -> Option<&str> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') {
        None
    } else {
        Some(t)
    }
}

fn parse_u64(words: &[&str], idx: usize, line: usize, kind: &str) -> Result<u64, String> {
    words
        .get(idx)
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("line {line}: {kind} needs an integer in field {}", idx + 1))
}

fn parse_rate(words: &[&str], idx: usize, line: usize, kind: &str) -> Result<f64, String> {
    let r: f64 = words
        .get(idx)
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("line {line}: {kind} needs a rate in field {}", idx + 1))?;
    if !(0.0..=1.0).contains(&r) {
        return Err(format!("line {line}: {kind} rate {r} outside [0,1]"));
    }
    Ok(r)
}

/// Counters of what a plan actually did during a run; folded into the
/// degraded-run report for tests and the CLI summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Sample intervals dropped.
    pub dropped: u64,
    /// Sample intervals delivered late.
    pub delayed: u64,
    /// Sample intervals moved out of order.
    pub reordered: u64,
    /// Instrumentation requests rejected.
    pub requests_failed: u64,
    /// Instrumentation requests activated late.
    pub requests_deferred: u64,
    /// Kill events fired.
    pub kills_fired: u64,
    /// Phantom sample units injected by a sample flood.
    pub flooded: u64,
    /// Instrumentation requests slowed by the slow-collector fault.
    pub slowed: u64,
    /// Phantom in-flight requests fired by request storms.
    pub storm_requests: u64,
}

/// The run-time half of a [`FaultPlan`]: holds the seeded RNG streams
/// and the fire-once bookkeeping for scheduled events.
///
/// Sample-stream draws and request draws come from independent
/// substreams so that enabling (say) request failures does not shift
/// the drop pattern of the sample stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    sample_rng: Rng,
    request_rng: Rng,
    storm_rng: Rng,
    /// Delayed intervals waiting for their release time.
    held: Vec<(SimTime, Interval)>,
    kill_fired: Vec<bool>,
    crash_fired: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector for a plan. All draws derive from `plan.seed`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let root = Rng::new(plan.seed);
        let kill_fired = vec![false; plan.kills.len()];
        FaultInjector {
            sample_rng: root.substream(1),
            request_rng: root.substream(2),
            storm_rng: root.substream(5),
            held: Vec::new(),
            kill_fired,
            crash_fired: false,
            stats: FaultStats::default(),
            plan,
        }
    }

    /// What the plan did so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Pass a freshly drained interval batch through the lossy sample
    /// stream: drop, delay (hold until `now + delay`), or reorder
    /// (move to the end of the batch) each interval per the plan's
    /// rates, and release any previously held intervals that are due.
    ///
    /// With no sample-stream faults configured and nothing held this
    /// returns the batch untouched without consuming any randomness.
    pub fn filter_intervals(&mut self, ivs: Vec<Interval>, now: SimTime) -> Vec<Interval> {
        if !self.plan.touches_samples() && self.held.is_empty() {
            return ivs;
        }
        let mut out = Vec::with_capacity(ivs.len() + self.held.len());
        // Release held intervals that are due, preserving hold order.
        let mut still_held = Vec::new();
        for (due, iv) in self.held.drain(..) {
            if due <= now {
                out.push(iv);
            } else {
                still_held.push((due, iv));
            }
        }
        self.held = still_held;
        let mut tail = Vec::new();
        for iv in ivs {
            if self.plan.drop_rate > 0.0 && self.sample_rng.next_f64() < self.plan.drop_rate {
                self.stats.dropped += 1;
                continue;
            }
            if self.plan.delay_rate > 0.0 && self.sample_rng.next_f64() < self.plan.delay_rate {
                self.stats.delayed += 1;
                self.held.push((now + self.plan.delay, iv));
                continue;
            }
            if self.plan.reorder_rate > 0.0 && self.sample_rng.next_f64() < self.plan.reorder_rate {
                self.stats.reordered += 1;
                tail.push(iv);
                continue;
            }
            out.push(iv);
        }
        out.extend(tail);
        out
    }

    /// Draw the fate of one instrumentation request. A configured
    /// `slow-collector` fault adds its latency to every non-failed
    /// outcome on top of any drawn deferral.
    pub fn request_outcome(&mut self) -> RequestFault {
        if self.plan.request_fail_rate > 0.0
            && self.request_rng.next_f64() < self.plan.request_fail_rate
        {
            self.stats.requests_failed += 1;
            return RequestFault::Fail;
        }
        let mut extra = SimDuration::ZERO;
        if self.plan.request_defer_rate > 0.0
            && self.request_rng.next_f64() < self.plan.request_defer_rate
        {
            self.stats.requests_deferred += 1;
            extra = self.plan.request_defer_by;
        }
        if self.plan.slow_collector > SimDuration::ZERO {
            self.stats.slowed += 1;
            extra += self.plan.slow_collector;
        }
        if extra > SimDuration::ZERO {
            RequestFault::Defer(extra)
        } else {
            RequestFault::Deliver
        }
    }

    /// Phantom sample units accompanying a batch of `real` intervals
    /// under a sample flood: `(factor - 1) × real`, rounded. Zero when
    /// the flood is disabled. Deterministic — no randomness consumed.
    pub fn flood_units(&mut self, real: usize) -> u64 {
        if self.plan.sample_flood <= 1.0 {
            return 0;
        }
        let phantom = ((self.plan.sample_flood - 1.0) * real as f64).round() as u64;
        self.stats.flooded += phantom;
        phantom
    }

    /// Phantom in-flight requests striking this consultant tick: a
    /// burst with probability `request_storm_rate`, else zero. Draws
    /// from its own substream, so enabling storms never shifts the
    /// sample or request fault patterns.
    pub fn storm_requests(&mut self) -> u64 {
        if self.plan.request_storm_rate == 0.0 {
            return 0;
        }
        if self.storm_rng.next_f64() < self.plan.request_storm_rate {
            self.stats.storm_requests += self.plan.request_storm_burst;
            self.plan.request_storm_burst
        } else {
            0
        }
    }

    /// Kill events scheduled at or before `now` that have not fired
    /// yet. Each event fires exactly once.
    pub fn due_kills(&mut self, now: SimTime) -> Vec<KillEvent> {
        let mut due = Vec::new();
        for (i, k) in self.plan.kills.iter().enumerate() {
            if !self.kill_fired[i] && k.at <= now {
                self.kill_fired[i] = true;
                self.stats.kills_fired += 1;
                due.push(k.clone());
            }
        }
        due
    }

    /// True exactly once: at the first call where `now` has reached the
    /// plan's scheduled tool crash.
    pub fn crash_due(&mut self, now: SimTime) -> bool {
        match self.plan.tool_crash_at {
            Some(at) if !self.crash_fired && at <= now => {
                self.crash_fired = true;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_sim::{ActivityKind, FuncId, ProcId};

    fn iv(proc: u16, start_us: u64, end_us: u64) -> Interval {
        Interval {
            proc: ProcId(proc),
            func: FuncId(0),
            kind: ActivityKind::Cpu,
            tag: None,
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            bytes: 0,
        }
    }

    fn lossy_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            drop_rate: 0.25,
            delay_rate: 0.25,
            delay: SimDuration::from_millis(5),
            reorder_rate: 0.25,
            request_fail_rate: 0.5,
            request_defer_rate: 0.25,
            request_defer_by: SimDuration::from_millis(1),
            kills: vec![
                KillEvent {
                    at: SimTime::from_micros(5_000_000),
                    target: KillTarget::Node("node11".into()),
                },
                KillEvent {
                    at: SimTime::from_micros(2_500_000),
                    target: KillTarget::Proc(3),
                },
            ],
            tool_crash_at: Some(SimTime::from_micros(4_000_000)),
            sample_flood: 5.0,
            slow_collector: SimDuration::from_millis(2),
            request_storm_rate: 0.5,
            request_storm_burst: 4,
        }
    }

    #[test]
    fn plan_text_round_trips() {
        let plan = lossy_plan();
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        // to_text sorts kills by time on parse.
        let mut want = plan.clone();
        want.kills.sort_by_key(|k| k.at);
        assert_eq!(parsed, want);
    }

    #[test]
    fn empty_plan_round_trips_and_is_disabled() {
        let plan = FaultPlan::none();
        assert!(plan.is_disabled());
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
        assert!(!lossy_plan().is_disabled());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("who goes there\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nflood 0.5\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\ndrop 1.5\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\ndrop\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nkill-node\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nsample-flood 0.5\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nsample-flood\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nslow-collector\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nrequest-storm 0.5\n").is_err());
        assert!(FaultPlan::parse("histpc-faults v1\nrequest-storm 1.5 4\n").is_err());
        // Kinds that no run injects are refused by name and line.
        for kind in [
            "corrupt-store",
            "torn-write",
            "partial-journal",
            "trust-ledger-corrupt",
        ] {
            let err = FaultPlan::parse(&format!("histpc-faults v1\nseed 1\n{kind}\n"));
            assert_eq!(err, Err(format!("line 3: unknown fault kind `{kind}`")));
        }
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let plan =
            FaultPlan::parse("# lossy daemon\n\nhistpc-faults v1\n# 10% loss\ndrop 0.1\n").unwrap();
        assert_eq!(plan.drop_rate, 0.1);
    }

    #[test]
    fn disabled_injector_is_identity_and_draws_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        let batch = vec![iv(0, 0, 100), iv(1, 50, 150)];
        let out = inj.filter_intervals(batch.clone(), SimTime::from_micros(200));
        assert_eq!(out, batch);
        assert_eq!(inj.request_outcome(), RequestFault::Deliver);
        assert!(inj.due_kills(SimTime::from_micros(u64::MAX)).is_empty());
        assert!(!inj.crash_due(SimTime::from_micros(u64::MAX)));
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let batch: Vec<Interval> = (0..200).map(|i| iv(0, i * 100, i * 100 + 90)).collect();
        let run = |seed: u64| {
            let mut plan = lossy_plan();
            plan.seed = seed;
            let mut inj = FaultInjector::new(plan);
            let mut out = Vec::new();
            for chunk in batch.chunks(20) {
                let now = chunk.last().unwrap().end;
                out.extend(inj.filter_intervals(chunk.to_vec(), now));
            }
            (out, inj.stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seed, different loss pattern");
        assert!(sa.dropped > 0 && sa.delayed > 0 && sa.reordered > 0);
    }

    #[test]
    fn delayed_intervals_are_released_when_due() {
        let plan = FaultPlan {
            seed: 1,
            delay_rate: 1.0,
            delay: SimDuration::from_millis(10),
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        let t0 = SimTime::from_micros(1_000);
        assert!(inj.filter_intervals(vec![iv(0, 0, 500)], t0).is_empty());
        // Not due yet half-way through the delay.
        let t1 = t0 + SimDuration::from_millis(5);
        assert!(inj.filter_intervals(Vec::new(), t1).is_empty());
        let t2 = t0 + SimDuration::from_millis(10);
        let released = inj.filter_intervals(Vec::new(), t2);
        assert_eq!(released, vec![iv(0, 0, 500)]);
        assert_eq!(inj.stats().delayed, 1);
    }

    #[test]
    fn kills_fire_once_in_schedule_order() {
        let mut plan = FaultPlan::none();
        plan.kills = vec![
            KillEvent {
                at: SimTime::from_micros(100),
                target: KillTarget::Proc(1),
            },
            KillEvent {
                at: SimTime::from_micros(200),
                target: KillTarget::Node("n0".into()),
            },
        ];
        let mut inj = FaultInjector::new(plan);
        assert!(inj.due_kills(SimTime::from_micros(50)).is_empty());
        let first = inj.due_kills(SimTime::from_micros(150));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].target, KillTarget::Proc(1));
        let second = inj.due_kills(SimTime::from_micros(10_000));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].target, KillTarget::Node("n0".into()));
        assert!(inj.due_kills(SimTime::from_micros(u64::MAX)).is_empty());
        assert_eq!(inj.stats().kills_fired, 2);
    }

    #[test]
    fn tool_crash_fires_exactly_once() {
        let mut plan = FaultPlan::none();
        plan.tool_crash_at = Some(SimTime::from_micros(500));
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.crash_due(SimTime::from_micros(400)));
        assert!(inj.crash_due(SimTime::from_micros(600)));
        assert!(!inj.crash_due(SimTime::from_micros(700)));
    }

    #[test]
    fn overload_faults_round_trip_and_enable_the_plan() {
        let mut plan = FaultPlan::none();
        plan.sample_flood = 5.0;
        assert!(!plan.is_disabled() && plan.touches_overload());
        let mut plan = FaultPlan::none();
        plan.slow_collector = SimDuration::from_millis(1);
        assert!(!plan.is_disabled() && plan.touches_overload());
        let mut plan = FaultPlan::none();
        plan.request_storm_rate = 0.25;
        plan.request_storm_burst = 8;
        assert!(!plan.is_disabled() && plan.touches_overload());
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn flood_units_scale_with_the_batch() {
        let mut plan = FaultPlan::none();
        plan.sample_flood = 5.0;
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.flood_units(10), 40);
        assert_eq!(inj.flood_units(0), 0);
        assert_eq!(inj.stats().flooded, 40);
        let mut off = FaultInjector::new(FaultPlan::none());
        assert_eq!(off.flood_units(1000), 0);
        assert_eq!(off.stats().flooded, 0);
    }

    #[test]
    fn slow_collector_defers_every_delivered_request() {
        let mut plan = FaultPlan::none();
        plan.slow_collector = SimDuration::from_millis(3);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..5 {
            assert_eq!(
                inj.request_outcome(),
                RequestFault::Defer(SimDuration::from_millis(3))
            );
        }
        assert_eq!(inj.stats().slowed, 5);
        // Stacks on top of a drawn deferral.
        let mut plan = FaultPlan::none();
        plan.slow_collector = SimDuration::from_millis(3);
        plan.request_defer_rate = 1.0;
        plan.request_defer_by = SimDuration::from_millis(2);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.request_outcome(),
            RequestFault::Defer(SimDuration::from_millis(5))
        );
    }

    #[test]
    fn request_storms_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::none();
            plan.seed = seed;
            plan.request_storm_rate = 0.5;
            plan.request_storm_burst = 4;
            let mut inj = FaultInjector::new(plan);
            (0..64).map(|_| inj.storm_requests()).collect::<Vec<_>>()
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a, run(4));
        assert!(a.contains(&4) && a.contains(&0));
    }

    proptest::proptest! {
        #[test]
        fn any_plan_round_trips(
            seed in 0u64..1000,
            drop in 0u32..=100,
            fail in 0u32..=100,
            kill_at in 0u64..10_000_000,
        ) {
            let plan = FaultPlan {
                seed,
                drop_rate: f64::from(drop) / 100.0,
                request_fail_rate: f64::from(fail) / 100.0,
                kills: vec![KillEvent {
                    at: SimTime::from_micros(kill_at),
                    target: KillTarget::Proc(0),
                }],
                ..FaultPlan::none()
            };
            let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
            proptest::prop_assert_eq!(parsed, plan);
        }
    }
}
