//! The settings of one diagnosis, as one value. `histpc run`,
//! `supervise`, `run --remote` and `histpcd` all build a diagnosis from
//! a [`RunSpec`]. Its one text form is the parameters of a `histpcd/v1`
//! `start` request, which is also a lease's `spec` line. The CLI starts
//! from the paper's settings ([`RunSpec::new`]) and writes every key
//! out; a `start` that omits `window-ms`, `sample-ms` or `max-time-ms`
//! gets the service's 800 ms / 100 ms / 120 s, so that clients sending
//! only app and label, and old leases, keep running what they ran.

use histpc_consultant::SearchConfig;
use histpc_instr::faults::FaultPlan;
use histpc_sim::SimDuration;

use crate::remote::Request;

/// The parameters of one diagnosis: everything needed to run it, or,
/// after a daemon crash, to run it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Application spec (see [`crate::apps`]).
    pub app: String,
    /// Store label for the run's record and artifacts.
    pub label: String,
    /// Workload seed.
    pub seed: Option<u64>,
    /// Sampling window, milliseconds.
    pub window_ms: u64,
    /// Sample period, milliseconds.
    pub sample_ms: u64,
    /// Search time bound, milliseconds of application time.
    pub max_time_ms: u64,
    /// Fault plan text (`histpc-faults v1`) the run goes under, if any.
    pub faults: Option<String>,
    /// Sample-budget slice a daemon session asks its tenant for;
    /// defaults to an equal share of the tenant budget across its slots.
    pub budget: Option<u64>,
    /// Label of a prior run of the same application that a daemon
    /// session harvests directives from, trust-weighted per tenant.
    pub harvest_from: Option<String>,
    /// Shadow-audit budget for history directives (0 or none = off).
    pub audit_budget: Option<u32>,
}

impl RunSpec {
    /// A run of `app` under `label` with the paper's settings and
    /// nothing else.
    pub fn new(app: &str, label: &str) -> RunSpec {
        let paper = SearchConfig::default();
        let ms = |d: SimDuration| d.as_micros() / 1000;
        RunSpec {
            app: app.to_string(),
            label: label.to_string(),
            seed: None,
            window_ms: ms(paper.window),
            sample_ms: ms(paper.sample),
            max_time_ms: ms(paper.max_time),
            faults: None,
            budget: None,
            harvest_from: None,
            audit_budget: None,
        }
    }

    /// Parses a `start` request's parameters.
    pub fn from_request(req: &Request) -> Result<RunSpec, String> {
        fn num<T: std::str::FromStr>(req: &Request, key: &str) -> Result<Option<T>, String> {
            req.get(key)
                .map(|v| v.parse().map_err(|_| format!("bad {key}={v:?}")))
                .transpose()
        }
        let spec = RunSpec {
            app: req.get("app").ok_or("start needs app=")?.to_string(),
            label: req.get("label").ok_or("start needs label=")?.to_string(),
            seed: num(req, "seed")?,
            window_ms: num(req, "window-ms")?.unwrap_or(800),
            sample_ms: num(req, "sample-ms")?.unwrap_or(100),
            max_time_ms: num(req, "max-time-ms")?.unwrap_or(120_000),
            faults: req.get("faults").map(str::to_string),
            budget: num(req, "budget")?,
            harvest_from: req.get("harvest-from").map(str::to_string),
            audit_budget: num(req, "audit-budget")?,
        };
        spec.check()?;
        Ok(spec)
    }

    /// Refuses a spec no run could be made of.
    pub fn check(&self) -> Result<(), String> {
        if self.label.is_empty() || self.label.contains('/') {
            return Err(format!("bad label {:?}", self.label));
        }
        // A zero window divides every evaluation by zero, and a zero
        // sample never advances simulated time.
        if self.window_ms == 0 {
            return Err("bad window-ms=0".into());
        }
        if self.sample_ms == 0 {
            return Err("bad sample-ms=0".into());
        }
        // Pair data is kept in slots of the sample, so a window must
        // span whole samples to be read exactly.
        if !self.window_ms.is_multiple_of(self.sample_ms) {
            return Err(format!(
                "bad window-ms={}: not a multiple of sample-ms={}",
                self.window_ms, self.sample_ms
            ));
        }
        if let Some(from) = &self.harvest_from {
            if from.is_empty() || from.contains('/') {
                return Err(format!("bad harvest-from {from:?}"));
            }
        }
        if let Some(text) = &self.faults {
            FaultPlan::parse(text).map_err(|e| format!("bad fault plan: {e}"))?;
        }
        Ok(())
    }

    /// The `start` request that runs this spec, every setting written
    /// out.
    pub fn to_request(&self) -> Request {
        let optional = [
            ("seed", self.seed.map(|seed| seed.to_string())),
            ("faults", self.faults.clone()),
            ("budget", self.budget.map(|budget| budget.to_string())),
            ("harvest-from", self.harvest_from.clone()),
            ("audit-budget", self.audit_budget.map(|b| b.to_string())),
        ];
        let mut req = Request::new("start")
            .arg("app", &self.app)
            .arg("label", &self.label)
            .arg("window-ms", self.window_ms)
            .arg("sample-ms", self.sample_ms)
            .arg("max-time-ms", self.max_time_ms);
        for (key, value) in optional {
            if let Some(value) = value {
                req = req.arg(key, value);
            }
        }
        req
    }

    /// Serializes to the one-line form stored in a lease: the
    /// parameters of [`RunSpec::to_request`].
    pub fn to_spec_line(&self) -> String {
        // `app` and `label` are always there, so the verb is never alone.
        let line = self.to_request().to_line();
        line.split_once(' ')
            .map_or_else(String::new, |(_, params)| params.to_string())
    }

    /// Parses a lease's `spec` line back into a spec.
    pub fn from_spec_line(line: &str) -> Result<RunSpec, String> {
        RunSpec::from_request(&Request::parse(&format!("start {line}"))?)
    }

    /// The search config this spec runs with; directives, admission and
    /// supervision are the caller's.
    pub fn search_config(&self) -> Result<SearchConfig, String> {
        let faults = match &self.faults {
            Some(text) => FaultPlan::parse(text).map_err(|e| e.to_string())?,
            None => FaultPlan::none(),
        };
        Ok(SearchConfig {
            window: SimDuration::from_millis(self.window_ms),
            sample: SimDuration::from_millis(self.sample_ms),
            max_time: SimDuration::from_millis(self.max_time_ms),
            faults,
            audit_budget: self.audit_budget.unwrap_or(0),
            ..SearchConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(label: &str) -> Request {
        Request::new("start")
            .arg("app", "tester")
            .arg("label", label)
    }

    #[test]
    fn a_new_spec_round_trips_and_lowers_to_the_paper_settings() {
        let spec = RunSpec::new("tester", "r");
        assert_eq!(RunSpec::from_request(&spec.to_request()).unwrap(), spec);
        let config = spec.search_config().unwrap();
        let paper = SearchConfig::default();
        assert_eq!(
            (config.window, config.sample, config.max_time),
            (paper.window, paper.sample, paper.max_time)
        );
        assert_eq!(paper.window, SimDuration::from_secs(2));
        assert_eq!(paper.sample, SimDuration::from_millis(250));
        assert_eq!(paper.max_time, SimDuration::from_secs(900));
    }

    #[test]
    fn spec_rejects_bad_harvest_from() {
        assert!(RunSpec::from_request(&start("ok").arg("harvest-from", "a/b")).is_err());
    }

    #[test]
    fn spec_rejects_a_zero_window_or_sample() {
        for key in ["window-ms", "sample-ms"] {
            let err = RunSpec::from_request(&start("ok").arg(key, 0)).unwrap_err();
            assert_eq!(err, format!("bad {key}=0"));
            // A lease that carries one is an unusable spec line.
            let line = format!("app=tester label=ok {key}=0");
            assert!(RunSpec::from_spec_line(&line).is_err());
        }
    }

    #[test]
    fn spec_rejects_a_window_of_part_samples() {
        let req = start("ok").arg("window-ms", 300).arg("sample-ms", 250);
        let err = RunSpec::from_request(&req).unwrap_err();
        assert_eq!(err, "bad window-ms=300: not a multiple of sample-ms=250");
        let line = "app=tester label=ok window-ms=300 sample-ms=250";
        assert!(RunSpec::from_spec_line(line).is_err());
        // Whole samples are fine, the paper's and the service's alike.
        for (window, sample) in [(2000, 250), (800, 100), (250, 250)] {
            let req = start("ok")
                .arg("window-ms", window)
                .arg("sample-ms", sample);
            assert!(RunSpec::from_request(&req).is_ok(), "{window}/{sample}");
        }
    }

    #[test]
    fn spec_rejects_bad_labels_and_plans() {
        assert!(RunSpec::from_request(&start("a/b")).is_err());
        assert!(RunSpec::from_request(&start("ok").arg("faults", "not a plan")).is_err());
    }
}
