//! Metrics: continuously-measured values over a focus.
//!
//! Each Performance Consultant hypothesis is "based on a continuously
//! measured value computed by one or more Paradyn metrics" (paper §2).
//! Time metrics accumulate seconds of an activity; event metrics count
//! occurrences or bytes.

use crate::delta::Delta;
use histpc_sim::ActivityKind;
use std::fmt;

/// A measurable quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// CPU time (seconds).
    CpuTime,
    /// Synchronization waiting time (seconds): message waits, rendezvous,
    /// barriers, collective operations.
    SyncWaitTime,
    /// Message waiting time (seconds): the subset of synchronization
    /// waiting attributable to a message object (tagged waits).
    MsgWaitTime,
    /// Barrier/collective waiting time (seconds): the subset of
    /// synchronization waiting not attributable to any single message
    /// (barriers, mixed-tag completion waits).
    BarrierWaitTime,
    /// I/O blocking time (seconds).
    IoWaitTime,
    /// Number of messages (count).
    MsgCount,
    /// Message payload bytes moved (bytes).
    MsgBytes,
}

impl Metric {
    /// All metrics, in a stable order.
    pub const ALL: [Metric; 7] = [
        Metric::CpuTime,
        Metric::SyncWaitTime,
        Metric::MsgWaitTime,
        Metric::BarrierWaitTime,
        Metric::IoWaitTime,
        Metric::MsgCount,
        Metric::MsgBytes,
    ];

    /// Stable machine-readable name (used in directive and record files).
    pub fn name(self) -> &'static str {
        match self {
            Metric::CpuTime => "cpu_time",
            Metric::SyncWaitTime => "sync_wait_time",
            Metric::MsgWaitTime => "msg_wait_time",
            Metric::BarrierWaitTime => "barrier_wait_time",
            Metric::IoWaitTime => "io_wait_time",
            Metric::MsgCount => "msgs",
            Metric::MsgBytes => "msg_bytes",
        }
    }

    /// Parses the machine-readable name.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// True for metrics measured in seconds (usable as a fraction of
    /// execution time).
    pub fn is_time(self) -> bool {
        matches!(
            self,
            Metric::CpuTime
                | Metric::SyncWaitTime
                | Metric::MsgWaitTime
                | Metric::BarrierWaitTime
                | Metric::IoWaitTime
        )
    }

    /// The value this metric extracts from one aggregated delta: seconds
    /// for time metrics, a message count or byte total for event metrics.
    pub fn extract(self, d: &Delta) -> f64 {
        let seconds = |kind: bool| if kind { d.seconds } else { 0.0 };
        match self {
            Metric::CpuTime => seconds(d.kind == ActivityKind::Cpu),
            Metric::SyncWaitTime => seconds(d.kind == ActivityKind::SyncWait),
            Metric::MsgWaitTime => seconds(d.kind == ActivityKind::SyncWait && d.tag.is_some()),
            Metric::BarrierWaitTime => seconds(d.kind == ActivityKind::SyncWait && d.tag.is_none()),
            Metric::IoWaitTime => seconds(d.kind == ActivityKind::IoWait),
            Metric::MsgCount => d.msgs as f64,
            Metric::MsgBytes => d.bytes as f64,
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_sim::{FuncId, Interval, ProcId, SimTime, TagId};

    /// The delta of one interval.
    fn iv(kind: ActivityKind, tag: Option<u16>, dur_us: u64, bytes: u64) -> Delta {
        let iv = Interval {
            proc: ProcId(0),
            func: FuncId(0),
            kind,
            tag: tag.map(TagId),
            start: SimTime(1000),
            end: SimTime(1000 + dur_us),
            bytes,
        };
        let mut d = Delta::opening(&iv);
        d.fold(&iv);
        d
    }

    #[test]
    fn names_roundtrip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("bogus"), None);
    }

    #[test]
    fn time_metrics_extract_seconds_of_matching_kind() {
        let cpu = iv(ActivityKind::Cpu, None, 500_000, 0);
        assert!((Metric::CpuTime.extract(&cpu) - 0.5).abs() < 1e-9);
        assert_eq!(Metric::SyncWaitTime.extract(&cpu), 0.0);
        assert_eq!(Metric::IoWaitTime.extract(&cpu), 0.0);

        let sync = iv(ActivityKind::SyncWait, Some(1), 250_000, 64);
        assert!((Metric::SyncWaitTime.extract(&sync) - 0.25).abs() < 1e-9);
        assert_eq!(Metric::CpuTime.extract(&sync), 0.0);
    }

    #[test]
    fn event_metrics_extract_counts_and_bytes() {
        let msg = iv(ActivityKind::SyncWait, Some(0), 10, 128);
        assert_eq!(Metric::MsgCount.extract(&msg), 1.0);
        assert_eq!(Metric::MsgBytes.extract(&msg), 128.0);
        // A barrier wait (no tag) is not a message.
        let barrier = iv(ActivityKind::SyncWait, None, 10, 0);
        assert_eq!(Metric::MsgCount.extract(&barrier), 0.0);
        assert_eq!(Metric::MsgBytes.extract(&barrier), 0.0);
    }

    #[test]
    fn is_time_partitions_metrics() {
        assert!(Metric::CpuTime.is_time());
        assert!(Metric::SyncWaitTime.is_time());
        assert!(Metric::IoWaitTime.is_time());
        assert!(!Metric::MsgCount.is_time());
        assert!(!Metric::MsgBytes.is_time());
    }
}
