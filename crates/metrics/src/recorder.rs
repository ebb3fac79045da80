//! The zero-cost-when-disabled recording facade.
//!
//! Hot paths hold a [`Recorder`] and call [`Recorder::start`] /
//! [`Recorder::lap`] around the region they want timed. When the
//! recorder is [`Recorder::Disabled`] the entire sequence is two enum
//! matches: no clock reads, no atomic writes, nothing shared — the
//! `metrics_overhead` bench in `pathcopy-bench` pins this down against
//! a bare loop.

use std::sync::Arc;
use std::time::Instant;

use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// Converts a duration since `start` to saturating nanoseconds.
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A handle that either records into a shared [`LatencyHistogram`] or
/// does nothing at all.
///
/// The disabled variant is the zero-cost path: [`start`](Self::start)
/// returns `None` without touching the clock, and every record method
/// is a no-op branch. The enabled variant clones an `Arc`, so many
/// pipeline stages can feed one histogram (or one each).
#[derive(Clone)]
pub enum Recorder {
    /// Record nothing; all operations are branch-only no-ops.
    Disabled,
    /// Record into the shared histogram.
    Enabled(Arc<LatencyHistogram>),
}

impl Recorder {
    /// A recorder wired to a fresh histogram.
    #[must_use]
    pub fn enabled() -> Self {
        Recorder::Enabled(Arc::new(LatencyHistogram::new()))
    }

    /// A recorder feeding an existing shared histogram.
    #[must_use]
    pub fn shared(hist: Arc<LatencyHistogram>) -> Self {
        Recorder::Enabled(hist)
    }

    /// True when samples are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Recorder::Enabled(_))
    }

    /// Starts a timing region: reads the clock only when enabled.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        match self {
            Recorder::Disabled => None,
            Recorder::Enabled(_) => Some(Instant::now()),
        }
    }

    /// Records the nanoseconds elapsed since `started` (from
    /// [`start`](Self::start) on any recorder of the same enablement)
    /// and returns the new reference point, so consecutive pipeline
    /// stages share one clock read per boundary. The sample also
    /// competes to become the histogram's exemplar, carrying the
    /// request id and trace id of the offender (`0` when there is
    /// none, or the request is untraced).
    #[inline]
    pub fn lap(&self, started: Option<Instant>, request_id: u64, trace_id: u64) -> Option<Instant> {
        match (self, started) {
            (Recorder::Enabled(hist), Some(t0)) => {
                let now = Instant::now();
                hist.record_tagged(
                    u64::try_from((now - t0).as_nanos()).unwrap_or(u64::MAX),
                    request_id,
                    trace_id,
                );
                Some(now)
            }
            _ => None,
        }
    }

    /// Records the nanoseconds elapsed since `started`, discarding the
    /// end point, with the same exemplar attribution as
    /// [`lap`](Self::lap). Use `lap` when another stage follows.
    #[inline]
    pub fn record_since(&self, started: Option<Instant>, request_id: u64, trace_id: u64) {
        if let (Recorder::Enabled(hist), Some(t0)) = (self, started) {
            hist.record_tagged(elapsed_ns(t0), request_id, trace_id);
        }
    }

    /// Zeroes the backing histogram (no-op when disabled). Not atomic
    /// with respect to concurrent recorders.
    pub fn reset(&self) {
        if let Recorder::Enabled(hist) = self {
            hist.reset();
        }
    }

    /// Records a raw sample (nanoseconds, epochs — whatever the stage
    /// measures) when enabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Recorder::Enabled(hist) = self {
            hist.record(value);
        }
    }

    /// Snapshot of the backing histogram; empty when disabled.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        match self {
            Recorder::Disabled => HistogramSnapshot::empty(),
            Recorder::Enabled(hist) => hist.snapshot(),
        }
    }

    /// The backing histogram, if enabled.
    #[must_use]
    pub fn histogram(&self) -> Option<&Arc<LatencyHistogram>> {
        match self {
            Recorder::Disabled => None,
            Recorder::Enabled(hist) => Some(hist),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Recorder::Disabled => f.write_str("Recorder::Disabled"),
            Recorder::Enabled(hist) => f
                .debug_tuple("Recorder::Enabled")
                .field(&hist.snapshot().count())
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_reads_the_clock() {
        let r = Recorder::Disabled;
        assert!(!r.is_enabled());
        assert!(r.start().is_none());
        assert!(r.lap(None, 0, 0).is_none());
        r.record_since(None, 0, 0);
        r.record(42);
        assert!(r.snapshot().is_empty());
        assert!(r.histogram().is_none());
    }

    #[test]
    fn enabled_records_laps() {
        let r = Recorder::enabled();
        let t0 = r.start();
        assert!(t0.is_some());
        let t1 = r.lap(t0, 0, 0);
        assert!(t1.is_some());
        r.record_since(t1, 7, 9);
        assert_eq!(r.snapshot().count(), 2);
    }

    #[test]
    fn shared_recorders_feed_one_histogram() {
        let hist = Arc::new(LatencyHistogram::new());
        let a = Recorder::shared(Arc::clone(&hist));
        let b = Recorder::shared(Arc::clone(&hist));
        a.record(1);
        b.record(2);
        assert_eq!(hist.snapshot().count(), 2);
    }
}
