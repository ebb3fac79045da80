//! # pathcopy-metrics
//!
//! Distribution-level observability for the path-copying serving stack.
//! The source paper's finding is that scaling effects invisible to
//! throughput averages (allocator pressure, cache misses, NUMA) dominate
//! at high core counts, so the serving layer exposes *latency
//! distributions*, not just the monotonic counters in
//! `pathcopy_core::stats`.
//!
//! Three pieces:
//!
//! * [`LatencyHistogram`] — a lock-free, HdrHistogram-style log-bucketed
//!   histogram: power-of-two octaves with [`SUB_BUCKETS`] linear
//!   sub-buckets each, a fixed array of relaxed atomic counters, and
//!   mergeable [`HistogramSnapshot`]s with bounded-relative-error
//!   percentiles (p50/p90/p99/p999/max via [`Summary`]).
//! * [`Recorder`] — the facade hot paths hold. The `Disabled` variant is
//!   provably zero-cost: no clock reads, no atomics, just a branch.
//! * [`Stage`] — names for the instrumented pipeline stages, shared by
//!   the wire protocol's `Metrics` frame and the text exposition.

#![warn(missing_docs)]

pub mod histogram;
pub mod recorder;

pub use histogram::{
    bucket_high, bucket_index, bucket_low, HistogramSnapshot, LatencyHistogram, Summary,
    BUCKET_COUNT, SUB_BUCKETS, SUB_BUCKET_BITS,
};
pub use recorder::Recorder;

/// The instrumented pipeline stages. Discriminants are the `stage` bytes
/// carried by the wire protocol's `Metrics` response and must never be
/// reused for a different meaning. Byte 1 is retired (it named a
/// queue-wait stage) and stays unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Event loop: decode→reply-encoded time, `handle_request` and the
    /// encode included, per request tag (ns).
    Execute = 2,
    /// Event loop: reply-encoded→last-byte-written flush time, per
    /// request tag (ns).
    WriteFlush = 3,
    /// Durable feed persister: append + fsync latency per publish (ns).
    AppendFsync = 4,
    /// Push replica: apply latency per push frame (ns).
    PushApply = 5,
    /// Push replica: published-epoch minus applied-epoch watermark gap at
    /// apply time (epochs, not ns — 1 means fully caught up).
    EpochLag = 6,
}

impl Stage {
    /// Every stage, in wire-discriminant order.
    pub const ALL: [Stage; 5] = [
        Stage::Execute,
        Stage::WriteFlush,
        Stage::AppendFsync,
        Stage::PushApply,
        Stage::EpochLag,
    ];

    /// Decodes a wire `stage` byte.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Stage> {
        match byte {
            2 => Some(Stage::Execute),
            3 => Some(Stage::WriteFlush),
            4 => Some(Stage::AppendFsync),
            5 => Some(Stage::PushApply),
            6 => Some(Stage::EpochLag),
            _ => None,
        }
    }

    /// Stable snake_case name used as the metric name in the text
    /// exposition.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Execute => "execute",
            Stage::WriteFlush => "write_flush",
            Stage::AppendFsync => "append_fsync",
            Stage::PushApply => "push_apply",
            Stage::EpochLag => "epoch_lag",
        }
    }

    /// Unit suffix for the text exposition: everything is nanoseconds
    /// except the epoch-lag watermark gap.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Stage::EpochLag => "epochs",
            _ => "ns",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_bytes_roundtrip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_u8(stage as u8), Some(stage));
        }
        assert_eq!(Stage::from_u8(0), None);
        assert_eq!(Stage::from_u8(1), None, "retired: never reused");
        assert_eq!(Stage::from_u8(7), None);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
