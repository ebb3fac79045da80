//! Latency samples, percentiles, and the `/proc` readers the process
//! metrics come from.

use std::fs;
use std::time::{Duration, Instant};

/// Sample class bits: one sample can count toward several end-to-end
/// metrics (a `Get` is both an op and a read).
pub const OP: u8 = 1;
pub const WRITE: u8 = 2;
pub const READ: u8 = 4;
pub const PUBLISH: u8 = 8;

/// One timed call, as recorded by a load thread.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the call completed, in milliseconds since the phase began.
    pub end_ms: u32,
    /// Its latency in nanoseconds (saturating at ~4.3 s).
    pub lat_ns: u32,
    pub class: u8,
}

impl Sample {
    pub fn new(phase_start: Instant, start: Instant, end: Instant, class: u8) -> Sample {
        Sample {
            end_ms: u32::try_from((end - phase_start).as_millis()).unwrap_or(u32::MAX),
            lat_ns: u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX),
            class,
        }
    }
}

/// The value at percentile `pct` (0..=100) of `sorted`, by the
/// nearest-rank rule; `0` for an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of floats (`0.0` when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Latency percentiles of a set of samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub count: usize,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

pub fn summarize<'a>(samples: impl Iterator<Item = &'a Sample>) -> LatencySummary {
    let mut all: Vec<u64> = samples.map(|s| u64::from(s.lat_ns)).collect();
    all.sort_unstable();
    LatencySummary {
        count: all.len(),
        p50_ns: percentile(&all, 50.0),
        p90_ns: percentile(&all, 90.0),
        p99_ns: percentile(&all, 99.0),
    }
}

/// Mean of a list of durations (`0.0` when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// Nearest-rank p50 of a list of durations in nanoseconds.
pub fn p50(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 50.0)
}

pub fn ns_to_us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Peak resident set size (`VmHWM`) of this process, in MB, less
/// `own_bytes` the benchmark itself holds for its measurements.
pub fn peak_rss_mb(own_bytes: usize) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    (status_number(&status, "VmHWM:") * 1024.0 - own_bytes as f64) / (1024.0 * 1024.0)
}

/// User + system CPU time of the whole process (every thread, live or
/// reaped), from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    // The kernel reports these in USER_HZ, which is 100 on Linux.
    Duration::from_millis(ticks * 10)
}

/// Voluntary plus involuntary context switches, summed over the
/// process's live threads (`/proc/self/task/*/status`). Threads that
/// exit inside a measured window would drop out, so the benchmark keeps
/// every thread alive across its phases.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .map(|task| {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status_number(&status, "voluntary_ctxt_switches:")
                + status_number(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum::<f64>() as u64
}

/// The first number after `field` in the text of a `/proc` status file.
fn status_number(status: &str, field: &str) -> f64 {
    status
        .lines()
        .find_map(|line| {
            line.strip_prefix(field)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}

/// Process-wide counters read at phase boundaries.
#[derive(Debug, Clone, Copy)]
pub struct ProcSnap {
    pub cpu: Duration,
    pub ctx_switches: u64,
}

impl ProcSnap {
    pub fn now() -> ProcSnap {
        ProcSnap {
            cpu: process_cpu(),
            ctx_switches: context_switches(),
        }
    }
}
