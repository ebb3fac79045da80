//! What the tracing layer costs — and proves it costs nothing when off.
//!
//! Three series over the same synthetic "request" (a handful of
//! arithmetic the optimizer can't fold away):
//!
//! * `baseline` — the work alone, no recorder anywhere near it;
//! * `disabled` — the work plus a full [`Recorder::Disabled`] stage
//!   chain (`start`/`lap`/`lap`), the exact calls the event loop makes
//!   per request when `ServerConfig::metrics(false)`. The recorder
//!   short-circuits before any clock read or atomic, so this series
//!   must sit on top of `baseline` — that overlap *is* the tentpole's
//!   zero-cost claim, checked in CI as a trend next to the others;
//! * `enabled` — the work plus live recording through the same chain:
//!   two `Instant::now()` reads and three relaxed atomic adds per
//!   stage boundary. The gap to `baseline` is the true price of
//!   always-on tracing (tens of nanoseconds — noise against a
//!   microsecond round trip).
//!
//! A fourth series, `record_only`, isolates the histogram's own
//! `record` (bucket index + two atomic adds + atomic max), the unit the
//! loadgen path pays per sample.
//!
//! The `overhead/disabled_minus_baseline` gauge reports the measured
//! per-op delta in nanoseconds; near zero (it can even read slightly
//! negative from run-to-run noise) is the expected steady state.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathcopy_metrics::{LatencyHistogram, Recorder};

/// A stand-in for per-request work: enough dependent arithmetic that
/// the loop body cannot collapse, small enough that recorder overhead
/// would show.
#[inline]
fn fake_request(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..8 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    x
}

/// One request's worth of stage tracing: the same
/// `start` → `lap` → `lap` chain the event loop drives.
#[inline]
fn traced_request(seed: u64, queue_wait: &Recorder, execute: &Recorder) -> u64 {
    let t0 = queue_wait.start();
    let t1 = queue_wait.lap(t0, seed, 0);
    let out = fake_request(seed);
    execute.lap(t1, seed, 0);
    out
}

fn measure<F: FnMut(u64) -> u64>(iters: u64, mut f: F) -> Duration {
    let start = Instant::now();
    for i in 0..iters {
        black_box(f(i));
    }
    start.elapsed()
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_overhead");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    group.bench_function("baseline", |b| {
        b.iter_custom(|iters| measure(iters, fake_request))
    });

    let off = (Recorder::Disabled, Recorder::Disabled);
    group.bench_function("disabled", |b| {
        b.iter_custom(|iters| measure(iters, |i| traced_request(i, &off.0, &off.1)))
    });

    let on = (Recorder::enabled(), Recorder::enabled());
    group.bench_function("enabled", |b| {
        b.iter_custom(|iters| measure(iters, |i| traced_request(i, &on.0, &on.1)))
    });

    let hist = LatencyHistogram::new();
    group.bench_function("record_only", |b| {
        b.iter_custom(|iters| {
            measure(iters, |i| {
                hist.record(i & 0xffff);
                i
            })
        })
    });
    group.finish();

    // The zero-cost claim as one number: per-op disabled-chain cost
    // minus per-op baseline cost, over the same long burst back to
    // back. Noise can push it slightly negative; a sustained positive
    // trend means the disabled path grew a real cost.
    const BURST: u64 = 2_000_000;
    let base = measure(BURST, fake_request);
    let disabled = measure(BURST, |i| traced_request(i, &off.0, &off.1));
    let delta_ns = (disabled.as_nanos() as f64 - base.as_nanos() as f64) / BURST as f64;
    c.report_gauge("overhead/disabled_minus_baseline", delta_ns, "ns");
}

criterion_group!(benches, bench_metrics_overhead);
criterion_main!(benches);
