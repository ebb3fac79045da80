//! What the trace layer costs — and proves it costs nothing when off.
//!
//! Four series over the same synthetic "request" (dependent arithmetic
//! the optimizer can't fold away), driving the exact
//! [`TraceRecorder`] calls the event loop makes per request:
//!
//! * `baseline` — the work alone, no recorder anywhere near it;
//! * `disabled` — the work plus a full `begin` → `span` → `span` chain
//!   on [`TraceRecorder::Disabled`], with a trace context present on
//!   the request (a client may always send one; an untraced node must
//!   still shrug it off). The recorder short-circuits before any clock
//!   read or ring write, so this series must sit on top of `baseline`
//!   — the same zero-cost contract `metrics_overhead` pins for the
//!   histogram layer;
//! * `untraced` — a *live* recorder serving a request that carries no
//!   context: the steady-state cost of enabling tracing on a node
//!   whose traffic is mostly unsampled. Also branch-only;
//! * `enabled` — live recorder, sampled context: two clock reads and
//!   two seqlock ring writes per request. The gap to `baseline` is the
//!   true price of a sampled request (tens of nanoseconds — and only
//!   for the sampled fraction).
//!
//! The `trace_overhead/disabled_minus_baseline` gauge reports the
//! measured per-op delta in nanoseconds; near zero (slightly negative
//! is run-to-run noise) is the expected steady state.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathcopy_metrics::Stage;
use pathcopy_trace::{Flight, TraceContext, TraceRecorder};

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

/// One request through the event loop's trace hooks: one `begin` at
/// admission, then the queue-wait and execute spans.
#[inline]
fn traced_request(seed: u64, rec: &TraceRecorder, ctx: Option<&TraceContext>) -> u64 {
    let t0 = rec.begin(ctx);
    let out = fake_request(seed);
    rec.span(ctx, Stage::WriteFlush, 1, 0, t0);
    rec.span(ctx, Stage::Execute, 1, seed & 0xff, t0);
    out
}

fn measure<F: FnMut(u64) -> u64>(iters: u64, mut f: F) -> Duration {
    let start = Instant::now();
    for i in 0..iters {
        black_box(f(i));
    }
    start.elapsed()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let ctx = TraceContext::sampled(0xbeef);
    let mut group = c.benchmark_group("trace_overhead");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    group.bench_function("baseline", |b| {
        b.iter_custom(|iters| measure(iters, fake_request))
    });

    let off = TraceRecorder::Disabled;
    group.bench_function("disabled", |b| {
        b.iter_custom(|iters| measure(iters, |i| traced_request(i, &off, Some(&ctx))))
    });

    let on = TraceRecorder::enabled(Flight::new("bench"));
    group.bench_function("untraced", |b| {
        b.iter_custom(|iters| measure(iters, |i| traced_request(i, &on, None)))
    });

    group.bench_function("enabled", |b| {
        b.iter_custom(|iters| measure(iters, |i| traced_request(i, &on, Some(&ctx))))
    });
    group.finish();

    // The zero-cost claim as one number: per-op disabled-chain cost
    // minus per-op baseline cost, over the same long burst back to
    // back. Noise can push it slightly negative; a sustained positive
    // trend means the disabled path grew a real cost.
    const BURST: u64 = 2_000_000;
    let base = measure(BURST, fake_request);
    let disabled = measure(BURST, |i| traced_request(i, &off, Some(&ctx)));
    let delta_ns = (disabled.as_nanos() as f64 - base.as_nanos() as f64) / BURST as f64;
    c.report_gauge("trace_overhead/disabled_minus_baseline", delta_ns, "ns");
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
