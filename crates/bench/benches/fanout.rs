//! Push fan-out propagation cost through a relay tier.
//!
//! Setup: a primary serving a seeded map, one relay subscribed to it,
//! and one leaf subscribed to the relay — the smallest tree that
//! exercises end-to-end epoch numbers across a hop. Each iteration
//! writes one key, publishes, and pumps the chain until the leaf has
//! applied the new epoch; the measured time is the full
//! publish → push → relay re-push → leaf-apply propagation, including
//! the subscriber-side pump.
//!
//! Besides the timing series, the bench records two **gauges** over a
//! fixed post-warm-up burst — `fanout/replica_lag` (mean propagation
//! lag in nanoseconds) and `fanout/replica_lag_p99` (its tail) — so
//! the CI trend artifact tracks replication lag as first-class series
//! next to the closure timings. It also asserts the transport claim:
//! after the run, the
//! leaf must have performed zero repair `PullDiff`s — every epoch
//! arrived as a push.
//!
//! Run `BENCH_JSON=out.jsonl cargo bench --bench fanout` to capture
//! machine-readable medians and the gauge line.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use pathcopy_concurrent::ShardedTreapMap;
use pathcopy_metrics::LatencyHistogram;
use pathcopy_replica::PushReplica;
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, Client, ServerConfig};

const SEED_KEYS: i64 = 1_024;
const LAG_ROUNDS: u32 = 32;

/// Pumps one node until it has applied `target` (bounded; a push chain
/// that stalls is a bug, not a slow run).
fn pump_to(node: &mut PushReplica, target: u64) {
    for _ in 0..1_000 {
        if node.applied_epoch() >= target {
            return;
        }
        node.pump(Duration::from_millis(20)).expect("pump");
    }
    panic!(
        "node stalled at epoch {} below target {target}",
        node.applied_epoch()
    );
}

fn bench_fanout(c: &mut Criterion) {
    let map: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(8);
    for k in 0..SEED_KEYS {
        map.insert(k, k);
    }
    let primary = pathcopy_server::spawn(Box::new(ShardedServe::new(map)), ServerConfig::default())
        .expect("bind ephemeral loopback port");
    let mut writer = Client::connect(primary.addr()).expect("writer");
    writer.publish().expect("seed epoch");

    // primary → relay → leaf: the relay both applies pushes and
    // re-serves the feed with the primary's epoch numbers.
    let mut relay =
        PushReplica::connect(primary.addr(), backend::by_name("sharded_map_8").unwrap())
            .expect("relay");
    let relay_addr = relay
        .serve_relay(ServerConfig::default())
        .expect("serve relay");
    let mut leaf =
        PushReplica::connect(relay_addr, backend::by_name("sharded_map_8").unwrap()).expect("leaf");

    let mut group = c.benchmark_group("fanout");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(800));

    let mut tick: i64 = 0;
    group.bench_function("push_propagation", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                tick += 1;
                writer.insert(tick % SEED_KEYS, tick).expect("write");
                let start = Instant::now();
                let epoch = writer.publish().expect("publish");
                pump_to(&mut relay, epoch);
                pump_to(&mut leaf, epoch);
                total += start.elapsed();
            }
            total
        })
    });
    group.finish();

    // The lag gauges: publish-to-leaf-applied latency over a fixed
    // burst, measured after the timing runs warmed every path. The mean
    // keeps its historical trend id; the p99 (from the same histogram
    // the server's own tracing uses) catches tail regressions the mean
    // smooths over.
    let lag_hist = LatencyHistogram::new();
    for round in 0..LAG_ROUNDS {
        writer
            .insert(i64::from(round) % SEED_KEYS, i64::from(round))
            .expect("write");
        let start = Instant::now();
        let epoch = writer.publish().expect("publish");
        pump_to(&mut relay, epoch);
        pump_to(&mut leaf, epoch);
        lag_hist.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    let lag = lag_hist.snapshot();
    c.report_gauge("fanout/replica_lag", lag.mean(), "ns");
    c.report_gauge(
        "fanout/replica_lag_p99",
        lag.value_at_percentile(99.0) as f64,
        "ns",
    );

    // The transport claim behind the numbers: everything after each
    // node's single bootstrap arrived as a push, never a repair pull.
    for node in [&leaf, &relay] {
        assert_eq!(
            node.pull_stats().diff_pulls,
            0,
            "push path must carry all epochs"
        );
        assert!(node.push_stats().pushes_applied > 0);
    }
    drop(leaf);
    drop(relay);
    primary.shutdown();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
