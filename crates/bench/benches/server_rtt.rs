//! Round-trip cost of the serving layer: framed request/response over a
//! loopback socket against an in-process server, per backend.
//!
//! This measures what the network front-end adds on top of the engine:
//! `get`/`insert` are one frame each way, `batch16` amortizes sixteen
//! ops over one round trip (mapped onto `transact` on the sharded
//! backend), and `snapshot_scan` pins a version, pages its first 100
//! entries, and releases it — the serving pattern the O(1)-snapshot
//! claim enables. The `get_x8_serial`/`get_x8_pipelined` pair isolates
//! what the proto-v3 correlation id buys: the same eight lookups issued
//! one round trip at a time versus submitted as one window of tickets —
//! the pipelined series pays roughly one round trip of latency for all
//! eight.
//!
//! Per backend, the bench also emits a `server_rtt/get_p99/<backend>`
//! **gauge**: the 99th-percentile get round trip over a fixed burst,
//! recorded with the same log-bucketed histogram the server's own
//! stage tracing uses, so tail regressions show in the CI trend even
//! when the median holds.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcopy_concurrent::BatchOp;
use pathcopy_metrics::LatencyHistogram;
use pathcopy_server::{backend, Client, Request, Response, ServerConfig};

const PREFILL: i64 = 10_000;
const P99_BURST: u32 = 1_000;

fn bench_server_rtt(c: &mut Criterion) {
    let mut gauges: Vec<(String, f64)> = Vec::new();
    let mut group = c.benchmark_group("server_rtt");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(800));

    for name in ["sharded_map_8", "treap_map"] {
        let server = pathcopy_server::spawn(
            backend::by_name(name).expect("registered backend"),
            ServerConfig::default(),
        )
        .expect("bind ephemeral loopback port");
        let mut client = Client::connect(server.addr()).expect("connect");
        for chunk in (0..PREFILL).collect::<Vec<_>>().chunks(1000) {
            let ops: Vec<BatchOp<i64, i64>> =
                chunk.iter().map(|&k| BatchOp::Insert(k, k)).collect();
            client.batch(&ops).expect("prefill");
        }

        let mut key = 0i64;
        group.bench_function(BenchmarkId::new("get", name), |b| {
            b.iter(|| {
                key = (key + 1) % PREFILL;
                client.get(key).expect("get")
            })
        });

        let mut key = 0i64;
        group.bench_function(BenchmarkId::new("get_x8_serial", name), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for _ in 0..8 {
                    key = (key + 1) % PREFILL;
                    if client.get(key).expect("get").is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        });

        let mut key = 0i64;
        group.bench_function(BenchmarkId::new("get_x8_pipelined", name), |b| {
            let session = client.session();
            b.iter(|| {
                let tickets: Vec<_> = (0..8)
                    .map(|_| {
                        key = (key + 1) % PREFILL;
                        session.submit(&Request::Get { key }).expect("submit")
                    })
                    .collect();
                let mut hits = 0usize;
                for ticket in tickets {
                    if let Response::Got(Some(_)) = ticket.wait().expect("get") {
                        hits += 1;
                    }
                }
                hits
            })
        });

        let mut key = 0i64;
        group.bench_function(BenchmarkId::new("insert", name), |b| {
            b.iter(|| {
                key = (key + 1) % PREFILL;
                client.insert(key, key).expect("insert")
            })
        });

        let batch: Vec<BatchOp<i64, i64>> = (0..16)
            .map(|i| BatchOp::Insert(i * (PREFILL / 16), -i))
            .collect();
        group.bench_function(BenchmarkId::new("batch16", name), |b| {
            b.iter(|| client.batch(&batch).expect("batch"))
        });

        group.bench_function(BenchmarkId::new("snapshot_scan100", name), |b| {
            b.iter(|| {
                let snap = client.snapshot().expect("snapshot");
                let (page, _) = client.range(Some(snap), .., 100).expect("range");
                client.release(snap).expect("release");
                page.len()
            })
        });

        // A fixed warm burst of gets into a histogram: the p99 gauge
        // tracks tail latency in the trend artifact, where the median
        // series above can't see a regression confined to the tail.
        let rtt = LatencyHistogram::new();
        for i in 0..P99_BURST {
            let k = i64::from(i) % PREFILL;
            let t0 = Instant::now();
            client.get(k).expect("get");
            rtt.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        gauges.push((
            format!("server_rtt/get_p99/{name}"),
            rtt.snapshot().value_at_percentile(99.0) as f64,
        ));

        drop(client);
        server.shutdown();
    }
    group.finish();
    for (id, p99) in gauges {
        c.report_gauge(&id, p99, "ns");
    }
}

criterion_group!(benches, bench_server_rtt);
criterion_main!(benches);
