//! Per-stage latency tracing, scraped over the wire.
//!
//! Spawns a server with metrics on (the default), drives a small mixed
//! workload plus a push replica fed from a durable primary-less feed,
//! and then scrapes `Request::Metrics` like an external collector
//! would. The scrape decomposes every request's wall time on the
//! server into the two stages the event loop can see:
//!
//! * **execute** — decode→reply encoded: time inside the backend (the
//!   path-copying map) plus the encode. Rises when the data structure
//!   itself slows down.
//! * **write/flush** — reply encoded→last byte handed to the kernel.
//!   Rises when replies outpace the sockets.
//!
//! Each stage is split by request tag, so a `Batch` regression can't
//! hide inside the `Get` noise. The push replica contributes two more
//! histograms through the same scrape: push-apply nanoseconds and the
//! end-to-end epoch lag (in epochs) measured from the watermark already
//! on the wire.
//!
//! ```text
//! cargo run --release --example metrics_demo
//! ```

use std::time::Duration;

use pathcopy_metrics::Stage;
use pathcopy_replica::PushReplica;
use pathcopy_server::{backend, render_text, Client, ServerConfig};

const OPS: i64 = 2_000;

fn main() {
    // Metrics are on by default; `.metrics(false)` turns every recorder
    // into a no-op for latency-critical deployments.
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");

    // A replica subscribed to the feed: its push-apply and epoch-lag
    // histograms join the primary's scrape via its relay endpoint.
    let mut replica = PushReplica::connect(
        server.addr(),
        backend::by_name("sharded_map_8").expect("backend"),
    )
    .expect("stand up replica");

    // A mixed workload: point ops, batches, and published epochs.
    for k in 0..OPS {
        c.insert(k, k * 7).expect("insert");
        if k % 3 == 0 {
            c.get(k / 2).expect("get");
        }
        if k % 128 == 0 {
            use pathcopy_concurrent::BatchOp;
            c.batch(&[BatchOp::Insert(-k, k), BatchOp::Get(k), BatchOp::Remove(-k)])
                .expect("batch");
            c.publish().expect("publish");
            while !matches!(
                replica.pump(Duration::from_millis(100)),
                Ok(pathcopy_replica::PushOutcome::Pushed { .. })
            ) {}
        }
    }

    // Scrape exactly like an external collector: one request, every
    // stage and tag the server has seen, in Prometheus text format.
    let rows = c.metrics().expect("metrics scrape");
    println!("{}", render_text(&rows));

    // The same rows are plain structs, so in-process consumers can
    // compute their own views; here, the execute/write-flush split per
    // tag — the first thing to look at when round trips regress.
    println!("stage split (mean ns per request tag):");
    for row in &rows {
        let stage = Stage::from_u8(row.stage).map_or("?", |s| s.as_str());
        if row.count == 0 || !matches!(row.stage, 2 | 3) {
            continue;
        }
        println!(
            "  {:<22} {:<10} mean={:>8} p99={:>8}",
            stage,
            pathcopy_server::Request::tag_name(row.tag).unwrap_or("?"),
            row.sum / row.count,
            row.p99,
        );
    }

    // Replica-side histograms, read straight off the shared handle.
    let push = replica.metrics();
    let apply = push.push_apply_snapshot();
    let lag = push.epoch_lag_snapshot();
    println!(
        "replica: {} pushes applied, apply p99 = {} ns, worst epoch lag = {} epoch(s)",
        apply.count(),
        apply.value_at_percentile(99.0),
        lag.max(),
    );

    server.shutdown();
}
