//! End-to-end distributed tracing across a relay tree.
//!
//! Stands up the full write path in one process — durable primary →
//! relay → leaf — with a flight recorder on every node, publishes a
//! handful of epochs under sampled trace contexts, and then collects
//! each node's `TraceDump` over the wire and renders one epoch's
//! complete journey:
//!
//! * **primary** — execute (with the durable
//!   append+fsync span nested inside it), and the reply write/flush;
//! * **relay** — the push-apply span, parented under the primary's
//!   execute span by the trace context the push frame carried;
//! * **leaf** — its own push-apply span, parented under the relay's.
//!
//! One trace id stitches all three nodes; the epoch number on each
//! span is the cross-node join key. A 1 ms slow-request threshold is
//! armed on every recorder, so any publish that crosses it has its
//! span chain pinned past ring eviction — the flight-recorder answer
//! to "what was that one slow request doing?".
//!
//! ```text
//! cargo run --release --example trace_demo
//! ```

use std::sync::Arc;
use std::time::Duration;

use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_replica::PushReplica;
use pathcopy_server::{
    backend, render_trace, trace_ids, Client, FeedSink, Flight, ServerConfig, TraceContext,
};

fn main() {
    // ── A durable primary with a flight recorder ────────────────────
    let dir = std::env::temp_dir().join(format!("pathcopy-trace-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (log, _) = EpochLog::open(&dir, LogConfig::default()).expect("create log");
    let persister = FeedPersister::new(Arc::new(log));
    let primary_flight = Flight::new("primary");
    primary_flight.set_slow_threshold(Some(Duration::from_millis(1)));
    persister.attach_flight(Arc::clone(&primary_flight));
    let mut config = ServerConfig::builder()
        .trace(Arc::clone(&primary_flight))
        .build();
    config.feed_sink = Some(Arc::clone(&persister) as Arc<dyn FeedSink>);
    let primary =
        pathcopy_server::spawn(backend::by_name("sharded_map_8").expect("backend"), config)
            .expect("bind primary");

    // ── The chain: relay and leaf, each with its own recorder ───────
    let mut relay = PushReplica::connect(
        primary.addr(),
        backend::by_name("sharded_map_8").expect("backend"),
    )
    .expect("stand up relay");
    let relay_flight = Flight::new("relay");
    relay_flight.set_slow_threshold(Some(Duration::from_millis(1)));
    relay.set_trace(relay_flight);
    relay
        .serve_relay(ServerConfig::default())
        .expect("bind relay");

    let mut leaf = PushReplica::connect(
        relay.relay_addr().expect("relay address"),
        backend::by_name("sharded_map_8").expect("backend"),
    )
    .expect("stand up leaf");
    let leaf_flight = Flight::new("leaf");
    leaf_flight.set_slow_threshold(Some(Duration::from_millis(1)));
    leaf.set_trace(leaf_flight);
    leaf.serve_relay(ServerConfig::default())
        .expect("bind leaf");

    // ── Traced publishes: one sampled context per epoch ─────────────
    let mut writer = Client::connect(primary.addr()).expect("connect writer");
    for k in 0..256i64 {
        writer.insert(k, k * 3).expect("seed insert");
    }
    for round in 1..=8u64 {
        writer
            .insert(round as i64, -(round as i64))
            .expect("insert");
        let ctx = TraceContext::sampled(0x7ace_0000 + round);
        let epoch = writer.publish_traced(&ctx).expect("traced publish");
        while relay.applied_epoch() < epoch {
            relay.pump(Duration::from_millis(50)).expect("relay pump");
        }
        while leaf.applied_epoch() < epoch {
            leaf.pump(Duration::from_millis(50)).expect("leaf pump");
        }
    }

    // ── Collect and stitch, over the wire like an operator would ────
    let mut dumps = Vec::new();
    for addr in [
        primary.addr(),
        relay.relay_addr().expect("relay address"),
        leaf.relay_addr().expect("leaf address"),
    ] {
        let mut c = Client::connect(addr).expect("trace connect");
        dumps.push(c.trace_dump().expect("trace dump"));
    }
    for (node, spans) in &dumps {
        println!("node {node}: {} recorded span(s)", spans.len());
    }

    let ids = trace_ids(&dumps);
    println!(
        "{} stitched trace(s); rendering the best-covered one:\n",
        ids.len()
    );
    let id = ids.first().expect("at least one trace");
    print!("{}", render_trace(*id, &dumps));

    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
