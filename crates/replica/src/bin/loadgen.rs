//! Load generator: N client threads with reused connections drive a
//! spawned in-process server with the workspace's Zipf read/write mix,
//! then print the bench harness's table format (throughput + latency
//! percentiles).
//!
//! ```text
//! cargo run --release --bin loadgen -- \
//!     --threads 8 --ops 100000 --backend sharded_map_8 \
//!     --read-frac 0.9 --theta 0.99 --keys 65536 \
//!     [--batch 8] [--replicas 2] [--json out.jsonl] \
//!     [--log-dir /var/tmp/pathcopy-log] [--subscribe] [--relays 2] \
//!     [--metrics] [--trace [--slow-ms t]] [--metrics-interval n]
//! ```
//!
//! `--batch n` groups updates into n-op `Batch` frames (the sharded
//! backend commits them atomically via `transact`); `--json` appends one
//! JSON line per metric in the criterion shim's `BENCH_JSON` schema
//! (`{"id":...,"median_ns":...,"samples":...,"mode":...}`), so server
//! throughput joins the same perf-trajectory artifacts as the benches.
//!
//! `--pipeline n` keeps up to `n` requests in flight per thread through
//! the proto-v3 session API (`submit` + windowed `wait`) instead of
//! strict request/response alternation — per-op latency then includes
//! time queued in the window. The primary's queue depth is sized to fit
//! the window; replicas keep the default depth (64), so reads may shed
//! `Busy` if `--pipeline` exceeds it.
//!
//! `--replicas n` stands up the replication subsystem: one primary plus
//! `n` snapshot-diff replicas, each serving on its own port with a sync
//! thread pulling epoch diffs while a publisher thread advances the
//! primary's version feed. **Reads go to the replicas** (round-robin by
//! worker thread), updates to the primary — the read scale-out topology
//! the paper's O(changes) diffs make cheap. The final report includes
//! per-replica applied epochs and diff/full transfer bytes.
//!
//! `--log-dir <path>` makes the primary durable: every published epoch
//! is appended to a `pathcopy-durable` segmented log in that directory
//! (diff records between periodic checkpoints) before the publish
//! returns, and the final report prints the log's head, retained epoch
//! range, size, and fsync/IO counters. Reopening the same directory on
//! a later run recovers the head state and continues the epoch
//! sequence. Combine with `--replicas` to exercise the full
//! primary → log → replica pipeline under load.
//!
//! `--metrics` scrapes the primary's per-stage latency histograms
//! (`Request::Metrics`) after the run and prints them in Prometheus
//! text format: decode→reply-encoded execute time and reply
//! write/flush time per request tag, plus the durable log's
//! append+fsync distribution when `--log-dir` is active. Reading the
//! split tells you *where* a latency regression lives — execute time
//! rises when the backend slows down, write time when replies outpace
//! the sockets or the loop is busy with other connections.
//!
//! `--subscribe` switches the replica tier from pull to **push**: each
//! replica registers for the primary's feed and applies unsolicited
//! epoch-diff frames (`PushReplica::pump`) instead of polling
//! `PullDiff`. `--relays r` (implies `--subscribe`) inserts `r` relay
//! nodes between the primary and the replicas: relays subscribe to the
//! primary, re-serve the feed under the primary's epoch numbers, and
//! the replicas subscribe to the relays round-robin — the primary's
//! push egress then scales with `r`, not with the replica count. The
//! final report prints per-node push/gap/resubscribe counters.
//!
//! `--trace` turns on the cluster-wide flight recorders: every node
//! (primary, relays, push replicas) gets a `pathcopy-trace` ring, the
//! publisher mints a sampled trace context per epoch, and the context
//! rides the proto-v3 envelope through queue → execute → append+fsync
//! → push fan-out → relay re-serve → leaf apply. After the run,
//! loadgen pulls each node's `TraceDump` over the wire and renders the
//! worst stitched trace end to end, with epoch numbers. `--slow-ms t`
//! arms slow-request capture: any traced request whose total exceeds
//! `t` ms has its span chain pinned past ring eviction on every node.
//!
//! `--metrics-interval n` prints last-window client-side latency
//! percentiles every `n` seconds (successive snapshots differenced via
//! `HistogramSnapshot::delta`), so a long run shows drift over time
//! instead of one blended end-of-run summary.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use std::sync::Arc;

use pathcopy_bench::cli::Args;
use pathcopy_bench::table::{group_thousands, Series};
use pathcopy_concurrent::BatchOp;
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_metrics::LatencyHistogram;
use pathcopy_replica::{cluster, PushOutcome, PushReplica};
use pathcopy_server::{
    backend, render_text, render_trace, trace_ids, Client, FeedSink, Flight, MetricsSource as _,
    Request, ServerConfig, SpanRecord, Ticket, TraceContext,
};
use pathcopy_workloads::{KeyDist, MixedStream, Op, OpStream as _};

fn main() {
    let args = Args::from_env();
    let threads: usize = args.get_or("threads", 4);
    let total_ops: u64 = args.get_or("ops", 100_000);
    let backend_name: String = args.get_or("backend", "sharded_map_8".to_string());
    let read_frac: f64 = args.get_or("read-frac", 0.9);
    let theta: f64 = args.get_or("theta", 0.99);
    let keys: u64 = args.get_or("keys", 65_536);
    let batch: usize = args.get_or("batch", 1);
    let pipeline: usize = args.get_or("pipeline", 1);
    let replicas: usize = args.get_or("replicas", 0);
    let relays: usize = args.get_or("relays", 0);
    let subscribe = args.has_flag("subscribe") || relays > 0;
    let prefill: u64 = args.get_or("prefill", keys / 2);
    let seed: u64 = args.get_or("seed", 42);
    let publish_ms: u64 = args.get_or("publish-ms", 2);
    let json: Option<String> = args.get("json").map(String::from);
    let log_dir: Option<String> = args.get("log-dir").map(String::from);
    let show_metrics = args.has_flag("metrics");
    let trace_on = args.has_flag("trace");
    let slow_ms: u64 = args.get_or("slow-ms", 0);
    let metrics_interval: u64 = args.get_or("metrics-interval", 0);

    assert!(threads >= 1, "--threads must be at least 1");
    assert!(batch >= 1, "--batch must be at least 1");
    assert!(pipeline >= 1, "--pipeline must be at least 1");

    // One flight recorder per node, all armed with the same slow-request
    // threshold so a slow epoch pins its span chain cluster-wide.
    let slow_threshold = (slow_ms > 0).then(|| Duration::from_millis(slow_ms));
    let new_flight = |name: &str| {
        let flight = Flight::new(name);
        flight.set_slow_threshold(slow_threshold);
        flight
    };

    let Some(engine) = backend::by_name(&backend_name) else {
        let names: Vec<&str> = backend::backends().iter().map(|b| b.name).collect();
        eprintln!("unknown --backend {backend_name}; available: {names:?}");
        std::process::exit(2);
    };

    // --log-dir: persist every published epoch through the feed sink,
    // continuing the epoch sequence a previous run left in the log.
    // The queue depth must fit the pipeline window or the primary would
    // shed the tail of every full window as Busy.
    let mut config = ServerConfig::builder()
        .queue_depth(64.max(pipeline + 1))
        .build();
    let primary_flight = trace_on.then(|| new_flight("primary"));
    config.trace = primary_flight.clone();
    let mut durable: Option<(Arc<EpochLog>, Arc<FeedPersister>)> = None;
    if let Some(dir) = &log_dir {
        let (log, recovered) =
            EpochLog::open(dir, LogConfig::default()).expect("open --log-dir epoch log");
        if recovered.head > 0 {
            println!(
                "durable log: recovered head epoch {} ({} segment(s), {} byte(s) of torn tail truncated)",
                recovered.head, recovered.segments, recovered.truncated_bytes
            );
        }
        let log = Arc::new(log);
        let persister = FeedPersister::new(Arc::clone(&log));
        if let Some(flight) = &primary_flight {
            // Traced publishes then record their append+fsync span into
            // the primary's recorder, inside the publish's timeline.
            persister.attach_flight(Arc::clone(flight));
        }
        config.feed_start = log.head() + 1;
        config.feed_sink = Some(Arc::clone(&persister) as Arc<dyn FeedSink>);
        durable = Some((log, persister));
    }
    let server = pathcopy_server::spawn(engine, config).expect("bind ephemeral loopback port");
    if let Some((_, persister)) = &durable {
        // The log's append+fsync histogram joins `Request::Metrics`
        // scrapes alongside the event loop's own stages.
        server.register_metrics_source(Arc::clone(persister) as _);
    }
    let addr = server.addr();

    // Prefill through the wire in large batches, so measured traffic
    // starts from a realistically populated map.
    {
        let mut c = Client::connect(addr).expect("connect for prefill");
        let mut rng_key = seed | 1;
        for chunk_start in (0..prefill).step_by(512) {
            let ops: Vec<_> = (chunk_start..(chunk_start + 512).min(prefill))
                .map(|_| {
                    // splitmix-style scramble keeps prefill keys inside the
                    // workload's key space without an extra RNG dependency.
                    rng_key = rng_key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
                    key_in_space(rng_key, keys)
                })
                .map(|k| BatchOp::Insert(k, k))
                .collect();
            if !ops.is_empty() {
                c.batch(&ops).expect("prefill batch");
            }
        }
    }

    // The replication tier: bootstrapped replicas serving on their own
    // ports, kept fresh by per-replica sync threads while a publisher
    // advances the primary's feed.
    let mut nodes = Vec::new();
    let mut push_nodes: Vec<PushReplica> = Vec::new();
    let mut read_addrs: Vec<std::net::SocketAddr> = Vec::new();
    // Every push node's serve address, in `push_nodes` order, for the
    // post-run `TraceDump` sweep.
    let mut trace_addrs: Vec<std::net::SocketAddr> = Vec::new();
    if subscribe {
        // The push tier: optional relays subscribed to the primary,
        // then the read replicas subscribed round-robin to the relays
        // (or straight to the primary when there are none).
        let mut relay_addrs = Vec::new();
        for r in 0..relays {
            let store = backend::by_name(&backend_name).expect("relay backend");
            let mut relay = PushReplica::connect(addr, store).expect("stand up relay");
            if trace_on {
                relay.set_trace(new_flight(&format!("relay{r}")));
            }
            let relay_addr = relay
                .serve_relay(ServerConfig::default())
                .expect("bind relay listener");
            relay_addrs.push(relay_addr);
            trace_addrs.push(relay_addr);
            push_nodes.push(relay);
        }
        for i in 0..replicas {
            let upstream = if relay_addrs.is_empty() {
                addr
            } else {
                relay_addrs[i % relay_addrs.len()]
            };
            let store = backend::by_name(&backend_name).expect("replica backend");
            let mut leaf = PushReplica::connect(upstream, store).expect("stand up push replica");
            if trace_on {
                leaf.set_trace(new_flight(&format!("leaf{i}")));
            }
            let leaf_addr = leaf
                .serve_relay(ServerConfig::default())
                .expect("bind replica listener");
            read_addrs.push(leaf_addr);
            trace_addrs.push(leaf_addr);
            push_nodes.push(leaf);
        }
        if replicas > 0 || relays > 0 {
            println!(
                "replication: push mode, {relays} relay(s) + {replicas} replica(s) \
                 bootstrapped at epoch {}; reads target the replicas",
                push_nodes.first().map_or(0, |n| n.applied_epoch())
            );
        }
    } else {
        nodes = cluster(addr, replicas, &backend_name).expect("stand up replicas");
        read_addrs = nodes.iter().map(|n| n.server.addr()).collect();
        if replicas > 0 {
            println!(
                "replication: {replicas} replica(s) bootstrapped at epoch {}; reads target the replicas",
                nodes[0].replica.applied_epoch()
            );
        }
    }
    let stop = AtomicBool::new(false);

    let per_thread = total_ops / threads as u64;
    let start = Instant::now();
    // One lock-free histogram replaces the old collect-and-sort vector:
    // workers record concurrently, the report reads one snapshot.
    let latency_hist = LatencyHistogram::new();
    let mut done_ops = 0u64;
    let mut synced_nodes = Vec::new();
    let mut pumped_nodes = Vec::new();

    std::thread::scope(|scope| {
        // Background replication machinery. The publisher also runs for
        // a durable-but-replica-less primary (--log-dir alone): the log
        // persists *published* epochs, so without publishes it would
        // record nothing.
        let mut sync_handles = Vec::new();
        let mut pump_handles = Vec::new();
        if replicas > 0 || relays > 0 || log_dir.is_some() || trace_on {
            let stop_ref = &stop;
            scope.spawn(move || {
                let mut publisher = Client::connect(addr).expect("publisher connect");
                // When tracing, every epoch gets its own sampled context
                // (splitmix-scrambled id, never zero) so each publish's
                // journey across the tree is one stitchable trace.
                let mut trace_seq = seed | 1;
                while !stop_ref.load(Ordering::Relaxed) {
                    if trace_on {
                        trace_seq = trace_seq
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .rotate_left(31);
                        publisher
                            .publish_traced(&TraceContext::sampled(trace_seq))
                            .expect("publish epoch");
                    } else {
                        publisher.publish().expect("publish epoch");
                    }
                    std::thread::sleep(Duration::from_millis(publish_ms));
                }
            });
        }
        if replicas > 0 {
            for node in nodes {
                let stop_ref = &stop;
                sync_handles.push(scope.spawn(move || {
                    let mut node = node;
                    while !stop_ref.load(Ordering::Relaxed) {
                        let outcome = node.replica.sync_once().expect("replica sync");
                        if let pathcopy_replica::SyncOutcome::Diff { changes: 0, .. } = outcome {
                            // At the head: don't hammer the primary.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    node
                }));
            }
        }
        for node in push_nodes {
            let stop_ref = &stop;
            pump_handles.push(scope.spawn(move || {
                // The push duty cycle: block on the subscription,
                // apply, mirror. Gaps repair themselves on the next
                // frame; the publisher keeps frames coming.
                let mut node = node;
                while !stop_ref.load(Ordering::Relaxed) {
                    match node.pump(Duration::from_millis(5)).expect("push pump") {
                        PushOutcome::Idle
                        | PushOutcome::Stale { .. }
                        | PushOutcome::Pushed { .. }
                        | PushOutcome::CaughtUp { .. } => {}
                    }
                }
                node
            }));
        }

        if metrics_interval > 0 {
            // Windowed percentiles: successive snapshots differenced
            // with `HistogramSnapshot::delta`, so each line reflects
            // only the last window rather than the since-start blend.
            let stop_ref = &stop;
            let hist = &latency_hist;
            scope.spawn(move || {
                let window = Duration::from_secs(metrics_interval);
                let mut prev = hist.snapshot();
                let mut due = Instant::now() + window;
                while !stop_ref.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    if Instant::now() < due {
                        continue;
                    }
                    due += window;
                    let cur = hist.snapshot();
                    let win = cur.delta(&prev);
                    prev = cur;
                    if win.count() == 0 {
                        continue;
                    }
                    println!(
                        "window[{metrics_interval}s]: ops={} p50={:.1}us p95={:.1}us \
                         p99={:.1}us max={:.1}us",
                        win.count(),
                        win.value_at_percentile(50.0) as f64 / 1e3,
                        win.value_at_percentile(95.0) as f64 / 1e3,
                        win.value_at_percentile(99.0) as f64 / 1e3,
                        win.max() as f64 / 1e3,
                    );
                }
            });
        }

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let read_addr = if read_addrs.is_empty() {
                addr
            } else {
                read_addrs[t % read_addrs.len()]
            };
            let hist = &latency_hist;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("worker connect");
                // With replicas, reads go to this thread's replica over a
                // second connection; without, `reader` is just the primary.
                let mut reader = if read_addr == addr {
                    None
                } else {
                    Some(Client::connect(read_addr).expect("replica connect"))
                };
                let mut stream = MixedStream::new(
                    KeyDist::Zipf { n: keys, theta },
                    read_frac,
                    seed ^ (0xc2b2_ae35 + t as u64),
                );
                let mut ops_run = 0u64;
                let mut pending: Vec<BatchOp<i64, i64>> = Vec::with_capacity(batch);
                if pipeline > 1 {
                    // Windowed mode: keep up to `pipeline` tickets open
                    // per session; wait only when the window is full.
                    // Per-op latency spans submit→response, so it
                    // includes time queued behind the window.
                    let primary = client.into_session();
                    let reader = reader.map(Client::into_session);
                    let mut window: std::collections::VecDeque<(Instant, Ticket, usize)> =
                        std::collections::VecDeque::with_capacity(pipeline);
                    let drain_one =
                        |window: &mut std::collections::VecDeque<(Instant, Ticket, usize)>| {
                            let (t0, ticket, n) = window.pop_front().expect("non-empty window");
                            ticket.wait().expect("pipelined response");
                            let ns = t0.elapsed().as_nanos() as u64;
                            // One round trip carried `n` ops.
                            hist.record_n(ns / n as u64, n as u64);
                        };
                    while ops_run < per_thread {
                        let op = stream.next_op();
                        let (to_reader, req, n_ops) = if batch > 1 && op.is_update() {
                            pending.push(match op {
                                Op::Insert(k) => BatchOp::Insert(k, k),
                                Op::Remove(k) => BatchOp::Remove(k),
                                Op::Contains(_) => unreachable!("updates only"),
                            });
                            ops_run += 1;
                            if pending.len() < batch {
                                continue;
                            }
                            let n = pending.len();
                            let req = Request::Batch {
                                ops: std::mem::take(&mut pending),
                                guarded: false,
                            };
                            pending.reserve(batch);
                            (false, req, n)
                        } else {
                            ops_run += 1;
                            match op {
                                Op::Contains(k) => (reader.is_some(), Request::Get { key: k }, 1),
                                Op::Insert(k) => (false, Request::Insert { key: k, value: k }, 1),
                                Op::Remove(k) => (false, Request::Remove { key: k }, 1),
                            }
                        };
                        if window.len() == pipeline {
                            drain_one(&mut window);
                        }
                        let session = if to_reader {
                            reader.as_ref().expect("reader session")
                        } else {
                            &primary
                        };
                        let ticket = session.submit(&req).expect("pipelined submit");
                        window.push_back((Instant::now(), ticket, n_ops));
                    }
                    if !pending.is_empty() {
                        let n = pending.len();
                        let req = Request::Batch {
                            ops: std::mem::take(&mut pending),
                            guarded: false,
                        };
                        let ticket = primary.submit(&req).expect("final batch submit");
                        window.push_back((Instant::now(), ticket, n));
                    }
                    while !window.is_empty() {
                        drain_one(&mut window);
                    }
                    return ops_run;
                }
                while ops_run < per_thread {
                    let op = stream.next_op();
                    if batch > 1 && op.is_update() {
                        pending.push(match op {
                            Op::Insert(k) => BatchOp::Insert(k, k),
                            Op::Remove(k) => BatchOp::Remove(k),
                            Op::Contains(_) => unreachable!("updates only"),
                        });
                        if pending.len() == batch {
                            let t0 = Instant::now();
                            client.batch(&pending).expect("batch");
                            let ns = t0.elapsed().as_nanos() as u64;
                            // One round trip carried `batch` ops.
                            hist.record_n(ns / pending.len() as u64, pending.len() as u64);
                            pending.clear();
                        }
                        ops_run += 1;
                        continue;
                    }
                    let t0 = Instant::now();
                    match op {
                        Op::Contains(k) => {
                            reader.as_mut().unwrap_or(&mut client).get(k).expect("get");
                        }
                        Op::Insert(k) => {
                            client.insert(k, k).expect("insert");
                        }
                        Op::Remove(k) => {
                            client.remove(k).expect("remove");
                        }
                    }
                    hist.record(t0.elapsed().as_nanos() as u64);
                    ops_run += 1;
                }
                if !pending.is_empty() {
                    client.batch(&pending).expect("final batch");
                }
                ops_run
            }));
        }
        for h in handles {
            done_ops += h.join().expect("worker panicked");
        }
        stop.store(true, Ordering::Relaxed);
        for h in sync_handles {
            synced_nodes.push(h.join().expect("sync thread panicked"));
        }
        for h in pump_handles {
            pumped_nodes.push(h.join().expect("pump thread panicked"));
        }
    });

    let elapsed = start.elapsed();
    let latencies = latency_hist.snapshot();
    let (p50, p95, p99, max) = (
        latencies.value_at_percentile(50.0),
        latencies.value_at_percentile(95.0),
        latencies.value_at_percentile(99.0),
        latencies.max(),
    );
    let ops_per_sec = done_ops as f64 / elapsed.as_secs_f64();

    let final_stats = {
        let mut c = Client::connect(addr).expect("stats connect");
        c.stats().expect("stats")
    };

    println!(
        "loadgen: backend={backend_name} threads={threads} ops={done_ops} \
         read_frac={read_frac:.2} zipf(n={keys}, theta={theta}) batch={batch} \
         pipeline={pipeline} replicas={replicas}"
    );
    let table = Series {
        title: format!(
            "Server round-trip throughput/latency ({} ops/sec)",
            group_thousands(ops_per_sec as u64)
        ),
        columns: vec![
            "threads".into(),
            "ops".into(),
            "secs".into(),
            "kops_per_sec".into(),
            "p50_us".into(),
            "p95_us".into(),
            "p99_us".into(),
            "max_us".into(),
        ],
        rows: vec![vec![
            threads as f64,
            done_ops as f64,
            elapsed.as_secs_f64(),
            ops_per_sec / 1e3,
            p50 as f64 / 1e3,
            p95 as f64 / 1e3,
            p99 as f64 / 1e3,
            max as f64 / 1e3,
        ]],
    };
    print!("{}", table.render());
    println!(
        "engine: ops={} attempts={} cas_failures={} frozen_installs={} freeze_retries={} len={}",
        final_stats.ops,
        final_stats.attempts,
        final_stats.cas_failures,
        final_stats.frozen_installs,
        final_stats.freeze_retries,
        final_stats.len,
    );
    for (i, node) in synced_nodes.iter().enumerate() {
        let s = node.replica.stats();
        println!(
            "replica[{i}]: applied_epoch={} lag={} diff_pulls={} diff_bytes={} \
             full_syncs={} full_bytes={} ring_fallbacks={}",
            s.applied_epoch,
            s.lag(),
            s.diff_pulls,
            s.diff_bytes,
            s.full_syncs,
            s.full_bytes,
            s.ring_fallbacks,
        );
    }
    for (i, node) in pumped_nodes.iter().enumerate() {
        let role = if i < relays { "relay" } else { "push-replica" };
        let p = node.push_stats();
        let s = node.pull_stats();
        println!(
            "{role}[{i}]: applied_epoch={} pushes={} push_entries={} stale={} gaps={} \
             resubscribes={} repair_diff_pulls={} full_syncs={}",
            s.applied_epoch,
            p.pushes_applied,
            p.push_entries,
            p.stale_pushes,
            p.push_gaps,
            p.resubscribes,
            s.diff_pulls,
            s.full_syncs,
        );
    }

    if let Some((log, persister)) = &durable {
        let io = log.io_stats();
        let (oldest, head) = log.retained().unwrap_or((0, 0));
        println!(
            "durable log: head={head} retained={oldest}..={head} segments={} bytes={} \
             appends={} fsyncs={} bytes_written={} append_errors={}",
            log.segment_count(),
            log.total_bytes(),
            io.appends,
            io.fsyncs,
            io.bytes_written,
            persister.error_count(),
        );
        if let Some(e) = persister.take_error() {
            eprintln!("durable log: last append error: {e}");
        }
    }

    if show_metrics {
        // Scrape the primary the way an external collector would — over
        // the wire — and print the text exposition.
        let mut c = Client::connect(addr).expect("metrics connect");
        let rows = c.metrics().expect("metrics scrape");
        println!("--- metrics (primary) ---");
        print!("{}", render_text(&rows));
        for (i, node) in pumped_nodes.iter().enumerate() {
            let role = if i < relays { "relay" } else { "push-replica" };
            let rows = node.metrics().collect();
            println!("--- metrics ({role}[{i}] push path) ---");
            print!("{}", render_text(&rows));
        }
    }

    if trace_on {
        // Pull every node's flight recorder over the wire — the same
        // `TraceDump` frame an operator's tooling would use — stitch
        // the dumps, and render the worst fully-propagated trace.
        let mut dumps: Vec<(String, Vec<SpanRecord>)> = Vec::new();
        {
            let mut c = Client::connect(addr).expect("trace connect");
            dumps.push(c.trace_dump().expect("primary trace dump"));
        }
        for node_addr in &trace_addrs {
            let mut c = Client::connect(*node_addr).expect("trace connect");
            dumps.push(c.trace_dump().expect("node trace dump"));
        }
        for (node, spans) in &dumps {
            println!("trace: node {node} captured {} span(s)", spans.len());
        }
        // "Worst" = among the best-stitched traces (most nodes), the
        // one with the largest total recorded time.
        let best = trace_ids(&dumps)
            .into_iter()
            .map(|id| {
                let nodes = dumps
                    .iter()
                    .filter(|(_, s)| s.iter().any(|r| r.trace_id == id))
                    .count();
                let total: u64 = dumps
                    .iter()
                    .flat_map(|(_, s)| s)
                    .filter(|r| r.trace_id == id)
                    .map(|r| r.dur_ns)
                    .sum();
                (nodes, total, id)
            })
            .max_by_key(|&(nodes, total, _)| (nodes, total));
        match best {
            Some((nodes, _, id)) => {
                println!("--- worst trace (stitched across {nodes} node(s)) ---");
                print!("{}", render_trace(id, &dumps));
            }
            None => println!("trace: no sampled spans captured"),
        }
    }

    if let Some(path) = json {
        // Same JSON-lines schema as the criterion shim's BENCH_JSON hook,
        // so loadgen results aggregate into the same trend artifacts.
        // `/p{n}` appears only for pipelined runs so that the default
        // serial series keeps its historical trend ids.
        let pipe_seg = if pipeline > 1 {
            format!("/p{pipeline}")
        } else {
            String::new()
        };
        let prefix = format!("loadgen/{backend_name}/t{threads}/b{batch}/r{replicas}{pipe_seg}");
        let per_op_ns = elapsed.as_nanos() as f64 / done_ops.max(1) as f64;
        let lines = [
            format!(
                "{{\"id\":\"{prefix}/throughput\",\"median_ns\":{per_op_ns:.1},\
                 \"samples\":{done_ops},\"mode\":\"loadgen\"}}"
            ),
            format!(
                "{{\"id\":\"{prefix}/latency_p50\",\"median_ns\":{p50}.0,\
                 \"samples\":{done_ops},\"mode\":\"loadgen\"}}"
            ),
        ];
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                for line in &lines {
                    writeln!(f, "{line}")?;
                }
                Ok(())
            });
        match written {
            Ok(()) => println!("json: appended {} line(s) to {path}", lines.len()),
            Err(e) => eprintln!("loadgen: cannot append to {path}: {e}"),
        }
    }

    // Replica servers shut down when their handles drop.
    for node in synced_nodes {
        node.server.shutdown();
    }
    server.shutdown();
}

/// Maps a scrambled word into the workload key space `[0, keys)`.
fn key_in_space(word: u64, keys: u64) -> i64 {
    (word % keys.max(1)) as i64
}
