//! The two key-value workloads: `kv_read_mostly` (one primary, no log)
//! and `kv_write_replicated` (a durable primary feeding one push leaf).
//! Both drive the server through the public client API over loopback.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::{ByteCountersSnapshot, IoCountersSnapshot, StatsSnapshot};
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_metrics::HistogramSnapshot;
use pathcopy_replica::{PushMetrics, PushOutcome, PushReplica, PushStats};
use pathcopy_server::backend::{self, ServeBackend, ShardedServe};
use pathcopy_server::{
    spawn, Client, ClientError, Epoch, FeedSink, Request, Response, ServerConfig, ServerHandle,
    Session, StageSummary, Ticket,
};
use pathcopy_workloads::Op;

use crate::drive::{self, Boundary, PhaseOut, PhaseRec, Worker, MEASURED, TRACED};
use crate::gen::{self, Inputs, Stream, KV_KEYS, THREADS};
use crate::spans::{Spans, Trace};
use crate::stats::{self, ProcSnap, OP, PUBLISH, READ, WRITE};
use crate::{Args, Report, Tally, TempDir};

/// Unrecorded closed-loop time before the first measured phase.
const WARMUP: Duration = Duration::from_secs(2);
/// Setups per run (each takes a tenth of a second or less); `setup_s`
/// is their median.
const SETUP_REPS: usize = 9;
/// The backend both primaries (and the leaf) serve.
const BACKEND: &str = "sharded_map_8";
/// Probe calls per layer in the traced run.
const PROBES: usize = gen::HEAD_OPS;

/// The request tags whose client round trip and server stages the traced
/// run reports: `(wire tag, name)`.
const TAGS: [(u8, &str); 5] = [
    (1, "Get"),
    (2, "Insert"),
    (17, "WriteAt"),
    (11, "Publish"),
    (16, "GetAt"),
];

/// The server's per-tag stages: `(stage byte, metric stem)`.
const SERVER_STAGES: [(u8, &str); 3] = [
    (1, "server.queue_wait_mean_us"),
    (2, "server.execute_mean_us"),
    (3, "server.write_flush_mean_us"),
];
/// How long a watermarked read may wait on the leaf.
const GET_AT_WAIT_MS: u32 = 1000;
/// Values the replicated workload writes start here, so no written
/// value can be mistaken for a prefilled one (which equals its key).
const VALUE_BASE: i64 = 1 << 40;

fn new_backend() -> Result<Box<dyn ServeBackend>, String> {
    backend::by_name(BACKEND).ok_or_else(|| format!("no backend named {BACKEND}"))
}

fn err(what: &str) -> impl Fn(ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One request as submit + wait, so both halves are timed. In the
/// traced phase the call becomes a `client.rtt` span (tagged with the
/// request) under `parent`, with `client.submit` and `client.wait`
/// children.
fn timed_call(
    session: &Session,
    req: &Request,
    spans: &mut Option<Spans>,
    parent: u64,
) -> (Result<Response, ClientError>, Instant, Instant) {
    let start = Instant::now();
    let ticket = session.submit(req);
    let submitted = Instant::now();
    let resp = ticket.and_then(Ticket::wait);
    let end = Instant::now();
    if let Some(spans) = spans.as_mut() {
        let tag = req.tag_byte();
        let rtt = spans.next_id();
        spans.record(rtt, "client.submit", tag, start, submitted);
        spans.record(rtt, "client.wait", tag, submitted, end);
        spans.record_as(rtt, parent, "client.rtt", tag, start, end);
    }
    (resp, start, end)
}

fn request_for(op: Op) -> Request {
    match op {
        Op::Contains(key) => Request::Get { key },
        Op::Insert(key) => Request::Insert { key, value: key },
        Op::Remove(key) => Request::Remove { key },
    }
}

// ---------------------------------------------------------------------------
// kv_read_mostly
// ---------------------------------------------------------------------------

struct ReadMostly {
    client: Arc<Client>,
    ops: Stream,
    /// `Insert`/`Remove` calls, and those among them that changed the map.
    updates: u64,
    changed: u64,
    tally: Tally,
}

impl Worker for ReadMostly {
    fn step(&mut self, rec: &mut PhaseRec) {
        let op = self.ops.next_op();
        let req = request_for(op);
        let (resp, start, end) = timed_call(self.client.session(), &req, &mut rec.spans, 0);
        self.tally.attempted += 1;
        // Every value ever written equals its key.
        let key = op.key();
        match (&req, resp) {
            (Request::Get { .. }, Ok(Response::Got(v)))
            | (Request::Insert { .. }, Ok(Response::Inserted(v)))
            | (Request::Remove { .. }, Ok(Response::Removed(v))) => {
                if v.is_some_and(|v| v != key) {
                    self.tally.fail(|| format!("{req:?} returned {v:?}"));
                }
                match req {
                    Request::Insert { .. } => self.changed += u64::from(v.is_none()),
                    Request::Remove { .. } => self.changed += u64::from(v.is_some()),
                    _ => {}
                }
                self.updates += u64::from(!matches!(req, Request::Get { .. }));
            }
            (_, Ok(other)) => self.tally.fail(|| format!("{req:?} answered {other:?}")),
            (_, Err(e)) => self.tally.fail(|| format!("{req:?} failed: {e}")),
        }
        let class = if matches!(op, Op::Contains(_)) {
            OP | READ
        } else {
            OP | WRITE
        };
        rec.sample(start, end, class);
    }

    fn records_per_step(&self) -> usize {
        3
    }
}

struct Primary {
    handle: ServerHandle,
    clients: Vec<Arc<Client>>,
}

fn setup_read_mostly(inputs: &Inputs) -> Result<Primary, String> {
    let handle = spawn(new_backend()?, ServerConfig::default()).map_err(|e| e.to_string())?;
    for &k in &inputs.prefill {
        handle.backend().insert(k, k);
    }
    let clients = (0..THREADS)
        .map(|_| Client::connect(handle.addr()).map(Arc::new))
        .collect::<Result<_, _>>()
        .map_err(err("connect"))?;
    Ok(Primary { handle, clients })
}

pub fn read_mostly(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = gen::read_mostly(args.seed);
    report
        .tally
        .check(inputs.same_as(&gen::read_mostly(args.seed)), || {
            "seed does not fix the inputs".to_owned()
        });
    eprintln!(
        "perfbench: kv_read_mostly inputs {:016x}",
        inputs.fingerprint()
    );
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut primary = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = primary.take() {
            shutdown_primary(old);
        }
        let started = Instant::now();
        primary = Some(setup_read_mostly(&inputs)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let primary = primary.expect("at least one setup");
    let addr = primary.handle.addr();

    let mut workers: Vec<ReadMostly> = primary
        .clients
        .iter()
        .zip(&inputs.streams)
        .map(|(client, ops)| ReadMostly {
            client: Arc::clone(client),
            ops: ops.clone(),
            updates: 0,
            changed: 0,
            tally: Tally::default(),
        })
        .collect();
    let wire = || sum_wire(primary.clients.iter().map(|c| c.wire_bytes()));
    let window = || KvWindow {
        proc: ProcSnap::now(),
        core: primary.handle.backend().stats(),
        wire: wire(),
    };
    let origin = Instant::now();
    let phases = drive::phases(args.seconds, args.trace, WARMUP);
    let mut before = None;
    let mut after = None;
    let mut scrape_error = None;
    let outs = drive::drive(&mut workers, &phases, origin, |at| match at {
        Boundary::Before(TRACED) => {
            if let Err(e) = reset_metrics(&[addr]) {
                scrape_error = Some(e);
            }
            before = Some(window());
        }
        Boundary::After(TRACED) => after = Some(window()),
        _ => {}
    });
    let (mut updates, mut changed) = (0, 0);
    for w in workers {
        updates += w.updates;
        changed += w.changed;
        report.tally.merge(w.tally);
    }
    report.tally.check_churn(changed, updates);
    if let Some(e) = scrape_error {
        return Err(e);
    }

    if args.trace {
        let stages = scrape(&[addr])?;
        let shed = shed(&[addr])?;
        let mut probe = Spans::new(origin, 0, 4 * PROBES);
        let backend = primary.handle.backend();
        for op in inputs.streams[0].head(PROBES) {
            let start = Instant::now();
            let value = std::hint::black_box(backend.get(op.key()));
            probe.record(0, "concurrent.get", 0, start, Instant::now());
            let resp = match op {
                Op::Contains(_) => Response::Got(value),
                Op::Insert(k) => Response::Inserted(Some(k)),
                Op::Remove(k) => Response::Removed(Some(k)),
            };
            probe_codec(&request_for(op), &resp, &mut probe, &mut report.tally);
        }
        let windows = (
            before.expect("traced window"),
            after.expect("traced window"),
        );
        kv_layers(&mut report, outs, probe, &stages, shed, &windows);
        report.untouched(&[
            "durable.",
            "replica.",
            "concurrent.update",
            "concurrent.alloc",
        ]);
        report.write_spans("kv_read_mostly");
    } else {
        report.set_end_to_end(&outs[MEASURED], &mut setups, &[("Get", READ)]);
    }
    shutdown_primary(primary);
    Ok(report)
}

fn shutdown_primary(primary: Primary) {
    drop(primary.clients);
    primary.handle.shutdown();
}

// ---------------------------------------------------------------------------
// kv_write_replicated
// ---------------------------------------------------------------------------

struct Replicated {
    primary: Arc<Session>,
    leaf: Arc<Session>,
    /// This thread's residue class: the only keys it reads and writes.
    class: i64,
    ops: Stream,
    writes: i64,
    /// Writes that inserted an absent key or removed a present one.
    changed: u64,
    /// What each of this thread's keys holds after its last write.
    expected: Vec<Option<i64>>,
    acked: Arc<AtomicU64>,
    /// `(epoch, when its Publish reply arrived)`, traced phase only.
    publish_replies: Vec<(Epoch, Instant)>,
    tally: Tally,
}

impl Worker for Replicated {
    /// One WriteAt -> Publish -> GetAt cycle; a failure is counted and
    /// ends the cycle.
    fn step(&mut self, rec: &mut PhaseRec) {
        let op = self.ops.next_op();
        let key = op.key();
        let slot = usize::try_from(key).expect("workload keys are non-negative");
        let write = match op {
            Op::Insert(k) => {
                self.writes += 1;
                BatchOp::Insert(k, VALUE_BASE + self.writes * THREADS as i64 + self.class)
            }
            _ => BatchOp::Remove(key),
        };
        self.tally.attempted += 1;
        let cycle = rec.spans.as_mut().map_or(0, Spans::next_id);

        let req = Request::WriteAt { op: write.clone() };
        let (resp, c0, c1) = timed_call(&self.primary, &req, &mut rec.spans, cycle);
        let was = self.expected[slot];
        let watermark = match resp {
            Ok(Response::WroteAt { result, watermark }) => {
                let prev = match (&write, &result) {
                    (BatchOp::Insert(..), BatchResult::Inserted(prev))
                    | (BatchOp::Remove(_), BatchResult::Removed(prev)) => Some(*prev),
                    _ => None,
                };
                if prev != Some(was) {
                    self.tally
                        .fail(|| format!("{req:?} returned {result:?}, key held {was:?}"));
                }
                watermark
            }
            other => {
                self.tally.fail(|| format!("{req:?} -> {other:?}"));
                return;
            }
        };
        self.changed += u64::from(was.is_none() == matches!(write, BatchOp::Insert(..)));
        self.expected[slot] = match write {
            BatchOp::Insert(_, v) => Some(v),
            _ => None,
        };
        rec.sample(c0, c1, WRITE);

        let (resp, p0, p1) = timed_call(&self.primary, &Request::Publish, &mut rec.spans, cycle);
        match resp {
            Ok(Response::Published(epoch)) if epoch >= watermark => {
                self.acked.fetch_max(epoch, Ordering::SeqCst);
                if rec.spans.is_some() {
                    self.publish_replies.push((epoch, p1));
                }
            }
            other => {
                self.tally
                    .fail(|| format!("Publish after watermark {watermark} -> {other:?}"));
                return;
            }
        }
        rec.sample(p0, p1, PUBLISH);

        let req = Request::GetAt {
            key,
            min_epoch: watermark,
            wait_ms: GET_AT_WAIT_MS,
        };
        let (resp, g0, g1) = timed_call(&self.leaf, &req, &mut rec.spans, cycle);
        let want = self.expected[slot];
        match resp {
            Ok(Response::GotAt { value, epoch }) if value == want && epoch >= watermark => {}
            other => {
                self.tally
                    .fail(|| format!("{req:?} -> {other:?}, wrote {want:?}"));
                return;
            }
        }
        rec.sample(g0, g1, READ);
        rec.sample(c0, g1, OP);
        if let Some(spans) = rec.spans.as_mut() {
            spans.record_as(cycle, 0, "cycle", 0, c0, g1);
        }
    }

    fn records_per_step(&self) -> usize {
        10
    }
}

/// The leaf's pump loop, on a thread of its own (part of the system
/// under test, not of the load).
struct Pump {
    stop: Arc<AtomicBool>,
    /// Record when each epoch became visible on the leaf.
    record: Arc<AtomicBool>,
    pushed: Arc<Mutex<Vec<(Epoch, Instant)>>>,
    stats: Arc<Mutex<PushStats>>,
    error: Arc<Mutex<Option<String>>>,
    metrics: Arc<PushMetrics>,
    thread: Option<JoinHandle<PushReplica>>,
}

impl Pump {
    fn spawn(mut leaf: PushReplica) -> Result<Pump, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let record = Arc::new(AtomicBool::new(false));
        let pushed = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(Mutex::new(PushStats::default()));
        let error = Arc::new(Mutex::new(None));
        let metrics = leaf.metrics();
        let (s, r, p, st, e) = (
            Arc::clone(&stop),
            Arc::clone(&record),
            Arc::clone(&pushed),
            Arc::clone(&stats),
            Arc::clone(&error),
        );
        let thread = thread::Builder::new()
            .name("perfbench-leaf-pump".to_owned())
            .spawn(move || {
                while !s.load(Ordering::SeqCst) {
                    match leaf.pump(Duration::from_millis(20)) {
                        Ok(PushOutcome::Pushed { epoch, .. }) if r.load(Ordering::SeqCst) => {
                            p.lock().expect("pushed log").push((epoch, Instant::now()));
                        }
                        Ok(_) => {}
                        Err(err) => {
                            *e.lock().expect("pump error slot") = Some(err.to_string());
                            break;
                        }
                    }
                    *st.lock().expect("push stats") = leaf.push_stats();
                }
                leaf
            })
            .map_err(|e| e.to_string())?;
        Ok(Pump {
            stop,
            record,
            pushed,
            stats,
            error,
            metrics,
            thread: Some(thread),
        })
    }

    fn push_stats(&self) -> PushStats {
        *self.stats.lock().expect("push stats")
    }

    /// Stops the loop and hands the leaf back (dropping it closes the
    /// leaf's relay endpoint and its upstream connection).
    fn stop(&mut self) -> Option<PushReplica> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        drop(self.stop());
    }
}

/// A durable primary plus one push leaf. Field order is teardown order.
struct Cluster {
    sessions: (Arc<Session>, Arc<Session>),
    pump: Pump,
    leaf_addr: std::net::SocketAddr,
    primary: ServerHandle,
    persister: Arc<FeedPersister>,
    dir: TempDir,
}

fn setup_cluster(inputs: &Inputs) -> Result<Cluster, String> {
    let dir = TempDir::new("log").map_err(|e| e.to_string())?;
    let (log, _) = EpochLog::open(dir.path(), LogConfig::default()).map_err(|e| e.to_string())?;
    let persister = FeedPersister::new(Arc::new(log));
    let sink: Arc<dyn FeedSink> = persister.clone();
    let primary = spawn(
        new_backend()?,
        ServerConfig::builder().feed_sink(sink).build(),
    )
    .map_err(|e| e.to_string())?;
    for &k in &inputs.prefill {
        primary.backend().insert(k, k);
    }
    Client::connect(primary.addr())
        .and_then(|mut c| c.publish())
        .map_err(err("prefill publish"))?;
    let mut leaf = PushReplica::connect(primary.addr(), new_backend()?)
        .map_err(|e| format!("leaf bootstrap: {e}"))?;
    let leaf_addr = leaf
        .serve_relay(ServerConfig::default())
        .map_err(|e| format!("leaf relay: {e}"))?;
    let pump = Pump::spawn(leaf)?;
    let sessions = (
        Arc::new(Session::connect(primary.addr()).map_err(err("connect primary"))?),
        Arc::new(Session::connect(leaf_addr).map_err(err("connect leaf"))?),
    );
    Ok(Cluster {
        sessions,
        pump,
        leaf_addr,
        primary,
        persister,
        dir,
    })
}

/// Counters of the durable and replica layers at a phase boundary.
struct ReplWindow {
    kv: KvWindow,
    append_fsync: HistogramSnapshot,
    io: IoCountersSnapshot,
    push_apply: HistogramSnapshot,
    epoch_lag: HistogramSnapshot,
    push: PushStats,
}

pub fn write_replicated(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = gen::write_replicated(args.seed);
    report
        .tally
        .check(inputs.same_as(&gen::write_replicated(args.seed)), || {
            "seed does not fix the inputs".to_owned()
        });
    eprintln!(
        "perfbench: kv_write_replicated inputs {:016x}",
        inputs.fingerprint()
    );
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        drop(cluster.take());
        let started = Instant::now();
        cluster = Some(setup_cluster(&inputs)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one setup");
    let addrs = [cluster.primary.addr(), cluster.leaf_addr];

    let acked = Arc::new(AtomicU64::new(1));
    let mut prefilled = vec![None; KV_KEYS as usize];
    for &k in &inputs.prefill {
        prefilled[usize::try_from(k).expect("non-negative key")] = Some(k);
    }
    let mut workers: Vec<Replicated> = inputs
        .streams
        .iter()
        .enumerate()
        .map(|(t, ops)| Replicated {
            primary: Arc::clone(&cluster.sessions.0),
            leaf: Arc::clone(&cluster.sessions.1),
            class: t as i64,
            ops: ops.clone(),
            writes: 0,
            changed: 0,
            expected: prefilled.clone(),
            acked: Arc::clone(&acked),
            publish_replies: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    let window = |c: &Cluster| ReplWindow {
        kv: KvWindow {
            proc: ProcSnap::now(),
            core: c.primary.backend().stats(),
            wire: sum_wire([c.sessions.0.wire_bytes(), c.sessions.1.wire_bytes()]),
        },
        append_fsync: c.persister.append_fsync_snapshot(),
        io: c.persister.log().io_stats(),
        push_apply: c.pump.metrics.push_apply_snapshot(),
        epoch_lag: c.pump.metrics.epoch_lag_snapshot(),
        push: c.pump.push_stats(),
    };
    let origin = Instant::now();
    let phases = drive::phases(args.seconds, args.trace, WARMUP);
    let mut before = None;
    let mut after = None;
    let mut scrape_error = None;
    let outs = drive::drive(&mut workers, &phases, origin, |at| match at {
        Boundary::Before(TRACED) => {
            if let Err(e) = reset_metrics(&addrs) {
                scrape_error = Some(e);
            }
            cluster.pump.record.store(true, Ordering::SeqCst);
            before = Some(window(&cluster));
        }
        Boundary::After(TRACED) => {
            after = Some(window(&cluster));
            cluster.pump.record.store(false, Ordering::SeqCst);
        }
        _ => {}
    });
    let mut publish_replies = Vec::new();
    let mut expected: BTreeMap<i64, i64> = BTreeMap::new();
    let (mut updates, mut changed) = (0, 0);
    for w in workers {
        updates += w.tally.attempted;
        changed += w.changed;
        for (slot, value) in w.expected.iter().enumerate() {
            if let Some(v) = value.filter(|_| slot as i64 % THREADS as i64 == w.class) {
                expected.insert(slot as i64, v);
            }
        }
        publish_replies.extend(w.publish_replies);
        report.tally.merge(w.tally);
    }
    report.tally.check_churn(changed, updates);
    if let Some(e) = scrape_error {
        return Err(e);
    }

    if args.trace {
        let stages = scrape(&addrs)?;
        let shed = shed(&addrs)?;
        let mut probe = Spans::new(origin, 0, 8 * PROBES);
        let backend = cluster.primary.backend();
        let epoch = acked.load(Ordering::SeqCst);
        for op in inputs.streams[0].head(PROBES) {
            let start = Instant::now();
            let value = std::hint::black_box(backend.get(op.key()));
            probe.record(0, "concurrent.get", 0, start, Instant::now());
            let write = match op {
                Op::Insert(k) => BatchOp::Insert(k, VALUE_BASE),
                _ => BatchOp::Remove(op.key()),
            };
            let messages = [
                (
                    Request::WriteAt { op: write },
                    Response::WroteAt {
                        result: BatchResult::Inserted(value),
                        watermark: epoch,
                    },
                ),
                (Request::Publish, Response::Published(epoch)),
                (
                    Request::GetAt {
                        key: op.key(),
                        min_epoch: epoch,
                        wait_ms: GET_AT_WAIT_MS,
                    },
                    Response::GotAt { value, epoch },
                ),
            ];
            for (req, resp) in &messages {
                probe_codec(req, resp, &mut probe, &mut report.tally);
            }
        }
        let (b, a) = (
            before.expect("traced window"),
            after.expect("traced window"),
        );
        let traced = &outs[TRACED];
        let publishes = traced.count(PUBLISH);
        let writes = traced.count(WRITE);
        let fsync = a.append_fsync.delta(&b.append_fsync);
        // Means, not the histograms' percentiles: those are bucket
        // bounds, so they read the same from run to run.
        report.set(
            "durable.append_fsync_mean_us",
            "us",
            stats::ns_to_us(fsync.mean()),
        );
        report.set(
            "durable.fsyncs_per_publish",
            "ratio",
            (a.io.fsyncs - b.io.fsyncs) as f64 / publishes.max(1) as f64,
        );
        report.set(
            "durable.bytes_per_user_byte",
            "ratio",
            (a.io.bytes_written - b.io.bytes_written) as f64 / (16 * writes.max(1)) as f64,
        );
        report.set(
            "durable.append_errors",
            "count",
            cluster.persister.error_count() as f64,
        );
        let apply = a.push_apply.delta(&b.push_apply);
        report.set(
            "replica.push_apply_mean_us",
            "us",
            stats::ns_to_us(apply.mean()),
        );
        report.set(
            "replica.epoch_lag_max",
            "epochs",
            a.epoch_lag.delta(&b.epoch_lag).max() as f64,
        );
        report.set(
            "replica.push_gaps",
            "count",
            (a.push.push_gaps - b.push.push_gaps) as f64,
        );
        report.set(
            "replica.stale_pushes",
            "count",
            (a.push.stale_pushes - b.push.stale_pushes) as f64,
        );
        report.set(
            "replica.visible_after_publish_p50_us",
            "us",
            visible_after_publish_p50_us(
                &publish_replies,
                &cluster.pump.pushed.lock().expect("pushed log"),
            ),
        );
        kv_layers(&mut report, outs, probe, &stages, shed, &(b.kv, a.kv));
        report.untouched(&["concurrent.update", "concurrent.alloc"]);
        report.write_spans("kv_write_replicated");
    } else {
        report.set_end_to_end(
            &outs[MEASURED],
            &mut setups,
            &[("Publish", PUBLISH), ("GetAt", READ)],
        );
    }
    check_cluster(
        cluster,
        acked.load(Ordering::SeqCst),
        &expected,
        &mut report.tally,
    )?;
    Ok(report)
}

/// After the load: the leaf reaches the last acknowledged epoch and then
/// equals the primary, the primary equals what the writers wrote, and
/// replaying the log reproduces that state at that epoch.
fn check_cluster(
    mut cluster: Cluster,
    last_acked: Epoch,
    expected: &BTreeMap<i64, i64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut primary = Client::connect(cluster.primary.addr()).map_err(err("connect primary"))?;
    let mut leaf = Client::connect(cluster.leaf_addr).map_err(err("connect leaf"))?;
    let head = primary.feed_info().map_err(err("feed info"))?.head;
    tally.check(head == last_acked, || {
        format!("primary feed head {head} != last acknowledged epoch {last_acked}")
    });
    let caught_up = leaf.call(&Request::GetAt {
        key: 0,
        min_epoch: last_acked,
        wait_ms: GET_AT_WAIT_MS,
    });
    tally.check(matches!(caught_up, Ok(Response::GotAt { .. })), || {
        format!("leaf never reached epoch {last_acked}: {caught_up:?}")
    });
    let on_primary = primary.range(None, .., 0).map_err(err("primary scan"))?.0;
    let on_leaf = leaf.range(None, .., 0).map_err(err("leaf scan"))?.0;
    let written: Vec<(i64, i64)> = expected.iter().map(|(&k, &v)| (k, v)).collect();
    tally.check(on_primary == written, || {
        format!(
            "primary holds {} entries, the writers expect {}",
            on_primary.len(),
            written.len()
        )
    });
    tally.check(on_leaf == on_primary, || {
        format!(
            "leaf holds {} entries, primary {}",
            on_leaf.len(),
            on_primary.len()
        )
    });
    drop((primary, leaf));

    if let Some(e) = cluster.pump.error.lock().expect("pump error slot").take() {
        tally.fail(|| format!("leaf pump failed: {e}"));
    }
    let leaf_replica = cluster.pump.stop();
    tally.check(leaf_replica.is_some(), || "leaf pump panicked".to_owned());
    drop(leaf_replica);
    let Cluster {
        sessions,
        primary,
        persister,
        dir,
        ..
    } = cluster;
    drop(sessions);
    primary.shutdown();
    drop(persister);

    let (log, _) = EpochLog::open(dir.path(), LogConfig::default()).map_err(|e| e.to_string())?;
    let (map, replayed) = log.replay().map_err(|e| e.to_string())?;
    tally.check(replayed == last_acked, || {
        format!("log replays to epoch {replayed}, last acknowledged {last_acked}")
    });
    let (from_log, _) =
        ShardedServe::new(map)
            .snapshot()
            .range(Bound::Unbounded, Bound::Unbounded, 0);
    tally.check(from_log == on_primary, || {
        format!(
            "log replay holds {} entries, primary {}",
            from_log.len(),
            on_primary.len()
        )
    });
    Ok(())
}

/// Median delay from a `Publish` reply to the leaf's pump applying that
/// epoch; negative when the leaf applied it before the reply arrived.
fn visible_after_publish_p50_us(replies: &[(Epoch, Instant)], pushed: &[(Epoch, Instant)]) -> f64 {
    let applied: BTreeMap<Epoch, Instant> = pushed.iter().copied().collect();
    let mut delays: Vec<f64> = replies
        .iter()
        .filter_map(|(epoch, replied)| {
            applied.get(epoch).map(|&at| {
                if at >= *replied {
                    (at - *replied).as_secs_f64()
                } else {
                    -(*replied - at).as_secs_f64()
                }
            })
        })
        .collect();
    stats::median(&mut delays) * 1e6
}

// ---------------------------------------------------------------------------
// Shared by both key-value workloads
// ---------------------------------------------------------------------------

/// Counters of the client, engine and process layers at a boundary.
struct KvWindow {
    proc: ProcSnap,
    core: StatsSnapshot,
    wire: u64,
}

fn sum_wire(wires: impl IntoIterator<Item = ByteCountersSnapshot>) -> u64 {
    wires.into_iter().map(|w| w.sent + w.received).sum()
}

fn reset_metrics(addrs: &[std::net::SocketAddr]) -> Result<(), String> {
    for addr in addrs {
        Client::connect(addr)
            .and_then(|mut c| c.reset_metrics())
            .map_err(err("reset metrics"))?;
    }
    Ok(())
}

/// Every stage row of every node, keyed by `(stage, tag)`; a tag served
/// by several nodes keeps the row with the most samples.
fn scrape(addrs: &[std::net::SocketAddr]) -> Result<BTreeMap<(u8, u8), StageSummary>, String> {
    let mut rows: BTreeMap<(u8, u8), StageSummary> = BTreeMap::new();
    for addr in addrs {
        let scraped = Client::connect(addr)
            .and_then(|mut c| c.metrics())
            .map_err(err("scrape"))?;
        for row in scraped {
            let slot = rows.entry((row.stage, row.tag)).or_insert(row);
            if row.count > slot.count {
                *slot = row;
            }
        }
    }
    Ok(rows)
}

fn shed(addrs: &[std::net::SocketAddr]) -> Result<u64, String> {
    let mut shed = 0;
    for addr in addrs {
        shed += Client::connect(addr)
            .and_then(|mut c| c.gauges())
            .map_err(err("gauges"))?
            .requests_shed;
    }
    Ok(shed)
}

/// Times one encode and one decode of `req` and of `resp`, and checks
/// that each decodes back to itself.
fn probe_codec(req: &Request, resp: &Response, spans: &mut Spans, tally: &mut Tally) {
    let tag = req.tag_byte();
    let mut buf = Vec::with_capacity(64);
    let start = Instant::now();
    req.encode_with_id(7, &mut buf);
    let encoded = Instant::now();
    let back = Request::decode_enveloped(&buf);
    let decoded = Instant::now();
    spans.record(0, "proto.encode", tag, start, encoded);
    spans.record(0, "proto.decode", tag, encoded, decoded);
    if !matches!(&back, Ok(f) if &f.msg == req) {
        tally.fail(|| format!("{req:?} does not survive encode + decode"));
    }
    buf.clear();
    let start = Instant::now();
    resp.encode_with_id(7, &mut buf);
    let encoded = Instant::now();
    let back = Response::decode_enveloped(&buf);
    let decoded = Instant::now();
    spans.record(0, "proto.encode", tag, start, encoded);
    spans.record(0, "proto.decode", tag, encoded, decoded);
    if !matches!(&back, Ok(f) if &f.msg == resp) {
        tally.fail(|| format!("{resp:?} does not survive encode + decode"));
    }
}

/// The client, codec, server, engine and process rows of the ledger,
/// plus one reconciliation line per request tag:
/// mean round trip = client submit + server stages + unattributed.
fn kv_layers(
    report: &mut Report,
    outs: Vec<PhaseOut>,
    probe: Spans,
    stages: &BTreeMap<(u8, u8), StageSummary>,
    shed: u64,
    (b, a): &(KvWindow, KvWindow),
) {
    let measured_rate = outs[MEASURED].ops_per_s();
    eprintln!(
        "perfbench: ops per second untraced {:?}, traced {:?}",
        outs[MEASURED].per_second(),
        outs[TRACED].per_second()
    );
    let traced = outs.into_iter().nth(TRACED).expect("traced phase");
    let ops = traced.steps.max(1) as f64;
    report.set(
        "bench.trace_overhead_frac",
        "ratio",
        1.0 - traced.ops_per_s() / measured_rate,
    );
    let mut trace: Trace = traced.trace;
    trace.absorb(probe);

    let attempts = a.core.attempts - b.core.attempts;
    report.set(
        "core.attempts_per_update",
        "ratio",
        attempts as f64 / (a.core.ops - b.core.ops).max(1) as f64,
    );
    report.set(
        "core.cas_fail_frac",
        "ratio",
        (a.core.cas_failures - b.core.cas_failures) as f64 / attempts.max(1) as f64,
    );
    report.set(
        "concurrent.get_ns",
        "ns",
        stats::mean(&trace.durations("concurrent.get", None)),
    );
    report.set(
        "proto.encode_ns",
        "ns",
        stats::mean(&trace.durations("proto.encode", None)),
    );
    report.set(
        "proto.decode_ns",
        "ns",
        stats::mean(&trace.durations("proto.decode", None)),
    );
    report.set("proto.bytes_per_op", "B", (a.wire - b.wire) as f64 / ops);
    let us = |mut v: Vec<u64>| stats::ns_to_us(stats::p50(&mut v) as f64);
    report.set(
        "client.submit_us",
        "us",
        us(trace.durations("client.submit", None)),
    );
    report.set(
        "client.wait_us",
        "us",
        us(trace.durations("client.wait", None)),
    );
    for (tag, name) in TAGS {
        let mut rtt = trace.durations("client.rtt", Some(tag));
        let mean_rtt = stats::mean(&rtt);
        rtt.sort_unstable();
        report.set(
            format!("client.rtt_p50_us.{name}"),
            "us",
            stats::ns_to_us(stats::percentile(&rtt, 50.0) as f64),
        );
        report.set(
            format!("client.rtt_p99_us.{name}"),
            "us",
            stats::ns_to_us(stats::percentile(&rtt, 99.0) as f64),
        );
        let mut stage_means = Vec::new();
        for (stage, stem) in SERVER_STAGES {
            let row = stages.get(&(stage, tag)).copied().unwrap_or_default();
            // The scrape's percentiles are histogram bucket bounds; its
            // sum and count are exact, and means add up along the ledger.
            let mean = if row.count == 0 {
                0.0
            } else {
                row.sum as f64 / row.count as f64
            };
            report.set(format!("{stem}.{name}"), "us", stats::ns_to_us(mean));
            stage_means.push((stem.trim_end_matches("_mean_us"), mean));
        }
        let submit = stats::mean(&trace.durations("client.submit", Some(tag)));
        let unattributed = mean_rtt - submit - stage_means.iter().map(|(_, m)| m).sum::<f64>();
        if tag == 1 {
            report.set(
                "server.unattributed_us.Get",
                "us",
                if rtt.is_empty() {
                    0.0
                } else {
                    stats::ns_to_us(unattributed)
                },
            );
        }
        if !rtt.is_empty() {
            let terms: Vec<String> = stage_means
                .iter()
                .map(|(stem, m)| format!("{stem} {:.2}", stats::ns_to_us(*m)))
                .collect();
            report.lines.push(format!(
                "ledger {name} (mean us, n={}): rtt {:.2} = client.submit {:.2} + {} + unattributed {:.2}",
                rtt.len(),
                stats::ns_to_us(mean_rtt),
                stats::ns_to_us(submit),
                terms.join(" + "),
                stats::ns_to_us(unattributed)
            ));
        }
    }
    report.set("server.shed", "count", shed as f64);
    report.set_process(&b.proc, &a.proc, ops);
    report.trace = trace;
}
