//! The durability subsystem end to end: a primary whose published
//! epochs are persisted to a segmented epoch log, a simulated crash
//! with a **torn tail** (a half-written record at the end of the newest
//! segment), recovery that truncates the tear and continues the epoch
//! sequence, a point-in-time restore of an old epoch, and a replica
//! that bootstraps from the log with **zero full-sync bytes**.
//!
//! The log reuses the proto-v3 wire encoding for its records (v3
//! bodies with request id `0`): a checkpoint is a run of `SyncPage`
//! frames, an incremental epoch is an `EpochDiff` frame, each wrapped
//! in a length + CRC32 envelope. What
//! travels to replicas and what lands on disk are the same bytes.
//!
//! ```text
//! cargo run --release --example durable_demo
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_replica::{PushOutcome, PushReplica};
use pathcopy_server::{backend, Client, FeedSink, ServerConfig};

const ACCOUNTS: i64 = 500;
const EPOCHS: i64 = 12;

fn logged_config(log: &Arc<EpochLog>) -> (ServerConfig, Arc<FeedPersister>) {
    let persister = FeedPersister::new(Arc::clone(log));
    let config = ServerConfig {
        feed_start: log.head() + 1,
        feed_sink: Some(Arc::clone(&persister) as Arc<dyn FeedSink>),
        ..ServerConfig::default()
    };
    (config, persister)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("pathcopy-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = LogConfig {
        checkpoint_every: 4, // dense checkpoints so the demo shows rotation
        ..LogConfig::default()
    };

    // ── Run 1: a durable primary ────────────────────────────────────
    let (log, _) = EpochLog::open(&dir, config.clone()).expect("create log");
    let log = Arc::new(log);
    let (server_config, persister) = logged_config(&log);
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("registered backend"),
        server_config,
    )
    .expect("bind ephemeral loopback port");

    let mut writer = Client::connect(server.addr()).expect("writer connect");
    for k in 0..ACCOUNTS {
        writer.insert(k, 0).expect("seed");
    }
    for round in 1..=EPOCHS {
        writer.insert(round % ACCOUNTS, round).expect("update");
        writer.insert(-round, round).expect("insert");
        let epoch = writer.publish().expect("publish");
        assert_eq!(log.head(), epoch, "persisted before the reply");
    }
    assert_eq!(persister.error_count(), 0, "no append errors");
    let head_before_crash = log.head();
    let io = log.io_stats();
    println!(
        "run 1: published {head_before_crash} epochs, log has {} segment(s), {} bytes \
         ({} appends, {} fsyncs)",
        log.segment_count(),
        log.total_bytes(),
        io.appends,
        io.fsyncs
    );

    // ── Crash: kill the server, then tear the newest segment ────────
    server.shutdown();
    drop(log);
    let newest = std::fs::read_dir(&dir)
        .expect("list segments")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("log has segments");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .expect("open newest segment");
    file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02])
        .expect("simulate a crash mid-append");
    drop(file);
    println!(
        "crash: appended a 7-byte torn record to {}",
        newest.display()
    );

    // ── Run 2: recover, restore, resume ─────────────────────────────
    let (log, recovered) = EpochLog::open(&dir, config).expect("recover log");
    assert_eq!(recovered.truncated_bytes, 7, "the tear, and only the tear");
    assert_eq!(recovered.head, head_before_crash, "no committed epoch lost");
    println!(
        "recover: head {} intact, {} torn byte(s) truncated from the newest segment",
        recovered.head, recovered.truncated_bytes
    );

    // Point-in-time restore: any retained epoch, as it was.
    let (oldest, newest_epoch) = log.retained().expect("non-empty log");
    let target = (oldest + newest_epoch) / 2;
    let old_state = log.restore_epoch(target).expect("point-in-time restore");
    let t = target as i64;
    assert_eq!(old_state.get(&-t), Some(t), "write from epoch {target}");
    assert_eq!(
        old_state.get(&-(t + 1)),
        None,
        "later epochs absent from the restored state"
    );
    println!(
        "restore: epoch {target} rebuilt ({} keys); epoch {}'s writes absent, as they should be",
        old_state.len(),
        target + 1
    );

    // Resume: the recovered primary continues the epoch sequence.
    let log = Arc::new(log);
    let (server_config, _persister) = logged_config(&log);
    let engine = backend::by_name("sharded_map_8").expect("registered backend");
    let replayed = log
        .replay_into(engine.as_ref())
        .expect("replay into engine");
    assert_eq!(replayed, head_before_crash);
    let server = pathcopy_server::spawn(engine, server_config).expect("respawn");
    let mut writer = Client::connect(server.addr()).expect("reconnect");
    writer.insert(0, 777).expect("post-recovery write");
    let resumed = writer.publish().expect("post-recovery publish");
    assert_eq!(
        resumed,
        head_before_crash + 1,
        "no epoch reused, none skipped"
    );
    println!("resume: first post-recovery publish is epoch {resumed}");

    // ── Replica bootstrap from the log: zero full-sync bytes ────────
    let mut replica = PushReplica::connect_seeded(
        server.addr(),
        backend::by_name("sharded_map_8").expect("registered backend"),
        &log,
    )
    .expect("seed from log");
    let stats = replica.pull_stats();
    assert_eq!(
        (stats.log_seeds, stats.full_syncs, stats.full_bytes),
        (1, 0, 0),
        "the log replaced the full sync"
    );
    let wire = replica.primary_wire_bytes();
    println!(
        "seed: replica at epoch {} with {} keys — 0 full-sync bytes; {} wire bytes for one \
         diff pull and the subscription",
        replica.applied_epoch(),
        replica.store().len(),
        wire.sent + wire.received
    );
    assert_eq!(
        replica.store().get(0),
        Some(777),
        "caught up to the live head"
    );
    writer.insert(1, 888).expect("post-seed write");
    let next = writer.publish().expect("post-seed publish");
    let outcome = replica.pump(Duration::from_secs(10)).expect("converge");
    println!("converge: the next epoch arrives as a push → {outcome:?}");
    assert_eq!(
        outcome,
        PushOutcome::Pushed {
            epoch: next,
            changes: 1
        }
    );
    assert_eq!(replica.store().get(1), Some(888));
    drop(replica);

    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("demo cleanup");
    println!("\nthe epoch log survived the crash; nothing published was lost.");
}
