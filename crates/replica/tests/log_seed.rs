//! Log-seeded replica bootstrap: a replica loads its store from the
//! primary's durable epoch log and the seed itself moves **zero** wire
//! bytes — asserted via the client's exact `ByteCounters` accounting:
//! the only traffic is one empty catch-up diff pull and the
//! subscription, never a full sync — and then converges through the
//! normal incremental diff path.

use std::path::PathBuf;
use std::sync::Arc;

use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_replica::{PushReplica, SyncOutcome};
use pathcopy_server::backend::{self, ShardedServe};
use pathcopy_server::{Client, FeedInfo, FeedSink, Request, Response, ServerConfig, ServerHandle};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathcopy-logseed-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A primary whose published epochs are persisted to `dir`.
fn logged_server(dir: &std::path::Path) -> (ServerHandle, Arc<EpochLog>) {
    let (log, _) = EpochLog::open(
        dir,
        LogConfig {
            fsync: false,
            ..LogConfig::default()
        },
    )
    .unwrap();
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let server = pathcopy_server::spawn(
        Box::new(ShardedServe::with_shards(8)),
        ServerConfig {
            feed_sink: Some(persister as Arc<dyn FeedSink>),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, log)
}

/// Bytes one frame carrying `body` occupies on the wire: the `u32`
/// length prefix plus the body.
fn framed(body: &[u8]) -> u64 {
    4 + body.len() as u64
}

#[test]
fn log_seed_moves_zero_wire_bytes_then_converges_via_diffs() {
    let dir = scratch("zero-bytes");
    let (server, log) = logged_server(&dir);
    let mut writer = Client::connect(server.addr()).unwrap();
    for k in 0..200i64 {
        writer.insert(k, k * 3).unwrap();
    }
    let seeded_epoch = writer.publish().unwrap();
    assert_eq!(log.head(), seeded_epoch, "publish persisted before reply");

    // Bootstrap from the log: the wire carries one empty diff pull and
    // the subscription, nothing else.
    let mut replica = PushReplica::connect_seeded(
        server.addr(),
        backend::by_name("sharded_map_8").unwrap(),
        &log,
    )
    .unwrap();
    assert_eq!(replica.applied_epoch(), seeded_epoch);
    let stats = replica.pull_stats();
    assert_eq!((stats.log_seeds, stats.log_seed_entries), (1, 200));
    assert_eq!((stats.full_syncs, stats.full_bytes), (0, 0));
    assert_eq!((stats.diff_pulls, stats.diff_entries), (1, 0));
    let mut subscribe = Vec::new();
    Request::SubscribePush { from: seeded_epoch }.encode(&mut subscribe);
    let mut ack = Vec::new();
    Response::SubscribeAck(FeedInfo::default()).encode(&mut ack);
    let wire = replica.primary_wire_bytes();
    assert_eq!(
        wire.sent + wire.received,
        stats.diff_bytes + framed(&subscribe) + framed(&ack),
        "the seed moves zero wire bytes: all traffic is the empty catch-up pull and the subscription"
    );
    assert_eq!(replica.store().get(7), Some(21), "seeded state is live");

    // Converge: new writes flow down the cheap diff path, never a full
    // sync — the seeded epoch is still in the primary's feed ring.
    writer.insert(1000, 1).unwrap();
    writer.remove(0).unwrap();
    writer.publish().unwrap();
    let out = replica.sync_now().unwrap();
    assert!(
        matches!(out, SyncOutcome::Diff { changes: 2, .. }),
        "expected a 2-entry diff, got {out:?}"
    );
    let stats = replica.pull_stats();
    assert_eq!(stats.full_syncs, 0, "no full sync, ever");
    assert_eq!(
        stats.full_bytes, 0,
        "exact accounting: zero full-sync bytes"
    );
    assert!(stats.diff_bytes > 0, "the diff did move (few) bytes");
    assert_eq!(replica.store().get(1000), Some(1));
    assert_eq!(replica.store().get(0), None);
    assert_eq!(replica.store().len(), 200, "-1 removed, +1 added");

    drop(replica);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeding_a_synced_or_dirty_replica_is_refused() {
    let dir = scratch("refused");
    let (server, log) = logged_server(&dir);
    let mut writer = Client::connect(server.addr()).unwrap();
    writer.insert(1, 1).unwrap();
    writer.publish().unwrap();

    // A store already synced over the wire: seeding would double-apply.
    let synced =
        PushReplica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    assert_eq!(synced.store().get(1), Some(1));
    let err = PushReplica::connect_seeded(server.addr(), Box::new(synced.store()), &log)
        .err()
        .expect("a synced store is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(synced.store().len(), 1, "the synced store is untouched");

    // The store has local writes: seeding would mix them into the log's
    // state.
    let dirty_store = backend::by_name("sharded_map_8").unwrap();
    dirty_store.insert(9, 9);
    let err = PushReplica::connect_seeded(server.addr(), dirty_store, &log)
        .err()
        .expect("a dirty store is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // An empty log seeds nothing: the bootstrap is a full sync.
    let empty_dir = scratch("empty-log");
    let (empty_log, _) = EpochLog::open(&empty_dir, LogConfig::default()).unwrap();
    let fresh = PushReplica::connect_seeded(
        server.addr(),
        backend::by_name("sharded_map_8").unwrap(),
        &empty_log,
    )
    .unwrap();
    let stats = fresh.pull_stats();
    assert_eq!((stats.log_seeds, stats.full_syncs), (0, 1));
    assert_eq!(fresh.store().get(1), Some(1));

    drop(fresh);
    drop(synced);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&empty_dir).unwrap();
}
