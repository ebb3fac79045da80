//! Log-seeded replica bootstrap: a replica loads its store from the
//! primary's durable epoch log with **zero** wire bytes — asserted via
//! the client's exact `ByteCounters` accounting — and then converges
//! through the normal incremental diff path.

use std::path::PathBuf;
use std::sync::Arc;

use pathcopy_durable::{EpochLog, FeedPersister, LogConfig};
use pathcopy_replica::{Replica, SyncOutcome};
use pathcopy_server::backend::{self, ShardedServe};
use pathcopy_server::{Client, FeedSink, ServerConfig, ServerHandle};

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

    // Bootstrap from the log: the connection exists but stays silent.
    let mut replica =
        Replica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    let head = replica.seed_from_log(&log).unwrap();
    assert_eq!(head, seeded_epoch);
    let wire = replica.primary_wire_bytes();
    assert_eq!(
        (wire.sent, wire.received),
        (0, 0),
        "log seeding must move zero wire bytes"
    );
    let stats = replica.stats();
    assert_eq!(stats.applied_epoch, seeded_epoch);
    assert_eq!((stats.log_seeds, stats.log_seed_entries), (1, 200));
    assert_eq!((stats.full_syncs, stats.diff_pulls), (0, 0));
    assert_eq!(replica.store().get(7), Some(21), "seeded state is live");

    // Converge: new writes flow down the cheap diff path, never a full
    // sync — the seeded epoch is still in the primary's feed ring.
    writer.insert(1000, 1).unwrap();
    writer.remove(0).unwrap();
    writer.publish().unwrap();
    let out = replica.sync_once().unwrap();
    assert!(
        matches!(out, SyncOutcome::Diff { changes: 2, .. }),
        "expected a 2-entry diff, got {out:?}"
    );
    let stats = replica.stats();
    assert_eq!(stats.full_syncs, 0, "no full sync, ever");
    assert_eq!(
        stats.full_bytes, 0,
        "exact accounting: zero full-sync bytes"
    );
    assert!(stats.diff_bytes > 0, "the diff did move (few) bytes");
    assert_eq!(replica.store().get(1000), Some(1));
    assert_eq!(replica.store().get(0), None);
    assert_eq!(replica.store().len(), 200, "-1 removed, +1 added");

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

    // Already synced over the wire: seeding would double-apply.
    let mut synced =
        Replica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    synced.sync_once().unwrap();
    let err = synced.seed_from_log(&log).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // Never synced but the store has local writes: same refusal.
    let dirty_store = backend::by_name("sharded_map_8").unwrap();
    dirty_store.insert(9, 9);
    let mut dirty = Replica::connect(server.addr(), dirty_store).unwrap();
    let err = dirty.seed_from_log(&log).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // An empty log seeds nothing and leaves the replica bootstrappable.
    let empty_dir = scratch("empty-log");
    let (empty_log, _) = EpochLog::open(&empty_dir, LogConfig::default()).unwrap();
    let mut fresh =
        Replica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    assert_eq!(fresh.seed_from_log(&empty_log).unwrap(), 0);
    assert_eq!(fresh.applied_epoch(), 0);
    assert!(matches!(
        fresh.sync_once().unwrap(),
        SyncOutcome::FullSync { .. }
    ));

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&empty_dir).unwrap();
}
