//! The acceptance claim, as an assertion: on a 100k-key map with
//! localized writes, snapshot-diff catch-up moves **asymptotically fewer
//! bytes** than a full sync — O(changes) vs O(n) — measured with the
//! client's exact wire-byte counters.

use pathcopy_concurrent::ShardedTreapMap;
use pathcopy_replica::{Replica, SyncOutcome};
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, Client, ServerConfig};

const MAP_SIZE: i64 = 100_000;
const LOCAL_WRITES: i64 = 500;

#[test]
fn diff_catch_up_moves_asymptotically_fewer_bytes_than_full_sync() {
    let map: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(8);
    for k in 0..MAP_SIZE {
        map.insert(k, k);
    }
    let server = pathcopy_server::spawn(Box::new(ShardedServe::new(map)), ServerConfig::default())
        .expect("bind ephemeral loopback port");
    let addr = server.addr();

    // Bootstrap a replica: this is the O(n) full transfer.
    let mut replica = Replica::connect(addr, backend::by_name("sharded_map_8").unwrap()).unwrap();
    assert!(matches!(
        replica.sync_once().unwrap(),
        SyncOutcome::FullSync { .. }
    ));

    // Localized write burst: 500 keys inside a 2 000-key window of the
    // 100k key space, then publish.
    let mut writer = Client::connect(addr).unwrap();
    for i in 0..LOCAL_WRITES {
        let k = (i * 7) % 2_000; // repeated keys: real overwrite locality
        writer.insert(k, -i).unwrap();
    }
    writer.publish().unwrap();

    // Catch up via the diff path.
    let out = replica.sync_once().unwrap();
    let SyncOutcome::Diff { changes, .. } = out else {
        panic!("catch-up must be incremental, got {out:?}")
    };
    assert!(
        changes <= LOCAL_WRITES as usize,
        "diff is bounded by touched keys"
    );
    assert!(changes > 0);

    let stats = replica.stats();
    assert!(
        stats.full_bytes >= (MAP_SIZE as u64) * 16,
        "full sync carried the whole map: {} bytes",
        stats.full_bytes
    );
    // The asymptotic gap: the full transfer moved the 100k-entry map,
    // the diff moved only the localized change set. Demand a wide margin
    // (50x) so the assertion survives framing overhead forever.
    assert!(
        stats.diff_bytes * 50 < stats.full_bytes,
        "diff bytes ({}) not asymptotically below full-sync bytes ({})",
        stats.diff_bytes,
        stats.full_bytes
    );
    // Sanity on the replica's view after both paths: a key far outside
    // the write window is untouched, and the map size is intact.
    assert_eq!(replica.store().len(), MAP_SIZE as usize);
    assert_eq!(replica.store().get(50_000), Some(50_000));
    server.shutdown();
}
