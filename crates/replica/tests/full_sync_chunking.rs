//! Regression for the `FrameTooLarge` bootstrap failure: a replica
//! bootstrapping a map whose full state exceeds one wire frame must
//! succeed, because `FullSync` replies are chunked into bounded pages.
//!
//! In release the map is genuinely **larger than one frame** (entries
//! encode past `MAX_FRAME_LEN`), and the test proves it by showing that
//! the *unchunked* scan path refuses exactly where the chunked sync
//! sails through. The debug profile uses a smaller map (the page
//! machinery is identical) to keep `cargo test` quick.

use pathcopy_concurrent::ShardedTreapMap;
use pathcopy_replica::PushReplica;
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::proto::SYNC_PAGE_MAX_ENTRIES;
use pathcopy_server::{backend, Client, ClientError, ServerConfig, WireError, MAX_FRAME_LEN};

#[cfg(debug_assertions)]
const MAP_SIZE: i64 = 200_000;
#[cfg(not(debug_assertions))]
const MAP_SIZE: i64 = 1_100_000; // 16 bytes/entry => ~16.8 MB > MAX_FRAME_LEN

#[test]
fn bootstrap_of_a_map_larger_than_one_frame_never_trips_the_cap() {
    // Engine-side prefill (the wire would make the test about prefill).
    let map: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(8);
    for k in 0..MAP_SIZE {
        map.insert(k, k);
    }
    let server = pathcopy_server::spawn(Box::new(ShardedServe::new(map)), ServerConfig::default())
        .expect("bind ephemeral loopback port");
    let mut c = Client::connect(server.addr()).unwrap();

    if (MAP_SIZE as u64) * 16 > MAX_FRAME_LEN as u64 {
        // The map really is larger than one frame: the unchunked scan
        // path refuses (politely — the connection survives).
        let err = c.range(None, .., 0).unwrap_err();
        assert!(
            matches!(err, ClientError::Server(WireError::TooLarge)),
            "unlimited range of a >frame map must refuse, got {err:?}"
        );
    }

    // Raw page check: even asking for an absurd page size comes back
    // clamped to the server's bound.
    let (epoch, first_page, done) = c.full_sync_page(None, None, u32::MAX).unwrap();
    assert!(!done);
    assert_eq!(first_page.len(), SYNC_PAGE_MAX_ENTRIES as usize);

    // The replica bootstraps the whole thing through bounded segments.
    let replica =
        PushReplica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();
    let stats = replica.pull_stats();
    assert_eq!(
        (stats.full_syncs, stats.diff_pulls),
        (1, 0),
        "bootstrap must be a full sync"
    );
    assert_eq!(stats.full_entries, MAP_SIZE as u64);
    assert_eq!(replica.store().len(), MAP_SIZE as usize);
    assert_eq!(replica.store().get(MAP_SIZE - 1), Some(MAP_SIZE - 1));

    // And it took more than one page to get there.
    let pages_needed = (MAP_SIZE as u64).div_ceil(SYNC_PAGE_MAX_ENTRIES as u64);
    assert!(pages_needed > 1, "test must exercise chunking");
    assert!(
        stats.full_bytes >= MAP_SIZE as u64 * 16,
        "full sync moved the whole map ({} bytes)",
        stats.full_bytes
    );
    drop(c);
    let _ = epoch;
    server.shutdown();
}
