//! BTreeMap-oracle convergence: arbitrary op sequences on the primary,
//! a randomized pull schedule on the replica, and a deliberately tiny
//! feed ring — after **every** sync the replica's store must equal the
//! primary state at its applied epoch, whether it got there by an
//! incremental diff or by the lag-past-ring full-resync path.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use pathcopy_replica::{Replica, SyncOutcome};
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, Client, ServerConfig, ServerHandle};

#[derive(Debug, Clone)]
enum PrimaryOp {
    Insert(i64, i64),
    Remove(i64),
}

fn arb_op() -> impl Strategy<Value = PrimaryOp> {
    // A small key space so removes and overwrites actually hit.
    prop_oneof![
        (0i64..48, any::<i64>()).prop_map(|(k, v)| PrimaryOp::Insert(k, v)),
        (0i64..48).prop_map(PrimaryOp::Remove),
    ]
}

fn feed_server(feed_capacity: usize) -> ServerHandle {
    pathcopy_server::spawn(
        Box::new(ShardedServe::with_shards(8)),
        ServerConfig {
            feed_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral loopback port")
}

fn replica_state(replica: &Replica) -> Vec<(i64, i64)> {
    let (entries, complete) =
        replica
            .store()
            .snapshot()
            .range(Bound::Unbounded, Bound::Unbounded, 0);
    assert!(complete, "unlimited scan is complete");
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replica_equals_primary_at_every_applied_epoch(
        rounds in prop::collection::vec(prop::collection::vec(arb_op(), 0..10), 1..8),
        pulls in prop::collection::vec(any::<bool>(), 1..9),
    ) {
        // Ring of 2: skipping two pulls in a row retires the replica's
        // epoch and forces the full-resync path.
        let server = feed_server(2);
        let mut writer = Client::connect(server.addr()).unwrap();
        let mut replica = Replica::connect(
            server.addr(),
            backend::by_name("sharded_map_8").unwrap(),
        )
        .unwrap();
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();

        // Seed + bootstrap: the first sync is always a full transfer.
        writer.insert(7, 70).unwrap();
        oracle.insert(7, 70);
        let out = replica.sync_once().unwrap();
        prop_assert!(matches!(out, SyncOutcome::FullSync { .. }));
        prop_assert_eq!(
            replica_state(&replica),
            oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );

        for (i, round) in rounds.iter().enumerate() {
            for op in round {
                match *op {
                    PrimaryOp::Insert(k, v) => {
                        writer.insert(k, v).unwrap();
                        oracle.insert(k, v);
                    }
                    PrimaryOp::Remove(k) => {
                        writer.remove(k).unwrap();
                        oracle.remove(&k);
                    }
                }
            }
            let epoch = writer.publish().unwrap();
            if pulls[i % pulls.len()] {
                let out = replica.sync_once().unwrap();
                // Whichever path it took, the replica must now equal the
                // primary state at its applied epoch. Both paths land on
                // the feed head, which (no concurrent writers here) is
                // exactly the oracle.
                match out {
                    SyncOutcome::Diff { to, .. } => prop_assert_eq!(to, epoch),
                    SyncOutcome::FullSync { to, .. } => prop_assert!(to >= epoch),
                }
                prop_assert_eq!(
                    replica_state(&replica),
                    oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
                    "replica diverged at applied epoch {}",
                    replica.applied_epoch()
                );
            }
        }

        // Final catch-up always converges.
        replica.sync_once().unwrap();
        prop_assert_eq!(
            replica_state(&replica),
            oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
        server.shutdown();
    }
}

#[test]
fn lagging_past_the_ring_forces_a_full_resync_that_still_converges() {
    let server = feed_server(2);
    let mut writer = Client::connect(server.addr()).unwrap();
    let mut replica =
        Replica::connect(server.addr(), backend::by_name("sharded_map_8").unwrap()).unwrap();

    for k in 0..64 {
        writer.insert(k, k).unwrap();
    }
    assert!(matches!(
        replica.sync_once().unwrap(),
        SyncOutcome::FullSync { .. }
    ));
    let bootstrapped_at = replica.applied_epoch();

    // Three publishes against a capacity-2 ring retire the replica's
    // epoch for sure.
    for round in 1..=3i64 {
        writer.insert(round, -round).unwrap();
        writer.publish().unwrap();
    }
    let before = replica.stats();
    assert_eq!(before.ring_fallbacks, 0);
    let out = replica.sync_once().unwrap();
    assert!(
        matches!(out, SyncOutcome::FullSync { .. }),
        "retired epoch must fall back to full sync, got {out:?}"
    );
    let after = replica.stats();
    assert_eq!(after.ring_fallbacks, 1, "the fallback was counted");
    assert!(after.applied_epoch > bootstrapped_at);

    // And the state is right.
    let entries = replica_state(&replica);
    assert_eq!(entries.len(), 64);
    for round in 1..=3i64 {
        assert!(entries.contains(&(round, -round)));
    }
    server.shutdown();
}

#[test]
fn diff_catch_up_applies_atomically_for_replica_readers() {
    // A reader on the replica's own served endpoint must only ever see
    // published versions: pairs (k, -k) written and published together
    // can never be observed torn, because the replica applies each epoch
    // diff as one atomic cross-shard batch.
    let server = feed_server(16);
    let addr = server.addr();
    let mut writer = Client::connect(addr).unwrap();
    writer.insert(0, 0).unwrap();
    writer.insert(1, 0).unwrap();
    writer.publish().unwrap();

    let mut replica = Replica::connect(addr, backend::by_name("sharded_map_8").unwrap()).unwrap();
    replica.sync_once().unwrap();
    let replica_server = replica.serve(ServerConfig::default()).unwrap();
    let replica_addr = replica_server.addr();

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        s.spawn(move || {
            for round in 1..=60i64 {
                writer.insert(0, round).unwrap();
                writer.insert(1, -round).unwrap();
                writer.publish().unwrap();
            }
            done_ref.store(true, std::sync::atomic::Ordering::Release);
        });
        s.spawn(move || {
            // The sync loop, racing the writer.
            while !done_ref.load(std::sync::atomic::Ordering::Acquire) {
                replica.sync_once().unwrap();
            }
            replica.sync_once().unwrap();
        });

        let mut reader = Client::connect(replica_addr).unwrap();
        let mut coherent_reads = 0u32;
        while !done.load(std::sync::atomic::Ordering::Acquire) || coherent_reads < 3 {
            let (entries, complete) = reader.range(None, .., 0).unwrap();
            assert!(complete);
            let a = entries.iter().find(|(k, _)| *k == 0).map(|(_, v)| *v);
            let b = entries.iter().find(|(k, _)| *k == 1).map(|(_, v)| *v);
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a + b, 0, "replica reader saw a torn epoch: {a} vs {b}");
            }
            coherent_reads += 1;
        }
    });
    replica_server.shutdown();
    server.shutdown();
}
