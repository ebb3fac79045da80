//! The replication subsystem end to end: one primary, two snapshot-diff
//! replicas, a writer committing atomic pair-transfers and publishing
//! epochs, and a reader per replica verifying that replicas only ever
//! expose **frozen published versions** — never a half-applied epoch.
//!
//! Invariants the readers check on every scan of a replica:
//!
//! * every account pair `(2i, 2i+1)` sums to zero — a replica applies
//!   each epoch diff as one atomic cross-shard batch, so the writer's
//!   paired updates can never be observed torn;
//! * the version key only moves forward — replicas step through the
//!   primary's monotone epoch feed.
//!
//! The final table shows why this scales reads: each replica
//! bootstrapped once (O(n) bytes) and then followed the feed with
//! pruned diffs (O(changes) bytes per epoch).
//!
//! ```text
//! cargo run --release --example cluster_demo
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use path_copying::prelude::BatchOp;
use pathcopy_replica::cluster;
use pathcopy_server::{backend, Client, ServerConfig};

const PAIRS: i64 = 256;
const VERSION_KEY: i64 = -1;
const ROUNDS: i64 = 300;

fn main() {
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("registered backend"),
        ServerConfig::default(),
    )
    .expect("bind ephemeral loopback port");
    let addr = server.addr();
    println!("primary: sharded_map_8 on {addr}");

    // Seed the accounts and the version key, then publish epoch 1.
    {
        let mut setup = Client::connect(addr).expect("setup connect");
        let mut init: Vec<BatchOp<i64, i64>> =
            (0..PAIRS * 2).map(|k| BatchOp::Insert(k, 0)).collect();
        init.push(BatchOp::Insert(VERSION_KEY, 0));
        setup.batch(&init).expect("seed accounts");
        setup.publish().expect("epoch 1");
    }

    // Two read replicas: bootstrap (full sync) + their own TCP endpoints.
    let nodes = cluster(addr, 2, "sharded_map_8").expect("stand up replicas");
    for (i, node) in nodes.iter().enumerate() {
        println!(
            "replica[{i}]: serving on {} (bootstrapped at epoch {})",
            node.server.addr(),
            node.replica.applied_epoch()
        );
    }
    let reader_addrs: Vec<_> = nodes.iter().map(|n| n.server.addr()).collect();

    let writer_done = AtomicBool::new(false);
    let mut final_nodes = Vec::new();
    let mut reader_reports = Vec::new();
    std::thread::scope(|s| {
        let writer_done = &writer_done;

        // The writer: atomic pair transfers on the primary, one published
        // epoch per round.
        s.spawn(move || {
            let mut writer = Client::connect(addr).expect("writer connect");
            for round in 1..=ROUNDS {
                let pair = (round % PAIRS) * 2;
                writer
                    .batch(&[
                        BatchOp::Insert(pair, round),
                        BatchOp::Insert(pair + 1, -round),
                        BatchOp::Insert(VERSION_KEY, round),
                    ])
                    .expect("pair transfer");
                writer.publish().expect("publish epoch");
            }
            writer_done.store(true, Ordering::Release);
        });

        // The sync loops: one per replica, pulling diffs until the writer
        // finishes and the replica has caught up to the final epoch.
        let mut sync_handles = Vec::new();
        for node in nodes {
            sync_handles.push(s.spawn(move || {
                let mut node = node;
                loop {
                    let outcome = node.replica.sync_once().expect("sync");
                    if writer_done.load(Ordering::Acquire) {
                        if let pathcopy_replica::SyncOutcome::Diff { changes: 0, .. } = outcome {
                            return node;
                        }
                    }
                }
            }));
        }

        // One reader per replica: hammer coherent scans, checking the
        // frozen-version invariants.
        let mut reader_handles = Vec::new();
        for (i, raddr) in reader_addrs.iter().enumerate() {
            let raddr = *raddr;
            reader_handles.push(s.spawn(move || {
                let mut reader = Client::connect(raddr).expect("reader connect");
                let mut last_version = -1i64;
                let mut scans = 0u64;
                while !writer_done.load(Ordering::Acquire) || scans < 5 {
                    let (entries, complete) = reader.range(None, .., 0).expect("scan");
                    assert!(complete);
                    let version = entries
                        .iter()
                        .find(|(k, _)| *k == VERSION_KEY)
                        .map(|(_, v)| *v)
                        .expect("version key present after bootstrap");
                    assert!(
                        version >= last_version,
                        "replica[{i}] went back in time: {version} < {last_version}"
                    );
                    last_version = version;
                    let accounts: Vec<(i64, i64)> =
                        entries.iter().filter(|(k, _)| *k >= 0).copied().collect();
                    assert_eq!(accounts.len() as i64, PAIRS * 2);
                    for pair in accounts.chunks(2) {
                        let [(ka, va), (kb, vb)] = pair else {
                            unreachable!("even account count")
                        };
                        assert_eq!(*kb, ka + 1, "pair keys adjacent");
                        assert_eq!(
                            va + vb,
                            0,
                            "replica[{i}] exposed a torn epoch at pair ({ka},{kb})"
                        );
                    }
                    scans += 1;
                }
                (i, scans, last_version)
            }));
        }

        for h in reader_handles {
            reader_reports.push(h.join().expect("reader panicked"));
        }
        for h in sync_handles {
            final_nodes.push(h.join().expect("sync loop panicked"));
        }
    });

    for (i, scans, version) in &reader_reports {
        println!("reader[{i}]: {scans} coherent scans, 0 torn pairs, final version {version}");
    }
    println!(
        "\n{:>8} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "replica", "applied_epoch", "diff_pulls", "diff_bytes", "full_bytes", "bytes/epoch"
    );
    for (i, node) in final_nodes.iter().enumerate() {
        let s = node.replica.stats();
        println!(
            "{:>8} {:>14} {:>12} {:>12} {:>12} {:>12.1}",
            i,
            s.applied_epoch,
            s.diff_pulls,
            s.diff_bytes,
            s.full_bytes,
            s.diff_bytes as f64 / s.diff_pulls.max(1) as f64,
        );
        assert_eq!(s.lag(), 0, "replica {i} caught up");
    }
    println!(
        "\ndiff catch-up moved O(changes) bytes per epoch; the bootstrap paid O(n) once — \
         that asymmetry is the paper's pruned diff doing replication."
    );
    for node in final_nodes {
        node.server.shutdown();
    }
    server.shutdown();
    println!("cluster shut down cleanly");
}
