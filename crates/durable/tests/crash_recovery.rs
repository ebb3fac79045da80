//! Crash-recovery oracle tests: random op sequences are published
//! through the real feed-sink path, the process "crashes" by copying
//! the log directory and truncating its newest segment at an arbitrary
//! byte offset (record boundaries *and* mid-record torn writes), and
//! recovery must rebuild exactly the `BTreeMap` oracle's state — at the
//! recovered head and at every retained epoch via point-in-time
//! restore.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pathcopy_concurrent::ShardedTreapMap;
use pathcopy_core::DiffEntry;
use pathcopy_durable::{EpochLog, FeedPersister, LogConfig, LogError};
use pathcopy_server::backend::{ServeBackend, ShardedServe};
use pathcopy_server::{FeedSink, Response, VersionFeed};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, empty scratch directory per call (tests share a process).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pathcopy-durable-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The newest segment file (the only place a torn tail can legally be).
fn newest_segment(dir: &Path) -> Option<PathBuf> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "seg")).then_some(p)
        })
        .collect();
    segs.sort();
    segs.pop()
}

fn assert_matches_oracle(map: &ShardedTreapMap<i64, i64>, oracle: &BTreeMap<i64, i64>, what: &str) {
    assert_eq!(map.len(), oracle.len(), "{what}: len diverged");
    for k in 0..48i64 {
        assert_eq!(map.get(&k), oracle.get(&k).copied(), "{what}: key {k}");
    }
}

/// A primary whose publishes go through the real `FeedSink` path.
struct LoggedPrimary {
    backend: ShardedServe,
    feed: VersionFeed,
    log: Arc<EpochLog>,
    persister: Arc<FeedPersister>,
}

fn logged_primary(dir: &Path, config: LogConfig, feed_capacity: usize) -> LoggedPrimary {
    let (log, _) = EpochLog::open(dir, config).unwrap();
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let feed = VersionFeed::configured(
        feed_capacity,
        log.head() + 1,
        Some(Arc::clone(&persister) as Arc<dyn FeedSink>),
    );
    LoggedPrimary {
        backend: ShardedServe::with_shards(4),
        feed,
        log,
        persister,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Remove(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small key space so removes and overwrites actually hit.
    prop_oneof![
        (0i64..48, -1000i64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..48).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recovery_matches_oracle_at_every_retained_epoch(
        rounds in prop::collection::vec(prop::collection::vec(arb_op(), 1..8), 1..14),
        cut_permille in 0u64..=1000,
    ) {
        let dir = scratch("oracle");
        let config = LogConfig {
            segment_bytes: 384, // several rotations per run
            max_total_bytes: 1 << 20, // no retirement: every epoch stays restorable
            checkpoint_every: 3,
            fsync: false,
        };
        let primary = logged_primary(&dir, config.clone(), usize::MAX);

        // Publish one epoch per round, remembering the oracle's state at
        // each; `states[e]` is the primary's content at epoch `e`.
        let mut oracle = BTreeMap::new();
        let mut states = vec![oracle.clone()];
        for round in &rounds {
            for op in round {
                match *op {
                    Op::Insert(k, v) => {
                        primary.backend.insert(k, v);
                        oracle.insert(k, v);
                    }
                    Op::Remove(k) => {
                        primary.backend.remove(k);
                        oracle.remove(&k);
                    }
                }
            }
            primary.feed.publish_with(|| primary.backend.snapshot(), None);
            states.push(oracle.clone());
        }
        prop_assert_eq!(primary.persister.error_count(), 0);
        prop_assert_eq!(primary.log.head(), rounds.len() as u64);
        drop(primary); // "clean" process exit

        // The crash: copy the log, then shear the newest segment at an
        // arbitrary byte offset — 1000‰ is a clean shutdown, anything
        // else lands on a record boundary or tears a record in half.
        let crashed = scratch("oracle-crashed");
        copy_dir(&dir, &crashed);
        if let Some(seg) = newest_segment(&crashed) {
            let len = std::fs::metadata(&seg).unwrap().len();
            let cut = len * cut_permille / 1000;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .unwrap()
                .set_len(cut)
                .unwrap();
        }

        let (log, recovered) = EpochLog::open(&crashed, config).unwrap();
        prop_assert!(recovered.head <= rounds.len() as u64);
        let (map, head) = log.replay().unwrap();
        prop_assert_eq!(head, recovered.head);
        assert_matches_oracle(&map, &states[head as usize], "replayed head");

        // Point-in-time restore of *every* retained epoch.
        match log.retained() {
            None => prop_assert_eq!(head, 0, "empty log only when nothing survived"),
            Some((oldest, retained_head)) => {
                prop_assert_eq!(retained_head, head);
                prop_assert_eq!(oldest, 1, "no retirement in this config");
                for epoch in oldest..=retained_head {
                    let restored = log.restore_epoch(epoch).unwrap();
                    assert_matches_oracle(
                        &restored,
                        &states[epoch as usize],
                        &format!("restore_epoch({epoch})"),
                    );
                }
                prop_assert!(matches!(
                    log.restore_epoch(retained_head + 1),
                    Err(LogError::UnknownEpoch { .. })
                ));
            }
        }

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&crashed).unwrap();
    }
}

#[test]
fn torn_tail_garbage_is_truncated_and_appends_resume() {
    let dir = scratch("torn");
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    {
        let primary = logged_primary(&dir, config.clone(), 8);
        for k in 1..=3i64 {
            primary.backend.insert(k, k * 10);
            primary
                .feed
                .publish_with(|| primary.backend.snapshot(), None);
        }
        assert_eq!(primary.log.head(), 3);
    }
    // A crash mid-append: a plausible header promising a body that never
    // made it to disk.
    let seg = newest_segment(&dir).unwrap();
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&200u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(&[0xAB; 17]).unwrap();
    }

    let (log, recovered) = EpochLog::open(&dir, config).unwrap();
    assert_eq!(recovered.head, 3, "complete epochs survive the tear");
    assert_eq!(recovered.truncated_bytes, 25, "the torn record is gone");
    let (map, head) = log.replay().unwrap();
    assert_eq!(head, 3);
    assert_eq!(map.get(&3), Some(30));

    // The truncated tail is a clean unit boundary: appends continue.
    log.append_diff(4, &[pathcopy_core::DiffEntry::Added(4, 40)])
        .unwrap();
    assert_eq!(log.head(), 4);
    assert_eq!(log.restore_epoch(4).unwrap().get(&4), Some(40));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checksummed_undecodable_record_is_corrupt_not_truncated() {
    // Record runs whose checksums pass but which the log never writes:
    // a v3 body with an unknown response tag, a version-2 body of an
    // otherwise well-formed `EpochDiff` for the next epoch (the retired
    // envelope), and decodable bodies the scanner must not accept — an
    // unexpected variant, epoch zero, a page of another epoch than its
    // open checkpoint, a diff inside an open checkpoint. A torn append
    // cannot produce any of them (a failed append is rolled back), so
    // recovery must refuse the log rather than drop the records.
    let mut unknown_tag = vec![3u8];
    unknown_tag.extend(0u64.to_le_bytes()); // request id
    unknown_tag.push(0xEE);
    let mut version_2 = vec![2u8, 15]; // version 2, EpochDiff
    version_2.extend(4u64.to_le_bytes()); // to: epoch 4
    version_2.extend(0u32.to_le_bytes()); // no entries
    let encoded = |resp: Response| {
        let mut body = Vec::new();
        resp.encode(&mut body);
        body
    };
    let diff = |to| Response::EpochDiff {
        to,
        entries: vec![DiffEntry::Added(9, 90)],
    };
    let page = |epoch, done| Response::SyncPage {
        epoch,
        entries: vec![(9, 90)],
        done,
    };
    let cases: Vec<(&str, Vec<Vec<u8>>)> = vec![
        ("unknown tag", vec![unknown_tag]),
        ("version 2", vec![version_2]),
        ("unexpected variant", vec![encoded(Response::Published(4))]),
        ("diff for epoch zero", vec![encoded(diff(0))]),
        ("page for epoch zero", vec![encoded(page(0, true))]),
        (
            "page epoch mismatch",
            vec![encoded(page(4, false)), encoded(page(5, true))],
        ),
        (
            "diff inside a checkpoint",
            vec![encoded(page(4, false)), encoded(diff(4))],
        ),
    ];
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    for (what, bodies) in cases {
        let dir = scratch("undecodable");
        {
            let primary = logged_primary(&dir, config.clone(), 8);
            for k in 1..=3i64 {
                primary.backend.insert(k, k * 10);
                primary
                    .feed
                    .publish_with(|| primary.backend.snapshot(), None);
            }
            assert_eq!(primary.log.head(), 3);
        }
        let seg = newest_segment(&dir).unwrap();
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
            for body in &bodies {
                f.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
                f.write_all(&pathcopy_durable::record::crc32(body).to_le_bytes())
                    .unwrap();
                f.write_all(body).unwrap();
            }
        }
        let len = std::fs::metadata(&seg).unwrap().len();
        match EpochLog::open(&dir, config.clone()) {
            Err(LogError::Corrupt { segment, .. }) => assert_eq!(segment, seg, "{what}"),
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok((_, recovered)) => panic!(
                "{what}: recovered to head {} instead of refusing the record",
                recovered.head
            ),
        }
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            len,
            "{what}: the segment is left untouched"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn segments_rotate_and_old_chains_retire_under_the_byte_cap() {
    let dir = scratch("retire");
    let config = LogConfig {
        segment_bytes: 256,
        max_total_bytes: 2048,
        checkpoint_every: 4,
        fsync: false,
    };
    let primary = logged_primary(&dir, config, 8);
    let mut oracle = BTreeMap::new();
    let mut states = vec![oracle.clone()];
    for e in 1..=40i64 {
        primary.backend.insert(e % 48, e);
        oracle.insert(e % 48, e);
        primary
            .feed
            .publish_with(|| primary.backend.snapshot(), None);
        states.push(oracle.clone());
    }
    assert_eq!(primary.persister.error_count(), 0);

    let log = &primary.log;
    assert!(log.segment_count() >= 2, "small segments must rotate");
    let written = log.io_stats().bytes_written;
    assert!(
        log.total_bytes() < written,
        "retirement must have dropped bytes ({} on disk of {written} written)",
        log.total_bytes()
    );
    let (oldest, head) = log.retained().unwrap();
    assert_eq!(head, 40);
    assert!(oldest > 1, "the oldest chain was retired");

    // Every retained epoch restores to the oracle; a retired one errors.
    for epoch in oldest..=head {
        let restored = log.restore_epoch(epoch).unwrap();
        assert_matches_oracle(
            &restored,
            &states[epoch as usize],
            &format!("retained epoch {epoch}"),
        );
    }
    assert!(matches!(
        log.restore_epoch(oldest - 1),
        Err(LogError::UnknownEpoch { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_primary_continues_the_epoch_sequence() {
    let dir = scratch("continue");
    let config = LogConfig {
        fsync: false,
        ..LogConfig::default()
    };
    {
        let primary = logged_primary(&dir, config.clone(), 8);
        for k in 1..=3i64 {
            primary.backend.insert(k, k);
            primary
                .feed
                .publish_with(|| primary.backend.snapshot(), None);
        }
    }

    // Restart: replay the state, continue the feed at head + 1.
    let (log, recovered) = EpochLog::open(&dir, config.clone()).unwrap();
    assert_eq!(recovered.head, 3);
    let (map, head) = log.replay().unwrap();
    let backend = ShardedServe::new(map);
    let log = Arc::new(log);
    let persister = FeedPersister::new(Arc::clone(&log));
    let feed = VersionFeed::configured(
        8,
        head + 1,
        Some(Arc::clone(&persister) as Arc<dyn FeedSink>),
    );
    backend.insert(9, 9);
    assert_eq!(
        feed.publish_with(|| backend.snapshot(), None),
        4,
        "no epoch reuse"
    );
    assert_eq!(persister.error_count(), 0);
    assert_eq!(log.head(), 4);
    assert_eq!(
        log.last_checkpoint(),
        4,
        "first post-recovery publish has no prev snapshot, so it re-bases"
    );
    // History from before the crash is still restorable.
    let old = log.restore_epoch(2).unwrap();
    assert_eq!((old.get(&2), old.get(&9)), (Some(2), None));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn io_counters_track_appends_fsyncs_and_recovery_reads() {
    let dir = scratch("iostats");
    let (log, _) = EpochLog::open(&dir, LogConfig::default()).unwrap();
    let backend = ShardedServe::with_shards(2);
    backend.insert(1, 1);
    log.append_checkpoint(1, backend.snapshot().as_ref())
        .unwrap();
    log.append_diff(2, &[pathcopy_core::DiffEntry::Added(2, 2)])
        .unwrap();
    let io = log.io_stats();
    assert_eq!(io.appends, 2, "one checkpoint page + one diff record");
    assert!(io.fsyncs >= 2, "durable config syncs every epoch");
    assert!(io.bytes_written > 0);
    assert_eq!(io.bytes_read, 0, "no replay yet");
    log.replay().unwrap();
    let after = log.io_stats().since(&io);
    assert!(after.bytes_read > 0, "replay reads the segments back");
    assert_eq!(after.appends, 0);
    drop(log);
    std::fs::remove_dir_all(&dir).unwrap();
}
