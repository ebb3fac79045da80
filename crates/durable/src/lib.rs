//! # pathcopy-durable
//!
//! Durability for the replicated path-copying map: a **segmented epoch
//! log** that persists the primary's version feed, plus crash recovery,
//! point-in-time restore, and replica bootstrap-from-log.
//!
//! The feed already materializes exactly what a write-ahead log wants:
//! an ordered sequence of epochs, each with an O(changes) pruned diff
//! against its predecessor (cheap to compute because path-copied
//! versions share all unchanged subtrees). This crate writes that
//! sequence down:
//!
//! * **Records** reuse the proto-v3 message encoding (request id `0`)
//!   under a checksummed, length-prefixed envelope — a diff record *is*
//!   an encoded `EpochDiff`, a checkpoint *is* a run of bounded
//!   `SyncPage`s (see [`record::crc32`] and `docs/WIRE_PROTOCOL.md`).
//! * **Segments** rotate at a size threshold and retire oldest-first
//!   under a byte cap, in whole checkpoint-anchored chains, so the log
//!   always keeps at least one complete restore path ([`EpochLog`]).
//! * **Recovery** ([`EpochLog::open`]) truncates a torn tail record
//!   (crash mid-append) instead of failing — but refuses, untouched, a
//!   checksummed record it cannot decode — then [`EpochLog::replay`]
//!   rebuilds the head state into a fresh `ShardedTreapMap`.
//! * **Point-in-time restore** ([`EpochLog::restore_epoch`]) rebuilds
//!   *any* retained epoch for historical reads.
//! * **The persister** ([`FeedPersister`]) plugs into the server as a
//!   [`FeedSink`](pathcopy_server::FeedSink): every `Publish` becomes
//!   durable before the client sees its epoch number.
//! * **Replica seeding**: [`EpochLog::replay_into`] loads a replica's
//!   store from the log so it can skip the `FullSync` transfer and join
//!   the diff stream immediately (`Replica::seed_from_log` in
//!   `pathcopy-replica`).
//!
//! ```
//! use pathcopy_core::DiffEntry;
//! use pathcopy_durable::{EpochLog, LogConfig};
//! use pathcopy_server::backend::{ServeBackend, ShardedServe};
//!
//! let dir = std::env::temp_dir().join(format!("pc-durable-doc-lib-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! // A session: checkpoint, two diffs, "crash".
//! {
//!     let (log, _) = EpochLog::open(&dir, LogConfig::default()).unwrap();
//!     let map = ShardedServe::with_shards(4);
//!     map.insert(1, 10);
//!     log.append_checkpoint(1, map.snapshot().as_ref()).unwrap();
//!     log.append_diff(2, &[DiffEntry::Added(2, 20)]).unwrap();
//!     log.append_diff(3, &[DiffEntry::Removed(1, 10)]).unwrap();
//! }
//! // Recovery: reopen and replay.
//! let (log, recovered) = EpochLog::open(&dir, LogConfig::default()).unwrap();
//! assert_eq!(recovered.head, 3);
//! let (state, head) = log.replay().unwrap();
//! assert_eq!(head, 3);
//! assert_eq!((state.get(&1), state.get(&2)), (None, Some(20)));
//! // Point-in-time: epoch 2 still had key 1.
//! assert_eq!(log.restore_epoch(2).unwrap().get(&1), Some(10));
//! # drop(log);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod log;
pub mod persister;
pub mod record;

pub use crate::log::{EpochLog, LogConfig, LogError, RecoveryInfo};
pub use crate::persister::FeedPersister;
