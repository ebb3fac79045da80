//! # pathcopy-replica
//!
//! Snapshot-diff replication over the serving layer: a primary
//! `pathcopy-server` publishes a monotone **version feed** (a capped
//! ring of recent snapshots keyed by epoch —
//! [`pathcopy_server::VersionFeed`]), and a [`PushReplica`] bootstraps
//! from a chunked full sync, subscribes, and then applies every
//! published epoch as a **pruned snapshot-to-snapshot diff** the source
//! pushes to it.
//!
//! This is the paper's central artifact turned into horizontal read
//! scale-out. Path-copied versions share every unchanged subtree, so:
//!
//! * retaining a ring of recent epochs on the primary costs O(changes),
//!   not `K` map copies;
//! * each epoch's diff is computed by pointer-equality pruning —
//!   sublinear in the map size for nearby epochs — and *only the change*
//!   crosses the wire (the replica's byte counters prove it for the
//!   pull path: [`PullStats::diff_bytes`] vs [`PullStats::full_bytes`]);
//! * the replica applies each diff as **one atomic batch** through its
//!   local backend's `transact`, so replica readers only ever observe
//!   published primary versions — frozen epochs, never a torn apply.
//!
//! A replica exposes the same
//! [`ServeBackend`](pathcopy_server::ServeBackend) surface as the
//! primary ([`PushReplica::serve_relay`]), so read traffic points at
//! replicas unchanged — `loadgen --replicas N` does exactly that.
//!
//! ```
//! use std::time::Duration;
//!
//! use pathcopy_replica::{PushOutcome, PushReplica, SyncOutcome};
//! use pathcopy_server::{backend, Client, ServerConfig};
//!
//! // A primary with some state.
//! let primary = pathcopy_server::spawn(
//!     backend::by_name("sharded_map_8").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let mut writer = Client::connect(primary.addr()).unwrap();
//! writer.insert(1, 10).unwrap();
//!
//! // Bootstrap: connecting is a (chunked) full transfer, then a
//! // subscription.
//! let mut replica = PushReplica::connect(
//!     primary.addr(),
//!     backend::by_name("sharded_map_8").unwrap(),
//! )
//! .unwrap();
//! assert_eq!(replica.pull_stats().full_syncs, 1);
//! assert_eq!(replica.store().get(1), Some(10));
//!
//! // Steady state: the writer publishes a new epoch and its pruned
//! // diff arrives as a push — O(changes), not O(map).
//! writer.insert(2, 20).unwrap();
//! writer.remove(1).unwrap();
//! let epoch = writer.publish().unwrap();
//! let outcome = replica.pump(Duration::from_secs(10)).unwrap();
//! assert_eq!(outcome, PushOutcome::Pushed { epoch, changes: 2 });
//! assert_eq!(replica.store().get(1), None);
//! assert_eq!(replica.store().get(2), Some(20));
//!
//! // Gap repair pulls the same diff on demand; at the head it is empty.
//! assert_eq!(
//!     replica.sync_now().unwrap(),
//!     SyncOutcome::Diff { to: epoch, changes: 0 }
//! );
//! primary.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod push;

pub use push::{PullStats, PushMetrics, PushOutcome, PushReplica, PushStats, SyncOutcome};
