//! # pathcopy-server
//!
//! The network serving layer over the path-copying engine: a
//! length-prefixed binary [wire protocol](proto) whose v3 envelope
//! carries a correlation id so multiple requests can be in flight per
//! connection, an event-driven nonblocking TCP [server] (a single
//! readiness loop over a hand-rolled `epoll`/`poll(2)` shim multiplexes
//! every connection and runs each request to completion), a pipelined
//! [client] ([`Session::submit`] → [`Ticket::wait`], with
//! the blocking [`Client`] as the serial facade), and the primary side
//! of the replication subsystem (the [version feed](feed) replicas sync
//! from; the replica engine and the `loadgen` traffic generator live in
//! `pathcopy-replica`). Everything is `std::net` plus two raw syscalls
//! — the workspace builds offline, so there is no async runtime and no
//! `libc` crate, in the same spirit as the `shims/` crates.
//!
//! Because connections are multiplexed rather than pinned to threads,
//! idle connections are nearly free ([`ServerConfig::max_conns`]
//! bounds them, not a thread count), and overload is shed explicitly:
//! past [`ServerConfig::queue_depth`] in-flight requests on one
//! connection the server answers [`WireError::Busy`] instead of
//! stalling the socket — surfaced client-side as
//! [`ClientError::Busy`].
//!
//! Why a server is the natural front-end for this engine: the paper's
//! construction gives lock-free point writes *plus* O(1) coherent
//! snapshots, which is exactly the split a read-heavy serving system
//! wants. A [`proto::Request::Snapshot`] pins a
//! frozen version in the server's table for pennies; later
//! [`Range`](proto::Request::Range) scans and
//! [`Diff`](proto::Request::Diff)s — from any connection — read that
//! version undisturbed while writers race ahead, and cross-shard
//! [`Batch`](proto::Request::Batch)es commit all-or-nothing through
//! [`ShardedTreapMap::transact`](pathcopy_concurrent::ShardedTreapMap::transact).
//!
//! The server is engine-agnostic: it holds a
//! [`Box<dyn ServeBackend>`](backend::ServeBackend), and
//! [`backend::backends`] adapts every map of the
//! `pathcopy_concurrent::registry` — so the treap, the sharded map at
//! any shard count, and the locked baseline are all servable unchanged.
//!
//! ```
//! use pathcopy_server::{backend, Client, ServerConfig};
//!
//! // An in-process server on an ephemeral loopback port.
//! let server = pathcopy_server::spawn(
//!     backend::by_name("sharded_map_8").unwrap(),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.insert(1, 10).unwrap();
//! let snap = client.snapshot().unwrap(); // pinned, O(1)
//! client.insert(1, 99).unwrap();
//! let (entries, _) = client.range(Some(snap), .., 0).unwrap();
//! assert_eq!(entries, vec![(1, 10)]); // the pinned version is immutable
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod client;
mod event;
pub mod feed;
pub mod metrics;
mod poll;
pub mod proto;
pub mod server;

pub use backend::{ServeBackend, ServeSnapshot};
pub use client::{Client, ClientError, PushFrame, Session, SessionToken, Subscription, Ticket};
pub use feed::{FeedSink, VersionFeed};
pub use metrics::{render_text, MetricsSource, ServerMetrics};
// Tracing types clients and operators need, re-exported so depending on
// `pathcopy-trace` directly is optional.
pub use pathcopy_trace::{
    render_trace, trace_ids, Flight, SpanRecord, TraceContext, TraceRecorder,
};
pub use proto::{
    Epoch, FeedInfo, Framed, ProtoError, Request, RequestId, Response, ServerGauges, SnapshotId,
    StageSummary, WireError, WireStats, MAX_FRAME_LEN, PROTO_TRACE_FLAG, PROTO_VERSION,
    PUSH_ID_BASE,
};
pub use server::{spawn, ServerConfig, ServerConfigBuilder, ServerHandle};
