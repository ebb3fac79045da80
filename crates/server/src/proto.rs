//! The wire protocol: length-prefixed, version-tagged binary frames.
//!
//! Every message travels as one frame whose envelope carries a
//! correlation id, so multiple requests can be in flight on one
//! connection:
//!
//! ```text
//! v3:        [len: u32 LE] [version: u8 = 3] [request_id: u64 LE] [tag: u8] [payload ...]
//! v3+trace:  [len: u32 LE] [version: u8 = 3|0x80] [request_id: u64 LE] [trace: 17 bytes] [tag: u8] [payload ...]
//! ```
//!
//! where `len` counts everything after itself (version byte included).
//! Any other version byte is rejected ([`ProtoError::BadVersion`]).
//! The trace extension is optional per frame: setting
//! [`PROTO_TRACE_FLAG`] on the version byte inserts a 17-byte
//! [`TraceContext`] (trace id `u64`, parent span `u64`, flags `u8`)
//! between the request id and the tag. Untraced frames are
//! byte-identical to plain v3, so durable logs written before tracing
//! existed stay decodable, and tracing costs zero wire bytes when off.
//! One writer, [`Request::encode_traced`]/[`Response::encode_traced`],
//! builds every envelope; it takes the context as an `Option`.
//! The server echoes each request's `request_id` on its response and may
//! complete pipelined requests **in any order**; clients match replies
//! to requests by id, never by arrival order.
//!
//! Integers are fixed-width little-endian; `Option`s and `Bound`s carry a
//! one-byte discriminant; vectors a `u32` length. There is no serde and
//! no reflection — [`Request`] and [`Response`] encode and decode
//! themselves explicitly, and [`decode`](Request::decode) rejects short
//! frames ([`ProtoError::Truncated`]), unknown discriminants
//! ([`ProtoError::BadTag`]), version mismatches
//! ([`ProtoError::BadVersion`]) and frames with unconsumed trailing bytes
//! ([`ProtoError::TrailingBytes`]), so a corrupted or hostile peer can
//! never smuggle a half-parsed message through.
//!
//! Batch operations and results are the engine's own
//! [`BatchOp`]/[`BatchResult`] and map diffs are
//! [`DiffEntry`] — the protocol serializes the
//! same types [`ShardedTreapMap::transact`](pathcopy_concurrent::ShardedTreapMap::transact)
//! and [`MapSnapshot::diff`](pathcopy_core::MapSnapshot::diff) speak, so
//! the client API maps onto the engine API without translation layers.

use std::io::{self, Read, Write};
use std::ops::Bound;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::DiffEntry;
use pathcopy_trace::{SpanRecord, TraceContext};

/// Protocol version carried in every frame; peers reject any other
/// version byte except this one with [`PROTO_TRACE_FLAG`] set.
///
/// Version 3 added the `request_id` correlation field to the envelope
/// (pipelining) and the [`WireError::Busy`] admission-control error.
pub const PROTO_VERSION: u8 = 3;

/// Version-byte flag marking a v3 frame that carries a 17-byte
/// [`TraceContext`] between its request id and its tag
/// (`3 | 0x80 = 0x83` on the wire). Decoders that predate tracing
/// reject the flagged byte as [`ProtoError::BadVersion`], which is the
/// correct failure: the sender only sets the flag when the operator
/// turned tracing on across the fleet.
pub const PROTO_TRACE_FLAG: u8 = 0x80;

/// Correlation id carried in every frame. Ids are chosen by the
/// client (monotonically, per connection) and echoed verbatim by the
/// server; `0` is the id of lock-step callers and of durable log
/// records. Ids with [`PUSH_ID_BASE`] set are reserved for
/// server-initiated frames.
pub type RequestId = u64;

/// The server-initiated half of the id space. A [`Response::Push`]
/// answers no request, so it cannot echo a client-chosen id; instead it
/// carries `PUSH_ID_BASE | epoch`, which can never collide with a
/// ticket because clients allocate ids by incrementing from `1` (an
/// id with the top bit set would take ~292 years of back-to-back
/// requests to reach). A session's demux loop routes ids in this
/// namespace to its push channel instead of a waiter.
pub const PUSH_ID_BASE: RequestId = 1 << 63;

/// A decoded frame body together with its envelope fields: its
/// correlation id and trace context. Produced by
/// [`Request::decode_enveloped`]/[`Response::decode_enveloped`]; the
/// server echoes `request_id` on its reply, and clients use it to match
/// pipelined replies to tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed<T> {
    /// The correlation id.
    pub request_id: RequestId,
    /// The trace context, when the frame's version byte carried
    /// [`PROTO_TRACE_FLAG`]; `None` for untraced frames.
    pub trace: Option<TraceContext>,
    /// The decoded message.
    pub msg: T,
}

/// Upper bound on the frame body length; larger length prefixes are
/// rejected before any allocation, so a corrupt peer cannot trigger a
/// multi-gigabyte read buffer.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Identifier of a named snapshot held in the server's version table.
pub type SnapshotId = u64;

/// Position in the primary's monotone version feed. Epoch `0` is never
/// issued — it means "nothing published yet" (or, replica-side, "nothing
/// applied yet").
pub type Epoch = u64;

/// Maximum number of entries the server packs into one
/// [`Response::SyncPage`]. At 16 bytes per entry a page stays around
/// 1 MiB — far below [`MAX_FRAME_LEN`] — so a [`Request::FullSync`]
/// bootstrap of an arbitrarily large map never trips the frame cap; the
/// replica just pulls more pages.
pub const SYNC_PAGE_MAX_ENTRIES: u32 = 65_536;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up one key.
    Get {
        /// The key to read.
        key: i64,
    },
    /// Insert or overwrite one key.
    Insert {
        /// The key to write.
        key: i64,
        /// The value to store.
        value: i64,
    },
    /// Remove one key.
    Remove {
        /// The key to remove.
        key: i64,
    },
    /// Atomic compare-and-set on one key.
    Cas {
        /// The key to compare and set.
        key: i64,
        /// Value the key must currently hold (`None` = absent).
        expected: Option<i64>,
        /// Value to store on match (`None` removes the key).
        new: Option<i64>,
    },
    /// An atomic multi-key batch, applied through the backend's
    /// transaction machinery (cross-shard two-phase commit on the
    /// sharded map).
    Batch {
        /// The operations, applied in order.
        ops: Vec<BatchOp<i64, i64>>,
        /// Sinfonia-style guarded mini-transaction flag: when set, a
        /// failing [`BatchOp::Cas`] guard aborts the **whole batch**
        /// (zero writes, answered with [`Response::BatchAborted`])
        /// instead of just reporting `Cas(false)` while the rest
        /// commits.
        guarded: bool,
    },
    /// Take a coherent snapshot and pin it in the server's version table;
    /// the reply names it with a [`SnapshotId`] for later [`Request::Range`]
    /// and [`Request::Diff`] calls.
    Snapshot,
    /// Ordered key-range scan.
    Range {
        /// Named snapshot to scan, or `None` to scan a fresh coherent
        /// snapshot taken just for this request.
        snapshot: Option<SnapshotId>,
        /// Lower key bound.
        lo: Bound<i64>,
        /// Upper key bound.
        hi: Bound<i64>,
        /// Maximum number of entries to return (`0` = unlimited).
        limit: u32,
    },
    /// Difference between two snapshots, in ascending key order.
    Diff {
        /// The older named snapshot.
        from: SnapshotId,
        /// The newer named snapshot, or `None` for a fresh snapshot taken
        /// now — "what changed since `from`".
        to: Option<SnapshotId>,
    },
    /// Drop a named snapshot from the version table.
    Release {
        /// The snapshot to drop.
        snapshot: SnapshotId,
    },
    /// Read the backend's operation statistics and the server's
    /// version-table size.
    Stats,
    /// Publish the current state as the next epoch of the server's
    /// version feed (a capped ring of recent snapshots replicas sync
    /// from). Replied with [`Response::Published`].
    Publish,
    /// Read the feed's bounds — head epoch, oldest retained epoch, ring
    /// capacity — without changing anything. Replied with
    /// [`Response::FeedInfo`]. This is how a replica sizes its lag.
    Subscribe,
    /// Ask for everything that changed between published epoch `from`
    /// and the feed head, as one pruned snapshot-to-snapshot diff.
    /// Replied with [`Response::EpochDiff`], or
    /// [`WireError::EpochRetired`] if `from` has fallen out of the ring
    /// (the replica lags too far and must [`Request::FullSync`]).
    PullDiff {
        /// The epoch the replica has applied.
        from: Epoch,
    },
    /// One page of a full-state bootstrap. The first call passes
    /// `epoch: None` — the server serves the current feed head
    /// (publishing a fresh epoch only when the feed is empty, so
    /// concurrent bootstraps share one pin) — and follow-up calls pass
    /// the returned epoch plus the last key received, so the whole map
    /// streams out of **one** frozen version in bounded segments (never
    /// more than [`SYNC_PAGE_MAX_ENTRIES`] entries each, so no page can
    /// trip [`MAX_FRAME_LEN`]).
    FullSync {
        /// The epoch being paged, or `None` to start a fresh sync.
        epoch: Option<Epoch>,
        /// Resume strictly after this key (`None` = from the start).
        after: Option<i64>,
        /// Client's page-size preference (`0` = server default); the
        /// server clamps it to [`SYNC_PAGE_MAX_ENTRIES`].
        limit: u32,
    },
    /// Register this connection for push delivery: from now on the
    /// server sends every published epoch's diff as an unsolicited
    /// [`Response::Push`] frame (id `PUSH_ID_BASE | epoch`). Answered
    /// with [`Response::SubscribeAck`]; if `from` names a retained
    /// epoch behind the head, one catch-up `Push` covering
    /// `from → head` precedes any live pushes. Requires the v3
    /// envelope's request id to tell a push from a reply.
    SubscribePush {
        /// The epoch the subscriber has applied (`0` = nothing yet).
        from: Epoch,
    },
    /// Session-consistent point read: serve `key` only from an epoch
    /// at or past `min_epoch`, waiting up to `wait_ms` for the feed to
    /// catch up. Replied with [`Response::GotAt`] once the feed head
    /// reaches the watermark, or [`WireError::Stale`] (carrying the
    /// current head) if it does not in time — the client can then
    /// retry here or fall back to the primary. This is how a client
    /// gets read-your-writes through any replica, no sticky routing.
    GetAt {
        /// The key to read.
        key: i64,
        /// The caller's session watermark: the oldest epoch this read
        /// is allowed to observe (`0` = any).
        min_epoch: Epoch,
        /// How long the server may hold the read waiting for the feed
        /// to reach `min_epoch` (clamped server-side; `0` = don't
        /// wait, answer immediately).
        wait_ms: u32,
    },
    /// A single write that reports the epoch watermark it is visible
    /// at, so the writer can thread the watermark through subsequent
    /// [`Request::GetAt`] reads. Replied with [`Response::WroteAt`].
    WriteAt {
        /// The write to apply ([`BatchOp::Get`] is permitted but
        /// pointless — use [`Request::GetAt`]).
        op: BatchOp<i64, i64>,
    },
    /// Read the server's process gauges — request/shed/connection
    /// counters, wire byte counters, and push fan-out counters —
    /// without touching the backend. Replied with
    /// [`Response::Gauges`]. This is the scrape endpoint loadgen and
    /// tests use instead of process-local handles.
    Gauges,
    /// Read the server's latency histograms — per-stage, per-request-tag
    /// percentile summaries from the event loop's tracing recorders plus
    /// any registered sources (durable persister, push replicas).
    /// Replied with [`Response::Metrics`]; the reply is empty when the
    /// server runs with metrics disabled.
    Metrics,
    /// Zero every since-boot latency histogram — the event loop's
    /// per-tag stage recorders and every registered source (durable
    /// persister, push replicas) — so the next [`Request::Metrics`]
    /// scrape starts a fresh window. Idempotent: resetting an
    /// already-empty server is a no-op. Gauges ([`Request::Gauges`])
    /// are **not** reset — they are lifetime counters. Replied with
    /// [`Response::MetricsReset`].
    ResetMetrics,
    /// Dump this node's trace flight recorder: every span currently in
    /// the ring plus every pinned slow-request span. Replied with
    /// [`Response::TraceDump`] (empty when tracing is disabled).
    /// Read-only — dumping does not clear the ring.
    TraceDump,
}

/// A server-to-client message; variants mirror [`Request`] one-to-one
/// plus [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Get`]: the value, if present.
    Got(Option<i64>),
    /// Reply to [`Request::Insert`]: the previous value, if any.
    Inserted(Option<i64>),
    /// Reply to [`Request::Remove`]: the removed value, if any.
    Removed(Option<i64>),
    /// Reply to [`Request::Cas`]: whether the comparison matched and the
    /// write was applied.
    CasApplied(bool),
    /// Reply to [`Request::Batch`]: one result per op, in batch order.
    Batch(Vec<BatchResult<i64>>),
    /// Reply to [`Request::Snapshot`]: the new snapshot's id.
    SnapshotTaken(SnapshotId),
    /// Reply to [`Request::Range`].
    Entries {
        /// The entries, in ascending key order.
        entries: Vec<(i64, i64)>,
        /// `false` if the scan stopped at the requested limit with more
        /// entries remaining.
        complete: bool,
    },
    /// Reply to [`Request::Diff`].
    Diff(Vec<DiffEntry<i64, i64>>),
    /// Reply to [`Request::Release`]: whether the snapshot existed.
    Released(bool),
    /// Reply to [`Request::Stats`].
    Stats(WireStats),
    /// Reply to a guarded [`Request::Batch`] whose guards failed: the
    /// whole batch aborted (zero writes). Carries the batch indices of
    /// the failed [`BatchOp::Cas`] guards, ascending.
    BatchAborted(Vec<u32>),
    /// Reply to [`Request::Publish`]: the epoch just published.
    Published(Epoch),
    /// Reply to [`Request::Subscribe`].
    FeedInfo(FeedInfo),
    /// Reply to [`Request::PullDiff`]: everything that changed between
    /// the requested epoch and `to` (the feed head), in ascending key
    /// order. Empty when the replica is already at the head.
    EpochDiff {
        /// The epoch the diff brings the replica up to.
        to: Epoch,
        /// The changes, in ascending key order.
        entries: Vec<DiffEntry<i64, i64>>,
    },
    /// Reply to [`Request::FullSync`]: one bounded page of the pinned
    /// epoch's entries.
    SyncPage {
        /// The epoch being paged (pass it back for the next page).
        epoch: Epoch,
        /// The page's entries, in ascending key order.
        entries: Vec<(i64, i64)>,
        /// `true` if this page ends the epoch's state.
        done: bool,
    },
    /// Reply to [`Request::SubscribePush`]: the feed's bounds at
    /// registration time. Any catch-up or live [`Response::Push`]
    /// frames follow on the same connection.
    SubscribeAck(FeedInfo),
    /// A server-initiated frame (no request answers it; its id is
    /// `PUSH_ID_BASE | epoch`): the diff between two published epochs,
    /// pushed to every subscriber when `epoch` is published. Apply it
    /// only when `from` equals your applied epoch — a diff applied
    /// over any other base silently corrupts keys the diff reverts —
    /// otherwise treat the gap as lag and catch up via
    /// [`Request::PullDiff`].
    Push {
        /// The epoch this diff starts from (`0` = from the empty map).
        from: Epoch,
        /// The epoch this diff brings a subscriber up to.
        epoch: Epoch,
        /// The changes, in ascending key order.
        entries: Vec<DiffEntry<i64, i64>>,
    },
    /// Reply to [`Request::GetAt`]: the value as of an epoch at or
    /// past the requested watermark.
    GotAt {
        /// The value, if present.
        value: Option<i64>,
        /// The feed head the read was served at — the caller's new
        /// session watermark (monotonic reads: thread it into the next
        /// [`Request::GetAt`]).
        epoch: Epoch,
    },
    /// Reply to [`Request::WriteAt`]: the write's result plus the
    /// epoch watermark that makes it visible.
    WroteAt {
        /// The result of the single op.
        result: BatchResult<i64>,
        /// The first epoch that will contain this write once
        /// published — read-your-writes holds on any replica whose
        /// feed has reached it.
        watermark: Epoch,
    },
    /// Reply to [`Request::Gauges`].
    Gauges(ServerGauges),
    /// Reply to [`Request::Metrics`]: one percentile summary per
    /// (stage, request-tag) pair that has recorded at least one sample,
    /// in ascending (stage, tag) order. Empty when metrics are disabled.
    Metrics(Vec<StageSummary>),
    /// Reply to [`Request::ResetMetrics`]: every histogram was zeroed.
    MetricsReset,
    /// Reply to [`Request::TraceDump`]: the node's name plus every span
    /// its flight recorder currently holds (ring + pinned), each a
    /// fixed 56-byte record. Span timestamps are nanoseconds since the
    /// node's own recorder start — cross-node stitching aligns on span
    /// parentage and epoch numbers, never on clocks.
    TraceDump {
        /// The reporting node's name (as configured in its recorder).
        node: String,
        /// The spans, in the recorder's dump order (sorted by trace id,
        /// then start time).
        spans: Vec<SpanRecord>,
    },
    /// The request could not be served.
    Error(WireError),
}

/// Bounds of the server's version feed, carried by
/// [`Response::FeedInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedInfo {
    /// Newest published epoch (`0` = nothing published yet).
    pub head: Epoch,
    /// Oldest epoch still retained in the ring (`0` = empty feed).
    pub oldest: Epoch,
    /// Ring capacity: how many epochs the primary retains.
    pub capacity: u64,
}

/// Backend and server statistics carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Completed update operations.
    pub ops: u64,
    /// Total CAS-loop attempts across all updates.
    pub attempts: u64,
    /// Failed root CASes.
    pub cas_failures: u64,
    /// Updates that changed nothing and skipped the CAS.
    pub noop_updates: u64,
    /// Read-only operations.
    pub reads: u64,
    /// Roots installed through the multi-shard freeze hook.
    pub frozen_installs: u64,
    /// Backed-out freeze passes of cross-shard commits.
    pub freeze_retries: u64,
    /// Entry count (weakly consistent on sharded backends).
    pub len: u64,
    /// Named snapshots currently pinned in the server's version table.
    pub snapshots: u64,
}

/// Server process gauges carried by [`Response::Gauges`] — scrapeable
/// counters about the serving process itself, as opposed to
/// [`WireStats`] which describes the backend map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerGauges {
    /// Requests executed (successful or errored), excluding shed ones.
    pub requests: u64,
    /// Requests shed by per-connection admission control
    /// ([`WireError::Busy`]).
    pub requests_shed: u64,
    /// Connections currently open.
    pub open_conns: u64,
    /// Bytes the server has written to all connections.
    pub wire_sent: u64,
    /// Bytes the server has read from all connections.
    pub wire_received: u64,
    /// Connections currently registered for push delivery.
    pub subscribers: u64,
    /// Push frames enqueued to subscribers since startup.
    pub pushes: u64,
    /// Subscribers demoted (unregistered) because their outbox was
    /// full when a push arrived; they must catch up via
    /// [`Request::PullDiff`] and resubscribe.
    pub push_demotions: u64,
    /// Newest published epoch of the version feed (`0` = none).
    pub feed_head: u64,
}

/// One latency-histogram summary carried by [`Response::Metrics`]: the
/// fixed percentile set of one pipeline stage, optionally split by the
/// request tag that went through it.
///
/// `stage` bytes are the `pathcopy_metrics::Stage` discriminants
/// (2 execute, 3 write_flush, 4 append_fsync, 5 push_apply,
/// 6 epoch_lag; 1 is retired and unused); unknown values must be
/// skipped, not
/// rejected, so servers can add stages without breaking old scrapers.
/// Values are nanoseconds for every stage except `epoch_lag`, which
/// counts epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSummary {
    /// Which pipeline stage this summarises.
    pub stage: u8,
    /// Request tag the samples belong to (`0` = the stage is not split
    /// by tag).
    pub tag: u8,
    /// Number of recorded samples.
    pub count: u64,
    /// Wrapping sum of all samples (for mean reconstruction).
    pub sum: u64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Request id of the exemplar — the request that produced (a sample
    /// within the gating race of) `max`. `0` when no tagged sample has
    /// been recorded.
    pub exemplar_id: u64,
    /// Trace id of the exemplar's trace context (`0` = untraced).
    pub exemplar_trace: u64,
}

/// Error replies a server can send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A [`Request::Range`]/[`Request::Diff`]/[`Request::Release`] named
    /// a snapshot id that is not in the version table (never issued, or
    /// already released).
    UnknownSnapshot(SnapshotId),
    /// The two snapshots of a [`Request::Diff`] come from incompatible
    /// backends and cannot be diffed.
    SnapshotMismatch,
    /// The server could not decode the request frame.
    Malformed,
    /// The reply would exceed [`MAX_FRAME_LEN`] and was not sent; nothing
    /// was written, so the connection stays usable — page with
    /// [`Request::Range`]'s `limit`, or diff nearer snapshots.
    TooLarge,
    /// The server's version table is full (the payload is the cap);
    /// [`Request::Release`] unused snapshots to free slots.
    SnapshotLimit(u64),
    /// A [`Request::PullDiff`]/[`Request::FullSync`] named an epoch no
    /// longer retained in the feed ring (the payload is the oldest epoch
    /// still available; `0` = the feed is empty). The replica lagged
    /// past the ring and must fall back to a fresh [`Request::FullSync`].
    EpochRetired(Epoch),
    /// The connection already has `queue_depth` requests in flight (the
    /// payload is the bound) and this one was shed without being
    /// executed. Admission control, not failure: in-flight requests are
    /// unaffected and the connection stays usable — wait for some
    /// replies, then resubmit.
    Busy(u64),
    /// A [`Request::GetAt`] watermark was not reached within its wait
    /// budget; the payload is the feed head the server is actually at.
    /// The read was **not** served — retry here later, or read from a
    /// fresher replica or the primary.
    Stale(Epoch),
    /// The server's handler panicked while executing this request. The
    /// request may or may not have taken effect; the connection stays
    /// usable and later requests are served normally.
    Internal,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownSnapshot(id) => write!(f, "unknown snapshot id {id}"),
            WireError::SnapshotMismatch => write!(f, "snapshots are not diffable"),
            WireError::Malformed => write!(f, "malformed request frame"),
            WireError::TooLarge => write!(
                f,
                "reply would exceed the {MAX_FRAME_LEN}-byte frame cap; page the request"
            ),
            WireError::SnapshotLimit(cap) => {
                write!(f, "version table full ({cap} snapshots); release some")
            }
            WireError::EpochRetired(oldest) => {
                write!(
                    f,
                    "epoch retired from the feed (oldest retained: {oldest}); full-sync"
                )
            }
            WireError::Busy(depth) => {
                write!(
                    f,
                    "connection at its queue-depth bound ({depth} in flight); request shed"
                )
            }
            WireError::Stale(head) => {
                write!(
                    f,
                    "feed still behind the requested watermark (head: {head}); read not served"
                )
            }
            WireError::Internal => write!(f, "internal server error while executing the request"),
        }
    }
}

/// Why a frame failed to decode (or to be read off the wire).
#[derive(Debug)]
pub enum ProtoError {
    /// The frame ended before the message did.
    Truncated,
    /// The frame's version byte is not [`PROTO_VERSION`] (with or
    /// without [`PROTO_TRACE_FLAG`]).
    BadVersion(u8),
    /// An unknown discriminant byte.
    BadTag {
        /// Which discriminant was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// The message decoded but left unconsumed bytes in the frame.
    TrailingBytes {
        /// Number of leftover bytes.
        extra: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated mid-message"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTO_VERSION})")
            }
            ProtoError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after message")
            }
            ProtoError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_opt_i64(out: &mut Vec<u8>, v: Option<i64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_i64(out, x);
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

/// Writes the 17-byte trace-context extension: trace id, parent span,
/// flags. Layout is [`TraceContext::WIRE_BYTES`].
fn put_trace_ctx(out: &mut Vec<u8>, ctx: &TraceContext) {
    put_u64(out, ctx.trace_id);
    put_u64(out, ctx.parent_span);
    out.push(ctx.flags);
}

fn put_bound(out: &mut Vec<u8>, b: Bound<i64>) {
    match b {
        Bound::Unbounded => out.push(0),
        Bound::Included(k) => {
            out.push(1);
            put_i64(out, k);
        }
        Bound::Excluded(k) => {
            out.push(2);
            put_i64(out, k);
        }
    }
}

fn put_batch_op(out: &mut Vec<u8>, op: &BatchOp<i64, i64>) {
    match op {
        BatchOp::Get(k) => {
            out.push(0);
            put_i64(out, *k);
        }
        BatchOp::Insert(k, v) => {
            out.push(1);
            put_i64(out, *k);
            put_i64(out, *v);
        }
        BatchOp::Remove(k) => {
            out.push(2);
            put_i64(out, *k);
        }
        BatchOp::Cas { key, expected, new } => {
            out.push(3);
            put_i64(out, *key);
            put_opt_i64(out, *expected);
            put_opt_i64(out, *new);
        }
    }
}

fn put_batch_result(out: &mut Vec<u8>, r: &BatchResult<i64>) {
    match r {
        BatchResult::Got(v) => {
            out.push(0);
            put_opt_i64(out, *v);
        }
        BatchResult::Inserted(v) => {
            out.push(1);
            put_opt_i64(out, *v);
        }
        BatchResult::Removed(v) => {
            out.push(2);
            put_opt_i64(out, *v);
        }
        BatchResult::Cas(ok) => {
            out.push(3);
            put_bool(out, *ok);
        }
    }
}

fn put_diff_entry(out: &mut Vec<u8>, e: &DiffEntry<i64, i64>) {
    match e {
        DiffEntry::Added(k, v) => {
            out.push(0);
            put_i64(out, *k);
            put_i64(out, *v);
        }
        DiffEntry::Removed(k, v) => {
            out.push(1);
            put_i64(out, *k);
            put_i64(out, *v);
        }
        DiffEntry::Changed(k, old, new) => {
            out.push(2);
            put_i64(out, *k);
            put_i64(out, *old);
            put_i64(out, *new);
        }
    }
}

/// A bounds-checked read cursor over one frame body.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtoError::BadTag { what: "bool", tag }),
        }
    }

    fn opt_i64(&mut self) -> Result<Option<i64>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            tag => Err(ProtoError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            tag => Err(ProtoError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    fn trace_ctx(&mut self) -> Result<TraceContext, ProtoError> {
        Ok(TraceContext {
            trace_id: self.u64()?,
            parent_span: self.u64()?,
            flags: self.u8()?,
        })
    }

    fn bound(&mut self) -> Result<Bound<i64>, ProtoError> {
        match self.u8()? {
            0 => Ok(Bound::Unbounded),
            1 => Ok(Bound::Included(self.i64()?)),
            2 => Ok(Bound::Excluded(self.i64()?)),
            tag => Err(ProtoError::BadTag { what: "bound", tag }),
        }
    }

    /// Reads a `u32` element count, sanity-bounded by the bytes actually
    /// remaining so a corrupt count cannot pre-allocate gigabytes.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn batch_op(&mut self) -> Result<BatchOp<i64, i64>, ProtoError> {
        match self.u8()? {
            0 => Ok(BatchOp::Get(self.i64()?)),
            1 => Ok(BatchOp::Insert(self.i64()?, self.i64()?)),
            2 => Ok(BatchOp::Remove(self.i64()?)),
            3 => Ok(BatchOp::Cas {
                key: self.i64()?,
                expected: self.opt_i64()?,
                new: self.opt_i64()?,
            }),
            tag => Err(ProtoError::BadTag {
                what: "batch op",
                tag,
            }),
        }
    }

    fn batch_result(&mut self) -> Result<BatchResult<i64>, ProtoError> {
        match self.u8()? {
            0 => Ok(BatchResult::Got(self.opt_i64()?)),
            1 => Ok(BatchResult::Inserted(self.opt_i64()?)),
            2 => Ok(BatchResult::Removed(self.opt_i64()?)),
            3 => Ok(BatchResult::Cas(self.bool()?)),
            tag => Err(ProtoError::BadTag {
                what: "batch result",
                tag,
            }),
        }
    }

    fn diff_entry(&mut self) -> Result<DiffEntry<i64, i64>, ProtoError> {
        match self.u8()? {
            0 => Ok(DiffEntry::Added(self.i64()?, self.i64()?)),
            1 => Ok(DiffEntry::Removed(self.i64()?, self.i64()?)),
            2 => Ok(DiffEntry::Changed(self.i64()?, self.i64()?, self.i64()?)),
            tag => Err(ProtoError::BadTag {
                what: "diff entry",
                tag,
            }),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

/// Writes the envelope head every frame body starts with: the version
/// byte, the request id, and — with `Some` — the trace context (the
/// version byte then carries [`PROTO_TRACE_FLAG`]). With `None` the head
/// is the plain v3 one.
fn put_envelope(out: &mut Vec<u8>, id: RequestId, trace: Option<&TraceContext>) {
    let flag = if trace.is_some() { PROTO_TRACE_FLAG } else { 0 };
    out.push(PROTO_VERSION | flag);
    put_u64(out, id);
    if let Some(ctx) = trace {
        put_trace_ctx(out, ctx);
    }
}

/// Reads the envelope head off a frame body: the request id, and the
/// trace context when the version byte carries [`PROTO_TRACE_FLAG`].
/// Any other version byte is [`ProtoError::BadVersion`].
fn read_envelope(cur: &mut Cur<'_>) -> Result<(RequestId, Option<TraceContext>), ProtoError> {
    match cur.u8()? {
        PROTO_VERSION => Ok((cur.u64()?, None)),
        v if v == PROTO_VERSION | PROTO_TRACE_FLAG => {
            let id = cur.u64()?;
            let ctx = cur.trace_ctx()?;
            Ok((id, Some(ctx)))
        }
        v => Err(ProtoError::BadVersion(v)),
    }
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

impl Request {
    /// Serializes the message into a v3 frame body with request id `0`
    /// (version + id + tag + payload, without the length prefix).
    /// Lock-step callers that never pipeline can use the zero id
    /// everywhere; pipelined sessions use
    /// [`encode_with_id`](Self::encode_with_id).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_traced(0, None, out);
    }

    /// Serializes the message into a v3 frame body carrying `id`, the
    /// correlation id the server will echo on its reply.
    pub fn encode_with_id(&self, id: RequestId, out: &mut Vec<u8>) {
        self.encode_traced(id, None, out);
    }

    /// Serializes the message into a frame body carrying `id` and, with
    /// `Some`, a trace context (version byte `3 | `[`PROTO_TRACE_FLAG`])
    /// — how a tracing client stamps the root of a distributed trace
    /// onto a request. With `None` the body is the plain v3 one. Every
    /// request envelope is written here.
    pub fn encode_traced(&self, id: RequestId, trace: Option<&TraceContext>, out: &mut Vec<u8>) {
        put_envelope(out, id, trace);
        self.encode_tail(out);
    }

    /// Tag + payload, after the envelope head.
    fn encode_tail(&self, out: &mut Vec<u8>) {
        match self {
            Request::Get { key } => {
                out.push(1);
                put_i64(out, *key);
            }
            Request::Insert { key, value } => {
                out.push(2);
                put_i64(out, *key);
                put_i64(out, *value);
            }
            Request::Remove { key } => {
                out.push(3);
                put_i64(out, *key);
            }
            Request::Cas { key, expected, new } => {
                out.push(4);
                put_i64(out, *key);
                put_opt_i64(out, *expected);
                put_opt_i64(out, *new);
            }
            Request::Batch { ops, guarded } => {
                out.push(5);
                put_bool(out, *guarded);
                put_u32(out, ops.len() as u32);
                for op in ops {
                    put_batch_op(out, op);
                }
            }
            Request::Snapshot => out.push(6),
            Request::Range {
                snapshot,
                lo,
                hi,
                limit,
            } => {
                out.push(7);
                put_opt_u64(out, *snapshot);
                put_bound(out, *lo);
                put_bound(out, *hi);
                put_u32(out, *limit);
            }
            Request::Diff { from, to } => {
                out.push(8);
                put_u64(out, *from);
                put_opt_u64(out, *to);
            }
            Request::Release { snapshot } => {
                out.push(9);
                put_u64(out, *snapshot);
            }
            Request::Stats => out.push(10),
            Request::Publish => out.push(11),
            Request::Subscribe => out.push(12),
            Request::PullDiff { from } => {
                out.push(13);
                put_u64(out, *from);
            }
            Request::FullSync {
                epoch,
                after,
                limit,
            } => {
                out.push(14);
                put_opt_u64(out, *epoch);
                put_opt_i64(out, *after);
                put_u32(out, *limit);
            }
            Request::SubscribePush { from } => {
                out.push(15);
                put_u64(out, *from);
            }
            Request::GetAt {
                key,
                min_epoch,
                wait_ms,
            } => {
                out.push(16);
                put_i64(out, *key);
                put_u64(out, *min_epoch);
                put_u32(out, *wait_ms);
            }
            Request::WriteAt { op } => {
                out.push(17);
                put_batch_op(out, op);
            }
            Request::Gauges => out.push(18),
            Request::Metrics => out.push(19),
            Request::ResetMetrics => out.push(20),
            Request::TraceDump => out.push(21),
        }
    }

    /// The request's wire tag byte — the key the server's per-tag stage
    /// histograms are indexed by.
    #[must_use]
    pub fn tag_byte(&self) -> u8 {
        match self {
            Request::Get { .. } => 1,
            Request::Insert { .. } => 2,
            Request::Remove { .. } => 3,
            Request::Cas { .. } => 4,
            Request::Batch { .. } => 5,
            Request::Snapshot => 6,
            Request::Range { .. } => 7,
            Request::Diff { .. } => 8,
            Request::Release { .. } => 9,
            Request::Stats => 10,
            Request::Publish => 11,
            Request::Subscribe => 12,
            Request::PullDiff { .. } => 13,
            Request::FullSync { .. } => 14,
            Request::SubscribePush { .. } => 15,
            Request::GetAt { .. } => 16,
            Request::WriteAt { .. } => 17,
            Request::Gauges => 18,
            Request::Metrics => 19,
            Request::ResetMetrics => 20,
            Request::TraceDump => 21,
        }
    }

    /// The variant name for a request wire tag, for labelling metrics in
    /// human-readable output. `None` for tags this version doesn't know.
    #[must_use]
    pub fn tag_name(tag: u8) -> Option<&'static str> {
        Some(match tag {
            1 => "Get",
            2 => "Insert",
            3 => "Remove",
            4 => "Cas",
            5 => "Batch",
            6 => "Snapshot",
            7 => "Range",
            8 => "Diff",
            9 => "Release",
            10 => "Stats",
            11 => "Publish",
            12 => "Subscribe",
            13 => "PullDiff",
            14 => "FullSync",
            15 => "SubscribePush",
            16 => "GetAt",
            17 => "WriteAt",
            18 => "Gauges",
            19 => "Metrics",
            20 => "ResetMetrics",
            21 => "TraceDump",
            _ => return None,
        })
    }

    /// Parses a frame body produced by [`encode`](Self::encode),
    /// rejecting bad versions, unknown tags, truncation, and trailing
    /// bytes. The envelope fields are discarded; use
    /// [`decode_enveloped`](Self::decode_enveloped) when the request id
    /// matters.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadVersion`], [`ProtoError::BadTag`],
    /// [`ProtoError::Truncated`], or [`ProtoError::TrailingBytes`] —
    /// never a panic, whatever the input bytes.
    pub fn decode(body: &[u8]) -> Result<Self, ProtoError> {
        Self::decode_enveloped(body).map(|f| f.msg)
    }

    /// Parses a frame body keeping its envelope: its correlation id and
    /// trace context. This is the server's entry point — it must echo
    /// the id.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_enveloped(body: &[u8]) -> Result<Framed<Self>, ProtoError> {
        let mut cur = Cur::new(body);
        let (request_id, trace) = read_envelope(&mut cur)?;
        let msg = Self::decode_tail(&mut cur)?;
        cur.finish()?;
        Ok(Framed {
            request_id,
            trace,
            msg,
        })
    }

    /// Tag + payload, after the envelope head.
    fn decode_tail(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        let req = match cur.u8()? {
            1 => Request::Get { key: cur.i64()? },
            2 => Request::Insert {
                key: cur.i64()?,
                value: cur.i64()?,
            },
            3 => Request::Remove { key: cur.i64()? },
            4 => Request::Cas {
                key: cur.i64()?,
                expected: cur.opt_i64()?,
                new: cur.opt_i64()?,
            },
            5 => {
                let guarded = cur.bool()?;
                let n = cur.seq_len(9)?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(cur.batch_op()?);
                }
                Request::Batch { ops, guarded }
            }
            6 => Request::Snapshot,
            7 => Request::Range {
                snapshot: cur.opt_u64()?,
                lo: cur.bound()?,
                hi: cur.bound()?,
                limit: cur.u32()?,
            },
            8 => Request::Diff {
                from: cur.u64()?,
                to: cur.opt_u64()?,
            },
            9 => Request::Release {
                snapshot: cur.u64()?,
            },
            10 => Request::Stats,
            11 => Request::Publish,
            12 => Request::Subscribe,
            13 => Request::PullDiff { from: cur.u64()? },
            14 => Request::FullSync {
                epoch: cur.opt_u64()?,
                after: cur.opt_i64()?,
                limit: cur.u32()?,
            },
            15 => Request::SubscribePush { from: cur.u64()? },
            16 => Request::GetAt {
                key: cur.i64()?,
                min_epoch: cur.u64()?,
                wait_ms: cur.u32()?,
            },
            17 => Request::WriteAt {
                op: cur.batch_op()?,
            },
            18 => Request::Gauges,
            19 => Request::Metrics,
            20 => Request::ResetMetrics,
            21 => Request::TraceDump,
            tag => {
                return Err(ProtoError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------------

impl Response {
    /// Serializes the message into a v3 frame body with request id `0`
    /// (version + id + tag + payload, without the length prefix). The
    /// durable log stores exactly these bodies, so recovery decodes
    /// with the same [`decode`](Self::decode) the wire uses.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_traced(0, None, out);
    }

    /// Serializes the message into a v3 frame body echoing `id`, the
    /// correlation id of the request being answered.
    pub fn encode_with_id(&self, id: RequestId, out: &mut Vec<u8>) {
        self.encode_traced(id, None, out);
    }

    /// Serializes the message into a frame body echoing `id` and, with
    /// `Some`, carrying a trace context (version byte
    /// `3 | `[`PROTO_TRACE_FLAG`]). The server sets one on
    /// [`Response::Push`] frames so a traced publish propagates its
    /// context down the push tree to every subscriber. With `None` the
    /// body is the plain v3 one. Every response envelope is written
    /// here.
    pub fn encode_traced(&self, id: RequestId, trace: Option<&TraceContext>, out: &mut Vec<u8>) {
        put_envelope(out, id, trace);
        self.encode_tail(out);
    }

    /// Tag + payload, after the envelope head.
    fn encode_tail(&self, out: &mut Vec<u8>) {
        match self {
            Response::Got(v) => {
                out.push(1);
                put_opt_i64(out, *v);
            }
            Response::Inserted(v) => {
                out.push(2);
                put_opt_i64(out, *v);
            }
            Response::Removed(v) => {
                out.push(3);
                put_opt_i64(out, *v);
            }
            Response::CasApplied(ok) => {
                out.push(4);
                put_bool(out, *ok);
            }
            Response::Batch(results) => {
                out.push(5);
                put_u32(out, results.len() as u32);
                for r in results {
                    put_batch_result(out, r);
                }
            }
            Response::SnapshotTaken(id) => {
                out.push(6);
                put_u64(out, *id);
            }
            Response::Entries { entries, complete } => {
                out.push(7);
                put_u32(out, entries.len() as u32);
                for (k, v) in entries {
                    put_i64(out, *k);
                    put_i64(out, *v);
                }
                put_bool(out, *complete);
            }
            Response::Diff(entries) => {
                out.push(8);
                put_u32(out, entries.len() as u32);
                for e in entries {
                    put_diff_entry(out, e);
                }
            }
            Response::Released(existed) => {
                out.push(9);
                put_bool(out, *existed);
            }
            Response::Stats(s) => {
                out.push(10);
                put_u64(out, s.ops);
                put_u64(out, s.attempts);
                put_u64(out, s.cas_failures);
                put_u64(out, s.noop_updates);
                put_u64(out, s.reads);
                put_u64(out, s.frozen_installs);
                put_u64(out, s.freeze_retries);
                put_u64(out, s.len);
                put_u64(out, s.snapshots);
            }
            Response::Error(e) => {
                out.push(11);
                match e {
                    WireError::UnknownSnapshot(id) => {
                        out.push(0);
                        put_u64(out, *id);
                    }
                    WireError::SnapshotMismatch => out.push(1),
                    WireError::Malformed => out.push(2),
                    WireError::TooLarge => out.push(3),
                    WireError::SnapshotLimit(cap) => {
                        out.push(4);
                        put_u64(out, *cap);
                    }
                    WireError::EpochRetired(oldest) => {
                        out.push(5);
                        put_u64(out, *oldest);
                    }
                    WireError::Busy(depth) => {
                        out.push(6);
                        put_u64(out, *depth);
                    }
                    WireError::Stale(head) => {
                        out.push(7);
                        put_u64(out, *head);
                    }
                    WireError::Internal => out.push(8),
                }
            }
            Response::BatchAborted(failed) => {
                out.push(12);
                put_u32(out, failed.len() as u32);
                for i in failed {
                    put_u32(out, *i);
                }
            }
            Response::Published(epoch) => {
                out.push(13);
                put_u64(out, *epoch);
            }
            Response::FeedInfo(info) => {
                out.push(14);
                put_u64(out, info.head);
                put_u64(out, info.oldest);
                put_u64(out, info.capacity);
            }
            Response::EpochDiff { to, entries } => {
                out.push(15);
                put_u64(out, *to);
                put_u32(out, entries.len() as u32);
                for e in entries {
                    put_diff_entry(out, e);
                }
            }
            Response::SyncPage {
                epoch,
                entries,
                done,
            } => {
                out.push(16);
                put_u64(out, *epoch);
                put_u32(out, entries.len() as u32);
                for (k, v) in entries {
                    put_i64(out, *k);
                    put_i64(out, *v);
                }
                put_bool(out, *done);
            }
            Response::SubscribeAck(info) => {
                out.push(17);
                put_u64(out, info.head);
                put_u64(out, info.oldest);
                put_u64(out, info.capacity);
            }
            Response::Push {
                from,
                epoch,
                entries,
            } => {
                out.push(18);
                put_u64(out, *from);
                put_u64(out, *epoch);
                put_u32(out, entries.len() as u32);
                for e in entries {
                    put_diff_entry(out, e);
                }
            }
            Response::GotAt { value, epoch } => {
                out.push(19);
                put_opt_i64(out, *value);
                put_u64(out, *epoch);
            }
            Response::WroteAt { result, watermark } => {
                out.push(20);
                put_batch_result(out, result);
                put_u64(out, *watermark);
            }
            Response::Gauges(g) => {
                out.push(21);
                put_u64(out, g.requests);
                put_u64(out, g.requests_shed);
                put_u64(out, g.open_conns);
                put_u64(out, g.wire_sent);
                put_u64(out, g.wire_received);
                put_u64(out, g.subscribers);
                put_u64(out, g.pushes);
                put_u64(out, g.push_demotions);
                put_u64(out, g.feed_head);
            }
            Response::Metrics(rows) => {
                out.push(22);
                put_u32(out, rows.len() as u32);
                for r in rows {
                    out.push(r.stage);
                    out.push(r.tag);
                    put_u64(out, r.count);
                    put_u64(out, r.sum);
                    put_u64(out, r.p50);
                    put_u64(out, r.p90);
                    put_u64(out, r.p99);
                    put_u64(out, r.p999);
                    put_u64(out, r.max);
                    put_u64(out, r.exemplar_id);
                    put_u64(out, r.exemplar_trace);
                }
            }
            Response::MetricsReset => out.push(23),
            Response::TraceDump { node, spans } => {
                out.push(24);
                let name = node.as_bytes();
                put_u32(out, name.len() as u32);
                out.extend_from_slice(name);
                put_u32(out, spans.len() as u32);
                for s in spans {
                    for w in s.to_words() {
                        put_u64(out, w);
                    }
                }
            }
        }
    }

    /// Parses a frame body produced by [`encode`](Self::encode), with
    /// the same strictness as [`Request::decode`]. The envelope fields
    /// are discarded; a pipelined client uses
    /// [`decode_enveloped`](Self::decode_enveloped) to route the reply
    /// to its ticket.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode(body: &[u8]) -> Result<Self, ProtoError> {
        Self::decode_enveloped(body).map(|f| f.msg)
    }

    /// Parses a frame body keeping its envelope — the request id it
    /// answers and its trace context.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode_enveloped(body: &[u8]) -> Result<Framed<Self>, ProtoError> {
        let mut cur = Cur::new(body);
        let (request_id, trace) = read_envelope(&mut cur)?;
        let msg = Self::decode_tail(&mut cur)?;
        cur.finish()?;
        Ok(Framed {
            request_id,
            trace,
            msg,
        })
    }

    /// Tag + payload, after the envelope head.
    fn decode_tail(cur: &mut Cur<'_>) -> Result<Self, ProtoError> {
        let resp = match cur.u8()? {
            1 => Response::Got(cur.opt_i64()?),
            2 => Response::Inserted(cur.opt_i64()?),
            3 => Response::Removed(cur.opt_i64()?),
            4 => Response::CasApplied(cur.bool()?),
            5 => {
                let n = cur.seq_len(2)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(cur.batch_result()?);
                }
                Response::Batch(results)
            }
            6 => Response::SnapshotTaken(cur.u64()?),
            7 => {
                let n = cur.seq_len(16)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((cur.i64()?, cur.i64()?));
                }
                Response::Entries {
                    entries,
                    complete: cur.bool()?,
                }
            }
            8 => {
                let n = cur.seq_len(17)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(cur.diff_entry()?);
                }
                Response::Diff(entries)
            }
            9 => Response::Released(cur.bool()?),
            10 => Response::Stats(WireStats {
                ops: cur.u64()?,
                attempts: cur.u64()?,
                cas_failures: cur.u64()?,
                noop_updates: cur.u64()?,
                reads: cur.u64()?,
                frozen_installs: cur.u64()?,
                freeze_retries: cur.u64()?,
                len: cur.u64()?,
                snapshots: cur.u64()?,
            }),
            11 => Response::Error(match cur.u8()? {
                0 => WireError::UnknownSnapshot(cur.u64()?),
                1 => WireError::SnapshotMismatch,
                2 => WireError::Malformed,
                3 => WireError::TooLarge,
                4 => WireError::SnapshotLimit(cur.u64()?),
                5 => WireError::EpochRetired(cur.u64()?),
                6 => WireError::Busy(cur.u64()?),
                7 => WireError::Stale(cur.u64()?),
                8 => WireError::Internal,
                tag => return Err(ProtoError::BadTag { what: "error", tag }),
            }),
            12 => {
                let n = cur.seq_len(4)?;
                let mut failed = Vec::with_capacity(n);
                for _ in 0..n {
                    failed.push(cur.u32()?);
                }
                Response::BatchAborted(failed)
            }
            13 => Response::Published(cur.u64()?),
            14 => Response::FeedInfo(FeedInfo {
                head: cur.u64()?,
                oldest: cur.u64()?,
                capacity: cur.u64()?,
            }),
            15 => {
                let to = cur.u64()?;
                let n = cur.seq_len(17)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(cur.diff_entry()?);
                }
                Response::EpochDiff { to, entries }
            }
            16 => {
                let epoch = cur.u64()?;
                let n = cur.seq_len(16)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((cur.i64()?, cur.i64()?));
                }
                Response::SyncPage {
                    epoch,
                    entries,
                    done: cur.bool()?,
                }
            }
            17 => Response::SubscribeAck(FeedInfo {
                head: cur.u64()?,
                oldest: cur.u64()?,
                capacity: cur.u64()?,
            }),
            18 => {
                let from = cur.u64()?;
                let epoch = cur.u64()?;
                let n = cur.seq_len(17)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(cur.diff_entry()?);
                }
                Response::Push {
                    from,
                    epoch,
                    entries,
                }
            }
            19 => Response::GotAt {
                value: cur.opt_i64()?,
                epoch: cur.u64()?,
            },
            20 => Response::WroteAt {
                result: cur.batch_result()?,
                watermark: cur.u64()?,
            },
            21 => Response::Gauges(ServerGauges {
                requests: cur.u64()?,
                requests_shed: cur.u64()?,
                open_conns: cur.u64()?,
                wire_sent: cur.u64()?,
                wire_received: cur.u64()?,
                subscribers: cur.u64()?,
                pushes: cur.u64()?,
                push_demotions: cur.u64()?,
                feed_head: cur.u64()?,
            }),
            22 => {
                let n = cur.seq_len(2 + 9 * 8)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(StageSummary {
                        stage: cur.u8()?,
                        tag: cur.u8()?,
                        count: cur.u64()?,
                        sum: cur.u64()?,
                        p50: cur.u64()?,
                        p90: cur.u64()?,
                        p99: cur.u64()?,
                        p999: cur.u64()?,
                        max: cur.u64()?,
                        exemplar_id: cur.u64()?,
                        exemplar_trace: cur.u64()?,
                    });
                }
                Response::Metrics(rows)
            }
            23 => Response::MetricsReset,
            24 => {
                let name_len = cur.seq_len(1)?;
                let node = String::from_utf8(cur.take(name_len)?.to_vec()).map_err(|_| {
                    ProtoError::BadTag {
                        what: "node name",
                        tag: 0,
                    }
                })?;
                let n = cur.seq_len(7 * 8)?;
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut w = [0u64; 7];
                    for word in &mut w {
                        *word = cur.u64()?;
                    }
                    spans.push(SpanRecord::from_words(w));
                }
                Response::TraceDump { node, spans }
            }
            tag => {
                return Err(ProtoError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame. The caller flushes.
///
/// A body over [`MAX_FRAME_LEN`] fails with [`io::ErrorKind::InvalidData`]
/// **before any byte is written**, so the stream stays at a frame
/// boundary and the caller can send a substitute message (the server
/// answers [`WireError::TooLarge`]).
fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds MAX_FRAME_LEN", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one length-prefixed frame body. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary.
fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled read_exact for the prefix so a clean EOF before the
    // first byte is distinguishable from EOF mid-prefix.
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge(len));
    }
    if len < 2 {
        // A valid body always has at least a version and a tag byte.
        return Err(ProtoError::Truncated);
    }
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Some(body)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ProtoError::Truncated),
        Err(e) => Err(ProtoError::Io(e)),
    }
}

/// Writes one request frame carrying `id`, the correlation id a
/// pipelined session matches the reply by, and — with `Some` — a trace
/// context (version byte `3 | `[`PROTO_TRACE_FLAG`]); with `None` the
/// frame is plain v3. The caller flushes buffered writers.
///
/// # Errors
///
/// Any [`io::Error`] from the underlying writer.
pub fn write_request<W: Write>(
    w: &mut W,
    id: RequestId,
    req: &Request,
    trace: Option<&TraceContext>,
) -> io::Result<()> {
    let mut body = Vec::with_capacity(60);
    req.encode_traced(id, trace, &mut body);
    write_frame(w, &body)
}

/// Reads one request frame keeping its envelope (request id and trace
/// context); `Ok(None)` on clean connection close. What a server loop
/// reads.
///
/// # Errors
///
/// [`ProtoError::Io`] from the transport,
/// [`ProtoError::FrameTooLarge`] for an oversized length prefix,
/// [`ProtoError::Truncated`] for a connection cut mid-frame, and any
/// [`Request::decode`] error for a malformed body.
pub fn read_request_enveloped<R: Read>(r: &mut R) -> Result<Option<Framed<Request>>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Request::decode_enveloped(&body).map(Some),
    }
}

/// Writes one response frame echoing `id` (the caller flushes buffered
/// writers). What a server — or a test mocking one — answers a
/// pipelined request with.
///
/// # Errors
///
/// Any [`io::Error`] from the underlying writer.
pub fn write_response_with_id<W: Write>(
    w: &mut W,
    id: RequestId,
    resp: &Response,
) -> io::Result<()> {
    let mut body = Vec::with_capacity(72);
    resp.encode_with_id(id, &mut body);
    write_frame(w, &body)
}

/// Encodes `resp` as one complete frame — length prefix included —
/// echoing `id` and, with `Some`, carrying the trace extension
/// ([`PROTO_TRACE_FLAG`]); with `None` the frame is plain v3. A body
/// over [`MAX_FRAME_LEN`] is replaced in place by
/// [`WireError::TooLarge`] with the same envelope, so the result is
/// always sendable and the stream always stays at a frame boundary.
/// This is what the event-driven server queues on each connection's
/// write buffer.
pub fn response_frame(resp: &Response, id: RequestId, trace: Option<&TraceContext>) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    resp.encode_traced(id, trace, &mut frame);
    if frame.len() - 4 > MAX_FRAME_LEN as usize {
        frame.truncate(4);
        Response::Error(WireError::TooLarge).encode_traced(id, trace, &mut frame);
    }
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

/// Reads one response frame. A close mid-conversation is an error — the
/// client was owed a reply.
///
/// # Errors
///
/// As [`read_request_enveloped`], plus [`ProtoError::Io`] with
/// [`io::ErrorKind::UnexpectedEof`] if the connection closes where a
/// reply was due.
pub fn read_response<R: Read>(r: &mut R) -> Result<Response, ProtoError> {
    match read_frame(r)? {
        None => Err(ProtoError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed while awaiting a response",
        ))),
        Some(body) => Response::decode(&body),
    }
}

/// Reads one response frame keeping its envelope — what a pipelined
/// session's demux loop reads to route each reply to its ticket.
/// `Ok(None)` means the peer closed cleanly at a frame boundary (a
/// session with nothing in flight treats that as normal teardown).
///
/// # Errors
///
/// As [`read_request_enveloped`].
pub fn read_response_enveloped<R: Read>(r: &mut R) -> Result<Option<Framed<Response>>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Response::decode_enveloped(&body).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, 0, req, None).unwrap();
        let mut r = &buf[..];
        let back = read_request_enveloped(&mut r).unwrap().unwrap().msg;
        assert!(r.is_empty(), "frame fully consumed");
        back
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        write_response_with_id(&mut buf, 0, resp).unwrap();
        let mut r = &buf[..];
        let back = read_response(&mut r).unwrap();
        assert!(r.is_empty(), "frame fully consumed");
        back
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Get { key: -7 },
            Request::Insert { key: 1, value: 2 },
            Request::Remove { key: i64::MIN },
            Request::Cas {
                key: 3,
                expected: Some(i64::MAX),
                new: None,
            },
            Request::Batch {
                ops: vec![
                    BatchOp::Get(1),
                    BatchOp::Insert(2, 20),
                    BatchOp::Remove(3),
                    BatchOp::Cas {
                        key: 4,
                        expected: None,
                        new: Some(40),
                    },
                ],
                guarded: false,
            },
            Request::Batch {
                ops: vec![BatchOp::Cas {
                    key: 4,
                    expected: Some(1),
                    new: None,
                }],
                guarded: true,
            },
            Request::Snapshot,
            Request::Range {
                snapshot: Some(9),
                lo: Bound::Included(-5),
                hi: Bound::Excluded(5),
                limit: 128,
            },
            Request::Range {
                snapshot: None,
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                limit: 0,
            },
            Request::Diff {
                from: 1,
                to: Some(2),
            },
            Request::Diff { from: 3, to: None },
            Request::Release { snapshot: 11 },
            Request::Stats,
            Request::Publish,
            Request::Subscribe,
            Request::PullDiff { from: 17 },
            Request::FullSync {
                epoch: None,
                after: None,
                limit: 0,
            },
            Request::FullSync {
                epoch: Some(9),
                after: Some(-3),
                limit: 4096,
            },
            Request::SubscribePush { from: 0 },
            Request::SubscribePush { from: 41 },
            Request::GetAt {
                key: -9,
                min_epoch: 17,
                wait_ms: 250,
            },
            Request::WriteAt {
                op: BatchOp::Insert(5, 50),
            },
            Request::WriteAt {
                op: BatchOp::Cas {
                    key: 6,
                    expected: Some(1),
                    new: None,
                },
            },
            Request::Gauges,
            Request::Metrics,
            Request::ResetMetrics,
            Request::TraceDump,
        ];
        for req in reqs {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn tag_byte_matches_the_encoder() {
        let reqs = [
            Request::Get { key: 1 },
            Request::Batch {
                ops: vec![],
                guarded: false,
            },
            Request::Publish,
            Request::Gauges,
            Request::Metrics,
            Request::ResetMetrics,
            Request::TraceDump,
        ];
        for req in reqs {
            let mut body = Vec::new();
            req.encode(&mut body);
            // Tag sits after the 1-byte version and 8-byte request id.
            assert_eq!(body[9], req.tag_byte(), "{req:?}");
            assert!(Request::tag_name(req.tag_byte()).is_some());
        }
        assert_eq!(Request::tag_name(0), None);
        assert_eq!(Request::tag_name(22), None);
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Got(Some(4)),
            Response::Inserted(None),
            Response::Removed(Some(-1)),
            Response::CasApplied(true),
            Response::Batch(vec![
                BatchResult::Got(None),
                BatchResult::Inserted(Some(1)),
                BatchResult::Removed(None),
                BatchResult::Cas(false),
            ]),
            Response::SnapshotTaken(42),
            Response::Entries {
                entries: vec![(1, 10), (2, 20)],
                complete: false,
            },
            Response::Diff(vec![
                DiffEntry::Added(1, 10),
                DiffEntry::Removed(2, 20),
                DiffEntry::Changed(3, 30, 31),
            ]),
            Response::Released(true),
            Response::Stats(WireStats {
                ops: 1,
                attempts: 2,
                cas_failures: 3,
                noop_updates: 4,
                reads: 5,
                frozen_installs: 6,
                freeze_retries: 7,
                len: 8,
                snapshots: 9,
            }),
            Response::BatchAborted(vec![0, 3, 7]),
            Response::Published(12),
            Response::FeedInfo(FeedInfo {
                head: 12,
                oldest: 5,
                capacity: 8,
            }),
            Response::EpochDiff {
                to: 12,
                entries: vec![DiffEntry::Added(1, 10), DiffEntry::Removed(2, 20)],
            },
            Response::EpochDiff {
                to: 3,
                entries: vec![],
            },
            Response::SyncPage {
                epoch: 12,
                entries: vec![(1, 10), (2, 20)],
                done: true,
            },
            Response::SubscribeAck(FeedInfo {
                head: 7,
                oldest: 3,
                capacity: 8,
            }),
            Response::Push {
                from: 6,
                epoch: 7,
                entries: vec![DiffEntry::Added(1, 10), DiffEntry::Changed(2, 20, 21)],
            },
            Response::Push {
                from: 0,
                epoch: 1,
                entries: vec![],
            },
            Response::GotAt {
                value: Some(-4),
                epoch: 19,
            },
            Response::GotAt {
                value: None,
                epoch: 0,
            },
            Response::WroteAt {
                result: BatchResult::Inserted(None),
                watermark: 21,
            },
            Response::Gauges(ServerGauges {
                requests: 1,
                requests_shed: 2,
                open_conns: 3,
                wire_sent: 4,
                wire_received: 5,
                subscribers: 6,
                pushes: 7,
                push_demotions: 8,
                feed_head: 9,
            }),
            Response::Metrics(vec![]),
            Response::Metrics(vec![
                StageSummary {
                    stage: 1,
                    tag: 1,
                    count: 100,
                    sum: 12_345,
                    p50: 10,
                    p90: 20,
                    p99: 30,
                    p999: 40,
                    max: 50,
                    exemplar_id: 77,
                    exemplar_trace: 0xDEAD,
                },
                StageSummary {
                    stage: 6,
                    tag: 0,
                    count: 7,
                    sum: 7,
                    p50: 1,
                    p90: 1,
                    p99: 1,
                    p999: 1,
                    max: 1,
                    exemplar_id: 0,
                    exemplar_trace: 0,
                },
            ]),
            Response::MetricsReset,
            Response::TraceDump {
                node: String::new(),
                spans: vec![],
            },
            Response::TraceDump {
                node: "relay-1".to_string(),
                spans: vec![
                    SpanRecord {
                        trace_id: 9,
                        span_id: 2,
                        parent_span: 1,
                        kind: 2,
                        tag: 11,
                        flags: 1,
                        epoch: 40,
                        start_ns: 1_000,
                        dur_ns: 250,
                    },
                    SpanRecord {
                        trace_id: u64::MAX,
                        span_id: u64::MAX,
                        parent_span: 0,
                        kind: 5,
                        tag: 0,
                        flags: 3,
                        epoch: u64::MAX,
                        start_ns: u64::MAX,
                        dur_ns: u64::MAX,
                    },
                ],
            },
            Response::Error(WireError::UnknownSnapshot(77)),
            Response::Error(WireError::SnapshotMismatch),
            Response::Error(WireError::Malformed),
            Response::Error(WireError::TooLarge),
            Response::Error(WireError::SnapshotLimit(512)),
            Response::Error(WireError::EpochRetired(4)),
            Response::Error(WireError::Busy(64)),
            Response::Error(WireError::Stale(13)),
            Response::Error(WireError::Internal),
        ];
        for resp in resps {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_truncated() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_request_enveloped(&mut empty), Ok(None)));

        let mut buf = Vec::new();
        write_request(&mut buf, 0, &Request::Stats, None).unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_request_enveloped(&mut r), Err(ProtoError::Truncated)),
                "cut at {cut} must be Truncated"
            );
        }
    }

    #[test]
    fn bad_version_and_bad_tag_are_rejected() {
        let err = Request::decode(&[PROTO_VERSION + 1, 1]).unwrap_err();
        assert!(matches!(err, ProtoError::BadVersion(_)));
        // The retired version-2 envelope is rejected like any other.
        let err = Response::decode(&[2, 1, 0]).unwrap_err();
        assert!(matches!(err, ProtoError::BadVersion(2)));

        // v3 envelope: version, 8 id bytes, then a bogus tag.
        let mut body = vec![PROTO_VERSION];
        put_u64(&mut body, 7);
        body.push(0xEE);
        let err = Request::decode(&body).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::BadTag {
                what: "request",
                ..
            }
        ));

        let err = Response::decode(&body).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::BadTag {
                what: "response",
                ..
            }
        ));

        // A v3 frame cut inside the id field is truncation, not a tag.
        assert!(matches!(
            Request::decode(&[PROTO_VERSION, 1, 2, 3]),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn envelope_carries_the_request_id_both_ways() {
        for id in [0u64, 1, 42, u64::MAX] {
            let mut body = Vec::new();
            Request::Get { key: 9 }.encode_with_id(id, &mut body);
            assert_eq!(body[0], PROTO_VERSION);
            let framed = Request::decode_enveloped(&body).unwrap();
            assert_eq!(framed.request_id, id);
            assert_eq!(framed.msg, Request::Get { key: 9 });

            let mut body = Vec::new();
            Response::Got(Some(-3)).encode_with_id(id, &mut body);
            let framed = Response::decode_enveloped(&body).unwrap();
            assert_eq!(framed.request_id, id);
            assert_eq!(framed.msg, Response::Got(Some(-3)));
        }
    }

    #[test]
    fn traced_envelope_roundtrips_and_untraced_stays_byte_identical() {
        let ctx = TraceContext {
            trace_id: 0xAB_CD,
            parent_span: 42,
            flags: TraceContext::SAMPLED | TraceContext::SLOW,
        };
        let mut body = Vec::new();
        Request::Publish.encode_traced(7, Some(&ctx), &mut body);
        assert_eq!(body[0], PROTO_VERSION | PROTO_TRACE_FLAG);
        assert_eq!(body.len(), 1 + 8 + TraceContext::WIRE_BYTES + 1);
        let framed = Request::decode_enveloped(&body).unwrap();
        assert_eq!(framed.request_id, 7);
        assert_eq!(framed.trace, Some(ctx));
        assert_eq!(framed.msg, Request::Publish);

        let frame = response_frame(&Response::Published(9), 3, Some(&ctx));
        let framed = Response::decode_enveloped(&frame[4..]).unwrap();
        assert_eq!(framed.trace, Some(ctx));
        assert_eq!(framed.msg, Response::Published(9));

        // No context → byte-identical to the plain v3 body, so
        // tracing-off costs nothing on the wire.
        let plain = response_frame(&Response::Published(9), 3, None);
        let mut body = vec![PROTO_VERSION];
        put_u64(&mut body, 3);
        body.extend([13, 9, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(plain[4..], body[..]);
        assert_eq!(Response::decode_enveloped(&plain[4..]).unwrap().trace, None);
    }

    #[test]
    fn busy_error_roundtrips() {
        let resp = Response::Error(WireError::Busy(64));
        let mut body = Vec::new();
        resp.encode_with_id(5, &mut body);
        let framed = Response::decode_enveloped(&body).unwrap();
        assert_eq!(framed.request_id, 5);
        assert_eq!(framed.msg, resp);
    }

    #[test]
    fn response_frame_is_versioned_and_substitutes_too_large() {
        // The id comes back in a v3 envelope.
        let frame = response_frame(&Response::Got(None), 9, None);
        let body = &frame[4..];
        assert_eq!(body[0], PROTO_VERSION);
        let framed = Response::decode_enveloped(body).unwrap();
        assert_eq!(framed.request_id, 9);

        // An overflowing body becomes TooLarge with the same envelope.
        let huge = Response::Entries {
            entries: vec![(0, 0); (MAX_FRAME_LEN as usize / 16) + 1],
            complete: true,
        };
        let frame = response_frame(&huge, 7, None);
        let framed = Response::decode_enveloped(&frame[4..]).unwrap();
        assert_eq!(framed.request_id, 7);
        assert_eq!(framed.msg, Response::Error(WireError::TooLarge));
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        assert_eq!(len as usize, frame.len() - 4);
    }

    #[test]
    fn push_ids_live_outside_the_client_namespace() {
        // Clients allocate ids upward from 1; push ids set the top bit,
        // so the two namespaces can never collide in practice.
        for epoch in [1u64, 42, u64::MAX >> 1] {
            let id = PUSH_ID_BASE | epoch;
            assert_ne!(id & PUSH_ID_BASE, 0);
            assert_eq!(id & !PUSH_ID_BASE, epoch);
            let mut body = Vec::new();
            Response::Push {
                from: epoch - 1,
                epoch,
                entries: vec![],
            }
            .encode_with_id(id, &mut body);
            let framed = Response::decode_enveloped(&body).unwrap();
            assert_eq!(framed.request_id, id);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Vec::new();
        Request::Get { key: 5 }.encode(&mut body);
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(ProtoError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_request_enveloped(&mut r),
            Err(ProtoError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn oversized_reply_body_fails_before_any_byte_is_written() {
        // ~1.1M entries at 16 bytes each overflow the 16 MiB frame cap.
        let huge = Response::Entries {
            entries: vec![(0, 0); (MAX_FRAME_LEN as usize / 16) + 1],
            complete: true,
        };
        let mut buf = Vec::new();
        let err = write_response_with_id(&mut buf, 0, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "stream must stay at a frame boundary");
    }

    #[test]
    fn corrupt_sequence_length_is_truncated_not_oom() {
        // A Batch frame claiming u32::MAX ops with a near-empty payload
        // must fail cleanly instead of attempting a giant allocation.
        let mut body = vec![PROTO_VERSION];
        put_u64(&mut body, 0); // request id
        body.push(5); // Batch
        body.push(0); // guarded: false
        put_u32(&mut body, u32::MAX);
        assert!(matches!(Request::decode(&body), Err(ProtoError::Truncated)));
    }

    #[test]
    fn sync_page_cap_fits_the_frame_cap_with_room() {
        // The chunking invariant: a maximal SyncPage must encode well
        // under MAX_FRAME_LEN (satellite: FullSync bootstrap can never
        // trip the frame cap, however big the map).
        let page = Response::SyncPage {
            epoch: u64::MAX,
            entries: vec![(i64::MIN, i64::MAX); SYNC_PAGE_MAX_ENTRIES as usize],
            done: false,
        };
        let mut body = Vec::new();
        page.encode(&mut body);
        assert!(
            (body.len() as u32) < MAX_FRAME_LEN / 4,
            "maximal sync page ({} bytes) too close to the frame cap",
            body.len()
        );
    }
}
