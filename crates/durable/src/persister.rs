//! The glue between the primary's feed and the log: a
//! [`FeedSink`] that appends every published epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use pathcopy_metrics::{HistogramSnapshot, LatencyHistogram, Stage};
use pathcopy_server::backend::ServeSnapshot;
use pathcopy_server::metrics::{summarize, MetricsSource};
use pathcopy_server::proto::{Epoch, StageSummary};
use pathcopy_server::FeedSink;
use pathcopy_trace::{Flight, TraceContext};

use crate::log::{EpochLog, LogError};

/// Persists a `VersionFeed` into an [`EpochLog`].
///
/// Install it as
/// [`ServerConfig::feed_sink`](pathcopy_server::ServerConfig) (or pass
/// it to `VersionFeed::configured`) and every published epoch becomes
/// durable before `publish_with` returns:
///
/// * normally, the epoch's **pruned diff** against its predecessor —
///   the identical `prev.diff(snap)` the server would send a replica,
///   sublinear in map size thanks to path copying;
/// * a full **checkpoint** when one is due
///   ([`LogConfig::checkpoint_every`](crate::LogConfig)), when there is
///   no predecessor snapshot (the first publish after recovery), when
///   the snapshots cannot be diffed, or when a diff append fails —
///   checkpoints re-base the log, so any failure self-heals at the next
///   epoch at the cost of one full-state write.
///
/// Publication cannot be un-announced, so the sink cannot make
/// `publish_with` fail; log errors are parked for the operator instead
/// ([`take_error`](Self::take_error) / [`error_count`](Self::error_count)).
///
/// Epochs at or below the log's head are skipped, which makes the sink
/// idempotent when a recovered primary replays publishes it already
/// persisted.
pub struct FeedPersister {
    log: Arc<EpochLog>,
    last_error: Mutex<Option<LogError>>,
    errors: AtomicU64,
    append_fsync: LatencyHistogram,
    /// Span sink for traced publishes; `None` until
    /// [`attach_flight`](Self::attach_flight).
    flight: Mutex<Option<Arc<Flight>>>,
}

impl FeedPersister {
    /// Wraps `log` as a feed sink.
    pub fn new(log: Arc<EpochLog>) -> Arc<Self> {
        Arc::new(FeedPersister {
            log,
            last_error: Mutex::new(None),
            errors: AtomicU64::new(0),
            append_fsync: LatencyHistogram::new(),
            flight: Mutex::new(None),
        })
    }

    /// Attaches the node's trace flight recorder: from here on, a
    /// traced publish records its append+fsync as an
    /// [`Stage::AppendFsync`] span under the publish's execute span,
    /// so the durability cost shows up inside the request's timeline.
    pub fn attach_flight(&self, flight: Arc<Flight>) {
        *self.flight.lock() = Some(flight);
    }

    /// Latency distribution of whole-epoch persistence (diff or
    /// checkpoint append, including the fsync), in nanoseconds per
    /// published epoch. Register the persister as a
    /// [`MetricsSource`] on the server
    /// ([`ServerHandle::register_metrics_source`](pathcopy_server::ServerHandle::register_metrics_source))
    /// to expose it over `Request::Metrics`.
    pub fn append_fsync_snapshot(&self) -> HistogramSnapshot {
        self.append_fsync.snapshot()
    }

    /// The log being written.
    pub fn log(&self) -> &Arc<EpochLog> {
        &self.log
    }

    /// Takes (and clears) the most recent append error, if any.
    pub fn take_error(&self) -> Option<LogError> {
        self.last_error.lock().take()
    }

    /// Total appends that failed (each also re-based via a checkpoint
    /// attempt at the next opportunity).
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn record_error(&self, e: LogError) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(e);
    }
}

impl FeedSink for FeedPersister {
    fn on_publish(
        &self,
        epoch: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) {
        if epoch <= self.log.head() {
            return; // already durable (recovered primary republishing)
        }
        let started = Instant::now();
        let every = self.log.config().checkpoint_every.max(1);
        let last = self.log.last_checkpoint();
        let checkpoint_due = last == 0 || epoch - last >= every;
        let result = match prev {
            Some(prev) if !checkpoint_due => match prev.diff(snap.as_ref()) {
                Some(entries) => self
                    .log
                    .append_diff(epoch, &entries)
                    // Oversized diff, sequence gap after an earlier
                    // failure, …: re-base with a checkpoint.
                    .or_else(|_| self.log.append_checkpoint(epoch, snap.as_ref())),
                None => self.log.append_checkpoint(epoch, snap.as_ref()),
            },
            _ => self.log.append_checkpoint(epoch, snap.as_ref()),
        };
        let finished = Instant::now();
        let ns = (finished - started).as_nanos().min(u64::MAX as u128) as u64;
        // A traced publish pins the fsync cost inside its timeline (a
        // child of the execute span on this node) and becomes the
        // histogram's exemplar candidate.
        self.append_fsync
            .record_tagged(ns, 0, trace.map_or(0, |c| c.trace_id));
        if let Some(ctx) = trace {
            if let Some(flight) = self.flight.lock().as_ref() {
                flight.span(None, ctx, Stage::AppendFsync, 0, epoch, started, finished);
            }
        }
        if let Err(e) = result {
            self.record_error(e);
        }
    }
}

impl MetricsSource for FeedPersister {
    fn collect(&self) -> Vec<StageSummary> {
        vec![summarize(
            Stage::AppendFsync,
            0,
            &self.append_fsync.snapshot(),
        )]
    }

    fn reset(&self) {
        self.append_fsync.reset();
    }
}
