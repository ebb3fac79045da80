//! The primary's version feed: a capped ring of recent snapshots keyed
//! by epoch, the source replicas sync from.
//!
//! Path copying makes this ring nearly free: each retained epoch is an
//! `Arc`-held [`ServeSnapshot`] sharing all unchanged subtrees with its
//! neighbours, so retaining `K` recent versions costs O(changes between
//! them), not `K` copies of the map. That is exactly what log-shipping
//! replication wants — the primary answers
//! [`PullDiff`](crate::proto::Request::PullDiff) with the *pruned*
//! snapshot-to-snapshot diff between the replica's epoch and the head,
//! sublinear in the map size for nearby versions.
//!
//! Epochs are monotone (`1, 2, 3, …`) and never reused. The ring is
//! capped: publishing beyond [`VersionFeed::capacity`] retires the
//! oldest epoch, and a replica that lagged past the ring is told
//! [`WireError::EpochRetired`](crate::proto::WireError::EpochRetired)
//! and bootstraps again via a chunked
//! [`FullSync`](crate::proto::Request::FullSync).

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use pathcopy_trace::TraceContext;

use crate::backend::ServeSnapshot;
use crate::proto::{Epoch, FeedInfo};

/// The push subsystem's internal publication hook. Unlike [`FeedSink`]
/// it also receives the **epoch number** the diff starts from, and it
/// tolerates gaps in the epoch sequence (a relay feed mirrored with
/// [`VersionFeed::publish_at`] skips epochs its upstream pushed past
/// it). Fired under the feed lock, after the sink.
pub(crate) trait EpochFanout: Send + Sync + 'static {
    /// Called once per epoch that lands in the feed. `from` is the
    /// epoch `prev` belongs to (`0` when `prev` is `None`); `trace` is
    /// the context of the publish that produced the epoch, when that
    /// publish was traced.
    fn on_epoch(
        &self,
        from: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        epoch: Epoch,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    );
}

/// An observer of epoch publication, called by
/// [`VersionFeed::publish_with`] for every new epoch — the primary's
/// durability hook.
///
/// The sink runs **under the feed lock**, after the epoch is assigned
/// and inserted but before `publish_with` returns. That gives two
/// guarantees a write-ahead log needs and cannot reconstruct afterwards:
///
/// * **ordering** — sinks observe epochs in exactly the order they were
///   assigned, with no gaps and no interleaving;
/// * **adjacency** — `prev` is the snapshot of epoch `epoch - 1` even if
///   it has already been retired from the ring by the time the sink
///   looks (capacity-1 feeds retire the previous epoch immediately).
///
/// The price is that sink IO (an append + fsync, for
/// `pathcopy-durable`'s persister) serializes publishes, and a
/// `Publish` request runs it on the server's event loop. Publishes are
/// rare control-plane events next to reads/writes, so this is the right
/// trade; a sink must still never block indefinitely.
///
/// A sink has no way to reject an epoch: publication is already visible
/// to pullers. Persisters record failures on the side (see
/// `FeedPersister::take_error` in `pathcopy-durable`) rather than
/// panicking on the event loop.
pub trait FeedSink: Send + Sync + 'static {
    /// Called once per published epoch. `prev` is the previous epoch's
    /// snapshot (`None` for the first epoch this feed ever assigned), so
    /// a sink can compute `prev.diff(snap)` — the same pruned diff
    /// `PullDiff` would serve. `trace` is the context of the publish,
    /// when it was traced: a tracing sink (the durable persister)
    /// records its append+fsync as a span of that trace.
    fn on_publish(
        &self,
        epoch: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    );
}

/// A capped, monotone ring of published snapshots; see the module docs.
pub struct VersionFeed {
    state: Mutex<FeedState>,
    capacity: usize,
    sink: Option<Arc<dyn FeedSink>>,
    fanout: OnceLock<Arc<dyn EpochFanout>>,
}

struct FeedState {
    /// `(epoch, snapshot)` pairs in ascending epoch order.
    ring: VecDeque<(Epoch, Arc<dyn ServeSnapshot>)>,
    next: Epoch,
    /// The most recently published snapshot, kept one beat past its
    /// ring retirement so the sink always sees a correct `prev`.
    prev: Option<Arc<dyn ServeSnapshot>>,
    /// The epoch `prev` belongs to (`0` = none yet). Equal to
    /// `next - 1` on a primary, but a relay feed mirrored with
    /// [`VersionFeed::publish_at`] can have gaps.
    prev_epoch: Epoch,
}

impl VersionFeed {
    /// An empty feed retaining at most `capacity` epochs (min 1).
    pub fn new(capacity: usize) -> Self {
        Self::configured(capacity, 1, None)
    }

    /// An empty feed whose first published epoch will be `start`
    /// (min 1) and whose publishes are mirrored to `sink`, if any.
    ///
    /// A primary recovered from a durable log must continue the epoch
    /// sequence where the log's head left off (`start = head + 1`), or
    /// replicas and the log itself would see epoch numbers reused for
    /// different states.
    pub fn configured(capacity: usize, start: Epoch, sink: Option<Arc<dyn FeedSink>>) -> Self {
        VersionFeed {
            state: Mutex::new(FeedState {
                ring: VecDeque::new(),
                next: start.max(1),
                prev: None,
                prev_epoch: 0,
            }),
            capacity: capacity.max(1),
            sink,
            fanout: OnceLock::new(),
        }
    }

    /// How many epochs the feed retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The epoch the next publish will be assigned. A server reads this
    /// right after applying a write to learn the write's visibility
    /// watermark: the first epoch whose snapshot must contain it.
    pub fn next_epoch(&self) -> Epoch {
        self.state.lock().next
    }

    /// Installs the push subsystem's fan-out hook. One shot: a second
    /// call is ignored. Set during server spawn, before any publish.
    pub(crate) fn set_fanout(&self, fanout: Arc<dyn EpochFanout>) {
        let _ = self.fanout.set(fanout);
    }

    /// Publishes the snapshot `take` returns as the next epoch,
    /// retiring the oldest retained epoch if the ring is full. Returns
    /// the new epoch.
    ///
    /// The snapshot is taken **under the feed lock**. This closes the
    /// snapshot-then-number race of taking it first: there, a write can
    /// land between the snapshot and the lock, so an epoch number read
    /// *after* that write could name a snapshot from *before* it.
    /// Watermark-carrying writes ([`Request::WriteAt`](
    /// crate::proto::Request::WriteAt)) depend on the closed ordering:
    /// every epoch assigned after a write's watermark read contains the
    /// write.
    ///
    /// If the feed has a [`FeedSink`], it observes the epoch before
    /// this returns (see the trait docs for the ordering contract).
    /// `trace` is the context of the publish request, when it was
    /// traced, so the sink (durable append+fsync) and the fan-out (push
    /// frames to subscribers) record their work as spans of — and
    /// propagate — the same distributed trace.
    pub fn publish_with(
        &self,
        take: impl FnOnce() -> Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) -> Epoch {
        let mut state = self.state.lock();
        let snap = take();
        let epoch = state.next;
        state.next += 1;
        state.ring.push_back((epoch, Arc::clone(&snap)));
        while state.ring.len() > self.capacity {
            state.ring.pop_front();
        }
        let from = state.prev_epoch;
        state.prev_epoch = epoch;
        let prev = state.prev.replace(Arc::clone(&snap));
        if let Some(sink) = &self.sink {
            sink.on_publish(epoch, prev.as_ref(), &snap, trace);
        }
        if let Some(fanout) = self.fanout.get() {
            fanout.on_epoch(from, prev.as_ref(), epoch, &snap, trace);
        }
        epoch
    }

    /// Mirrors an epoch published elsewhere into this feed under its
    /// **original number** — what a relay does after applying an
    /// upstream push, so its own subscribers and watermarked reads see
    /// the primary's epoch sequence. Returns `false` (and changes
    /// nothing) if `epoch` is behind this feed's sequence — a late or
    /// duplicate delivery.
    ///
    /// The epoch sequence may skip numbers (the upstream pushed past
    /// this relay and it caught up by diff), so the [`FeedSink`] — whose
    /// contract promises gap-free adjacent epochs — is **not** fired;
    /// only the push fan-out, which carries the `from` epoch explicitly,
    /// observes mirrored publishes. `trace` is the context of the
    /// upstream push being mirrored, when it was traced, so a relay's
    /// own push fan-out re-serves the epoch under the same distributed
    /// trace.
    pub fn publish_at(
        &self,
        epoch: Epoch,
        snap: Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) -> bool {
        let mut state = self.state.lock();
        if epoch < state.next {
            return false;
        }
        state.next = epoch + 1;
        state.ring.push_back((epoch, Arc::clone(&snap)));
        while state.ring.len() > self.capacity {
            state.ring.pop_front();
        }
        let from = state.prev_epoch;
        state.prev_epoch = epoch;
        let prev = state.prev.replace(Arc::clone(&snap));
        if let Some(fanout) = self.fanout.get() {
            fanout.on_epoch(from, prev.as_ref(), epoch, &snap, trace);
        }
        true
    }

    /// The feed's bounds (`head`/`oldest` are `0` while nothing is
    /// published).
    pub fn info(&self) -> FeedInfo {
        let state = self.state.lock();
        FeedInfo {
            head: state.ring.back().map_or(0, |(e, _)| *e),
            oldest: state.ring.front().map_or(0, |(e, _)| *e),
            capacity: self.capacity as u64,
        }
    }

    /// The snapshot retained for `epoch`, if it has not been retired.
    pub fn get(&self, epoch: Epoch) -> Option<Arc<dyn ServeSnapshot>> {
        let state = self.state.lock();
        state
            .ring
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, s)| Arc::clone(s))
    }

    /// The newest published epoch and its snapshot.
    pub fn head(&self) -> Option<(Epoch, Arc<dyn ServeSnapshot>)> {
        let state = self.state.lock();
        state.ring.back().map(|(e, s)| (*e, Arc::clone(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ServeBackend, ShardedServe};

    fn snap_of(b: &ShardedServe) -> Arc<dyn ServeSnapshot> {
        b.snapshot()
    }

    #[test]
    fn epochs_are_monotone_and_capped() {
        let b = ShardedServe::with_shards(2);
        let feed = VersionFeed::new(3);
        assert_eq!(
            feed.info(),
            FeedInfo {
                head: 0,
                oldest: 0,
                capacity: 3
            }
        );
        for expect in 1..=5u64 {
            b.insert(expect as i64, 0);
            assert_eq!(feed.publish_with(|| snap_of(&b), None), expect);
        }
        let info = feed.info();
        assert_eq!(info.head, 5);
        assert_eq!(info.oldest, 3, "epochs 1 and 2 retired");
        assert!(feed.get(2).is_none());
        assert_eq!(feed.get(3).expect("retained").len(), 3);
        assert_eq!(feed.head().expect("head").0, 5);
    }

    #[test]
    fn sink_sees_every_epoch_in_order_with_adjacent_prev() {
        struct Recorder(Mutex<Vec<(Epoch, Option<usize>, usize)>>);
        impl FeedSink for Recorder {
            fn on_publish(
                &self,
                epoch: Epoch,
                prev: Option<&Arc<dyn ServeSnapshot>>,
                snap: &Arc<dyn ServeSnapshot>,
                _trace: Option<&TraceContext>,
            ) {
                self.0
                    .lock()
                    .push((epoch, prev.map(|p| p.len()), snap.len()));
            }
        }
        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let b = ShardedServe::with_shards(2);
        // Capacity 1: the ring retires `prev` immediately, yet the sink
        // must still see it. Start at epoch 7 (a recovered primary).
        let feed = VersionFeed::configured(1, 7, Some(Arc::clone(&recorder) as Arc<dyn FeedSink>));
        for k in 0..3i64 {
            b.insert(k, k);
            assert_eq!(feed.publish_with(|| snap_of(&b), None), 7 + k as u64);
        }
        let seen = recorder.0.lock().clone();
        assert_eq!(seen, vec![(7, None, 1), (8, Some(1), 2), (9, Some(2), 3)]);
        assert_eq!(feed.info().oldest, 9, "capacity 1 keeps only the head");
    }

    #[test]
    fn publish_at_mirrors_foreign_epochs_and_rejects_stale_ones() {
        let b = ShardedServe::with_shards(2);
        let feed = VersionFeed::new(4);
        assert_eq!(feed.next_epoch(), 1);
        b.insert(1, 10);
        assert!(feed.publish_at(5, snap_of(&b), None), "fresh epoch lands");
        assert_eq!(feed.info().head, 5);
        assert_eq!(feed.next_epoch(), 6);
        assert!(!feed.publish_at(5, snap_of(&b), None), "duplicate rejected");
        assert!(!feed.publish_at(3, snap_of(&b), None), "stale rejected");
        b.insert(2, 20);
        assert!(feed.publish_at(9, snap_of(&b), None), "gaps are fine");
        assert_eq!((feed.info().oldest, feed.info().head), (5, 9));
        // Ordinary publish continues the mirrored sequence.
        assert_eq!(feed.publish_with(|| snap_of(&b), None), 10);
    }

    #[test]
    fn publish_with_snapshots_under_the_lock() {
        let b = ShardedServe::with_shards(2);
        let feed = VersionFeed::new(4);
        b.insert(7, 70);
        let epoch = feed.publish_with(|| b.snapshot(), None);
        assert_eq!(epoch, 1);
        assert_eq!(feed.get(epoch).unwrap().get(7), Some(70));
    }

    #[test]
    fn retained_epochs_are_frozen_versions() {
        let b = ShardedServe::with_shards(2);
        b.insert(1, 10);
        let feed = VersionFeed::new(4);
        let e1 = feed.publish_with(|| snap_of(&b), None);
        b.insert(1, 99);
        b.insert(2, 20);
        let e2 = feed.publish_with(|| snap_of(&b), None);
        assert_eq!(feed.get(e1).unwrap().get(1), Some(10), "epoch 1 frozen");
        assert_eq!(feed.get(e2).unwrap().get(1), Some(99));
        let diff = feed.get(e1).unwrap().diff(feed.get(e2).unwrap().as_ref());
        assert_eq!(diff.expect("same backend").len(), 2);
    }
}
