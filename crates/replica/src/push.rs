//! The replica: bootstrap by pull, then follow the feed by push, and
//! optionally re-serve it as a relay.
//!
//! A [`PushReplica`] owns one connection to its feed source (the
//! primary, or any relay) and a local store (any [`ServeBackend`]).
//! [`connect`](PushReplica::connect) bootstraps the store with a
//! chunked full sync, or [`connect_seeded`](PushReplica::connect_seeded)
//! replays a durable epoch log into it and catches up by diff; either
//! way the replica then registers for the feed
//! ([`Session::subscribe`](pathcopy_server::Session::subscribe)). From
//! there on every published epoch arrives as an unsolicited diff frame
//! and [`PushReplica::pump`] applies it as one atomic batch. In the
//! steady state a follower costs the source **one diff-sized frame per
//! epoch** and issues **zero** requests.
//!
//! The pull path survives only for bootstrap and gap repair
//! ([`PushReplica::sync_now`]):
//!
//! * **Diff** — `PullDiff(applied_epoch)` fetches everything that
//!   changed between the replica's epoch and the feed head, applied
//!   through the store's [`transact`](ServeBackend::transact) as one
//!   batch ([`diff_to_ops`]).
//! * **Full sync** — when bootstrapping, when the replica's epoch has
//!   been retired from the source's feed ring, or when the diff reply
//!   overflows the frame cap, the replica pages the pinned head down in
//!   bounded [`SyncPage`](pathcopy_server::Response::SyncPage) segments
//!   and applies the local reconciliation, again as one batch.
//!
//! On a backend with atomic batches (the sharded map) local readers only
//! ever observe published versions, never a half-applied epoch.
//! [`PullStats`] counts the exact wire bytes each pull path moved (via
//! [`Client::wire_bytes`]): diff catch-up transfers O(changes) bytes
//! while a full sync transfers O(n).
//!
//! **Relay chaining** is what makes fan-out scale: a replica can itself
//! serve the feed. [`PushReplica::serve_relay`] spawns a full
//! `pathcopy-server` over the replica's store and mirrors every applied
//! epoch into that server's own feed under its **original number**
//! ([`VersionFeed::publish_at`](pathcopy_server::VersionFeed::publish_at)).
//! Downstream subscribers — more relays, or leaves — cannot tell the
//! relay from the primary: same frames, same epoch sequence, same
//! catch-up semantics. A tree of depth `d` with fan-out `f` serves
//! `f^d` leaves while the primary's egress stays `f` frames per epoch,
//! independent of the leaf count — path copying keeps each relay's
//! mirrored ring cheap (retained epochs share unchanged subtrees), so
//! the relay tax is O(changes), not O(n).
//!
//! Epoch numbers are **end-to-end**: a write's watermark issued by the
//! primary ([`Response::WroteAt`](pathcopy_server::Response::WroteAt))
//! is meaningful at any depth, which is what lets a session token
//! ([`SessionToken`](pathcopy_server::SessionToken)) carry
//! read-your-writes through an arbitrary relay tree.
//!
//! Delivery discipline (the invariants [`PushReplica::pump`] keeps):
//!
//! * apply a push only when its `from` epoch equals the locally applied
//!   epoch — anything newer is a **gap** (the source demoted us, or
//!   frames were dropped), repaired by one pull plus a resubscribe;
//! * ignore pushes at or below the applied epoch — after a catch-up the
//!   subscription can replay an epoch the pull already covered
//!   ([`PushOutcome::Stale`]), and applying it twice would corrupt the
//!   store;
//! * mirror into the relay feed **after** the store mutation, so a
//!   downstream `FullSync` pinning the mirrored epoch always sees a
//!   store at least that new.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcopy_concurrent::{diff_to_ops, BatchOp};
use pathcopy_durable::EpochLog;
use pathcopy_metrics::{HistogramSnapshot, LatencyHistogram, Stage};
use pathcopy_server::metrics::{summarize, MetricsSource};
use pathcopy_server::proto::StageSummary;
use pathcopy_server::{
    Client, ClientError, Epoch, ServeBackend, ServerConfig, ServerHandle, Subscription, WireError,
};
use pathcopy_trace::{Flight, TraceContext};

/// What one pull ([`PushReplica::sync_now`]) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Caught up via an incremental epoch diff (`changes` entries;
    /// `0` = the replica was already at the head).
    Diff {
        /// The epoch the replica is now at.
        to: Epoch,
        /// Number of diff entries applied.
        changes: usize,
    },
    /// Bootstrapped (or re-bootstrapped after lagging past the feed
    /// ring) via a chunked full sync.
    FullSync {
        /// The epoch the replica is now at.
        to: Epoch,
        /// Entries transferred (the pinned version's size).
        entries: usize,
    },
}

/// Monotone counters for the pull path (bootstrap and gap repair),
/// complementing [`PushStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PullStats {
    /// The feed epoch the local store currently equals.
    pub applied_epoch: Epoch,
    /// Completed incremental catch-ups ([`SyncOutcome::Diff`]).
    pub diff_pulls: u64,
    /// Completed full syncs ([`SyncOutcome::FullSync`]).
    pub full_syncs: u64,
    /// Diff entries applied across all incremental catch-ups.
    pub diff_entries: u64,
    /// Entries transferred across all full syncs.
    pub full_entries: u64,
    /// Upstream wire bytes (both directions) moved while incremental
    /// catch-ups ran. A push frame that lands on the connection during
    /// a pull is counted here too.
    pub diff_bytes: u64,
    /// Upstream wire bytes (both directions) moved while full syncs
    /// ran.
    pub full_bytes: u64,
    /// Times the replica found its epoch retired from the feed ring and
    /// had to fall back to a full sync.
    pub ring_fallbacks: u64,
    /// Bootstraps performed from a durable epoch log instead of the
    /// wire ([`PushReplica::connect_seeded`] — zero `FullSync` bytes).
    pub log_seeds: u64,
    /// Entries materialized by log-seeded bootstraps.
    pub log_seed_entries: u64,
}

/// What one [`PushReplica::pump`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// No push arrived within the timeout; the feed is quiet.
    Idle,
    /// A push at or below the applied epoch was ignored (a replay the
    /// preceding catch-up already covered).
    Stale {
        /// The ignored push's epoch.
        epoch: Epoch,
    },
    /// A pushed diff was applied atomically.
    Pushed {
        /// The epoch the store now equals.
        epoch: Epoch,
        /// Diff entries applied.
        changes: usize,
    },
    /// The push did not adjoin the applied epoch (a gap): repaired by
    /// one pull catch-up plus a fresh subscription.
    CaughtUp {
        /// The epoch the store now equals.
        to: Epoch,
    },
}

/// Monotone counters for the push path, complementing [`PullStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushStats {
    /// Pushes applied directly ([`PushOutcome::Pushed`]).
    pub pushes_applied: u64,
    /// Diff entries applied across all pushes.
    pub push_entries: u64,
    /// Stale pushes ignored ([`PushOutcome::Stale`]).
    pub stale_pushes: u64,
    /// Gaps repaired by falling back to a pull
    /// ([`PushOutcome::CaughtUp`]).
    pub push_gaps: u64,
    /// Fresh subscriptions established after a pull.
    pub resubscribes: u64,
}

/// Latency histograms for the push path, shared so a relay's serving
/// endpoint can expose them over `Request::Metrics` while the pump
/// thread keeps recording.
///
/// * **push-apply** — nanoseconds from a push frame leaving the
///   subscription queue to the diff being applied and mirrored;
/// * **epoch lag** — `frame.epoch - applied` at each applied or
///   gap-revealing push, in epochs: steady-state delivery records `1`
///   per frame, anything larger is backlog the primary published while
///   this replica wasn't keeping up (the watermark already on the wire
///   makes this measurable end-to-end, at any relay depth).
#[derive(Debug, Default)]
pub struct PushMetrics {
    push_apply: LatencyHistogram,
    epoch_lag: LatencyHistogram,
}

impl PushMetrics {
    /// Snapshot of the push-apply latency histogram (nanoseconds).
    pub fn push_apply_snapshot(&self) -> HistogramSnapshot {
        self.push_apply.snapshot()
    }

    /// Snapshot of the epoch-lag histogram (epochs).
    pub fn epoch_lag_snapshot(&self) -> HistogramSnapshot {
        self.epoch_lag.snapshot()
    }
}

impl MetricsSource for PushMetrics {
    fn collect(&self) -> Vec<StageSummary> {
        vec![
            summarize(Stage::PushApply, 0, &self.push_apply.snapshot()),
            summarize(Stage::EpochLag, 0, &self.epoch_lag.snapshot()),
        ]
    }

    fn reset(&self) {
        self.push_apply.reset();
        self.epoch_lag.reset();
    }
}

/// The pull half of a replica: the upstream connection, the local store
/// it materializes into, and the pull counters. It exists apart from
/// [`PushReplica`] only because the bootstrap pull must finish before
/// the subscription can be opened.
struct Pull {
    client: Client,
    store: Arc<dyn ServeBackend>,
    stats: PullStats,
}

impl Pull {
    /// One catch-up step: incremental diff when possible, full sync when
    /// bootstrapping or after lagging past the source's feed ring.
    /// `EpochRetired`/`TooLarge` trigger the full-sync fallback and are
    /// not returned.
    fn sync(&mut self) -> Result<SyncOutcome, ClientError> {
        let applied = self.stats.applied_epoch;
        if applied == 0 {
            return self.full_sync();
        }
        let before = self.client.wire_bytes();
        match self.client.pull_diff(applied) {
            Ok((to, entries)) => {
                if !entries.is_empty() {
                    self.store.transact(&diff_to_ops(&entries));
                }
                self.stats.diff_bytes += self.client.wire_bytes().since(&before).total();
                self.stats.diff_pulls += 1;
                self.stats.diff_entries += entries.len() as u64;
                self.stats.applied_epoch = to;
                Ok(SyncOutcome::Diff {
                    to,
                    changes: entries.len(),
                })
            }
            // Lagged past the ring (or the diff no longer fits a frame):
            // bootstrap again from the head.
            Err(ClientError::Server(WireError::EpochRetired(_) | WireError::TooLarge)) => {
                self.stats.ring_fallbacks += 1;
                self.full_sync()
            }
            Err(e) => Err(e),
        }
    }

    /// Pages the source's head version down in bounded segments and
    /// reconciles the local store against it **atomically**. If the
    /// pinned epoch is retired mid-transfer (a tiny feed ring under
    /// publish churn), the transfer restarts from a fresh pin, up to a
    /// bounded number of attempts; the last retirement error is returned
    /// if every attempt lost its pin.
    fn full_sync(&mut self) -> Result<SyncOutcome, ClientError> {
        const MAX_RESTARTS: usize = 8;
        let before = self.client.wire_bytes();
        let mut last_err: Option<ClientError> = None;
        for _ in 0..MAX_RESTARTS {
            match self.try_full_transfer() {
                Ok((epoch, target)) => {
                    let transferred = target.len();
                    self.reconcile(&target);
                    self.stats.full_bytes += self.client.wire_bytes().since(&before).total();
                    self.stats.full_syncs += 1;
                    self.stats.full_entries += transferred as u64;
                    self.stats.applied_epoch = epoch;
                    return Ok(SyncOutcome::FullSync {
                        to: epoch,
                        entries: transferred,
                    });
                }
                Err(e @ ClientError::Server(WireError::EpochRetired(_))) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("restarts only on EpochRetired"))
    }

    /// Pages one pinned epoch fully down. `Err(EpochRetired)` means the
    /// pin died mid-transfer and the caller should restart.
    fn try_full_transfer(&mut self) -> Result<(Epoch, BTreeMap<i64, i64>), ClientError> {
        let mut target = BTreeMap::new();
        let (epoch, first, mut done) = self.client.full_sync_page(None, None, 0)?;
        let mut after = first.last().map(|(k, _)| *k);
        target.extend(first);
        while !done {
            let (e, page, page_done) = self.client.full_sync_page(Some(epoch), after, 0)?;
            debug_assert_eq!(e, epoch, "server pages the pinned epoch");
            after = page.last().map(|(k, _)| *k).or(after);
            target.extend(page);
            done = page_done;
        }
        Ok((epoch, target))
    }

    /// Applies `local → target` as one batch: inserts/overwrites for
    /// entries that differ, removals for local keys the target lacks.
    /// Both sides are sorted, so this is a single two-pointer merge.
    fn reconcile(&self, target: &BTreeMap<i64, i64>) {
        let snap = self.store.snapshot();
        let (local, complete) =
            snap.range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded, 0);
        debug_assert!(complete, "unlimited range scans to completion");
        let mut ops: Vec<BatchOp<i64, i64>> = Vec::new();
        let mut incoming = target.iter().peekable();
        for (k, v) in &local {
            while let Some(&(&tk, &tv)) = incoming.peek() {
                if tk >= *k {
                    break;
                }
                ops.push(BatchOp::Insert(tk, tv)); // target-only, before k
                incoming.next();
            }
            match incoming.peek() {
                Some(&(&tk, &tv)) if tk == *k => {
                    if tv != *v {
                        ops.push(BatchOp::Insert(tk, tv));
                    }
                    incoming.next();
                }
                _ => ops.push(BatchOp::Remove(*k)), // local-only
            }
        }
        for (&tk, &tv) in incoming {
            ops.push(BatchOp::Insert(tk, tv)); // target-only tail
        }
        if !ops.is_empty() {
            self.store.transact(&ops);
        }
    }
}

/// A read replica of a `pathcopy-server` primary, fed by push and
/// optionally re-serving the feed as a relay; see the module docs.
pub struct PushReplica {
    pull: Pull,
    sub: Subscription,
    relay: Option<ServerHandle>,
    stats: PushStats,
    metrics: Arc<PushMetrics>,
    /// This node's flight recorder: when set, a traced push frame's
    /// apply is recorded as a [`Stage::PushApply`] span under the
    /// upstream context, and the context (re-parented under that span)
    /// rides the relay's own push frames downstream — each hop of the
    /// tree adds its spans to the same trace.
    flight: Option<Arc<Flight>>,
}

impl PushReplica {
    /// Connects to the feed source at `addr` (the primary, or any
    /// relay), bootstraps `store` with one chunked full sync, and
    /// subscribes for pushes from the bootstrapped epoch onward. After
    /// this returns, the steady state is pure push: drive it with
    /// [`pump`](Self::pump).
    ///
    /// Pick a store with atomic batches (the sharded map) if local
    /// readers must only ever observe published versions.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from connecting, or any [`ClientError`] from
    /// the bootstrap sync or the subscribe round trip (wrapped as IO).
    pub fn connect<A: ToSocketAddrs>(addr: A, store: Box<dyn ServeBackend>) -> io::Result<Self> {
        Self::start(addr, Arc::from(store), PullStats::default())
    }

    /// Like [`connect`](Self::connect), but bootstraps `store` from a
    /// durable epoch log instead of a `FullSync` over the wire: replays
    /// the log's newest checkpoint plus its diff tail into the store
    /// (each epoch applied as one atomic batch), then catches up by
    /// diff from the log's head — **zero full-sync bytes** while that
    /// head is still in the source's feed ring — and subscribes. An
    /// empty log seeds nothing and the bootstrap is a full sync, as
    /// with `connect`.
    ///
    /// Seeding replicas from a log file (shipped, or on shared storage)
    /// keeps a fleet bootstrap from hammering the primary with `O(n)`
    /// full transfers.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `store` is non-empty (seeding assumes a fresh
    /// store); the log's [`LogError`](pathcopy_durable::LogError)
    /// wrapped as IO; otherwise as [`connect`](Self::connect).
    pub fn connect_seeded<A: ToSocketAddrs>(
        addr: A,
        store: Box<dyn ServeBackend>,
        log: &EpochLog,
    ) -> io::Result<Self> {
        if !store.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log seeding requires a fresh, empty replica store",
            ));
        }
        let head = log.replay_into(store.as_ref()).map_err(io::Error::other)?;
        let mut stats = PullStats::default();
        if head > 0 {
            stats.applied_epoch = head;
            stats.log_seeds = 1;
            stats.log_seed_entries = store.len() as u64;
        }
        Self::start(addr, Arc::from(store), stats)
    }

    /// The shared start path: catch `store` up from `stats.applied_epoch`
    /// (`0` = a full sync) and subscribe at the epoch reached.
    fn start<A: ToSocketAddrs>(
        addr: A,
        store: Arc<dyn ServeBackend>,
        stats: PullStats,
    ) -> io::Result<Self> {
        let mut pull = Pull {
            client: Client::connect(addr)?,
            store,
            stats,
        };
        pull.sync()?;
        let (_info, sub) = pull.client.session().subscribe(pull.stats.applied_epoch)?;
        Ok(PushReplica {
            pull,
            sub,
            relay: None,
            stats: PushStats::default(),
            metrics: Arc::new(PushMetrics::default()),
            flight: None,
        })
    }

    /// Installs this node's trace flight recorder (see the `flight`
    /// field docs). Call **before** [`serve_relay`](Self::serve_relay)
    /// so the relay endpoint dumps the same recorder over
    /// `Request::TraceDump`.
    pub fn set_trace(&mut self, flight: Arc<Flight>) {
        self.flight = Some(flight);
    }

    /// The push path's latency histograms; hold the `Arc` to scrape
    /// them from another thread, or let [`serve_relay`](Self::serve_relay)
    /// register them on the relay endpoint automatically.
    pub fn metrics(&self) -> Arc<PushMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The local store, shared: reads served from this handle see the
    /// replica's latest applied epoch. Serve it over TCP with
    /// [`serve_relay`](Self::serve_relay).
    pub fn store(&self) -> Arc<dyn ServeBackend> {
        Arc::clone(&self.pull.store)
    }

    /// The feed epoch the local store currently equals.
    pub fn applied_epoch(&self) -> Epoch {
        self.pull.stats.applied_epoch
    }

    /// The pull path's counters — in the push steady state
    /// `diff_pulls` stays frozen, which is the cheap way to prove no
    /// request traffic reached upstream.
    pub fn pull_stats(&self) -> PullStats {
        self.pull.stats
    }

    /// The push path's counters.
    pub fn push_stats(&self) -> PushStats {
        self.stats
    }

    /// Bytes the upstream connection has moved so far, both directions
    /// (exact whenever no request is in flight).
    pub fn primary_wire_bytes(&self) -> pathcopy_core::ByteCountersSnapshot {
        self.pull.client.wire_bytes()
    }

    /// Spawns a serving endpoint over this replica's store and starts
    /// mirroring applied epochs into its feed, turning this replica
    /// into a **relay**: downstream consumers subscribe to (or pull
    /// from) the returned address exactly as they would the primary,
    /// under the primary's epoch numbers. The feed is seeded at the
    /// currently applied epoch so a subscriber arriving before the
    /// next push still finds a head to sync against. The endpoint
    /// serves the shared store directly: the pump is its only writer,
    /// and readers see coherent snapshots of the last applied epoch.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the relay's listener.
    pub fn serve_relay(&mut self, mut config: ServerConfig) -> io::Result<SocketAddr> {
        // The relay endpoint shares this replica's flight recorder so a
        // `TraceDump` against the relay address returns the apply spans
        // the pump thread records.
        if config.trace.is_none() {
            config.trace = self.flight.clone();
        }
        let handle = pathcopy_server::spawn(Box::new(self.store()), config)?;
        handle.register_metrics_source(self.metrics());
        let applied = self.applied_epoch();
        if applied > 0 {
            handle.publish_at(applied, None);
        }
        let addr = handle.addr();
        self.relay = Some(handle);
        Ok(addr)
    }

    /// The relay endpoint's address, once [`serve_relay`](Self::serve_relay)
    /// has been called.
    pub fn relay_addr(&self) -> Option<SocketAddr> {
        self.relay.as_ref().map(|h| h.addr())
    }

    /// The relay endpoint's exact wire counters (egress/ingress), for
    /// fan-out accounting.
    pub fn relay_wire_bytes(&self) -> Option<pathcopy_core::ByteCountersSnapshot> {
        self.relay.as_ref().map(|h| h.wire_bytes())
    }

    /// Waits up to `timeout` for one push and processes it; the
    /// returned [`PushOutcome`] says which invariant path ran. Call in
    /// a loop — this is the replica's whole steady-state duty cycle.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] when the upstream connection is
    /// gone (reconnect with [`connect`](Self::connect)); any other
    /// [`ClientError`] from a gap repair's pull or resubscribe.
    pub fn pump(&mut self, timeout: Duration) -> Result<PushOutcome, ClientError> {
        let frame = match self.sub.recv_timeout(timeout)? {
            None => return Ok(PushOutcome::Idle),
            Some(frame) => frame,
        };
        let applied = self.applied_epoch();
        if frame.epoch <= applied {
            // A replay: the catch-up that preceded this subscription
            // already covered the epoch. Applying it again would
            // re-execute removals/overwrites against a newer store.
            self.stats.stale_pushes += 1;
            return Ok(PushOutcome::Stale { epoch: frame.epoch });
        }
        // How far ahead the wire says the feed is: 1 per frame in the
        // steady state, more when this replica fell behind. A traced
        // frame's lag sample competes to become the exemplar, so an
        // `epoch_lag` breach in a scrape names the trace that saw it.
        self.metrics.epoch_lag.record_tagged(
            frame.epoch - applied,
            0,
            frame.trace.map_or(0, |c| c.trace_id),
        );
        if frame.from == applied {
            let started = Instant::now();
            if !frame.entries.is_empty() {
                self.pull.store.transact(&diff_to_ops(&frame.entries));
            }
            self.pull.stats.applied_epoch = frame.epoch;
            self.stats.pushes_applied += 1;
            self.stats.push_entries += frame.entries.len() as u64;
            // A traced frame gets its apply recorded as a span under
            // the upstream context, and the onward mirror re-parents
            // the context under that span — the next hop's spans nest
            // beneath this one.
            let onward = match (self.flight.as_ref(), frame.trace.as_ref()) {
                (Some(flight), Some(ctx)) => {
                    let span_id = flight.next_span_id();
                    Some((Arc::clone(flight), *ctx, span_id, ctx.child(span_id)))
                }
                _ => None,
            };
            self.mirror(frame.epoch, onward.as_ref().map(|(_, _, _, child)| child));
            let finished = Instant::now();
            let ns = (finished - started).as_nanos().min(u64::MAX as u128) as u64;
            self.metrics
                .push_apply
                .record_tagged(ns, 0, frame.trace.map_or(0, |c| c.trace_id));
            if let Some((flight, ctx, span_id, _)) = onward {
                flight.span(
                    Some(span_id),
                    &ctx,
                    Stage::PushApply,
                    0,
                    frame.epoch,
                    started,
                    finished,
                );
                flight.maybe_pin(&ctx, ns);
            }
            Ok(PushOutcome::Pushed {
                epoch: frame.epoch,
                changes: frame.entries.len(),
            })
        } else {
            // Gap: frames between `applied` and `frame.from` never
            // arrived (demotion, or subscription established after a
            // publish burst). Repair by pulling, then resubscribe so
            // the server knows our new position.
            self.stats.push_gaps += 1;
            self.sync_now()?;
            Ok(PushOutcome::CaughtUp {
                to: self.applied_epoch(),
            })
        }
    }

    /// Anti-entropy: one pull catch-up (a diff, or a chunked full sync
    /// after lagging past the source's feed ring) plus a fresh
    /// subscription at the epoch reached, mirrored downstream. Push
    /// delivery repairs gaps only when a *later* frame arrives to
    /// reveal them — a lost push followed by silence lags forever. A
    /// production loop calls this when [`pump`](Self::pump) keeps
    /// returning [`PushOutcome::Idle`] while an external signal
    /// (watermarked read traffic, the source's `Gauges` feed head) says
    /// the feed has moved.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the pull or the resubscribe.
    pub fn sync_now(&mut self) -> Result<SyncOutcome, ClientError> {
        let outcome = self.pull.sync()?;
        let to = self.applied_epoch();
        let (_info, sub) = self.pull.client.session().subscribe(to)?;
        self.sub = sub;
        self.stats.resubscribes += 1;
        self.mirror(to, None);
        Ok(outcome)
    }

    /// Fault injection: receives one push within `timeout` and
    /// **discards it unapplied**, returning its epoch. The next pump
    /// then sees a genuine delivery gap and exercises the
    /// [`PushOutcome::CaughtUp`] repair path — exactly the state a
    /// demoted or lossy subscriber is in. Test/chaos tooling only; a
    /// production loop has no reason to call this.
    pub fn drop_one_push(&mut self, timeout: Duration) -> Result<Option<Epoch>, ClientError> {
        Ok(self.sub.recv_timeout(timeout)?.map(|frame| frame.epoch))
    }

    /// Mirrors `epoch` into the relay feed, if this replica serves one.
    /// `publish_at` rejects anything at or below the relay feed's
    /// sequence on its own, so stale mirrors are naturally dropped. A
    /// `trace` context rides the relay's own push frames downstream.
    fn mirror(&self, epoch: Epoch, trace: Option<&TraceContext>) {
        if let Some(relay) = &self.relay {
            relay.publish_at(epoch, trace);
        }
    }
}
