//! The readiness-driven server core: one event-loop thread that owns
//! every connection and runs every request to completion.
//!
//! The engine's operations never block — a read is one root load, an
//! update is a path copy plus a CAS retry — so handing one to another
//! thread and its reply back would cost more than the work itself. The
//! loop therefore does everything:
//!
//! * **accepts** are drained in bursts (at most
//!   [`Tunables::backlog`] per readiness wake) and refused above
//!   [`Tunables::max_conns`];
//! * **reads** append to a per-connection buffer that is parsed into
//!   whole frames; each decoded request is executed on the spot and its
//!   encoded reply appended to the connection's write queue;
//! * **writes** drain the queue with vectored writes, so the replies to
//!   one read burst leave together in one syscall;
//! * **parked reads**: a [`Request::GetAt`] whose watermark is not yet
//!   published waits on the loop — never on a thread — until a publish
//!   wakes it or its deadline (clamped to [`GET_AT_MAX_WAIT`]) answers
//!   it [`WireError::Stale`];
//! * **admission control** sheds any request that would put a
//!   connection past [`Tunables::queue_depth`] in-flight requests with
//!   an immediate [`WireError::Busy`] carrying the bound. A request is
//!   in flight from decode until its reply is handed to the kernel, and
//!   a parked read counts.
//!
//! Other threads reach the loop through the [`PushHub`]: a queue plus
//! the write end of a self-wake pipe (a `UnixStream` pair — `std` has
//! no portable pipe). It carries push frames posted by publishes on
//! other threads, wake-ups for parked reads, and shutdown.
//!
//! A panicking handler is caught per request and answered with
//! [`WireError::Internal`]; the connection and the loop keep serving.
//! Replies echo their request id (see [`crate::proto`]), so a parked
//! read may be answered after requests pipelined behind it. An idle
//! connection costs one fd and a couple of buffers — no thread — which
//! is what lets the server hold thousands of mostly-idle subscribers.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pathcopy_core::DiffEntry;
use pathcopy_metrics::Stage;
use pathcopy_trace::TraceContext;

use crate::backend::ServeSnapshot;
use crate::feed::EpochFanout;
use crate::poll::{Interest, PollEvent, Poller};
use crate::proto::{
    response_frame, Epoch, Framed, Request, RequestId, Response, WireError, MAX_FRAME_LEN,
    PROTO_TRACE_FLAG, PROTO_VERSION, PUSH_ID_BASE,
};
use crate::server::{handle_request, Shared};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Read chunk size; one such buffer lives on the loop's stack.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on the number of frames batched into one vectored write.
const MAX_IOVECS: usize = 64;

/// Push-delivery backpressure bound: a subscriber whose write queue
/// already holds this many frames when another push arrives is demoted
/// — unregistered, the frame dropped — rather than buffered without
/// bound. A demoted subscriber discovers the gap on its next delivery
/// (or timeout), catches up via `PullDiff`, and resubscribes.
const PUSH_OUTQ_MAX: usize = 32;

/// Longest a [`Request::GetAt`] may stay parked, whatever its
/// `wait_ms` asks for.
const GET_AT_MAX_WAIT: Duration = Duration::from_millis(1000);

/// Event-core knobs, split out of `ServerConfig` by `spawn`.
pub(crate) struct Tunables {
    /// Max accepts drained per listener readiness wake.
    pub(crate) backlog: usize,
    /// Max simultaneous connections; accepts beyond it are refused.
    pub(crate) max_conns: usize,
    /// Max in-flight (decoded, reply not yet written) requests per
    /// connection before shedding with [`WireError::Busy`].
    pub(crate) queue_depth: usize,
}

/// A push frame posted for one subscriber connection.
struct PushFrame {
    conn: u64,
    frame: Vec<u8>,
}

/// The way into the loop from other threads, and the push fan-out.
///
/// Subscribers are the connections registered with `SubscribePush`;
/// the feed's [`EpochFanout`] hook encodes each published epoch's diff
/// **once** and queues a clone of the frame per subscriber, so the loop
/// stays the only writer of any socket. The same hook pokes the
/// self-wake pipe while any `GetAt` is parked, so a publish on another
/// thread (a relay's pump) answers the reads waiting for it.
pub(crate) struct PushHub {
    subs: Mutex<HashSet<u64>>,
    queue: Mutex<Vec<PushFrame>>,
    wake_tx: UnixStream,
    /// Parked `GetAt`s, counted by the loop *before* it reads the feed
    /// head: a publish landing between that read and the park then
    /// sees a waiter and wakes the loop.
    parked: AtomicUsize,
    /// Push frames enqueued to subscribers, ever.
    pub(crate) pushes: AtomicU64,
    /// Subscribers demoted for a full outbox, ever.
    pub(crate) demotions: AtomicU64,
}

impl PushHub {
    pub(crate) fn new(wake_tx: UnixStream) -> Self {
        PushHub {
            subs: Mutex::new(HashSet::new()),
            queue: Mutex::new(Vec::new()),
            wake_tx,
            parked: AtomicUsize::new(0),
            pushes: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// Returns the loop from its poll. A `WouldBlock` means wake bytes
    /// are already pending, which serves the same purpose.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn post(&self, conn: u64, frame: Vec<u8>) {
        let was_empty = {
            let mut queue = self.queue.lock();
            let was_empty = queue.is_empty();
            queue.push(PushFrame { conn, frame });
            was_empty
        };
        // One wake byte per empty→non-empty transition keeps the pipe
        // from filling under load. Invariant: a non-empty queue always
        // has an unconsumed wake byte (or a drain already in progress),
        // so no frame is stranded.
        if was_empty {
            self.wake();
        }
    }

    fn drain(&self) -> Vec<PushFrame> {
        std::mem::take(&mut *self.queue.lock())
    }

    fn register(&self, conn: u64) {
        self.subs.lock().insert(conn);
    }

    fn unregister(&self, conn: u64) -> bool {
        self.subs.lock().remove(&conn)
    }

    pub(crate) fn subscriber_count(&self) -> u64 {
        self.subs.lock().len() as u64
    }

    /// Demotes a slow subscriber: unregisters it and counts the event.
    fn demote(&self, conn: u64) {
        if self.unregister(conn) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl EpochFanout for PushHub {
    fn on_epoch(
        &self,
        from: Epoch,
        prev: Option<&Arc<dyn ServeSnapshot>>,
        epoch: Epoch,
        snap: &Arc<dyn ServeSnapshot>,
        trace: Option<&TraceContext>,
    ) {
        // The epoch is already in the ring: a parked read woken now
        // finds it.
        if self.parked.load(Ordering::SeqCst) > 0 {
            self.wake();
        }
        let subs: Vec<u64> = self.subs.lock().iter().copied().collect();
        if subs.is_empty() {
            return;
        }
        let entries: Vec<DiffEntry<i64, i64>> = match prev {
            Some(prev) => match prev.diff(snap.as_ref()) {
                Some(entries) => entries,
                // Undiffable neighbours (backend swapped?): subscribers
                // will see the gap and pull.
                None => return,
            },
            // First epoch this feed ever held: the whole state is the
            // diff from the empty map.
            None => snap
                .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded, 0)
                .0
                .into_iter()
                .map(|(k, v)| DiffEntry::Added(k, v))
                .collect(),
        };
        // Same precheck PullDiff applies: an epoch too fat for one frame
        // is not pushed at all — subscribers catch up by pulling, which
        // can fall back to a chunked FullSync.
        if entries.len() as u64 * 17 > MAX_FRAME_LEN as u64 {
            return;
        }
        let resp = Response::Push {
            from,
            epoch,
            entries,
        };
        // A traced publish stamps its context into every push frame's
        // envelope, so a subscriber's apply span joins the publisher's
        // trace (parented under the publisher's execute span).
        let frame = response_frame(&resp, PUSH_ID_BASE | epoch, trace);
        for conn in subs {
            self.pushes.fetch_add(1, Ordering::Relaxed);
            self.post(conn, frame.clone());
        }
    }
}

/// An admitted request's envelope and stage clock: what the loop needs
/// to encode its reply and close its execute and write/flush stages.
struct Admitted {
    request_id: RequestId,
    tag: u8,
    /// When the request was decoded. `None` unless metrics are on or
    /// the request is traced, so the untraced, unmetered path reads no
    /// clock.
    started: Option<Instant>,
    /// The request's trace context and its pre-allocated execute span
    /// id, when it arrived traced and a flight recorder is configured.
    trace: Option<(TraceContext, u64)>,
}

/// A `GetAt` waiting on the loop for its watermark to be published.
struct Parked {
    conn: u64,
    req: Request,
    min_epoch: Epoch,
    deadline: Instant,
    admitted: Admitted,
}

/// Closes out the write/flush stage of one reply when its last byte
/// reaches the kernel.
struct Reply {
    tag: u8,
    /// As [`Admitted::started`]: the request's anchor on this node.
    started: Option<Instant>,
    /// When the reply was encoded: the write/flush stage's start.
    encoded: Option<Instant>,
    /// Trace context and the epoch the reply names, for the span.
    trace: Option<(TraceContext, u64)>,
}

/// One encoded frame on a connection's write queue.
struct OutFrame {
    bytes: Vec<u8>,
    /// Set on the reply to an admitted request, which leaves the
    /// connection's in-flight count when this frame is written.
    /// `None` for frames that answer no admitted request (shed and
    /// framing errors, acks, pushes).
    reply: Option<Reply>,
}

impl OutFrame {
    fn plain(bytes: Vec<u8>) -> Self {
        OutFrame { bytes, reply: None }
    }
}

/// Per-connection state: the nonblocking socket and its buffers.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into whole frames.
    rbuf: Vec<u8>,
    /// Encoded frames awaiting the socket; the front one may be
    /// partially written (`out_off` bytes already gone).
    outq: VecDeque<OutFrame>,
    out_off: usize,
    /// Admitted requests whose reply has not been written yet, parked
    /// reads included — the admission-control counter.
    in_flight: usize,
    /// No more reads (peer half-closed, or inbound framing is broken);
    /// the connection closes once everything pending has been written.
    closing: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            outq: VecDeque::new(),
            out_off: 0,
            in_flight: 0,
            closing: false,
            interest: Interest::READ,
        }
    }
}

/// The loop itself; constructed by `spawn`, consumed by [`run`](Self::run)
/// on its own thread.
pub(crate) struct EventLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    poller: Poller,
    shared: Arc<Shared>,
    tunables: Tunables,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    parked: Vec<Parked>,
}

impl EventLoop {
    pub(crate) fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        shared: Arc<Shared>,
        tunables: Tunables,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(EventLoop {
            listener,
            wake_rx,
            poller,
            shared,
            tunables,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            parked: Vec::new(),
        })
    }

    /// Serves until the shared stop flag is raised (and a wake byte
    /// lands). The flag is checked before every wait, not after it: a
    /// wake-byte drain may swallow the shutdown byte along with others.
    /// Teardown is deterministic: dropping `self` closes every
    /// connection socket; parked reads go unanswered with them.
    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);
        while !self.shared.stop.load(Ordering::SeqCst) {
            events.clear();
            let timeout = self
                .parked
                .iter()
                .map(|p| p.deadline)
                .min()
                .map(|d| d.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                return;
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.drain_wake_bytes(),
                    token => self.conn_event(token, ev.readable, ev.writable),
                }
            }
            self.apply_pushes();
            self.answer_parked();
        }
    }

    fn accept_burst(&mut self) {
        for _ in 0..self.tunables.backlog.max(1) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.tunables.max_conns {
                        // Over the cap: refuse by dropping the socket.
                        // The kernel already completed the handshake,
                        // so the peer sees an immediate close rather
                        // than an unanswered SYN.
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    self.publish_conn_gauge();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_wake_bytes(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return, // write end gone: shutting down
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Moves posted push frames onto their subscribers' write queues,
    /// then flushes those connections.
    fn apply_pushes(&mut self) {
        let batch = self.shared.push.drain();
        if batch.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for push in batch {
            // A push may outlive its connection; it is dropped here.
            let Some(mut conn) = self.conns.remove(&push.conn) else {
                continue;
            };
            // Backpressure: a subscriber whose socket will not take a
            // full outbox is demoted instead of buffered forever. A
            // burst of pushes queued while the loop was busy is not
            // backpressure, so the outbox is flushed before it is
            // judged.
            if conn.outq.len() >= PUSH_OUTQ_MAX {
                self.flush(&mut conn);
            }
            if conn.outq.len() >= PUSH_OUTQ_MAX || conn.closing {
                self.shared.push.demote(push.conn);
            } else {
                conn.outq.push_back(OutFrame::plain(push.frame));
                touched.push(push.conn);
            }
            self.conns.insert(push.conn, conn);
        }
        self.settle_all(touched);
    }

    /// Answers every parked read whose watermark is now published
    /// (with the value) or whose deadline has passed (with
    /// [`WireError::Stale`]), and drops those whose connection is gone.
    fn answer_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let head = self.shared.feed.info().head;
        let now = Instant::now();
        let mut touched = Vec::new();
        let mut still = Vec::with_capacity(self.parked.len());
        for p in std::mem::take(&mut self.parked) {
            let gone = !self.conns.contains_key(&p.conn);
            if !gone && head < p.min_epoch && now < p.deadline {
                still.push(p);
                continue;
            }
            self.shared.push.parked.fetch_sub(1, Ordering::SeqCst);
            if gone {
                continue;
            }
            // The handler reads the head again and answers `GotAt` or
            // `Stale(head)`.
            let frame = self.execute(p.req, p.admitted);
            if let Some(conn) = self.conns.get_mut(&p.conn) {
                conn.outq.push_back(frame);
                touched.push(p.conn);
            }
        }
        self.parked = still;
        self.settle_all(touched);
    }

    fn settle_all(&mut self, mut tokens: Vec<u64>) {
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            if let Some(conn) = self.conns.remove(&token) {
                self.settle(token, conn, true);
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut alive = true;
        if writable {
            alive = self.flush(&mut conn);
        }
        if alive && readable {
            alive = self.read_and_dispatch(token, &mut conn);
        }
        self.settle(token, conn, alive);
    }

    /// Final per-event bookkeeping: flush whatever queued, close the
    /// connection if it is finished (or dead), and keep the poller's
    /// interest in sync with what the connection actually needs.
    fn settle(&mut self, token: u64, mut conn: Conn, mut alive: bool) {
        if alive {
            alive = self.flush(&mut conn);
        }
        if alive && conn.closing && conn.in_flight == 0 && conn.outq.is_empty() {
            alive = false; // everything owed has been written
        }
        if !alive {
            self.shared.push.unregister(token);
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            drop(conn); // closes the socket
            self.publish_conn_gauge();
            return;
        }
        // A closing connection stops reading (or a level-triggered
        // poller would spin on its unread bytes); write interest
        // follows the queue.
        let want = Interest {
            read: !conn.closing,
            write: !conn.outq.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    /// Drains the socket into the read buffer and parses/dispatches
    /// every complete frame. Returns `false` if the connection died.
    fn read_and_dispatch(&mut self, token: u64, conn: &mut Conn) -> bool {
        if conn.closing {
            return true;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // Peer closed its write side. Anything still
                    // in flight or queued is written before the
                    // connection goes; nothing pending means it goes
                    // now.
                    if conn.in_flight == 0 && conn.outq.is_empty() {
                        return false;
                    }
                    conn.closing = true;
                    return true;
                }
                Ok(n) => {
                    self.shared.wire.add_received(n as u64);
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    self.parse_frames(token, conn);
                    if conn.closing {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Splits `conn.rbuf` into complete frames and dispatches each.
    /// An unparseable frame is answered with `Malformed` and marks the
    /// connection closing — the stream position can no longer be
    /// trusted past it.
    fn parse_frames(&mut self, token: u64, conn: &mut Conn) {
        let mut pos = 0usize;
        while conn.rbuf.len() - pos >= 4 {
            let len =
                u32::from_le_bytes(conn.rbuf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN as usize || len < 2 {
                // The length prefix itself is broken: no envelope to
                // echo, answer with id 0 and stop trusting the stream.
                conn.outq.push_back(OutFrame::plain(response_frame(
                    &Response::Error(WireError::Malformed),
                    0,
                    None,
                )));
                conn.closing = true;
                break;
            }
            if conn.rbuf.len() - pos - 4 < len {
                break; // incomplete frame: wait for more bytes
            }
            let body = &conn.rbuf[pos + 4..pos + 4 + len];
            pos += 4 + len;
            match Request::decode_enveloped(body) {
                Ok(framed) => self.dispatch(token, conn, framed),
                Err(_) => {
                    conn.outq.push_back(OutFrame::plain(response_frame(
                        &Response::Error(WireError::Malformed),
                        peek_request_id(body),
                        None,
                    )));
                    conn.closing = true;
                    break;
                }
            }
        }
        if conn.closing {
            conn.rbuf.clear();
        } else {
            conn.rbuf.drain(..pos);
        }
    }

    /// Admission control, then run the request to completion — or park
    /// it, for a `GetAt` whose watermark is not yet published.
    fn dispatch(&mut self, token: u64, conn: &mut Conn, framed: Framed<Request>) {
        let Framed {
            request_id,
            trace,
            msg: req,
        } = framed;
        if let Request::SubscribePush { from } = req {
            self.subscribe_push(token, conn, request_id, from);
            return;
        }
        let depth = self.tunables.queue_depth.max(1);
        if conn.in_flight >= depth {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            conn.outq.push_back(OutFrame::plain(response_frame(
                &Response::Error(WireError::Busy(depth as u64)),
                request_id,
                None,
            )));
            return;
        }
        conn.in_flight += 1;
        // Both `begin`s are branch-only when off, so an unmetered,
        // untraced request reads no clock.
        let started = self
            .shared
            .metrics
            .begin()
            .or_else(|| self.shared.trace.begin(trace.as_ref()));
        // The execute span's id is allocated up front: `handle_request`
        // gets a child context carrying it, so downstream stages this
        // request triggers (durable append, push fan-out, relay apply)
        // parent under the execute span before it has closed.
        let trace = match (self.shared.trace.flight(), trace) {
            (Some(flight), Some(ctx)) => Some((ctx, flight.next_span_id())),
            _ => None,
        };
        let admitted = Admitted {
            request_id,
            tag: req.tag_byte(),
            started,
            trace,
        };
        if let Request::GetAt {
            min_epoch, wait_ms, ..
        } = req
        {
            // Count the waiter before reading the head; see
            // `PushHub::parked`.
            self.shared.push.parked.fetch_add(1, Ordering::SeqCst);
            if wait_ms > 0 && self.shared.feed.info().head < min_epoch {
                let wait = Duration::from_millis(u64::from(wait_ms)).min(GET_AT_MAX_WAIT);
                self.parked.push(Parked {
                    conn: token,
                    req,
                    min_epoch,
                    deadline: Instant::now() + wait,
                    admitted,
                });
                return;
            }
            self.shared.push.parked.fetch_sub(1, Ordering::SeqCst);
        }
        let frame = self.execute(req, admitted);
        conn.outq.push_back(frame);
    }

    /// Runs the handler, turning a panic into [`WireError::Internal`],
    /// and encodes the reply; closes the execute stage.
    fn execute(&self, req: Request, admitted: Admitted) -> OutFrame {
        let Admitted {
            request_id,
            tag,
            started,
            trace,
        } = admitted;
        let child = trace.map(|(ctx, span)| ctx.child(span));
        let resp = catch_unwind(AssertUnwindSafe(|| {
            handle_request(&self.shared, req, child.as_ref())
        }))
        .unwrap_or(Response::Error(WireError::Internal));
        let epoch = response_epoch(&resp);
        let bytes = response_frame(&resp, request_id, None);
        let trace_id = trace.map_or(0, |(ctx, _)| ctx.trace_id);
        let encoded = self
            .shared
            .metrics
            .execute(tag)
            .lap(started, request_id, trace_id)
            .or_else(|| started.map(|_| Instant::now()));
        if let (Some(flight), Some((ctx, span)), Some(t0), Some(t1)) =
            (self.shared.trace.flight(), trace, started, encoded)
        {
            flight.span(Some(span), &ctx, Stage::Execute, tag, epoch, t0, t1);
        }
        OutFrame {
            bytes,
            reply: Some(Reply {
                tag,
                started,
                encoded,
                trace: trace.map(|(ctx, _)| (ctx, epoch)),
            }),
        }
    }

    /// Registers a connection for push delivery. It runs here rather
    /// than in the handler because registration has to be ordered
    /// against the fan-out: the ack and any catch-up frame are queued
    /// *before* the first live push for this connection can land (live
    /// pushes travel the hub's queue, which is drained after dispatch).
    fn subscribe_push(&mut self, token: u64, conn: &mut Conn, request_id: RequestId, from: Epoch) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.push.register(token);
        let info = self.shared.feed.info();
        conn.outq.push_back(OutFrame::plain(response_frame(
            &Response::SubscribeAck(info),
            request_id,
            None,
        )));
        // Catch-up: a subscriber registering behind the head gets one
        // synthetic push covering `from → head`, provided `from` is
        // still retained and the diff fits a frame. Otherwise it will
        // notice the gap on its first live push and pull.
        if from == 0 || from >= info.head {
            return;
        }
        let (Some(from_snap), Some((head, head_snap))) =
            (self.shared.feed.get(from), self.shared.feed.head())
        else {
            return;
        };
        if let Some(entries) = from_snap.diff(head_snap.as_ref()) {
            if entries.len() as u64 * 17 <= MAX_FRAME_LEN as u64 {
                self.shared.push.pushes.fetch_add(1, Ordering::Relaxed);
                conn.outq.push_back(OutFrame::plain(response_frame(
                    &Response::Push {
                        from,
                        epoch: head,
                        entries,
                    },
                    PUSH_ID_BASE | head,
                    None,
                )));
            }
        }
    }

    /// Writes as much of the connection's queue as the socket takes,
    /// coalescing queued frames into vectored writes. Returns `false`
    /// if the connection died.
    fn flush(&self, conn: &mut Conn) -> bool {
        while !conn.outq.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.outq.len().min(MAX_IOVECS));
            let mut frames = conn.outq.iter();
            if let Some(front) = frames.next() {
                slices.push(IoSlice::new(&front.bytes[conn.out_off..]));
            }
            for frame in frames.take(MAX_IOVECS - 1) {
                slices.push(IoSlice::new(&frame.bytes));
            }
            match (&conn.stream).write_vectored(&slices) {
                Ok(0) => return false,
                Ok(mut n) => {
                    self.shared.wire.add_sent(n as u64);
                    while n > 0 {
                        let front_left =
                            conn.outq.front().expect("bytes written").bytes.len() - conn.out_off;
                        if n >= front_left {
                            n -= front_left;
                            let done = conn.outq.pop_front().expect("front exists");
                            conn.out_off = 0;
                            if let Some(reply) = done.reply {
                                conn.in_flight = conn.in_flight.saturating_sub(1);
                                self.close_write_stage(&reply);
                            }
                        } else {
                            conn.out_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Closes out a reply's write/flush stage — reply encoded → last
    /// byte handed to the kernel, queueing behind the socket included,
    /// by design — and, for a traced request, judges whether the whole
    /// request was slow.
    fn close_write_stage(&self, reply: &Reply) {
        let trace_id = reply.trace.map_or(0, |(ctx, _)| ctx.trace_id);
        self.shared
            .metrics
            .write_flush(reply.tag)
            .record_since(reply.encoded, 0, trace_id);
        if let (Some(flight), Some((ctx, epoch)), Some(t0), Some(t1)) = (
            self.shared.trace.flight(),
            reply.trace,
            reply.started,
            reply.encoded,
        ) {
            let now = Instant::now();
            flight.span(None, &ctx, Stage::WriteFlush, reply.tag, epoch, t1, now);
            // The request is over on this node: decoded → last byte
            // out. A slow one gets its span chain pinned.
            let total = now
                .saturating_duration_since(t0)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            flight.maybe_pin(&ctx, total);
        }
    }

    fn publish_conn_gauge(&self) {
        self.shared
            .open_conns
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }
}

/// The epoch a reply names, when it names one: the anchor that lets a
/// span chain on one node line up with the same epoch's spans on
/// replicas downstream. `0` for replies outside the feed path.
fn response_epoch(resp: &Response) -> u64 {
    match resp {
        Response::Published(epoch) => *epoch,
        Response::WroteAt { watermark, .. } => *watermark,
        _ => 0,
    }
}

/// Best-effort id peek for the error reply when full decoding fails:
/// the request id of a v3 head (traced or not), or `0` when the body
/// has none — a bad version byte, or too short to hold one.
fn peek_request_id(body: &[u8]) -> RequestId {
    match body.first() {
        Some(&v)
            if (v == PROTO_VERSION || v == PROTO_VERSION | PROTO_TRACE_FLAG) && body.len() >= 9 =>
        {
            u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"))
        }
        _ => 0,
    }
}
