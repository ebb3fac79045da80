//! The pipelined client: one multiplexed TCP session, typed calls.
//!
//! [`Session`] owns a single connection and lets any number of requests
//! be **in flight at once**: [`Session::submit`] stamps the request
//! with a fresh correlation id, writes the proto-v3 frame, and returns
//! a [`Ticket`] immediately; a background reader thread demultiplexes
//! response frames by id and resolves the matching ticket. Responses
//! may come back in any order — the id, not arrival order, pairs them.
//!
//! [`Client`] is the blocking facade over a session: every typed call
//! is literally `submit + wait`, so serial code pays one round trip per
//! call exactly as before, while throughput-minded code can hold a
//! window of tickets open (see `loadgen --pipeline`). The API mirrors
//! the engine's: [`Client::batch`] takes the same [`BatchOp`] values as
//! [`ShardedTreapMap::transact`](pathcopy_concurrent::ShardedTreapMap::transact)
//! and returns the same [`BatchResult`]s, and [`Client::diff`] returns
//! [`DiffEntry`] — code written against the in-process map moves to the
//! network client by swapping the receiver.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;
use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::{ByteCounters, ByteCountersSnapshot, DiffEntry};
use pathcopy_trace::{SpanRecord, TraceContext};

use crate::proto::{
    read_response_enveloped, write_request, Epoch, FeedInfo, ProtoError, Request, RequestId,
    Response, ServerGauges, SnapshotId, StageSummary, WireError, WireStats, PUSH_ID_BASE,
};

/// Why a client call failed — the single error surface for everything
/// in this module ([`Session::submit`], [`Ticket::wait`], and every
/// typed [`Client`] wrapper).
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, write, or read).
    Io(io::Error),
    /// The server closed the connection cleanly (EOF at a frame
    /// boundary). Distinct from [`ClientError::Io`] so callers can tell
    /// an orderly shutdown or demotion from a torn transport: a
    /// disconnected replica reconnects and resubscribes; a transport
    /// error is worth logging.
    Disconnected,
    /// The response frame could not be decoded.
    Proto(ProtoError),
    /// The server answered with an error.
    Server(WireError),
    /// The server shed this request because the connection was at its
    /// queue-depth bound (the payload is that bound). The connection is
    /// still healthy; back off and resubmit.
    Busy(u64),
    /// The server answered with a response of the wrong kind for the
    /// request sent (a protocol bug, not an expected runtime condition).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Busy(depth) => {
                write!(
                    f,
                    "request shed: connection at its queue-depth bound ({depth})"
                )
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind to {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

/// Collapses a [`ClientError`] into an [`io::Error`] so call sites
/// whose signature is `io::Result` (the replica engine, mainly) keep
/// working with `?`. An [`ClientError::Io`] passes through unchanged;
/// everything else becomes [`io::ErrorKind::Other`] with the display
/// text preserved.
impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> io::Error {
        match e {
            ClientError::Io(e) => e,
            ClientError::Disconnected => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                ClientError::Disconnected.to_string(),
            ),
            other => io::Error::other(other.to_string()),
        }
    }
}

/// [`Read`] half of a connection that counts bytes into a shared
/// [`ByteCounters`] block.
struct CountingReader {
    inner: TcpStream,
    wire: Arc<ByteCounters>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.wire.add_received(n as u64);
        Ok(n)
    }
}

/// [`Write`] half of a connection that counts bytes into a shared
/// [`ByteCounters`] block.
struct CountingWriter {
    inner: TcpStream,
    wire: Arc<ByteCounters>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.wire.add_sent(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Why the session can no longer carry requests. [`io::Error`] is not
/// `Clone`, so the terminal error is stored as `(kind, message)` and a
/// fresh `io::Error` is minted for every ticket and submit that hits
/// it.
#[derive(Clone, Debug)]
struct SessionDead {
    kind: io::ErrorKind,
    msg: String,
    /// Clean EOF at a frame boundary: surfaced as
    /// [`ClientError::Disconnected`], not a transport error.
    disconnected: bool,
}

impl SessionDead {
    fn closed() -> SessionDead {
        SessionDead {
            kind: io::ErrorKind::UnexpectedEof,
            msg: "server closed the connection".to_owned(),
            disconnected: true,
        }
    }

    fn from_proto(e: &ProtoError) -> SessionDead {
        match e {
            ProtoError::Io(e) => SessionDead {
                kind: e.kind(),
                msg: e.to_string(),
                disconnected: false,
            },
            other => SessionDead {
                kind: io::ErrorKind::InvalidData,
                msg: format!("undecodable response frame: {other}"),
                disconnected: false,
            },
        }
    }

    fn to_client_error(&self) -> ClientError {
        if self.disconnected {
            ClientError::Disconnected
        } else {
            ClientError::Io(io::Error::new(self.kind, self.msg.clone()))
        }
    }
}

/// What the reader thread delivers to a waiting ticket.
type Settled = Result<Response, SessionDead>;

/// State shared between submitters and the reader thread.
struct SessionShared {
    /// Serializes frame writes so concurrent submitters never
    /// interleave bytes.
    writer: Mutex<BufWriter<CountingWriter>>,
    /// Tickets awaiting a response, keyed by correlation id. The
    /// terminal `dead` marker lives **inside** this lock so that
    /// "check dead, then insert" in [`Session::submit`] and "set dead,
    /// then drain" in the reader cannot interleave — a submit either
    /// sees the session alive and gets drained later, or sees it dead
    /// and fails fast. No ticket can be orphaned.
    pending: Mutex<Pending>,
    next_id: AtomicU64,
    wire: Arc<ByteCounters>,
    /// Where the reader routes server-initiated [`Response::Push`]
    /// frames (ids in the [`PUSH_ID_BASE`] namespace); `None` until
    /// [`Session::subscribe`] installs a channel. Pushes arriving with
    /// no channel are dropped — the server pushes to subscribers only,
    /// so that can only happen transiently around resubscription.
    push_tx: Mutex<Option<Sender<PushFrame>>>,
}

#[derive(Default)]
struct Pending {
    waiters: HashMap<RequestId, SyncSender<Settled>>,
    dead: Option<SessionDead>,
}

/// A pipelined connection to a `pathcopy-server`.
///
/// Any number of requests may be outstanding at once (the server sheds
/// with [`WireError::Busy`] beyond its configured queue depth —
/// surfaced here as [`ClientError::Busy`]). `submit` takes `&self`, so
/// a session can be shared across threads behind an `Arc` if desired;
/// each submit is stamped with a unique id and responses are paired by
/// id, never by order.
pub struct Session {
    shared: Arc<SessionShared>,
    /// Extra handle used only to `shutdown()` the socket on drop, which
    /// unblocks the reader thread promptly.
    stream: TcpStream,
    reader: Option<thread::JoinHandle<()>>,
}

impl Session {
    /// Connects (with `TCP_NODELAY`, since the protocol is small framed
    /// messages) and spawns the demultiplexing reader thread.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] for any failure resolving `addr`,
    /// establishing the TCP connection, or configuring the socket.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Session, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let wire = Arc::new(ByteCounters::new());
        let shared = Arc::new(SessionShared {
            writer: Mutex::new(BufWriter::new(CountingWriter {
                inner: write_half,
                wire: Arc::clone(&wire),
            })),
            pending: Mutex::new(Pending::default()),
            next_id: AtomicU64::new(1),
            wire: Arc::clone(&wire),
            push_tx: Mutex::new(None),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = thread::Builder::new()
            .name("pathcopy-client-reader".to_owned())
            .spawn(move || {
                reader_loop(
                    &reader_shared,
                    BufReader::new(CountingReader {
                        inner: read_half,
                        wire,
                    }),
                )
            })
            .map_err(ClientError::Io)?;
        Ok(Session {
            shared,
            stream,
            reader: Some(reader),
        })
    }

    /// Sends `req` without waiting for its reply and returns the
    /// [`Ticket`] that will resolve to it. The frame is written (and
    /// flushed) before this returns, so tickets submitted back-to-back
    /// are all on the wire — that is the whole point: the server works
    /// on all of them while the client has not blocked once.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the session is already dead (a previous
    /// transport or decode failure) or if writing the frame fails.
    /// Errors the *server* reports for this request arrive through the
    /// ticket, not here.
    pub fn submit(&self, req: &Request) -> Result<Ticket, ClientError> {
        self.submit_traced(req, None)
    }

    /// [`submit`](Self::submit) with an optional trace context stamped
    /// into the request's envelope. With `Some`, a tracing server
    /// records this request's span chain under the context's trace id
    /// and propagates it through every downstream stage the request
    /// triggers — this is how a client roots a distributed trace. With
    /// `None` the frame (and cost) is identical to plain `submit`.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_traced(
        &self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<Ticket, ClientError> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut pending = self.shared.pending.lock();
            if let Some(dead) = &pending.dead {
                return Err(dead.to_client_error());
            }
            pending.waiters.insert(id, tx);
        }
        let write_result = {
            let mut writer = self.shared.writer.lock();
            write_request(&mut *writer, id, req, trace).and_then(|()| writer.flush())
        };
        if let Err(e) = write_result {
            // The frame may be half-written; nothing more can be
            // multiplexed onto this connection safely.
            let mut pending = self.shared.pending.lock();
            pending.waiters.remove(&id);
            if pending.dead.is_none() {
                pending.dead = Some(SessionDead {
                    kind: e.kind(),
                    msg: e.to_string(),
                    disconnected: false,
                });
            }
            return Err(ClientError::Io(e));
        }
        Ok(Ticket { id, rx })
    }

    /// `submit` + [`Ticket::wait`] in one call: a blocking round trip.
    ///
    /// # Errors
    ///
    /// The union of [`Session::submit`] and [`Ticket::wait`] failures.
    pub fn call(&self, req: &Request) -> Result<Response, ClientError> {
        self.submit(req)?.wait()
    }

    /// Bytes this connection has moved so far, both directions. The
    /// counters are exact whenever no request is in flight (every
    /// submit flushes, and responses are counted as they are read),
    /// which is what the replication layer uses to prove that diff
    /// catch-up transfers O(changes) bytes while a full sync transfers
    /// O(n).
    pub fn wire_bytes(&self) -> ByteCountersSnapshot {
        self.shared.wire.snapshot()
    }

    /// Registers this connection for push delivery: the server will
    /// send every published epoch's diff as an unsolicited
    /// [`Response::Push`] frame, which the reader thread routes to the
    /// returned [`Subscription`]. `from` is the epoch already applied
    /// locally (`0` = nothing); if it is behind the head and still
    /// retained, one catch-up push arrives first. Returns the feed's
    /// bounds at registration time.
    ///
    /// Calling this again replaces the previous subscription's channel
    /// — what a demoted subscriber does after catching up by pull.
    ///
    /// # Errors
    ///
    /// The usual [`Session::submit`]/[`Ticket::wait`] failure modes,
    /// plus [`ClientError::Unexpected`] if the server answers with
    /// anything but an ack.
    pub fn subscribe(&self, from: Epoch) -> Result<(FeedInfo, Subscription), ClientError> {
        let (tx, rx) = mpsc::channel();
        // Install the channel before the request is on the wire so the
        // catch-up push (which follows the ack immediately) cannot slip
        // past an empty slot.
        *self.shared.push_tx.lock() = Some(tx);
        let ticket = self.submit(&Request::SubscribePush { from })?;
        match ticket.wait()? {
            Response::SubscribeAck(info) => Ok((info, Subscription { rx })),
            _ => Err(ClientError::Unexpected("SubscribePush")),
        }
    }
}

/// One server-initiated epoch diff, delivered through a
/// [`Subscription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushFrame {
    /// The epoch this diff starts from (`0` = from the empty map).
    /// Apply the diff **only** when this equals the locally applied
    /// epoch; anything else is a gap — catch up by pulling.
    pub from: Epoch,
    /// The epoch the diff brings the subscriber up to.
    pub epoch: Epoch,
    /// The changes, in ascending key order.
    pub entries: Vec<DiffEntry<i64, i64>>,
    /// Trace context from the frame's envelope, when the publish that
    /// produced this push was traced: the subscriber records its apply
    /// span as a child of the publisher's execute span, stitching the
    /// two nodes into one trace.
    pub trace: Option<TraceContext>,
}

/// The receiving end of a push registration (see
/// [`Session::subscribe`]): epoch diffs arrive here as the primary
/// publishes, with no polling round trips.
pub struct Subscription {
    rx: Receiver<PushFrame>,
}

impl Subscription {
    /// Waits up to `timeout` for the next push. `Ok(None)` means no
    /// push arrived in time (the feed is simply quiet — not an error).
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] once the session's reader thread
    /// has exited — the connection is gone and no further push can
    /// ever arrive; reconnect and resubscribe.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<PushFrame>, ClientError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ClientError::Disconnected),
        }
    }

    /// Drains any push that already arrived, without blocking.
    pub fn try_recv(&self) -> Option<PushFrame> {
        self.rx.try_recv().ok()
    }
}

/// A session-consistency watermark the client threads through its
/// calls: the highest epoch this session has written or observed.
/// [`Client::insert_tracked`] (and [`Client::write_at`]) raise it to
/// each write's watermark; [`Client::get_at`] sends it as the read's
/// floor and raises it to the epoch the read was served at. The result
/// is read-your-writes plus monotonic reads through **any** replica,
/// with no sticky routing — the token, not the route, carries the
/// session.
///
/// Tokens are plain values: `Copy`, comparable, and safe to hand
/// between threads or even processes (it is just an epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SessionToken {
    epoch: Epoch,
}

impl SessionToken {
    /// The watermark: the oldest epoch any read through this token is
    /// allowed to observe (`0` = unconstrained).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Raises the watermark to `epoch` (never lowers it — that is what
    /// makes reads monotonic).
    pub fn observe(&mut self, epoch: Epoch) {
        self.epoch = self.epoch.max(epoch);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Unblock the reader (it is parked in read()) and join it; it
        // drains any still-pending tickets with an error on the way
        // out, so a Ticket outliving its Session never hangs.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Demultiplexes response frames to their tickets until the connection
/// dies, then fails every still-pending ticket with the terminal error.
fn reader_loop(shared: &SessionShared, mut reader: BufReader<CountingReader>) {
    let dead = loop {
        match read_response_enveloped(&mut reader) {
            Ok(Some(framed)) => {
                if framed.request_id & PUSH_ID_BASE != 0 {
                    // Server-initiated frame: no ticket ever carried
                    // this id. Route it to the push channel, if one is
                    // installed.
                    if let Response::Push {
                        from,
                        epoch,
                        entries,
                    } = framed.msg
                    {
                        let tx = shared.push_tx.lock().clone();
                        if let Some(tx) = tx {
                            let _ = tx.send(PushFrame {
                                from,
                                epoch,
                                entries,
                                trace: framed.trace,
                            });
                        }
                    }
                    continue;
                }
                let waiter = shared.pending.lock().waiters.remove(&framed.request_id);
                if let Some(tx) = waiter {
                    // Capacity-1 channel, exactly one message per
                    // ticket: send never blocks. A dropped ticket just
                    // discards the response.
                    let _ = tx.send(Ok(framed.msg));
                }
            }
            Ok(None) => break SessionDead::closed(),
            Err(e) => break SessionDead::from_proto(&e),
        }
    };
    let waiters = {
        let mut pending = shared.pending.lock();
        if pending.dead.is_none() {
            pending.dead = Some(dead.clone());
        }
        std::mem::take(&mut pending.waiters)
    };
    for (_, tx) in waiters {
        let _ = tx.send(Err(dead.clone()));
    }
    // Dropping the push sender disconnects any Subscription, so a
    // blocked `recv_timeout` learns the session is gone instead of
    // timing out forever.
    shared.push_tx.lock().take();
}

/// A claim on one in-flight request's eventual response. Obtained from
/// [`Session::submit`]; redeem it with [`wait`](Ticket::wait).
/// Dropping a ticket abandons the request (the server still executes
/// it; the reply is discarded on arrival).
#[must_use = "a Ticket does nothing until wait()ed on"]
pub struct Ticket {
    id: RequestId,
    rx: Receiver<Settled>,
}

impl Ticket {
    /// The correlation id this ticket's request carries on the wire.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the response for this ticket's request arrives and
    /// returns it, surfacing server-side errors.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the session died before the response
    /// arrived, [`ClientError::Busy`] if the server shed the request at
    /// its queue-depth bound, and [`ClientError::Server`] for any other
    /// error the server reported.
    pub fn wait(self) -> Result<Response, ClientError> {
        match self.rx.recv() {
            Ok(Ok(Response::Error(WireError::Busy(depth)))) => Err(ClientError::Busy(depth)),
            Ok(Ok(Response::Error(e))) => Err(ClientError::Server(e)),
            Ok(Ok(resp)) => Ok(resp),
            Ok(Err(dead)) => Err(dead.to_client_error()),
            // The reader always settles every pending ticket before
            // exiting, so a closed channel here means the Session (and
            // its reader) are gone entirely.
            Err(_) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "session dropped before the response arrived",
            ))),
        }
    }
}

/// A blocking connection to a `pathcopy-server`: the serial facade over
/// [`Session`]. Every typed call is `submit + wait` — one round trip —
/// so code that wants strict request/response alternation keeps exactly
/// the old behavior. Use [`Client::session`] (or [`into_session`](Client::into_session))
/// to pipeline on the same connection.
pub struct Client {
    session: Session,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, since the protocol is small framed
    /// request/response round trips).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] from resolving `addr`, establishing the TCP
    /// connection, or configuring the socket.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Ok(Client {
            session: Session::connect(addr)?,
        })
    }

    /// The underlying pipelined session, for submitting concurrent
    /// requests alongside (or instead of) the typed blocking calls.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Unwraps into the underlying [`Session`].
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Bytes this connection has moved so far, both directions. See
    /// [`Session::wire_bytes`].
    pub fn wire_bytes(&self) -> ByteCountersSnapshot {
        self.session.wire_bytes()
    }

    /// One request/response round trip, surfacing server-side errors.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the transport fails,
    /// [`ClientError::Proto`] if the reply frame cannot be decoded,
    /// [`ClientError::Busy`] if the server shed the request at its
    /// queue-depth bound, and [`ClientError::Server`] if the server
    /// answers with any other error frame. Every typed wrapper below
    /// goes through this method and inherits these failure modes;
    /// wrappers additionally return [`ClientError::Unexpected`] if the
    /// reply kind does not match the request (a protocol bug, not a
    /// runtime condition), and their docs note which [`WireError`]s the
    /// server sends on that request.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.session.call(req)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn get(&mut self, key: i64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Get { key })? {
            Response::Got(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Get")),
        }
    }

    /// Inserts `key -> value`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn insert(&mut self, key: i64, value: i64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Insert { key, value })? {
            Response::Inserted(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Insert")),
        }
    }

    /// Removes `key`, returning its value if present.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn remove(&mut self, key: i64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Remove { key })? {
            Response::Removed(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Remove")),
        }
    }

    /// Atomic compare-and-set; `Ok(true)` if the guard matched and the
    /// write was applied.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes (a non-matching
    /// guard is `Ok(false)`, not an error).
    pub fn cas(
        &mut self,
        key: i64,
        expected: Option<i64>,
        new: Option<i64>,
    ) -> Result<bool, ClientError> {
        match self.call(&Request::Cas { key, expected, new })? {
            Response::CasApplied(ok) => Ok(ok),
            _ => Err(ClientError::Unexpected("Cas")),
        }
    }

    /// Applies a batch of operations in one round trip — the same
    /// [`BatchOp`]s `ShardedTreapMap::transact` takes, with the same
    /// all-or-nothing guarantee when the served backend supports atomic
    /// batches.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes, including
    /// [`WireError::TooLarge`] if the reply would exceed the frame cap
    /// (split the batch).
    pub fn batch(
        &mut self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Vec<BatchResult<i64>>, ClientError> {
        match self.call(&Request::Batch {
            ops: ops.to_vec(),
            guarded: false,
        })? {
            Response::Batch(results) => Ok(results),
            _ => Err(ClientError::Unexpected("Batch")),
        }
    }

    /// Guarded (Sinfonia-style) batch: commits all-or-nothing like
    /// [`batch`](Self::batch), except a failing [`BatchOp::Cas`] guard
    /// aborts the **whole batch** with zero writes. The outer `Result`
    /// is transport/server failure; the inner one is the transaction
    /// outcome — `Err` carries the failed guard indices (into `ops`,
    /// ascending).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes; an aborted batch
    /// is the `Ok(Err(_))` value, not a [`ClientError`].
    #[allow(clippy::type_complexity)]
    pub fn batch_guarded(
        &mut self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Result<Vec<BatchResult<i64>>, Vec<u32>>, ClientError> {
        match self.call(&Request::Batch {
            ops: ops.to_vec(),
            guarded: true,
        })? {
            Response::Batch(results) => Ok(Ok(results)),
            Response::BatchAborted(failed) => Ok(Err(failed)),
            _ => Err(ClientError::Unexpected("Batch(guarded)")),
        }
    }

    /// Publishes the primary's current state as the next feed epoch
    /// (the version replicas will sync to) and returns that epoch.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn publish(&mut self) -> Result<Epoch, ClientError> {
        match self.call(&Request::Publish)? {
            Response::Published(epoch) => Ok(epoch),
            _ => Err(ClientError::Unexpected("Publish")),
        }
    }

    /// [`publish`](Self::publish) with a trace context stamped on the
    /// request: a tracing server records the publish's whole causal
    /// fan-out — execute, durable append, push delivery,
    /// relay re-serve — under `ctx.trace_id`, across every node the
    /// epoch reaches. Collect the spans with
    /// [`trace_dump`](Self::trace_dump) per node and stitch them with
    /// [`render_trace`](pathcopy_trace::render_trace).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn publish_traced(&mut self, ctx: &TraceContext) -> Result<Epoch, ClientError> {
        match self
            .session
            .submit_traced(&Request::Publish, Some(ctx))?
            .wait()?
        {
            Response::Published(epoch) => Ok(epoch),
            _ => Err(ClientError::Unexpected("Publish(traced)")),
        }
    }

    /// Zeroes every since-boot latency histogram on the server — the
    /// per-tag stage recorders and every registered source (durable
    /// append/fsync, replica apply/lag). Gauges and counters are left
    /// alone. Idempotent; see `Request::ResetMetrics`.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn reset_metrics(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::ResetMetrics)? {
            Response::MetricsReset => Ok(()),
            _ => Err(ClientError::Unexpected("ResetMetrics")),
        }
    }

    /// Dumps the server's trace flight recorder: its node name and
    /// every span currently readable (ring + pinned slow requests). An
    /// empty node name means tracing is disabled on that server.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn trace_dump(&mut self) -> Result<(String, Vec<SpanRecord>), ClientError> {
        match self.call(&Request::TraceDump)? {
            Response::TraceDump { node, spans } => Ok((node, spans)),
            _ => Err(ClientError::Unexpected("TraceDump")),
        }
    }

    /// One write plus its session watermark: applies `op` on the
    /// primary and returns the result together with the lowest epoch
    /// guaranteed to contain the write. Feed the watermark into
    /// [`SessionToken::observe`] and read-your-writes holds through
    /// **any** replica serving [`get_at`](Self::get_at).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn write_at(
        &mut self,
        op: BatchOp<i64, i64>,
    ) -> Result<(BatchResult<i64>, Epoch), ClientError> {
        match self.call(&Request::WriteAt { op })? {
            Response::WroteAt { result, watermark } => Ok((result, watermark)),
            _ => Err(ClientError::Unexpected("WriteAt")),
        }
    }

    /// [`insert`](Self::insert) that also raises `token` to the write's
    /// watermark — the session-consistent spelling of an insert.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn insert_tracked(
        &mut self,
        key: i64,
        value: i64,
        token: &mut SessionToken,
    ) -> Result<Option<i64>, ClientError> {
        let (result, watermark) = self.write_at(BatchOp::Insert(key, value))?;
        token.observe(watermark);
        match result {
            BatchResult::Inserted(prev) => Ok(prev),
            _ => Err(ClientError::Unexpected("WriteAt(Insert)")),
        }
    }

    /// Session-consistent read: asks the server for `key` at or after
    /// `token`'s watermark, waiting up to `wait_ms` for the server's
    /// feed to reach it. On success the token is raised to the epoch
    /// the read was served at, which is what makes successive reads
    /// monotonic even across different replicas.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`]`(`[`WireError::Stale`]`)` if the server
    /// did not reach the watermark in time — the payload is the epoch
    /// it *is* at, so the caller can fall back to the primary or retry;
    /// plus the shared [`call`](Self::call) failure modes.
    pub fn get_at(
        &mut self,
        key: i64,
        token: &mut SessionToken,
        wait_ms: u32,
    ) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::GetAt {
            key,
            min_epoch: token.epoch(),
            wait_ms,
        })? {
            Response::GotAt { value, epoch } => {
                token.observe(epoch);
                Ok(value)
            }
            _ => Err(ClientError::Unexpected("GetAt")),
        }
    }

    /// Reads the server's operational gauges in one round trip.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn gauges(&mut self) -> Result<ServerGauges, ClientError> {
        match self.call(&Request::Gauges)? {
            Response::Gauges(g) => Ok(g),
            _ => Err(ClientError::Unexpected("Gauges")),
        }
    }

    /// Scrapes the server's per-stage latency histograms in one round
    /// trip: one percentile row per (stage, request-tag) pair that has
    /// recorded samples. Render with
    /// [`render_text`](crate::metrics::render_text) for the
    /// Prometheus-style text form.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn metrics(&mut self) -> Result<Vec<StageSummary>, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(rows) => Ok(rows),
            _ => Err(ClientError::Unexpected("Metrics")),
        }
    }

    /// Reads the feed's bounds: head epoch, oldest retained epoch, ring
    /// capacity.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn feed_info(&mut self) -> Result<FeedInfo, ClientError> {
        match self.call(&Request::Subscribe)? {
            Response::FeedInfo(info) => Ok(info),
            _ => Err(ClientError::Unexpected("Subscribe")),
        }
    }

    /// Pulls everything that changed between published epoch `from` and
    /// the feed head: `(head_epoch, changes)`. Fails with
    /// [`WireError::EpochRetired`] when `from` fell out of the feed ring
    /// (lagged too far — fall back to [`full_sync_page`](Self::full_sync_page)).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::EpochRetired`] as above, and
    /// [`WireError::TooLarge`] if the accumulated diff cannot fit one
    /// frame (sync more often, or full-sync).
    pub fn pull_diff(
        &mut self,
        from: Epoch,
    ) -> Result<(Epoch, Vec<DiffEntry<i64, i64>>), ClientError> {
        match self.call(&Request::PullDiff { from })? {
            Response::EpochDiff { to, entries } => Ok((to, entries)),
            _ => Err(ClientError::Unexpected("PullDiff")),
        }
    }

    /// One bounded page of a full-state sync: `(epoch, entries, done)`.
    /// Start with `epoch: None` (the server pins a fresh epoch), then
    /// pass the returned epoch and the last key of each page until
    /// `done`. `limit = 0` asks for the server's largest page.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::EpochRetired`] if the epoch being paged fell out of
    /// the feed ring mid-sync (restart with `epoch: None`).
    #[allow(clippy::type_complexity)]
    pub fn full_sync_page(
        &mut self,
        epoch: Option<Epoch>,
        after: Option<i64>,
        limit: u32,
    ) -> Result<(Epoch, Vec<(i64, i64)>, bool), ClientError> {
        match self.call(&Request::FullSync {
            epoch,
            after,
            limit,
        })? {
            Response::SyncPage {
                epoch,
                entries,
                done,
            } => Ok((epoch, entries, done)),
            _ => Err(ClientError::Unexpected("FullSync")),
        }
    }

    /// Pins a coherent snapshot in the server's version table and
    /// returns its id (readable from any connection until
    /// [`release`](Self::release)d).
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::SnapshotLimit`] if the version table is full.
    pub fn snapshot(&mut self) -> Result<SnapshotId, ClientError> {
        match self.call(&Request::Snapshot)? {
            Response::SnapshotTaken(id) => Ok(id),
            _ => Err(ClientError::Unexpected("Snapshot")),
        }
    }

    /// Ordered scan of `range` on a pinned snapshot (`Some(id)`) or on a
    /// fresh coherent snapshot (`None`). At most `limit` entries come
    /// back (`0` = unlimited); the second component is `false` when the
    /// scan was truncated.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::UnknownSnapshot`] for a released or never-issued
    /// id, [`WireError::TooLarge`] if an unlimited scan cannot fit one
    /// frame (page with `limit`).
    pub fn range<R: RangeBounds<i64>>(
        &mut self,
        snapshot: Option<SnapshotId>,
        range: R,
        limit: u32,
    ) -> Result<(Vec<(i64, i64)>, bool), ClientError> {
        let req = Request::Range {
            snapshot,
            lo: clone_bound(range.start_bound()),
            hi: clone_bound(range.end_bound()),
            limit,
        };
        match self.call(&req)? {
            Response::Entries { entries, complete } => Ok((entries, complete)),
            _ => Err(ClientError::Unexpected("Range")),
        }
    }

    /// What changed between the pinned snapshot `from` and `to`
    /// (`None` = a fresh snapshot taken now), in ascending key order.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes;
    /// [`WireError::UnknownSnapshot`],
    /// [`WireError::SnapshotMismatch`] for snapshots from incompatible
    /// backends, [`WireError::TooLarge`] for a diff that cannot fit one
    /// frame (diff nearer snapshots).
    pub fn diff(
        &mut self,
        from: SnapshotId,
        to: Option<SnapshotId>,
    ) -> Result<Vec<DiffEntry<i64, i64>>, ClientError> {
        match self.call(&Request::Diff { from, to })? {
            Response::Diff(entries) => Ok(entries),
            _ => Err(ClientError::Unexpected("Diff")),
        }
    }

    /// Drops a pinned snapshot; `Ok(true)` if it existed.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn release(&mut self, snapshot: SnapshotId) -> Result<bool, ClientError> {
        match self.call(&Request::Release { snapshot })? {
            Response::Released(existed) => Ok(existed),
            _ => Err(ClientError::Unexpected("Release")),
        }
    }

    /// Reads the backend's operation statistics and the server's
    /// version-table size.
    ///
    /// # Errors
    ///
    /// The shared [`call`](Self::call) failure modes.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Stats")),
        }
    }
}

fn clone_bound(b: Bound<&i64>) -> Bound<i64> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(&k) => Bound::Included(k),
        Bound::Excluded(&k) => Bound::Excluded(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedServe;
    use crate::server::{spawn, ServerConfig};

    fn sharded_server(config: ServerConfig) -> crate::server::ServerHandle {
        spawn(Box::new(ShardedServe::with_shards(8)), config).expect("bind ephemeral port")
    }

    #[test]
    fn pipelined_tickets_resolve_by_id_not_order() {
        let server = sharded_server(ServerConfig::default());
        let session = Session::connect(server.addr()).unwrap();

        // Submit a window of writes without waiting, then redeem the
        // tickets in reverse submission order.
        let tickets: Vec<Ticket> = (0..32)
            .map(|k| {
                session
                    .submit(&Request::Insert {
                        key: k,
                        value: k * 100,
                    })
                    .unwrap()
            })
            .collect();
        for ticket in tickets.into_iter().rev() {
            match ticket.wait().unwrap() {
                Response::Inserted(prev) => assert_eq!(prev, None),
                other => panic!("unexpected response: {other:?}"),
            }
        }

        // And reads pair with their keys even when interleaved.
        let reads: Vec<(i64, Ticket)> = (0..32)
            .map(|k| (k, session.submit(&Request::Get { key: k }).unwrap()))
            .collect();
        for (k, ticket) in reads {
            match ticket.wait().unwrap() {
                Response::Got(v) => assert_eq!(v, Some(k * 100)),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn blocking_client_is_submit_plus_wait() {
        let server = sharded_server(ServerConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.insert(7, 70).unwrap(), None);
        assert_eq!(client.get(7).unwrap(), Some(70));
        assert_eq!(client.remove(7).unwrap(), Some(70));
        server.shutdown();
    }

    #[test]
    fn pending_tickets_fail_cleanly_when_the_server_goes_away() {
        let server = sharded_server(ServerConfig::default());
        let session = Session::connect(server.addr()).unwrap();
        // Prove the session is live first.
        session
            .submit(&Request::Insert { key: 1, value: 1 })
            .unwrap()
            .wait()
            .unwrap();
        server.shutdown();
        // Every outcome must be an error, never a hang: either the
        // submit itself fails (connection reset already observed) or
        // the ticket resolves to Disconnected (clean EOF at a frame
        // boundary) or Io (reset raced the read).
        match session.submit(&Request::Get { key: 1 }) {
            Ok(ticket) => match ticket.wait() {
                Err(ClientError::Io(_) | ClientError::Disconnected) => {}
                other => panic!("expected Io/Disconnected error, got {other:?}"),
            },
            Err(ClientError::Io(_) | ClientError::Disconnected) => {}
            Err(other) => panic!("expected Io/Disconnected error, got {other:?}"),
        }
        // And the session stays failed-fast afterwards.
        match session.submit(&Request::Get { key: 1 }) {
            Err(ClientError::Io(_) | ClientError::Disconnected) => {}
            Ok(ticket) => match ticket.wait() {
                Err(ClientError::Io(_) | ClientError::Disconnected) => {}
                other => panic!("expected Io/Disconnected error, got {other:?}"),
            },
            Err(other) => panic!("expected Io/Disconnected error, got {other:?}"),
        }
    }

    #[test]
    fn orphaned_tickets_resolve_disconnected_on_clean_eof() {
        // A mock server that reads exactly one frame and then closes the
        // socket cleanly — a controlled EOF at a frame boundary, unlike
        // the real-shutdown test above where a reset can race the close.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read the length prefix, then the body, then hang up
            // without answering.
            let mut len = [0u8; 4];
            conn.read_exact(&mut len).unwrap();
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            conn.read_exact(&mut body).unwrap();
            drop(conn);
        });
        let session = Session::connect(addr).unwrap();
        let ticket = session.submit(&Request::Get { key: 1 }).unwrap();
        match ticket.wait() {
            Err(ClientError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // Later submits fail the same way — the session remembers why
        // it died.
        match session.submit(&Request::Get { key: 2 }) {
            Err(ClientError::Disconnected) => {}
            Ok(ticket) => match ticket.wait() {
                Err(ClientError::Disconnected) => {}
                other => panic!("expected Disconnected, got {other:?}"),
            },
            Err(other) => panic!("expected Disconnected, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn subscribers_receive_live_pushes_and_catch_up() {
        let server = sharded_server(ServerConfig::default());

        // Seed two epochs before anyone subscribes.
        let mut writer = Client::connect(server.addr()).unwrap();
        writer.insert(1, 10).unwrap();
        writer.publish().unwrap(); // epoch 1: {1:10}
        writer.insert(2, 20).unwrap();
        let head = writer.publish().unwrap(); // epoch 2: + {2:20}
        assert_eq!(head, 2);

        // Subscribe from epoch 1: the ack is followed by one catch-up
        // push covering exactly 1 -> 2.
        let sub_session = Session::connect(server.addr()).unwrap();
        let (info, sub) = sub_session.subscribe(1).unwrap();
        assert_eq!(info.head, 2);
        let catch_up = sub
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("catch-up push");
        assert_eq!((catch_up.from, catch_up.epoch), (1, 2));
        assert_eq!(catch_up.entries, vec![DiffEntry::Added(2, 20)]);

        // A live publish now arrives without any request from us.
        writer.insert(3, 30).unwrap();
        writer.publish().unwrap();
        let live = sub
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("live push");
        assert_eq!((live.from, live.epoch), (2, 3));
        assert_eq!(live.entries, vec![DiffEntry::Added(3, 30)]);

        // The gauges frame sees the subscriber and both pushes.
        let g = writer.gauges().unwrap();
        assert_eq!(g.subscribers, 1);
        assert!(g.pushes >= 2, "pushes gauge: {}", g.pushes);
        assert_eq!(g.feed_head, 3);
        assert!(g.wire_sent > 0 && g.wire_received > 0);
        server.shutdown();
    }

    #[test]
    fn write_at_watermarks_cover_the_write() {
        let server = sharded_server(ServerConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        let mut token = SessionToken::default();

        assert_eq!(client.insert_tracked(7, 70, &mut token).unwrap(), None);
        let watermark = token.epoch();
        assert!(watermark >= 1, "watermark must name a future epoch");

        // Nothing published yet: a bounded wait below the watermark
        // times out with the server's current epoch.
        match client.get_at(7, &mut token, 10) {
            Err(ClientError::Server(WireError::Stale(at))) => assert!(at < watermark),
            other => panic!("expected Stale, got {other:?}"),
        }

        // Publishing reaches the watermark; the read now serves and
        // raises the token to the served epoch.
        client.publish().unwrap();
        assert_eq!(client.get_at(7, &mut token, 1000).unwrap(), Some(70));
        assert!(token.epoch() >= watermark);
        server.shutdown();
    }

    #[test]
    fn client_error_converts_to_io_error_for_replica_call_sites() {
        let busy: io::Error = ClientError::Busy(64).into();
        assert_eq!(busy.kind(), io::ErrorKind::Other);
        let inner = io::Error::new(io::ErrorKind::ConnectionReset, "boom");
        let through: io::Error = ClientError::Io(inner).into();
        assert_eq!(through.kind(), io::ErrorKind::ConnectionReset);
    }
}
