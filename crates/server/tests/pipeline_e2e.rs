//! End-to-end tests of the pipelined serving path: correlation ids pair
//! responses with tickets regardless of completion order, a saturated
//! per-connection queue sheds `Busy` without corrupting in-flight
//! replies, idle connections are multiplexed — not pinned to threads —
//! a handler panic becomes an error reply, and a parked `GetAt` holds
//! up nothing behind it.

use std::io::BufReader;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::StatsSnapshot;
use pathcopy_server::proto::{read_request_enveloped, write_response_with_id, Request, Response};
use pathcopy_server::{
    backend, Client, ClientError, ServeBackend, ServeSnapshot, ServerConfig, Session, Ticket,
    WireError,
};

/// A mock v3 server: accepts one connection, reads `n` request frames,
/// then answers them in the order `reply_order` prescribes (indices
/// into arrival order) — each `Get { key }` becomes `Got(Some(key))`
/// under the id it arrived with. This decouples the "responses pair by
/// id" property from the real event loop's scheduling.
fn mock_shuffled_server(listener: TcpListener, n: usize, reply_order: Vec<usize>) {
    let (stream, _) = listener.accept().expect("accept");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut arrived = Vec::with_capacity(n);
    for _ in 0..n {
        let framed = read_request_enveloped(&mut reader)
            .expect("read request")
            .expect("stream open");
        let key = match framed.msg {
            Request::Get { key } => key,
            other => panic!("mock expects Get, saw {other:?}"),
        };
        arrived.push((framed.request_id, key));
    }
    let mut stream = stream;
    for &idx in &reply_order {
        let (id, key) = arrived[idx];
        write_response_with_id(&mut stream, id, &Response::Got(Some(key))).expect("write");
    }
}

/// Seeded Fisher–Yates: a deterministic permutation of `0..n`.
fn shuffled_indices(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn responses_match_tickets_under_shuffled_completion(
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("addr");
        let order = shuffled_indices(n, seed);
        let server = thread::spawn(move || mock_shuffled_server(listener, n, order));

        let session = Session::connect(addr).expect("connect");
        // Distinct keys per ticket: if demux ever paired a response
        // with the wrong ticket, the value would not match the key.
        let tickets: Vec<_> = (0..n as i64)
            .map(|key| {
                let t = session.submit(&Request::Get { key: key * 31 + 7 }).expect("submit");
                (key * 31 + 7, t)
            })
            .collect();
        for (key, ticket) in tickets {
            match wait_bounded(ticket, REPLY_LIMIT).expect("response") {
                Response::Got(v) => prop_assert_eq!(v, Some(key)),
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(session);
        server.join().expect("mock server");
    }
}

/// Delegates every operation to the wrapped backend, stalling reads so
/// a pipelined client can pile requests up faster than the server
/// drains them, panicking on a read of `panic_key`, and signalling
/// `entered` as each read starts.
struct SlowBackend {
    inner: Box<dyn ServeBackend>,
    read_delay: Duration,
    panic_key: Option<i64>,
    entered: Option<mpsc::SyncSender<()>>,
}

impl SlowBackend {
    fn sharded(read_delay: Duration, panic_key: Option<i64>) -> Self {
        SlowBackend {
            inner: backend::by_name("sharded_map_8").expect("backend"),
            read_delay,
            panic_key,
            entered: None,
        }
    }
}

impl ServeBackend for SlowBackend {
    fn get(&self, key: i64) -> Option<i64> {
        assert_ne!(Some(key), self.panic_key, "read of the sentinel key");
        if let Some(entered) = &self.entered {
            let _ = entered.try_send(());
        }
        thread::sleep(self.read_delay);
        self.inner.get(key)
    }
    fn insert(&self, key: i64, value: i64) -> Option<i64> {
        self.inner.insert(key, value)
    }
    fn remove(&self, key: i64) -> Option<i64> {
        self.inner.remove(key)
    }
    fn cas(&self, key: i64, expected: Option<i64>, new: Option<i64>) -> bool {
        self.inner.cas(key, expected, new)
    }
    fn transact(&self, ops: &[BatchOp<i64, i64>]) -> Vec<BatchResult<i64>> {
        self.inner.transact(ops)
    }
    fn transact_guarded(
        &self,
        ops: &[BatchOp<i64, i64>],
    ) -> Result<Vec<BatchResult<i64>>, Vec<u32>> {
        self.inner.transact_guarded(ops)
    }
    fn atomic_batches(&self) -> bool {
        self.inner.atomic_batches()
    }
    fn snapshot(&self) -> Arc<dyn ServeSnapshot> {
        self.inner.snapshot()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

#[test]
fn saturated_queue_sheds_busy_without_corrupting_in_flight_replies() {
    const DEPTH: usize = 2;
    const FLOOD: i64 = 24;
    let slow = SlowBackend::sharded(Duration::from_millis(5), None);
    let server = pathcopy_server::spawn(
        Box::new(slow),
        ServerConfig::builder().queue_depth(DEPTH).build(),
    )
    .expect("bind");

    let session = Session::connect(server.addr()).expect("connect");
    for k in 0..FLOOD {
        // Writes are fast in SlowBackend; serial so none can shed.
        let insert = session
            .submit(&Request::Insert {
                key: k,
                value: k * 3,
            })
            .expect("submit insert");
        match wait_bounded(insert, REPLY_LIMIT).expect("insert") {
            Response::Inserted(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // Flood the connection with slow reads far past the queue depth.
    let tickets: Vec<_> = (0..FLOOD)
        .map(|k| (k, session.submit(&Request::Get { key: k }).expect("submit")))
        .collect();
    let mut served = 0usize;
    let mut shed = 0usize;
    for (k, ticket) in tickets {
        match wait_bounded(ticket, REPLY_LIMIT) {
            // Every reply that wasn't shed must carry the value for
            // ITS key — shedding must not shift the pairing.
            Ok(Response::Got(v)) => {
                assert_eq!(v, Some(k * 3), "in-flight reply corrupted for key {k}");
                served += 1;
            }
            Err(ClientError::Busy(depth)) => {
                assert_eq!(depth, DEPTH as u64);
                shed += 1;
            }
            other => panic!("unexpected outcome for key {k}: {other:?}"),
        }
    }
    assert_eq!(served + shed, FLOOD as usize);
    assert!(
        shed >= 1,
        "flooding {FLOOD} slow reads past depth {DEPTH} must shed at least once"
    );
    assert!(
        served >= DEPTH,
        "the in-flight window itself must still be served"
    );
    assert_eq!(server.requests_shed(), shed as u64);

    // The connection survives shedding: a fresh round trip still works.
    let after = session
        .submit(&Request::Get { key: 0 })
        .expect("submit after shed");
    match wait_bounded(after, REPLY_LIMIT).expect("serve after shed") {
        Response::Got(v) => assert_eq!(v, Some(0)),
        other => panic!("unexpected {other:?}"),
    }
    drop(session);
    server.shutdown();
}

#[test]
fn idle_connections_are_not_bounded_by_the_worker_count() {
    const CONNS: usize = 8;
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::default(),
    )
    .expect("bind");

    // Hold many connections open simultaneously on the one loop thread
    // — under a thread-per-connection design, connections beyond the
    // thread count would block at accept and this test would deadlock.
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(
            client.insert(i as i64, i as i64 * 10).expect("insert"),
            None
        );
    }
    assert!(
        server.open_connections() >= CONNS as u64,
        "expected >= {CONNS} multiplexed connections, gauge says {}",
        server.open_connections()
    );
    // Every connection is still live and served while all others stay
    // open and idle.
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(client.get(i as i64).expect("get"), Some(i as i64 * 10));
        let (entries, _) = client.range(None, .., 0).expect("range");
        assert_eq!(entries.len(), CONNS);
    }
    drop(clients);
    server.shutdown();
}

/// Waits for `ticket` on a helper thread, so a reply that never comes
/// fails the test after `limit` instead of hanging it.
fn wait_bounded(ticket: Ticket, limit: Duration) -> Result<Response, ClientError> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("no reply within {limit:?}"))
}

const REPLY_LIMIT: Duration = Duration::from_secs(10);

#[test]
fn handler_panic_is_answered_internal_and_the_session_keeps_serving() {
    const SENTINEL: i64 = -666;
    let server = pathcopy_server::spawn(
        Box::new(SlowBackend::sharded(Duration::ZERO, Some(SENTINEL))),
        ServerConfig::default(),
    )
    .expect("bind");
    let session = Session::connect(server.addr()).expect("connect");
    let insert = session
        .submit(&Request::Insert { key: 1, value: 10 })
        .expect("submit insert");
    assert_eq!(
        wait_bounded(insert, REPLY_LIMIT).expect("insert"),
        Response::Inserted(None)
    );

    // The panicking read with a normal one pipelined right behind it.
    let boom = session
        .submit(&Request::Get { key: SENTINEL })
        .expect("submit sentinel");
    let next = session
        .submit(&Request::Get { key: 1 })
        .expect("submit next");
    match wait_bounded(boom, REPLY_LIMIT) {
        Err(ClientError::Server(WireError::Internal)) => {}
        other => panic!("a handler panic must answer Internal, got {other:?}"),
    }
    assert_eq!(
        wait_bounded(next, REPLY_LIMIT).expect("served after the panic"),
        Response::Got(Some(10))
    );

    // The same session, and a fresh connection, are still served.
    let again = session
        .submit(&Request::Get { key: 1 })
        .expect("submit again");
    assert_eq!(
        wait_bounded(again, REPLY_LIMIT).expect("served again"),
        Response::Got(Some(10))
    );
    let mut other = Client::connect(server.addr()).expect("connect");
    assert_eq!(other.get(1).expect("other connection"), Some(10));
    drop(session);
    server.shutdown();
}

#[test]
fn parked_get_at_does_not_delay_pipelined_requests_and_wakes_on_publish() {
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::default(),
    )
    .expect("bind");
    let session = Session::connect(server.addr()).expect("connect");
    let insert = session
        .submit(&Request::Insert { key: 7, value: 70 })
        .expect("submit insert");
    wait_bounded(insert, REPLY_LIMIT).expect("insert");

    // Nothing is published yet, so epoch 1 parks the read. Nothing is
    // published until the Get behind it is answered either: had the Get
    // waited for the parked read, that read would have run out its wait
    // and answered `Stale` instead of the `GotAt` asserted below.
    let parked = session
        .submit(&Request::GetAt {
            key: 7,
            min_epoch: 1,
            wait_ms: 60_000,
        })
        .expect("submit GetAt");
    let get = session
        .submit(&Request::Get { key: 7 })
        .expect("submit Get");
    assert_eq!(
        wait_bounded(get, REPLY_LIMIT).expect("Get"),
        Response::Got(Some(70))
    );

    // A publish on another connection answers the parked read.
    let mut publisher = Client::connect(server.addr()).expect("connect publisher");
    assert_eq!(publisher.publish().expect("publish"), 1);
    assert_eq!(
        wait_bounded(parked, REPLY_LIMIT).expect("GetAt"),
        Response::GotAt {
            value: Some(70),
            epoch: 1
        }
    );
    drop(session);
    server.shutdown();
}

#[test]
fn parked_get_at_counts_toward_queue_depth_and_answers_stale() {
    const DEPTH: usize = 2;
    const WAIT_MS: u32 = 1000;
    let server = pathcopy_server::spawn(
        backend::by_name("sharded_map_8").expect("backend"),
        ServerConfig::builder().queue_depth(DEPTH).build(),
    )
    .expect("bind");
    let session = Session::connect(server.addr()).expect("connect");
    let start = Instant::now();
    let parked: Vec<Ticket> = (0..DEPTH)
        .map(|_| {
            session
                .submit(&Request::GetAt {
                    key: 1,
                    min_epoch: 9,
                    wait_ms: WAIT_MS,
                })
                .expect("submit GetAt")
        })
        .collect();
    // Both parked reads are in flight, so the connection is full.
    let shed = session
        .submit(&Request::Get { key: 1 })
        .expect("submit Get");
    match wait_bounded(shed, REPLY_LIMIT) {
        Err(ClientError::Busy(depth)) => assert_eq!(depth, DEPTH as u64),
        other => panic!("a full window must shed, got {other:?}"),
    }
    // Nothing is published before the wait ends: each read is answered
    // with the head the server is at.
    for ticket in parked {
        match wait_bounded(ticket, REPLY_LIMIT) {
            Err(ClientError::Server(WireError::Stale(0))) => {}
            other => panic!("an expired GetAt must answer Stale(0), got {other:?}"),
        }
    }
    assert!(
        start.elapsed() >= Duration::from_millis(u64::from(WAIT_MS)),
        "answered Stale before its wait ended"
    );
    // The window is free again.
    let get = session
        .submit(&Request::Get { key: 1 })
        .expect("submit Get");
    assert_eq!(
        wait_bounded(get, REPLY_LIMIT).expect("Get"),
        Response::Got(None)
    );
    assert_eq!(server.requests_shed(), 1);
    drop(session);
    server.shutdown();
}

#[test]
fn a_push_burst_queued_while_the_loop_is_busy_does_not_demote() {
    // Well past the per-subscriber outbox bound of 32 frames.
    const BURST: u64 = 40;
    let (entered_tx, entered_rx) = mpsc::sync_channel(1);
    let slow = SlowBackend {
        entered: Some(entered_tx),
        ..SlowBackend::sharded(Duration::from_millis(300), None)
    };
    let server = pathcopy_server::spawn(Box::new(slow), ServerConfig::default()).expect("bind");
    let subscriber = Session::connect(server.addr()).expect("connect subscriber");
    let (_, pushes) = subscriber.subscribe(0).expect("subscribe");

    // Hold the loop inside a slow read while another thread publishes
    // the whole burst: every push frame queues up for the subscriber
    // before the loop can move any of them to its socket.
    let reader = Session::connect(server.addr()).expect("connect reader");
    let slow_read = reader.submit(&Request::Get { key: 1 }).expect("submit Get");
    entered_rx
        .recv_timeout(REPLY_LIMIT)
        .expect("the loop starts the read");
    for epoch in 1..=BURST {
        assert!(server.publish_at(epoch, None));
    }
    assert_eq!(
        wait_bounded(slow_read, REPLY_LIMIT).expect("Get"),
        Response::Got(None)
    );

    for epoch in 1..=BURST {
        let push = pushes
            .recv_timeout(REPLY_LIMIT)
            .expect("subscription alive")
            .unwrap_or_else(|| panic!("push for epoch {epoch} never arrived"));
        assert_eq!(push.epoch, epoch);
    }
    assert_eq!(server.gauges().push_demotions, 0);
    drop((subscriber, reader));
    server.shutdown();
}
