//! Push fan-out end-to-end: a relay tree (1 primary, 2 relays, 4
//! leaves) converges with **zero** `PullDiff` traffic in the steady
//! state, the primary's exact egress is independent of the leaf count,
//! and a session token carries read-your-writes through a leaf while
//! concurrent writers churn the primary.

use std::net::SocketAddr;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pathcopy_replica::PushReplica;
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, Client, ClientError, ServerConfig, ServerHandle, SessionToken};

fn primary_server() -> ServerHandle {
    pathcopy_server::spawn(
        Box::new(ShardedServe::with_shards(8)),
        ServerConfig {
            feed_capacity: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral loopback port")
}

fn push_node(addr: SocketAddr) -> PushReplica {
    PushReplica::connect(addr, backend::by_name("sharded_map_8").unwrap())
        .expect("connect push replica")
}

fn relay_node(addr: SocketAddr) -> PushReplica {
    let mut node = push_node(addr);
    node.serve_relay(ServerConfig::default())
        .expect("bind relay listener");
    node
}

/// Pumps every node (relays first, then leaves — upstream before
/// downstream) until all have applied `target`, panicking if the tree
/// stops making progress.
fn pump_until(nodes: &mut [&mut PushReplica], target: u64) {
    for _ in 0..2000 {
        if nodes.iter().all(|n| n.applied_epoch() >= target) {
            return;
        }
        for node in nodes.iter_mut() {
            if node.applied_epoch() < target {
                node.pump(Duration::from_millis(20)).expect("pump");
            }
        }
    }
    let at: Vec<u64> = nodes.iter().map(|n| n.applied_epoch()).collect();
    panic!("fan-out stalled below epoch {target}: applied = {at:?}");
}

/// Raises its flag when dropped — also while unwinding, so a panicking
/// thread still stops the threads waiting on the flag.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Pumps `node` until `stop` is raised. `Disconnected` ends the loop
/// only once `done` is raised too: before that, an upstream going away
/// is a failure, not teardown.
fn pump_until_stopped(node: &mut PushReplica, stop: &AtomicBool, done: &AtomicBool, name: &str) {
    while !stop.load(Ordering::Acquire) {
        match node.pump(Duration::from_millis(5)) {
            Ok(_) => {}
            Err(ClientError::Disconnected) if done.load(Ordering::Acquire) => return,
            Err(e) => panic!("{name} pump: {e}"),
        }
    }
}

fn state_of(node: &PushReplica) -> Vec<(i64, i64)> {
    let (entries, complete) =
        node.replica()
            .store()
            .snapshot()
            .range(Bound::Unbounded, Bound::Unbounded, 0);
    assert!(complete);
    entries
}

#[test]
fn relay_tree_converges_with_pushes_only() {
    let primary = primary_server();
    let mut writer = Client::connect(primary.addr()).unwrap();
    for k in 0..32i64 {
        writer.insert(k, k).unwrap();
    }
    writer.publish().unwrap();

    // Depth-2 tree: primary -> 2 relays -> 2 leaves each.
    let mut r1 = relay_node(primary.addr());
    let mut r2 = relay_node(primary.addr());
    let (r1_addr, r2_addr) = (r1.relay_addr().unwrap(), r2.relay_addr().unwrap());
    let mut leaves: Vec<PushReplica> = vec![
        push_node(r1_addr),
        push_node(r1_addr),
        push_node(r2_addr),
        push_node(r2_addr),
    ];

    // Churn: inserts, overwrites, removals across several epochs.
    for round in 1..=8i64 {
        writer.insert(round, round * 100).unwrap();
        writer.insert(100 + round, -round).unwrap();
        writer.remove(round - 1).unwrap();
        let epoch = writer.publish().unwrap();
        let mut nodes: Vec<&mut PushReplica> = Vec::new();
        nodes.push(&mut r1);
        nodes.push(&mut r2);
        nodes.extend(leaves.iter_mut());
        pump_until(&mut nodes, epoch);
    }

    // Every node equals the primary's head state.
    let mut primary_reader = Client::connect(primary.addr()).unwrap();
    let (expect, complete) = primary_reader.range(None, .., 0).unwrap();
    assert!(complete);
    for node in [&r1, &r2].into_iter().chain(leaves.iter()) {
        assert_eq!(state_of(node), expect, "node diverged from primary");
    }

    // The whole convergence was push-driven: after the bootstrap full
    // sync, no node ever issued a PullDiff and no gap was repaired.
    for node in [&r1, &r2].into_iter().chain(leaves.iter()) {
        let pull = node.pull_stats();
        let push = node.push_stats();
        assert_eq!(pull.diff_pulls, 0, "steady state must not pull diffs");
        assert_eq!(pull.full_syncs, 1, "exactly the bootstrap transfer");
        assert_eq!(push.push_gaps, 0, "no gaps in a pumped tree");
        assert_eq!(push.pushes_applied, 8, "one push per published epoch");
    }
    primary.shutdown();
}

#[test]
fn primary_egress_is_independent_of_leaf_count() {
    let primary = primary_server();
    let mut writer = Client::connect(primary.addr()).unwrap();
    // Seed the measured keys so every later overwrite produces replies
    // and diffs of identical encoded size (Some(prev) both phases).
    for k in 0..8i64 {
        writer.insert(k, 0).unwrap();
    }
    writer.publish().unwrap();

    let mut r1 = relay_node(primary.addr());
    let mut r2 = relay_node(primary.addr());
    let (r1_addr, r2_addr) = (r1.relay_addr().unwrap(), r2.relay_addr().unwrap());

    // Identically-shaped write rounds so the egress comparison is exact:
    // same keys, fixed-width values, same diff shape every round.
    // Egress is read from a `Gauges` reply: the primary's loop counts
    // a frame's bytes right after handing them to the kernel, so a
    // relay may apply a push before its bytes are counted. The loop
    // answers the writer's `Gauges` only after that, so the gauge is a
    // quiescent reading. (Each phase spans one fixed-size `Gauges`
    // reply, the same in both.)
    let egress = |writer: &mut Client| writer.gauges().expect("gauges").wire_sent;
    let measure = |writer: &mut Client,
                   r1: &mut PushReplica,
                   r2: &mut PushReplica,
                   leaves: &mut [PushReplica],
                   base: i64| {
        let before = egress(writer);
        for round in 0..4i64 {
            for k in 0..8i64 {
                writer.insert(k, base + round * 8 + k).unwrap();
            }
            let epoch = writer.publish().unwrap();
            let mut nodes: Vec<&mut PushReplica> = Vec::new();
            nodes.push(r1);
            nodes.push(r2);
            nodes.extend(leaves.iter_mut());
            pump_until(&mut nodes, epoch);
        }
        egress(writer) - before
    };

    // Phase A: two leaves.
    let mut leaves: Vec<PushReplica> = vec![push_node(r1_addr), push_node(r2_addr)];
    let egress_two_leaves = measure(&mut writer, &mut r1, &mut r2, &mut leaves, 1000);

    // Phase B: six leaves — three times the subscribers, all fed by the
    // relays. Their bootstrap full syncs hit the relays, not the
    // primary.
    leaves.extend([
        push_node(r1_addr),
        push_node(r1_addr),
        push_node(r2_addr),
        push_node(r2_addr),
    ]);
    let egress_six_leaves = measure(&mut writer, &mut r1, &mut r2, &mut leaves, 2000);

    // Exact equality, not a tolerance: the primary sent the same reply
    // bytes to the writer and the same two push frames per epoch in
    // both phases. The leaves' frames all came out of the relays.
    assert_eq!(
        egress_two_leaves, egress_six_leaves,
        "primary egress must not scale with the leaf count"
    );
    for leaf in &leaves {
        assert_eq!(leaf.pull_stats().diff_pulls, 0);
        assert!(leaf.relay_addr().is_none());
    }
    primary.shutdown();
}

#[test]
fn session_token_reads_your_writes_through_a_leaf() {
    let primary = primary_server();
    let mut seed = Client::connect(primary.addr()).unwrap();
    seed.insert(0, 0).unwrap();
    seed.publish().unwrap();

    // Depth 2: primary -> relay -> leaf; the leaf serves reads.
    let primary_addr = primary.addr();
    let mut relay = relay_node(primary_addr);
    let mut leaf = relay_node(relay.relay_addr().unwrap());
    let leaf_addr = leaf.relay_addr().unwrap();

    // `done` ends the test's threads; `leaf_stopped` makes the relay
    // outlive the leaf, so the leaf never sees its upstream vanish.
    let done = AtomicBool::new(false);
    let leaf_stopped = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (done, leaf_stopped) = (&done, &leaf_stopped);
        // Raised however the main thread leaves this scope, a panic
        // included, so the churn thread cannot publish forever.
        let _done = RaiseOnDrop(done);
        // Concurrent writers churning other keys and publishing.
        s.spawn(move || {
            let mut churn = Client::connect(primary_addr).unwrap();
            let mut round = 0i64;
            while !done.load(Ordering::Acquire) {
                round += 1;
                churn.insert(-round, round).unwrap();
                churn.publish().unwrap();
            }
        });
        // The pump threads keeping the chain flowing: the leaf stops
        // first, then the relay.
        s.spawn(move || pump_until_stopped(&mut relay, leaf_stopped, done, "relay"));
        s.spawn(move || {
            let _stopped = RaiseOnDrop(leaf_stopped);
            pump_until_stopped(&mut leaf, done, done, "leaf");
        });

        // The session under test: write to the primary, read through
        // the leaf, threading one token.
        let mut writer = Client::connect(primary_addr).unwrap();
        let mut reader = Client::connect(leaf_addr).unwrap();
        let mut token = SessionToken::default();
        let mut last_served = 0u64;
        for round in 1..=20i64 {
            writer.insert_tracked(7, round, &mut token).unwrap();
            // The watermark names the next (unpublished) epoch; publish
            // so it exists and can propagate down the chain.
            writer.publish().unwrap();
            let floor = token.epoch();
            let mut value = None;
            for attempt in 0.. {
                match reader.get_at(7, &mut token, 2000) {
                    Ok(v) => {
                        value = Some(v);
                        break;
                    }
                    // The leaf can answer Stale while the push is in
                    // flight; keep waiting — the pump threads will get
                    // it there.
                    Err(ClientError::Server(pathcopy_server::WireError::Stale(_))) => {
                        assert!(attempt < 50, "leaf never reached epoch {floor}");
                    }
                    Err(e) => panic!("leaf read failed: {e}"),
                }
            }
            assert_eq!(
                value,
                Some(Some(round)),
                "read-your-writes violated at round {round}"
            );
            assert!(token.epoch() >= floor, "served below the watermark");
            assert!(token.epoch() >= last_served, "token went backwards");
            last_served = token.epoch();
        }
    });
    primary.shutdown();
}
