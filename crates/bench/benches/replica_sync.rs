//! Diff-sync vs full-sync transfer cost as write locality varies.
//!
//! Setup per locality: a primary serving a 100k-key map, a bootstrapped
//! replica, then a 4 000-op write burst whose keys come from the
//! workspace's Zipf sampler (`theta = 0` is uniform; higher theta
//! concentrates the burst on hot keys, shrinking the *distinct* change
//! set). The replica then catches up once.
//!
//! The printed table is the acceptance claim in numbers: `diff_bytes`
//! tracks the distinct keys touched — O(changes) — while `full_bytes`
//! is the whole map every time — O(n); their ratio grows as locality
//! rises. The criterion timings measure the wire pulls themselves:
//! `pull_diff` (server-side pruned diff + transfer) against `full_sync`
//! (paging a pinned version down in bounded segments).
//!
//! Run `BENCH_JSON=out.jsonl cargo bench --bench replica_sync` to capture
//! machine-readable medians (CI uploads these as `BENCH_ci.json`).

use std::collections::BTreeSet;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcopy_bench::table::Series;
use pathcopy_concurrent::ShardedTreapMap;
use pathcopy_replica::{Replica, SyncOutcome};
use pathcopy_server::backend::ShardedServe;
use pathcopy_server::{backend, Client, ServerConfig};
use pathcopy_workloads::zipf::Zipf;
use rand::{rngs::StdRng, SeedableRng};

const MAP_SIZE: i64 = 100_000;
const WRITE_BURST: usize = 4_000;

fn bench_replica_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("replica_sync");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(800));

    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (label, theta) in [("uniform", 0.0), ("zipf_0.6", 0.6), ("zipf_0.99", 0.99)] {
        // Primary with the full map.
        let map: ShardedTreapMap<i64, i64> = ShardedTreapMap::with_shards(8);
        for k in 0..MAP_SIZE {
            map.insert(k, k);
        }
        let server =
            pathcopy_server::spawn(Box::new(ShardedServe::new(map)), ServerConfig::default())
                .expect("bind ephemeral loopback port");
        let addr = server.addr();

        // Bootstrap (the O(n) transfer, byte-counted as full_bytes).
        let mut replica =
            Replica::connect(addr, backend::by_name("sharded_map_8").unwrap()).expect("replica");
        assert!(matches!(
            replica.sync_once().expect("bootstrap"),
            SyncOutcome::FullSync { .. }
        ));
        let boot_epoch = replica.applied_epoch();

        // Zipf write burst, then one published epoch on top.
        let mut writer = Client::connect(addr).expect("writer");
        let mut zipf = Zipf::new(MAP_SIZE as u64, theta);
        let mut rng = StdRng::seed_from_u64(0x5eed ^ theta.to_bits());
        let mut distinct = BTreeSet::new();
        for i in 0..WRITE_BURST {
            let k = zipf.sample(&mut rng) as i64;
            distinct.insert(k);
            writer.insert(k, -(i as i64)).expect("burst write");
        }
        writer.publish().expect("post-burst epoch");

        // Catch-up (the O(changes) transfer, byte-counted as diff_bytes).
        let caught = replica.sync_once().expect("catch up");
        let SyncOutcome::Diff { changes, .. } = caught else {
            panic!("catch-up must be incremental, got {caught:?}")
        };
        assert!(changes <= distinct.len(), "diff bounded by touched keys");
        let stats = replica.stats();
        drop(writer);
        drop(replica); // closes their connections before the timing runs

        // Wire-pull timings on a separate connection (both read pinned
        // feed versions, so iterations are repeatable).
        let mut puller = Client::connect(addr).expect("puller");
        group.bench_function(BenchmarkId::new("pull_diff", label), |b| {
            b.iter(|| puller.pull_diff(boot_epoch).expect("pull diff").1.len())
        });
        group.bench_function(BenchmarkId::new("full_sync", label), |b| {
            b.iter(|| {
                let (epoch, first, mut done) =
                    puller.full_sync_page(None, None, 0).expect("first page");
                let mut total = first.len();
                let mut after = first.last().map(|(k, _)| *k);
                while !done {
                    let (_, page, page_done) = puller
                        .full_sync_page(Some(epoch), after, 0)
                        .expect("next page");
                    after = page.last().map(|(k, _)| *k).or(after);
                    total += page.len();
                    done = page_done;
                }
                total
            })
        });

        rows.push(vec![
            theta,
            distinct.len() as f64,
            stats.diff_bytes as f64,
            stats.full_bytes as f64,
            stats.full_bytes as f64 / (stats.diff_bytes.max(1)) as f64,
        ]);
        server.shutdown();
    }
    group.finish();

    let table = Series {
        title: format!("replica_sync transfer cost ({MAP_SIZE}-key map, {WRITE_BURST}-op burst)"),
        columns: vec![
            "theta".into(),
            "distinct_keys".into(),
            "diff_bytes".into(),
            "full_bytes".into(),
            "full/diff".into(),
        ],
        rows,
    };
    print!("{}", table.render());
}

criterion_group!(benches, bench_replica_sync);
criterion_main!(benches);
