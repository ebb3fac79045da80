//! `engine_update_heavy`: the paper's §4.2 Random workload on the
//! single-root lock-free `TreapSet`, in process, with no sockets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcopy_concurrent::TreapSet;
use pathcopy_core::StatsSnapshot;
use pathcopy_workloads::Op;

use crate::drive::{self, Boundary, PhaseRec, Worker, MEASURED, TRACED};
use crate::gen::{self, Stream};
use crate::spans::Spans;
use crate::stats::{self, ProcSnap, OP, WRITE};
use crate::{alloc, Args, Report, Tally};

/// Unrecorded closed-loop time before the first measured phase.
const WARMUP: Duration = Duration::from_secs(2);
/// Prefill builds per run (each takes seconds); `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;

struct Updater {
    set: Arc<TreapSet<i64>>,
    ops: Stream,
    /// Updates that changed the set, for the exact size check.
    inserted: u64,
    removed: u64,
    tally: Tally,
}

impl Worker for Updater {
    fn step(&mut self, rec: &mut PhaseRec) {
        let op = self.ops.next_op();
        let start = Instant::now();
        let changed = match op {
            Op::Insert(k) => self.set.insert(k),
            Op::Remove(k) => self.set.remove(&k),
            Op::Contains(k) => self.set.contains(&k),
        };
        let end = Instant::now();
        self.tally.attempted += 1;
        match op {
            Op::Insert(_) => self.inserted += u64::from(changed),
            Op::Remove(_) => self.removed += u64::from(changed),
            Op::Contains(k) => self.tally.fail(|| format!("stream holds a read of {k}")),
        }
        rec.sample(start, end, OP | WRITE);
        if let Some(spans) = rec.spans.as_mut() {
            spans.record(0, "concurrent.update", 0, start, end);
        }
    }

    fn records_per_step(&self) -> usize {
        1
    }
}

/// Counters read at the traced phase's boundaries.
struct Window {
    proc: ProcSnap,
    stats: StatsSnapshot,
    allocs: (u64, u64),
}

pub fn update_heavy(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = gen::engine(args.seed);
    report
        .tally
        .check(inputs.same_as(&gen::engine(args.seed)), || {
            "seed does not fix the inputs".to_owned()
        });
    eprintln!(
        "perfbench: engine_update_heavy inputs {:016x}: {} prefill draws, {} streams",
        inputs.fingerprint(),
        inputs.prefill.len(),
        inputs.streams.len()
    );
    let mut distinct = inputs.prefill.clone();
    distinct.sort_unstable();
    distinct.dedup();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut set = None;
    for _ in 0..SETUP_REPS {
        drop(set.take());
        let started = Instant::now();
        let built: TreapSet<i64> = inputs.prefill.iter().copied().collect();
        setups.push(started.elapsed().as_secs_f64());
        set = Some(Arc::new(built));
    }
    let set = set.expect("at least one setup");
    let initial_len = set.len();
    report.tally.check(initial_len == distinct.len(), || {
        format!(
            "prefill holds {initial_len} keys, expected {}",
            distinct.len()
        )
    });

    let mut workers: Vec<Updater> = inputs
        .streams
        .iter()
        .map(|ops| Updater {
            set: Arc::clone(&set),
            ops: ops.clone(),
            inserted: 0,
            removed: 0,
            tally: Tally::default(),
        })
        .collect();
    let origin = Instant::now();
    let phases = drive::phases(args.seconds, args.trace, WARMUP);
    let mut before = None;
    let mut after = None;
    let window = || Window {
        proc: ProcSnap::now(),
        stats: set.stats().snapshot(),
        allocs: alloc::counts(),
    };
    let outs = drive::drive(&mut workers, &phases, origin, |at| match at {
        Boundary::Before(TRACED) => {
            before = Some(window());
            alloc::set_counting(true);
        }
        Boundary::After(TRACED) => {
            alloc::set_counting(false);
            after = Some(window());
        }
        _ => {}
    });

    let mut inserted = 0;
    let mut removed = 0;
    let mut updates = 0;
    for w in workers {
        inserted += w.inserted;
        removed += w.removed;
        updates += w.tally.attempted;
        report.tally.merge(w.tally);
    }
    report.tally.check_churn(inserted + removed, updates);
    check_final(&set, initial_len, inserted, removed, &mut report.tally);

    let measured_rate = outs[MEASURED].ops_per_s();
    if args.trace {
        let traced = &outs[TRACED];
        let overhead = 1.0 - traced.ops_per_s() / measured_rate;
        eprintln!(
            "perfbench: ops per second untraced {:?}, traced {:?}",
            outs[MEASURED].per_second(),
            traced.per_second()
        );
        let (b, a) = (
            before.expect("traced window"),
            after.expect("traced window"),
        );
        let ops = traced.steps.max(1) as f64;
        let attempts = a.stats.attempts - b.stats.attempts;
        report.set(
            "core.attempts_per_update",
            "ratio",
            attempts as f64 / (a.stats.ops - b.stats.ops).max(1) as f64,
        );
        report.set(
            "core.cas_fail_frac",
            "ratio",
            (a.stats.cas_failures - b.stats.cas_failures) as f64 / attempts.max(1) as f64,
        );
        let mut updates = traced.trace.durations("concurrent.update", None);
        updates.sort_unstable();
        report.set(
            "concurrent.update_ns",
            "ns",
            stats::percentile(&updates, 50.0) as f64,
        );
        report.set(
            "concurrent.update_p99_ns",
            "ns",
            stats::percentile(&updates, 99.0) as f64,
        );
        report.set(
            "concurrent.allocs_per_update",
            "count",
            (a.allocs.0 - b.allocs.0) as f64 / ops,
        );
        report.set(
            "concurrent.alloc_bytes_per_update",
            "B",
            (a.allocs.1 - b.allocs.1) as f64 / ops,
        );
        // Point reads on the live set, over the streams' keys.
        let mut probe = Spans::new(origin, 0, gen::HEAD_OPS);
        for op in inputs.streams[0].head(gen::HEAD_OPS) {
            let start = Instant::now();
            std::hint::black_box(set.contains(&op.key()));
            probe.record(0, "concurrent.get", 0, start, Instant::now());
        }
        let mut trace = outs.into_iter().nth(TRACED).expect("traced phase").trace;
        trace.absorb(probe);
        report.set(
            "concurrent.get_ns",
            "ns",
            stats::mean(&trace.durations("concurrent.get", None)),
        );
        report.set_process(&b.proc, &a.proc, ops);
        report.set("bench.trace_overhead_frac", "ratio", overhead);
        report.untouched(&["proto.", "client.", "server.", "durable.", "replica."]);
        report.trace = trace;
        report.write_spans("engine_update_heavy");
    } else {
        report.set_end_to_end(&outs[MEASURED], &mut setups, &[]);
    }
    Ok(report)
}

/// The set's snapshot is sorted, agrees with `len()`, stays inside the
/// key range, and its size moved by exactly the updates that reported a
/// change.
fn check_final(
    set: &TreapSet<i64>,
    initial_len: usize,
    inserted: u64,
    removed: u64,
    tally: &mut Tally,
) {
    let snapshot = set.snapshot();
    let keys: Vec<i64> = snapshot.iter().copied().collect();
    tally.check(keys.windows(2).all(|w| w[0] < w[1]), || {
        "snapshot is not strictly ascending".to_owned()
    });
    tally.check(keys.len() == set.len(), || {
        format!(
            "snapshot holds {} keys, len() says {}",
            keys.len(),
            set.len()
        )
    });
    let range = pathcopy_workloads::PAPER_KEY_RANGE;
    tally.check(keys.iter().all(|k| (-range..=range).contains(k)), || {
        "a key outside the workload's range".to_owned()
    });
    let expected = initial_len as i64 + inserted as i64 - removed as i64;
    tally.check(keys.len() as i64 == expected, || {
        format!(
            "{} keys after {inserted} inserts and {removed} removes from {initial_len}; expected {expected}",
            keys.len()
        )
    });
}
