//! The closed-loop phase runner shared by every workload.
//!
//! Each load thread owns one [`Worker`] and calls [`Worker::step`] back
//! to back, one op at a time, for each [`Phase`] in turn. The threads
//! live across all phases (so per-thread `/proc` counters never lose a
//! thread mid-window) and meet the main thread at barriers around each
//! phase, where the main thread reads the layers' counters while no op
//! is in flight.

use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use crate::spans::{Spans, Trace};
use crate::stats::{self, LatencySummary, Sample, OP};

/// One timed stretch of closed-loop load.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub dur: Duration,
    /// Keep latency samples (off for warm-up).
    pub record: bool,
    /// Record spans (the traced run only).
    pub traced: bool,
}

/// What a worker records into during one phase.
pub struct PhaseRec {
    pub start: Instant,
    pub record: bool,
    pub samples: Vec<Sample>,
    pub spans: Option<Spans>,
}

impl PhaseRec {
    /// Keeps `sample` if this phase records.
    pub fn sample(&mut self, start: Instant, end: Instant, class: u8) {
        if self.record {
            self.samples
                .push(Sample::new(self.start, start, end, class));
        }
    }
}

/// One load thread's closed loop.
pub trait Worker: Send {
    /// Issues one op, waits for it, checks its result, and records it.
    fn step(&mut self, rec: &mut PhaseRec);

    /// Upper bound on the samples and spans one step records, used to
    /// size buffers before a phase so the measured loop never grows them.
    fn records_per_step(&self) -> usize;
}

/// Where the main thread is called back: before a phase starts (all
/// workers parked) and after it ends (all workers parked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    Before(usize),
    After(usize),
}

/// Everything one phase produced, over all workers.
pub struct PhaseOut {
    /// The phase's length (each worker ran this long from its own start).
    pub dur: Duration,
    pub steps: u64,
    /// One buffer per worker, kept apart: merging would copy them.
    pub samples: Vec<Vec<Sample>>,
    pub trace: Trace,
}

impl PhaseOut {
    fn of_class(&self, mask: u8) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .flatten()
            .filter(move |s| s.class & mask == mask)
    }

    pub fn count(&self, mask: u8) -> usize {
        self.of_class(mask).count()
    }

    pub fn summary(&self, mask: u8) -> LatencySummary {
        stats::summarize(self.of_class(mask))
    }

    /// Bytes the sample buffers hold (what the process's peak resident
    /// size owes to the benchmark's own bookkeeping).
    pub fn sample_bytes(&self) -> usize {
        self.samples.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<Sample>()
    }

    /// Ops completed in each whole `window_ms` of the phase.
    fn per_window(&self, window_ms: u32) -> Vec<usize> {
        let mut counts = vec![0; (self.dur.as_millis() / u128::from(window_ms)) as usize];
        for s in self.of_class(OP) {
            if let Some(c) = counts.get_mut((s.end_ms / window_ms) as usize) {
                *c += 1;
            }
        }
        counts
    }

    /// Ops completed in each whole second of the phase.
    pub fn per_second(&self) -> Vec<usize> {
        self.per_window(1000)
    }

    /// Throughput: the upper quartile of the op rates of the phase's
    /// 250 ms windows. Other tenants of a shared host slow a run for
    /// seconds at a time; this reads the rate the program sustains in
    /// the windows they leave alone, while a cost that every window pays
    /// still counts in full.
    pub fn ops_per_s(&self) -> f64 {
        const WINDOW_MS: u32 = 250;
        let mut counts: Vec<u64> = self
            .per_window(WINDOW_MS)
            .into_iter()
            .map(|c| c as u64)
            .collect();
        counts.sort_unstable();
        stats::percentile(&counts, 75.0) as f64 * 1000.0 / f64::from(WINDOW_MS)
    }
}

/// Runs `phases` over `workers` (one thread each) and returns one
/// [`PhaseOut`] per phase. `at` runs on the calling thread at every
/// boundary. `origin` is the time base of every span.
pub fn drive<W: Worker>(
    workers: &mut [W],
    phases: &[Phase],
    origin: Instant,
    mut at: impl FnMut(Boundary),
) -> Vec<PhaseOut> {
    let barrier = Barrier::new(workers.len() + 1);
    thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(index, worker)| {
                let barrier = &barrier;
                thread::Builder::new()
                    .name(format!("perfbench-load-{index}"))
                    .spawn_scoped(scope, move || {
                        run_worker(worker, index, phases, origin, barrier)
                    })
                    .expect("spawn load thread")
            })
            .collect();
        for i in 0..phases.len() {
            barrier.wait(); // workers have sized their buffers
            at(Boundary::Before(i));
            barrier.wait(); // go
            barrier.wait(); // every worker passed the deadline
            at(Boundary::After(i));
        }
        let mut outs: Vec<PhaseOut> = phases
            .iter()
            .map(|phase| PhaseOut {
                dur: phase.dur,
                steps: 0,
                samples: Vec::new(),
                trace: Trace::default(),
            })
            .collect();
        for handle in handles {
            let per_phase = handle.join().expect("load thread panicked");
            for (out, (steps, rec)) in outs.iter_mut().zip(per_phase) {
                out.steps += steps;
                out.samples.push(rec.samples);
                if let Some(spans) = rec.spans {
                    out.trace.absorb(spans);
                }
            }
        }
        outs
    })
}

fn run_worker<W: Worker>(
    worker: &mut W,
    index: usize,
    phases: &[Phase],
    origin: Instant,
    barrier: &Barrier,
) -> Vec<(u64, PhaseRec)> {
    let mut out = Vec::with_capacity(phases.len());
    let mut rate_per_s = 0.0f64;
    for phase in phases {
        // Size the buffers from the previous phase's rate, with slack.
        let expected = (rate_per_s * phase.dur.as_secs_f64() * 1.5) as usize + 4096;
        let capacity = expected * worker.records_per_step();
        let mut rec = PhaseRec {
            start: Instant::now(),
            record: phase.record,
            samples: if phase.record {
                Vec::with_capacity(capacity)
            } else {
                Vec::new()
            },
            spans: phase.traced.then(|| {
                let thread = u16::try_from(index + 1).expect("fewer than 65535 threads");
                Spans::new(origin, thread, capacity)
            }),
        };
        barrier.wait();
        barrier.wait();
        rec.start = Instant::now();
        let deadline = rec.start + phase.dur;
        let mut steps = 0u64;
        while Instant::now() < deadline {
            worker.step(&mut rec);
            steps += 1;
        }
        rate_per_s = steps as f64 / rec.start.elapsed().as_secs_f64();
        barrier.wait();
        out.push((steps, rec));
    }
    out
}

/// Index of the untraced measured phase in [`phases`].
pub const MEASURED: usize = 1;
/// Index of the traced phase, present only in a traced run.
pub const TRACED: usize = 2;

/// Warm-up, the untraced measured phase, and in a traced run the traced
/// phase that follows it; a traced run splits `seconds` between the two.
pub fn phases(seconds: u64, traced: bool, warmup: Duration) -> Vec<Phase> {
    let dur = if traced {
        Duration::from_millis(seconds * 500)
    } else {
        Duration::from_secs(seconds)
    };
    let mut phases = vec![
        Phase {
            dur: warmup,
            record: false,
            traced: false,
        },
        Phase {
            dur,
            record: true,
            traced: false,
        },
    ];
    if traced {
        phases.push(Phase {
            dur,
            record: true,
            traced: true,
        });
    }
    phases
}
