//! Workload inputs, generated from the run's seed. Each load thread owns
//! a seeded [`Stream`] and draws its next op from it inside the loop, so
//! a run never replays ops it has already applied. The program under
//! test only ever sees the generated ops.

use pathcopy_workloads::{mixed, random, KeyDist, MixedStream, Op, OpStream, RandomStream};

/// Load threads per workload (the machine the figures were sized on
/// has two CPUs).
pub const THREADS: usize = 2;
/// Keys of the two key-value workloads.
pub const KV_KEYS: u64 = 65_536;
/// YCSB-like skew of the key-value workloads.
pub const ZIPF_THETA: f64 = 0.99;
/// Ops of each stream that the seed check compares and the probes use.
pub const HEAD_OPS: usize = 1 << 15;

#[derive(Debug, Clone)]
enum Source {
    Mixed(MixedStream),
    Random(RandomStream),
}

/// One load thread's infinite op stream. Key `k` drawn by the source is
/// sent as `k * classes + class`, which confines a thread to its own
/// residue class of the keys.
#[derive(Debug, Clone)]
pub struct Stream {
    source: Source,
    classes: i64,
    class: i64,
}

impl Stream {
    fn plain(source: Source) -> Stream {
        Stream {
            source,
            classes: 1,
            class: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let op = match &mut self.source {
            Source::Mixed(s) => s.next_op(),
            Source::Random(s) => s.next_op(),
        };
        let map = |k: i64| k * self.classes + self.class;
        match op {
            Op::Insert(k) => Op::Insert(map(k)),
            Op::Remove(k) => Op::Remove(map(k)),
            Op::Contains(k) => Op::Contains(map(k)),
        }
    }

    /// The stream's first `n` ops, leaving the stream where it is.
    pub fn head(&self, n: usize) -> Vec<Op> {
        let mut copy = self.clone();
        (0..n).map(|_| copy.next_op()).collect()
    }
}

/// Everything a workload consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Keys inserted before the load starts (duplicates allowed).
    pub prefill: Vec<i64>,
    /// One op stream per load thread.
    pub streams: Vec<Stream>,
}

impl Inputs {
    /// Whether `other` holds the same prefill and streams that start with
    /// the same [`HEAD_OPS`] ops.
    pub fn same_as(&self, other: &Inputs) -> bool {
        self.prefill == other.prefill
            && self.streams.len() == other.streams.len()
            && self
                .streams
                .iter()
                .zip(&other.streams)
                .all(|(a, b)| a.head(HEAD_OPS) == b.head(HEAD_OPS))
    }

    /// FNV-1a fingerprint of the prefill and the streams' heads, printed
    /// so two runs can be compared by eye.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: i64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        self.prefill.iter().for_each(|&k| mix(k));
        for stream in &self.streams {
            for op in stream.head(HEAD_OPS) {
                mix(match op {
                    Op::Insert(k) => k.wrapping_mul(4),
                    Op::Remove(k) => k.wrapping_mul(4) + 1,
                    Op::Contains(k) => k.wrapping_mul(4) + 2,
                });
            }
        }
        h
    }
}

/// `kv_read_mostly`: 95% `Contains` (sent as `Get`), 5% `Insert` /
/// `Remove`, Zipf keys over `[0, KV_KEYS)`; every even key prefilled.
pub fn read_mostly(seed: u64) -> Inputs {
    let dist = KeyDist::Zipf {
        n: KV_KEYS,
        theta: ZIPF_THETA,
    };
    Inputs {
        prefill: (0..KV_KEYS as i64).step_by(2).collect(),
        streams: mixed(THREADS, dist, 0.95, seed)
            .into_iter()
            .map(|s| Stream::plain(Source::Mixed(s)))
            .collect(),
    }
}

/// `kv_write_replicated`: Insert/Remove 50/50 with Zipf keys; thread
/// `t` only touches keys `≡ t (mod THREADS)`, so it is the only writer
/// of its keys and knows exactly what each of them holds. Half of each
/// thread's keys are prefilled.
pub fn write_replicated(seed: u64) -> Inputs {
    let classes = THREADS as i64;
    let dist = KeyDist::Zipf {
        n: KV_KEYS / THREADS as u64,
        theta: ZIPF_THETA,
    };
    Inputs {
        prefill: (0..KV_KEYS as i64)
            .filter(|k| (k / classes) % 2 == 0)
            .collect(),
        streams: mixed(THREADS, dist, 0.0, seed)
            .into_iter()
            .enumerate()
            .map(|(t, s)| Stream {
                source: Source::Mixed(s),
                classes,
                class: t as i64,
            })
            .collect(),
    }
}

/// `engine_update_heavy`: the paper's §4.2 Random workload — 10⁶
/// uniform prefill draws over `[-10⁶, 10⁶]`, then insert/remove 50/50
/// on uniform keys.
pub fn engine(seed: u64) -> Inputs {
    let workload = random(THREADS, seed);
    Inputs {
        streams: workload
            .streams()
            .into_iter()
            .map(|s| Stream::plain(Source::Random(s)))
            .collect(),
        prefill: workload.prefill,
    }
}
