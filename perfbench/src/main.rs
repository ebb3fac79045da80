//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload of `BENCHMARK.json` in this process, checks every
//! output it gets back, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! they are the per-layer ones, measured in a separate traced phase whose
//! spans are written to `perfbench/out/spans-<workload>.tsv`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod alloc;
mod drive;
mod engine;
mod gen;
mod json;
mod kv;
mod spans;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::GatedAllocator = alloc::GatedAllocator;

/// Log directories that must not outlive the process, even when the
/// watchdog ends it.
static TEMP_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
    })
}

/// Attempted ops and the failures among them: transport and server
/// errors, `Busy`/`Stale` replies, and every failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Fails unless `ok`: a check of the run's outputs as a whole.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.fail(note);
        }
    }

    /// Fails unless about half of `updates` changed the data. An insert
    /// or remove whose coin flip and key are drawn independently of the
    /// contents changes them with probability one half at any density,
    /// so a share far from that means the program no longer gets fresh
    /// ops (a replayed stream, say, whose every op is a no-op).
    pub fn check_churn(&mut self, changed: u64, updates: u64) {
        const TOLERANCE: f64 = 0.05;
        let share = changed as f64 / updates.max(1) as f64;
        self.check((share - 0.5).abs() <= TOLERANCE, || {
            format!("{changed} of {updates} updates changed the data; expected about half")
        });
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// What a workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Each metric's value and the unit it was computed in.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Prefixes of the per-layer metrics this workload never calls into;
    /// they read 0.
    pub untouched: Vec<&'static str>,
    /// Extra lines for standard output (the traced run's ledger rows).
    pub lines: Vec<String>,
    /// The traced run's spans.
    pub trace: spans::Trace,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.metrics.insert(name.into(), (value, unit.to_owned()));
    }

    /// The end-to-end metrics of the untraced phase, and a log line with
    /// the sample counts and percentiles behind them (plus one for each
    /// of `extra`'s request kinds).
    pub fn set_end_to_end(
        &mut self,
        measured: &drive::PhaseOut,
        setups: &mut [f64],
        extra: &[(&str, u8)],
    ) {
        // Read before summarizing: the summaries allocate.
        self.set(
            "peak_rss_mb",
            "MB",
            stats::peak_rss_mb(measured.sample_bytes()),
        );
        let op = measured.summary(stats::OP);
        let write = measured.summary(stats::WRITE);
        self.set("setup_s", "s", stats::median(setups));
        self.set("ops_per_s", "ops/s", measured.ops_per_s());
        self.set("op_p50_us", "us", stats::ns_to_us(op.p50_ns as f64));
        self.set("write_p50_us", "us", stats::ns_to_us(write.p50_ns as f64));
        eprintln!(
            "perfbench: ops per second {:?}; setups {setups:?}",
            measured.per_second()
        );
        for (name, summary) in [("op", op), ("write", write)].into_iter().chain(
            extra
                .iter()
                .map(|&(name, mask)| (name, measured.summary(mask))),
        ) {
            eprintln!(
                "perfbench: {name} n={} p50 {:.1}us p90 {:.1}us p99 {:.1}us",
                summary.count,
                stats::ns_to_us(summary.p50_ns as f64),
                stats::ns_to_us(summary.p90_ns as f64),
                stats::ns_to_us(summary.p99_ns as f64)
            );
        }
    }

    /// CPU time and context switches per op between two boundaries.
    pub fn set_process(&mut self, before: &stats::ProcSnap, after: &stats::ProcSnap, ops: f64) {
        let cpu = after.cpu.saturating_sub(before.cpu);
        self.set("process.cpu_us_per_op", "us", cpu.as_secs_f64() * 1e6 / ops);
        self.set(
            "process.ctx_switches_per_op",
            "count",
            after.ctx_switches.saturating_sub(before.ctx_switches) as f64 / ops,
        );
    }

    /// Marks the per-layer metrics under `prefixes` as ones this
    /// workload never calls into; they are reported as 0.
    pub fn untouched(&mut self, prefixes: &[&'static str]) {
        self.untouched.extend_from_slice(prefixes);
    }

    /// Fills in 0 for every untouched metric `named` lists, then checks
    /// that the metrics are exactly the `named` ones, each computed in
    /// the unit recorded there.
    fn check_names(&mut self, named: &spec::Units) -> Result<(), String> {
        for (name, unit) in named {
            if self.untouched.iter().any(|p| name.starts_with(p)) {
                self.metrics
                    .entry(name.clone())
                    .or_insert_with(|| (0.0, unit.clone()));
            }
        }
        let printed: Vec<&String> = self.metrics.keys().collect();
        let listed: Vec<&String> = named.keys().collect();
        if printed != listed {
            return Err(format!(
                "metrics {printed:?} do not match BENCHMARK.json {listed:?}"
            ));
        }
        match self
            .metrics
            .iter()
            .find(|(name, (_, unit))| named[*name] != *unit)
        {
            Some((name, (_, unit))) => Err(format!(
                "{name} is computed in {unit:?}; BENCHMARK.json says {:?}",
                named[name]
            )),
            None => Ok(()),
        }
    }

    /// Writes the traced run's earliest spans to
    /// `perfbench/out/spans-<workload>.tsv` and logs every span name's
    /// mean self time.
    pub fn write_spans(&mut self, workload: &str) {
        const SPAN_FILE_LIMIT: usize = 100_000;
        let path = out_dir().join(format!("spans-{workload}.tsv"));
        match self.trace.write_tsv(&path, SPAN_FILE_LIMIT) {
            Ok(written) => eprintln!(
                "perfbench: {} spans recorded, the first {written} written to {}",
                self.trace.spans.len(),
                path.display()
            ),
            Err(e) => self
                .tally
                .fail(|| format!("writing {}: {e}", path.display())),
        }
        for (name, (count, self_ns)) in self.trace.self_times() {
            eprintln!(
                "perfbench: span {name}: n={count} mean self time {:.0} ns",
                self_ns as f64 / count.max(1) as f64
            );
        }
    }
}

/// A log directory inside the benchmark's own output directory, removed
/// on drop (including while a panic unwinds) and by the watchdog.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join("tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        TEMP_DIRS
            .lock()
            .expect("temp dir registry poisoned")
            .push(path.clone());
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Ok(mut dirs) = TEMP_DIRS.lock() {
            dirs.retain(|d| d != &self.0);
        }
    }
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs leave spans and temporary logs (ignored by git).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Ends the process if the run overruns its length by a wide margin, so
/// no run can hang: a stuck call fails the run instead.
fn start_watchdog(limit: Duration) {
    thread::Builder::new()
        .name("perfbench-watchdog".to_owned())
        .spawn(move || {
            thread::sleep(limit);
            eprintln!("perfbench: watchdog: run exceeded {limit:?}; failing it");
            if let Ok(dirs) = TEMP_DIRS.lock() {
                for dir in dirs.iter() {
                    let _ = fs::remove_dir_all(dir);
                }
            }
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let repo = bench_dir()
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let spec = match spec::load(&repo, &bench_dir()) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !spec.workloads.contains(&args.workload) {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload, spec.workloads
        );
        return ExitCode::from(2);
    }
    // A normal run takes a few setups plus one or two phases; four times
    // the phase length plus a minute is far beyond that, and still ends
    // within three minutes.
    start_watchdog(Duration::from_secs((4 * args.seconds + 60).min(170)));

    let run = match args.workload.as_str() {
        "kv_read_mostly" => kv::read_mostly(&args),
        "kv_write_replicated" => kv::write_replicated(&args),
        "engine_update_heavy" => engine::update_heavy(&args),
        other => Err(format!(
            "BENCHMARK.json names {other:?}, which this binary does not run"
        )),
    };
    let mut report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let named = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Err(e) = report.check_names(named) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    for note in &report.tally.notes {
        eprintln!("perfbench: FAILED: {note}");
    }
    for line in &report.lines {
        println!("{line}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            // Names and units are plain ASCII (BENCHMARK.json's rules),
            // so Rust's quoting is JSON's.
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    let correct = report.tally.failed == 0;
    eprintln!(
        "perfbench: {} seed {} done in {:.1}s",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
