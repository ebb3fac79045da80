//! Span recording for the traced run.
//!
//! The benchmark times each call it makes into a layer and, in the
//! traced run only, records it as a span: name, request tag, start, end
//! and the span that caused it. Spans stay in per-thread buffers while
//! the run lasts and are written out once at the end. The untraced run
//! creates no [`Spans`] at all.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The wire tag of the request the call carried (`0` for none).
    pub tag: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Ids are unique across buffers: the thread
/// index sits in the top 16 bits.
pub struct Spans {
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    /// A buffer whose timestamps count from `origin` (shared by every
    /// buffer of the run).
    pub fn new(origin: Instant, thread: u16, capacity: usize) -> Spans {
        Spans {
            origin,
            next: u64::from(thread) << 48,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Reserves an id, for a span whose children are recorded before it.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records a span under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        tag: u8,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            id,
            parent,
            name,
            tag,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a span with a fresh id and returns the id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        tag: u8,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, parent, name, tag, start, end);
        id
    }
}

/// Every span of a run, gathered from the thread buffers.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, buf: Spans) {
        self.spans.extend(buf.spans);
    }

    /// Durations (ns) of the spans called `name`, restricted to `tag`
    /// unless it is `None`.
    pub fn durations(&self, name: &str, tag: Option<u8>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::duration_ns)
            .collect()
    }

    /// Per-name span count and self time: a span's duration minus the
    /// part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let own = s
                .duration_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        out
    }

    /// Writes the first `limit` spans, one tab-separated line each, and
    /// returns how many it wrote. (A traced run records millions; the
    /// metrics use all of them, the file is for reading a timeline.)
    pub fn write_tsv(&self, path: &Path, limit: usize) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\ttag\tstart_ns\tend_ns")?;
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.start_ns);
        spans.truncate(limit);
        for s in &spans {
            writeln!(
                out,
                "{:x}\t{:x}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
