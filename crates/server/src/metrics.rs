//! Per-stage latency tracing for the serving pipeline, and the text
//! exposition both [`crate::proto::Request::Metrics`] scrapes and
//! humans read.
//!
//! The event loop owns a [`ServerMetrics`]: one
//! [`Recorder`] per (stage, request-tag)
//! pair for the two in-process stages it can see — decode→reply-encoded
//! execute time and reply-encoded→flushed write time.
//! Components outside the event loop (the durable feed persister, push
//! replicas relaying a feed) implement [`MetricsSource`] and register
//! themselves, so one `Metrics` scrape returns the whole pipeline.
//!
//! When the server is configured with metrics disabled every recorder
//! is `Recorder::Disabled` and the per-request cost is a handful of
//! branches — no clock reads, no atomics (see the `metrics_overhead`
//! bench in `pathcopy-bench`).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pathcopy_metrics::{HistogramSnapshot, Recorder, Stage};

use crate::proto::{Request, StageSummary};

/// Per-tag histogram slots: request tags `1..=21` plus slot `0` for
/// untagged samples.
const TAG_SLOTS: usize = 22;

/// Anything that can contribute rows to a `Metrics` scrape: the durable
/// persister's fsync histogram, a push replica's apply/lag histograms,
/// or any future pipeline stage.
pub trait MetricsSource: Send + Sync {
    /// Snapshot this source's histograms as wire rows. Called on the
    /// event loop per scrape; must not block.
    fn collect(&self) -> Vec<StageSummary>;

    /// Zeroes this source's histograms
    /// ([`crate::proto::Request::ResetMetrics`]). Default: no-op, so
    /// sources that predate resettable scrapes keep compiling.
    fn reset(&self) {}
}

/// Condenses a histogram snapshot into the wire row for `stage`/`tag` —
/// the bridge [`MetricsSource`] implementations use. The snapshot's
/// exemplar (worst-sample request/trace attribution), when present,
/// rides along on the row.
#[must_use]
pub fn summarize(stage: Stage, tag: u8, snap: &HistogramSnapshot) -> StageSummary {
    let s = snap.summary();
    let (exemplar_id, exemplar_trace) =
        snap.exemplar().map_or((0, 0), |(_, id, trace)| (id, trace));
    StageSummary {
        stage: stage as u8,
        tag,
        count: s.count,
        sum: s.sum,
        p50: s.p50,
        p90: s.p90,
        p99: s.p99,
        p999: s.p999,
        max: s.max,
        exemplar_id,
        exemplar_trace,
    }
}

/// The server's stage-tracing registry: two per-tag recorder families
/// for the event loop's stages plus externally registered
/// [`MetricsSource`]s.
pub struct ServerMetrics {
    enabled: bool,
    execute: Vec<Recorder>,
    write_flush: Vec<Recorder>,
    extra: Mutex<Vec<Arc<dyn MetricsSource>>>,
}

impl ServerMetrics {
    /// Builds the registry. With `enabled = false` every recorder is
    /// [`Recorder::Disabled`] and recording is branch-only.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        let family = || -> Vec<Recorder> {
            (0..TAG_SLOTS)
                .map(|_| {
                    if enabled {
                        Recorder::enabled()
                    } else {
                        Recorder::Disabled
                    }
                })
                .collect()
        };
        ServerMetrics {
            enabled,
            execute: family(),
            write_flush: family(),
            extra: Mutex::new(Vec::new()),
        }
    }

    /// True when the event loop's recorders are live.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a request's stage clock: reads the clock only when
    /// enabled, so the disabled path stays free of clock syscalls.
    #[inline]
    pub(crate) fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn slot(family: &[Recorder], tag: u8) -> &Recorder {
        let idx = tag as usize;
        &family[if idx < TAG_SLOTS { idx } else { 0 }]
    }

    /// Execute-time recorder for a request tag.
    #[inline]
    pub(crate) fn execute(&self, tag: u8) -> &Recorder {
        Self::slot(&self.execute, tag)
    }

    /// Write/flush-time recorder for a request tag.
    #[inline]
    pub(crate) fn write_flush(&self, tag: u8) -> &Recorder {
        Self::slot(&self.write_flush, tag)
    }

    /// Adds an external histogram source to subsequent scrapes.
    pub fn register_source(&self, source: Arc<dyn MetricsSource>) {
        self.extra.lock().push(source);
    }

    /// Zeroes every histogram — the event loop's per-tag stage
    /// recorders and every registered source — so subsequent scrapes
    /// report a fresh window. Idempotent; concurrent recordings may
    /// land on either side of the wipe.
    pub fn reset_all(&self) {
        for family in [&self.execute, &self.write_flush] {
            for rec in family.iter() {
                rec.reset();
            }
        }
        for source in self.extra.lock().iter() {
            source.reset();
        }
    }

    /// Snapshots every non-empty histogram as wire rows, ascending by
    /// (stage, tag).
    #[must_use]
    pub fn report(&self) -> Vec<StageSummary> {
        let mut rows = Vec::new();
        let families = [
            (Stage::Execute, &self.execute),
            (Stage::WriteFlush, &self.write_flush),
        ];
        for (stage, family) in families {
            for (tag, rec) in family.iter().enumerate() {
                let snap = rec.snapshot();
                if !snap.is_empty() {
                    rows.push(summarize(stage, tag as u8, &snap));
                }
            }
        }
        for source in self.extra.lock().iter() {
            rows.extend(source.collect().into_iter().filter(|r| r.count > 0));
        }
        rows.sort_by_key(|r| (r.stage, r.tag));
        rows
    }
}

impl std::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMetrics")
            .field("enabled", &self.enabled)
            .field("sources", &self.extra.lock().len())
            .finish_non_exhaustive()
    }
}

/// Renders `Metrics` rows as Prometheus-style text: one `# TYPE <name>
/// summary` header per metric, then `quantile`-labelled sample lines
/// plus `_sum`/`_count`, with the request tag as a `tag` label. Metric
/// names are `pathcopy_<stage>_<unit>` (`…_ns` for latencies,
/// `…_epochs` for the watermark gap). Rows with unknown stage bytes are
/// skipped, matching the wire contract.
#[must_use]
pub fn render_text(rows: &[StageSummary]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut last_name: Option<String> = None;
    for row in rows {
        let Some(stage) = Stage::from_u8(row.stage) else {
            continue;
        };
        let name = format!("pathcopy_{}_{}", stage.as_str(), stage.unit());
        if last_name.as_deref() != Some(&name) {
            let _ = writeln!(out, "# TYPE {name} summary");
            last_name = Some(name.clone());
        }
        let tag_label = match Request::tag_name(row.tag) {
            Some(tag) => format!("tag=\"{tag}\","),
            None => String::new(),
        };
        for (q, v) in [
            ("0.5", row.p50),
            ("0.9", row.p90),
            ("0.99", row.p99),
            ("0.999", row.p999),
        ] {
            let _ = writeln!(out, "{name}{{{tag_label}quantile=\"{q}\"}} {v}");
        }
        // OpenMetrics-style exemplar on the max line: which request
        // (and trace) produced the worst sample this histogram saw.
        let exemplar = if row.exemplar_id != 0 || row.exemplar_trace != 0 {
            format!(
                " # {{request_id=\"{}\",trace_id=\"{:x}\"}} {}",
                row.exemplar_id, row.exemplar_trace, row.max
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{name}{{{tag_label}quantile=\"1\"}} {}{exemplar}",
            row.max
        );
        let bare = tag_label.trim_end_matches(',');
        if bare.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", row.sum);
            let _ = writeln!(out, "{name}_count {}", row.count);
        } else {
            let _ = writeln!(out, "{name}_sum{{{bare}}} {}", row.sum);
            let _ = writeln!(out, "{name}_count{{{bare}}} {}", row.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_reports_nothing_and_reads_no_clock() {
        let m = ServerMetrics::new(false);
        assert!(!m.is_enabled());
        assert!(m.begin().is_none());
        let t = m.execute(1).lap(m.begin(), 0, 0);
        assert!(t.is_none());
        assert!(m.report().is_empty());
    }

    #[test]
    fn enabled_registry_reports_per_stage_per_tag_rows() {
        let m = ServerMetrics::new(true);
        let t0 = m.begin();
        let t1 = m.execute(1).lap(t0, 0, 0);
        assert!(t1.is_some());
        m.execute(2).record(50);
        m.write_flush(5).record(100);

        let rows = m.report();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].stage, rows[0].tag),
            (Stage::Execute as u8, 1),
            "{rows:?}"
        );
        assert_eq!((rows[2].stage, rows[2].tag), (Stage::WriteFlush as u8, 5));
        assert!(rows
            .windows(2)
            .all(|w| (w[0].stage, w[0].tag) <= (w[1].stage, w[1].tag)));
    }

    #[test]
    fn out_of_range_tags_fold_into_slot_zero() {
        let m = ServerMetrics::new(true);
        m.execute(200).record(7);
        let rows = m.report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tag, 0);
    }

    #[test]
    fn registered_sources_contribute_rows() {
        struct Fixed;
        impl MetricsSource for Fixed {
            fn collect(&self) -> Vec<StageSummary> {
                vec![
                    StageSummary {
                        stage: Stage::AppendFsync as u8,
                        tag: 0,
                        count: 3,
                        ..StageSummary::default()
                    },
                    StageSummary::default(), // empty: must be filtered
                ]
            }
        }
        let m = ServerMetrics::new(true);
        m.register_source(Arc::new(Fixed));
        let rows = m.report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stage, Stage::AppendFsync as u8);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let rows = vec![
            StageSummary {
                stage: Stage::Execute as u8,
                tag: 1,
                count: 10,
                sum: 1000,
                p50: 90,
                p90: 150,
                p99: 200,
                p999: 210,
                max: 220,
                exemplar_id: 41,
                exemplar_trace: 0xBEEF,
            },
            StageSummary {
                stage: Stage::EpochLag as u8,
                tag: 0,
                count: 4,
                sum: 4,
                p50: 1,
                p90: 1,
                p99: 1,
                p999: 1,
                max: 1,
                exemplar_id: 0,
                exemplar_trace: 0,
            },
            StageSummary {
                stage: 250, // unknown: skipped
                ..StageSummary::default()
            },
        ];
        let text = render_text(&rows);
        assert!(text.contains("# TYPE pathcopy_execute_ns summary"));
        assert!(text.contains("pathcopy_execute_ns{tag=\"Get\",quantile=\"0.5\"} 90"));
        assert!(text.contains("pathcopy_execute_ns_count{tag=\"Get\"} 10"));
        // Exemplar rides the max line; rows without one stay bare.
        assert!(text.contains(
            "pathcopy_execute_ns{tag=\"Get\",quantile=\"1\"} 220 \
             # {request_id=\"41\",trace_id=\"beef\"} 220"
        ));
        assert!(text.contains("# TYPE pathcopy_epoch_lag_epochs summary"));
        assert!(text.contains("pathcopy_epoch_lag_epochs{quantile=\"1\"} 1\n"));
        assert!(text.contains("pathcopy_epoch_lag_epochs_count 4"));
        assert!(!text.contains("250"));
    }

    #[test]
    fn reset_all_zeroes_recorders_and_sources() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Flag(AtomicBool);
        impl MetricsSource for Flag {
            fn collect(&self) -> Vec<StageSummary> {
                vec![]
            }
            fn reset(&self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let m = ServerMetrics::new(true);
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        m.register_source(flag.clone());
        m.execute(1).record(7);
        assert_eq!(m.report().len(), 1);
        m.reset_all();
        assert!(m.report().is_empty(), "recorders must be zeroed");
        assert!(flag.0.load(Ordering::Relaxed), "sources must be reset too");
        m.reset_all(); // idempotent
        assert!(m.report().is_empty());
    }
}
