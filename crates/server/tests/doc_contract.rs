//! Keeps `docs/WIRE_PROTOCOL.md` honest: every tag number, constant,
//! and error sub-tag the document states is re-derived here from the
//! actual encoder, so the prose cannot silently drift from the code.
//!
//! The checks are deliberately structural (encode a sample message,
//! read the tag byte out of the frame, require the doc's table to pair
//! that number with that variant name) rather than golden-text — the
//! doc can be reworded freely as long as the facts stay right.

use std::ops::Bound;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_server::proto::{
    FeedInfo, ProtoError, Request, Response, ServerGauges, StageSummary, WireError, WireStats,
    MAX_FRAME_LEN, PROTO_TRACE_FLAG, PROTO_VERSION, PUSH_ID_BASE, SYNC_PAGE_MAX_ENTRIES,
};
use pathcopy_server::{SpanRecord, TraceContext};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/WIRE_PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/WIRE_PROTOCOL.md exists")
}

/// `65536` → `"65 536"`, the doc's thousands style.
fn spaced(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// The tag byte of an encoded v3 body
/// (`[version][request_id: 8 bytes][tag]...`).
fn tag_of(body: &[u8]) -> u8 {
    assert_eq!(body[0], PROTO_VERSION, "version byte leads every body");
    body[9]
}

#[test]
fn constants_quoted_in_the_doc_match_the_code() {
    let doc = doc();
    assert!(
        doc.contains(&format!("`PROTO_VERSION = {PROTO_VERSION}`")),
        "doc must quote the current protocol version"
    );
    assert!(
        doc.contains("reject any other value"),
        "doc must state that every other version byte is rejected"
    );
    let mut body = Vec::new();
    Request::Stats.encode(&mut body);
    body[0] = 2;
    assert!(
        matches!(Request::decode(&body), Err(ProtoError::BadVersion(2))),
        "the retired version 2 is one of those values"
    );
    assert_eq!(MAX_FRAME_LEN, 16 << 20, "doc states the cap as 16 MiB");
    assert!(
        doc.contains("`MAX_FRAME_LEN = 16 MiB`"),
        "doc must quote the frame cap"
    );
    assert!(
        doc.contains(&format!(
            "`SYNC_PAGE_MAX_ENTRIES = {}`",
            spaced(SYNC_PAGE_MAX_ENTRIES as u64)
        )),
        "doc must quote the sync page cap"
    );
}

#[test]
fn request_tag_table_matches_the_encoder() {
    let doc = doc();
    let samples: Vec<(&str, Request)> = vec![
        ("Get", Request::Get { key: 0 }),
        ("Insert", Request::Insert { key: 0, value: 0 }),
        ("Remove", Request::Remove { key: 0 }),
        (
            "Cas",
            Request::Cas {
                key: 0,
                expected: None,
                new: None,
            },
        ),
        (
            "Batch",
            Request::Batch {
                ops: vec![],
                guarded: false,
            },
        ),
        ("Snapshot", Request::Snapshot),
        (
            "Range",
            Request::Range {
                snapshot: None,
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                limit: 0,
            },
        ),
        ("Diff", Request::Diff { from: 0, to: None }),
        ("Release", Request::Release { snapshot: 0 }),
        ("Stats", Request::Stats),
        ("Publish", Request::Publish),
        ("Subscribe", Request::Subscribe),
        ("PullDiff", Request::PullDiff { from: 0 }),
        (
            "FullSync",
            Request::FullSync {
                epoch: None,
                after: None,
                limit: 0,
            },
        ),
        ("SubscribePush", Request::SubscribePush { from: 0 }),
        (
            "GetAt",
            Request::GetAt {
                key: 0,
                min_epoch: 0,
                wait_ms: 0,
            },
        ),
        (
            "WriteAt",
            Request::WriteAt {
                op: BatchOp::Get(0),
            },
        ),
        ("Gauges", Request::Gauges),
        ("Metrics", Request::Metrics),
        ("ResetMetrics", Request::ResetMetrics),
        ("TraceDump", Request::TraceDump),
    ];
    for (name, req) in samples {
        let mut body = Vec::new();
        req.encode(&mut body);
        let row = format!("| {} | `{name}` |", tag_of(&body));
        assert!(doc.contains(&row), "request table must contain `{row}`");
    }
}

#[test]
fn response_tag_table_matches_the_encoder() {
    let doc = doc();
    let samples: Vec<(&str, Response)> = vec![
        ("Got", Response::Got(None)),
        ("Inserted", Response::Inserted(None)),
        ("Removed", Response::Removed(None)),
        ("CasApplied", Response::CasApplied(false)),
        ("Batch", Response::Batch(vec![])),
        ("SnapshotTaken", Response::SnapshotTaken(0)),
        (
            "Entries",
            Response::Entries {
                entries: vec![],
                complete: true,
            },
        ),
        ("Diff", Response::Diff(vec![])),
        ("Released", Response::Released(false)),
        ("Stats", Response::Stats(WireStats::default())),
        ("Error", Response::Error(WireError::Malformed)),
        ("BatchAborted", Response::BatchAborted(vec![])),
        ("Published", Response::Published(0)),
        ("FeedInfo", Response::FeedInfo(FeedInfo::default())),
        (
            "EpochDiff",
            Response::EpochDiff {
                to: 0,
                entries: vec![],
            },
        ),
        (
            "SyncPage",
            Response::SyncPage {
                epoch: 0,
                entries: vec![],
                done: true,
            },
        ),
        ("SubscribeAck", Response::SubscribeAck(FeedInfo::default())),
        (
            "Push",
            Response::Push {
                from: 0,
                epoch: 0,
                entries: vec![],
            },
        ),
        (
            "GotAt",
            Response::GotAt {
                value: None,
                epoch: 0,
            },
        ),
        (
            "WroteAt",
            Response::WroteAt {
                result: BatchResult::Got(None),
                watermark: 0,
            },
        ),
        ("Gauges", Response::Gauges(ServerGauges::default())),
        ("Metrics", Response::Metrics(vec![])),
        ("MetricsReset", Response::MetricsReset),
        (
            "TraceDump",
            Response::TraceDump {
                node: String::new(),
                spans: vec![],
            },
        ),
    ];
    for (name, resp) in samples {
        let mut body = Vec::new();
        resp.encode(&mut body);
        let row = format!("| {} | `{name}` |", tag_of(&body));
        assert!(doc.contains(&row), "response table must contain `{row}`");
    }
}

#[test]
fn error_subtag_table_matches_the_encoder() {
    let doc = doc();
    let samples: Vec<(&str, WireError)> = vec![
        ("UnknownSnapshot", WireError::UnknownSnapshot(0)),
        ("SnapshotMismatch", WireError::SnapshotMismatch),
        ("Malformed", WireError::Malformed),
        ("TooLarge", WireError::TooLarge),
        ("SnapshotLimit", WireError::SnapshotLimit(0)),
        ("EpochRetired", WireError::EpochRetired(0)),
        ("Busy", WireError::Busy(0)),
        ("Stale", WireError::Stale(0)),
        ("Internal", WireError::Internal),
    ];
    for (name, err) in samples {
        let mut body = Vec::new();
        Response::Error(err).encode(&mut body);
        // [version][request_id: 8 bytes][tag 11][sub-tag]...
        let row = format!("| {} | `{name}` |", body[10]);
        assert!(doc.contains(&row), "error table must contain `{row}`");
    }
}

#[test]
fn push_id_namespace_matches_the_doc() {
    let doc = doc();
    assert_eq!(PUSH_ID_BASE, 1u64 << 63, "doc states the reserved bit");
    assert!(
        doc.contains("`PUSH_ID_BASE = 1 << 63`"),
        "doc must quote the reserved push-id base"
    );
    assert!(
        doc.contains("`request_id = PUSH_ID_BASE | E`"),
        "doc must state how push frames are stamped"
    );
    // A push frame really carries an id in the reserved namespace, and
    // the gauges the doc lists really are nine u64s (9 * 8 bytes after
    // the envelope's version + id + tag).
    let mut body = Vec::new();
    Response::Push {
        from: 1,
        epoch: 2,
        entries: vec![],
    }
    .encode_with_id(PUSH_ID_BASE | 2, &mut body);
    let id = u64::from_le_bytes(body[1..9].try_into().unwrap());
    assert_ne!(id & PUSH_ID_BASE, 0, "push ids live above the top bit");
    let mut gauges = Vec::new();
    Response::Gauges(ServerGauges::default()).encode(&mut gauges);
    assert_eq!(gauges.len(), 1 + 8 + 1 + 9 * 8, "nine u64 gauges");
}

#[test]
fn metrics_row_layout_matches_the_doc() {
    let doc = doc();
    assert!(
        doc.contains(
            "nine `u64`s: count, sum, p50, p90, p99, p999, max, exemplar_id, exemplar_trace"
        ),
        "doc must state the StageSummary field layout"
    );
    assert!(
        doc.contains("skip"),
        "doc must tell scrapers to skip unknown stage bytes"
    );
    // One row really costs 2 tag bytes + nine u64s after the envelope
    // and the vector's length prefix.
    let mut body = Vec::new();
    Response::Metrics(vec![StageSummary::default()]).encode(&mut body);
    assert_eq!(body.len(), 1 + 8 + 1 + 4 + (2 + 9 * 8), "one 74-byte row");
}

#[test]
fn traced_envelope_matches_the_doc() {
    let doc = doc();
    assert!(
        doc.contains("`PROTO_TRACE_FLAG = 0x80`"),
        "doc must quote the trace flag"
    );
    assert_eq!(PROTO_TRACE_FLAG, 0x80);
    assert!(
        doc.contains("[version: u8 = 3|0x80] [request_id: u64 LE] [trace: 17 bytes]"),
        "doc must show the traced body layout"
    );
    assert_eq!(TraceContext::WIRE_BYTES, 17, "doc states 17 trace bytes");
    // A traced body really is the plain v3 body with 17 bytes spliced
    // in after the request id, flag set on the version byte.
    let ctx = TraceContext::sampled(7);
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let req = Request::Publish;
    req.encode_traced(5, Some(&ctx), &mut traced);
    req.encode_with_id(5, &mut plain);
    assert_eq!(traced[0], PROTO_VERSION | PROTO_TRACE_FLAG);
    assert_eq!(traced.len(), plain.len() + 17);
    assert_eq!(traced[1..9], plain[1..9], "same request id");
    assert_eq!(traced[9 + 17..], plain[9..], "same tag + payload");
    // And the decoder reads the context and the same request id back.
    let framed = Request::decode_enveloped(&traced).expect("traced frame decodes");
    assert_eq!(framed.request_id, 5);
    assert_eq!(framed.trace, Some(ctx));
}

#[test]
fn trace_dump_row_layout_matches_the_doc() {
    let doc = doc();
    assert!(
        doc.contains("each span is seven `u64`s"),
        "doc must state the SpanRecord word count"
    );
    // One span costs the node-name vec (4 bytes, empty), the span
    // count, and seven u64s.
    let mut body = Vec::new();
    Response::TraceDump {
        node: String::new(),
        spans: vec![SpanRecord::default()],
    }
    .encode(&mut body);
    assert_eq!(body.len(), 1 + 8 + 1 + 4 + 4 + 7 * 8, "one 56-byte span");
}

#[test]
fn log_record_section_matches_the_durable_envelope() {
    let doc = doc();
    // The envelope the doc describes: [body_len u32][crc32 u32][body].
    assert!(doc.contains("[body_len: u32 LE] [crc32: u32 LE]"));
    assert!(doc.contains("0xEDB88320"), "doc names the CRC polynomial");
}
