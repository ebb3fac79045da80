//! Property tests for the wire protocol: encode→decode is the identity
//! for arbitrary messages, the v3 envelope carries its correlation id
//! both ways, and corrupted frames (truncation, bad tags, bad versions
//! — the retired version 2 included — trailing bytes) are rejected,
//! never mis-parsed.

use std::ops::Bound;

use proptest::prelude::*;

use pathcopy_concurrent::{BatchOp, BatchResult};
use pathcopy_core::DiffEntry;
use pathcopy_server::proto::{
    FeedInfo, ProtoError, Request, Response, ServerGauges, StageSummary, WireError, WireStats,
    PROTO_TRACE_FLAG, PROTO_VERSION,
};
use pathcopy_server::SpanRecord;

fn arb_opt_i64() -> impl Strategy<Value = Option<i64>> {
    (any::<bool>(), any::<i64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_bound() -> impl Strategy<Value = Bound<i64>> {
    prop_oneof![
        Just(Bound::Unbounded),
        any::<i64>().prop_map(Bound::Included),
        any::<i64>().prop_map(Bound::Excluded),
    ]
}

fn arb_batch_op() -> impl Strategy<Value = BatchOp<i64, i64>> {
    prop_oneof![
        any::<i64>().prop_map(BatchOp::Get),
        (any::<i64>(), any::<i64>()).prop_map(|(k, v)| BatchOp::Insert(k, v)),
        any::<i64>().prop_map(BatchOp::Remove),
        (any::<i64>(), arb_opt_i64(), arb_opt_i64())
            .prop_map(|(key, expected, new)| { BatchOp::Cas { key, expected, new } }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<i64>().prop_map(|key| Request::Get { key }),
        (any::<i64>(), any::<i64>()).prop_map(|(key, value)| Request::Insert { key, value }),
        any::<i64>().prop_map(|key| Request::Remove { key }),
        (any::<i64>(), arb_opt_i64(), arb_opt_i64())
            .prop_map(|(key, expected, new)| Request::Cas { key, expected, new }),
        (prop::collection::vec(arb_batch_op(), 0..17), any::<bool>())
            .prop_map(|(ops, guarded)| Request::Batch { ops, guarded }),
        Just(Request::Snapshot),
        (arb_opt_u64(), arb_bound(), (arb_bound(), any::<u32>())).prop_map(
            |(snapshot, lo, (hi, limit))| Request::Range {
                snapshot,
                lo,
                hi,
                limit
            }
        ),
        (any::<u64>(), arb_opt_u64()).prop_map(|(from, to)| Request::Diff { from, to }),
        any::<u64>().prop_map(|snapshot| Request::Release { snapshot }),
        Just(Request::Stats),
        Just(Request::Publish),
        any::<u64>().prop_map(|from| Request::PullDiff { from }),
        (arb_opt_u64(), arb_opt_i64(), any::<u32>()).prop_map(|(epoch, after, limit)| {
            Request::FullSync {
                epoch,
                after,
                limit,
            }
        }),
        any::<u64>().prop_map(|from| Request::SubscribePush { from }),
        (any::<i64>(), any::<u64>(), any::<u32>()).prop_map(|(key, min_epoch, wait_ms)| {
            Request::GetAt {
                key,
                min_epoch,
                wait_ms,
            }
        }),
        arb_batch_op().prop_map(|op| Request::WriteAt { op }),
        Just(Request::Gauges),
        Just(Request::Metrics),
        Just(Request::ResetMetrics),
        Just(Request::TraceDump),
    ]
}

fn arb_span_record() -> impl Strategy<Value = SpanRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u8>(), any::<u8>(), any::<u8>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((trace_id, span_id, parent_span), (kind, tag, flags), (epoch, start_ns, dur_ns))| {
                SpanRecord {
                    trace_id,
                    span_id,
                    parent_span,
                    kind,
                    tag,
                    flags,
                    epoch,
                    start_ns,
                    dur_ns,
                }
            },
        )
}

fn arb_stage_summary() -> impl Strategy<Value = StageSummary> {
    (
        (any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (stage, tag, count, sum),
                (p50, p90, p99),
                (p999, max),
                (exemplar_id, exemplar_trace),
            )| StageSummary {
                stage,
                tag,
                count,
                sum,
                p50,
                p90,
                p99,
                p999,
                max,
                exemplar_id,
                exemplar_trace,
            },
        )
}

fn arb_batch_result() -> impl Strategy<Value = BatchResult<i64>> {
    prop_oneof![
        arb_opt_i64().prop_map(BatchResult::Got),
        arb_opt_i64().prop_map(BatchResult::Inserted),
        arb_opt_i64().prop_map(BatchResult::Removed),
        any::<bool>().prop_map(BatchResult::Cas),
    ]
}

fn arb_diff_entry() -> impl Strategy<Value = DiffEntry<i64, i64>> {
    prop_oneof![
        (any::<i64>(), any::<i64>()).prop_map(|(k, v)| DiffEntry::Added(k, v)),
        (any::<i64>(), any::<i64>()).prop_map(|(k, v)| DiffEntry::Removed(k, v)),
        (any::<i64>(), any::<i64>(), any::<i64>())
            .prop_map(|(k, a, b)| DiffEntry::Changed(k, a, b)),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_opt_i64().prop_map(Response::Got),
        arb_opt_i64().prop_map(Response::Inserted),
        arb_opt_i64().prop_map(Response::Removed),
        any::<bool>().prop_map(Response::CasApplied),
        prop::collection::vec(arb_batch_result(), 0..17).prop_map(Response::Batch),
        any::<u64>().prop_map(Response::SnapshotTaken),
        (
            prop::collection::vec((any::<i64>(), any::<i64>()), 0..33),
            any::<bool>()
        )
            .prop_map(|(entries, complete)| Response::Entries { entries, complete }),
        prop::collection::vec(arb_diff_entry(), 0..33).prop_map(Response::Diff),
        any::<bool>().prop_map(Response::Released),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>())
        )
            .prop_map(
                |(
                    (ops, attempts, cas_failures),
                    (noop_updates, reads, frozen_installs),
                    (freeze_retries, len, snapshots),
                )| {
                    Response::Stats(WireStats {
                        ops,
                        attempts,
                        cas_failures,
                        noop_updates,
                        reads,
                        frozen_installs,
                        freeze_retries,
                        len,
                        snapshots,
                    })
                }
            ),
        any::<u64>().prop_map(|id| Response::Error(WireError::UnknownSnapshot(id))),
        Just(Response::Error(WireError::SnapshotMismatch)),
        Just(Response::Error(WireError::Malformed)),
        Just(Response::Error(WireError::TooLarge)),
        any::<u64>().prop_map(|cap| Response::Error(WireError::SnapshotLimit(cap))),
        any::<u64>().prop_map(|oldest| Response::Error(WireError::EpochRetired(oldest))),
        prop::collection::vec(any::<u32>(), 0..9).prop_map(Response::BatchAborted),
        any::<u64>().prop_map(Response::Published),
        (any::<u64>(), prop::collection::vec(arb_diff_entry(), 0..33))
            .prop_map(|(to, entries)| Response::EpochDiff { to, entries }),
        (
            any::<u64>(),
            prop::collection::vec((any::<i64>(), any::<i64>()), 0..33),
            any::<bool>()
        )
            .prop_map(|(epoch, entries, done)| Response::SyncPage {
                epoch,
                entries,
                done,
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(head, oldest, capacity)| {
            Response::SubscribeAck(FeedInfo {
                head,
                oldest,
                capacity,
            })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_diff_entry(), 0..33)
        )
            .prop_map(|(from, epoch, entries)| Response::Push {
                from,
                epoch,
                entries,
            }),
        (arb_opt_i64(), any::<u64>()).prop_map(|(value, epoch)| Response::GotAt { value, epoch }),
        (arb_batch_result(), any::<u64>())
            .prop_map(|(result, watermark)| Response::WroteAt { result, watermark }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>())
        )
            .prop_map(
                |(
                    (requests, requests_shed, open_conns),
                    (wire_sent, wire_received, subscribers),
                    (pushes, push_demotions, feed_head),
                )| {
                    Response::Gauges(ServerGauges {
                        requests,
                        requests_shed,
                        open_conns,
                        wire_sent,
                        wire_received,
                        subscribers,
                        pushes,
                        push_demotions,
                        feed_head,
                    })
                }
            ),
        any::<u64>().prop_map(|epoch| Response::Error(WireError::Stale(epoch))),
        prop::collection::vec(arb_stage_summary(), 0..9).prop_map(Response::Metrics),
        Just(Response::MetricsReset),
        (any::<u32>(), prop::collection::vec(arb_span_record(), 0..9)).prop_map(|(n, spans)| {
            Response::TraceDump {
                node: format!("node{n}"),
                spans,
            }
        }),
    ]
}

fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    req.encode(&mut body);
    body
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    resp.encode(&mut body);
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_encode_decode_is_identity(req in arb_request()) {
        let body = encode_request(&req);
        prop_assert_eq!(Request::decode(&body).expect("decode"), req);
    }

    #[test]
    fn response_encode_decode_is_identity(resp in arb_response()) {
        let body = encode_response(&resp);
        prop_assert_eq!(Response::decode(&body).expect("decode"), resp);
    }

    #[test]
    fn truncated_request_frames_never_parse(req in arb_request(), cut in 0usize..128) {
        let body = encode_request(&req);
        // Cutting anywhere strictly inside the body must fail cleanly
        // (never panic, never yield a different valid message).
        let cut = cut % body.len().max(1);
        if cut < body.len() {
            match Request::decode(&body[..cut]) {
                Err(_) => {}
                // A prefix that still parses must parse to the SAME
                // message (possible only when cut == body.len()).
                Ok(parsed) => prop_assert_eq!(parsed, req),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(req in arb_request(), extra in 1usize..8) {
        let mut body = encode_request(&req);
        body.extend(vec![0xABu8; extra]);
        prop_assert!(matches!(
            Request::decode(&body),
            Err(ProtoError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn bad_version_is_rejected(req in arb_request(), v in 0u8..=255) {
        let mut body = encode_request(&req);
        if v != PROTO_VERSION && v != (PROTO_VERSION | PROTO_TRACE_FLAG) {
            body[0] = v;
            prop_assert!(matches!(Request::decode(&body), Err(ProtoError::BadVersion(b)) if b == v));
        }
    }

    #[test]
    fn unknown_request_tags_are_rejected(tag in prop_oneof![Just(12u8), 22u8..=255], id in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut body = vec![PROTO_VERSION];
        body.extend(id.to_le_bytes());
        body.push(tag);
        body.extend(payload);
        prop_assert!(matches!(
            Request::decode(&body),
            Err(ProtoError::BadTag { .. })
        ));
    }

    #[test]
    fn unknown_response_tags_are_rejected(tag in prop_oneof![Just(14u8), 25u8..=255], id in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut body = vec![PROTO_VERSION];
        body.extend(id.to_le_bytes());
        body.push(tag);
        body.extend(payload);
        prop_assert!(matches!(
            Response::decode(&body),
            Err(ProtoError::BadTag { .. })
        ));
    }

    #[test]
    fn request_envelope_id_roundtrips(req in arb_request(), id in any::<u64>()) {
        let mut body = Vec::new();
        req.encode_with_id(id, &mut body);
        prop_assert_eq!(body[0], PROTO_VERSION);
        let framed = Request::decode_enveloped(&body).expect("decode");
        prop_assert_eq!(framed.request_id, id);
        prop_assert_eq!(framed.msg, req);
    }

    #[test]
    fn response_envelope_id_roundtrips(resp in arb_response(), id in any::<u64>()) {
        let mut body = Vec::new();
        resp.encode_with_id(id, &mut body);
        prop_assert_eq!(body[0], PROTO_VERSION);
        let framed = Response::decode_enveloped(&body).expect("decode");
        prop_assert_eq!(framed.request_id, id);
        prop_assert_eq!(framed.msg, resp);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Either outcome is fine; what matters is no panic and no UB.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}

#[test]
fn truncated_request_strict_prefixes_all_fail() {
    // The deterministic exhaustive version of the truncation property for
    // one representative of every variant family.
    let reqs = [
        Request::Batch {
            ops: vec![
                BatchOp::Insert(1, 2),
                BatchOp::Cas {
                    key: 3,
                    expected: Some(4),
                    new: None,
                },
            ],
            guarded: true,
        },
        Request::FullSync {
            epoch: Some(3),
            after: Some(9),
            limit: 16,
        },
        Request::Range {
            snapshot: Some(1),
            lo: Bound::Included(0),
            hi: Bound::Excluded(10),
            limit: 5,
        },
        Request::Diff {
            from: 7,
            to: Some(8),
        },
    ];
    for req in reqs {
        let body = encode_request(&req);
        for cut in 0..body.len() {
            assert!(
                Request::decode(&body[..cut]).is_err(),
                "{req:?} prefix {cut}/{} must fail",
                body.len()
            );
        }
    }
}
