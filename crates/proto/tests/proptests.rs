//! Property tests for the wire layer: arbitrary protocol values must
//! round-trip bit-for-bit through serde JSON *and* through the framed
//! [`Connection`] over an in-memory stream, malformed/oversized garbage
//! must never wedge a connection, and [`RejectReason`] names must stay
//! snake_case-stable (they are the contract admission-control tests
//! assert on).

use std::io::{Cursor, Read, Write};

use goc_analysis::ensemble::EnsembleSpec;
use goc_learning::SchedulerKind;
use goc_proto::{
    Connection, ExperimentRequest, ProtoError, RejectReason, ReportPayload, Request,
    RequestEnvelope, Response, ResponseEnvelope, ServerStatus, PROTOCOL_VERSION,
};
use goc_telemetry::{with_label, MetricsSnapshot, Registry};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// An in-memory `Read + Write` double mirroring the connection unit
/// tests: reads from a script, logs writes.
struct Duplex {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Duplex {
    fn scripted(input: &[u8]) -> Self {
        Duplex {
            input: Cursor::new(input.to_vec()),
            output: Vec::new(),
        }
    }
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Experiment names a remote caller might send — registry hits and
/// misses alike; the wire layer must not care.
const NAMES: [&str; 6] = ["fig1", "prop1", "ensemble", "serve", "no_such", "x"];

const SCHEDULERS: [SchedulerKind; 6] = [
    SchedulerKind::RoundRobin,
    SchedulerKind::UniformRandom,
    SchedulerKind::MaxGain,
    SchedulerKind::MinGain,
    SchedulerKind::LargestMinerFirst,
    SchedulerKind::SmallestMinerFirst,
];

const REASONS: [RejectReason; 12] = [
    RejectReason::VersionMismatch,
    RejectReason::SessionLimit,
    RejectReason::InFlightLimit,
    RejectReason::SessionBudgetExhausted,
    RejectReason::ReplicaCap,
    RejectReason::PopulationCap,
    RejectReason::SweepCap,
    RejectReason::UnknownExperiment,
    RejectReason::InvalidRequest,
    RejectReason::Draining,
    RejectReason::MalformedFrame,
    RejectReason::FrameTooLarge,
];

/// `Option<T>` strategy (the vendored proptest has no `option::of`).
fn opt<S: Strategy + 'static>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some).boxed()].boxed()
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    (0usize..SCHEDULERS.len()).prop_map(|i| SCHEDULERS[i])
}

fn arb_reason() -> impl Strategy<Value = RejectReason> {
    (0usize..REASONS.len()).prop_map(|i| REASONS[i])
}

fn arb_experiment_request() -> impl Strategy<Value = ExperimentRequest> {
    (
        (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string()),
        opt(0u64..1_000_000),
        opt(prop_oneof![Just(false), Just(true)]),
        opt(arb_scheduler()),
        opt(0u32..=100),
        opt(1usize..4096),
    )
        .prop_map(
            |(experiment, seed, quick, scheduler, turnover_pct, replicas)| ExperimentRequest {
                experiment,
                seed,
                quick,
                scheduler,
                turnover_pct,
                replicas,
            },
        )
}

fn arb_spec() -> impl Strategy<Value = EnsembleSpec> {
    (
        1usize..100_000,
        1usize..256,
        0u64..u64::MAX,
        opt(arb_scheduler()),
        opt(1u32..=100),
    )
        .prop_map(|(miners, replicas, seed, scheduler, churn)| {
            let mut spec = EnsembleSpec::new(miners, replicas, seed);
            if let Some(kind) = scheduler {
                spec = spec.with_scheduler(kind);
            }
            if let Some(pct) = churn {
                spec = spec.with_churn(pct);
            }
            spec
        })
}

/// Arbitrary registry states, built through the real instruments so the
/// snapshots carry genuine histogram bucket shapes (and labeled counter
/// names, the server's rejection spelling).
fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        0u64..10_000,
        -64i64..64,
        arb_reason(),
        proptest::collection::vec(1u32..1_000_000, 0..8),
    )
        .prop_map(|(served, inflight, reason, observations)| {
            let registry = Registry::new();
            registry.counter("goc_server_served_total").add(served);
            registry
                .counter(&with_label(
                    "goc_server_rejected_total",
                    "reason",
                    reason.name(),
                ))
                .inc();
            registry.gauge("goc_server_inflight").set(inflight);
            let hist = registry.histogram(&with_label("goc_server_request_secs", "kind", "status"));
            for micros in observations {
                hist.observe(f64::from(micros) * 1e-6);
            }
            registry.snapshot()
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Status),
        Just(Request::Metrics),
        Just(Request::Shutdown),
        arb_experiment_request()
            .prop_map(Request::RunExperiment)
            .boxed(),
        arb_spec()
            .prop_map(|spec| Request::RunEnsemble { spec })
            .boxed(),
        proptest::collection::vec(arb_experiment_request(), 0..5)
            .prop_map(|runs| Request::Sweep { runs })
            .boxed(),
    ]
}

fn arb_status() -> impl Strategy<Value = ServerStatus> {
    (
        0usize..64,
        0usize..64,
        0u64..10_000,
        0u64..10_000,
        prop_oneof![Just(false), Just(true)],
        ((1usize..64, 1usize..64), opt(arb_metrics())),
    )
        .prop_map(
            |(
                sessions,
                inflight,
                served,
                rejected,
                draining,
                ((max_sessions, max_inflight), metrics),
            )| {
                ServerStatus {
                    version: PROTOCOL_VERSION,
                    sessions,
                    inflight,
                    served,
                    rejected,
                    draining,
                    max_sessions,
                    max_inflight,
                    metrics,
                }
            },
        )
}

/// Detail strings exercise escaping-relevant characters; heavyweight
/// report payloads (`Experiment`/`Ensemble`/`Sweep`) are covered by the
/// end-to-end `serve` experiment, so the wire proptests stick to the
/// payloads whose values the protocol itself constructs.
fn arb_detail() -> impl Strategy<Value = String> {
    const DETAILS: [&str; 5] = [
        "",
        "limit 4 reached",
        "quoted \"detail\" with \\ backslash",
        "newline\nand\ttab",
        "unicode: ≥ 1 session — refusé",
    ];
    (0usize..DETAILS.len()).prop_map(|i| DETAILS[i].to_string())
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Accepted),
        (0usize..100, 0usize..100)
            .prop_map(|(done, total)| Response::Progress { done, total })
            .boxed(),
        arb_status()
            .prop_map(|s| Response::Report(ReportPayload::Status(s)))
            .boxed(),
        arb_metrics()
            .prop_map(|snapshot| {
                Response::Report(ReportPayload::Metrics {
                    text: snapshot.render_text(),
                    snapshot,
                })
            })
            .boxed(),
        Just(Response::Report(ReportPayload::ShutdownAck)),
        (arb_reason(), arb_detail())
            .prop_map(|(reason, detail)| Response::Rejected { reason, detail })
            .boxed(),
        arb_detail()
            .prop_map(|detail| Response::Error { detail })
            .boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_envelopes_round_trip_through_json(id in 0u64..u64::MAX, request in arb_request()) {
        let envelope = RequestEnvelope::new(id, request);
        let json = serde_json::to_string(&envelope).expect("requests serialize");
        let back: RequestEnvelope = serde_json::from_str(&json).expect("requests parse back");
        prop_assert_eq!(&back, &envelope);
        prop_assert!(back.check_version().is_ok());
    }

    #[test]
    fn response_envelopes_round_trip_through_json(id in 0u64..u64::MAX, response in arb_response()) {
        let envelope = ResponseEnvelope::new(id, response);
        let json = serde_json::to_string(&envelope).expect("responses serialize");
        let back: ResponseEnvelope = serde_json::from_str(&json).expect("responses parse back");
        prop_assert_eq!(back, envelope);
    }

    #[test]
    fn framed_request_streams_round_trip(
        requests in proptest::collection::vec(arb_request(), 1..6),
    ) {
        // Write every envelope through one Connection, then read the
        // byte stream back through another: same frames, same order,
        // then a clean EOF.
        let mut writer = Connection::new(Duplex::scripted(b""));
        let envelopes: Vec<RequestEnvelope> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| RequestEnvelope::new(i as u64, request))
            .collect();
        for envelope in &envelopes {
            writer.send_request(envelope).expect("frames fit the default cap");
        }
        let written = writer.into_inner().output;
        prop_assert_eq!(written.last(), Some(&b'\n'));

        let mut reader = Connection::new(Duplex::scripted(&written));
        for envelope in &envelopes {
            prop_assert_eq!(&reader.recv_request().expect("frame parses"), envelope);
        }
        prop_assert!(matches!(reader.recv_request().unwrap_err(), ProtoError::Closed));
    }

    #[test]
    fn framed_response_streams_round_trip(
        responses in proptest::collection::vec(arb_response(), 1..6),
        id in 0u64..1000,
    ) {
        let mut writer = Connection::new(Duplex::scripted(b""));
        let envelopes: Vec<ResponseEnvelope> = responses
            .into_iter()
            .map(|response| ResponseEnvelope::new(id, response))
            .collect();
        for envelope in &envelopes {
            writer.send_response(envelope).expect("frames fit the default cap");
        }
        let written = writer.into_inner().output;

        let mut reader = Connection::new(Duplex::scripted(&written));
        for envelope in &envelopes {
            prop_assert_eq!(&reader.recv_response().expect("frame parses"), envelope);
        }
        prop_assert!(matches!(reader.recv_response().unwrap_err(), ProtoError::Closed));
    }

    #[test]
    fn garbage_lines_never_wedge_the_connection(
        garbage_len in 0usize..200,
        request in arb_request(),
    ) {
        // A line of `!`s is never valid JSON; the reader must name the
        // fault, consume exactly that line, and parse the next frame.
        let envelope = RequestEnvelope::new(7, request);
        let mut bytes = vec![b'!'; garbage_len];
        bytes.push(b'\n');
        bytes.extend_from_slice(&serde_json::to_vec(&envelope).expect("serializes"));
        bytes.push(b'\n');

        let mut conn = Connection::new(Duplex::scripted(&bytes));
        let err = conn.recv_request().unwrap_err();
        prop_assert!(matches!(err, ProtoError::Malformed { .. }), "got {err}");
        prop_assert!(err.is_recoverable());
        prop_assert_eq!(conn.recv_request().expect("stream recovered"), envelope);
    }

    #[test]
    fn oversized_lines_never_wedge_the_connection(
        cap in 64usize..512,
        overshoot in 1usize..4096,
        request in arb_request(),
    ) {
        let envelope = RequestEnvelope::new(11, request);
        let envelope_bytes = serde_json::to_vec(&envelope).expect("serializes");
        prop_assume!(envelope_bytes.len() <= cap);

        let mut bytes = vec![b'z'; cap + overshoot];
        bytes.push(b'\n');
        bytes.extend_from_slice(&envelope_bytes);
        bytes.push(b'\n');

        let mut conn = Connection::with_max_frame(Duplex::scripted(&bytes), cap);
        let err = conn.recv_request().unwrap_err();
        prop_assert_eq!(err.clone(), ProtoError::FrameTooLarge { limit: cap });
        prop_assert!(err.is_recoverable());
        prop_assert_eq!(conn.recv_request().expect("stream recovered"), envelope);
    }

    #[test]
    fn nesting_deeper_than_128_is_malformed_and_never_wedges(
        depth in 96usize..192,
        shape in 0u64..u64::MAX,
        request in arb_request(),
    ) {
        // A frame nested past the parser's depth cap (serde_json's
        // recursion limit, 128) is one named fault; the stream goes on.
        let envelope = RequestEnvelope::new(13, request);
        let mut bytes = nested(depth, shape).into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(&serde_json::to_vec(&envelope).expect("serializes"));
        bytes.push(b'\n');

        let parsed = serde_json::from_str::<serde_json::Value>(&nested(depth, shape));
        prop_assert_eq!(parsed.is_ok(), depth <= 128, "depth {}", depth);
        let mut conn = Connection::new(Duplex::scripted(&bytes));
        let err = conn.recv_request().unwrap_err();
        prop_assert!(matches!(err, ProtoError::Malformed { .. }), "got {err}");
        if depth > 128 {
            prop_assert!(err.to_string().contains("recursion limit"), "got {err}");
        }
        prop_assert_eq!(conn.recv_request().expect("stream recovered"), envelope);
    }

    #[test]
    fn reject_reason_names_stay_snake_case(reason in arb_reason()) {
        let name = reason.name();
        prop_assert!(!name.is_empty());
        prop_assert!(
            name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
            "{name} is not snake_case"
        );
        prop_assert_eq!(reason.to_string(), name);
        // The serde form round-trips too (it is the CamelCase variant
        // name, distinct from the snake_case display name).
        let json = serde_json::to_string(&reason).expect("reasons serialize");
        let back: RejectReason = serde_json::from_str(&json).expect("reasons parse back");
        prop_assert_eq!(back, reason);
    }
}

/// A JSON value nested `depth` containers deep; bit `i % 64` of `shape`
/// picks an array or an object for level `i`.
fn nested(depth: usize, shape: u64) -> String {
    let arrays: Vec<bool> = (0..depth).map(|i| shape >> (i % 64) & 1 == 0).collect();
    let mut text = String::new();
    for &array in &arrays {
        text.push_str(if array { "[" } else { "{\"k\":" });
    }
    text.push('0');
    for &array in arrays.iter().rev() {
        text.push(if array { ']' } else { '}' });
    }
    text
}

/// The parser accepts exactly 128 levels of nesting, arrays and objects
/// alike, and names the 129th.
#[test]
fn nesting_depth_128_parses_and_129_errors() {
    for shape in [0, u64::MAX, 0x5555_5555_5555_5555] {
        assert!(serde_json::from_str::<serde_json::Value>(&nested(128, shape)).is_ok());
        let err = serde_json::from_str::<serde_json::Value>(&nested(129, shape)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}

/// The 12 reason names are pairwise distinct — a collision would make
/// two admission faults indistinguishable on the wire.
#[test]
fn reject_reason_names_are_unique() {
    let mut names: Vec<&str> = REASONS.iter().map(|r| r.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), REASONS.len());
}
