//! Byte-compatibility pin for the wire framing.
//!
//! `fixtures/wire_v2.bin` holds the version-2 preamble plus one of
//! every frame type, framed by [`wire::write_frame`] and committed to
//! the repository. Two guarantees are pinned (mirroring the WAL's
//! `wal_v1.bin`):
//!
//! 1. the current encoder produces a byte-identical stream for the
//!    same frames — the framing never drifts, so clients and servers
//!    built from any revision interoperate;
//! 2. the committed bytes decode into exactly the original frames —
//!    an *old* peer's stream parsed by the *new* code yields the same
//!    protocol messages.
//!
//! If either test fails, the wire format changed: that is a protocol
//! break for every deployed producer and subscriber, and requires a
//! `WIRE_VERSION` bump plus a new `wire_v3.bin`, not a re-bless.
//!
//! To bless a deliberately new fixture:
//! `EC_BLESS_FIXTURES=1 cargo test -p ec-runtime --test wire_fixture`

use ec_events::Value;
use ec_runtime::serve::wire::{self, FlowState, Frame, Role, WireAlarm};
use std::path::PathBuf;

const FIXTURE: &str = "wire_v2.bin";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(FIXTURE)
}

/// One of every frame type, with bodies covering every `Value`
/// variant, silent bins, empty strings and empty lists — the shapes a
/// real session produces, plus the NaN bit pattern the property tests
/// skip.
fn frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            token: "s3cret".into(),
            tenant: "payments".into(),
            role: Role::Producer,
        },
        Frame::Hello {
            token: String::new(),
            tenant: "ops".into(),
            role: Role::Subscriber,
        },
        Frame::HelloOk {
            tenant: "payments".into(),
            sources: vec!["tx".into(), "refunds".into()],
        },
        Frame::Error {
            reason: "unknown tenant \"billing\"".into(),
        },
        Frame::PushBatch {
            seq: 7,
            source: 1,
            bins: vec![
                Some(Value::Float(21.5)),
                None,
                Some(Value::Int(i64::MIN)),
                Some(Value::Int(i64::MAX)),
                Some(Value::Bool(true)),
                Some(Value::text("over-limit")),
                Some(Value::text("")),
                Some(Value::vector(vec![1.0, -2.5, f64::NAN])),
                Some(Value::vector(Vec::new())),
                Some(Value::Unit),
            ],
        },
        Frame::PushBatch {
            seq: 8,
            source: 0,
            bins: Vec::new(),
        },
        Frame::PushAck {
            seq: 7,
            accepted: 9,
        },
        Frame::Seal,
        Frame::SealOk { phases: 3 },
        Frame::FlowControl {
            source: 1,
            state: FlowState::Block,
        },
        Frame::FlowControl {
            source: 1,
            state: FlowState::Open,
        },
        Frame::SubscribeAlarms,
        Frame::SubscribeOk,
        Frame::AlarmBatch {
            alarms: vec![
                WireAlarm {
                    phase: 1,
                    sink: "big".into(),
                    value: Value::Bool(false),
                },
                WireAlarm {
                    phase: 2,
                    sink: "big".into(),
                    value: Value::Float(417.25),
                },
            ],
        },
        Frame::AlarmBatch { alarms: Vec::new() },
        Frame::MetricsRequest,
        Frame::MetricsReply {
            json: "{\"name\":\"payments\",\"admitted\":42}".into(),
        },
        Frame::Shutdown,
        Frame::ShutdownOk,
        Frame::Ping { nonce: 0 },
        Frame::Ping { nonce: u64::MAX },
        Frame::Pong { nonce: 417 },
        Frame::HelloResume {
            token: "s3cret".into(),
            tenant: "payments".into(),
            session: "sess-4242-0-deadbeef".into(),
        },
        Frame::HelloResume {
            token: String::new(),
            tenant: "ops".into(),
            session: String::new(),
        },
        Frame::Goodbye {
            reason: "server draining".into(),
        },
        Frame::Goodbye {
            reason: String::new(),
        },
        Frame::Abort {
            reason: "frame crc mismatch".into(),
        },
        Frame::Abort {
            reason: String::new(),
        },
    ]
}

/// `Frame` equality that treats NaN by bits, like the WAL fixture.
fn same_frame(a: &Frame, b: &Frame) -> bool {
    match (a, b) {
        (
            Frame::PushBatch {
                seq: s1,
                source: c1,
                bins: b1,
            },
            Frame::PushBatch {
                seq: s2,
                source: c2,
                bins: b2,
            },
        ) => {
            s1 == s2
                && c1 == c2
                && b1.len() == b2.len()
                && b1.iter().zip(b2).all(|(x, y)| match (x, y) {
                    (None, None) => true,
                    (Some(u), Some(v)) => u.same_as(v),
                    _ => false,
                })
        }
        _ => a == b,
    }
}

#[test]
fn encoder_reproduces_committed_v2_bytes() {
    let mut written = Vec::new();
    wire::write_preamble(&mut written).unwrap();
    for frame in frames() {
        wire::write_frame(&mut written, &frame).unwrap();
    }
    let fixture = fixture_path();
    if std::env::var_os("EC_BLESS_FIXTURES").is_some() {
        std::fs::create_dir_all(fixture.parent().unwrap()).unwrap();
        std::fs::write(&fixture, &written).unwrap();
        panic!(
            "blessed {} — rerun without EC_BLESS_FIXTURES",
            fixture.display()
        );
    }
    let committed = std::fs::read(&fixture).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); see module docs",
            fixture.display()
        )
    });
    assert_eq!(
        written, committed,
        "wire bytes diverged from the committed {FIXTURE} fixture: the framing \
         changed, which breaks every deployed peer (bump WIRE_VERSION \
         instead of re-blessing)"
    );
}

#[test]
fn committed_v2_fixture_decodes_to_original_frames() {
    let committed = std::fs::read(fixture_path()).expect("committed fixture present");
    let mut r = std::io::Cursor::new(committed.as_slice());
    wire::read_preamble(&mut r).expect("fixture preamble is the current version");
    for (i, want) in frames().iter().enumerate() {
        let got = wire::read_frame(&mut r)
            .unwrap_or_else(|e| panic!("{FIXTURE} frame {i} failed to decode: {e}"));
        assert!(
            same_frame(&got, want),
            "{FIXTURE} frame {i}: got {got:?}, want {want:?}"
        );
    }
    assert_eq!(
        r.position() as usize,
        committed.len(),
        "{FIXTURE} has trailing bytes beyond the known frames"
    );
}
