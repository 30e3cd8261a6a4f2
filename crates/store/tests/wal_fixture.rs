//! Byte-compatibility pin for the WAL framing.
//!
//! `fixtures/wal_v1.bin` was written by the group-commit staging path
//! *before* the zero-copy scratch-buffer rework and is committed to the
//! repository. Two guarantees are pinned here:
//!
//! 1. the current writer, staging the same epochs, produces a
//!    byte-identical file — the framing never drifts, so stores written
//!    by any revision restore under any other;
//! 2. the committed fixture, installed as segment 1 of a store,
//!    replays through the `Recovery` loader exactly — a segment written
//!    by *old* code, opened by the *new* code, yields the same rows,
//!    tail state and resume point.
//!
//! If this test fails, the on-disk format changed: that is a recovery
//! break for every existing store, not a refactor detail.

use ec_events::Value;
use ec_store::{read_wal, Recovery, WalTail, WalWriter};
use std::path::PathBuf;

const FIXTURE: &str = "fixtures/wal_v1.bin";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(FIXTURE)
}

fn fixture_sources() -> Vec<String> {
    vec!["temp".into(), "pressure".into(), "alerts".into()]
}

/// Rows covering every `Value` variant, silent bins, and an empty
/// epoch, staged across several group commits (two epochs of three
/// rows, one of one) — the exact shapes the runtime's seal produces.
fn fixture_epochs() -> Vec<Vec<Vec<Option<Value>>>> {
    vec![
        vec![
            vec![Some(Value::Float(21.5)), Some(Value::Int(101325)), None],
            vec![
                Some(Value::Float(-3.25)),
                None,
                Some(Value::text("over-limit")),
            ],
            vec![None, None, None],
        ],
        vec![
            vec![
                Some(Value::vector(vec![1.0, -2.5, f64::NAN])),
                Some(Value::Bool(true)),
                Some(Value::Unit),
            ],
            vec![None, Some(Value::Float(99.875)), Some(Value::text(""))],
            vec![Some(Value::Int(i64::MIN)), Some(Value::Int(i64::MAX)), None],
        ],
        vec![vec![
            None,
            Some(Value::Bool(false)),
            Some(Value::vector(Vec::new())),
        ]],
    ]
}

fn write_store(dir: &std::path::Path) {
    let mut w = WalWriter::create(dir, &fixture_sources()).unwrap();
    for epoch in fixture_epochs() {
        for row in &epoch {
            w.stage_row(row);
        }
        w.commit().unwrap();
    }
    w.sync().unwrap();
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ec-store-fixture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn staging_path_reproduces_committed_fixture_bytes() {
    let dir = test_dir("write");
    write_store(&dir);
    let written = std::fs::read(ec_store::segment_path(&dir, 1)).unwrap();

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
        "WAL bytes diverged from the committed v1 fixture: the on-disk \
         framing changed, which breaks recovery of existing stores"
    );
}

#[test]
fn committed_fixture_replays_under_recovery_loader() {
    // Install the committed fixture as the first (and only) segment of
    // a fresh store and open it the way a restored runtime would.
    let dir = test_dir("replay");
    drop(WalWriter::create(&dir, &fixture_sources()).unwrap());
    std::fs::copy(fixture_path(), ec_store::segment_path(&dir, 1)).unwrap();

    let expected_rows: Vec<Vec<Option<Value>>> = fixture_epochs().into_iter().flatten().collect();

    let contents = read_wal(&dir).unwrap();
    assert_eq!(contents.sources, fixture_sources());
    assert_eq!(contents.tail, WalTail::Clean);
    assert_eq!(contents.rows.len(), expected_rows.len());
    for (got, want) in contents.rows.iter().zip(&expected_rows) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            // NaN round-trips by bits; PartialEq would reject it.
            match (g, w) {
                (Some(gv), Some(wv)) => assert!(gv.same_as(wv), "got {gv:?}, want {wv:?}"),
                (None, None) => {}
                _ => panic!("bin mismatch: got {g:?}, want {w:?}"),
            }
        }
    }

    let rec = Recovery::open(&dir).unwrap();
    assert_eq!(rec.committed_phases(), expected_rows.len() as u64);
    assert_eq!(rec.resume_phase(), expected_rows.len() as u64 + 1);
    assert_eq!(rec.tail_rows().len(), expected_rows.len());

    // And the store stays appendable: resuming over the fixture's clean
    // tail then appending keeps the log valid.
    let mut w = rec.append_writer().unwrap();
    w.append_row(&[Some(Value::Int(7)), None, None]).unwrap();
    let contents = read_wal(&dir).unwrap();
    assert_eq!(contents.rows.len(), expected_rows.len() + 1);
    assert_eq!(contents.tail, WalTail::Clean);
}
