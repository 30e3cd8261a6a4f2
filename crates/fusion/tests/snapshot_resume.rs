//! Snapshot/restore equivalence for every shipped operator.
//!
//! The durability contract (`ec-store`) requires that restoring an
//! operator from a state snapshot and feeding it the remaining input
//! produces exactly the emissions an uninterrupted instance produces.
//! This test drives each operator directly through its `Module`
//! interface, snapshots at *every* split point, and compares the tail
//! emissions of the restored instance against the uninterrupted run.

use ec_core::{Emission, ExecCtx, InputView, Module};
use ec_events::{Phase, StateSnapshot, Value};
use ec_fusion::models::{BoilerModel, KMeansTracker};
use ec_fusion::prelude::*;
use ec_graph::VertexId;

/// A named operator factory for the resume-equivalence sweep.
type Case = (&'static str, Box<dyn Fn() -> Box<dyn Module>>);

/// Executes one phase of a module fed by `arity` input edges.
/// `bins[i]` is the fresh message (or silence) on edge `i`; `latest`
/// mirrors the engine's per-edge latest-value memory.
fn drive(
    m: &mut dyn Module,
    phase: u64,
    latest: &mut Vec<Option<Value>>,
    bins: &[Option<Value>],
) -> Emission {
    let preds: Vec<VertexId> = (0..bins.len() as u32).map(VertexId).collect();
    let mut fresh: Vec<(VertexId, Value)> = Vec::new();
    for (i, bin) in bins.iter().enumerate() {
        if let Some(v) = bin {
            latest[i] = Some(v.clone());
            fresh.push((preds[i], v.clone()));
        }
    }
    if fresh.is_empty() {
        // The engine never executes a vertex without a fresh message.
        return Emission::Silent;
    }
    m.execute(ExecCtx {
        phase: Phase(phase),
        vertex: VertexId(99),
        inputs: InputView {
            preds: &preds,
            latest,
            fresh: &fresh,
        },
        is_source: false,
    })
}

/// For every split point: run `prefix` on a fresh instance, snapshot,
/// restore into another fresh instance, feed the suffix, and require
/// the suffix emissions to match the uninterrupted run's. Returns the
/// first divergence.
fn resume_equivalent(
    name: &str,
    make: &dyn Fn() -> Box<dyn Module>,
    rows: &[Vec<Option<Value>>],
) -> Result<(), String> {
    let arity = rows[0].len();
    let run_full = |m: &mut dyn Module| -> Vec<Emission> {
        let mut latest = vec![None; arity];
        rows.iter()
            .enumerate()
            .map(|(i, bins)| drive(m, i as u64 + 1, &mut latest, bins))
            .collect()
    };
    let mut full_instance = make();
    let full = run_full(&mut *full_instance);

    for split in 0..=rows.len() {
        let mut original = make();
        let mut latest = vec![None; arity];
        for (i, bins) in rows[..split].iter().enumerate() {
            drive(&mut *original, i as u64 + 1, &mut latest, bins);
        }
        let mut restored = make();
        match original.snapshot_state() {
            StateSnapshot::Stateless => {}
            StateSnapshot::Bytes(bytes) => restored
                .restore_state(&bytes)
                .unwrap_or_else(|e| panic!("{name}: restore failed: {e}")),
            StateSnapshot::Unsupported => panic!("{name}: operator does not support snapshots"),
        }
        // `latest` memory is restored by the engine (VertexSlot), not
        // the module; carry it over as the engine would.
        let tail: Vec<Emission> = rows[split..]
            .iter()
            .enumerate()
            .map(|(i, bins)| drive(&mut *restored, (split + i) as u64 + 1, &mut latest, bins))
            .collect();
        if full[split..] != tail[..] {
            return Err(format!(
                "{name}: tail after restore at split {split} diverges:\n  \
                 uninterrupted {:?}\n  restored      {:?}",
                &full[split..],
                tail
            ));
        }
    }
    Ok(())
}

/// Runs [`resume_equivalent`] for every case and fails naming all the
/// operators that diverge, not just the first.
fn assert_all_resume_equivalent(cases: &[Case], rows: &[Vec<Option<Value>>]) {
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(name, make)| resume_equivalent(name, make, rows).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn unary_rows(xs: &[Option<f64>]) -> Vec<Vec<Option<Value>>> {
    xs.iter().map(|x| vec![x.map(Value::Float)]).collect()
}

fn binary_rows(a: &[Option<f64>], b: &[Option<f64>]) -> Vec<Vec<Option<Value>>> {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| vec![x.map(Value::Float), y.map(Value::Float)])
        .collect()
}

/// Sums of non-dyadic floats round differently depending on the order
/// samples entered and left a window, so a restore that rebuilds running
/// sums by re-pushing samples drifts in the last bits; dyadic signals
/// like the original sweeps' cannot show that.
const NON_DYADIC: [Option<f64>; 14] = [
    Some(0.1),
    Some(0.7),
    None,
    Some(1.0 / 3.0),
    Some(2.2),
    Some(-0.3),
    None,
    Some(0.1),
    Some(0.7),
    Some(1.0 / 3.0),
    None,
    Some(2.2),
    Some(-0.3),
    Some(0.7),
];

fn unary_sweep(signal: &[Option<f64>]) {
    let cases: Vec<Case> = vec![
        ("threshold", Box::new(|| Box::new(Threshold::above(4.0)))),
        (
            "hysteresis",
            Box::new(|| Box::new(Hysteresis::new(1.0, 6.0))),
        ),
        (
            "moving-average",
            Box::new(|| Box::new(MovingAverage::new(3))),
        ),
        ("ewma", Box::new(|| Box::new(EwmaSmoother::new(0.5)))),
        (
            "zscore-anomaly",
            Box::new(|| Box::new(ZScoreAnomaly::new(4, 2.0))),
        ),
        (
            "regression-outlier",
            Box::new(|| Box::new(RegressionOutlier::new(4, 2.0))),
        ),
        (
            "change-detector",
            Box::new(|| Box::new(ChangeDetector::new(1.0))),
        ),
        ("debounce", Box::new(|| Box::new(Debounce::new(2)))),
        ("aggregate-sum", Box::new(|| Box::new(Aggregate::sum()))),
        ("aggregate-max", Box::new(|| Box::new(Aggregate::max()))),
        ("all-of", Box::new(|| Box::new(AllOf::new()))),
        ("any-of", Box::new(|| Box::new(AnyOf::new()))),
        ("true-count", Box::new(|| Box::new(TrueCount::new()))),
        (
            "rate-monitor",
            Box::new(|| Box::new(RateMonitor::new(3, 1))),
        ),
        ("kmeans", Box::new(|| Box::new(KMeansTracker::new(2, 0.1)))),
        (
            "condition",
            Box::new(|| Box::new(Condition::between(0.0, 5.0).into_module())),
        ),
    ];
    assert_all_resume_equivalent(&cases, &unary_rows(signal));
}

fn binary_sweep(a: &[Option<f64>], b: &[Option<f64>]) {
    let cases: Vec<Case> = vec![
        ("arith-sub", Box::new(|| Box::new(Arith::sub()))),
        ("arith-div", Box::new(|| Box::new(Arith::div()))),
        ("sample-hold", Box::new(|| Box::new(SampleHold::new()))),
        (
            "pair-correlation",
            Box::new(|| Box::new(PairCorrelation::new(4))),
        ),
        (
            "coincidence-join",
            Box::new(|| Box::new(CoincidenceJoin::new(2))),
        ),
        (
            "boiler",
            Box::new(|| Box::new(BoilerModel::new(20.0, 10.0, 1.0, 0.0))),
        ),
    ];
    assert_all_resume_equivalent(&cases, &binary_rows(a, b));
}

#[test]
fn unary_operators_resume_from_snapshots() {
    unary_sweep(&[
        Some(1.0),
        Some(8.0),
        None,
        Some(3.5),
        Some(3.5),
        Some(-2.0),
        None,
        Some(12.0),
        Some(0.5),
        Some(7.0),
    ]);
}

#[test]
fn binary_operators_resume_from_snapshots() {
    binary_sweep(
        &[
            Some(1.0),
            None,
            Some(4.0),
            Some(9.0),
            None,
            Some(2.0),
            Some(2.0),
            Some(11.0),
        ],
        &[
            None,
            Some(3.0),
            Some(1.0),
            None,
            Some(5.0),
            Some(5.0),
            None,
            Some(1.0),
        ],
    );
}

#[test]
fn unary_operators_resume_from_snapshots_non_dyadic() {
    unary_sweep(&NON_DYADIC);
}

#[test]
fn binary_operators_resume_from_snapshots_non_dyadic() {
    // The second stream is the first one shifted, so both windows of a
    // pairwise operator slide over non-dyadic samples out of step.
    let mut shifted = NON_DYADIC;
    shifted.rotate_left(3);
    binary_sweep(&NON_DYADIC, &shifted);
}
