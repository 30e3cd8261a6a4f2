//! End-to-end test of the §6 timestamp extension working *together
//! with* the engine: noisy delivery → watermark reorder buffer → phases
//! → the parallel engine, compared against feeding the engine the ground
//! truth directly.

use event_correlation::core::{Engine, Module, Sequential, SourceModule};
use event_correlation::events::reorder::{DelayModel, ReorderBuffer};
use event_correlation::events::sources::Replay;
use event_correlation::events::{Timestamp, Value};
use event_correlation::fusion::operators::moving::MovingAverage;
use event_correlation::graph::Dag;

/// Builds the ground-truth per-phase values of one sensor.
fn sensor_truth(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(17) % 997) as f64)
        .collect()
}

#[test]
fn reordered_delivery_feeds_engine_correctly() {
    const EVENTS: usize = 300;
    const PERIOD: u64 = 100; // µs between samples
    let truth = sensor_truth(EVENTS, 31);

    // Deliver with random delays < PERIOD·3, reorder with a watermark
    // that waits past the worst case, and reassemble phase batches.
    let mut model = DelayModel::uniform(0, 250, 5);
    let mut deliveries: Vec<_> = truth
        .iter()
        .enumerate()
        .map(|(i, &x)| model.deliver(Timestamp(i as u64 * PERIOD), Value::Float(x)))
        .collect();
    deliveries.sort_by_key(|e| e.arrival);

    let mut buf = ReorderBuffer::new(300);
    let mut batches = Vec::new();
    for e in deliveries {
        batches.extend(buf.advance(e.arrival));
        assert_eq!(
            buf.offer(e.generated, e.value),
            event_correlation::events::reorder::Offer::Accepted,
            "watermark waits past the max delay; nothing may be late"
        );
    }
    batches.extend(buf.flush());
    assert_eq!(batches.len(), EVENTS, "one batch per generation instant");

    // Batches arrive in timestamp order → replay them as engine phases.
    let script: Vec<Option<Value>> = batches
        .iter()
        .map(|b| {
            assert_eq!(b.values.len(), 1);
            Some(b.values[0].clone())
        })
        .collect();

    let mut dag = Dag::new();
    let src = dag.add_vertex("sensor");
    let avg = dag.add_vertex("avg");
    dag.add_edge(src, avg).unwrap();
    let make = |script: Vec<Option<Value>>| -> Vec<Box<dyn Module>> {
        vec![
            Box::new(SourceModule::new(Replay::new(script))),
            Box::new(MovingAverage::new(8)),
        ]
    };

    let mut engine = Engine::builder(dag.clone(), make(script.clone()))
        .threads(4)
        .check_invariants(true)
        .build()
        .unwrap();
    let via_network = engine.run(EVENTS as u64).unwrap().history.unwrap();

    // Ground truth: feed the engine directly, no network simulation.
    let direct_script: Vec<Option<Value>> = truth.iter().map(|&x| Some(Value::Float(x))).collect();
    let mut seq = Sequential::new(&dag, make(direct_script)).unwrap();
    seq.run(EVENTS as u64).unwrap();

    assert_eq!(
        seq.into_history().equivalent(&via_network),
        Ok(()),
        "delayed-but-reordered delivery must be invisible to the computation"
    );
}
