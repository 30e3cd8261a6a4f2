//! The central correctness property (§2): the parallel engine's
//! observable behaviour equals the sequential phase-at-a-time
//! execution's, for every graph shape, module mix and thread count.
//!
//! Three regimes are compared against each other: the parallel engine
//! pipelining phases (Listings 1–2), the same engine with one phase in
//! flight at a time (§2's phase-barrier solution), and the sequential
//! oracle. All must produce identical per-vertex execution histories.

use event_correlation::core::{
    Engine, ExecutionHistory, Module, PassThrough, Sequential, SourceModule, SumModule, Workload,
};
use event_correlation::events::sources::{Bursty, Counter, Diurnal, RandomWalk, Sparse};
use event_correlation::fusion::operators::aggregate::Aggregate;
use event_correlation::fusion::operators::anomaly::ZScoreAnomaly;
use event_correlation::fusion::operators::delta::ChangeDetector;
use event_correlation::fusion::operators::moving::MovingAverage;
use event_correlation::fusion::operators::threshold::Threshold;
use event_correlation::graph::{generators, Dag, VertexId};
use proptest::prelude::*;

/// Builds a deterministic module mix for `dag`: sources get varied
/// generators, interior vertices varied operators, chosen by vertex id
/// and `mix_seed`.
fn modules_for(dag: &Dag, mix_seed: u64) -> Vec<Box<dyn Module>> {
    dag.vertices()
        .map(|v| -> Box<dyn Module> {
            let k = (v.0 as u64).wrapping_mul(2654435761).wrapping_add(mix_seed);
            if dag.is_source(v) {
                match k % 4 {
                    0 => Box::new(SourceModule::new(Counter::new())),
                    1 => Box::new(SourceModule::new(RandomWalk::new(10.0, 1.0, k))),
                    2 => Box::new(SourceModule::new(Sparse::counter(0.3, k))),
                    _ => Box::new(SourceModule::new(Diurnal::new(5.0, 2.0, 12, 0.3, k))),
                }
            } else {
                match k % 6 {
                    0 => Box::new(PassThrough),
                    1 => Box::new(SumModule),
                    2 => Box::new(MovingAverage::new(4)),
                    3 => Box::new(Aggregate::mean()),
                    4 => Box::new(ChangeDetector::new(0.5)),
                    _ => Box::new(Threshold::above(12.0)),
                }
            }
        })
        .collect()
}

fn run_sequential(dag: &Dag, mix_seed: u64, phases: u64) -> ExecutionHistory {
    let mut seq = Sequential::new(dag, modules_for(dag, mix_seed)).unwrap();
    seq.run(phases).unwrap();
    seq.into_history()
}

fn run_parallel(dag: &Dag, mix_seed: u64, phases: u64, threads: usize) -> ExecutionHistory {
    let mut engine = Engine::builder(dag.clone(), modules_for(dag, mix_seed))
        .threads(threads)
        .check_invariants(true)
        .build()
        .unwrap();
    engine.run(phases).unwrap().history.unwrap()
}

/// No pipelining: one phase in flight, so phase `p + 1` starts only
/// after every execution of phase `p` has finished.
fn run_barrier(dag: &Dag, mix_seed: u64, phases: u64, threads: usize) -> ExecutionHistory {
    let mut engine = Engine::builder(dag.clone(), modules_for(dag, mix_seed))
        .threads(threads)
        .max_inflight(1)
        .check_invariants(true)
        .build()
        .unwrap();
    engine.run(phases).unwrap().history.unwrap()
}

fn assert_all_equivalent(dag: &Dag, mix_seed: u64, phases: u64, threads: usize) {
    let seq = run_sequential(dag, mix_seed, phases);
    let par = run_parallel(dag, mix_seed, phases, threads);
    if let Err(d) = seq.equivalent(&par) {
        panic!("parallel diverged from sequential: {d}");
    }
    let bar = run_barrier(dag, mix_seed, phases, threads);
    if let Err(d) = seq.equivalent(&bar) {
        panic!("barrier diverged from sequential: {d}");
    }
}

#[test]
fn chain_all_thread_counts() {
    let dag = generators::chain(8);
    for threads in [1, 2, 4, 8] {
        assert_all_equivalent(&dag, 1, 40, threads);
    }
}

#[test]
fn diamond_and_fan() {
    assert_all_equivalent(&generators::diamond(), 2, 50, 4);
    assert_all_equivalent(&generators::fan(6, 3), 3, 50, 4);
}

#[test]
fn layered_graphs() {
    for seed in 0..4 {
        let dag = generators::layered(5, 4, 2, seed);
        assert_all_equivalent(&dag, seed, 25, 4);
    }
}

#[test]
fn binary_tree_aggregation() {
    let dag = generators::binary_in_tree(4); // 15 vertices
    assert_all_equivalent(&dag, 7, 30, 4);
}

#[test]
fn paper_figure_graphs() {
    assert_all_equivalent(&generators::fig1_graph(), 11, 40, 4);
    assert_all_equivalent(&generators::fig2_graph(), 12, 40, 4);
    assert_all_equivalent(&generators::fig3_graph(), 13, 40, 4);
}

#[test]
fn sparse_sources_exercise_absence_paths() {
    // Very sparse sources: most phases propagate nothing, so the
    // "information conveyed by absence" machinery is the common case.
    let dag = generators::layered(4, 3, 2, 9);
    let make = || -> Vec<Box<dyn Module>> {
        dag.vertices()
            .map(|v| -> Box<dyn Module> {
                if dag.is_source(v) {
                    Box::new(SourceModule::new(Sparse::counter(0.05, v.0 as u64)))
                } else {
                    Box::new(Aggregate::sum())
                }
            })
            .collect()
    };
    let mut seq = Sequential::new(&dag, make()).unwrap();
    seq.run(200).unwrap();
    let mut eng = Engine::builder(dag.clone(), make())
        .threads(8)
        .check_invariants(true)
        .build()
        .unwrap();
    let par = eng.run(200).unwrap().history.unwrap();
    assert_eq!(seq.into_history().equivalent(&par), Ok(()));
}

#[test]
fn anomaly_chain_with_heavy_compute() {
    // Workload wrappers make executions slow enough that real
    // interleaving occurs across phases.
    let dag = generators::chain(5);
    let make = || -> Vec<Box<dyn Module>> {
        vec![
            Box::new(SourceModule::new(RandomWalk::new(100.0, 5.0, 77))),
            Box::new(Workload::new(MovingAverage::new(8), 2_000)),
            Box::new(Workload::new(ChangeDetector::new(1.0), 2_000)),
            Box::new(Workload::new(ZScoreAnomaly::new(16, 2.5), 2_000)),
            Box::new(PassThrough),
        ]
    };
    let mut seq = Sequential::new(&dag, make()).unwrap();
    seq.run(60).unwrap();
    let mut eng = Engine::builder(dag.clone(), make())
        .threads(8)
        .check_invariants(true)
        .build()
        .unwrap();
    let par = eng.run(60).unwrap().history.unwrap();
    assert_eq!(seq.into_history().equivalent(&par), Ok(()));
}

#[test]
fn multiple_runs_compose() {
    // Running 3 × 10 phases must equal one 30-phase sequential run.
    let dag = generators::diamond();
    let mut seq = Sequential::new(&dag, modules_for(&dag, 5)).unwrap();
    seq.run(30).unwrap();
    let seq_hist = seq.into_history();

    let mut engine = Engine::builder(dag.clone(), modules_for(&dag, 5))
        .threads(4)
        .check_invariants(true)
        .build()
        .unwrap();
    let mut merged = ExecutionHistory::new(dag.vertex_count());
    for _ in 0..3 {
        let h = engine.run(10).unwrap().history.unwrap();
        for v in dag.vertices() {
            for (p, e) in h.of(v) {
                merged.record(v, *p, e.clone());
            }
        }
        for r in h.sink_outputs() {
            merged.record_sink(r.vertex, r.phase, r.value.clone());
        }
    }
    merged.finalize();
    assert_eq!(seq_hist.equivalent(&merged), Ok(()));
}

#[test]
fn bursty_sources_and_latest_value_memory() {
    let dag = generators::fan(4, 2);
    let make = || -> Vec<Box<dyn Module>> {
        dag.vertices()
            .map(|v| -> Box<dyn Module> {
                if dag.is_source(v) {
                    Box::new(SourceModule::new(Bursty::new(0.5, v.0 as u64 + 1)))
                } else if dag.is_sink(v) {
                    Box::new(PassThrough)
                } else {
                    Box::new(Aggregate::max())
                }
            })
            .collect()
    };
    let mut seq = Sequential::new(&dag, make()).unwrap();
    seq.run(100).unwrap();
    let mut eng = Engine::builder(dag.clone(), make())
        .threads(4)
        .check_invariants(true)
        .build()
        .unwrap();
    let par = eng.run(100).unwrap().history.unwrap();
    assert_eq!(seq.into_history().equivalent(&par), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs × module mixes × thread counts are serializable.
    #[test]
    fn random_dag_serializable(
        n in 2usize..24,
        p in 0.05f64..0.4,
        graph_seed in 0u64..1000,
        mix_seed in 0u64..1000,
        threads in 1usize..6,
    ) {
        let dag = generators::random_dag(n, p, true, graph_seed);
        let seq = run_sequential(&dag, mix_seed, 15);
        let par = run_parallel(&dag, mix_seed, 15, threads);
        prop_assert!(seq.equivalent(&par).is_ok(),
            "divergence: {:?}", seq.equivalent(&par).unwrap_err());
    }

    /// The no-pipelining regime is serializable too.
    #[test]
    fn random_dag_barrier_serializable(
        n in 2usize..20,
        graph_seed in 0u64..500,
        mix_seed in 0u64..500,
    ) {
        let dag = generators::random_dag(n, 0.2, true, graph_seed);
        let seq = run_sequential(&dag, mix_seed, 12);
        let bar = run_barrier(&dag, mix_seed, 12, 4);
        prop_assert!(seq.equivalent(&bar).is_ok());
    }

    /// Sink outputs agree as well (ordering after finalize).
    #[test]
    fn sink_outputs_agree(
        layers in 2usize..5,
        width in 1usize..4,
        mix_seed in 0u64..300,
    ) {
        let dag = generators::layered(layers, width, 2, mix_seed);
        let seq = run_sequential(&dag, mix_seed, 10);
        let par = run_parallel(&dag, mix_seed, 10, 4);
        let sv: Vec<(VertexId, u64, String)> = seq
            .sink_outputs()
            .iter()
            .map(|r| (r.vertex, r.phase.get(), r.value.to_string()))
            .collect();
        let pv: Vec<(VertexId, u64, String)> = par
            .sink_outputs()
            .iter()
            .map(|r| (r.vertex, r.phase.get(), r.value.to_string()))
            .collect();
        prop_assert_eq!(sv, pv);
    }
}
