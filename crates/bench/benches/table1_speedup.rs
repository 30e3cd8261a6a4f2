//! E4 ("Table 1", the measurement of §4): speedup vs computation threads.
//!
//! The paper: "identical computations see a speedup of approximately
//! 50% when two computation threads are running, compared to the speed
//! when a single computation thread is running … we predict that as
//! long as the computations performed by the vertices take
//! significantly more time than the computations performed to maintain
//! the data structures, the speedup will be close to linear in the
//! number of processors".
//!
//! We sweep threads ∈ {1, 2, 4, 8} at two per-vertex compute costs:
//! `heavy` (compute ≫ bookkeeping — the paper's prediction regime) and
//! `light` (compute ≈ bookkeeping — where speedup collapses).
//! `perfbench/EXPERIMENTS.md` records the repo's measured form of this
//! comparison (`core.pipelining_speedup`, `core.parallel_speedup` on
//! the `engine_pipeline` graph) against the paper's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ec_bench::{fusion_modules, run_engine};
use ec_graph::generators;

const PHASES: u64 = 60;

fn bench_speedup(c: &mut Criterion) {
    // A 4-layer × 6-wide fusion graph: enough width to keep 8 workers busy.
    let dag = generators::layered(4, 6, 2, 42);

    for (label, spin) in [("heavy", 120_000u64), ("light", 500u64)] {
        let mut group = c.benchmark_group(format!("table1/{label}"));
        group.sample_size(10);
        for &threads in &[1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    b.iter(|| run_engine(&dag, fusion_modules(&dag, spin), threads, PHASES))
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_speedup);
criterion_main!(benches);
