//! Benchmarks the parallel batch executor: one full figure grid (six
//! mechanisms, one seed, worst-case attacks) run through `Executor` at
//! increasing worker counts. The `jobs=1` case is the sequential baseline;
//! the ratio between it and the multi-worker runs is the batch speedup on
//! this machine (≈ min(workers, cores, 6) on an idle multi-core box, ≈ 1×
//! on a single-core CI runner — results are byte-identical either way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coop_attacks::AttackPlan;
use coop_experiments::{Executor, Scale, SimJob};

fn bench_batch_speedup(c: &mut Criterion) {
    let jobs = SimJob::grid(Scale::Quick, &[7], |kind| {
        Some(AttackPlan::most_effective(kind, 0.2))
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut group = c.benchmark_group("batch_executor");
    group.sample_size(10);
    for workers in [1usize, 2, 4, cores]
        .iter()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
    {
        let executor = Executor::new(workers);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs={workers}")),
            &executor,
            |b, executor| b.iter(|| black_box(executor.run_sims(&jobs))),
        );
    }
    group.finish();
}

criterion_group!(batch, bench_batch_speedup);
criterion_main!(batch);
