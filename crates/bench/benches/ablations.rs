//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! restart strategy, memory-update interval, lend cap, and backfill
//! depth — each as a timed run of the stress scenario, with the
//! resulting policy metrics printed once.

use criterion::{criterion_group, criterion_main, Criterion};
use dmhpc_core::cluster::MemoryMix;
use dmhpc_core::config::RestartStrategy;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::SimBuilder;
use dmhpc_experiments::exp::ablations;
use dmhpc_experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc_experiments::Scale;
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8))
}

fn bench_full_suite(c: &mut Criterion) {
    let a = ablations::run(Scale::Small, 0);
    println!("\n== Ablation suite ==\n{}", a.table().render());
    c.bench_function("ablation_suite", |b| {
        b.iter(|| black_box(ablations::run(Scale::Small, 0)))
    });
}

fn bench_restart_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("restart_strategy");
    let workload = synthetic_workload(Scale::Small, 0.5, 1.0, 77);
    for (name, strat) in [
        ("fail_restart", RestartStrategy::FailRestart),
        ("checkpoint_restart", RestartStrategy::CheckpointRestart),
    ] {
        let system = synthetic_system(Scale::Small, MemoryMix::new(64 * 1024, 128 * 1024, 0.25))
            .with_restart(strat);
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    SimBuilder::new(system.clone(), workload.clone())
                        .policy(PolicySpec::Dynamic)
                        .run()
                        .stats
                        .oom_kills,
                )
            })
        });
    }
    g.finish();
}

fn bench_update_intervals(c: &mut Criterion) {
    let mut g = c.benchmark_group("update_interval");
    let workload = synthetic_workload(Scale::Small, 0.5, 0.6, 78);
    for secs in [60.0, 300.0, 1800.0] {
        let system = synthetic_system(Scale::Small, MemoryMix::new(64 * 1024, 128 * 1024, 0.25))
            .with_update_interval(secs);
        g.bench_function(format!("{secs:.0}s"), |b| {
            b.iter(|| {
                black_box(
                    SimBuilder::new(system.clone(), workload.clone())
                        .policy(PolicySpec::Dynamic)
                        .run()
                        .stats
                        .throughput_jps,
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_full_suite, bench_restart_strategies, bench_update_intervals
}
criterion_main!(benches);
