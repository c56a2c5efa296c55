//! Benchmarks of the dynamic-memory update loop: the monotone
//! trace-cursor sampler against the full-scan reference, and whole
//! stress runs on the hold fast path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dmhpc_core::cluster::MemoryMix;
use dmhpc_core::config::RestartStrategy;
use dmhpc_core::dynmem::Monitor;
use dmhpc_core::faults::FaultConfig;
use dmhpc_core::job::MemoryUsageTrace;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::SimBuilder;
use dmhpc_experiments::scenario::{dynloop_stress_workload, synthetic_system};
use dmhpc_experiments::Scale;
use std::hint::black_box;
use std::sync::Arc;

/// A dense sawtooth trace: the worst case for the full-scan sampler
/// (every sample rescans from progress 0) and the amortized-O(1) case
/// for the cursor sampler.
fn dense_trace(n: usize) -> MemoryUsageTrace {
    let points: Vec<(f64, u64)> = (0..n)
        .map(|i| {
            let p = i as f64 / n as f64;
            (p, 1024 + ((i * 7919) % 4096) as u64)
        })
        .collect();
    MemoryUsageTrace::new(points).expect("valid trace")
}

fn bench_sampler(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynloop_sampler");
    let monitor = Monitor::new(300.0).expect("monitor");
    let base = 36_000.0;
    // ~120 five-minute updates over the run, like a long HPC job.
    let samples: Vec<f64> = (0..120).map(|i| i as f64 / 120.0).collect();
    for &n in &[256usize, 4096] {
        let trace = dense_trace(n);
        g.throughput(Throughput::Elements(samples.len() as u64));
        g.bench_function(format!("full_scan_{n}pts"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &p in &samples {
                    acc ^= monitor.sample_demand(&trace, p, 1.0, base);
                }
                black_box(acc)
            })
        });
        g.bench_function(format!("cursor_{n}pts"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                let mut cursor = 0usize;
                for &p in &samples {
                    acc ^= monitor.sample_demand_at(&trace, p, 1.0, base, &mut cursor);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_update_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynloop_update_loop");
    g.sample_size(10);
    let system = synthetic_system(Scale::Small, MemoryMix::new(64 * 1024, 128 * 1024, 0.25))
        .with_restart(RestartStrategy::CheckpointRestart)
        .with_faults(FaultConfig::none());
    let workload = Arc::new(dynloop_stress_workload(Scale::Small, 0.5, 0.6, 0xD7));
    g.bench_function("fast_path", |b| {
        b.iter(|| {
            black_box(
                SimBuilder::new(system.clone(), Arc::clone(&workload))
                    .policy(PolicySpec::Dynamic)
                    .seed(0xD7)
                    .run()
                    .stats
                    .completed,
            )
        })
    });
    g.finish();
}

criterion_group!(bench_dynloop, bench_sampler, bench_update_loop);
criterion_main!(bench_dynloop);
