//! Micro-benchmarks of the simulator's hot paths: the event queue, job
//! placement, the memory ledger, one full simulation, and the metric
//! kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dmhpc_core::cluster::{Cluster, JobAlloc, MemoryMix};
use dmhpc_core::config::SystemConfig;
use dmhpc_core::engine::{EventKind, EventQueue, SimTime};
use dmhpc_core::job::JobId;
use dmhpc_core::policy::{place_spread_with, PlacementScratch, PolicySpec};
use dmhpc_core::sim::{SchedPassBench, SimBuilder};
use dmhpc_experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc_experiments::Scale;
use dmhpc_metrics::ecdf::Ecdf;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("push_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            // Interleaved times exercise heap reordering.
            for i in 0..n {
                let t = SimTime((i * 2_654_435_761) % 1_000_000_000);
                q.push(t, EventKind::Submit(JobId(i as u32)));
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                debug_assert!(e.time >= last);
                last = e.time;
            }
            black_box(last)
        })
    });
    g.finish();
}

/// Static-policy placement with throwaway scratch.
fn place(cluster: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
    place_spread_with(cluster, nodes, request_mb, &mut PlacementScratch::new())
}

fn busy_cluster(nodes: u32) -> Cluster {
    let cfg = SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::half_large());
    let mut c = Cluster::from_config(&cfg);
    // Occupy 70% of nodes with 48 GB jobs.
    let mut id = 0u32;
    for _ in 0..(nodes * 7 / 10) {
        if let Some(alloc) = place(&c, 1, 48 * 1024) {
            c.start_job(JobId(id), alloc, 4.0);
            id += 1;
        }
    }
    c
}

fn bench_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    for &nodes in &[256u32, 1024] {
        let cluster = busy_cluster(nodes);
        g.bench_function(format!("place_local_{nodes}"), |b| {
            b.iter(|| black_box(place(&cluster, 4, 16 * 1024)))
        });
        g.bench_function(format!("place_borrowing_{nodes}"), |b| {
            b.iter(|| black_box(place(&cluster, 4, 100 * 1024)))
        });
    }
    g.finish();
}

fn bench_sched_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_pass");
    // 1490 ≈ the paper's Grizzly cluster; 256/1024 are the synthetic
    // scales. Each iteration replays one scheduling pass on a clone of
    // the frozen high-pressure state (clone time excluded).
    for &nodes in &[256u32, 1024, 1490] {
        for (label, reference) in [("indexed", false), ("reference", true)] {
            let fixture = SchedPassBench::new(nodes, 256, 0xBE7C, reference);
            g.bench_function(format!("pass_{label}_{nodes}"), |b| {
                b.iter_batched(
                    || fixture.clone(),
                    |mut f| black_box(f.run_pass()),
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

fn bench_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger");
    g.bench_function("start_finish_roundtrip_1024", |b| {
        let cluster = busy_cluster(1024);
        let alloc = place(&cluster, 8, 100 * 1024).expect("fits");
        b.iter_batched(
            || cluster.clone(),
            |mut cl| {
                cl.start_job(JobId(9999), alloc.clone(), 6.0);
                cl.shrink_job(JobId(9999), 20 * 1024, 6.0);
                cl.finish_job(JobId(9999));
                black_box(cl.idle_count())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let system = synthetic_system(Scale::Small, MemoryMix::half_large());
    let workload = synthetic_workload(Scale::Small, 0.5, 0.6, 42);
    for policy in [
        PolicySpec::Baseline,
        PolicySpec::Static,
        PolicySpec::Dynamic,
    ] {
        g.bench_function(format!("end_to_end_{policy}"), |b| {
            b.iter(|| {
                black_box(
                    SimBuilder::new(system.clone(), workload.clone())
                        .policy(policy)
                        .run()
                        .stats
                        .completed,
                )
            })
        });
    }
    g.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    let samples: Vec<f64> = (0..100_000)
        .map(|i| ((i * 48_271) % 1_000_003) as f64)
        .collect();
    g.throughput(Throughput::Elements(samples.len() as u64));
    g.bench_function("ecdf_build_100k", |b| {
        b.iter(|| black_box(Ecdf::new(samples.clone()).unwrap()))
    });
    let e = Ecdf::new(samples).unwrap();
    g.throughput(Throughput::Elements(1));
    g.bench_function("ecdf_quantiles", |b| {
        b.iter(|| black_box((e.quantile(0.5), e.quantile(0.95), e.eval(500_000.0))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_placement,
    bench_sched_pass,
    bench_ledger,
    bench_simulation,
    bench_metrics
);
criterion_main!(benches);
