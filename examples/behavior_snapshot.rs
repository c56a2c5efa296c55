//! Behavioral fingerprint of the simulator: run a grid of seeded
//! simulations (all three policies, fault profiles, both restart
//! strategies) and dump every outcome field.
//!
//! ```text
//! cargo run --release --example behavior_snapshot > snapshot.txt
//! ```
//!
//! The output is deterministic, so a diff of two snapshots proves (or
//! disproves) that a refactor preserved simulation behavior bit for
//! bit. The `sim.rs` → `sim/` decomposition behind the `MemoryPolicy`
//! trait was validated against exactly this fingerprint.

use dmhpc::core::cluster::MemoryMix;
use dmhpc::core::config::RestartStrategy;
use dmhpc::core::faults::FaultConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::SimBuilder;
use dmhpc::experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc::experiments::Scale;

fn main() {
    let mix = MemoryMix::new(4096, 16384, 0.5);
    for policy in [
        PolicySpec::Baseline,
        PolicySpec::Static,
        PolicySpec::Dynamic,
    ] {
        for seed in [0xD15A_66E6u64, 0xBEEF, 7] {
            let cfg = synthetic_system(Scale::Small, mix);
            let workload = synthetic_workload(Scale::Small, 0.5, 1.2, seed);
            let out = SimBuilder::new(cfg, workload)
                .policy(policy)
                .seed(seed)
                .run();
            println!("== {policy} seed={seed:#x}");
            println!("{out:?}");
        }
        for (name, faults) in [
            ("light", FaultConfig::light()),
            ("heavy", FaultConfig::heavy()),
        ] {
            for strategy in [
                RestartStrategy::FailRestart,
                RestartStrategy::CheckpointRestart,
            ] {
                let cfg = synthetic_system(Scale::Small, mix)
                    .with_faults(faults.with_seed(0xFA117))
                    .with_restart(strategy);
                let workload = synthetic_workload(Scale::Small, 0.5, 1.2, 0xFADE);
                let out = SimBuilder::new(cfg, workload)
                    .policy(policy)
                    .seed(0xFADE)
                    .run();
                println!("== {policy} faults={name} restart={strategy:?}");
                println!("{out:?}");
            }
        }
    }
}
