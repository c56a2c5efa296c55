//! Fault-injection resilience sweep (ours, beyond the paper).
//!
//! The paper evaluates the dynamic-memory loop on a fault-free cluster.
//! This experiment injects the deterministic fault model of
//! `dmhpc_core::faults` — node crashes, pool-blade degradation, Monitor
//! sample loss and Actuator transient failures — into the stress
//! scenario (underprovisioned system, 50% large jobs, +60%
//! overestimation) and compares how the registered policies degrade. All
//! runs use Checkpoint/Restart so the work-lost vs checkpoint-credit
//! split is visible; the `none` profile doubles as a control that must
//! match the fault-free simulator bit for bit.

use crate::durable::{run_durable, DurableError, DurableOptions, Fingerprint, Journaled};
use crate::report::{decode_profile, encode_profile};
use crate::scale::Scale;
use crate::scenario::{simulate_observed, stress_system, stress_workload, BASE_SEED};
use crate::table::TextTable;
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::config::{RestartStrategy, SystemConfig};
use dmhpc_core::faults::FaultConfig;
use dmhpc_core::json::Object;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::telemetry::{Profile, TelemetrySpec};
use dmhpc_metrics::resilience::{ResilienceSample, ResilienceSummary};

/// Default fault-schedule seed (override with `--fault-seed`).
pub const FAULT_SEED: u64 = 0xFA57_5EED;

/// Seed of the stress workload every point runs (`trace-run` and
/// `report` trace the same workload).
pub const WORKLOAD_SEED: u64 = BASE_SEED ^ 0xFA;

/// Simulation seed of every point (`trace-run` and `report` default
/// `--seed` to it).
pub const SIM_SEED: u64 = BASE_SEED ^ 0xFA17;

/// The fault profiles swept by default, mildest first.
pub const PROFILES: [&str; 3] = ["none", "light", "heavy"];

/// One `(profile, policy)` point of the sweep.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Fault profile name (`none`, `light`, `heavy`).
    pub profile: String,
    /// Allocation policy simulated.
    pub policy: PolicySpec,
    /// Fabric topology the system ran on.
    pub topology: TopologySpec,
    /// Throughput in jobs/s.
    pub throughput_jps: f64,
    /// Resilience counters extracted from the run.
    pub sample: ResilienceSample,
    /// Wall-clock phase profile of this point's run. Empty unless the
    /// sweep ran with `--telemetry`; never rendered into the stdout CSV
    /// (wall-clock values would break the thread-count byte comparison)
    /// but journaled so `sweep-status` can show a phase breakdown.
    pub phases: Profile,
}

impl Journaled for FaultRow {
    fn encode(&self) -> Object {
        let mut p = Object::new();
        p.push_str("profile", &self.profile);
        p.push_str("policy", &self.policy.to_string());
        p.push_str("topology", &self.topology.to_string());
        p.push_f64_bits("throughput_jps", self.throughput_jps);
        p.push_u64("total_jobs", self.sample.total_jobs as u64);
        p.push_u64("completed", self.sample.completed as u64);
        p.push_u64("fault_kills", self.sample.fault_kills as u64);
        p.push_u64("jobs_fault_killed", self.sample.jobs_fault_killed as u64);
        p.push_f64_bits("work_lost_s", self.sample.work_lost_s);
        p.push_f64_bits("checkpoint_credit_s", self.sample.checkpoint_credit_s);
        p.push_f64_bits("pool_availability", self.sample.pool_availability);
        p.push_u64("actuator_retries", self.sample.actuator_retries as u64);
        p.push_u64(
            "actuator_escalations",
            self.sample.actuator_escalations as u64,
        );
        // Only telemetry runs carry a phase profile; plain runs journal
        // the exact pre-telemetry payload, byte for byte.
        if !self.phases.is_empty() {
            p.push_map("phases", encode_profile(&self.phases));
        }
        p
    }

    fn decode(p: &Object) -> Result<Self, String> {
        Ok(FaultRow {
            profile: p.str("profile")?.to_string(),
            policy: p
                .str("policy")?
                .parse::<PolicySpec>()
                .map_err(|e| e.to_string())?,
            topology: p
                .str("topology")?
                .parse::<TopologySpec>()
                .map_err(|e| e.to_string())?,
            throughput_jps: p.f64_bits("throughput_jps")?,
            sample: ResilienceSample {
                total_jobs: p.u64("total_jobs")? as u32,
                completed: p.u64("completed")? as u32,
                fault_kills: p.u64("fault_kills")? as u32,
                jobs_fault_killed: p.u64("jobs_fault_killed")? as u32,
                work_lost_s: p.f64_bits("work_lost_s")?,
                checkpoint_credit_s: p.f64_bits("checkpoint_credit_s")?,
                pool_availability: p.f64_bits("pool_availability")?,
                actuator_retries: p.u64("actuator_retries")? as u32,
                actuator_escalations: p.u64("actuator_escalations")? as u32,
            },
            // Rows journaled without telemetry have no phases map.
            phases: match p.map("phases") {
                Ok(map) => decode_profile(map)?,
                Err(_) => Profile::default(),
            },
        })
    }
}

/// All sweep rows, profile-major in [`PROFILES`] order.
pub struct FaultSweep {
    /// One row per `(profile, policy)`.
    pub rows: Vec<FaultRow>,
}

/// Run every profile (or only `profile`, validated up front) ×
/// `policies` × `topologies` through the durable execution layer: each
/// `(profile, policy, topology)` point is fingerprinted over the scale,
/// profile, policy spec, topology spec, and both seeds, journaled to
/// `opts.manifest` the moment it completes, and skipped on resume when
/// already journaled. Callers with no journal pass
/// [`DurableOptions::default()`]. When `telemetry` is set, every point
/// runs under the wall-clock phase profiler (its own collector — points
/// run in parallel) and the per-point profile rides the journal
/// payload.
///
/// The system is the stress system under Checkpoint/Restart, so fault
/// kills preserve checkpointed progress and the credit column is
/// meaningful.
#[allow(clippy::too_many_arguments)]
pub fn run(
    scale: Scale,
    threads: usize,
    fault_seed: u64,
    profile: Option<&str>,
    policies: &[PolicySpec],
    topologies: &[TopologySpec],
    opts: &DurableOptions,
    telemetry: Option<TelemetrySpec>,
) -> Result<FaultSweep, DurableError> {
    let profiles: Vec<&str> = match profile {
        Some(p) => {
            FaultConfig::profile(p)?; // validate the name up front
            vec![p]
        }
        None => PROFILES.to_vec(),
    };
    assert!(
        !topologies.is_empty(),
        "fault sweep needs at least one topology"
    );
    let workload = std::sync::Arc::new(stress_workload(scale, WORKLOAD_SEED));
    let total_jobs = workload.len() as u32;
    let mut tasks: Vec<(String, PolicySpec, TopologySpec, SystemConfig)> = Vec::new();
    for prof in profiles {
        let faults = FaultConfig::profile(prof)?.with_seed(fault_seed);
        for &policy in policies {
            for &topo in topologies {
                tasks.push((
                    prof.to_string(),
                    policy,
                    topo,
                    stress_system(scale)
                        .with_restart(RestartStrategy::CheckpointRestart)
                        .with_faults(faults)
                        .with_topology(topo),
                ));
            }
        }
    }
    let fps: Vec<String> = tasks
        .iter()
        .map(|(prof, policy, topo, _)| {
            Fingerprint::new("fault-point")
                .field("scale", scale.label())
                .field("profile", prof)
                .field("policy", &policy.to_string())
                .field("topology", &topo.to_string())
                .field_hex("fault_seed", fault_seed)
                .field_hex("seed", SIM_SEED)
                .finish()
        })
        .collect();
    let rows = run_durable(
        "fault-sweep",
        tasks,
        fps,
        threads,
        opts,
        |(prof, policy, topo, sys)| {
            let (out, phase_profile) =
                simulate_observed(sys.clone(), workload.clone(), *policy, SIM_SEED, telemetry);
            FaultRow {
                profile: prof.clone(),
                policy: *policy,
                topology: *topo,
                throughput_jps: out.stats.throughput_jps,
                sample: ResilienceSample {
                    total_jobs,
                    completed: out.stats.completed,
                    fault_kills: out.stats.fault_job_kills,
                    jobs_fault_killed: out.stats.jobs_fault_killed,
                    work_lost_s: out.stats.fault_work_lost_s,
                    checkpoint_credit_s: out.stats.fault_checkpoint_credit_s,
                    pool_availability: out.stats.avg_pool_availability,
                    actuator_retries: out.stats.actuator_retries,
                    actuator_escalations: out.stats.actuator_escalations,
                },
                phases: phase_profile,
            }
        },
    )?;
    Ok(FaultSweep { rows })
}

impl FaultSweep {
    /// Aggregate the rows of one profile across policies.
    pub fn summary(&self, profile: &str) -> Option<ResilienceSummary> {
        let samples: Vec<ResilienceSample> = self
            .rows
            .iter()
            .filter(|r| r.profile == profile)
            .map(|r| r.sample)
            .collect();
        ResilienceSummary::of(&samples)
    }

    /// Merge every row's wall-clock phase profile into one aggregate —
    /// the phase-time breakdown `fault-sweep --telemetry` prints to
    /// stderr. Empty when the sweep ran without telemetry.
    pub fn profile_total(&self) -> Profile {
        let mut total = Profile::default();
        for r in &self.rows {
            total.merge(&r.phases);
        }
        total
    }

    /// Render the sweep table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "profile",
            "policy",
            "topology",
            "completed",
            "throughput_jps",
            "fault_kills",
            "work_lost_h",
            "ckpt_saved",
            "pool_avail",
            "act_retries",
            "act_escal",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.profile.clone(),
                r.policy.to_string(),
                r.topology.to_string(),
                format!("{}/{}", r.sample.completed, r.sample.total_jobs),
                format!("{:.5}", r.throughput_jps),
                r.sample.fault_kills.to_string(),
                format!("{:.2}", r.sample.work_lost_s / 3600.0),
                format!("{:.0}%", r.sample.checkpoint_save_ratio() * 100.0),
                format!("{:.2}%", r.sample.pool_availability * 100.0),
                r.sample.actuator_retries.to_string(),
                r.sample.actuator_escalations.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One flat-fabric sweep with no journal and no telemetry.
    fn flat(
        threads: usize,
        fault_seed: u64,
        profile: &str,
        policies: &[PolicySpec],
    ) -> Result<FaultSweep, DurableError> {
        let opts = DurableOptions::default();
        let topologies = [TopologySpec::Flat];
        run(
            Scale::Small,
            threads,
            fault_seed,
            Some(profile),
            policies,
            &topologies,
            &opts,
            None,
        )
    }

    #[test]
    fn none_profile_is_a_clean_control() {
        let policies = PolicySpec::all_default();
        let sweep = flat(0, FAULT_SEED, "none", &policies).unwrap();
        assert_eq!(sweep.rows.len(), policies.len());
        for r in &sweep.rows {
            assert_eq!(r.sample.fault_kills, 0, "{}", r.policy);
            assert_eq!(r.sample.actuator_retries, 0, "{}", r.policy);
            assert_eq!(r.sample.pool_availability, 1.0, "{}", r.policy);
        }
        let s = sweep.summary("none").unwrap();
        assert_eq!(s.runs, policies.len());
        assert_eq!(s.total_fault_kills, 0);
    }

    #[test]
    fn sweep_is_deterministic_and_renders() {
        let policies = PolicySpec::all_default();
        let a = flat(0, 7, "heavy", &policies).unwrap();
        let b = flat(2, 7, "heavy", &policies).unwrap();
        assert_eq!(a.rows.len(), policies.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.sample, y.sample, "{} {}", x.profile, x.policy);
        }
        // Faults cost availability: the pool cannot be more available
        // than the fault-free ideal.
        for r in &a.rows {
            assert!(r.sample.pool_availability <= 1.0);
        }
        assert!(a.table().render().contains("heavy"));
    }

    #[test]
    fn telemetry_profiles_points_without_changing_outcomes() {
        let policies = [PolicySpec::Dynamic];
        let plain = flat(1, 7, "light", &policies).unwrap();
        let observed = run(
            Scale::Small,
            1,
            7,
            Some("light"),
            &policies,
            &[TopologySpec::Flat],
            &DurableOptions::default(),
            Some(TelemetrySpec::default()),
        )
        .unwrap();
        // Telemetry is observation-only: every simulated bit matches.
        assert_eq!(plain.rows.len(), observed.rows.len());
        for (a, b) in plain.rows.iter().zip(&observed.rows) {
            assert_eq!(a.sample, b.sample, "{} {}", a.profile, a.policy);
            assert_eq!(a.throughput_jps, b.throughput_jps);
        }
        // The profiler actually ran: the stress scenario schedules jobs
        // and finalizes, so those phases must have recorded spans.
        assert!(plain.profile_total().is_empty());
        let total = observed.profile_total();
        assert!(!total.is_empty());
        assert!(total.phase_calls(dmhpc_core::telemetry::Phase::Finalize) > 0);
        // And the profile survives a journal round trip on each row;
        // a payload without a topology does not decode.
        for r in &observed.rows {
            let back = FaultRow::decode(&r.encode()).unwrap();
            assert_eq!(back.phases, r.phases);
            assert_eq!(back.topology, r.topology);
            let untopologized = r.encode().to_json().replace("\"topology\"", "\"fabric\"");
            let err = FaultRow::decode(&dmhpc_core::json::parse_object(&untopologized).unwrap());
            assert_eq!(err.unwrap_err(), "missing field \"topology\"");
        }
    }

    #[test]
    fn unknown_profile_rejected() {
        let policies = PolicySpec::all_default();
        assert!(flat(1, 1, "apocalyptic", &policies).is_err());
    }
}
