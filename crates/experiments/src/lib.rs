//! # dmhpc-experiments — regenerate every table and figure of the paper
//!
//! Each experiment of the SC-W 2023 evaluation is a module under
//! [`exp`]:
//!
//! | Paper artefact | Module | CLI command |
//! |---|---|---|
//! | Table 1 (trace sources) | [`exp::tables::table1`] | `dmhpc table1` |
//! | Table 2 (memory distribution) | [`exp::tables::table2`] | `dmhpc table2` |
//! | Table 3 (job characteristics) | [`exp::tables::table3`] | `dmhpc table3` |
//! | Table 4 (system configs) | [`exp::tables::table4`] | `dmhpc table4` |
//! | Fig. 2 (week sampling) | [`exp::fig2`] | `dmhpc fig2` |
//! | Fig. 4 (memory heatmaps) | [`exp::fig4`] | `dmhpc fig4` |
//! | Fig. 5 (throughput) | [`exp::fig5`] | `dmhpc fig5` |
//! | Fig. 6 (response-time ECDF) | [`exp::fig6`] | `dmhpc fig6` |
//! | Fig. 7 (cost–benefit) | [`exp::fig7`] | `dmhpc fig7` |
//! | Fig. 8 (overestimation) | [`exp::fig8`] | `dmhpc fig8` |
//! | Fig. 9 (min memory @95%) | [`exp::fig9`] | `dmhpc fig9` |
//! | Ablations (ours) | [`exp::ablations`] | `dmhpc ablate` |
//! | Fault sweep (ours) | [`exp::faults`] | `dmhpc fault-sweep` |
//!
//! Scales: `small` (tests/benches), `medium` (default), `full` (the
//! paper's 1024/1490-node configuration), `huge` (the 10,240-node /
//! 100k-job stress tier behind `dmhpc bench-huge`).

#![warn(missing_docs)]

pub mod bench_huge;
pub mod chart;
pub mod cli;
pub mod durable;
pub mod exp;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod sweep;
pub mod table;

pub use scale::Scale;
pub use sweep::{SweepPoint, ThroughputSweep, TraceSpec};
pub use table::TextTable;
