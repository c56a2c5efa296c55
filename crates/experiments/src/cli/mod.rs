//! The `dmhpc` command line: the command table and its handlers
//! ([`commands`]), the argument grammar and usage text it drives
//! ([`args`]), and the typed readers that turn the free-form
//! `--key value` option map into policy lists, topology lists, and
//! durable-execution options ([`opts`]).
//!
//! The binary (`src/bin/dmhpc.rs`) only parses, dispatches through the
//! command's row, and maps the outcome to an exit code, so the whole
//! surface is unit tested with `cargo test -p dmhpc-experiments`.

pub mod args;
pub mod commands;
pub mod opts;

pub use args::{parse_args_from, usage, Args};
pub use commands::{banner, command, Command, Failure, ScaleUse, COMMANDS};
pub use opts::{
    durable_from_opts, opt_parse, policies_from_opts, progress_mode_from_opts, telemetry_from_opts,
    topologies_from_opts, CommonRunOpts, OptMap,
};
