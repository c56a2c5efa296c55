//! `dmhpc` — regenerate the paper's tables and figures from the command
//! line. `dmhpc help` lists the commands; each one is a row of
//! [`dmhpc_experiments::cli::COMMANDS`].

use dmhpc_experiments::cli::{banner, parse_args_from, progress_mode_from_opts, Failure};
use dmhpc_experiments::durable::EXIT_INTERRUPTED;
use dmhpc_experiments::runner::set_progress_mode;
use std::io::{self, Write};

fn main() {
    let args = match parse_args_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match progress_mode_from_opts(&args.opts) {
        Ok(mode) => set_progress_mode(mode),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let start = std::time::Instant::now();
    // Every command writes its results through this one locked handle.
    let mut out = io::stdout().lock();
    let result = (args.command.run)(&mut out, &args);
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => {}
        Err(Failure::StdoutClosed) => return,
        Err(Failure::Run(e)) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
        Err(Failure::Interrupted(e)) => {
            eprintln!("{e}");
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
    if let Some(line) = banner(&args, start.elapsed().as_secs_f64()) {
        eprintln!("{line}");
    }
}
