//! # grappolo-cli
//!
//! Command-line interface for the grappolo-rs library. The subcommands, their
//! flags and the grammar they share are listed in [`args::USAGE`] (printed by
//! `grappolo --help`); [`args`] parses a command line against one flag table
//! per subcommand and [`commands`] runs it.
//!
//! `grappolo_graph::io` owns every file format: graphs (dispatched on
//! extension), `vertex community` assignments and `+`/`-`/`=` edge batches.
//! A malformed assignment or batch line is reported as `path:line: message`.
//!
//! Exit codes are typed (see [`error`]): 0 success, 1 runtime, 2 usage,
//! 3 I/O, 4 invalid input/config, 5 audit finding.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;

pub use error::CliError;

/// Entry point shared by the binary and the tests. Returns the process exit
/// code.
pub fn run(argv: &[String]) -> i32 {
    match args::parse(argv) {
        Ok(cmd) => match commands::execute(cmd) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {}", e.message());
                e.code()
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            error::EXIT_USAGE
        }
    }
}
