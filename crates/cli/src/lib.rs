//! # grappolo-cli
//!
//! Command-line interface for the grappolo-rs library:
//!
//! ```text
//! grappolo generate <input-id|generator> [--scale F] [--seed N] -o FILE
//! grappolo stats    <graph-file>
//! grappolo detect   <graph-file> [--scheme S] [--threads N] [--gamma F]
//!                   [--assignments FILE] [--trace FILE]
//! grappolo serve    <graph-file> [--addr A] [--server-threads N] …
//! grappolo query    --addr A [--script FILE] [command…]
//! grappolo color    <graph-file> [--balanced]
//! grappolo compare  <assignments-a> <assignments-b>
//! grappolo convert  <in-file> <out-file>
//! ```
//!
//! Graph formats are dispatched on extension (`.edges`/`.txt`,
//! `.graph`/`.metis`, `.grb`); assignment files are one `vertex community`
//! pair per line.
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
