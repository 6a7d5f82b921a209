//! The `grappolo` command-line binary.

#![forbid(unsafe_code)]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(grappolo_cli::run(&argv));
}
