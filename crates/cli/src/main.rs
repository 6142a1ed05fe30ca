//! `glimpse` — command-line interface to the Glimpse reproduction.
//!
//! The subcommands and their flags are documented once, in
//! [`commands::USAGE`] (printed by `glimpse help`).

#![forbid(unsafe_code)]

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gpus") => commands::gpus(),
        Some("models") => commands::models(),
        Some("blueprint") => commands::blueprint(&args[1..]),
        Some("sheet") => commands::sheet(&args[1..]),
        Some("sweep") => commands::sweep(),
        Some("doctor") => commands::doctor(&args[1..]),
        Some("tune") => commands::tune(&args[1..]),
        Some("experiment") => commands::experiment(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `glimpse help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
