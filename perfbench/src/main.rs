//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result. Exit status: 0 when
//! every correctness check passed, 1 when one failed (the result line is
//! still printed, with `"correct": false`), 2 on a usage or set-up error.

use glimpse_mlkit::parallel::set_default_threads;
use glimpse_perfbench::run::{traced, untraced};
use glimpse_perfbench::workload::{named, Seeds};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let workload = match named(&args.workload) {
        Ok(w) => w,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the working directory, removed on the way out.
    let scratch = PathBuf::from(".perfbench-tmp");
    let root = scratch.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let seeds = Seeds::from_seed(args.seed);
    set_default_threads(1);
    let result = if args.trace {
        traced(&workload, seeds, args.seconds, &root)
    } else {
        untraced(&workload, seeds, args.seconds, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(&scratch);
    let output = match result {
        Ok(output) => output,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let correct = output.failures.is_empty();
    let (table, line) = match output.report.finish(output.catalogue, correct, output.attempted, output.failed) {
        Ok(rendered) => rendered,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    print!("{}", output.text);
    println!("workload {} seed {} trace {}", workload.name, args.seed, u8::from(args.trace));
    print!("{table}");
    println!("{line}");
    for failure in &output.failures {
        eprintln!("check failed: {failure}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
