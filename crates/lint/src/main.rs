//! CLI entry point: `glimpse-lint check [--root PATH] [--format human|json]
//! [--bench-out PATH] [--changed-only] [--max-ms N]` and `glimpse-lint rules`.
//!
//! Exit codes: `0` clean, `1` violations found (or the `--max-ms` budget
//! exceeded), `2` usage or I/O error.

#![forbid(unsafe_code)]

use glimpse_lint::clock::Stopwatch;
use glimpse_lint::{engine, JsonReport, Report, RULES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
glimpse-lint — workspace invariant analyzer

USAGE:
    glimpse-lint check [--root PATH] [--format human|json] [--bench-out PATH]
                       [--changed-only] [--max-ms N]
    glimpse-lint rules

    --changed-only   report only violations whose span or witness chain touches
                     a file changed since the merge base (full scan outside git)
    --max-ms N       fail if the full-workspace analysis exceeds N milliseconds
                     (the CI latency budget)

Rules are documented in DESIGN.md § Enforced invariants (#enforced-invariants).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for rule in RULES {
                println!("{:4} {}", rule.id, rule.summary);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = "human".to_owned();
    let mut bench_out: Option<PathBuf> = None;
    let mut changed_only = false;
    let mut max_ms: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "--format" => format = it.next().cloned().unwrap_or_default(),
            "--bench-out" => bench_out = it.next().map(PathBuf::from),
            "--changed-only" => changed_only = true,
            "--max-ms" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) => max_ms = Some(v),
                None => {
                    eprintln!("--max-ms needs a number\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if format != "human" && format != "json" {
        eprintln!("--format must be `human` or `json`\n{USAGE}");
        return ExitCode::from(2);
    }
    let Some(root) = root.or_else(|| std::env::current_dir().ok().and_then(|d| engine::find_workspace_root(&d))) else {
        eprintln!("glimpse-lint: could not locate the workspace root (pass --root)");
        return ExitCode::from(2);
    };

    let sources = match engine::collect_workspace_sources(&root) {
        Ok(sources) => sources,
        Err(err) => {
            eprintln!("glimpse-lint: scanning {} failed: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let stopwatch = Stopwatch::start();
    let mut report = engine::check_sources(&sources);
    let wall_ms = stopwatch.elapsed_ms();

    // The full workspace is always analyzed (a change in one file can
    // create a transitive violation reported in another); --changed-only
    // narrows what is *reported* to violations touching a changed file.
    if changed_only {
        if let Some(changed) = changed_files(&root) {
            report.violations.retain(|v| {
                changed.contains(&v.file)
                    || v.witness
                        .iter()
                        .any(|hop| hop.split(':').next().is_some_and(|f| changed.contains(f)))
            });
        }
    }

    let budget_blown = match max_ms {
        Some(budget) if wall_ms > budget => {
            eprintln!("glimpse-lint: analysis took {wall_ms:.1} ms, over the {budget:.0} ms budget");
            true
        }
        _ => false,
    };
    let json = JsonReport::new(&report, wall_ms);
    if let Some(path) = &bench_out {
        let payload = serde_json::to_string_pretty(&json).unwrap_or_default() + "\n";
        if let Err(err) = glimpse_durable::atomic_write(path, payload.as_bytes()) {
            eprintln!("glimpse-lint: writing {} failed: {err}", path.display());
            return ExitCode::from(2);
        }
    }

    if format == "json" {
        println!("{}", serde_json::to_string_pretty(&json).unwrap_or_default());
    } else {
        print_human(&report, wall_ms);
    }
    if report.is_clean() && !budget_blown {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Workspace-relative paths changed since the merge base (plus uncommitted
/// and untracked files). `None` — full reporting — when git is unavailable,
/// this is not a repository, or any git invocation fails.
fn changed_files(root: &Path) -> Option<BTreeSet<String>> {
    let git = |args: &[&str]| -> Option<Vec<String>> {
        let out = std::process::Command::new("git").arg("-C").arg(root).args(args).output().ok()?;
        if !out.status.success() {
            return None;
        }
        Some(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_owned)
                .collect(),
        )
    };

    git(&["rev-parse", "--is-inside-work-tree"])?;
    // Merge base against the main line when one exists; plain HEAD otherwise
    // (then only uncommitted work counts as changed — the pre-commit case).
    let base = ["origin/main", "main"]
        .iter()
        .find_map(|upstream| git(&["merge-base", "HEAD", upstream]).and_then(|lines| lines.first().cloned()))
        .unwrap_or_else(|| "HEAD".to_owned());

    let mut changed: BTreeSet<String> = git(&["diff", "--name-only", &base])?.into_iter().collect();
    changed.extend(git(&["ls-files", "--others", "--exclude-standard"]).unwrap_or_default());
    Some(changed)
}

fn print_human(report: &Report, wall_ms: f64) {
    for v in &report.violations {
        println!("{}:{}:{}: {} {} [{}]", v.file, v.line, v.col, v.rule, v.message, v.see);
        for (i, hop) in v.witness.iter().enumerate() {
            let arrow = if i + 1 == v.witness.len() { "sink" } else { "via " };
            println!("    {arrow} {hop}");
        }
    }
    let rules: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    if report.is_clean() {
        println!(
            "glimpse-lint: OK — {} files, {} lines, 0 violations (rules {}, {} allow directives, {wall_ms:.1} ms; callgraph {} fns / {} edges, fixpoint x{})",
            report.files_scanned,
            report.lines_scanned,
            rules.join(" "),
            report.allow_directives,
            report.graph.fns,
            report.graph.edges,
            report.graph.fixpoint_iterations,
        );
    } else {
        let by_rule = report.by_rule();
        let summary: Vec<String> = by_rule
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(rule, n)| format!("{rule}={n}"))
            .collect();
        println!(
            "glimpse-lint: FAIL — {} violation(s) in {} files ({}). Each rule is documented in DESIGN.md § Enforced invariants (#enforced-invariants).",
            report.violations.len(),
            report.files_scanned,
            summary.join(", "),
        );
    }
}
