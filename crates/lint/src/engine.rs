//! Walks the workspace, runs every lexical rule over every first-party
//! source file, builds the call graph, propagates the effect lattice to a
//! fixpoint, runs the transitive rules, and assembles a deterministic
//! [`Report`]. Every run analyses every file from source: the whole
//! workspace takes well under the CI's 500 ms budget, so there is nothing
//! to cache.

use crate::callgraph::CallGraph;
use crate::effects;
use crate::parser;
use crate::rules::{self, Violation, RULES};
use crate::source::SourceFile;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Call-graph and fixpoint statistics for one analysis pass.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct GraphStats {
    /// Fn definitions in the graph.
    pub fns: usize,
    /// Call edges (deduplicated).
    pub edges: usize,
    /// Call sites bound to at least one definition.
    pub resolved_calls: usize,
    /// Call sites left unbound (std / vendored deps).
    pub unresolved_calls: usize,
    /// Fixpoint rounds until quiescence.
    pub fixpoint_iterations: usize,
}

/// Result of one full analysis pass.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Source files analyzed.
    pub files_scanned: usize,
    /// Total lines across them.
    pub lines_scanned: usize,
    /// Well-formed `lint:allow` directives encountered.
    pub allow_directives: usize,
    /// All violations, ordered by `(file, line, col, rule)`.
    pub violations: Vec<Violation>,
    /// Call-graph / fixpoint statistics.
    pub graph: GraphStats,
}

impl Report {
    /// Violation counts per rule, including zero entries for clean rules —
    /// the coverage trajectory `BENCH_lint.json` tracks.
    #[must_use]
    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = RULES.iter().map(|r| (r.id, 0)).collect();
        for v in &self.violations {
            *counts.entry(v.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Whether the workspace satisfies every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects `crates/*/src/**/*.rs` under `root`, sorted for determinism.
/// Returns `(workspace-relative path, contents)` pairs.
///
/// # Errors
///
/// Returns any I/O error from walking the tree or reading a file.
pub fn collect_workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let path = entry?.path();
        if path.is_dir() {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        out.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(out)
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule — lexical and transitive — over pre-collected
/// `(relative path, contents)` pairs. Pure function of its input — the
/// golden-fixture tests drive it directly.
#[must_use]
pub fn check_sources(sources: &[(String, String)]) -> Report {
    let mut facts = Vec::with_capacity(sources.len());
    let mut violations = Vec::new();
    let mut lines_scanned = 0usize;
    let mut allow_directives = 0usize;

    for (rel, text) in sources {
        let file = SourceFile::new(rel, text.clone());
        lines_scanned += file.line_starts.len();
        allow_directives += file.allows.iter().filter(|a| a.well_formed).count();
        violations.extend(rules::check_file(&file));
        facts.push(parser::extract(&file));
    }

    let graph = CallGraph::build(&facts);
    let analysis = effects::propagate(&graph, &facts);
    violations.extend(rules::check_transitive(&facts, &graph, &analysis));
    violations.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    Report {
        files_scanned: sources.len(),
        lines_scanned,
        allow_directives,
        violations,
        graph: GraphStats {
            fns: graph.fns.len(),
            edges: graph.edge_count,
            resolved_calls: graph.resolved_calls,
            unresolved_calls: graph.unresolved_calls,
            fixpoint_iterations: analysis.iterations,
        },
    }
}

/// Convenience: collect + check in one call.
///
/// # Errors
///
/// Returns any I/O error from [`collect_workspace_sources`].
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    Ok(check_sources(&collect_workspace_sources(root)?))
}

/// Locates the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// One rule's violation count in the JSON payload.
#[derive(Debug, Clone, Serialize)]
pub struct RuleCount {
    /// Rule id.
    pub rule: &'static str,
    /// Number of violations (0 when the workspace honors the rule).
    pub count: usize,
}

/// The `callgraph` block of the JSON payload: graph shape and fixpoint cost.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CallgraphBlock {
    /// Fn definitions in the graph.
    pub fns: usize,
    /// Call edges.
    pub edges: usize,
    /// Call sites bound to at least one definition.
    pub resolved_calls: usize,
    /// Call sites left unbound (std / vendored deps).
    pub unresolved_calls: usize,
    /// Fixpoint rounds until quiescence.
    pub fixpoint_iterations: usize,
}

/// The machine-readable `--format json` payload (also `BENCH_lint.json`).
#[derive(Debug, Serialize)]
pub struct JsonReport {
    /// Format version.
    pub version: u32,
    /// Emitting harness, for uniformity with the other BENCH files.
    pub harness: &'static str,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Lines analyzed.
    pub lines_scanned: usize,
    /// Well-formed suppressions in force.
    pub allow_directives: usize,
    /// Rules executed, in report order.
    pub rules: Vec<&'static str>,
    /// Violation counts per rule (zero entries included), in rule order.
    pub violations_by_rule: Vec<RuleCount>,
    /// Full violation list.
    pub violations: Vec<Violation>,
    /// Wall time of the analysis in milliseconds (what `--max-ms` bounds).
    pub wall_ms: f64,
    /// Call-graph / fixpoint statistics.
    pub callgraph: CallgraphBlock,
}

impl JsonReport {
    /// Assembles the JSON payload from a report and its measured wall time.
    #[must_use]
    pub fn new(report: &Report, wall_ms: f64) -> Self {
        Self {
            version: 3,
            harness: "glimpse-lint",
            files_scanned: report.files_scanned,
            lines_scanned: report.lines_scanned,
            allow_directives: report.allow_directives,
            rules: RULES.iter().map(|r| r.id).collect(),
            violations_by_rule: report
                .by_rule()
                .into_iter()
                .map(|(rule, count)| RuleCount { rule, count })
                .collect(),
            violations: report.violations.clone(),
            wall_ms,
            callgraph: CallgraphBlock {
                fns: report.graph.fns,
                edges: report.graph.edges,
                resolved_calls: report.graph.resolved_calls,
                unresolved_calls: report.graph.unresolved_calls,
                fixpoint_iterations: report.graph.fixpoint_iterations,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> (String, String) {
        (path.to_owned(), text.to_owned())
    }

    #[test]
    fn report_counts_and_orders_violations() {
        let report = check_sources(&[
            src("crates/space/src/b.rs", "let x = unsafe { y };\n"),
            src("crates/mlkit/src/a.rs", "use std::collections::HashMap;\nlet r = thread_rng();\n"),
        ]);
        assert_eq!(report.files_scanned, 2);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["D2", "D1", "U1"]); // a.rs before b.rs, line order within
        assert_eq!(report.by_rule()["D1"], 1);
        assert_eq!(report.by_rule()["P1"], 0);
    }

    #[test]
    fn clean_sources_make_a_clean_report() {
        let report = check_sources(&[src("crates/mlkit/src/a.rs", "pub fn f() -> usize { 3 }\n")]);
        assert!(report.is_clean());
        assert_eq!(report.by_rule().values().sum::<usize>(), 0);
    }

    #[test]
    fn json_report_includes_zero_rules() {
        let report = check_sources(&[src("crates/mlkit/src/a.rs", "pub fn f() {}\n")]);
        let json = serde_json::to_string(&JsonReport::new(&report, 1.5)).unwrap();
        assert!(json.contains("\"rule\":\"U1\",\"count\":0"));
        assert!(json.contains("\"harness\":\"glimpse-lint\""));
    }
}
