//! Item-level fact extraction: fn definitions, call sites, `use`
//! resolution inputs, and intrinsic effect sinks — everything the
//! interprocedural pass ([`crate::callgraph`] + [`crate::effects`]) needs,
//! as a pure function of one file's content.
//!
//! This is deliberately *not* a Rust parser. It walks the masked token
//! stream from [`crate::lexer`] with a brace-depth scope stack (modules,
//! `impl` blocks, fns) — enough to attribute every call site and effect
//! sink to the fn whose body contains it, and to reconstruct the paths
//! `use` declarations bring into scope. Closures are part of their
//! enclosing fn's body, so captures handed to `parallel_map`/`anneal` are
//! attributed to the fn that builds them.

use crate::effects::{self, EffectMask};
use crate::lexer::is_ident_byte;
use crate::source::SourceFile;

/// One intrinsic effect source inside an fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkFact {
    /// Which lattice element the sink sets.
    pub effect: EffectMask,
    /// 1-based line of the sink token.
    pub line: usize,
    /// The matched token, for diagnostics (`Instant::now`, `.unwrap()`, …).
    pub token: String,
}

/// One call site inside an fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// Path segments as written (`["codec", "decode_frame"]`, `["foo"]`,
    /// `["Wal", "append"]`). Leading `crate`/`self`/`super`/`Self`
    /// segments are preserved.
    pub segments: Vec<String>,
    /// Whether this is a `.name(…)` method call.
    pub method: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// One fn definition with everything attributed to its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// The fn's name.
    pub name: String,
    /// Module path inside the crate (file path modules + inline `mod`s).
    pub module: Vec<String>,
    /// Enclosing `impl` self-type name, when inside an impl block.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
    /// Whether the fn is `pub`/`pub(crate)`/`pub(super)`.
    pub is_pub: bool,
    /// Whether the fn sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Effects absorbed here per `lint:boundary` annotation.
    pub boundary: EffectMask,
    /// Intrinsic effect sinks in the body.
    pub sinks: Vec<SinkFact>,
    /// Call sites in the body.
    pub calls: Vec<CallFact>,
}

/// A well-formed `lint:allow` directive, kept in the facts so transitive
/// violations reported at an fn definition can be suppressed there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowFact {
    /// 1-based line of the directive.
    pub line: usize,
    /// Rules it suppresses.
    pub rules: Vec<String>,
}

impl AllowFact {
    /// Same coverage window as `AllowDirective::covers`.
    #[must_use]
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        (line == self.line || line == self.line + 1) && self.rules.iter().any(|r| r == rule)
    }
}

/// Everything the interprocedural pass needs from one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Crate directory name (`mlkit`, `gpu-spec`, …) when under
    /// `crates/<name>/src/`.
    pub crate_name: Option<String>,
    /// Module path derived from the file's location under `src/`.
    pub file_module: Vec<String>,
    /// All fn definitions.
    pub fns: Vec<FnFact>,
    /// `use` imports: local name → absolute-ish path segments.
    pub uses: Vec<(String, Vec<String>)>,
    /// Paths imported with a trailing `::*`.
    pub globs: Vec<Vec<String>>,
    /// Well-formed `lint:allow` directives (for transitive suppression).
    pub allows: Vec<AllowFact>,
    /// Capitalized identifiers mentioned anywhere in the file (sorted,
    /// deduplicated) — the cheap type-visibility filter for method-call
    /// resolution.
    pub type_mentions: Vec<String>,
}

/// Keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn", "for", "if", "impl",
    "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait",
    "true", "type", "union", "unsafe", "use", "where", "while",
];

/// Path heads that are position markers rather than module names.
const PATH_HEADS: &[&str] = &["crate", "self", "super", "Self"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Ident { off: usize, len: usize },
    Punct { off: usize, ch: u8 },
}

impl Tok {
    fn off(self) -> usize {
        match self {
            Tok::Ident { off, .. } | Tok::Punct { off, .. } => off,
        }
    }
}

fn tokenize(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if is_ident_byte(c) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                toks.push(Tok::Ident {
                    off: start,
                    len: i - start,
                });
            }
        } else {
            if !c.is_ascii_whitespace() {
                toks.push(Tok::Punct { off: i, ch: c });
            }
            i += 1;
        }
    }
    toks
}

#[derive(Debug)]
enum ScopeKind {
    Mod(String),
    Impl(String),
    Fn(usize),
    Other,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    depth: usize,
}

/// Module path derived from the file's location under `src/`:
/// `src/lib.rs` / `src/main.rs` → `[]`, `src/wal.rs` → `["wal"]`,
/// `src/a/mod.rs` → `["a"]`, `src/bin/fig1.rs` → `["bin", "fig1"]`.
fn file_module_path(rel_path: &str) -> Vec<String> {
    let Some(idx) = rel_path.find("/src/") else {
        return Vec::new();
    };
    let rest = &rel_path[idx + "/src/".len()..];
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut segs: Vec<String> = rest.split('/').map(str::to_owned).collect();
    if segs.last().is_some_and(|s| s == "lib" || s == "main" || s == "mod") {
        segs.pop();
    }
    segs
}

/// Extracts all facts from one lexed file.
#[must_use]
pub fn extract(file: &SourceFile) -> FileFacts {
    let masked = &file.masked;
    let toks = tokenize(masked);
    let file_module = file_module_path(&file.rel_path);

    let mut fns: Vec<FnFact> = Vec::new();
    let mut fn_spans: Vec<(usize, usize)> = Vec::new(); // body byte spans, parallel to fns
    let mut uses: Vec<(String, Vec<String>)> = Vec::new();
    let mut globs: Vec<Vec<String>> = Vec::new();

    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<ScopeKind> = None;
    let mut depth = 0usize;

    let ident_text = |t: Tok| -> &str {
        match t {
            Tok::Ident { off, len } => &masked[off..off + len],
            Tok::Punct { .. } => "",
        }
    };
    let is_punct = |t: Option<&Tok>, c: u8| matches!(t, Some(&Tok::Punct { ch, .. }) if ch == c);

    let mut i = 0usize;
    while i < toks.len() {
        match toks[i] {
            Tok::Punct { ch: b'{', off } => {
                depth += 1;
                let kind = pending.take().unwrap_or(ScopeKind::Other);
                if let ScopeKind::Fn(idx) = kind {
                    fn_spans[idx].0 = off;
                }
                scopes.push(Scope { kind, depth });
                i += 1;
            }
            Tok::Punct { ch: b'}', off } => {
                if let Some(scope) = scopes.pop() {
                    debug_assert_eq!(scope.depth, depth);
                    if let ScopeKind::Fn(idx) = scope.kind {
                        fn_spans[idx].1 = off;
                    }
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            Tok::Punct { ch: b';', .. } => {
                pending = None; // `mod x;`, trait fn signature, `use …;`
                i += 1;
            }
            Tok::Ident { off, len } => {
                let word = &masked[off..off + len];
                match word {
                    "mod" if matches!(toks.get(i + 1), Some(Tok::Ident { .. })) => {
                        pending = Some(ScopeKind::Mod(ident_text(toks[i + 1]).to_owned()));
                        i += 2;
                    }
                    "impl" => {
                        let (self_type, next) = parse_impl_header(&toks, i + 1, masked);
                        pending = Some(ScopeKind::Impl(self_type));
                        i = next;
                    }
                    "fn" if matches!(toks.get(i + 1), Some(Tok::Ident { .. })) => {
                        let name = ident_text(toks[i + 1]).to_owned();
                        if let Some(body_tok) = find_fn_body(&toks, i + 2) {
                            let (line, col) = file.line_col(off);
                            let module: Vec<String> = file_module
                                .iter()
                                .cloned()
                                .chain(scopes.iter().filter_map(|s| match &s.kind {
                                    ScopeKind::Mod(m) => Some(m.clone()),
                                    _ => None,
                                }))
                                .collect();
                            let impl_type = scopes.iter().rev().find_map(|s| match &s.kind {
                                ScopeKind::Impl(t) => Some(t.clone()),
                                _ => None,
                            });
                            fns.push(FnFact {
                                name,
                                module,
                                impl_type,
                                line,
                                col,
                                is_pub: lookback_is_pub(masked.as_bytes(), off),
                                is_test: file.in_test(line),
                                boundary: 0,
                                sinks: Vec::new(),
                                calls: Vec::new(),
                            });
                            fn_spans.push((0, masked.len()));
                            pending = Some(ScopeKind::Fn(fns.len() - 1));
                            i = body_tok;
                        } else {
                            i += 2; // signature only (trait decl / extern)
                        }
                    }
                    "use" => {
                        if let Some(semi) = toks[i..].iter().position(|t| matches!(t, Tok::Punct { ch: b';', .. })) {
                            let start = toks[i + 1].off();
                            let end = toks[i + semi].off();
                            parse_use_tree(masked[start..end].trim(), &mut Vec::new(), &mut uses, &mut globs);
                            i += semi + 1;
                        } else {
                            i += 1;
                        }
                    }
                    _ => {
                        // Inside an fn body, a path followed by `(` is a call.
                        let in_fn = scopes.iter().rev().find_map(|s| match s.kind {
                            ScopeKind::Fn(idx) => Some(idx),
                            _ => None,
                        });
                        if let Some(fn_idx) = in_fn {
                            let (segments, next) = collect_path(&toks, i, masked);
                            if is_punct(toks.get(next), b'(') && !segments.is_empty() {
                                let head = segments[0].as_str();
                                let name = segments.last().expect("nonempty path").as_str();
                                let method = off > 0 && prev_nonws_byte(masked.as_bytes(), off) == Some(b'.');
                                let plain_keyword = segments.len() == 1 && KEYWORDS.contains(&head);
                                let tuple_ctor = !method && segments.len() == 1 && name.starts_with(|c: char| c.is_ascii_uppercase());
                                if !plain_keyword && !tuple_ctor && !KEYWORDS.contains(&name) {
                                    let (line, _) = file.line_col(off);
                                    fns[fn_idx].calls.push(CallFact { segments, method, line });
                                }
                            }
                            i = next.max(i + 1);
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            Tok::Punct { .. } => {
                i += 1;
            }
        }
    }

    attach_sinks(file, &mut fns, &fn_spans);
    attach_boundaries(file, &mut fns);

    // Already sorted and unique: the token index iterates in sorted order.
    let type_mentions: Vec<String> = file
        .tokens
        .with_prefix("")
        .filter(|(k, _)| k.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|(k, _)| k.to_owned())
        .collect();

    FileFacts {
        rel_path: file.rel_path.clone(),
        crate_name: file.crate_name.clone(),
        file_module,
        fns,
        uses,
        globs,
        allows: file
            .allows
            .iter()
            .filter(|a| a.well_formed)
            .map(|a| AllowFact {
                line: a.line,
                rules: a.rules.clone(),
            })
            .collect(),
        type_mentions,
    }
}

/// Parses an `impl` header starting after the `impl` token; returns the
/// self-type name and the token index of the body `{`.
fn parse_impl_header(toks: &[Tok], mut i: usize, masked: &str) -> (String, usize) {
    let mut angle = 0i32;
    let mut in_for = false;
    let mut in_where = false;
    let mut self_type = String::new();
    let mut for_type = String::new();
    while i < toks.len() {
        match toks[i] {
            Tok::Punct { ch: b'<', .. } => angle += 1,
            // `->` in an `impl Fn(..) -> T`: that '>' pairs with '-'.
            Tok::Punct { ch: b'>', off } if off == 0 || masked.as_bytes()[off - 1] != b'-' => angle -= 1,
            Tok::Punct { ch: b'{', .. } if angle <= 0 => return (if in_for { for_type } else { self_type }, i),
            Tok::Punct { ch: b';', .. } if angle <= 0 => return (if in_for { for_type } else { self_type }, i),
            Tok::Ident { off, len } if angle <= 0 => {
                let word = &masked[off..off + len];
                match word {
                    "for" => in_for = true,
                    "where" => in_where = true,
                    _ if !in_where => {
                        if in_for {
                            for_type = word.to_owned();
                        } else {
                            self_type = word.to_owned();
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    (if in_for { for_type } else { self_type }, i)
}

/// Finds the token index of an fn's body `{`, or `None` for a bodyless
/// signature (`;` first). Starts after the fn name, skipping the argument
/// list, generics, return type, and where clause.
fn find_fn_body(toks: &[Tok], mut i: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut prev_dash = false;
    while i < toks.len() {
        match toks[i] {
            Tok::Punct { ch: b'(', .. } => paren += 1,
            Tok::Punct { ch: b')', .. } => paren -= 1,
            Tok::Punct { ch: b'<', .. } => angle += 1,
            Tok::Punct { ch: b'>', .. } => {
                if prev_dash {
                    // `->`: not a closing angle bracket.
                } else {
                    angle -= 1;
                }
            }
            Tok::Punct { ch: b'{', .. } if paren == 0 => return Some(i),
            Tok::Punct { ch: b';', .. } if paren == 0 && angle <= 0 => return None,
            _ => {}
        }
        prev_dash = matches!(toks[i], Tok::Punct { ch: b'-', .. });
        i += 1;
    }
    None
}

/// Collects a `::`-separated path starting at an ident token, skipping
/// turbofish segments. Returns the segments and the index of the first
/// token after the path.
fn collect_path(toks: &[Tok], i: usize, masked: &str) -> (Vec<String>, usize) {
    let Tok::Ident { off, len } = toks[i] else {
        return (Vec::new(), i + 1);
    };
    let first = &masked[off..off + len];
    if KEYWORDS.contains(&first) && !PATH_HEADS.contains(&first) {
        return (Vec::new(), i + 1);
    }
    let mut segs = vec![first.to_owned()];
    let mut j = i + 1;
    loop {
        // A separator is two adjacent ':' punct tokens.
        let sep =
            matches!(toks.get(j), Some(&Tok::Punct { ch: b':', .. })) && matches!(toks.get(j + 1), Some(&Tok::Punct { ch: b':', .. }));
        if !sep {
            break;
        }
        let mut k = j + 2;
        // Turbofish: `::<…>` — skip the balanced angle group.
        if matches!(toks.get(k), Some(&Tok::Punct { ch: b'<', .. })) {
            let mut angle = 0i32;
            while k < toks.len() {
                match toks[k] {
                    Tok::Punct { ch: b'<', .. } => angle += 1,
                    Tok::Punct { ch: b'>', .. } => {
                        angle -= 1;
                        if angle == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
            continue;
        }
        match toks.get(k) {
            Some(&Tok::Ident { off, len }) => {
                segs.push(masked[off..off + len].to_owned());
                j = k + 1;
            }
            _ => break,
        }
    }
    (segs, j)
}

fn prev_nonws_byte(bytes: &[u8], off: usize) -> Option<u8> {
    bytes[..off].iter().rev().copied().find(|c| !c.is_ascii_whitespace())
}

/// Whether the tokens directly before an `fn` keyword include `pub`.
/// Scans back over qualifier-shaped bytes only (idents, whitespace, and
/// the parens of `pub(crate)`), stopping at any statement delimiter.
fn lookback_is_pub(bytes: &[u8], fn_off: usize) -> bool {
    let mut i = fn_off;
    let start = fn_off.saturating_sub(64);
    while i > start {
        let c = bytes[i - 1];
        if is_ident_byte(c) || c.is_ascii_whitespace() || c == b'(' || c == b')' {
            i -= 1;
        } else {
            break;
        }
    }
    let window = String::from_utf8_lossy(&bytes[i..fn_off]).into_owned();
    window.split(|c: char| !c.is_ascii_alphanumeric() && c != '_').any(|w| w == "pub")
}

/// Attributes every intrinsic effect sink to the innermost fn whose body
/// span contains it. Sinks covered by a `lint:allow` naming the matching
/// lexical or transitive rule are sanctioned and cleared at the source.
fn attach_sinks(file: &SourceFile, fns: &mut [FnFact], spans: &[(usize, usize)]) {
    for (effect, token, hits) in effects::sink_hits(file) {
        for at in hits {
            let (line, _) = file.line_col(at);
            let rules = effects::rules_for(effect);
            let allowed = file.allows.iter().any(|a| a.well_formed && rules.iter().any(|r| a.covers(r, line)));
            if allowed {
                continue;
            }
            // Innermost containing body = smallest span containing `at`.
            let owner = spans
                .iter()
                .enumerate()
                .filter(|(_, &(s, e))| s < at && at < e)
                .min_by_key(|(_, &(s, e))| e - s)
                .map(|(idx, _)| idx);
            if let Some(idx) = owner {
                fns[idx].sinks.push(SinkFact {
                    effect,
                    line,
                    token: token.clone(),
                });
            }
        }
    }
    for f in fns {
        f.sinks
            .sort_by(|a, b| (a.line, a.effect, &a.token).cmp(&(b.line, b.effect, &b.token)));
    }
}

/// Attaches each well-formed `lint:boundary` directive to the first fn
/// declared within 4 lines below it (attributes and doc lines may sit in
/// between).
fn attach_boundaries(file: &SourceFile, fns: &mut [FnFact]) {
    for b in file.boundaries.iter().filter(|b| b.well_formed) {
        let mask = effects::mask_of_names(&b.effects);
        if let Some(f) = fns
            .iter_mut()
            .filter(|f| f.line >= b.line && f.line <= b.line + 4)
            .min_by_key(|f| f.line)
        {
            f.boundary |= mask;
        }
    }
}

/// Parses the body of a `use` declaration (without the `use` keyword or
/// trailing `;`) into flat imports. `prefix` carries the outer path during
/// group recursion.
fn parse_use_tree(tree: &str, prefix: &mut Vec<String>, uses: &mut Vec<(String, Vec<String>)>, globs: &mut Vec<Vec<String>>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        // `a::b::{…}` — recurse into the group, splitting on top-level commas.
        let head = tree[..open].trim_end_matches(':').trim();
        let inner = tree[open + 1..].trim_end().trim_end_matches('}');
        let added: Vec<String> = if head.is_empty() {
            Vec::new()
        } else {
            head.split("::").map(|s| s.trim().to_owned()).collect()
        };
        prefix.extend(added.iter().cloned());
        let mut depth = 0i32;
        let mut start = 0usize;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    parse_use_tree(&inner[start..i], prefix, uses, globs);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parse_use_tree(&inner[start..], prefix, uses, globs);
        prefix.truncate(prefix.len() - added.len());
        return;
    }
    if tree.is_empty() {
        return;
    }
    // Flat path: `a::b::c`, `a::b as c`, `a::b::*`, or bare `self`.
    let (path_part, alias) = match tree.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim().to_owned())),
        None => (tree, None),
    };
    let mut path: Vec<String> = prefix.clone();
    for seg in path_part.split("::") {
        let seg = seg.trim();
        if seg == "*" {
            globs.push(path);
            return;
        }
        if seg == "self" && !path.is_empty() {
            continue; // `a::b::{self}` imports `b` itself
        }
        if !seg.is_empty() {
            path.push(seg.to_owned());
        }
    }
    let Some(last) = path.last().cloned() else {
        return;
    };
    uses.push((alias.unwrap_or(last), path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::{EXITS, NONDET, PANICS, RAW_IO};

    fn facts(path: &str, src: &str) -> FileFacts {
        extract(&SourceFile::new(path, src.to_owned()))
    }

    #[test]
    fn file_module_paths_follow_location() {
        assert!(file_module_path("crates/mlkit/src/lib.rs").is_empty());
        assert_eq!(file_module_path("crates/durable/src/wal.rs"), vec!["wal"]);
        assert_eq!(file_module_path("crates/bench/src/bin/fig1.rs"), vec!["bin", "fig1"]);
        assert_eq!(file_module_path("crates/core/src/sub/mod.rs"), vec!["sub"]);
    }

    #[test]
    fn extracts_fns_with_modules_impls_and_visibility() {
        let f = facts(
            "crates/mlkit/src/gbt.rs",
            "pub struct Gbt;\nimpl Gbt {\n    pub fn fit(&self) {}\n    fn boost(&self) {}\n}\nmod detail {\n    pub(crate) fn helper() {}\n}\nfn free() {}\n",
        );
        let names: Vec<(&str, Option<&str>, bool)> = f.fns.iter().map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.is_pub)).collect();
        assert_eq!(
            names,
            vec![
                ("fit", Some("Gbt"), true),
                ("boost", Some("Gbt"), false),
                ("helper", None, true),
                ("free", None, false),
            ]
        );
        assert_eq!(f.fns[2].module, vec!["gbt", "detail"]);
        assert_eq!(f.fns[0].module, vec!["gbt"]);
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let f = facts(
            "crates/durable/src/wal.rs",
            "impl std::fmt::Display for Tail {\n    fn fmt(&self) { render() }\n}\nimpl<T: Clone> Stack<T> {\n    fn push_item(&mut self) { grow() }\n}\n",
        );
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Tail"));
        assert_eq!(f.fns[1].impl_type.as_deref(), Some("Stack"));
    }

    #[test]
    fn calls_capture_paths_methods_and_turbofish() {
        let f = facts(
            "crates/tuners/src/journal.rs",
            "fn run() {\n    let x = codec::decode_frame(b);\n    let y = helper();\n    pool.predict_batch(&xs);\n    let v = xs.iter().collect::<Vec<_>>();\n    Wal::append(&mut w);\n    if (a) { return; }\n}\n",
        );
        let calls: Vec<(Vec<&str>, bool)> = f.fns[0]
            .calls
            .iter()
            .map(|c| (c.segments.iter().map(String::as_str).collect(), c.method))
            .collect();
        assert!(calls.contains(&(vec!["codec", "decode_frame"], false)));
        assert!(calls.contains(&(vec!["helper"], false)));
        assert!(calls.contains(&(vec!["predict_batch"], true)));
        assert!(calls.contains(&(vec!["collect"], true)));
        assert!(calls.contains(&(vec!["Wal", "append"], false)));
        assert!(!calls.iter().any(|(segs, _)| segs == &vec!["if"]), "keywords are not calls");
    }

    #[test]
    fn sinks_attach_to_the_innermost_fn_and_respect_allows() {
        let src = "fn outer() {\n    std::process::exit(1);\n    fn inner() {\n        let t = std::time::Instant::now();\n    }\n}\nfn sanctioned() {\n    // lint:allow(D1) calibration smoke only\n    let t = std::time::Instant::now();\n}\n";
        let f = facts("crates/core/src/x.rs", src);
        let outer = &f.fns[0];
        assert_eq!(outer.sinks.len(), 1);
        assert_eq!(outer.sinks[0].effect, EXITS);
        let inner = &f.fns[1];
        assert_eq!(inner.sinks.len(), 1);
        assert_eq!(inner.sinks[0].effect, NONDET);
        assert!(f.fns[2].sinks.is_empty(), "allowed sink must be cleared at the source");
    }

    #[test]
    fn panic_and_raw_io_sinks_are_recognized() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"boom\");\n    std::fs::write(p, b).ok();\n}\n";
        let f = facts("crates/core/src/x.rs", src);
        let effects: Vec<EffectMask> = f.fns[0].sinks.iter().map(|s| s.effect).collect();
        assert_eq!(effects, vec![PANICS, PANICS, PANICS, RAW_IO]);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = facts("crates/core/src/x.rs", src);
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn use_trees_flatten_groups_aliases_and_globs() {
        let src = "use glimpse_durable::{atomic_write, wal::{WalWriter, scan as wal_scan}};\nuse crate::codec;\nuse super::helpers::*;\n";
        let f = facts("crates/tuners/src/journal.rs", src);
        assert!(f.uses.contains(&(
            "atomic_write".to_owned(),
            vec!["glimpse_durable".to_owned(), "atomic_write".to_owned()]
        )));
        assert!(f.uses.contains(&(
            "wal_scan".to_owned(),
            vec!["glimpse_durable".to_owned(), "wal".to_owned(), "scan".to_owned()]
        )));
        assert!(f.uses.contains(&("codec".to_owned(), vec!["crate".to_owned(), "codec".to_owned()])));
        assert_eq!(f.globs, vec![vec!["super".to_owned(), "helpers".to_owned()]]);
    }

    #[test]
    fn boundary_annotation_attaches_to_the_fn_below() {
        let src = "// lint:boundary(PANICS) slot index proven in bounds by construction\n#[inline]\npub fn pick(xs: &[f64], i: usize) -> f64 {\n    xs[i]\n}\n";
        let f = facts("crates/mlkit/src/x.rs", src);
        assert_eq!(f.fns[0].boundary, PANICS);
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn() {
        let src = "fn fan(xs: &[f64], seed: u64) {\n    parallel_map(threads, xs, |i, x| {\n        let mut rng = child_rng(seed, i as u64);\n        step(x, &mut rng)\n    });\n}\n";
        let f = facts("crates/mlkit/src/x.rs", src);
        let segs: Vec<Vec<&str>> = f.fns[0]
            .calls
            .iter()
            .map(|c| c.segments.iter().map(String::as_str).collect())
            .collect();
        assert!(segs.contains(&vec!["parallel_map"]));
        assert!(segs.contains(&vec!["child_rng"]));
        assert!(segs.contains(&vec!["step"]));
    }

    #[test]
    fn type_mentions_collect_capitalized_idents() {
        let f = facts("crates/core/src/x.rs", "use glimpse_mlkit::gbt::Gbt;\nfn f(m: &Gbt) { m.fit() }\n");
        assert!(f.type_mentions.iter().any(|t| t == "Gbt"));
        assert!(!f.type_mentions.iter().any(|t| t == "fit"));
    }
}
