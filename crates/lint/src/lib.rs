//! `tetrium-lint`: repo-specific determinism/ledger static analysis.
//!
//! Tetrium's reproduction contract is byte-identical figure/obs output
//! across `TETRIUM_THREADS` (DESIGN.md §7–§9), and its scheduling results
//! rest on exact WAN/slot ledger accounting. Four classes of Rust code have
//! historically broken one or the other, so this pass rejects them
//! mechanically:
//!
//! * **L1** — iteration over `HashMap`/`HashSet` in simulation-facing crates
//!   (`sim`, `net`, `cluster`, `baselines`, and any `sched` path). Keyed
//!   lookup is fine; iteration order is seeded by `RandomState` and leaks
//!   nondeterminism into event order. Use `BTreeMap`, a slab, or a sorted vec.
//! * **L2** — `partial_cmp` in comparator position anywhere in the
//!   workspace. `partial_cmp().unwrap()` float sorts panic on NaN and invite
//!   `sort_by` comparators that are not total orders; use `f64::total_cmp`
//!   or a documented NaN-free wrapper. (Definitions of `fn partial_cmp` in
//!   `PartialOrd` impls are exempt.)
//! * **L3** — wall-clock/entropy sources (`Instant::now`, `SystemTime`,
//!   `thread_rng`, `RandomState`) outside `crates/bench` timing code.
//! * **L4** — lossy `as` casts fed by float arithmetic on the ledger hot
//!   paths (`engine.rs`, `flowsim.rs`, `maxmin.rs`). Bytes, slots and rates
//!   must round through a named, documented helper, not an inline `as`.
//! * **L5** — dense matrix types (`Vec<Vec<f64>>` / `Vec<Vec<f32>>`) in the
//!   sparse-substrate crates (`crates/lp`, `crates/net`). The revised
//!   simplex and the waterfiller were rebuilt around CSC columns and sorted
//!   pair indices precisely to kill O(n²) storage at 1000 sites; a nested
//!   float `Vec` there is dense-matrix creep. Use `tetrium-lp::sparsela`
//!   structures or a sorted `(row, col)` index.
//!
//! Three dataflow rules run on top of a lightweight syntax layer
//! ([`syntax`]: brace-matched item extraction) and a conservative
//! name-resolved call graph ([`callgraph`]); see DESIGN.md §15:
//!
//! * **L6** — reachable panics in the sim-facing crates outside
//!   `#[cfg(test)]` and audit-gated code: `.unwrap()`, `.expect(…)` and the
//!   panicking macros in `sim`, `net`, `lp`, `serve` and `obs`; `expr[…]`
//!   indexing only in the serving crates (`serve`, `obs`), since the
//!   kernels' bounds are covered by the audit oracles and proptests.
//! * **L7** — transitive determinism taint: entropy / wall-clock /
//!   unordered-iteration sources anywhere in the workspace taint their
//!   resolved transitive callers; tainted functions in the
//!   deterministic-core crates are reported at the importing call site.
//! * **L8** — lock discipline in `crates/serve`: a `Mutex`/`RwLock` guard
//!   held across `.await` or a channel send, and inconsistent two-lock
//!   acquisition order.
//!
//! Escape hatch: `// lint:allow(L3) -- reason` suppresses a rule on the
//! marker's line and the line below it; `// lint:allow-file(L3) -- reason`
//! suppresses it for the whole file. For the token rules (L1–L5) a marker
//! without a reason still works; the dataflow rules (L6–L8) ignore
//! reasonless markers — write `lint:allow(L6, "why this is safe")`.
//!
//! Two engines share this crate: [`lint_source`] is the original per-file
//! token engine (L1–L5 only — kept verbatim so fixtures can prove what it
//! misses), and [`lint_sources`]/[`lint_workspace`] run the full
//! multi-file engine (L1–L8). CI runs the latter through `cargo lint`,
//! which fails on any finding.

pub mod callgraph;
pub mod lexer;
mod rules;
pub mod syntax;
mod walk;

use lexer::Lexed;
use std::path::Path;
use syntax::FileSyntax;

/// Lint rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// HashMap/HashSet iteration in simulation-facing code.
    L1,
    /// `partial_cmp` used as a comparator.
    L2,
    /// Wall-clock or entropy source outside bench code.
    L3,
    /// Lossy `as` cast on a ledger quantity.
    L4,
    /// Dense matrix type in a sparse-substrate crate.
    L5,
    /// Reachable panic (`unwrap`/`expect`/panicking macro, or indexing in
    /// a serving crate) in a sim-facing crate.
    L6,
    /// Transitive determinism taint reaching a deterministic-core
    /// function.
    L7,
    /// Lock-discipline violation in `crates/serve`.
    L8,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
        }
    }

    /// The dataflow rules only honour `lint:allow` markers that carry a
    /// justification (`lint:allow(L6, "reason")` or a trailing
    /// `-- reason`).
    pub fn requires_reason(self) -> bool {
        matches!(self, Rule::L6 | Rule::L7 | Rule::L8)
    }
}

/// One diagnostic: a rule violation at a source span.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path (or the virtual path given to
    /// [`lint_source`]).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Length of the underlined token text (for caret rendering).
    pub len: u32,
    pub message: String,
    /// The source line, for rendering.
    pub src_line: String,
}

impl Finding {
    /// Renders the finding in rustc style:
    /// `error[L3]: ...` / `--> path:line:col` / source + caret underline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("error[{}]: {}\n", self.rule.name(), self.message));
        out.push_str(&format!("  --> {}:{}:{}\n", self.path, self.line, self.col));
        out.push_str("   |\n");
        out.push_str(&format!("{:>3}| {}\n", self.line, self.src_line));
        let pad = " ".repeat(self.col.saturating_sub(1) as usize);
        let carets = "^".repeat(self.len.max(1) as usize);
        out.push_str(&format!("   | {pad}{carets}\n"));
        out
    }
}

/// One workspace source file, lexed and syntax-parsed: the unit the
/// multi-file engine and the call graph operate on.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub lexed: Lexed,
    pub syntax: FileSyntax,
}

/// Lints a single file with the **original token engine** (L1–L5 only,
/// no syntax layer, no call graph). `virtual_path` determines rule scope,
/// so tests can lint snippets "as if" they lived at a given workspace
/// path. Kept verbatim so fixtures can demonstrate what per-file token
/// matching provably misses; everything real goes through
/// [`lint_sources`] / [`lint_workspace`].
pub fn lint_source(virtual_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let mut findings = Vec::new();
    token_rules(virtual_path, &lexed, &mut findings);
    let findings = apply_allows(&lexed, findings);
    finalize(virtual_path, &lexed, findings)
}

/// The per-file token rules (L1–L5), scoped by path.
fn token_rules(path: &str, lexed: &Lexed, out: &mut Vec<rules::RawFinding>) {
    if rules::l1_applies(path) {
        rules::check_l1(lexed, out);
    }
    rules::check_l2(lexed, out);
    if rules::l3_applies(path) {
        rules::check_l3(lexed, out);
    }
    if rules::l4_applies(path) {
        rules::check_l4(lexed, out);
    }
    if rules::l5_applies(path) {
        rules::check_l5(lexed, out);
    }
}

/// Lints a set of files with the **full engine**: token rules (L1–L5)
/// per file, panic reachability (L6) against the syntax layer, lock
/// discipline (L8) across `crates/serve`, and determinism taint (L7)
/// propagated through the workspace call graph. Findings come back
/// sorted by (path, line, col, rule).
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lexer::lex(src);
            let syntax = FileSyntax::parse(&lexed);
            SourceFile {
                path: path.clone(),
                lexed,
                syntax,
            }
        })
        .collect();
    let mut per_file: Vec<Vec<rules::RawFinding>> = parsed.iter().map(|_| Vec::new()).collect();
    for (fi, f) in parsed.iter().enumerate() {
        token_rules(&f.path, &f.lexed, &mut per_file[fi]);
        if rules::l6_applies(&f.path) {
            rules::check_l6(&f.path, &f.lexed, &f.syntax, &mut per_file[fi]);
        }
    }
    rules::check_l8(&parsed, &mut per_file);
    let graph = callgraph::CallGraph::build(&parsed);
    rules::check_l7(&parsed, &graph, &mut per_file);

    let mut out = Vec::new();
    for (f, raw) in parsed.iter().zip(per_file) {
        let kept = apply_allows(&f.lexed, raw);
        out.extend(finalize(&f.path, &f.lexed, kept));
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out
}

/// Drops findings suppressed by `lint:allow` markers. Markers for rules
/// that [`Rule::requires_reason`] only count when they carry one.
fn apply_allows(lexed: &Lexed, findings: Vec<rules::RawFinding>) -> Vec<rules::RawFinding> {
    findings
        .into_iter()
        .filter(|f| {
            !lexed.allows.iter().any(|a| {
                a.rules.iter().any(|r| r == f.rule.name())
                    && (!f.rule.requires_reason() || a.reason.is_some())
                    && (a.whole_file || f.line == a.line || f.line == a.line + 1)
            })
        })
        .collect()
}

/// Attaches path and source-line context, sorts by position.
fn finalize(path: &str, lexed: &Lexed, raw: Vec<rules::RawFinding>) -> Vec<Finding> {
    let mut out: Vec<Finding> = raw
        .into_iter()
        .map(|f| Finding {
            rule: f.rule,
            path: path.to_string(),
            line: f.line,
            col: f.col,
            len: f.len,
            message: f.message,
            src_line: lexed
                .lines
                .get(f.line as usize - 1)
                .cloned()
                .unwrap_or_default(),
        })
        .collect();
    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

/// Lints every Rust source file under `root` (the workspace root) with
/// the full engine, excluding `vendor/`, `target/`, and fixture
/// directories. Returns findings sorted by (path, line, col).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = walk::rust_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        sources.push((rel_str, src));
    }
    Ok(lint_sources(&sources))
}
