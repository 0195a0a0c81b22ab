//! `tetrium-lint`: the repo-specific token rules clippy has no form for.
//!
//! Tetrium's reproduction contract is byte-identical figure/obs output
//! across `TETRIUM_THREADS` (DESIGN.md §7–§9), and its scheduling results
//! rest on exact WAN/slot ledger accounting. Clippy enforces most of the
//! code shapes that have broken one or the other (hash-order iteration,
//! the wall clock, reachable panics: the root `clippy.toml`, the
//! `[workspace.lints.clippy]` table and each sim-facing crate's
//! `#![warn(…)]`; see DESIGN.md §10.1). This pass keeps the three rules
//! clippy cannot express without false positives, one file at a time:
//!
//! * **L2** — `partial_cmp` in comparator position anywhere in the
//!   workspace. `partial_cmp().unwrap()` float sorts panic on NaN and invite
//!   `sort_by` comparators that are not total orders; use `f64::total_cmp`
//!   or a documented NaN-free wrapper. (Definitions of `fn partial_cmp` in
//!   `PartialOrd` impls are exempt; clippy's `disallowed-methods` would
//!   also fire on every `#[derive(PartialOrd)]`.)
//! * **L4** — lossy `as` casts fed by float arithmetic on the ledger hot
//!   paths (`engine.rs`, `flowsim.rs`, `maxmin.rs`). Bytes, slots and rates
//!   must round through a named, documented helper, not an inline `as`.
//!   (Clippy's cast lints fire on every integer index cast as well.)
//! * **L5** — dense matrix types (`Vec<Vec<f64>>` / `Vec<Vec<f32>>`) in the
//!   sparse-substrate crates (`crates/lp`, `crates/net`). The revised
//!   simplex and the waterfiller were rebuilt around CSC columns and sorted
//!   pair indices precisely to kill O(n²) storage at 1000 sites; a nested
//!   float `Vec` there is dense-matrix creep. Use `tetrium-lp::sparsela`
//!   structures or a sorted `(row, col)` index.
//!
//! The numbering is historical: L1 and L3 moved to clippy, and the rule
//! names stay so existing markers keep their meaning.
//!
//! Escape hatch: `// lint:allow(L4) -- reason` suppresses the listed rules
//! on the marker's line and the line below it. `cargo lint` runs
//! [`lint_workspace`] and fails on any finding.

pub mod lexer;
mod rules;
mod walk;

use std::path::Path;

/// Lint rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `partial_cmp` used as a comparator.
    L2,
    /// Lossy `as` cast on a ledger quantity.
    L4,
    /// Dense matrix type in a sparse-substrate crate.
    L5,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::L2 => "L2",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
        }
    }
}

/// One diagnostic: a rule violation at a source span.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path (or the virtual path given to
    /// [`lint_file`]).
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
    /// `error[L4]: ...` / `--> path:line:col` / source + caret underline.
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

/// Lints one file. `path` is workspace-relative and sets each rule's
/// scope, so tests can lint a snippet "as if" it lived at a given path.
/// Findings that a `lint:allow` marker covers are dropped; the rest come
/// back sorted by (line, col, rule).
pub fn lint_file(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let mut out: Vec<Finding> = rules::check_file(path, &lexed)
        .into_iter()
        .filter(|f| {
            !lexed.allows.iter().any(|a| {
                a.rules.iter().any(|r| r == f.rule.name())
                    && (f.line == a.line || f.line == a.line + 1)
            })
        })
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

/// Lints every Rust source file under `root` (the workspace root),
/// excluding `vendor/`, `target/`, and fixture directories. Returns
/// findings sorted by (path, line, col).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for rel in walk::rust_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        out.extend(lint_file(&rel, &src));
    }
    Ok(out)
}
