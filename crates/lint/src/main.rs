//! CLI for `tetrium-lint`. Run via `cargo lint` (alias) or
//! `cargo run -p tetrium-lint`.
//!
//! Lints the workspace (or the root given as the one positional argument),
//! prints every finding rustc-style on stderr, and exits 1 if there is any:
//! the gate is zero findings. Fix a finding or justify it in place with
//! `// lint:allow(Ln) -- reason`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("usage: cargo lint [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = Some(PathBuf::from(other)),
            other => {
                eprintln!("tetrium-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let findings = match tetrium_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tetrium-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        eprintln!("{}", f.render());
    }
    match findings.len() {
        0 => {
            eprintln!("tetrium-lint: clean (0 findings)");
            ExitCode::SUCCESS
        }
        n => {
            let s = if n == 1 { "" } else { "s" };
            eprintln!(
                "tetrium-lint: {n} finding{s} (fix, or justify with \
                 `// lint:allow(Ln) -- reason`)"
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// falling back to the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => {
            let p = PathBuf::from(dir);
            p.parent()
                .and_then(|p| p.parent())
                .map(|p| p.to_path_buf())
                .unwrap_or(p)
        }
        Err(_) => PathBuf::from("."),
    }
}
