//! Workspace file discovery for the lint pass.

use std::path::{Path, PathBuf};

/// Directories never descended into: vendored third-party code, build
/// output, VCS metadata, and lint test fixtures (which are known-bad on
/// purpose).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

/// Returns all `.rs` files under `root`, as paths relative to `root`,
/// sorted so diagnostics are stable across platforms.
pub fn rust_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}
