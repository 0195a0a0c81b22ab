//! The sparse-substrate guard (rule L5, DESIGN.md §13.3). The revised
//! simplex (`crates/lp`) and the waterfiller (`crates/net`) were rebuilt
//! around CSC columns and sorted pair indices to drop O(n²) storage at
//! 1000 sites, so a nested float `Vec` there is dense-matrix creep. Clippy
//! cannot ban a generic instantiation (`disallowed-types` rejects
//! `Vec<Vec<f64>>`), so this test scans the two crates' sources, comments
//! included, with whitespace removed.

use std::path::{Path, PathBuf};

/// The banned spellings once whitespace is removed.
const DENSE: [&str; 2] = ["Vec<Vec<f64", "Vec<Vec<f32"];

fn has_dense_matrix(src: &str) -> bool {
    let squeezed: String = src.chars().filter(|c| !c.is_whitespace()).collect();
    DENSE.iter().any(|d| squeezed.contains(d))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn matcher_fires_on_spaced_and_split_types() {
    assert!(has_dense_matrix("struct M { rows: Vec< Vec <f64> > }"));
    assert!(has_dense_matrix("let m: Vec<Vec<\n    f32>> = Vec::new();"));
    assert!(!has_dense_matrix("struct G { groups: Vec<Vec<u32>> }"));
    assert!(!has_dense_matrix("struct C { col: Vec<(usize, f64)> }"));
}

#[test]
fn sparse_crates_hold_no_dense_float_matrix() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["crates/lp", "crates/net"] {
        rust_files(&root.join(krate), &mut files);
    }
    assert!(files.len() > 4, "expected the lp and net sources");
    files.sort();
    let dense: Vec<&PathBuf> = files
        .iter()
        .filter(|p| has_dense_matrix(&std::fs::read_to_string(p).unwrap()))
        .collect();
    assert!(
        dense.is_empty(),
        "dense matrix type `Vec<Vec<f64>>` or `Vec<Vec<f32>>` in a \
         sparse-substrate crate; use a CSC matrix (`tetrium-lp::sparsela`) or \
         a sorted (row, col) pair index instead: {dense:?}"
    );
}
