//! The three per-file token rules (L2, L4, L5), run over one file's token
//! stream. Each rule is scoped by the file's workspace-relative path.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Rule;

/// A finding before path/source-line context is attached.
#[derive(Debug)]
pub(crate) struct RawFinding {
    pub(crate) rule: Rule,
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) len: u32,
    pub(crate) message: String,
}

fn finding(rule: Rule, tok: &Tok, len: u32, message: String) -> RawFinding {
    RawFinding {
        rule,
        line: tok.line,
        col: tok.col,
        len,
        message,
    }
}

/// Runs every rule whose scope covers `path` over one file.
pub(crate) fn check_file(path: &str, lexed: &Lexed) -> Vec<RawFinding> {
    let mut out = Vec::new();
    check_l2(lexed, &mut out);
    if l4_applies(path) {
        check_l4(lexed, &mut out);
    }
    if l5_applies(path) {
        check_l5(lexed, &mut out);
    }
    out
}

/// L4 applies to the ledger hot paths only.
fn l4_applies(path: &str) -> bool {
    path.ends_with("crates/sim/src/engine.rs")
        || path.ends_with("crates/net/src/flowsim.rs")
        || path.ends_with("crates/net/src/maxmin.rs")
        || path == "engine.rs"
        || path == "flowsim.rs"
        || path == "maxmin.rs"
}

/// L5 applies to the sparse-substrate crates: the LP solver and the network
/// model must not regrow dense O(n²) matrices.
fn l5_applies(path: &str) -> bool {
    path.starts_with("crates/lp/") || path.starts_with("crates/net/")
}

/// L2: `partial_cmp` used as a comparator (anywhere). Definitions
/// (`fn partial_cmp`) inside `PartialOrd` impls are exempt.
fn check_l2(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        out.push(finding(
            Rule::L2,
            t,
            t.text.len() as u32,
            "`partial_cmp` in comparator position; use `f64::total_cmp` (or a \
             documented NaN-free wrapper) so float sorts are total and \
             panic-free"
                .to_string(),
        ));
    }
}

/// Integer cast targets that truncate a float.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Method names that mark the casted expression as float arithmetic.
const FLOAT_METHODS: &[&str] = &[
    "ceil", "floor", "round", "trunc", "sqrt", "powf", "powi", "exp", "ln", "log2", "log10", "abs",
    "recip", "hypot", "mul_add", "min", "max", "clamp",
];

/// L4: `expr as <int>` where the primary expression on the left shows float
/// evidence (a float literal, an `f64`/`f32` mention, or a float method),
/// plus any `as f32` (f64→f32 silently loses ledger precision). The walk
/// skips backwards over matched `()`/`[]` groups — scanning their interiors
/// for evidence — and over `.`-/`::`-joined path segments.
fn check_l4(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if ty.kind != TokKind::Ident {
            continue;
        }
        if ty.text == "f32" {
            out.push(finding(
                Rule::L4,
                t,
                2,
                "lossy `as f32` cast on a ledger hot path; keep ledger \
                 quantities in f64"
                    .to_string(),
            ));
            continue;
        }
        if !INT_TYPES.contains(&ty.text.as_str()) {
            continue;
        }
        if cast_source_is_float(toks, i) {
            out.push(finding(
                Rule::L4,
                t,
                2,
                format!(
                    "lossy float-to-`{}` `as` cast on a ledger hot path; round \
                     through a named, documented helper instead of an inline \
                     cast",
                    ty.text
                ),
            ));
        }
    }
}

/// Is a token float evidence?
fn is_float_evidence(t: &Tok) -> bool {
    t.is_float_lit()
        || (t.kind == TokKind::Num && (t.text.ends_with("f64") || t.text.ends_with("f32")))
        || t.is_ident("f64")
        || t.is_ident("f32")
        || (t.kind == TokKind::Ident && FLOAT_METHODS.contains(&t.text.as_str()))
}

/// Walks backwards from the token before `as` over the primary expression
/// being cast, returning true if any part of it shows float evidence.
fn cast_source_is_float(toks: &[Tok], as_pos: usize) -> bool {
    let mut j = as_pos; // exclusive upper bound; inspect toks[j-1]
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(")") || t.is_punct("]") {
            // Skip the matched group, scanning its interior.
            let close = if t.is_punct(")") { ")" } else { "]" };
            let open = if t.is_punct(")") { "(" } else { "[" };
            let mut depth = 0usize;
            let mut k = j;
            while k > 0 {
                let u = &toks[k - 1];
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_float_evidence(u) {
                    return true;
                }
                k -= 1;
            }
            if k == 0 {
                return false; // unbalanced; bail conservatively
            }
            j = k - 1;
            continue;
        }
        if t.kind == TokKind::Ident || t.kind == TokKind::Num {
            if is_float_evidence(t) {
                return true;
            }
            // Part of the expression path (ident/field/number); keep walking
            // only if joined by `.`/`::`/`?` to more expression.
            j -= 1;
            continue;
        }
        if t.is_punct(".") || t.is_punct("::") || t.is_punct("?") {
            j -= 1;
            continue;
        }
        break; // any other punct ends the primary expression
    }
    false
}

/// L5: dense-matrix creep. A `Vec<Vec<f64>>` (or `f32`) in `crates/lp` or
/// `crates/net` reintroduces the O(n²) storage the sparse revised simplex
/// and the sharded waterfiller were built to avoid; flag the nested type
/// wherever it appears (field, binding, signature, or turbofish).
fn check_l5(lexed: &Lexed, out: &mut Vec<RawFinding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("Vec")
            && toks.get(i + 1).map(|t| t.is_punct("<")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_ident("Vec")).unwrap_or(false)
            && toks.get(i + 3).map(|t| t.is_punct("<")).unwrap_or(false)
            && toks
                .get(i + 4)
                .map(|t| t.is_ident("f64") || t.is_ident("f32"))
                .unwrap_or(false))
        {
            continue;
        }
        // Underline through the closing `>>` when the type sits on one line.
        let mut end = i + 4;
        for j in [i + 5, i + 6] {
            if toks.get(j).map(|t| t.is_punct(">")).unwrap_or(false) {
                end = j;
            } else {
                break;
            }
        }
        let len = if toks[end].line == toks[i].line {
            toks[end].col + toks[end].text.len() as u32 - toks[i].col
        } else {
            3
        };
        let elem = toks[i + 4].text.clone();
        out.push(finding(
            Rule::L5,
            &toks[i],
            len,
            format!(
                "dense matrix type `Vec<Vec<{elem}>>` in a sparse-substrate \
                 crate; use a CSC matrix (`tetrium-lp::sparsela`) or a sorted \
                 (row, col) pair index instead"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_file;
    use crate::Rule;

    #[test]
    fn l4_flags_float_cast_and_spares_int_packing() {
        let bad = "fn f(n: f64) -> usize { (n * 1.5).ceil() as usize }";
        let f = lint_file("crates/net/src/maxmin.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::L4);
        // Pure integer packing must not fire.
        let good = "fn key(a: usize, b: usize) -> u64 { ((a as u64) << 32) | b as u64 }";
        assert!(lint_file("crates/net/src/maxmin.rs", good).is_empty());
    }

    #[test]
    fn l2_definition_is_exempt() {
        let src =
            "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { None } }";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn l5_flags_nested_float_vec_only_in_sparse_crates() {
        let src = "struct M { rows: Vec<Vec<f64>> }";
        let f = lint_file("crates/lp/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::L5);
        assert_eq!(lint_file("crates/net/src/x.rs", src).len(), 1);
        // Same type outside the sparse substrate is someone else's problem.
        assert!(lint_file("crates/bench/src/x.rs", src).is_empty());
        // Sparse shapes don't fire: flat data + index vectors.
        let good = "struct Csc { data: Vec<f64>, rows: Vec<u32>, col_ptr: Vec<usize> }";
        assert!(lint_file("crates/lp/src/x.rs", good).is_empty());
        // Nested integer vecs (e.g. adjacency lists) are fine.
        let adj = "struct G { groups: Vec<Vec<u32>> }";
        assert!(lint_file("crates/net/src/x.rs", adj).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_next_line() {
        let cmp = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());";
        let src = format!("// lint:allow(L2) -- comparator test\n{cmp}");
        assert!(lint_file("crates/core/src/x.rs", &src).is_empty());
        let src = format!("// lint:allow(L4) -- wrong rule\n{cmp}");
        assert_eq!(lint_file("crates/core/src/x.rs", &src).len(), 1);
        // Two lines below the marker is out of its reach.
        let src = format!("// lint:allow(L2) -- too far\n\n{cmp}");
        assert_eq!(lint_file("crates/core/src/x.rs", &src).len(), 1);
    }
}
