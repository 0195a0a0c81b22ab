//! L6 — panic reachability in sim-facing crates.
//!
//! A panic anywhere in `sim`/`net`/`lp`/`serve`/`obs` kills either a
//! deterministic replay or a serving task mid-request (PRs 7–9 each
//! shipped a fix for one that escaped review: empty-CDF `unwrap`,
//! homeless map tasks, non-UTF-8 paths). This rule makes the reachable
//! panic surface explicit, outside `#[cfg(test)]` and audit-gated code:
//!
//! * `.unwrap()` / `.expect(…)` and the panicking macros, in all five
//!   crates;
//! * `expr[…]` indexing, only in the serving crates (`serve`, `obs`).
//!
//! Indexing in the `sim`/`net`/`lp` kernels (the placement LP, the WAN
//! max-min fill, the event loop) is left to Rust's bounds checks: the
//! `audit` feature re-solves every LP against a dense oracle and re-checks
//! every waterfill from scratch, and the proptests sweep the index
//! domains, so a bad bound there is caught without a finding per access.
//!
//! Every remaining site must either become a typed error or carry
//! `lint:allow(L6, "reason")` — the reason string is mandatory for this
//! rule (see [`crate::Rule::requires_reason`]).

use super::{finding, RawFinding};
use crate::lexer::{Lexed, TokKind};
use crate::syntax::FileSyntax;
use crate::Rule;

/// L6 applies to the crates whose panics take down a simulation replay or
/// a serving task.
pub fn l6_applies(path: &str) -> bool {
    !super::is_test_path(path)
        && [
            "crates/sim/",
            "crates/net/",
            "crates/lp/",
            "crates/serve/",
            "crates/obs/",
        ]
        .iter()
        .any(|p| path.starts_with(p))
}

/// The `expr[…]` branch of L6 covers only the serving crates; see the
/// module docs for why the kernels are exempt.
fn indexing_applies(path: &str) -> bool {
    ["crates/serve/", "crates/obs/"]
        .iter()
        .any(|p| path.starts_with(p))
}

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede a `[` without being an indexing
/// receiver (slice patterns, `in [..]` array expressions, `return [..]`).
const NON_RECEIVER_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "for", "while",
    "loop", "break", "continue", "where", "impl", "fn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "async", "await", "dyn", "box", "yield",
];

/// L6: reachable panics outside test/audit code in the file at `path`.
pub fn check_l6(path: &str, lexed: &Lexed, syn: &FileSyntax, out: &mut Vec<RawFinding>) {
    let index_scope = indexing_applies(path);
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if syn.in_test_code(i) || syn.in_audit_code(i) {
            continue;
        }
        // `.unwrap()` / `.expect(…)`.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(finding(
                Rule::L6,
                t,
                t.text.len() as u32,
                format!(
                    "`.{}()` reachable on a sim-facing path; return a typed \
                     error, prove the invariant upstream, or justify with \
                     `lint:allow(L6, \"reason\")`",
                    t.text
                ),
            ));
            continue;
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push(finding(
                Rule::L6,
                t,
                t.text.len() as u32 + 1,
                format!(
                    "`{}!` reachable on a sim-facing path; return a typed \
                     error or justify with `lint:allow(L6, \"reason\")`",
                    t.text
                ),
            ));
            continue;
        }
        // Indexing: `recv[…]` where `recv` ends in an identifier, `)` or
        // `]`. Array literals, slice patterns, attributes and types all
        // have punctuation (or a keyword) before the `[`, so they don't
        // match.
        if index_scope && t.is_punct("[") && i > 0 {
            let p = &toks[i - 1];
            let is_recv = match p.kind {
                TokKind::Ident => !NON_RECEIVER_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.is_punct(")") || p.is_punct("]"),
                _ => false,
            };
            if is_recv {
                out.push(finding(
                    Rule::L6,
                    t,
                    1,
                    "indexing can panic on a sim-facing path; use \
                     `.get(..)`/`.get_mut(..)`, or justify the bound with \
                     `lint:allow(L6, \"reason\")`"
                        .to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_sources, Rule};

    fn l6(path: &str, src: &str) -> Vec<crate::Finding> {
        lint_sources(&[(path.to_string(), src.to_string())])
            .into_iter()
            .filter(|f| f.rule == Rule::L6)
            .collect()
    }

    #[test]
    fn unwrap_expect_and_panic_macros_fire_outside_tests() {
        let src = "fn f(v: Vec<u32>) -> u32 {\n\
                       let a = v.first().unwrap();\n\
                       let b = v.last().expect(\"non-empty\");\n\
                       if *a > *b { panic!(\"inverted\") }\n\
                       *a\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t(v: Vec<u32>) { v.first().unwrap(); } }";
        let f = l6("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 3, "{f:#?}");
        assert_eq!((f[0].line, f[0].rule), (2, Rule::L6));
    }

    #[test]
    fn indexing_fires_but_patterns_and_literals_do_not() {
        let hit = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert_eq!(l6("crates/serve/src/x.rs", hit).len(), 1);
        // Slice pattern, array literal, array type: no receiver before `[`.
        let ok = "fn f() -> [u8; 2] { let [a, b] = [1u8, 2]; [a, b] }";
        assert!(l6("crates/serve/src/x.rs", ok).is_empty());
    }

    #[test]
    fn scope_excludes_non_sim_crates() {
        let src = "fn f(v: Vec<u32>) -> u32 { v[0] }";
        assert!(l6("crates/cli/src/x.rs", src).is_empty());
        assert_eq!(l6("crates/obs/src/x.rs", src).len(), 1);
        // Kernel crates: indexing is left to bounds checks and the audit
        // oracles, but `.unwrap()` still fires.
        let kernel = "fn f(v: &[u32], i: usize) -> u32 {\n\
                          v[i] + *v.first().unwrap()\n\
                      }";
        let f = l6("crates/lp/src/x.rs", kernel);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(
            (f[0].line, f[0].col, f[0].len),
            (2, 19, 6),
            "span of `unwrap`"
        );
    }

    #[test]
    fn allow_requires_a_reason_for_l6() {
        let no_reason = "fn f(v: &[u32]) -> u32 {\n\
                             // lint:allow(L6)\n\
                             v[0]\n\
                         }";
        assert_eq!(l6("crates/serve/src/x.rs", no_reason).len(), 1);
        let with_reason = "fn f(v: &[u32]) -> u32 {\n\
                               // lint:allow(l6, \"len checked by caller\")\n\
                               v[0]\n\
                           }";
        assert!(l6("crates/serve/src/x.rs", with_reason).is_empty());
    }
}
