//! Rule implementations.
//!
//! * [`token`] — the original per-file token rules (L1–L5).
//! * [`l6`] / [`l7`] / [`l8`] — the dataflow rules, built on the syntax
//!   layer ([`crate::syntax`]) and, for L7, the workspace call graph
//!   ([`crate::callgraph`]).

mod l6;
mod l7;
mod l8;
mod token;

pub use l6::{check_l6, l6_applies};
pub use l7::check_l7;
pub use l8::check_l8;
pub use token::{
    check_l1, check_l2, check_l3, check_l4, check_l5, l1_applies, l3_applies, l4_applies,
    l5_applies,
};

use crate::lexer::Tok;
use crate::Rule;

/// Integration tests and examples live outside `#[cfg(test)]` but are
/// still non-production code: the dataflow rules (L6–L8) skip them, like
/// they skip `#[cfg(test)]` regions.
pub(crate) fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/examples/")
}

/// A finding before path/source-line context is attached.
#[derive(Debug)]
pub struct RawFinding {
    pub rule: Rule,
    pub line: u32,
    pub col: u32,
    pub len: u32,
    pub message: String,
}

pub(crate) fn finding(rule: Rule, tok: &Tok, len: u32, message: String) -> RawFinding {
    RawFinding {
        rule,
        line: tok.line,
        col: tok.col,
        len,
        message,
    }
}
