//! Linear-program solver for Tetrium's placement models.
//!
//! Tetrium's task-placement models (map-stage, reduce-stage, WAN-budget
//! variants) are linear programs — on the order of `sites × dest_limit`
//! variables per stage. The original system calls out to Gurobi; this crate
//! is the from-scratch substitute. The default backend is a **sparse
//! revised simplex** (module `revised`): CSC-stored constraints, an LU +
//! product-form basis inverse with periodic refactorization, and native
//! bounded-variable handling so box constraints (including `ub = 0` pins)
//! never materialize as rows. A presolve (module `presolve`) first sets aside the
//! rows that cannot bind (`≤` rows that hold for every `x ≥ 0`, `=` rows
//! that only fix one column), so the simplex runs on the rest while the
//! answer is still extracted on the full system. Under `--features audit`
//! every answer is checked by its optimality certificate and re-solved
//! without the presolve, which must give the same bits.
//!
//! The solver supports:
//!
//! - minimization and maximization objectives,
//! - `≤`, `≥` and `=` constraints with arbitrary-sign right-hand sides,
//! - non-negative decision variables with optional upper bounds
//!   ([`Problem::set_upper`]),
//! - infeasibility and unboundedness detection,
//! - normalized pricing (the largest reduced-cost violation squared over
//!   the column's squared norm enters) for a warm-up, then Bland's
//!   anti-cycling rule, so degenerate placement instances cannot loop
//!   forever; the rule picks the pivot path only, never the answer,
//! - canonical extraction: a face cleanup plus a refinement from the
//!   original data make the reported values a function of the problem, not
//!   of the pivot path, so the presolved and the unreduced solve return
//!   bit-identical answers.
//!
//! # Examples
//!
//! ```
//! use tetrium_lp::{Problem, Relation};
//!
//! // Minimize x + 2y subject to x + y >= 4, y <= 3, x, y >= 0.
//! let mut p = Problem::minimize(2);
//! p.set_objective(&[(0, 1.0), (1, 2.0)]);
//! p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
//! p.set_upper(1, 3.0); // y <= 3 as a native bound, not a row.
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 4.0).abs() < 1e-9);
//! assert!((sol.values[0] - 4.0).abs() < 1e-9);
//! ```

// Reachable panics are banned outside tests (DESIGN.md §10.1): an
// intentional one carries `#[expect(clippy::…, reason = "…")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod norm;
mod presolve;
mod problem;
mod revised;
mod sparsela;
mod types;

pub use problem::{Constraint, Problem, Relation, Sense};
pub use types::{LpError, Solution};

#[cfg(test)]
mod tests;
