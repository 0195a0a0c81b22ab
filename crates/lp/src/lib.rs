//! Linear-program solver for Tetrium's placement models.
//!
//! Tetrium's task-placement models (map-stage, reduce-stage, WAN-budget
//! variants) are linear programs — on the order of `sites × dest_limit`
//! variables per stage. The original system calls out to Gurobi; this crate
//! is the from-scratch substitute. The default backend is a **sparse
//! revised simplex** ([`revised`]): CSC-stored constraints, an LU +
//! product-form basis inverse with periodic refactorization, and native
//! bounded-variable handling so box constraints (including `ub = 0` pins)
//! never materialize as rows. The original dense tableau survives as an
//! independent audit oracle ([`Problem::solve_dense`], checked automatically
//! under `--features audit`).
//!
//! The solver supports:
//!
//! - minimization and maximization objectives,
//! - `≤`, `≥` and `=` constraints with arbitrary-sign right-hand sides,
//! - non-negative decision variables with optional upper bounds
//!   ([`Problem::set_upper`]),
//! - infeasibility and unboundedness detection,
//! - Bland's anti-cycling rule (engaged after a Dantzig warm-up) so
//!   degenerate placement instances cannot loop forever,
//! - canonical extraction: a face cleanup plus a refinement from the
//!   original data make the reported values a function of the problem, not
//!   of the pivot path, so the sparse solver and the dense oracle return
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

mod norm;
mod problem;
mod revised;
mod simplex;
mod sparsela;
mod types;

pub use problem::{Constraint, Problem, Relation, Sense};
pub use types::{LpError, Solution};

#[cfg(test)]
mod tests;
