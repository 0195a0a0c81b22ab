//! Solver types: errors, solutions and tolerances.

/// Absolute tolerance used for all feasibility and pivoting comparisons.
///
/// Rows are rescaled to unit max-magnitude before solving, so an absolute
/// tolerance behaves like a relative one.
pub(crate) const EPS: f64 = 1e-9;

/// Tolerance for membership of the primary-optimal face during the
/// canonical-path secondary cleanup: a column may enter only while its
/// primary reduced cost is within this of zero. Looser than [`EPS`] so that
/// float noise in the priced cost row cannot make two pivot paths (the
/// presolved and the unreduced solve) disagree about which columns lie on
/// the face.
pub(crate) const FACE_EPS: f64 = 1e-7;

/// Threshold below which a vertex coordinate does not count toward the
/// vertex support during canonical refinement.
pub(crate) const SUPPORT_EPS: f64 = 1e-7;

/// Errors reported by the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No assignment satisfies all constraints.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The pivot-iteration limit was exceeded (numerical trouble).
    IterationLimit,
    /// A basis refactorization found the basis numerically singular.
    SingularBasis,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::SingularBasis => write!(f, "simplex basis is numerically singular"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution to a linear program.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Value of each decision variable (non-negative).
    pub values: Vec<f64>,
    /// Objective value at the optimum (in the problem's original sense).
    pub objective: f64,
    /// Shadow price of each constraint, in input order: the marginal change
    /// of the optimal objective per unit increase of that constraint's
    /// right-hand side (in the problem's original sense). Zero for
    /// non-binding constraints; one valid assignment when duals are
    /// degenerate. In the placement models these read as "seconds saved per
    /// extra GB/s on this link / per extra slot at this site".
    pub duals: Vec<f64>,
    /// Number of simplex iterations performed (basis changes plus bound
    /// flips) in phase 1, phase 2 and the face cleanup. A solve started
    /// from a usable start point ([`crate::Problem::set_start`]) runs no
    /// phase 1, so it usually counts fewer than a cold one.
    pub pivots: usize,
}
