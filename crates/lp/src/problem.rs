//! Problem-construction API: variables, objective, constraints, bounds.

use crate::norm::NormSystem;
use crate::presolve::Presolve;
use crate::revised::solve_sparse;
use crate::types::{LpError, Solution};

#[cfg(any(test, feature = "audit"))]
pub(crate) mod certify;

/// Direction of the objective function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Relation between a constraint's left-hand side and its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Left-hand side must be less than or equal to the right-hand side.
    Le,
    /// Left-hand side must be greater than or equal to the right-hand side.
    Ge,
    /// Left-hand side must equal the right-hand side.
    Eq,
}

/// One constraint of a [`Problem`], borrowed from its row storage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Constraint<'a> {
    /// `(variable index, coefficient)` pairs as added; indices may repeat
    /// (summed).
    pub terms: &'a [(usize, f64)],
    /// The relation between the linear form and `rhs`.
    pub relation: Relation,
    /// Right-hand-side constant.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are indexed `0..num_vars` and implicitly constrained to be
/// non-negative, which matches every model in Tetrium (task fractions,
/// stage durations and WAN volumes are all non-negative quantities). A
/// variable may additionally carry an upper bound ([`Problem::set_upper`]);
/// bounds are handled natively by the solver's bounded ratio test instead
/// of materializing as constraint rows, so pinning a variable to zero or
/// boxing it costs nothing per row. The placement models use `ub = 0` pins
/// for dead sources, which previously required one explicit row per pinned
/// site.
///
/// Constraints are stored flat (CSR): adding one appends its terms to one
/// shared array, so building a problem allocates per array growth, not per
/// row.
#[derive(Debug, Clone)]
pub struct Problem {
    num_vars: usize,
    sense: Sense,
    objective: Vec<f64>,
    /// Constraint `i`'s terms are `terms[row_ptr[i]..row_ptr[i + 1]]`.
    row_ptr: Vec<usize>,
    terms: Vec<(usize, f64)>,
    relation: Vec<Relation>,
    rhs: Vec<f64>,
    upper: Vec<f64>,
    /// A feasible point the solve starts from ([`Problem::set_start`]).
    start: Option<Vec<f64>>,
}

impl Problem {
    /// Creates a minimization problem with `num_vars` non-negative variables.
    pub fn minimize(num_vars: usize) -> Self {
        Self::new(num_vars, Sense::Min)
    }

    /// Creates a maximization problem with `num_vars` non-negative variables.
    pub fn maximize(num_vars: usize) -> Self {
        Self::new(num_vars, Sense::Max)
    }

    /// Creates a problem with the given objective sense.
    pub fn new(num_vars: usize, sense: Sense) -> Self {
        Self {
            num_vars,
            sense,
            objective: vec![0.0; num_vars],
            row_ptr: vec![0],
            terms: Vec::new(),
            relation: Vec::new(),
            rhs: Vec::new(),
            upper: vec![f64::INFINITY; num_vars],
            start: None,
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Total terms over all constraints, as added.
    pub(crate) fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Sets the objective coefficients from sparse `(index, coefficient)`
    /// pairs; unspecified coefficients stay zero, repeated indices are summed.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn set_objective(&mut self, terms: &[(usize, f64)]) {
        self.objective.fill(0.0);
        for &(i, c) in terms {
            assert!(i < self.num_vars, "objective index {i} out of range");
            self.objective[i] += c;
        }
    }

    /// Adds `coefficient` to the objective coefficient of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn add_objective_term(&mut self, var: usize, coefficient: f64) {
        assert!(var < self.num_vars, "objective index {var} out of range");
        self.objective[var] += coefficient;
    }

    /// Sets the upper bound of variable `var` (default `+∞`). `0.0` pins the
    /// variable to zero — the sparse-friendly replacement for an explicit
    /// `x ≤ 0` constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range, or `ub` is NaN or negative.
    pub fn set_upper(&mut self, var: usize, ub: f64) {
        assert!(var < self.num_vars, "bound index {var} out of range");
        assert!(ub >= 0.0, "upper bound must be non-negative, got {ub}");
        self.upper[var] = ub;
    }

    /// The upper bound of variable `var` (`+∞` if never set).
    pub fn upper_bound(&self, var: usize) -> f64 {
        self.upper[var]
    }

    /// Every upper bound, by variable.
    pub(crate) fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Offers `values` (one per variable) as a feasible point for the
    /// solve to start from. The solve begins at a basis whose basic
    /// solution is that point, where a basis of its support reproduces it
    /// within the solver's tolerance, and so skips phase 1; it starts from
    /// the slack basis as usual where the point breaks a row or a bound.
    /// The answer is the same either way: values and objective are those
    /// of the optimal vertex, whatever path reaches it. A point of the
    /// wrong length or with a non-finite value is ignored.
    pub fn set_start(&mut self, values: &[f64]) {
        let usable = values.len() == self.num_vars && values.iter().all(|v| v.is_finite());
        self.start = usable.then(|| values.to_vec());
    }

    /// The constraints added so far, in input order.
    pub(crate) fn constraints(&self) -> impl Iterator<Item = Constraint<'_>> + '_ {
        self.row_ptr
            .windows(2)
            .zip(&self.relation)
            .zip(&self.rhs)
            .map(|((span, &relation), &rhs)| Constraint {
                terms: &self.terms[span[0]..span[1]],
                relation,
                rhs,
            })
    }

    /// Adds a constraint from sparse `(index, coefficient)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or any value is non-finite.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], relation: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(i, c) in terms {
            assert!(i < self.num_vars, "constraint index {i} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.terms.extend_from_slice(terms);
        self.row_ptr.push(self.terms.len());
        self.relation.push(relation);
        self.rhs.push(rhs);
    }

    /// Solves the problem, returning variable values and objective value.
    ///
    /// Runs the sparse revised simplex (module `revised`), from the start
    /// point when one is set and usable ([`Problem::set_start`]), and
    /// extracts the answer canonically — values and duals are re-derived
    /// from the optimal vertex by a deterministic refinement, so the
    /// reported values and objective are a function of the problem, not of
    /// the start or the pivot path. Duals come from the terminal basis, so
    /// at a dual-degenerate optimum they may differ between paths.
    ///
    /// Returns [`LpError::Infeasible`] when no assignment satisfies all
    /// constraints, [`LpError::Unbounded`] when the objective can improve
    /// without limit, and [`LpError::SingularBasis`] when a refactorization
    /// meets a numerically singular basis (no basis repair is attempted).
    pub fn solve(&self) -> Result<Solution, LpError> {
        let result = self.solve_with(Presolve::new, self.start.as_deref());
        #[cfg(feature = "audit")]
        self.audit(&result);
        result
    }

    /// Solves with every row kept and from the slack basis, whatever start
    /// is set: the path a presolved, started answer must match bit for bit
    /// ([`certify::audit`]).
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn solve_unreduced(&self) -> Result<Solution, LpError> {
        self.solve_with(Presolve::keep_all, None)
    }

    /// Runs the sparse simplex on the minimization-sense objective, with
    /// `presolve` choosing the rows it pivots on and from `start` if given,
    /// and flips a maximization's answer back.
    fn solve_with(
        &self,
        presolve: fn(&NormSystem, &[f64]) -> Presolve,
        start: Option<&[f64]>,
    ) -> Result<Solution, LpError> {
        let flip = matches!(self.sense, Sense::Max);
        let objective: Vec<f64> = if flip {
            self.objective.iter().map(|c| -c).collect()
        } else {
            self.objective.clone()
        };
        let mut sol = solve_sparse(self, &objective, presolve, start)?;
        if flip {
            flip_sense(&mut sol);
        }
        Ok(sol)
    }

    /// Audit mode: certifies the answer and re-solves without the presolve
    /// ([`certify::audit`]); on a fault, dumps the problem so the
    /// instance can be replayed as a standalone LP, and stops the run.
    #[cfg(feature = "audit")]
    #[allow(
        clippy::panic,
        reason = "the audit stops the run on an answer it cannot certify"
    )]
    fn audit(&self, result: &Result<Solution, LpError>) {
        if let Err(fault) = certify::audit(self, result) {
            eprintln!(
                "lp audit repro: NUM_VARS {}\nSENSE {:?}\nOBJ {:?}\nUPPER {:?}",
                self.num_vars, self.sense, self.objective, self.upper
            );
            for c in self.constraints() {
                eprintln!("CON {:?} {:?} rhs={:?}", c.relation, c.terms, c.rhs);
            }
            if let Some(start) = &self.start {
                eprintln!("START {start:?}");
            }
            panic!("lp audit: {fault}");
        }
    }
}

/// Flips a minimization-sense solution back to maximization sense.
fn flip_sense(sol: &mut Solution) {
    sol.objective = -sol.objective;
    // Duals computed against the negated objective flip with it.
    for d in &mut sol.duals {
        *d = -*d;
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn objective_terms_accumulate() {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (0, 2.0)]);
        p.add_objective_term(1, 4.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        p.add_constraint(&[(1, 1.0)], Relation::Ge, 1.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let mut p = Problem::minimize(1);
        p.add_constraint(&[(3, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_bound() {
        let mut p = Problem::minimize(1);
        p.set_upper(0, -1.0);
    }
}
