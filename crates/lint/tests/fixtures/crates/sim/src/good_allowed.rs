//! Known-good fixture: the hazard below carries an allowlist escape, so
//! the lint must report zero findings for this file.

pub fn cmp_allowed(xs: &mut [f64]) {
    // lint:allow(L2) -- fixture exercising the line-scope escape
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
