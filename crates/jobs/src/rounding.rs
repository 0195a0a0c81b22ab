//! Largest-remainder rounding of fractional allocations.

/// Rounds non-negative `fractions` (summing to roughly 1) into integer counts
/// summing exactly to `total`, using the largest-remainder (Hamilton) method.
///
/// This is how the fractional task placements produced by the LP models are
/// turned into integral task counts per site (§3.1: "the number of tasks at
/// each site needs to be integral; hence, we round the solution").
///
/// Fractions that do not sum to 1 are normalized first. Degenerate inputs
/// are sanitized rather than rejected — the plan cache's rescale path feeds
/// this function distributions that have drifted arbitrarily far from the
/// ones the LP solved: negative, NaN and infinite entries are treated as
/// zero weight, and an input with no positive weight at all (including
/// all-NaN) yields all counts at index 0.
///
/// # Examples
///
/// ```
/// use tetrium_jobs::largest_remainder_round;
/// let counts = largest_remainder_round(&[0.5, 0.3, 0.2], 10);
/// assert_eq!(counts, vec![5, 3, 2]);
/// assert_eq!(largest_remainder_round(&[0.34, 0.33, 0.33], 10), vec![4, 3, 3]);
/// // Degenerate entries carry zero weight instead of panicking.
/// assert_eq!(largest_remainder_round(&[f64::NAN, 1.0, -3.0], 4), vec![0, 4, 0]);
/// ```
pub fn largest_remainder_round(fractions: &[f64], total: usize) -> Vec<usize> {
    let mut counts = vec![0; fractions.len()];
    largest_remainder_round_into(fractions, total, &mut counts, &mut Vec::new());
    counts
}

/// [`largest_remainder_round`] into `counts` (one per fraction, every
/// entry overwritten), with `order` as work space, so a caller that rounds
/// many rows allocates neither per row.
///
/// The leftover units go by remainder, largest first, ties to the lower
/// index. Only the positive remainders are sorted: the zero ones follow
/// them in index order, which is where a full sort puts them, and are
/// listed only when more units are left than positive remainders.
///
/// # Panics
///
/// Panics if `counts` and `fractions` differ in length.
pub fn largest_remainder_round_into(
    fractions: &[f64],
    total: usize,
    counts: &mut [usize],
    order: &mut Vec<(usize, f64)>,
) {
    assert_eq!(counts.len(), fractions.len(), "one count per fraction");
    let n = fractions.len();
    if n == 0 {
        return;
    }
    // Sanitize: non-finite and negative entries contribute nothing. An
    // infinite entry cannot be honored proportionally, so it is dropped
    // rather than letting it absorb the whole allocation and poison the
    // scaling of every other site.
    let clean = |f: &f64| if f.is_finite() { f.max(0.0) } else { 0.0 };
    let sum: f64 = fractions.iter().map(clean).sum();
    if sum <= 0.0 || !sum.is_finite() {
        counts.fill(0);
        counts[0] = total;
        return;
    }
    // Each entry's share of `total` and its remainder past the floor
    // (never negative: the share is finite and not below zero).
    let share = |f: &f64| {
        let s = clean(f) / sum * total as f64;
        (s.floor(), s - s.floor())
    };
    order.clear();
    let mut assigned = 0;
    for (i, (f, count)) in fractions.iter().zip(counts.iter_mut()).enumerate() {
        let (floor, rem) = share(f);
        *count = floor as usize;
        assigned += *count;
        if rem > 0.0 {
            order.push((i, rem));
        }
    }
    let extra = total.saturating_sub(assigned);
    // Sort by remainder descending, breaking ties by index for determinism.
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if extra > order.len() {
        order.extend(
            fractions
                .iter()
                .enumerate()
                .filter(|&(_, f)| share(f).1 == 0.0)
                .map(|(i, _)| (i, 0.0)),
        );
    }
    for k in 0..extra {
        counts[order[k % n].0] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rounding before partial ordering, kept as the reference: every
    /// remainder, zero ones included, goes through one full sort.
    fn reference(fractions: &[f64], total: usize) -> Vec<usize> {
        let n = fractions.len();
        if n == 0 {
            return Vec::new();
        }
        let clean = |f: &f64| if f.is_finite() { f.max(0.0) } else { 0.0 };
        let sum: f64 = fractions.iter().map(clean).sum();
        if sum <= 0.0 || !sum.is_finite() {
            let mut out = vec![0usize; n];
            out[0] = total;
            return out;
        }
        let scaled: Vec<f64> = fractions
            .iter()
            .map(|f| clean(f) / sum * total as f64)
            .collect();
        let mut counts: Vec<usize> = scaled.iter().map(|s| s.floor() as usize).collect();
        let assigned: usize = counts.iter().sum();
        let mut remainder: Vec<(usize, f64)> = scaled
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s - s.floor()))
            .collect();
        remainder.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in 0..total.saturating_sub(assigned) {
            counts[remainder[k % n].0] += 1;
        }
        counts
    }

    /// An entry as the placement models and the plan cache hand them over:
    /// mostly zero or a small fraction, sometimes an exact split, a
    /// negative zero or a degenerate value.
    fn entry() -> impl Strategy<Value = f64> {
        (0u8..14, 0.0f64..1.0, 1u32..8).prop_map(|(kind, u, k)| match kind {
            0..=3 => 0.0,
            4..=7 => u,
            8 | 9 => f64::from(k) / 8.0,
            10 => -0.0,
            11 => f64::NAN,
            12 => f64::INFINITY,
            _ => -u,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The partial ordering rounds as the full sort does, into a
        /// reused row and work space.
        #[test]
        fn matches_the_full_sort(
            rows in proptest::collection::vec(
                (proptest::collection::vec(entry(), 0..40), 0usize..300),
                1..4,
            ),
        ) {
            let mut order = Vec::new();
            for (fractions, total) in &rows {
                let expected = reference(fractions, *total);
                prop_assert_eq!(largest_remainder_round(fractions, *total), expected.clone());
                let mut counts = vec![7; fractions.len()];
                largest_remainder_round_into(fractions, *total, &mut counts, &mut order);
                prop_assert_eq!(counts, expected);
            }
        }
    }

    #[test]
    fn exact_fractions_round_exactly() {
        assert_eq!(largest_remainder_round(&[0.25, 0.75], 4), vec![1, 3]);
    }

    #[test]
    fn sums_are_preserved() {
        for total in [0usize, 1, 7, 100, 501] {
            let counts = largest_remainder_round(&[0.15, 0.05, 0.4, 0.4], total);
            assert_eq!(counts.iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn unnormalized_input_is_normalized() {
        assert_eq!(largest_remainder_round(&[2.0, 2.0], 4), vec![2, 2]);
    }

    #[test]
    fn zero_vector_dumps_on_first() {
        assert_eq!(largest_remainder_round(&[0.0, 0.0, 0.0], 5), vec![5, 0, 0]);
    }

    #[test]
    fn empty_input() {
        assert!(largest_remainder_round(&[], 3).is_empty());
    }

    #[test]
    fn nan_entries_carry_zero_weight() {
        assert_eq!(
            largest_remainder_round(&[f64::NAN, 0.5, 0.5], 4),
            vec![0, 2, 2]
        );
    }

    #[test]
    fn infinite_entries_carry_zero_weight() {
        assert_eq!(
            largest_remainder_round(&[f64::INFINITY, 1.0, 1.0], 4),
            vec![0, 2, 2]
        );
        assert_eq!(
            largest_remainder_round(&[f64::NEG_INFINITY, 1.0], 2),
            vec![0, 2]
        );
    }

    #[test]
    fn negative_entries_carry_zero_weight() {
        assert_eq!(largest_remainder_round(&[-2.0, 1.0, 1.0], 6), vec![0, 3, 3]);
    }

    #[test]
    fn all_degenerate_dumps_on_first() {
        assert_eq!(
            largest_remainder_round(&[f64::NAN, f64::NAN], 3),
            vec![3, 0]
        );
        assert_eq!(
            largest_remainder_round(&[-1.0, f64::INFINITY], 3),
            vec![3, 0]
        );
    }

    #[test]
    fn degenerate_inputs_preserve_totals() {
        for total in [0usize, 1, 17, 500] {
            for fr in [
                vec![f64::NAN, 0.3, f64::INFINITY, 0.7],
                vec![0.0, -0.5, f64::NAN],
                vec![f64::NEG_INFINITY; 4],
            ] {
                let counts = largest_remainder_round(&fr, total);
                assert_eq!(counts.iter().sum::<usize>(), total, "input {fr:?}");
            }
        }
    }
}
