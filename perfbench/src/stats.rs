//! The benchmark's own arithmetic: nearest-rank percentiles with a
//! sample-count guard, medians, span self time and coverage, and open-loop
//! latency accounting. Everything here is pure and unit-tested.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it claims to describe is a handful of
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice: the
/// sample at 1-based rank `ceil(q * n)`. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if !percentile_allowed(n, q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted.get(rank - 1).copied()
}

/// Whether `n` samples leave [`MIN_BEYOND`] beyond the `q`-quantile.
pub fn percentile_allowed(n: usize, q: f64) -> bool {
    // The product is at most `n`, so the cast back to usize is exact.
    n > 0 && n - ((q * n as f64).ceil() as usize).clamp(1, n) >= MIN_BEYOND
}

/// Sorts samples ascending (total order, so a NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the middle pair for even sizes);
/// zero for an empty one.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `num / den`, or zero when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median across inputs of each input's median: every input weighs the
/// same however often it ran.
pub fn by_input_median(samples: &[(u64, f64)]) -> f64 {
    let mut inputs: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(i, v) in samples {
        inputs.entry(i).or_default().push(v);
    }
    let per_input: Vec<f64> = inputs.values().map(|v| median(v)).collect();
    median(&per_input)
}

/// Length of `[start, end)` covered by the union of `children`, each
/// clipped to the interval first. Overlapping children count once.
pub fn covered(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    (end - start) - covered(start, end, children)
}

/// Share of a root span that its layers' spans explain; the traced run
/// fails when this falls below [`MIN_EXPLAINED`].
pub fn explained_share(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    ratio(covered(start, end, children), end - start)
}

/// The reconciliation floor of the traced run.
pub const MIN_EXPLAINED: f64 = 0.95;

/// Fails a traced run whose layers explain less than [`MIN_EXPLAINED`] of
/// the root span: the rest would be time no layer accounts for.
pub fn reconcile(explained: f64) -> Result<(), String> {
    if explained >= MIN_EXPLAINED {
        Ok(())
    } else {
        Err(format!(
            "layers explain {:.1}% of the root span, below the {:.0}% floor",
            100.0 * explained,
            100.0 * MIN_EXPLAINED
        ))
    }
}

/// Open-loop accounting for one job: when it was due to be sent, when the
/// generator actually sent it, and when its completion was seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopJob {
    /// Scheduled send time (seconds since the loop started).
    pub due: f64,
    /// Time the submit call started.
    pub sent: f64,
    /// Time the job's completion event arrived, if it did.
    pub done: Option<f64>,
}

/// Latency of each job measured from its *due* time, so a generator stall
/// is charged to every job it delayed, plus the generator's worst lateness
/// (how far behind schedule a send started). `Err` names the first job
/// whose completion never arrived.
pub fn open_loop(jobs: &[OpenLoopJob]) -> Result<(Vec<f64>, f64), usize> {
    let mut latencies = Vec::with_capacity(jobs.len());
    let mut late: f64 = 0.0;
    for (i, j) in jobs.iter().enumerate() {
        let done = j.done.ok_or(i)?;
        latencies.push(done - j.due);
        late = late.max(j.sent - j.due);
    }
    Ok((latencies, late))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(200), 0.501), Some(101.0));
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&ramp(100), 0.99), None);
        // p90 of 100 has exactly ten beyond: allowed; of 99, nine: refused.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn inputs_weigh_the_same_however_often_they_ran() {
        // Input 0 ran three times; a plain median would return 10.
        let s = [(0, 10.0), (0, 10.0), (0, 10.0), (1, 1.0), (2, 2.0)];
        assert_eq!(by_input_median(&s), 2.0);
        assert_eq!(by_input_median(&[(4, 3.0), (4, 5.0)]), 4.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 10); children [1, 4) and [3, 6) overlap on [3, 4),
        // [8, 12) sticks out past the parent's end.
        let kids = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)];
        assert!((covered(0.0, 10.0, &kids) - 7.0).abs() < 1e-12);
        assert!((self_time(0.0, 10.0, &kids) - 3.0).abs() < 1e-12);
        // Nested and identical children add nothing.
        let nested = [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)];
        assert!((self_time(0.0, 10.0, &nested) - 4.0).abs() < 1e-12);
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
    }

    #[test]
    fn reconciliation_fails_below_the_floor() {
        // Children cover 9.6 of 10 s: passes; 9.4 of 10 s: fails.
        let ok = [(0.0, 5.0), (5.2, 9.8)];
        let bad = [(0.0, 5.0), (5.3, 9.7)];
        assert!(reconcile(explained_share(0.0, 10.0, &ok)).is_ok());
        assert!(reconcile(explained_share(0.0, 10.0, &bad)).is_err());
        assert!(reconcile(explained_share(1.0, 1.0, &ok)).is_err());
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_delayed_job() {
        // Job 1 was due at 1.0 but the generator only sent it at 1.5.
        let jobs = [
            OpenLoopJob {
                due: 0.0,
                sent: 0.0,
                done: Some(0.2),
            },
            OpenLoopJob {
                due: 1.0,
                sent: 1.5,
                done: Some(1.7),
            },
            OpenLoopJob {
                due: 2.0,
                sent: 2.0,
                done: Some(2.1),
            },
        ];
        let (lat, late) = open_loop(&jobs).unwrap();
        let want = [0.2, 0.7, 0.1];
        for (l, w) in lat.iter().zip(want) {
            assert!((l - w).abs() < 1e-12, "{lat:?}");
        }
        assert!((late - 0.5).abs() < 1e-12);
    }

    #[test]
    fn open_loop_reports_a_lost_completion() {
        let jobs = [
            OpenLoopJob {
                due: 0.0,
                sent: 0.0,
                done: Some(0.1),
            },
            OpenLoopJob {
                due: 1.0,
                sent: 1.0,
                done: None,
            },
        ];
        assert_eq!(open_loop(&jobs), Err(1));
    }
}
