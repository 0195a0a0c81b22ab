//! Closed-form stage-duration evaluation.
//!
//! Given a concrete integral placement, these functions compute the
//! worst-case stage duration exactly as the paper's worked example does
//! (Fig 3/4): network transfer time is the bottleneck link's duration, and
//! compute time is `t · ⌈tasks/slots⌉` waves at the bottleneck site. The
//! same accounting ranks jobs by remaining processing time in the scheduler.

/// Network and compute components of one stage's duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimes {
    /// Network transfer time in seconds (`T_aggr` for map, `T_shufl` for
    /// reduce).
    pub transfer: f64,
    /// Compute time in seconds (`T_map` / `T_red`).
    pub compute: f64,
}

impl StageTimes {
    /// Total stage duration under the paper's worst-case accounting (no
    /// overlap between transfer and compute).
    pub fn total(&self) -> f64 {
        self.transfer + self.compute
    }
}

/// Evaluates a map-stage placement given task counts.
///
/// `moved[x][y]` is the volume (GB) read from site `x` by tasks running at
/// site `y`; `tasks_at[y]` is the number of map tasks placed at `y`.
/// `ceil_waves` selects integral waves (`⌈tasks/slots⌉`, the worked-example
/// accounting) versus fractional waves (the LP's relaxation).
///
/// # Panics
///
/// Panics if dimensions disagree or any slot count is zero.
#[allow(
    clippy::too_many_arguments,
    reason = "the stage-time model's inputs, one argument each"
)]
pub fn evaluate_map_counts(
    moved: &[Vec<f64>],
    tasks_at: &[usize],
    task_secs: f64,
    up_gbps: &[f64],
    down_gbps: &[f64],
    slots: &[usize],
    ceil_waves: bool,
) -> StageTimes {
    let n = slots.len();
    assert_eq!(moved.len(), n);
    assert!(moved.iter().all(|row| row.len() == n));
    assert_eq!(tasks_at.len(), n);
    assert!(slots.iter().all(|&s| s > 0), "sites must have slots");

    let mut transfer = 0.0f64;
    for x in 0..n {
        let upload: f64 = (0..n).filter(|&y| y != x).map(|y| moved[x][y]).sum();
        let download: f64 = (0..n).filter(|&y| y != x).map(|y| moved[y][x]).sum();
        transfer = transfer
            .max(upload / up_gbps[x])
            .max(download / down_gbps[x]);
    }
    let mut compute = 0.0f64;
    for x in 0..n {
        let waves = waves(tasks_at[x], slots[x], ceil_waves);
        compute = compute.max(task_secs * waves);
    }
    StageTimes { transfer, compute }
}

/// Evaluates a reduce-stage placement.
///
/// `shuffle_gb[x]` is the intermediate volume at site `x`; `fraction[x]`
/// the fraction of reduce work placed at `x` (from task counts or the LP);
/// `tasks_at[x]` the integral reduce-task counts used for wave accounting.
///
/// Upload at `x` is `I_x · (1 - r_x)`, download is `r_x · Σ_{y≠x} I_y`
/// (Eqs. 7–8 of the paper).
///
/// # Panics
///
/// Panics if dimensions disagree or any slot count is zero.
#[allow(
    clippy::too_many_arguments,
    reason = "the stage-time model's inputs, one argument each"
)]
pub fn evaluate_reduce_counts(
    shuffle_gb: &[f64],
    fraction: &[f64],
    tasks_at: &[usize],
    task_secs: f64,
    up_gbps: &[f64],
    down_gbps: &[f64],
    slots: &[usize],
    ceil_waves: bool,
) -> StageTimes {
    let n = slots.len();
    assert_eq!(shuffle_gb.len(), n);
    assert_eq!(fraction.len(), n);
    assert_eq!(tasks_at.len(), n);
    assert!(slots.iter().all(|&s| s > 0), "sites must have slots");
    let total: f64 = shuffle_gb.iter().sum();

    let mut transfer = 0.0f64;
    for x in 0..n {
        let upload = shuffle_gb[x] * (1.0 - fraction[x]);
        let download = (total - shuffle_gb[x]) * fraction[x];
        transfer = transfer
            .max(upload / up_gbps[x])
            .max(download / down_gbps[x]);
    }
    let mut compute = 0.0f64;
    for x in 0..n {
        let waves = waves(tasks_at[x], slots[x], ceil_waves);
        compute = compute.max(task_secs * waves);
    }
    StageTimes { transfer, compute }
}

fn waves(tasks: usize, slots: usize, ceil: bool) -> f64 {
    if tasks == 0 {
        return 0.0;
    }
    if ceil {
        tasks.div_ceil(slots) as f64
    } else {
        tasks as f64 / slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The three-site setup of Fig 4: slots 40/10/20, up 5/1/2 GB/s,
    // down 5/1/5 GB/s, input 20/30/50 GB, 1000 map tasks of 2 s (100 MB
    // partitions), 500 reduce tasks of 1 s, intermediate = half of input.
    const UP: [f64; 3] = [5.0, 1.0, 2.0];
    const DOWN: [f64; 3] = [5.0, 1.0, 5.0];
    const SLOTS: [usize; 3] = [40, 10, 20];

    #[test]
    fn iridium_map_stage_is_60s() {
        // All map tasks local: no transfers; bottleneck site 2 runs
        // 300 tasks over 10 slots: 30 waves x 2 s = 60 s.
        let moved = vec![vec![0.0; 3]; 3];
        let t = evaluate_map_counts(&moved, &[200, 300, 500], 2.0, &UP, &DOWN, &SLOTS, true);
        assert_eq!(t.transfer, 0.0);
        assert!((t.compute - 60.0).abs() < 1e-9);
    }

    #[test]
    fn iridium_reduce_stage_matches_paper() {
        // Intermediate (10, 15, 25); placement (0, 150, 350)/500.
        let shuffle = [10.0, 15.0, 25.0];
        let frac = [0.0, 0.3, 0.7];
        let t = evaluate_reduce_counts(
            &shuffle,
            &frac,
            &[0, 150, 350],
            1.0,
            &UP,
            &DOWN,
            &SLOTS,
            true,
        );
        // Site 2 download: (10+25)*0.3/1 = 10.5 s; compute site 3:
        // ceil(350/20) = 18 waves x 1 s.
        assert!((t.transfer - 10.5).abs() < 1e-9);
        assert!((t.compute - 18.0).abs() < 1e-9);
        assert!((t.total() - 28.5).abs() < 1e-9);
    }

    #[test]
    fn better_approach_matches_paper() {
        // Map: move 15.7 GB out of site 2 and 21.4 GB out of site 3 to
        // site 1; tasks (571, 143, 286).
        let mut moved = vec![vec![0.0; 3]; 3];
        moved[1][0] = 15.7;
        moved[2][0] = 21.4;
        let tm = evaluate_map_counts(&moved, &[571, 143, 286], 2.0, &UP, &DOWN, &SLOTS, true);
        // Upload bottleneck at site 2: 15.7/1 = 15.7 s; compute 15 waves x 2.
        assert!((tm.transfer - 15.7).abs() < 1e-9);
        assert!((tm.compute - 30.0).abs() < 1e-9);

        // Reduce: intermediate (28.55, 7.15, 14.3), fractions
        // (0.571, 0.143, 0.286), tasks (286, 71, 143).
        let tr = evaluate_reduce_counts(
            &[28.55, 7.15, 14.3],
            &[0.571, 0.143, 0.286],
            &[286, 71, 143],
            1.0,
            &UP,
            &DOWN,
            &SLOTS,
            true,
        );
        // Upload site 2: 7.15 * 0.857 / 1 = 6.128 s; compute 8 waves.
        assert!((tr.transfer - 6.12755).abs() < 1e-3);
        assert!((tr.compute - 8.0).abs() < 1e-9);
        let total = tm.total() + tr.total();
        assert!((total - 59.83).abs() < 0.01, "total {total}");
    }

    #[test]
    fn centralized_matches_paper() {
        // Move everything to site 1: uploads 30/1 = 30 s (site 2),
        // 50/2 = 25 s (site 3); download 80/5 = 16 s. Map: 25 waves x 2 s.
        let mut moved = vec![vec![0.0; 3]; 3];
        moved[1][0] = 30.0;
        moved[2][0] = 50.0;
        let tm = evaluate_map_counts(&moved, &[1000, 0, 0], 2.0, &UP, &DOWN, &SLOTS, true);
        assert!((tm.transfer - 30.0).abs() < 1e-9);
        assert!((tm.compute - 50.0).abs() < 1e-9);
        let tr = evaluate_reduce_counts(
            &[25.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[500, 0, 0],
            1.0,
            &UP,
            &DOWN,
            &SLOTS,
            true,
        );
        assert_eq!(tr.transfer, 0.0);
        assert!((tr.compute - 13.0).abs() < 1e-9);
        assert!((tm.total() + tr.total() - 93.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_waves_are_smaller_than_ceil() {
        let moved = vec![vec![0.0; 2]; 2];
        let frac = evaluate_map_counts(&moved, &[5, 0], 1.0, &[1.0; 2], &[1.0; 2], &[2, 2], false);
        let ceil = evaluate_map_counts(&moved, &[5, 0], 1.0, &[1.0; 2], &[1.0; 2], &[2, 2], true);
        assert!((frac.compute - 2.5).abs() < 1e-12);
        assert!((ceil.compute - 3.0).abs() < 1e-12);
    }
}
