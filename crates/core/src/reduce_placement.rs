//! Reduce-stage task placement (§3.2): the `LP: reduce-task placement`.
//!
//! The decision is the fraction `r_x` of the stage's reduce tasks placed at
//! each site, minimizing the sum of shuffle time (bounded below by the
//! bottleneck upload `I_x (1 - r_x) / B_x^up` and download
//! `r_x Σ_{y≠x} I_y / B_x^down`) and multi-wave compute time
//! `t_red · n_red · r_x / S_x`. Iridium is the special case that drops the
//! compute term.

use crate::analytic::StageTimes;
use tetrium_jobs::largest_remainder_round;
use tetrium_lp::{LpError, Problem, Relation};

/// Inputs of one reduce-stage placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceProblem {
    /// Remaining intermediate volume at each site in GB (`I_x^shufl`).
    pub shuffle_gb: Vec<f64>,
    /// Remaining (unlaunched) reduce tasks.
    pub num_tasks: usize,
    /// Estimated compute seconds per task (`t_red`).
    pub task_secs: f64,
    /// Uplink capacities in GB/s.
    pub up_gbps: Vec<f64>,
    /// Downlink capacities in GB/s.
    pub down_gbps: Vec<f64>,
    /// Slots per site (`S_x`).
    pub slots: Vec<usize>,
    /// Optional WAN budget in GB (§4.3): `Σ_x I_x (1 - r_x) <= W`.
    pub wan_budget_gb: Option<f64>,
    /// When `true`, ignore the compute term — Iridium's shuffle-only model
    /// (used by the Iridium baseline and the `+I-task` ablation).
    pub network_only: bool,
    /// Output volume (GB) this stage will hand to a downstream stage, if
    /// any. When set, the objective gains a lookahead term `T_next >=
    /// out · r_x / B_x^up`: the time a later shuffle will need to drain
    /// this stage's output from site `x`. Without it the stage-by-stage
    /// model happily parks intermediate data behind thin uplinks, which
    /// §3.4 identifies as the forward planner's blind spot.
    pub next_stage_out_gb: Option<f64>,
}

impl ReduceProblem {
    /// Whether [`solve_reduce_placement`] runs the LP for this problem; a
    /// stage with no tasks left gets an empty placement instead.
    pub(crate) fn needs_lp(&self) -> bool {
        self.num_tasks > 0
    }
}

/// Result of a reduce-stage placement.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducePlacement {
    /// Fraction of reduce tasks at each site (`r_x`).
    pub fractions: Vec<f64>,
    /// LP-optimal shuffle and (fractional-wave) compute times.
    pub times: StageTimes,
    /// Integral task counts per site.
    pub tasks_at: Vec<usize>,
    /// Slot demand `d_x = min(S_x, tasks_at[x])`.
    pub slot_demand: Vec<usize>,
    /// WAN bytes the shuffle moves under this placement, in GB.
    pub wan_gb: f64,
}

/// Solves the reduce-task placement LP.
///
/// # Panics
///
/// Panics if vector lengths disagree.
///
/// # Errors
///
/// Propagates LP failures; the unbudgeted model is always feasible, and a
/// WAN budget below the minimum feasible shuffle volume yields
/// [`LpError::Infeasible`] (callers should budget with [`crate::wan_budget`],
/// which never goes below the minimum).
pub fn solve_reduce_placement(p: &ReduceProblem) -> Result<ReducePlacement, LpError> {
    reduce_placement(p, true)
}

/// [`solve_reduce_placement`], with the LP started from the `W_min` plan
/// when `start`; the tests solve it cold too and require the same bits.
fn reduce_placement(p: &ReduceProblem, start: bool) -> Result<ReducePlacement, LpError> {
    let n = p.shuffle_gb.len();
    assert_eq!(p.up_gbps.len(), n);
    assert_eq!(p.down_gbps.len(), n);
    assert_eq!(p.slots.len(), n);
    let total: f64 = p.shuffle_gb.iter().sum();

    if !p.needs_lp() {
        return Ok(ReducePlacement {
            fractions: vec![0.0; n],
            times: StageTimes {
                transfer: 0.0,
                compute: 0.0,
            },
            tasks_at: vec![0; n],
            slot_demand: vec![0; n],
            wan_gb: 0.0,
        });
    }

    // Variables: r[x] (n), then T_shufl, T_red, T_next.
    let t_shufl = n;
    let t_red = n + 1;
    let t_next = n + 2;
    let mut lp = Problem::minimize(n + 3);
    if p.network_only {
        lp.set_objective(&[(t_shufl, 1.0)]);
    } else {
        lp.set_objective(&[(t_shufl, 1.0), (t_red, 1.0)]);
    }
    if let Some(out) = p.next_stage_out_gb {
        if !p.network_only && out > 0.0 {
            lp.add_objective_term(t_next, 1.0);
            for x in 0..n {
                // out * r_x <= T_next * up_x.
                lp.add_constraint(&[(x, out), (t_next, -p.up_gbps[x])], Relation::Le, 0.0);
            }
        }
    }

    // Upload at x: I_x (1 - r_x) <= T_shufl * up_x.
    for x in 0..n {
        lp.add_constraint(
            &[(x, -p.shuffle_gb[x]), (t_shufl, -p.up_gbps[x])],
            Relation::Le,
            -p.shuffle_gb[x],
        );
    }
    // Download at x: (total - I_x) r_x <= T_shufl * down_x.
    for x in 0..n {
        lp.add_constraint(
            &[(x, total - p.shuffle_gb[x]), (t_shufl, -p.down_gbps[x])],
            Relation::Le,
            0.0,
        );
    }
    // Compute at x: t * n_red * r_x <= T_red * S_x.
    if !p.network_only {
        for x in 0..n {
            lp.add_constraint(
                &[
                    (x, p.task_secs * p.num_tasks as f64),
                    (t_red, -(p.slots[x] as f64)),
                ],
                Relation::Le,
                0.0,
            );
        }
    }
    // Fractions sum to one.
    let ones: Vec<(usize, f64)> = (0..n).map(|x| (x, 1.0)).collect();
    lp.add_constraint(&ones, Relation::Eq, 1.0);
    // WAN budget: sum_x I_x (1 - r_x) <= W, i.e. -sum I_x r_x <= W - total.
    if let Some(w) = p.wan_budget_gb {
        let terms: Vec<(usize, f64)> = (0..n).map(|x| (x, -p.shuffle_gb[x])).collect();
        lp.add_constraint(&terms, Relation::Le, w.max(0.0) - total);
    }

    // Start from the `W_min` plan (Eqs. 11–13), a feasible point in closed
    // form: every reduce task at the site holding the most data, so the
    // shuffle moves the least data possible, and each time is the largest
    // that placement needs. The answer does not depend on it
    // (`Problem::set_start`).
    if start && n > 0 {
        let home = (0..n).fold(0, |k, x| {
            if p.shuffle_gb[x] > p.shuffle_gb[k] {
                x
            } else {
                k
            }
        });
        let mut point = vec![0.0; n + 3];
        point[home] = 1.0;
        point[t_shufl] = (0..n)
            .filter(|&x| x != home)
            .map(|x| p.shuffle_gb[x] / p.up_gbps[x])
            .fold((total - p.shuffle_gb[home]) / p.down_gbps[home], f64::max);
        if !p.network_only {
            point[t_red] = p.task_secs * p.num_tasks as f64 / p.slots[home] as f64;
            if let Some(out) = p.next_stage_out_gb.filter(|&out| out > 0.0) {
                point[t_next] = out / p.up_gbps[home];
            }
        }
        lp.set_start(&point);
    }

    let sol = lp.solve()?;
    let fractions: Vec<f64> = (0..n).map(|x| sol.values[x].max(0.0)).collect();
    let tasks_at = largest_remainder_round(&fractions, p.num_tasks);
    let wan_gb: f64 = (0..n).map(|x| p.shuffle_gb[x] * (1.0 - fractions[x])).sum();
    // Recompute the compute time when the LP ignored it (Iridium).
    let compute = if p.network_only {
        let mut c = 0.0f64;
        for x in 0..n {
            c = c.max(p.task_secs * p.num_tasks as f64 * fractions[x] / p.slots[x] as f64);
        }
        c
    } else {
        sol.values[t_red].max(0.0)
    };
    let slot_demand = (0..n).map(|x| p.slots[x].min(tasks_at[x])).collect();
    Ok(ReducePlacement {
        fractions,
        times: StageTimes {
            transfer: sol.values[t_shufl].max(0.0),
            compute,
        },
        tasks_at,
        slot_demand,
        wan_gb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Fig 4 reduce stage: intermediate (10, 15, 25) GB, 500 tasks of
    /// 1 s.
    fn fig4_problem(network_only: bool) -> ReduceProblem {
        ReduceProblem {
            shuffle_gb: vec![10.0, 15.0, 25.0],
            num_tasks: 500,
            task_secs: 1.0,
            up_gbps: vec![5.0, 1.0, 2.0],
            down_gbps: vec![5.0, 1.0, 5.0],
            slots: vec![40, 10, 20],
            wan_budget_gb: None,
            network_only,
            next_stage_out_gb: None,
        }
    }

    #[test]
    fn iridium_mode_minimizes_shuffle_to_paper_value() {
        let placement = solve_reduce_placement(&fig4_problem(true)).unwrap();
        // The paper reports Iridium's optimal shuffle time as 10.5 s on this
        // instance.
        assert!(
            (placement.times.transfer - 10.5).abs() < 0.01,
            "shuffle {}",
            placement.times.transfer
        );
        let s: f64 = placement.fractions.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tetrium_mode_beats_iridium_end_to_end() {
        let tet = solve_reduce_placement(&fig4_problem(false)).unwrap();
        let iri = solve_reduce_placement(&fig4_problem(true)).unwrap();
        // Iridium's shuffle is no worse than Tetrium's (it optimizes only
        // that), but Tetrium's total is strictly better on this instance.
        assert!(iri.times.transfer <= tet.times.transfer + 1e-6);
        assert!(tet.times.total() < iri.times.total() - 1.0);
    }

    #[test]
    fn tasks_round_to_total() {
        let placement = solve_reduce_placement(&fig4_problem(false)).unwrap();
        assert_eq!(placement.tasks_at.iter().sum::<usize>(), 500);
        assert_eq!(
            placement.slot_demand,
            placement
                .tasks_at
                .iter()
                .zip(&[40usize, 10, 20])
                .map(|(&t, &s)| t.min(s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn wan_budget_zero_keeps_all_data_in_place_infeasible() {
        // With budget 0, every r_x must make I_x (1-r_x) = 0 at every site
        // with data, which is impossible (fractions sum to 1 over 3 sites).
        let mut p = fig4_problem(false);
        p.wan_budget_gb = Some(0.0);
        assert!(solve_reduce_placement(&p).is_err());
    }

    #[test]
    fn wan_budget_at_minimum_is_feasible() {
        // The minimum shuffle volume is total - max_x I_x = 50 - 25 = 25 GB.
        let mut p = fig4_problem(false);
        p.wan_budget_gb = Some(25.0);
        let placement = solve_reduce_placement(&p).unwrap();
        assert!((placement.wan_gb - 25.0).abs() < 1e-6);
        // Everything must sit at site 2 (the one with 25 GB).
        assert!((placement.fractions[2] - 1.0).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Started from the `W_min` plan or cold, the reduce LP answers
        /// with the same bits, or fails the same way. Sites without data,
        /// the shuffle-only model, a lookahead volume and a WAN budget
        /// exactly at the `reduce_min_wan` floor (where the start is tight
        /// to rounding) are all drawn.
        #[test]
        fn w_min_start_keeps_the_answer_bits(
            n in 1usize..40,
            gb in proptest::collection::vec(0u8..20, 40),
            links in proptest::collection::vec(1u8..50, 80),
            slots in proptest::collection::vec(1usize..30, 40),
            num_tasks in 1usize..300,
            task_secs in 0.1f64..5.0,
            network_only in proptest::bool::ANY,
            out in proptest::option::of(0.0f64..30.0),
            budget in 0u8..4,
            above in 0.0f64..1.0,
        ) {
            // Half the draws leave a site without data.
            let shuffle_gb: Vec<f64> =
                gb[..n].iter().map(|&g| f64::from(g.saturating_sub(9)) * 1.3).collect();
            let floor = crate::wan::reduce_min_wan(&shuffle_gb);
            let total: f64 = shuffle_gb.iter().sum();
            let p = ReduceProblem {
                shuffle_gb,
                num_tasks,
                task_secs,
                up_gbps: links[..n].iter().map(|&v| f64::from(v) * 0.1).collect(),
                down_gbps: links[40..40 + n].iter().map(|&v| f64::from(v) * 0.1).collect(),
                slots: slots[..n].to_vec(),
                wan_budget_gb: match budget {
                    0 => None,
                    1 => Some(floor),
                    _ => Some(floor + above * (total - floor)),
                },
                network_only,
                next_stage_out_gb: out,
            };
            let started = reduce_placement(&p, true);
            let cold = reduce_placement(&p, false);
            prop_assert_eq!(&started, &cold);
            if let (Ok(started), Ok(cold)) = (started, cold) {
                let bits = |pl: &ReducePlacement| {
                    let mut b: Vec<u64> = pl.fractions.iter().map(|v| v.to_bits()).collect();
                    b.extend([pl.times.transfer, pl.times.compute, pl.wan_gb].map(f64::to_bits));
                    b
                };
                prop_assert_eq!(bits(&started), bits(&cold));
            }
        }
    }

    #[test]
    fn empty_stage_yields_empty_placement() {
        let mut p = fig4_problem(false);
        p.num_tasks = 0;
        let placement = solve_reduce_placement(&p).unwrap();
        assert_eq!(placement.tasks_at, vec![0, 0, 0]);
        assert_eq!(placement.times.total(), 0.0);
    }

    #[test]
    fn single_site_takes_everything() {
        let p = ReduceProblem {
            shuffle_gb: vec![7.0],
            num_tasks: 10,
            task_secs: 1.0,
            up_gbps: vec![1.0],
            down_gbps: vec![1.0],
            slots: vec![2],
            wan_budget_gb: None,
            network_only: false,
            next_stage_out_gb: None,
        };
        let placement = solve_reduce_placement(&p).unwrap();
        assert_eq!(placement.tasks_at, vec![10]);
        assert_eq!(placement.wan_gb, 0.0);
        assert!((placement.times.compute - 5.0).abs() < 1e-6);
    }
}
