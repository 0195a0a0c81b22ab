//! Reduce-stage task placement (§3.2): the `LP: reduce-task placement`.
//!
//! The decision is the fraction `r_x` of the stage's reduce tasks placed at
//! each site, minimizing the sum of shuffle time (bounded below by the
//! bottleneck upload `I_x (1 - r_x) / B_x^up` and download
//! `r_x Σ_{y≠x} I_y / B_x^down`) and multi-wave compute time
//! `t_red · n_red · r_x / S_x`. Iridium is the special case that drops the
//! compute term.
//!
//! The LP starts from a feasible plan in closed form (DESIGN.md §13.7): the
//! reverse planner's slot-proportional one (§3.4 step (i)), a vertex near
//! the optimum where tasks spread over many sites, or the `W_min` plan of
//! Eqs. 11–13 where that one is no usable vertex. The start picks only
//! where phase 2 begins; the answer has the same bits from either plan or
//! from none.

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
    reduce_placement(p, start_point).map(|(placement, _)| placement)
}

/// The plan a reduce LP starts from: the slot-proportional one
/// ([`slot_point`]) where it is a usable vertex, else the `W_min` one
/// ([`w_min_point`]).
fn start_point(p: &ReduceProblem, total: f64) -> Option<Vec<f64>> {
    slot_point(p, total).or_else(|| w_min_point(p, total))
}

/// [`solve_reduce_placement`] with the LP started from the plan `start`
/// gives (cold for none), and the LP's pivot count. The tests solve each
/// problem from every plan and cold, and require the same bits.
fn reduce_placement(
    p: &ReduceProblem,
    start: fn(&ReduceProblem, f64) -> Option<Vec<f64>>,
) -> Result<(ReducePlacement, usize), LpError> {
    let n = p.shuffle_gb.len();
    assert_eq!(p.up_gbps.len(), n);
    assert_eq!(p.down_gbps.len(), n);
    assert_eq!(p.slots.len(), n);
    let total: f64 = p.shuffle_gb.iter().sum();

    if !p.needs_lp() {
        let empty = ReducePlacement {
            fractions: vec![0.0; n],
            times: StageTimes {
                transfer: 0.0,
                compute: 0.0,
            },
            tasks_at: vec![0; n],
            slot_demand: vec![0; n],
            wan_gb: 0.0,
        };
        return Ok((empty, 0));
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

    if let Some(point) = start(p, total) {
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
    let placement = ReducePlacement {
        fractions,
        times: StageTimes {
            transfer: sol.values[t_shufl].max(0.0),
            compute,
        },
        tasks_at,
        slot_demand,
        wan_gb,
    };
    Ok((placement, sol.pivots))
}

/// The `W_min` plan (Eqs. 11–13), a feasible point of the reduce LP in
/// closed form: every reduce task at the site holding the most data, so
/// the shuffle moves the least data possible, and each time is the
/// largest that placement needs. `None` without sites, or when a time is
/// not finite (a zero link that must carry data). Like [`slot_point`], it
/// lists `r`, then `T_shufl`, `T_red` and `T_next`, the LP's column order.
fn w_min_point(p: &ReduceProblem, total: f64) -> Option<Vec<f64>> {
    let n = p.shuffle_gb.len();
    if n == 0 {
        return None;
    }
    let home = (0..n).fold(0, |k, x| {
        if p.shuffle_gb[x] > p.shuffle_gb[k] {
            x
        } else {
            k
        }
    });
    let mut point = vec![0.0; n + 3];
    point[home] = 1.0;
    point[n] = (0..n)
        .filter(|&x| x != home)
        .map(|x| p.shuffle_gb[x] / p.up_gbps[x])
        .fold((total - p.shuffle_gb[home]) / p.down_gbps[home], f64::max);
    if !p.network_only {
        point[n + 1] = p.task_secs * p.num_tasks as f64 / p.slots[home] as f64;
        if let Some(out) = p.next_stage_out_gb.filter(|&out| out > 0.0) {
            point[n + 2] = out / p.up_gbps[home];
        }
    }
    point.iter().all(|v| v.is_finite()).then_some(point)
}

/// The slot-proportional plan of the reverse planner (§3.4 step (i)):
/// `r_x = S_x / ΣS`, `T_red = max_x t·n·r_x / S_x`, `T_shufl` the largest
/// upload `I_x (1 − r_x) / up_x` or download `(D − I_x) r_x / down_x` and
/// `T_next` the largest drain `out · r_x / up_x`. Every compute row is
/// tight there, so with the row sum and the rows that set the times it is
/// a vertex of the reduce LP, and one near the optimum, which spreads the
/// tasks much as the slots do: phase 2 walks far fewer pivots from it
/// than from `W_min`, where every task sits at one site.
///
/// `None` where it is no usable start: under `network_only` (no compute
/// rows, so the plan is not a vertex), with no slots anywhere, when its
/// WAN `Σ I_x (1 − r_x)` exceeds the budget, or when a time is not finite.
fn slot_point(p: &ReduceProblem, total: f64) -> Option<Vec<f64>> {
    let n = p.shuffle_gb.len();
    let all_slots: usize = p.slots.iter().sum();
    if p.network_only || all_slots == 0 {
        return None;
    }
    let mut point = vec![0.0; n + 3];
    for x in 0..n {
        point[x] = p.slots[x] as f64 / all_slots as f64;
    }
    let r = &point[..n];
    if let Some(w) = p.wan_budget_gb {
        let wan: f64 = (0..n).map(|x| p.shuffle_gb[x] * (1.0 - r[x])).sum();
        if wan > w {
            return None;
        }
    }
    // A site with nothing to move over a zero link reads 0/0 = NaN, which
    // `f64::max` passes over.
    let t_shufl = (0..n)
        .map(|x| {
            let up = p.shuffle_gb[x] * (1.0 - r[x]) / p.up_gbps[x];
            up.max((total - p.shuffle_gb[x]) * r[x] / p.down_gbps[x])
        })
        .fold(0.0, f64::max);
    let work = p.task_secs * p.num_tasks as f64;
    let t_red = (0..n)
        .filter(|&x| p.slots[x] > 0)
        .map(|x| work * r[x] / p.slots[x] as f64)
        .fold(0.0, f64::max);
    let t_next = match p.next_stage_out_gb.filter(|&out| out > 0.0) {
        Some(out) => (0..n)
            .map(|x| out * r[x] / p.up_gbps[x])
            .fold(0.0, f64::max),
        None => 0.0,
    };
    point[n] = t_shufl;
    point[n + 1] = t_red;
    point[n + 2] = t_next;
    point.iter().all(|v| v.is_finite()).then_some(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tetrium_cluster::Cluster;
    use tetrium_workload::ScalePreset;

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

    /// The answer bits of a placement: fractions, times and WAN volume.
    fn bits(pl: &ReducePlacement) -> Vec<u64> {
        let mut b: Vec<u64> = pl.fractions.iter().map(|v| v.to_bits()).collect();
        b.extend([pl.times.transfer, pl.times.compute, pl.wan_gb].map(f64::to_bits));
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Cold, from the `W_min` plan and from the start rule, the reduce
        /// LP answers with the same bits, or fails the same way. The draws
        /// cover both sides of the rule: the slot-proportional plan where
        /// it applies, and `W_min` under the shuffle-only model, under a
        /// WAN budget below the slot-proportional plan's WAN and under one
        /// exactly at the `reduce_min_wan` floor (where the `W_min` start
        /// is tight to rounding). Sites without data and lookahead volumes
        /// are drawn too.
        #[test]
        fn every_start_keeps_the_answer_bits(
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
            let all_slots: usize = slots[..n].iter().sum();
            let slot_wan: f64 = (0..n)
                .map(|x| shuffle_gb[x] * (1.0 - slots[x] as f64 / all_slots as f64))
                .sum();
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
                    // Between the floor and the slot-proportional plan's WAN.
                    2 => Some(floor + above * (slot_wan - floor)),
                    // At or above the slot-proportional plan's WAN.
                    _ => Some(slot_wan + above * (total - slot_wan)),
                },
                network_only,
                next_stage_out_gb: out,
            };
            let slot_start = !network_only && p.wan_budget_gb.is_none_or(|w| slot_wan <= w);
            prop_assert_eq!(slot_point(&p, total).is_some(), slot_start);
            let cold = reduce_placement(&p, |_, _| None).map(|(pl, _)| pl);
            for start in [w_min_point, start_point] {
                let started = reduce_placement(&p, start).map(|(pl, _)| pl);
                prop_assert_eq!(&started, &cold);
                if let (Ok(started), Ok(cold)) = (&started, &cold) {
                    prop_assert_eq!(bits(started), bits(cold));
                }
            }
        }
    }

    /// A reduce problem shaped like the benchmark's `scale-120` ones, on
    /// `cluster`: the shuffle mostly at one site and none at about half
    /// the others, at most 40 tasks of up to 40 s, and a lookahead volume
    /// when `lookahead`.
    fn pinned_reduce_problem(
        rng: &mut StdRng,
        cluster: &Cluster,
        lookahead: bool,
    ) -> ReduceProblem {
        let n = cluster.len();
        let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| 10f64.powf(rng.gen_range(lo..hi));
        let mut shuffle_gb: Vec<f64> = (0..n).map(|_| log_uniform(rng, -2.5, -0.5)).collect();
        for gb in &mut shuffle_gb {
            if rng.gen_bool(0.5) {
                *gb = 0.0;
            }
        }
        let big = rng.gen_range(0..n);
        shuffle_gb[big] = log_uniform(rng, 0.0, 0.9);
        let next_stage_out_gb = lookahead.then(|| log_uniform(rng, -1.5, 1.3));
        ReduceProblem {
            shuffle_gb,
            num_tasks: rng.gen_range(1..=40),
            task_secs: rng.gen_range(2.0..40.0),
            up_gbps: cluster.iter().map(|(_, s)| s.up_gbps).collect(),
            down_gbps: cluster.iter().map(|(_, s)| s.down_gbps).collect(),
            slots: cluster.slots_vec(),
            wan_budget_gb: None,
            network_only: false,
            next_stage_out_gb,
        }
    }

    /// Pins the reduce LP's two starts on a fixed, seeded set of problems
    /// (8 each at 30 and 120 sites, lookahead off and on): one answer
    /// digest for both, and each start's pivot total, so that a change
    /// which quietly loses the slot-proportional start's saving fails
    /// here. Every problem takes the slot-proportional start. When a total
    /// changes on purpose, the failure message prints the new values.
    #[test]
    fn reduce_start_pivots_and_answer_bits_are_pinned() {
        const W_MIN_PIVOTS: usize = 2359;
        const SLOTS_PIVOTS: usize = 620;
        const DIGEST: u64 = 0x26c4_700a_61bd_a61f;
        let mut rng = StdRng::seed_from_u64(0x7e7_21a);
        let mut problems = Vec::new();
        for n in [30, 120] {
            let cluster = ScalePreset::new(n, 83).cluster;
            for lookahead in [false, true] {
                for _ in 0..8 {
                    problems.push(pinned_reduce_problem(&mut rng, &cluster, lookahead));
                }
            }
        }
        let run = |start: fn(&ReduceProblem, f64) -> Option<Vec<f64>>| {
            let mut pivots = 0;
            // FNV-1a over every answer bit.
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for p in &problems {
                let total: f64 = p.shuffle_gb.iter().sum();
                assert!(slot_point(p, total).is_some());
                let (placement, n) = reduce_placement(p, start).unwrap();
                pivots += n;
                for b in bits(&placement) {
                    for byte in b.to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            (pivots, digest)
        };
        let (w_min, slots) = (run(w_min_point), run(start_point));
        assert_eq!(
            (w_min, slots),
            ((W_MIN_PIVOTS, DIGEST), (SLOTS_PIVOTS, DIGEST)),
            "reduce starts: W_min pivots {}, slot-proportional pivots {}, digests {:#018x} and {:#018x}",
            w_min.0,
            slots.0,
            w_min.1,
            slots.1,
        );
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
