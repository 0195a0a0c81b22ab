//! Map-stage task placement (§3.1): the `LP: map-task placement`.
//!
//! The decision is what fraction of each site's input data (and hence of its
//! map tasks, which read equal-size partitions) should be processed at every
//! other site, trading a little extra aggregation time for balanced
//! multi-wave compute time.
//!
//! The paper's formulation uses global task fractions `m_{x,y}`; we use the
//! equivalent per-source normalization `a[x][y]` (the fraction of site `x`'s
//! data processed at `y`, `Σ_y a[x][y] = 1`), which stays exact when the
//! engine's partitions are not perfectly proportional to data volumes.

use crate::analytic::StageTimes;
use tetrium_jobs::largest_remainder_round;
use tetrium_lp::{LpError, Problem, Relation};

/// Inputs of one map-stage placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct MapProblem {
    /// Remaining input volume at each site in GB (`I_x^input`).
    pub input_gb: Vec<f64>,
    /// Remaining (unlaunched) tasks whose partition lives at each site.
    pub tasks_from: Vec<usize>,
    /// Estimated compute seconds per task (`t_map`).
    pub task_secs: f64,
    /// Uplink capacities in GB/s.
    pub up_gbps: Vec<f64>,
    /// Downlink capacities in GB/s.
    pub down_gbps: Vec<f64>,
    /// Slots per site (`S_x`).
    pub slots: Vec<usize>,
    /// Optional WAN budget in GB (§4.3): total bytes moved across sites must
    /// not exceed it.
    pub wan_budget_gb: Option<f64>,
    /// Optional destination data-volume targets (GB per site) for reverse
    /// planning (§3.4): the volume processed at each site is pinned.
    pub forced_dest_gb: Option<Vec<f64>>,
    /// Output/input ratio of this stage when a downstream stage will read
    /// its output. When set, the objective gains a lookahead term
    /// `T_next >= ratio · (data processed at y) / B_y^up` — see
    /// [`crate::reduce_placement::ReduceProblem::next_stage_out_gb`].
    pub next_stage_ratio: Option<f64>,
    /// Restrict remote destinations to the `k` most capable sites (by
    /// slots and by link capacity). Every source may always keep its data
    /// local, so the restricted LP stays feasible; pruning obviously
    /// dominated destinations shrinks the variable count from `n²` to
    /// `n·(k+1)` and is what keeps 50-site scheduling decisions within the
    /// paper's ~100 ms per job (§6.2). `None` solves the full model.
    pub dest_limit: Option<usize>,
}

impl MapProblem {
    /// Whether [`solve_map_placement`] runs the LP for this problem. A stage
    /// with no tasks, or with no input data to move, gets a closed-form
    /// placement instead.
    pub(crate) fn needs_lp(&self) -> bool {
        self.tasks_from.iter().sum::<usize>() > 0 && self.input_gb.iter().sum::<f64>() > 1e-12
    }
}

/// Result of a map-stage placement.
#[derive(Debug, Clone, PartialEq)]
pub struct MapPlacement {
    /// `a[x][y]`: fraction of site `x`'s data processed at `y`.
    pub fractions: Vec<Vec<f64>>,
    /// LP-optimal aggregation and (fractional-wave) compute times.
    pub times: StageTimes,
    /// Integral task counts: `counts[x][y]` tasks homed at `x` run at `y`.
    pub counts: Vec<Vec<usize>>,
    /// Tasks placed at each destination site.
    pub tasks_at: Vec<usize>,
    /// Slot demand `d_x = min(S_x, tasks_at[x])` used by job scheduling
    /// (§3.1 outcome (c)).
    pub slot_demand: Vec<usize>,
    /// WAN bytes this placement moves, in GB.
    pub wan_gb: f64,
}

/// Solves the map-task placement LP.
///
/// Falls back to slot-proportional placement when there is no input data
/// anywhere (nothing to transfer, so only compute balance matters).
///
/// # Panics
///
/// Panics if vector lengths disagree.
///
/// # Errors
///
/// Propagates LP failures (e.g. an infeasibly tight WAN budget combined
/// with `forced_dest_gb`; the plain model is always feasible).
pub fn solve_map_placement(p: &MapProblem) -> Result<MapPlacement, LpError> {
    let n = p.input_gb.len();
    assert_eq!(p.tasks_from.len(), n);
    assert_eq!(p.up_gbps.len(), n);
    assert_eq!(p.down_gbps.len(), n);
    assert_eq!(p.slots.len(), n);
    let num_tasks: usize = p.tasks_from.iter().sum();

    if num_tasks == 0 {
        return Ok(MapPlacement {
            fractions: vec![vec![0.0; n]; n],
            times: StageTimes {
                transfer: 0.0,
                compute: 0.0,
            },
            counts: vec![vec![0; n]; n],
            tasks_at: vec![0; n],
            slot_demand: vec![0; n],
            wan_gb: 0.0,
        });
    }
    if !p.needs_lp() {
        return Ok(slot_proportional(p, n, num_tasks));
    }

    // Candidate destinations: all sites when unrestricted, otherwise each
    // source itself plus the most capable sites by slots and by links.
    let dest_ok: Vec<bool> = match p.dest_limit {
        None => vec![true; n],
        Some(k) => {
            let mut ok = vec![false; n];
            let half = k.div_ceil(2);
            let mut by_slots: Vec<usize> = (0..n).collect();
            by_slots.sort_by_key(|&i| std::cmp::Reverse(p.slots[i]));
            for &i in by_slots.iter().take(half) {
                ok[i] = true;
            }
            let mut by_bw: Vec<usize> = (0..n).collect();
            by_bw.sort_by(|&a, &b| {
                let ka = p.up_gbps[a].min(p.down_gbps[a]);
                let kb = p.up_gbps[b].min(p.down_gbps[b]);
                kb.total_cmp(&ka)
            });
            for &i in by_bw.iter().take(half) {
                ok[i] = true;
            }
            ok
        }
    };
    // Variable layout: one column per admissible (x, y) pair (y == x is
    // always admissible), then T_aggr, T_map, T_next. The pair list is a
    // sorted sparse index — lexicographic (x, y) order, binary-searched —
    // so no n²-sized lookup table is allocated; with destination pruning
    // the admissible set is O(n · dest_limit).
    let dests: Vec<usize> = (0..n).filter(|&y| dest_ok[y]).collect();
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(n * (dests.len() + 1));
    for x in 0..n {
        let mut inserted = dest_ok[x];
        for &y in &dests {
            if !inserted && x < y {
                pairs.push((x, x));
                inserted = true;
            }
            pairs.push((x, y));
        }
        if !inserted {
            pairs.push((x, x));
        }
    }
    let var = |x: usize, y: usize| {
        pairs
            .binary_search(&(x, y))
            .expect("variable lookup for inadmissible pair")
    };
    let nv = pairs.len();
    let t_aggr = nv;
    let t_map = nv + 1;
    let t_next = nv + 2;
    let mut lp = Problem::minimize(nv + 3);
    lp.set_objective(&[(t_aggr, 1.0), (t_map, 1.0)]);
    if let Some(ratio) = p.next_stage_ratio {
        if ratio > 0.0 {
            lp.add_objective_term(t_next, 1.0);
            for y in 0..n {
                // ratio * sum_x I_x a[x][y] <= T_next * up_y.
                let mut terms: Vec<(usize, f64)> = (0..n)
                    .filter(|&x| x == y || dest_ok[y])
                    .map(|x| (var(x, y), ratio * p.input_gb[x]))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                terms.push((t_next, -p.up_gbps[y]));
                lp.add_constraint(&terms, Relation::Le, 0.0);
            }
        }
    }

    // Row sums: each site's data is fully assigned.
    for x in 0..n {
        let terms: Vec<(usize, f64)> = (0..n)
            .filter(|&y| y == x || dest_ok[y])
            .map(|y| (var(x, y), 1.0))
            .collect();
        lp.add_constraint(&terms, Relation::Eq, 1.0);
    }
    // Upload time at x: I_x * sum_{y != x} a[x][y] <= T_aggr * up_x.
    for x in 0..n {
        let mut terms: Vec<(usize, f64)> = (0..n)
            .filter(|&y| y != x && dest_ok[y])
            .map(|y| (var(x, y), p.input_gb[x]))
            .collect();
        terms.push((t_aggr, -p.up_gbps[x]));
        lp.add_constraint(&terms, Relation::Le, 0.0);
    }
    // Download time at x: sum_{y != x} I_y * a[y][x] <= T_aggr * down_x.
    for x in 0..n {
        if !dest_ok[x] {
            continue; // No remote data can arrive here.
        }
        let mut terms: Vec<(usize, f64)> = (0..n)
            .filter(|&y| y != x)
            .map(|y| (var(y, x), p.input_gb[y]))
            .collect();
        terms.push((t_aggr, -p.down_gbps[x]));
        lp.add_constraint(&terms, Relation::Le, 0.0);
    }
    // Compute time at y: t * sum_x tasks_from[x] * a[x][y] <= T_map * S_y.
    for y in 0..n {
        let mut terms: Vec<(usize, f64)> = (0..n)
            .filter(|&x| x == y || dest_ok[y])
            .map(|x| (var(x, y), p.task_secs * p.tasks_from[x] as f64))
            .collect();
        if terms.is_empty() {
            continue;
        }
        terms.push((t_map, -(p.slots[y] as f64)));
        lp.add_constraint(&terms, Relation::Le, 0.0);
    }
    // WAN budget: sum_{x != y} I_x a[x][y] <= W.
    if let Some(w) = p.wan_budget_gb {
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(pairs.len());
        for &(x, y) in &pairs {
            if x != y {
                terms.push((var(x, y), p.input_gb[x]));
            }
        }
        lp.add_constraint(&terms, Relation::Le, w.max(0.0));
    }
    // Reverse planning: pin the data volume processed at each destination.
    if let Some(dest) = &p.forced_dest_gb {
        assert_eq!(dest.len(), n);
        for y in 0..n {
            let terms: Vec<(usize, f64)> = (0..n)
                .filter(|&x| x == y || dest_ok[y])
                .map(|x| (var(x, y), p.input_gb[x]))
                .collect();
            if terms.is_empty() {
                if dest[y].abs() > 1e-9 {
                    return Err(LpError::Infeasible);
                }
                continue;
            }
            lp.add_constraint(&terms, Relation::Eq, dest[y]);
        }
    }

    // A source with no data and no tasks has zero coefficients in every
    // time constraint: its split across destinations is a flat optimal
    // face, and which vertex the solver reports would be a tie-break of the
    // face cleanup rather than a placement decision. Pin such sources in
    // place (a[x][x] = 1, via a[x][y] <= 0 bounds plus the row sum) so the
    // optimum stays unique; semantically nothing moves. The pins are native
    // box constraints —
    // the revised simplex holds a ub = 0 column at its bound instead of
    // carrying a pin row, so the row space and every slack index stay
    // exactly as they would be without the pins.
    for x in 0..n {
        if p.input_gb[x] <= 1e-12 && p.tasks_from[x] == 0 {
            for &y in dests.iter().filter(|&&y| y != x) {
                lp.set_upper(var(x, y), 0.0);
            }
        }
    }

    let sol = lp.solve()?;
    let mut fractions = vec![vec![0.0; n]; n];
    for &(x, y) in &pairs {
        fractions[x][y] = sol.values[var(x, y)].max(0.0);
    }
    Ok(assemble_map(
        p,
        fractions,
        sol.values[t_aggr],
        sol.values[t_map],
    ))
}

/// Slot-proportional fallback used when a stage has no data to move.
fn slot_proportional(p: &MapProblem, n: usize, _num_tasks: usize) -> MapPlacement {
    let slot_frac: Vec<f64> = {
        let total: f64 = p.slots.iter().map(|&s| s as f64).sum();
        p.slots.iter().map(|&s| s as f64 / total).collect()
    };
    let mut fractions = vec![vec![0.0; n]; n];
    for x in 0..n {
        fractions[x].clone_from_slice(&slot_frac);
    }
    let compute = {
        // Balanced waves across all slots.
        let tasks: usize = p.tasks_from.iter().sum();
        let slots: usize = p.slots.iter().sum();
        p.task_secs * tasks as f64 / slots as f64
    };
    assemble_map(p, fractions, 0.0, compute)
}

/// Rounds fractions to integral per-source counts and assembles the result.
/// Also used by the plan cache to re-round a cached fractional split
/// against drifted task counts.
pub(crate) fn assemble_map(
    p: &MapProblem,
    fractions: Vec<Vec<f64>>,
    t_aggr: f64,
    t_map: f64,
) -> MapPlacement {
    let n = p.input_gb.len();
    let mut counts = vec![vec![0usize; n]; n];
    let mut tasks_at = vec![0usize; n];
    let mut wan_gb = 0.0;
    for x in 0..n {
        if p.tasks_from[x] == 0 {
            continue;
        }
        let row = largest_remainder_round(&fractions[x], p.tasks_from[x]);
        let per_task_gb = if p.tasks_from[x] > 0 {
            p.input_gb[x] / p.tasks_from[x] as f64
        } else {
            0.0
        };
        for y in 0..n {
            counts[x][y] = row[y];
            tasks_at[y] += row[y];
            if x != y {
                wan_gb += row[y] as f64 * per_task_gb;
            }
        }
    }
    let slot_demand = (0..n).map(|x| p.slots[x].min(tasks_at[x])).collect();
    MapPlacement {
        fractions,
        times: StageTimes {
            transfer: t_aggr.max(0.0),
            compute: t_map.max(0.0),
        },
        counts,
        tasks_at,
        slot_demand,
        wan_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig 4 setup: the LP should move work off the compute-bottlenecked
    /// sites toward site 1, beating in-place map execution.
    fn fig4_problem() -> MapProblem {
        MapProblem {
            input_gb: vec![20.0, 30.0, 50.0],
            tasks_from: vec![200, 300, 500],
            task_secs: 2.0,
            up_gbps: vec![5.0, 1.0, 2.0],
            down_gbps: vec![5.0, 1.0, 5.0],
            slots: vec![40, 10, 20],
            wan_budget_gb: None,
            forced_dest_gb: None,
            next_stage_ratio: None,
            dest_limit: None,
        }
    }

    #[test]
    fn beats_in_place_on_fig4() {
        let placement = solve_map_placement(&fig4_problem()).unwrap();
        // In-place map stage takes 60 s (site 2 bottleneck). The LP's
        // fractional optimum is ~44 s; the paper's rounded plan is 45.7 s.
        let total = placement.times.total();
        assert!(total < 50.0, "LP total {total} should beat in-place 60 s");
        // All 1000 tasks are placed.
        assert_eq!(placement.tasks_at.iter().sum::<usize>(), 1000);
        // Site 1 (most powerful) takes the largest share.
        assert!(placement.tasks_at[0] > placement.tasks_at[1]);
        assert!(placement.tasks_at[0] > placement.tasks_at[2]);
        // Data conservation: row sums of fractions are 1.
        for x in 0..3 {
            let s: f64 = placement.fractions[x].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_wan_budget_forces_in_place() {
        let mut p = fig4_problem();
        p.wan_budget_gb = Some(0.0);
        let placement = solve_map_placement(&p).unwrap();
        assert!(placement.wan_gb < 1e-9);
        // In-place compute: site 2 is the bottleneck at 300/10 waves x 2 s.
        assert!((placement.times.compute - 60.0).abs() < 1e-6);
        assert_eq!(placement.counts[1][1], 300);
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        let mut p = fig4_problem();
        p.wan_budget_gb = Some(1000.0);
        let with = solve_map_placement(&p).unwrap();
        let without = solve_map_placement(&fig4_problem()).unwrap();
        assert!((with.times.total() - without.times.total()).abs() < 1e-6);
    }

    #[test]
    fn no_data_falls_back_to_slot_proportional() {
        let p = MapProblem {
            input_gb: vec![0.0, 0.0],
            tasks_from: vec![10, 0],
            task_secs: 1.0,
            up_gbps: vec![1.0, 1.0],
            down_gbps: vec![1.0, 1.0],
            slots: vec![3, 1],
            wan_budget_gb: None,
            forced_dest_gb: None,
            next_stage_ratio: None,
            dest_limit: None,
        };
        let placement = solve_map_placement(&p).unwrap();
        assert_eq!(placement.tasks_at.iter().sum::<usize>(), 10);
        assert!(placement.tasks_at[0] > placement.tasks_at[1]);
        assert_eq!(placement.wan_gb, 0.0);
    }

    #[test]
    fn empty_stage_yields_empty_placement() {
        let p = MapProblem {
            input_gb: vec![1.0, 1.0],
            tasks_from: vec![0, 0],
            task_secs: 1.0,
            up_gbps: vec![1.0, 1.0],
            down_gbps: vec![1.0, 1.0],
            slots: vec![1, 1],
            wan_budget_gb: None,
            forced_dest_gb: None,
            next_stage_ratio: None,
            dest_limit: None,
        };
        let placement = solve_map_placement(&p).unwrap();
        assert_eq!(placement.tasks_at, vec![0, 0]);
    }

    #[test]
    fn counts_conserve_per_source_tasks() {
        let placement = solve_map_placement(&fig4_problem()).unwrap();
        for (x, &from) in fig4_problem().tasks_from.iter().enumerate() {
            let sum: usize = placement.counts[x].iter().sum();
            assert_eq!(sum, from, "source {x}");
        }
    }

    #[test]
    fn forced_destination_is_respected() {
        let mut p = fig4_problem();
        // Pin all data to site 0.
        p.forced_dest_gb = Some(vec![100.0, 0.0, 0.0]);
        let placement = solve_map_placement(&p).unwrap();
        assert_eq!(placement.tasks_at[0], 1000);
        assert_eq!(placement.tasks_at[1], 0);
    }
}
