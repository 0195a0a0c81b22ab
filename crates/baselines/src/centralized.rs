//! The Centralized baseline: aggregate everything at one powerful site.

use crate::fair_plans;
use tetrium_cluster::SiteId;
use tetrium_sim::{Scheduler, Snapshot, StagePlan, TaskPhase};

/// Centralized execution (§6.3 baseline).
///
/// Every task of every stage runs at the most capable site; map tasks pull
/// their partitions there (which is where the aggregation cost is paid) and
/// later stages are fully local. This models the "aggregate all input data
/// to a powerful datacenter" strategy the paper argues against.
#[derive(Debug, Default)]
pub struct CentralizedScheduler {
    target: Option<SiteId>,
}

impl CentralizedScheduler {
    /// Creates the baseline; the target site is picked from the first
    /// snapshot (most slots, best links as tie-break).
    pub fn new() -> Self {
        Self { target: None }
    }

    /// Creates the baseline with an explicit aggregation site.
    pub fn with_target(site: SiteId) -> Self {
        Self { target: Some(site) }
    }
}

impl Scheduler for CentralizedScheduler {
    fn name(&self) -> &str {
        "centralized"
    }

    fn schedule(&mut self, snap: &Snapshot) -> Vec<StagePlan> {
        let target = *self.target.get_or_insert_with(|| {
            let best = snap
                .sites
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.slots
                        .cmp(&b.slots)
                        .then((a.up_gbps + a.down_gbps).total_cmp(&(b.up_gbps + b.down_gbps)))
                        .then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            SiteId(best)
        });
        fair_plans(snap, |_, st| {
            st.tasks
                .iter()
                .filter(|t| t.phase == TaskPhase::Unlaunched)
                .map(|t| (t.index, target))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn everything_runs_at_the_biggest_site() {
        let snap = Snapshot {
            now: 0.0,
            sites: sites(&[(4, 1.0, 1.0), (40, 5.0, 5.0), (10, 2.0, 2.0)]),
            jobs: vec![
                map_job(0, &[2, 2, 2], &[1.0, 1.0, 1.0]),
                reduce_job(1, vec![3.0, 3.0, 3.0], 6),
            ],
        };
        let mut sched = CentralizedScheduler::new();
        let plans = sched.schedule(&snap);
        for p in &plans {
            for a in &p.assignments {
                assert_eq!(a.site, SiteId(1));
            }
        }
    }

    /// The site every task of a one-task-per-site map job lands on.
    fn picked(spec: &[(usize, f64, f64)]) -> SiteId {
        let snap = Snapshot {
            now: 0.0,
            sites: sites(spec),
            jobs: vec![map_job(0, &vec![1; spec.len()], &vec![1.0; spec.len()])],
        };
        let plans = CentralizedScheduler::new().schedule(&snap);
        let site = plans[0].assignments[0].site;
        assert!(plans[0].assignments.iter().all(|a| a.site == site));
        site
    }

    #[test]
    fn target_is_most_slots_then_most_bandwidth_then_lowest_index() {
        // Most slots wins over any bandwidth.
        assert_eq!(picked(&[(10, 9.0, 9.0), (40, 1.0, 1.0)]), SiteId(1));
        // Equal slots: the larger up + down bandwidth wins.
        assert_eq!(picked(&[(10, 1.0, 1.0), (10, 9.0, 9.0)]), SiteId(1));
        assert_eq!(picked(&[(10, 2.0, 5.0), (10, 3.0, 3.0)]), SiteId(0));
        // Equal slots and bandwidth sum: the lowest index wins.
        assert_eq!(
            picked(&[(8, 9.0, 9.0), (10, 4.0, 5.0), (10, 5.0, 4.0)]),
            SiteId(1)
        );
    }

    #[test]
    fn explicit_target_is_honored() {
        let snap = Snapshot {
            now: 0.0,
            sites: sites(&[(4, 1.0, 1.0), (40, 5.0, 5.0)]),
            jobs: vec![map_job(0, &[1, 1], &[1.0, 1.0])],
        };
        let mut sched = CentralizedScheduler::with_target(SiteId(0));
        let plans = sched.schedule(&snap);
        assert!(plans[0].assignments.iter().all(|a| a.site == SiteId(0)));
    }
}
