//! Property tests for the WAN substrate: waterfilling invariants and the
//! fluid simulator's byte conservation.

use proptest::prelude::*;
use tetrium::net::{max_min_rates, waterfill_groups, FlowKey, FlowSim, FlowSpec, GroupSpec};
use tetrium_cluster::SiteId;

fn caps_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2usize..7).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u32..80, n),
            proptest::collection::vec(1u32..80, n),
        )
            .prop_map(|(u, d)| {
                (
                    u.into_iter().map(|v| v as f64 * 0.05).collect(),
                    d.into_iter().map(|v| v as f64 * 0.05).collect(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Max-min rates never oversubscribe a link, and every non-local flow is
    /// bottlenecked at some saturated link.
    #[test]
    fn maxmin_feasible_and_bottlenecked(
        (up, down) in caps_strategy(),
        pairs in proptest::collection::vec((0usize..7, 0usize..7), 1..40),
    ) {
        let n = up.len();
        let flows: Vec<FlowSpec> = pairs
            .into_iter()
            .map(|(s, d)| FlowSpec { src: SiteId(s % n), dst: SiteId(d % n) })
            .collect();
        let rates = max_min_rates(&flows, &up, &down);
        let mut used_up = vec![0.0; n];
        let mut used_down = vec![0.0; n];
        for (f, &r) in flows.iter().zip(&rates) {
            if f.is_local() {
                prop_assert!(r.is_infinite());
                continue;
            }
            prop_assert!(r >= 0.0 && r.is_finite());
            used_up[f.src.index()] += r;
            used_down[f.dst.index()] += r;
        }
        for x in 0..n {
            prop_assert!(used_up[x] <= up[x] + 1e-6, "uplink {} over", x);
            prop_assert!(used_down[x] <= down[x] + 1e-6, "downlink {} over", x);
        }
        for (f, &r) in flows.iter().zip(&rates) {
            if f.is_local() { continue; }
            let up_sat = used_up[f.src.index()] >= up[f.src.index()] - 1e-6;
            let down_sat = used_down[f.dst.index()] >= down[f.dst.index()] - 1e-6;
            prop_assert!(up_sat || down_sat, "flow {:?} at {} not bottlenecked", f, r);
        }
    }

    /// Grouped waterfilling agrees with per-flow waterfilling: expanding a
    /// group into individual flows yields the same per-flow rate.
    #[test]
    fn grouped_equals_expanded(
        (up, down) in caps_strategy(),
        raw in proptest::collection::vec((0usize..7, 0usize..7, 1usize..5), 1..12),
    ) {
        let n = up.len();
        let mut groups = Vec::new();
        let mut flows = Vec::new();
        for (s, d, c) in raw {
            let (s, d) = (s % n, d % n);
            if s == d {
                continue;
            }
            groups.push(GroupSpec { src: s, dst: d, count: c });
            for _ in 0..c {
                flows.push(FlowSpec { src: SiteId(s), dst: SiteId(d) });
            }
        }
        let group_rates = waterfill_groups(&groups, &up, &down);
        let flow_rates = max_min_rates(&flows, &up, &down);
        let mut k = 0;
        for (g, spec) in groups.iter().enumerate() {
            for _ in 0..spec.count {
                prop_assert!(
                    (group_rates[g] - flow_rates[k]).abs() < 1e-6 * (1.0 + flow_rates[k]),
                    "group {} rate {} vs flow {} rate {}", g, group_rates[g], k, flow_rates[k]
                );
                k += 1;
            }
        }
    }

    /// Differential check of the live simulator against the waterfilling
    /// oracle: after any interleaving of add_flow / remove_flow /
    /// set_capacity / advance_to, every in-flight flow's current rate must
    /// equal what `max_min_rates` computes for the same flow multiset under
    /// the same capacities.
    #[test]
    fn flowsim_rates_match_maxmin_oracle_under_interleaving(
        (up, down) in caps_strategy(),
        ops in proptest::collection::vec((0usize..4, 0usize..7, 0usize..7, 1u32..40), 1..60),
    ) {
        let n = up.len();
        let mut sim = FlowSim::new(up.clone(), down.clone());
        let (mut up, mut down) = (up, down);
        let mut live: Vec<(FlowKey, usize, usize)> = Vec::new();
        for (op, a, b, v) in ops {
            match op {
                0 => {
                    let s = a % n;
                    let mut d = b % n;
                    if s == d {
                        d = (d + 1) % n;
                    }
                    let k = sim.add_flow(SiteId(s), SiteId(d), v as f64 * 0.1);
                    live.push((k, s, d));
                }
                1 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (k, _, _) = live.swap_remove(a % live.len());
                    let rem = sim.remove_flow(k);
                    prop_assert!(rem >= 0.0);
                }
                2 => {
                    let s = a % n;
                    up[s] = (v as f64) * 0.05;
                    down[s] = (b + 1) as f64 * 0.05;
                    sim.set_capacity(SiteId(s), up[s], down[s]);
                }
                _ => {
                    // Advance a fraction of the way to the next completion,
                    // then retire any flow that finished on the boundary.
                    if let Some((_, t)) = sim.next_completion() {
                        let target = sim.now() + (t - sim.now()) * (v as f64 / 40.0);
                        sim.advance_to(target);
                        while let Some((k, tc)) = sim.next_completion() {
                            if tc > sim.now() + 1e-12 {
                                break;
                            }
                            sim.remove_flow(k);
                            live.retain(|&(lk, _, _)| lk != k);
                        }
                    }
                }
            }
            let flows: Vec<FlowSpec> = live
                .iter()
                .map(|&(_, s, d)| FlowSpec { src: SiteId(s), dst: SiteId(d) })
                .collect();
            let oracle = max_min_rates(&flows, &up, &down);
            for (&(k, s, d), &want) in live.iter().zip(&oracle) {
                let got = sim.rate_gbps(k);
                prop_assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want),
                    "flow {}->{}: sim rate {} vs oracle {}", s, d, got, want
                );
            }
        }
    }

    /// Capacity-churn-heavy differential check: `set_capacity` dominates the
    /// interleaving, so nearly every step dirties a link pair and forces a
    /// scoped refill whose result must still match the from-scratch
    /// oracle. This pins the dirty-link bookkeeping (mask reset, union-find
    /// scoping, full-fill fallback) under sustained capacity movement.
    #[test]
    fn flowsim_matches_oracle_under_capacity_churn(
        (up, down) in caps_strategy(),
        ops in proptest::collection::vec((0usize..8, 0usize..7, 0usize..7, 1u32..40), 1..60),
    ) {
        let n = up.len();
        let mut sim = FlowSim::new(up.clone(), down.clone());
        let (mut up, mut down) = (up, down);
        let mut live: Vec<(FlowKey, usize, usize)> = Vec::new();
        for (op, a, b, v) in ops {
            match op {
                0 => {
                    let s = a % n;
                    let mut d = b % n;
                    if s == d {
                        d = (d + 1) % n;
                    }
                    let k = sim.add_flow(SiteId(s), SiteId(d), v as f64 * 0.1);
                    live.push((k, s, d));
                }
                1 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (k, _, _) = live.swap_remove(a % live.len());
                    prop_assert!(sim.remove_flow(k) >= 0.0);
                }
                // Ops 2..=7: capacity churn on some site — three times the
                // weight of every other mutation combined.
                _ => {
                    let s = a % n;
                    up[s] = (v as f64) * 0.05;
                    down[s] = (b + 1) as f64 * 0.05;
                    sim.set_capacity(SiteId(s), up[s], down[s]);
                }
            }
            let flows: Vec<FlowSpec> = live
                .iter()
                .map(|&(_, s, d)| FlowSpec { src: SiteId(s), dst: SiteId(d) })
                .collect();
            let oracle = max_min_rates(&flows, &up, &down);
            for (&(k, s, d), &want) in live.iter().zip(&oracle) {
                let got = sim.rate_gbps(k);
                prop_assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want),
                    "flow {}->{}: sim rate {} vs oracle {}", s, d, got, want
                );
            }
        }
    }

    /// Same-pair churn: every add/remove hits the *same* `(src, dst)` group
    /// (with one static background pair for contention), repeatedly driving
    /// the group's flow count through 0 and back. This pins the live-list
    /// insert/remove path, group reuse after emptying, and the pruned-group
    /// drain clocks: a group revived after going empty must behave exactly
    /// like a fresh one.
    #[test]
    fn flowsim_matches_oracle_under_same_pair_churn(
        (up, down) in caps_strategy(),
        pair in (0usize..7, 1usize..7),
        ops in proptest::collection::vec((0usize..3, 0usize..13, 1u32..40), 1..60),
    ) {
        let n = up.len();
        let s = pair.0 % n;
        let d = (s + (pair.1 % (n - 1)) + 1) % n;
        let mut sim = FlowSim::new(up.clone(), down.clone());
        // One background flow on a different pair keeps the component
        // non-trivial so the churned group contends for links.
        let (bs, bd) = (d, s);
        let bg = sim.add_flow(SiteId(bs), SiteId(bd), 1e6);
        let mut live: Vec<FlowKey> = Vec::new();
        for (op, a, v) in ops {
            match op {
                0 => live.push(sim.add_flow(SiteId(s), SiteId(d), v as f64 * 0.1)),
                1 => {
                    if live.is_empty() {
                        continue;
                    }
                    let k = live.swap_remove(a % live.len());
                    prop_assert!(sim.remove_flow(k) >= 0.0);
                }
                _ => {
                    if let Some((_, t)) = sim.next_completion() {
                        let target = sim.now() + (t - sim.now()) * (v as f64 / 40.0);
                        sim.advance_to(target);
                        while let Some((k, tc)) = sim.next_completion() {
                            if tc > sim.now() + 1e-12 {
                                break;
                            }
                            sim.remove_flow(k);
                            live.retain(|&lk| lk != k);
                        }
                    }
                }
            }
            let mut flows: Vec<FlowSpec> =
                vec![FlowSpec { src: SiteId(bs), dst: SiteId(bd) }];
            flows.extend(live.iter().map(|_| FlowSpec { src: SiteId(s), dst: SiteId(d) }));
            let oracle = max_min_rates(&flows, &up, &down);
            let got_bg = sim.rate_gbps(bg);
            prop_assert!(
                (got_bg - oracle[0]).abs() < 1e-6 * (1.0 + oracle[0]),
                "background flow rate {} vs oracle {}", got_bg, oracle[0]
            );
            for (&k, &want) in live.iter().zip(&oracle[1..]) {
                let got = sim.rate_gbps(k);
                prop_assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want),
                    "churned flow: sim rate {} vs oracle {}", got, want
                );
            }
        }
    }

    /// Zeroing a site's links (`set_capacity(_, 0, 0)`, the engine's outage
    /// and link-failure model) must *stall* its flows explicitly: rate
    /// exactly zero, no inf/NaN ETA, excluded from `next_completion` — and
    /// the flows keep their drained progress, resuming to exact byte
    /// conservation once capacity is restored.
    #[test]
    fn zero_capacity_stalls_flows_and_restore_resumes(
        (up, down) in caps_strategy(),
        specs in proptest::collection::vec((0usize..7, 0usize..7, 1u32..50), 1..20),
        dead in 0usize..7,
        frac in 1u32..39,
    ) {
        let n = up.len();
        let dead = dead % n;
        let mut sim = FlowSim::new(up.clone(), down.clone());
        let mut keys = Vec::new();
        let mut expected = 0.0;
        for (s, d, gb10) in specs {
            let (s, d) = (s % n, d % n);
            let gb = gb10 as f64 * 0.1;
            if s != d {
                expected += gb;
            }
            keys.push((sim.add_flow(SiteId(s), SiteId(d), gb), s, d));
        }
        // Drain partway so stalled flows carry partial progress.
        if let Some((_, t)) = sim.next_completion() {
            let target = sim.now() + (t - sim.now()) * (frac as f64 / 40.0);
            sim.advance_to(target);
        }
        sim.set_capacity(SiteId(dead), 0.0, 0.0);
        for &(k, s, d) in &keys {
            if s == d {
                continue;
            }
            let r = sim.rate_gbps(k);
            prop_assert!(r.is_finite(), "flow {}->{} rate {} not finite", s, d, r);
            if s == dead || d == dead {
                prop_assert_eq!(r, 0.0, "flow {}->{} must stall", s, d);
            }
        }
        if let Some((k, t)) = sim.next_completion() {
            prop_assert!(t.is_finite(), "stalled flows must not produce inf ETAs");
            let &(_, s, d) = keys.iter().find(|&&(kk, _, _)| kk == k).unwrap();
            prop_assert!(
                s == d || (s != dead && d != dead),
                "stalled flow {}->{} offered as next completion", s, d
            );
        }
        // Restore the site and drive everything to completion: the ledger
        // must account every byte exactly once, stall included.
        sim.set_capacity(SiteId(dead), up[dead], down[dead]);
        let mut guard = 0;
        while let Some((k, t)) = sim.next_completion() {
            sim.advance_to(t);
            let rem = sim.remove_flow(k);
            prop_assert!(rem < 1e-6, "removed with {} GB left", rem);
            keys.retain(|&(kk, _, _)| kk != k);
            guard += 1;
            prop_assert!(guard < 10_000, "completion loop runaway");
        }
        prop_assert!(keys.is_empty(), "{} flows never completed", keys.len());
        prop_assert!((sim.total_wan_gb() - expected).abs() < 1e-6 * (1.0 + expected));
    }

    /// The fluid simulator conserves bytes: every flow driven to completion
    /// accounts exactly its size of WAN traffic.
    #[test]
    fn flowsim_conserves_bytes(
        (up, down) in caps_strategy(),
        specs in proptest::collection::vec((0usize..7, 0usize..7, 1u32..50), 1..30),
    ) {
        let n = up.len();
        let mut sim = FlowSim::new(up, down);
        let mut expected = 0.0;
        let mut live = 0usize;
        for (s, d, gb10) in specs {
            let (s, d) = (s % n, d % n);
            let gb = gb10 as f64 * 0.1;
            if s != d {
                expected += gb;
            }
            sim.add_flow(SiteId(s), SiteId(d), gb);
            live += 1;
        }
        let mut guard = 0;
        while let Some((k, t)) = sim.next_completion() {
            sim.advance_to(t);
            let rem = sim.remove_flow(k);
            prop_assert!(rem < 1e-6, "removed with {} GB left", rem);
            live -= 1;
            guard += 1;
            prop_assert!(guard < 10_000, "completion loop runaway");
        }
        prop_assert_eq!(live, 0);
        prop_assert!((sim.total_wan_gb() - expected).abs() < 1e-6 * (1.0 + expected));
    }
}

// Fewer cases: each one churns a 1000-site waterfiller and cross-checks
// against from-scratch fills, so 16 cases already cover hundreds of
// incremental refills at full scale.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 1000-site churn: a persistent [`Waterfiller`] fed a *sparse* live
    /// pair set (the regime the sorted sparse pair index exists for) under
    /// count mutations and capacity-independent dirty marking must match
    /// the from-scratch [`waterfill_groups`] fill bit for bit at every
    /// step. Guards the O(live pairs) group state against scale: dense
    /// n²-pair scratch would OOM or crawl at this site count long before
    /// the assertions fire.
    #[test]
    fn thousand_site_incremental_refill_matches_full_fill(
        pair_seeds in proptest::collection::vec((0usize..1000, 1usize..1000), 20..60),
        caps in proptest::collection::vec(1u32..80, 64),
        steps in proptest::collection::vec((0usize..60, 0u8..3, 1u32..4), 30..80),
    ) {
        use tetrium::net::{waterfill_groups, GroupSpec, Waterfiller};
        let n = 1000;
        let up: Vec<f64> = (0..n).map(|i| caps[i % caps.len()] as f64 * 0.05).collect();
        let down: Vec<f64> = (0..n).map(|i| caps[(i * 7 + 3) % caps.len()] as f64 * 0.05).collect();
        // Sparse live pair universe: tens of pairs over a thousand sites.
        let mut pairs: Vec<(usize, usize)> = pair_seeds
            .into_iter()
            .map(|(s, off)| (s, (s + off) % n))
            .filter(|&(s, d)| s != d)
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assume!(!pairs.is_empty());
        let mut counts = vec![0usize; pairs.len()];
        let mut rates = vec![0.0f64; pairs.len()];
        let mut wf = Waterfiller::new(n);
        for (step, (pick, op, delta)) in steps.into_iter().enumerate() {
            let g = pick % pairs.len();
            match op {
                0 => counts[g] += delta as usize,
                1 if counts[g] > 0 => counts[g] -= 1,
                _ => counts[g] += 1,
            }
            let (s, d) = pairs[g];
            wf.mark_pair_dirty(s, d);
            let live: Vec<usize> = (0..pairs.len()).filter(|&g| counts[g] > 0).collect();
            wf.refill(&live, |g| (pairs[g].0, pairs[g].1, counts[g]), &up, &down);
            for &(g, r) in wf.refilled() {
                rates[g] = r;
            }
            let specs: Vec<GroupSpec> = pairs
                .iter()
                .zip(&counts)
                .map(|(&(src, dst), &count)| GroupSpec { src, dst, count })
                .collect();
            let want = waterfill_groups(&specs, &up, &down);
            for &g in &live {
                prop_assert!(
                    rates[g].to_bits() == want[g].to_bits(),
                    "step {}: group {} incremental {} != full {}",
                    step, g, rates[g], want[g]
                );
            }
        }
    }
}

/// Two simulators driven by identical operations. `fast` is queried the way
/// the engine queries it; `reference` calls `link_usage()` before every
/// `next_completion()`, which refills pending rates first and so forces the
/// refresh-then-heap answer. Every answer, refund and ledger total must
/// agree bit for bit.
struct Twin {
    fast: FlowSim,
    reference: FlowSim,
    /// In-flight flows with their `(src, dst)` pair.
    live: Vec<(FlowKey, usize, usize)>,
}

impl Twin {
    fn new(up: &[f64], down: &[f64]) -> Self {
        Self {
            fast: FlowSim::new(up.to_vec(), down.to_vec()),
            reference: FlowSim::new(up.to_vec(), down.to_vec()),
            live: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.fast.now()
    }

    fn add(&mut self, s: usize, d: usize, gb: f64) {
        let k = self.fast.add_flow(SiteId(s), SiteId(d), gb);
        assert_eq!(k, self.reference.add_flow(SiteId(s), SiteId(d), gb));
        self.live.push((k, s, d));
    }

    /// Removes `k` from both, asserting identical refunds; returns its pair.
    fn remove(&mut self, k: FlowKey) -> (usize, usize) {
        let got = self.fast.remove_flow(k);
        let want = self.reference.remove_flow(k);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "refund of {k:?}: {got} vs {want}"
        );
        let pos = self
            .live
            .iter()
            .position(|&(lk, _, _)| lk == k)
            .expect("live flow");
        let (_, s, d) = self.live.swap_remove(pos);
        (s, d)
    }

    fn set_capacity(&mut self, site: usize, up: f64, down: f64) {
        self.fast.set_capacity(SiteId(site), up, down);
        self.reference.set_capacity(SiteId(site), up, down);
    }

    fn advance_to(&mut self, t: f64) {
        self.fast.advance_to(t);
        self.reference.advance_to(t);
    }

    fn next(&mut self) -> Option<(FlowKey, f64)> {
        let got = self.fast.next_completion();
        self.reference.link_usage();
        let want = self.reference.next_completion();
        let bits = |x: Option<(FlowKey, f64)>| x.map(|(k, t)| (k, t.to_bits()));
        assert_eq!(bits(got), bits(want), "next completion at t={}", self.now());
        got
    }

    /// Retires every flow completing at the current instant, as the engine
    /// does; with `requeue`, each retired flow's pair opens a queued fetch
    /// of `gb` at the same instant.
    fn retire_due(&mut self, mut requeue: Option<f64>) {
        for _ in 0..10_000 {
            match self.next() {
                Some((k, t)) if t <= self.now() => {
                    let (s, d) = self.remove(k);
                    if let Some(gb) = requeue.take() {
                        self.add(s, d, gb);
                    }
                }
                _ => return,
            }
        }
        panic!("retire loop runaway");
    }

    fn assert_ledgers(&self) {
        let (got, want) = (self.fast.total_wan_gb(), self.reference.total_wan_gb());
        assert_eq!(got.to_bits(), want.to_bits(), "WAN ledger {got} vs {want}");
        assert_eq!(self.fast.active_flows(), self.reference.active_flows());
    }
}

// Sizes straddling the 1e-12 "already drained" threshold.
const TINY_GB: [f64; 5] = [0.0, 5e-13, 2e-12, 1e-11, 1e-9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Answering a query from a flow already due at `now`, without the
    /// pending refill, must be invisible: same-instant bursts (k equal
    /// flows on one pair, every site's ring pair at equal capacities),
    /// queued re-adds at the instant, zero and sub-threshold sizes, outages
    /// and restores, and a clock far from zero (where one ulp of `now`
    /// exceeds a tiny flow's drain time) all produce the refresh-first
    /// simulator's completions, refunds and ledger bit for bit.
    #[test]
    fn due_now_answers_match_refresh_first_answers(
        (up, down) in caps_strategy(),
        uniform in proptest::bool::ANY,
        far in proptest::bool::ANY,
        ops in proptest::collection::vec((0usize..9, 0usize..7, 0usize..7, 1u32..40), 1..60),
    ) {
        let n = up.len();
        let (up, down) = if uniform { (vec![up[0]; n], vec![up[0]; n]) } else { (up, down) };
        let mut twin = Twin::new(&up, &down);
        if far {
            twin.advance_to(1e7);
        }
        let pair = |a: usize, b: usize| {
            let s = a % n;
            (s, (s + 1 + b % (n - 1)) % n)
        };
        for (op, a, b, v) in ops {
            match op {
                0 => {
                    let (s, d) = pair(a, b);
                    twin.add(s, d, v as f64 * 0.1);
                }
                // k equal flows on one pair: they drain at one instant.
                1 => {
                    let (s, d) = pair(a, b);
                    for _ in 0..2 + v % 7 {
                        twin.add(s, d, (1 + b % 5) as f64 * 0.5);
                    }
                }
                // One flow per site on a ring: at uniform capacities every
                // pair drains at one instant.
                2 => {
                    for s in 0..n {
                        twin.add(s, (s + 1) % n, v as f64 * 0.1);
                    }
                }
                3 => {
                    let (s, d) = pair(a, b);
                    twin.add(s, d, TINY_GB[v as usize % TINY_GB.len()]);
                }
                4 => {
                    if !twin.live.is_empty() {
                        let (k, _, _) = twin.live[a % twin.live.len()];
                        twin.remove(k);
                    }
                }
                5 => {
                    let s = a % n;
                    if v % 2 == 0 {
                        twin.set_capacity(s, 0.0, 0.0);
                    } else {
                        twin.set_capacity(s, up[s], down[s]);
                    }
                }
                // Advance to the next completion (or part of the way), then
                // retire everything due there, maybe re-adding at the instant.
                _ => {
                    if let Some((_, t)) = twin.next() {
                        let target = if v % 3 == 0 {
                            twin.now() + (t - twin.now()) * (v as f64 / 40.0)
                        } else {
                            t
                        };
                        twin.advance_to(target);
                        let requeue = match b % 3 {
                            0 => None,
                            1 => Some(TINY_GB[v as usize % TINY_GB.len()]),
                            _ => Some(v as f64 * 0.1),
                        };
                        twin.retire_due(requeue);
                    }
                }
            }
            twin.assert_ledgers();
        }
        // Restore every link and drain to empty.
        for s in 0..n {
            twin.set_capacity(s, up[s], down[s]);
        }
        for _ in 0..10_000 {
            let Some((_, t)) = twin.next() else { break };
            twin.advance_to(t);
            twin.retire_due(None);
        }
        prop_assert!(twin.live.is_empty(), "{} flows never completed", twin.live.len());
        twin.assert_ledgers();
    }
}
