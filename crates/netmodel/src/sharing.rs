//! Bandwidth-sharing policies.
//!
//! [`maxmin_rates`] implements textbook progressive filling: repeatedly
//! find the most constrained link, give every unfixed flow crossing it the
//! link's fair share, remove them, and continue. Flows additionally carry a
//! per-flow ceiling (protocol cap); a flow whose ceiling is below the fair
//! share saturates at its ceiling and returns its unused share to the pool.

use platform::LinkId;

/// Which sharing algorithm [`crate::FlowNet`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Fast per-flow bottleneck share: `min(cap_f, min_l capacity_l / n_l)`.
    Bottleneck,
    /// Exact max-min fairness via progressive filling, recomputed
    /// incrementally: a flow arrival or departure re-solves only the
    /// connected component of the flow/link graph it touches.
    MaxMin,
    /// Exact max-min fairness recomputed from scratch on every change
    /// (reference for [`SharingPolicy::MaxMin`]; same solver, so the two
    /// produce bit-identical allocations — see `FlowNet` tests).
    MaxMinFull,
}

/// Computes max-min fair rates.
///
/// `flows[i]` is `Some((route, ceiling))` for live flows and `None` for
/// dead slots (their output is `None` too). Link capacities are given in
/// `capacities`, indexed by [`LinkId`].
pub fn maxmin_rates(
    capacities: Vec<f64>,
    flows: Vec<Option<(&[LinkId], f64)>>,
) -> Vec<Option<f64>> {
    let nflows = flows.len();
    let mut rates: Vec<Option<f64>> = vec![None; nflows];
    let mut fixed: Vec<bool> = flows.iter().map(|f| f.is_none()).collect();
    let mut avail = capacities;
    // Number of unfixed flows per link.
    let mut unfixed_per_link = vec![0u32; avail.len()];
    for f in flows.iter().flatten() {
        for l in f.0 {
            unfixed_per_link[l.as_usize()] += 1;
        }
    }
    let live = flows.iter().filter(|f| f.is_some()).count();
    let mut remaining = live;
    while remaining > 0 {
        // Most constrained share over links with unfixed flows.
        let mut share = f64::INFINITY;
        for (l, n) in unfixed_per_link.iter().enumerate() {
            if *n > 0 {
                share = share.min(avail[l] / *n as f64);
            }
        }
        // Ceilings below the share saturate first.
        let mut min_ceiling = f64::INFINITY;
        for (i, f) in flows.iter().enumerate() {
            if let Some((_, cap)) = f {
                if !fixed[i] {
                    min_ceiling = min_ceiling.min(*cap);
                }
            }
        }
        let level = share.min(min_ceiling);
        assert!(
            level.is_finite() && level >= 0.0,
            "max-min failed to converge"
        );
        // Fix every flow at its ceiling if ceiling <= level, or at `level`
        // if it crosses a saturated link.
        let mut progressed = false;
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            let (route, cap) = f.expect("unfixed implies live");
            let at_ceiling = cap <= level * (1.0 + 1e-12);
            let crosses_saturated = route.iter().any(|l| {
                let lu = l.as_usize();
                unfixed_per_link[lu] > 0
                    && avail[lu] / unfixed_per_link[lu] as f64 <= level * (1.0 + 1e-12)
            });
            if at_ceiling || crosses_saturated {
                let r = if at_ceiling { cap } else { level };
                rates[i] = Some(r);
                fixed[i] = true;
                progressed = true;
                remaining -= 1;
                for l in route {
                    let lu = l.as_usize();
                    avail[lu] = (avail[lu] - r).max(0.0);
                    unfixed_per_link[lu] -= 1;
                }
            }
        }
        assert!(progressed, "max-min made no progress");
    }
    rates
}

/// Read access to the flow/link tables the incremental solver shares
/// bandwidth over. Implemented by [`crate::FlowNet`] internally and by
/// plain vectors in tests.
pub trait SharingProblem {
    /// Capacity of a link (bytes/s).
    fn capacity(&self, link: u32) -> f64;
    /// Number of live flows currently crossing a link.
    fn live_flows_on(&self, link: u32) -> u32;
    /// Route of a live flow.
    fn route(&self, flow: u32) -> &[LinkId];
    /// Per-flow rate ceiling.
    fn ceiling(&self, flow: u32) -> f64;
}

/// Reusable progressive-filling solver over an arbitrary subset of flows
/// and links (one connected component of the flow/link graph).
///
/// This is the same arithmetic as [`maxmin_rates`], restricted to the
/// given subsets: identical expressions evaluated in identical order, so
/// running it over one component yields bitwise the rates a global run
/// would assign to that component's flows (components are independent
/// sub-problems; only sub-1e-12 cross-component ties can differ from the
/// interleaved global pass, which the differential tests bound).
///
/// All working storage is owned by the solver and grown on demand, so
/// steady-state resharing allocates nothing.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    /// Remaining capacity, indexed by global link id (valid for the
    /// links of the current fill only).
    avail: Vec<f64>,
    /// Unfixed-flow count, indexed by global link id.
    unfixed: Vec<u32>,
    /// Fixed flag, indexed by global flow index.
    fixed: Vec<bool>,
    /// Assigned rates, indexed by global flow index (valid for the flows
    /// of the most recent fill).
    rates: Vec<f64>,
}

impl MaxMinSolver {
    /// A solver with empty scratch storage.
    pub fn new() -> MaxMinSolver {
        MaxMinSolver::default()
    }

    /// Rate assigned to `flow` by the most recent [`MaxMinSolver::fill`]
    /// whose component contained it.
    pub fn rate(&self, flow: u32) -> f64 {
        self.rates[flow as usize]
    }

    /// Solves max-min fairness for one connected component.
    ///
    /// `comp_flows` must be sorted ascending (the fixing pass mutates
    /// shared state mid-iteration, so order is part of the result's
    /// identity); `comp_links` is the set of links those flows cross and
    /// every live flow on a `comp_links` member must be in `comp_flows`
    /// (that is what makes the subset a component).
    pub fn fill<P: SharingProblem>(&mut self, p: &P, comp_links: &[u32], comp_flows: &[u32]) {
        debug_assert!(comp_flows.windows(2).all(|w| w[0] < w[1]));
        let max_link = comp_links
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let max_flow = comp_flows
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        if self.avail.len() < max_link {
            self.avail.resize(max_link, 0.0);
            self.unfixed.resize(max_link, 0);
        }
        if self.fixed.len() < max_flow {
            self.fixed.resize(max_flow, false);
            self.rates.resize(max_flow, 0.0);
        }
        for &l in comp_links {
            self.avail[l as usize] = p.capacity(l);
            self.unfixed[l as usize] = p.live_flows_on(l);
        }
        for &f in comp_flows {
            self.fixed[f as usize] = false;
        }
        let mut remaining = comp_flows.len();
        while remaining > 0 {
            // Most constrained share over links with unfixed flows.
            let mut share = f64::INFINITY;
            for &l in comp_links {
                let n = self.unfixed[l as usize];
                if n > 0 {
                    share = share.min(self.avail[l as usize] / n as f64);
                }
            }
            // Ceilings below the share saturate first.
            let mut min_ceiling = f64::INFINITY;
            for &f in comp_flows {
                if !self.fixed[f as usize] {
                    min_ceiling = min_ceiling.min(p.ceiling(f));
                }
            }
            let level = share.min(min_ceiling);
            assert!(
                level.is_finite() && level >= 0.0,
                "max-min failed to converge"
            );
            // Fix every flow at its ceiling if ceiling <= level, or at
            // `level` if it crosses a saturated link.
            let mut progressed = false;
            for &f in comp_flows {
                if self.fixed[f as usize] {
                    continue;
                }
                let cap = p.ceiling(f);
                let route = p.route(f);
                let at_ceiling = cap <= level * (1.0 + 1e-12);
                let crosses_saturated = route.iter().any(|l| {
                    let lu = l.as_usize();
                    self.unfixed[lu] > 0
                        && self.avail[lu] / self.unfixed[lu] as f64 <= level * (1.0 + 1e-12)
                });
                if at_ceiling || crosses_saturated {
                    let r = if at_ceiling { cap } else { level };
                    self.rates[f as usize] = r;
                    self.fixed[f as usize] = true;
                    progressed = true;
                    remaining -= 1;
                    for l in route {
                        let lu = l.as_usize();
                        self.avail[lu] = (self.avail[lu] - r).max(0.0);
                        self.unfixed[lu] -= 1;
                    }
                }
            }
            assert!(progressed, "max-min made no progress");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(ids: &[u32]) -> Vec<LinkId> {
        ids.iter().map(|i| LinkId(*i)).collect()
    }

    #[test]
    fn equal_flows_split_evenly() {
        let r0 = l(&[0]);
        let r1 = l(&[0]);
        let rates = maxmin_rates(
            vec![100.0],
            vec![Some((r0.as_slice(), 1e9)), Some((r1.as_slice(), 1e9))],
        );
        assert_eq!(rates, vec![Some(50.0), Some(50.0)]);
    }

    #[test]
    fn capped_flow_returns_headroom() {
        let r0 = l(&[0]);
        let r1 = l(&[0]);
        let rates = maxmin_rates(
            vec![100.0],
            vec![Some((r0.as_slice(), 10.0)), Some((r1.as_slice(), 1e9))],
        );
        assert_eq!(rates[0], Some(10.0));
        assert_eq!(rates[1], Some(90.0));
    }

    #[test]
    fn classic_three_flow_two_link_example() {
        // Links A (cap 100) and B (cap 100). Flow 0 uses A+B, flow 1 uses
        // A, flow 2 uses B. Max-min: each link splits 50/50.
        let r0 = l(&[0, 1]);
        let r1 = l(&[0]);
        let r2 = l(&[1]);
        let rates = maxmin_rates(
            vec![100.0, 100.0],
            vec![
                Some((r0.as_slice(), 1e9)),
                Some((r1.as_slice(), 1e9)),
                Some((r2.as_slice(), 1e9)),
            ],
        );
        assert_eq!(rates, vec![Some(50.0), Some(50.0), Some(50.0)]);
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // Link A cap 30 with flows 0,1; link B cap 100 with flows 1,2.
        // Progressive filling: level 15 fixes flows 0,1 (A saturated);
        // flow 2 then gets 100 - 15 = 85 on B.
        let r0 = l(&[0]);
        let r1 = l(&[0, 1]);
        let r2 = l(&[1]);
        let rates = maxmin_rates(
            vec![30.0, 100.0],
            vec![
                Some((r0.as_slice(), 1e9)),
                Some((r1.as_slice(), 1e9)),
                Some((r2.as_slice(), 1e9)),
            ],
        );
        assert_eq!(rates, vec![Some(15.0), Some(15.0), Some(85.0)]);
    }

    #[test]
    fn dead_slots_are_skipped() {
        let r0 = l(&[0]);
        let rates = maxmin_rates(vec![100.0], vec![None, Some((r0.as_slice(), 1e9)), None]);
        assert_eq!(rates, vec![None, Some(100.0), None]);
    }

    #[test]
    fn no_flows_is_fine() {
        let rates = maxmin_rates(vec![100.0], vec![]);
        assert!(rates.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    struct VecProblem {
        caps: Vec<f64>,
        flows: Vec<(Vec<LinkId>, f64)>,
        live_on: Vec<u32>,
    }

    impl VecProblem {
        fn new(caps: Vec<f64>, flows: Vec<(Vec<LinkId>, f64)>) -> VecProblem {
            let mut live_on = vec![0u32; caps.len()];
            for (route, _) in &flows {
                for l in route {
                    live_on[l.as_usize()] += 1;
                }
            }
            VecProblem {
                caps,
                flows,
                live_on,
            }
        }
    }

    impl SharingProblem for VecProblem {
        fn capacity(&self, link: u32) -> f64 {
            self.caps[link as usize]
        }
        fn live_flows_on(&self, link: u32) -> u32 {
            self.live_on[link as usize]
        }
        fn route(&self, flow: u32) -> &[LinkId] {
            &self.flows[flow as usize].0
        }
        fn ceiling(&self, flow: u32) -> f64 {
            self.flows[flow as usize].1
        }
    }

    fn arb_problem() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<usize>, f64)>)> {
        (
            proptest::collection::vec(1.0f64..1000.0, 1..6),
            proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..4), 0.5f64..2000.0),
                1..12,
            ),
        )
    }

    fn dedup_routes(nl: usize, routes: Vec<(Vec<usize>, f64)>) -> Vec<(Vec<LinkId>, f64)> {
        routes
            .into_iter()
            .map(|(r, cap)| {
                let mut r: Vec<LinkId> = r.into_iter().map(|i| LinkId((i % nl) as u32)).collect();
                r.sort_unstable();
                r.dedup();
                (r, cap)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Differential: the subset solver run over the whole problem is
        /// BITWISE identical to the [`maxmin_rates`] reference — same
        /// expressions, same iteration order, so not merely close.
        #[test]
        fn solver_matches_reference_bitwise((caps, routes) in arb_problem()) {
            let nl = caps.len();
            let flows = dedup_routes(nl, routes);
            let flow_refs: Vec<Option<(&[LinkId], f64)>> =
                flows.iter().map(|(r, c)| Some((r.as_slice(), *c))).collect();
            let want = maxmin_rates(caps.clone(), flow_refs);

            let p = VecProblem::new(caps, flows);
            let all_links: Vec<u32> = (0..nl as u32).collect();
            let all_flows: Vec<u32> = (0..p.flows.len() as u32).collect();
            let mut solver = MaxMinSolver::new();
            solver.fill(&p, &all_links, &all_flows);
            for (i, w) in want.iter().enumerate() {
                let w = w.expect("live flow has a rate");
                let got = solver.rate(i as u32);
                prop_assert!(
                    got.to_bits() == w.to_bits(),
                    "flow {i}: solver {got} != reference {w}"
                );
            }
        }

        /// Scratch reuse across fills is sound: re-solving a second
        /// problem with the same solver matches a fresh solver bitwise.
        #[test]
        fn solver_scratch_reuse_is_clean(
            (caps_a, routes_a) in arb_problem(),
            (caps_b, routes_b) in arb_problem(),
        ) {
            let pa = VecProblem::new(caps_a.clone(), dedup_routes(caps_a.len(), routes_a));
            let pb = VecProblem::new(caps_b.clone(), dedup_routes(caps_b.len(), routes_b));
            let links_a: Vec<u32> = (0..pa.caps.len() as u32).collect();
            let flows_a: Vec<u32> = (0..pa.flows.len() as u32).collect();
            let links_b: Vec<u32> = (0..pb.caps.len() as u32).collect();
            let flows_b: Vec<u32> = (0..pb.flows.len() as u32).collect();

            let mut reused = MaxMinSolver::new();
            reused.fill(&pa, &links_a, &flows_a);
            reused.fill(&pb, &links_b, &flows_b);
            let mut fresh = MaxMinSolver::new();
            fresh.fill(&pb, &links_b, &flows_b);
            for f in &flows_b {
                prop_assert!(reused.rate(*f).to_bits() == fresh.rate(*f).to_bits());
            }
        }

        /// Max-min invariants: (1) no link oversubscribed, (2) every flow
        /// within its ceiling, (3) every flow is bottlenecked — either at
        /// its ceiling or on some saturated link (Pareto efficiency +
        /// max-min characterization).
        #[test]
        fn maxmin_invariants(
            caps in proptest::collection::vec(1.0f64..1000.0, 1..6),
            routes in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..4), 0.5f64..2000.0), 1..12),
        ) {
            let nl = caps.len();
            let flows: Vec<(Vec<LinkId>, f64)> = routes
                .into_iter()
                .map(|(r, cap)| {
                    let mut r: Vec<LinkId> =
                        r.into_iter().map(|i| LinkId((i % nl) as u32)).collect();
                    r.sort_unstable();
                    r.dedup();
                    (r, cap)
                })
                .collect();
            let flow_refs: Vec<Option<(&[LinkId], f64)>> =
                flows.iter().map(|(r, c)| Some((r.as_slice(), *c))).collect();
            let rates = maxmin_rates(caps.clone(), flow_refs);

            let mut used = vec![0.0f64; nl];
            for (i, rate) in rates.iter().enumerate() {
                let rate = rate.expect("live flow has rate");
                let (route, cap) = &flows[i];
                prop_assert!(rate <= cap * (1.0 + 1e-9), "flow {i} beyond ceiling");
                prop_assert!(rate >= 0.0);
                for ln in route {
                    used[ln.as_usize()] += rate;
                }
            }
            for (ln, u) in used.iter().enumerate() {
                prop_assert!(*u <= caps[ln] * (1.0 + 1e-6),
                    "link {ln} oversubscribed: {u} > {}", caps[ln]);
            }
            // Bottleneck property.
            for (i, rate) in rates.iter().enumerate() {
                let rate = rate.unwrap();
                let (route, cap) = &flows[i];
                let at_ceiling = rate >= cap * (1.0 - 1e-9);
                let on_saturated = route.iter().any(|ln| {
                    used[ln.as_usize()] >= caps[ln.as_usize()] * (1.0 - 1e-6)
                });
                prop_assert!(at_ceiling || on_saturated,
                    "flow {i} is not bottlenecked (rate {rate}, ceiling {cap})");
            }
        }
    }
}
