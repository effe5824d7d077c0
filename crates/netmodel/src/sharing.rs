//! Bandwidth sharing: the policy type and the max-min test referee.
//!
//! `maxmin_rates` implements textbook progressive filling: repeatedly
//! find the most constrained link, give every unfixed flow crossing it the
//! link's fair share, remove them, and continue. Flows additionally carry a
//! per-flow ceiling (protocol cap); a flow whose ceiling is below the fair
//! share saturates at its ceiling and returns its unused share to the pool.
//! It is compiled for tests only: they hold every bottleneck allotment
//! of [`crate::FlowNet`] to at most its max-min rate.

#[cfg(test)]
use platform::LinkId;

/// The sharing algorithm [`crate::FlowNet`] applies. It has one variant
/// and nothing reads it; it is kept only so that `FlowNet::new` keeps the
/// signature the frozen benchmark binary (`crates/bench/src/bin/titbench`)
/// calls it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Per-flow bottleneck share: `min(cap_f, min_l capacity_l / n_l)`.
    Bottleneck,
}

/// Computes max-min fair rates.
///
/// `flows[i]` is `Some((route, ceiling))` for live flows and `None` for
/// dead slots (their output is `None` too). Link capacities are given in
/// `capacities`, indexed by [`LinkId`].
#[cfg(test)]
pub(crate) fn maxmin_rates(
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

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
