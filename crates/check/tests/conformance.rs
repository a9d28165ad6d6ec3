//! Model-conformance proptest: the model checker abstracts an RP's
//! reaction to `Reconfigure` as [`swap_table`] (apply iff not older,
//! always ack). This test runs that *same function* over real
//! `DisseminationPlan`/`SitePlan` state evolved by randomly generated
//! deltas — overlay churn, diffed and applied exactly like the
//! coordinator does — and asserts the abstract step and the real plan
//! semantics agree on every site under arbitrary delivery orders,
//! including duplicated and stale redeliveries.
//!
//! If `RpCore` ever diverges from the swap rule (say, merging tables
//! instead of replacing them), the model keeps passing but this bridge
//! breaks — which is the point: the model's soundness reduces to this
//! conformance plus the mirrored rule.

use proptest::prelude::*;
use teeve_check::model::swap_table;
use teeve_overlay::{OverlayManager, ProblemInstance};
use teeve_pubsub::{DisseminationPlan, PlanDelta, SitePlan, StreamProfile};
use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};

/// Builds an arbitrary problem instance from proptest-drawn parameters
/// (same construction the workspace-level invariant proptests use).
fn arbitrary_problem(
    n: usize,
    capacity: u32,
    edges: &[(u8, u8, u8)],
    cost_seed: u8,
) -> Option<ProblemInstance> {
    let streams_per_site = 3u32;
    let costs = CostMatrix::from_fn(n, |i, j| {
        CostMs::new(1 + ((i * 31 + j * 17 + cost_seed as usize) % 9) as u32)
    });
    let mut builder = ProblemInstance::builder(costs, CostMs::new(40))
        .symmetric_capacities(Degree::new(capacity))
        .streams_per_site(&vec![streams_per_site; n]);
    for &(sub, origin, q) in edges {
        let sub = SiteId::new(u32::from(sub) % n as u32);
        let origin_site = SiteId::new(u32::from(origin) % n as u32);
        if sub == origin_site {
            continue;
        }
        builder = builder.subscribe(
            sub,
            StreamId::new(origin_site, u32::from(q) % streams_per_site),
        );
    }
    builder.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random churn -> plan revisions -> deltas; the delta-evolved plan
    /// matches the freshly derived one at every revision, and abstract
    /// RPs driven by `swap_table` under arbitrary (reordered, duplicated,
    /// lossy) delivery end up bit-equal to the revision each site last
    /// applied.
    #[test]
    fn abstract_table_application_matches_real_site_plans(
        n in 3usize..6,
        capacity in 2u32..6,
        edges in proptest::collection::vec((0u8..6, 0u8..6, 0u8..3), 1..30),
        ops in proptest::collection::vec((any::<bool>(), 0usize..64), 1..30),
        deliveries in proptest::collection::vec(0usize..256, 0..60),
        cost_seed in 0u8..255,
    ) {
        let Some(problem) = arbitrary_problem(n, capacity, &edges, cost_seed) else {
            return Ok(());
        };
        let requests: Vec<_> = problem.requests().map(|r| (r.subscriber, r.stream)).collect();
        if requests.is_empty() {
            return Ok(());
        }

        // Seed the overlay, then churn it in rounds; each round becomes
        // one plan revision, reached by delta exactly as the coordinator
        // reaches it.
        let mut manager = OverlayManager::new(problem.clone());
        let mut truth = DisseminationPlan::from_forest(
            &problem, &manager.forest_snapshot(), StreamProfile::default());
        let mut revisions = vec![truth.clone()];
        // Per-site deliverable events: (revision, that revision's table).
        let mut events: Vec<(usize, u64, SitePlan)> = Vec::new();

        for chunk in ops.chunks(3) {
            for &(join, pick) in chunk {
                let (sub, stream) = requests[pick % requests.len()];
                if join {
                    let _ = manager.subscribe(sub, stream);
                } else {
                    let _ = manager.unsubscribe(sub, stream);
                }
            }
            let next = DisseminationPlan::from_forest(
                &problem, &manager.forest_snapshot(), StreamProfile::default());
            let delta = PlanDelta::diff(&truth, &next);
            let touched = delta.touched_sites();
            delta.apply(&mut truth).expect("delta diffed against truth applies to it");

            // Conformance of the delta path itself: the delta-evolved
            // plan is entry-for-entry the freshly derived plan.
            prop_assert_eq!(truth.site_plans(), next.site_plans());
            prop_assert_eq!(truth.revision(), revisions.len() as u64);

            for site in touched {
                events.push((
                    site.index(),
                    truth.revision(),
                    truth.site_plan(site).clone(),
                ));
            }
            revisions.push(truth.clone());
        }

        // Abstract fleet: each RP holds (revision, SitePlan) and applies
        // Reconfigures through the model's swap rule, in an arbitrary
        // delivery order with duplicates and drops.
        let mut fleet: Vec<(u64, SitePlan)> = (0..n)
            .map(|s| (0u64, revisions[0].site_plan(SiteId::new(s as u32)).clone()))
            .collect();
        let mut last_applied = vec![0u64; n];
        if !events.is_empty() {
            for &pick in &deliveries {
                let (site, rev, table) = &events[pick % events.len()];
                swap_table(&mut fleet[*site], *rev, table.clone());
                last_applied[*site] = last_applied[*site].max(*rev);
            }
        }

        for (site, state) in fleet.iter().enumerate() {
            let expected_rev = last_applied[site];
            let expected_table = revisions[expected_rev as usize].site_plan(SiteId::new(site as u32));
            prop_assert_eq!(state.0, expected_rev, "site {} revision", site);
            prop_assert_eq!(&state.1, expected_table, "site {} table", site);
        }
    }

    /// The model's resync rule over real plans: revisions are dictated,
    /// the coordinator disappears mid-flight (messages still land from
    /// the backlog, reordered and duplicated), and on reconnect it
    /// re-dictates its latest revision to every site — exactly the
    /// re-dictation barrier the crash scopes verify. Afterward every
    /// site must run the latest revision's real `SitePlan`, and no site
    /// may ever have regressed along the way.
    #[test]
    fn resync_redictation_converges_real_site_plans_across_a_coordinator_gap(
        n in 3usize..6,
        capacity in 2u32..6,
        edges in proptest::collection::vec((0u8..6, 0u8..6, 0u8..3), 1..30),
        ops in proptest::collection::vec((any::<bool>(), 0usize..64), 1..30),
        pre_gap in proptest::collection::vec(0usize..256, 0..40),
        backlog in proptest::collection::vec(0usize..256, 0..40),
        post_dups in proptest::collection::vec(0usize..256, 0..40),
        cost_seed in 0u8..255,
    ) {
        let Some(problem) = arbitrary_problem(n, capacity, &edges, cost_seed) else {
            return Ok(());
        };
        let requests: Vec<_> = problem.requests().map(|r| (r.subscriber, r.stream)).collect();
        if requests.is_empty() {
            return Ok(());
        }

        // Dictated history: churn in rounds, each round one revision
        // reached by delta apply (the coordinator's own path).
        let mut manager = OverlayManager::new(problem.clone());
        let mut truth = DisseminationPlan::from_forest(
            &problem, &manager.forest_snapshot(), StreamProfile::default());
        let mut revisions = vec![truth.clone()];
        let mut events: Vec<(usize, u64, SitePlan)> = Vec::new();
        for chunk in ops.chunks(3) {
            for &(join, pick) in chunk {
                let (sub, stream) = requests[pick % requests.len()];
                if join {
                    let _ = manager.subscribe(sub, stream);
                } else {
                    let _ = manager.unsubscribe(sub, stream);
                }
            }
            let next = DisseminationPlan::from_forest(
                &problem, &manager.forest_snapshot(), StreamProfile::default());
            let delta = PlanDelta::diff(&truth, &next);
            let touched = delta.touched_sites();
            delta.apply(&mut truth).expect("delta diffed against truth applies to it");
            for site in touched {
                events.push((site.index(), truth.revision(), truth.site_plan(site).clone()));
            }
            revisions.push(truth.clone());
        }
        let latest = (revisions.len() - 1) as u64;

        let mut fleet: Vec<(u64, SitePlan)> = (0..n)
            .map(|s| (0u64, revisions[0].site_plan(SiteId::new(s as u32)).clone()))
            .collect();
        let deliver = |fleet: &mut Vec<(u64, SitePlan)>, picks: &[usize]| {
            if events.is_empty() {
                return Ok(());
            }
            for &pick in picks {
                let (site, rev, table) = &events[pick % events.len()];
                let before = fleet[*site].0;
                swap_table(&mut fleet[*site], *rev, table.clone());
                prop_assert!(fleet[*site].0 >= before, "site {} regressed", site);
            }
            Ok(())
        };

        // Some deliveries land, then the coordinator crashes. The
        // backlog keeps landing through the gap (RP-inbound messages
        // survive in kernel buffers, reordered and duplicated) — RPs
        // keep applying, they just can't ack.
        deliver(&mut fleet, &pre_gap)?;
        deliver(&mut fleet, &backlog)?;

        // Reconnect: the coordinator re-dictates its latest revision to
        // every site as the resync barrier (the model's resync rule).
        for (site, state) in fleet.iter_mut().enumerate() {
            let before = state.0;
            swap_table(
                state,
                latest,
                revisions[latest as usize].site_plan(SiteId::new(site as u32)).clone(),
            );
            prop_assert!(state.0 >= before, "site {} regressed at resync", site);
        }

        // Late duplicates of stale Reconfigures must all bounce off.
        deliver(&mut fleet, &post_dups)?;

        for (site, state) in fleet.iter().enumerate() {
            let expected = revisions[latest as usize].site_plan(SiteId::new(site as u32));
            prop_assert_eq!(state.0, latest, "site {} revision after resync", site);
            prop_assert_eq!(&state.1, expected, "site {} table after resync", site);
        }
    }
}
