//! Live subscription churn, runtime-driven: participants keep turning to
//! look at one another, sites drop out and rejoin, receivers report their
//! bandwidth — and the epoch-driven [`SessionRuntime`] keeps the overlay
//! repaired incrementally, emitting per-epoch plan *deltas* instead of
//! full replans. This is the "real deployment" loop the paper defers to
//! future work, closed end to end.
//!
//! Run with: `cargo run --example fov_churn`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::prelude::*;
use teeve::runtime::{RuntimeEvent, TraceConfig};
use teeve::types::{DisplayId, SiteId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 5-site session with modest capacities, so churn actually
    //    contends for bandwidth.
    let costs = teeve::types::CostMatrix::from_fn(5, |i, j| {
        teeve::types::CostMs::new(4 + ((i * 5 + j) % 5) as u32 * 3)
    });
    let mut session = Session::builder(costs)
        .cameras_per_site(8)
        .displays_per_site(2)
        .symmetric_capacity(teeve::types::Degree::new(10))
        .build();

    // Initial FOVs: each site's first display watches the right-hand
    // neighbour, the second the left-hand one.
    let n = session.site_count();
    for site in SiteId::all(n) {
        let i = site.index() as u32;
        session.subscribe_viewpoint(DisplayId::new(site, 0), SiteId::new((i + 1) % n as u32));
        session.subscribe_viewpoint(
            DisplayId::new(site, 1),
            SiteId::new((i + n as u32 - 1) % n as u32),
        );
    }

    // 2. The runtime owns the session from here: the subscription
    //    universe admits any FOV the events may select, and the seeded
    //    overlay covers the initial gazes.
    let universe = subscription_universe(&session)?;
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default())?;
    println!(
        "seeded: {} forwarding entries across {} sites\n",
        runtime
            .plan()
            .site_plans()
            .iter()
            .map(|sp| sp.entries.len())
            .sum::<usize>(),
        n
    );

    // 3. Twelve epochs of scripted churn: FOV swings dominate, one site
    //    drops out and rejoins, and receivers report throughput.
    let trace = TraceConfig {
        epochs: 12,
        events_per_epoch: 4,
        ..TraceConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2008);
    println!(
        "{:>5} {:>7} {:>6} {:>6} {:>6} {:>7} {:>9} {:>8}  path",
        "epoch", "events", "joins", "rej", "drop", "delta", "plan", "µs"
    );
    for epoch_events in trace.generate(n, 2, &mut rng) {
        let outcome = runtime.apply_epoch(&epoch_events);
        runtime.validate()?;
        let r = &outcome.report;
        println!(
            "{:>5} {:>7} {:>6} {:>6} {:>6} {:>7} {:>9} {:>8}  {}",
            r.epoch,
            r.events,
            r.subscribes,
            r.rejected,
            r.dropped_subscriptions,
            r.delta_entries,
            r.plan_entries,
            r.reconverge.as_micros(),
            if r.rebuilt { "rebuild" } else { "repair" },
        );
        // The rungs the refit shipped to each sampling site, read from
        // the epoch's commit: every granted stream is still delivered.
        let commit = &outcome.commit;
        for event in &epoch_events {
            if let RuntimeEvent::BandwidthSample { site, bits_per_sec } = event {
                let granted = &commit.granted[site.index()];
                if granted.is_empty() {
                    continue;
                }
                let total: u64 = granted.iter().map(|&(_, q)| commit.ladder.rate_of(q)).sum();
                let rungs: Vec<String> = granted.iter().map(|(_, q)| q.to_string()).collect();
                println!(
                    "      refit {site}: {} streams in {:.1} Mbps sampled, {:.1} Mbps shipped at {}",
                    granted.len(),
                    bits_per_sec / 1e6,
                    total as f64 / 1e6,
                    rungs.join(" "),
                );
            }
        }
    }

    // 4. The whole run in one line: how much dissemination the deltas
    //    saved over shipping full plans every epoch.
    let report = runtime.report();
    println!(
        "\n{} epochs ({} rebuilt): {} joins, {} accepted, {} dropped; \
         delta traffic {} entries vs {} full-plan entries ({:.0}% saved); \
         mean reconvergence {} µs",
        report.epochs,
        report.rebuilds,
        report.subscribes,
        report.accepted,
        report.dropped_subscriptions,
        report.delta_entries,
        report.plan_entries,
        (1.0 - report.delta_fraction()) * 100.0,
        report.mean_reconverge().as_micros(),
    );
    Ok(())
}
