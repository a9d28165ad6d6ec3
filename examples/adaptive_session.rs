//! Bandwidth adaptation under congestion: a receiving site watches a
//! remote participant, its access link degrades mid-session, and the
//! session runtime's per-epoch refit (the paper's reference [27]
//! substrate) degrades the least-contributing streams first — then
//! restores them as the link recovers. Nothing is dropped: every stream
//! stays delivered, at the rung the plan ships.
//!
//! Run with: `cargo run --example adaptive_session`

use teeve::geometry::{FieldOfView, ViewSelector};
use teeve::prelude::*;
use teeve::runtime::RuntimeEvent;
use teeve::types::DisplayId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 5-site meeting circle; site 0's display looks across at site 2
    //    and takes its six most contributing streams.
    let costs = CostMatrix::from_fn(5, |_, _| CostMs::new(6));
    let session = Session::builder(costs)
        .cameras_per_site(8)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(12))
        .view_selector(ViewSelector::top_k(6))
        .build();
    let space = session.space();
    let eye =
        space.participant_position(SiteId::new(0)) + teeve::geometry::Vec3::new(0.0, 0.0, 1.6);
    let fov = FieldOfView::looking_at(eye, space.participant_position(SiteId::new(2)), 70.0);

    // 2. FOV contribution scores become refit priorities.
    println!("subscribed streams by FOV contribution:");
    for s in ViewSelector::top_k(6).select(space, &fov) {
        println!("  {}  score {:.3}", s.stream, s.score);
    }
    let receiver = SiteId::new(0);
    let universe = subscription_universe(&session)?;
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default())?;
    runtime.apply_epoch(&[RuntimeEvent::FovChange {
        display: DisplayId::new(receiver, 0),
        fov,
    }]);

    // 3. Drive one epoch per sample through a congestion dip:
    //    60 → 18 → 60 Mbps.
    println!("\n t   observed   shipped");
    for t in 0..30 {
        let mbps = match t {
            0..=9 => 60.0,
            10..=19 => 18.0,
            _ => 60.0,
        };
        let outcome = runtime.apply_epoch(&[RuntimeEvent::BandwidthSample {
            site: receiver,
            bits_per_sec: mbps * 1e6,
        }]);
        let commit = &outcome.commit;
        let granted = &commit.granted[receiver.index()];
        let total: u64 = granted.iter().map(|&(_, q)| commit.ladder.rate_of(q)).sum();
        let rungs: Vec<String> = granted
            .iter()
            .map(|(stream, q)| {
                if q.is_full() {
                    format!("{stream}=full")
                } else {
                    format!("{stream}={q}")
                }
            })
            .collect();
        println!(
            "{t:3}  {mbps:5.1} Mbps  {:5.1} Mbps: {}",
            total as f64 / 1e6,
            rungs.join(" ")
        );
    }
    Ok(())
}
