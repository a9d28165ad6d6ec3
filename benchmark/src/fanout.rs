//! `fanout_1k`: one origin → one relay → 16 leaf RPs, the plan written
//! directly as forwarding entries, 1 KiB frames in unpaced back-to-back
//! batches. Per-message cost dominates and the relay's loop is the
//! bottleneck.

use teeve_overlay::ProblemInstance;
use teeve_pubsub::{ChildLink, DisseminationPlan, ForwardingEntry, StreamProfile};
use teeve_types::{CostMatrix, CostMs, Degree, Quality, SiteId, StreamId};

use crate::data::DataSpec;

/// Leaf RPs behind the relay.
const LEAVES: u32 = 16;
/// Frames per `publish` batch: 16 MiB of leaf deliveries, and 1 MiB per
/// relay → leaf queue, an eighth of the reactor's per-connection cap.
const BATCH_FRAMES: u64 = 1000;

/// Fleets per run, each running the same plan for an equal share of the
/// time (about 1.9 s in a 30 s run): the kernel places a fleet's loop
/// threads once, and one fleet per run made the run's figures hang on that
/// one placement. Sixteen let the interquartile mean over fleets average
/// the placements and leave out the four most and four least disturbed.
const FLEETS: usize = 16;

/// One segment per fleet, all on the relay plan.
pub fn specs() -> Vec<DataSpec> {
    vec![spec(); FLEETS]
}

/// The relay plan. Site 0 originates the one stream, site 1 relays it,
/// sites 2.. are leaves. The plan is fixed: the relay's child order
/// decides which event loop each copy wakes next, and a seeded order
/// moved the delivery rate by up to a fifth between seeds.
fn spec() -> DataSpec {
    let sites = 2 + LEAVES as usize;
    let mut streams = vec![0; sites];
    streams[0] = 1;
    let costs = CostMatrix::from_fn(sites, |_, _| CostMs::new(1));
    let problem = ProblemInstance::builder(costs, CostMs::new(60))
        .symmetric_capacities(Degree::new(LEAVES))
        .streams_per_site(&streams)
        .build()
        .expect("a valid empty relay problem");
    let mut plan = DisseminationPlan::from_trees(&problem, &[], StreamProfile::default());
    let (origin, relay) = (SiteId::new(0), SiteId::new(1));
    let stream = StreamId::new(origin, 0);
    let leaves: Vec<SiteId> = (2..2 + LEAVES).map(SiteId::new).collect();
    let entry = |parent: Option<SiteId>, children: &[SiteId]| ForwardingEntry {
        stream,
        parent,
        children: children.iter().copied().map(ChildLink::full).collect(),
        quality: Quality::FULL,
    };
    plan.upsert_entry(origin, entry(None, &[relay]));
    plan.upsert_entry(relay, entry(Some(origin), &leaves));
    for &leaf in &leaves {
        plan.upsert_entry(leaf, entry(Some(relay), &[]));
    }
    DataSpec {
        plan,
        payload_bytes: 1024,
        batch_frames: BATCH_FRAMES,
        interval: None,
        warmup_batches: 10,
    }
}
