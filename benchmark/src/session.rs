//! `session_64k`: seeded 10-site sessions with the plans the session
//! runtime derives (multi-hop trees), 64 KiB frames, every origin stream
//! paced at a fixed frame rate. Payload bytes dominate.

use std::time::Duration;

use teeve_pubsub::subscription_universe;
use teeve_runtime::{RuntimeConfig, SessionRuntime};

use crate::common::{derive_seed, sample_session};
use crate::data::DataSpec;

/// Per-stream pacing: 100 frames/s, about 6.7× the paper's 15 frames/s.
const FRAME_INTERVAL: Duration = Duration::from_millis(10);
/// Frames per stream per paced batch (a 260 ms schedule).
const BATCH_FRAMES: u64 = 25;
/// The paper's 3D frame is about 66 kB.
const PAYLOAD_BYTES: usize = 64 * 1024;
/// Sessions per run, one segment (and fleet) each, 2.5 s apiece in a
/// 30 s run. With one session per run, the run's latency hung on that
/// session's trees; with six, a host stall that hit one or two fleets
/// moved it. Twelve let the interquartile mean over fleets leave out the
/// three most and three least disturbed, while the one warm-up batch,
/// which the fleet's latency includes, stays about a tenth of its frames.
const SESSIONS: u64 = 12;

/// One paced segment per seeded session.
pub fn specs(seed: u64) -> Vec<DataSpec> {
    (0..SESSIONS).map(|i| spec(derive_seed(seed, i))).collect()
}

fn spec(seed: u64) -> DataSpec {
    let session = sample_session(seed);
    let universe = subscription_universe(&session).expect("10 sites form a valid universe");
    let runtime = SessionRuntime::new(universe, session, RuntimeConfig::default())
        .expect("the session runtime admits the seeded session");
    DataSpec {
        plan: runtime.plan().clone(),
        payload_bytes: PAYLOAD_BYTES,
        batch_frames: BATCH_FRAMES,
        interval: Some(FRAME_INTERVAL),
        warmup_batches: 1,
    }
}
