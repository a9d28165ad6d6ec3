//! The subscription universe a live session's overlay operates over.
//!
//! The paper constructs the overlay *statically* and defers live
//! re-subscription to future work. A live session lets any display
//! retarget its field of view at any time, so the incremental
//! [`OverlayManager`](teeve_overlay::OverlayManager) that repairs its
//! trees (driven epoch by epoch by the session runtime, `teeve-runtime`)
//! must admit every subscription a FOV could ever select.

use teeve_overlay::ProblemInstance;
use teeve_types::{SiteId, StreamId};

use crate::session::Session;

/// Error produced when building a session's subscription universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// The session's full subscription universe is not a valid problem
    /// instance (e.g. fewer than three sites).
    InvalidUniverse(teeve_overlay::ProblemError),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::InvalidUniverse(e) => write!(f, "invalid subscription universe: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChurnError::InvalidUniverse(e) => Some(e),
        }
    }
}

/// Builds the session's **subscription universe**: a problem instance in
/// which every site is a declared subscriber of every foreign stream, so
/// an incremental overlay manager can admit any FOV a live session may
/// ever select. This is the instance the session runtime (`teeve-runtime`)
/// operates over.
///
/// # Errors
///
/// Returns an error if the session cannot form a valid problem instance
/// (fewer than three sites).
pub fn subscription_universe(session: &Session) -> Result<ProblemInstance, ChurnError> {
    let n = session.site_count();
    let streams: Vec<u32> = SiteId::all(n)
        .map(|s| session.rp(s).camera_count())
        .collect();
    let mut builder = ProblemInstance::builder(session.costs().clone(), session.cost_bound())
        .capacities(session.capacities().to_vec())
        .streams_per_site(&streams);
    for sub in SiteId::all(n) {
        for origin in SiteId::all(n) {
            if sub == origin {
                continue;
            }
            for q in 0..streams[origin.index()] {
                builder = builder.subscribe(sub, StreamId::new(origin, q));
            }
        }
    }
    builder.build().map_err(ChurnError::InvalidUniverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeve_types::{CostMatrix, CostMs, Degree};

    #[test]
    fn two_site_universe_is_rejected() {
        let costs = CostMatrix::from_fn(2, |_, _| CostMs::new(4));
        let s = Session::builder(costs)
            .cameras_per_site(2)
            .displays_per_site(1)
            .symmetric_capacity(Degree::new(4))
            .build();
        assert!(matches!(
            subscription_universe(&s),
            Err(ChurnError::InvalidUniverse(_))
        ));
    }
}
