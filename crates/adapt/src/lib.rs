//! Bandwidth estimation for 3D tele-immersive sessions.
//!
//! The paper's dissemination model decides *which* streams cross the
//! overlay; the session-layer adaptation framework of the paper's
//! reference \[27\] (Yang et al., NOSSDAV '06) decides *at what quality*
//! each admitted stream is served when the receiving site's measured
//! bandwidth falls short. This crate holds the measuring half:
//!
//! * [`BandwidthEstimator`] — EWMA throughput estimation;
//! * [`QualityLadder`] — the discrete bit rates a stream can degrade
//!   through (re-exported from `teeve-types`).
//!
//! The deciding half is one greedy, `teeve_overlay::fit_qualities`,
//! which the session runtime (`teeve-runtime`) applies every epoch to
//! each site's estimate; the rungs it ships are in the epoch's
//! `EpochCommit::granted`.
//!
//! # Examples
//!
//! ```
//! use teeve_adapt::{BandwidthEstimator, Quality, QualityLadder};
//!
//! // A receiver measures 18 Mbps of throughput.
//! let mut est = BandwidthEstimator::new(0.3);
//! est.observe_bps(18_000_000.0);
//! assert!(est.is_warm());
//!
//! // Two paper-ladder streams fit at full quality, four only at rung 1.
//! let ladder = QualityLadder::paper_default();
//! let budget = est.estimate_bps() as u64;
//! assert!(2 * ladder.rate_of(Quality::FULL) <= budget);
//! assert!(4 * ladder.rate_of(Quality::FULL) > budget);
//! assert!(4 * ladder.rate_of(Quality::new(1)) <= budget);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimator;

pub use estimator::BandwidthEstimator;
// The quality vocabulary (rung indices, levels, ladders) lives in
// `teeve-types` so dissemination plan entries and the wire protocol can
// carry it too; re-exported here for the adaptation-centric callers.
pub use teeve_types::{Quality, QualityLadder, QualityLevel};
