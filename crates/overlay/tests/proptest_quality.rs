//! Property tests for `fit_qualities`, the one degradation greedy: the
//! overlay's rate admission and the session runtime's per-epoch refit
//! both decide rungs through it.

use proptest::prelude::*;
use teeve_overlay::{fit_qualities, QualityFit};
use teeve_types::{Quality, QualityLadder, QualityLevel, SiteId, StreamId};

/// An arbitrary descending quality ladder of 1–4 rungs.
fn arb_ladder() -> impl Strategy<Value = QualityLadder> {
    proptest::collection::vec(1_000u64..10_000_000, 1..5).prop_map(|mut rates| {
        rates.sort_unstable_by(|a, b| b.cmp(a));
        rates.dedup();
        QualityLadder::new(
            rates
                .into_iter()
                .map(|bitrate_bps| QualityLevel { bitrate_bps })
                .collect(),
        )
    })
}

/// An arbitrary set of 0–11 distinct streams across a few origins, each
/// with a score in `[0, 1)`.
fn arb_streams() -> impl Strategy<Value = Vec<(StreamId, f64)>> {
    proptest::collection::vec((0u32..4, 0.0f64..1.0), 0..12).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(q, (origin, score))| (StreamId::new(SiteId::new(origin), q as u32), score))
            .collect()
    })
}

/// `streams` reversed, then rotated left by `by`.
fn permuted(streams: &[(StreamId, f64)], by: usize) -> Vec<(StreamId, f64)> {
    let mut out: Vec<(StreamId, f64)> = streams.iter().rev().copied().collect();
    if !out.is_empty() {
        let by = by % out.len();
        out.rotate_left(by);
    }
    out
}

fn rate_sum(ladder: &QualityLadder, fit: &QualityFit) -> u64 {
    fit.qualities.values().map(|&q| ladder.rate_of(q)).sum()
}

proptest! {
    /// Every input stream gets exactly one rung.
    #[test]
    fn plan_covers_every_stream(
        ladder in arb_ladder(),
        streams in arb_streams(),
        budget in 0u64..100_000_000,
    ) {
        let fit = fit_qualities(&ladder, Some(budget), &streams);
        prop_assert_eq!(fit.qualities.len(), streams.len());
        for (stream, _) in &streams {
            prop_assert!(fit.qualities.contains_key(stream), "{} missing", stream);
        }
    }

    /// Every granted rung is on the ladder, and `total_bps` is the sum of
    /// those rungs' rates.
    #[test]
    fn grants_come_from_the_ladder(
        ladder in arb_ladder(),
        streams in arb_streams(),
        budget in 0u64..100_000_000,
    ) {
        let fit = fit_qualities(&ladder, Some(budget), &streams);
        for (stream, &rung) in &fit.qualities {
            prop_assert!(rung <= ladder.floor(), "{} below the floor", stream);
        }
        prop_assert_eq!(fit.total_bps, rate_sum(&ladder, &fit));
    }

    /// A fit that reports fitting never exceeds its budget; one that does
    /// not has every stream at the ladder floor.
    #[test]
    fn plan_fits_budget(
        ladder in arb_ladder(),
        streams in arb_streams(),
        budget in 0u64..100_000_000,
    ) {
        let fit = fit_qualities(&ladder, Some(budget), &streams);
        if fit.fits {
            prop_assert!(fit.total_bps <= budget, "{} > {}", fit.total_bps, budget);
        } else {
            prop_assert!(fit.total_bps > budget);
            prop_assert!(fit.qualities.values().all(|&q| q == ladder.floor()));
        }
    }

    /// A higher-scored stream never sits at a coarser rung than a
    /// lower-scored one.
    #[test]
    fn priority_order_is_respected(
        ladder in arb_ladder(),
        streams in arb_streams(),
        budget in 0u64..100_000_000,
    ) {
        let fit = fit_qualities(&ladder, Some(budget), &streams);
        for &(a, score_a) in &streams {
            for &(b, score_b) in &streams {
                if score_a > score_b {
                    prop_assert!(
                        fit.qualities[&a] <= fit.qualities[&b],
                        "score {} at {} vs score {} at {}",
                        score_a, fit.qualities[&a], score_b, fit.qualities[&b]
                    );
                }
            }
        }
    }

    /// The input order does not change the fit.
    #[test]
    fn plans_are_deterministic(
        ladder in arb_ladder(),
        streams in arb_streams(),
        budget in 0u64..100_000_000,
        by in 0usize..12,
    ) {
        let a = fit_qualities(&ladder, Some(budget), &streams);
        let b = fit_qualities(&ladder, Some(budget), &permuted(&streams, by));
        prop_assert_eq!(a, b);
    }

    /// NaN scores (one in four draws) still place every stream on the
    /// ladder, identically whatever the input order.
    #[test]
    fn nan_scores_are_placed_deterministically(
        ladder in arb_ladder(),
        streams in arb_streams(),
        nans in proptest::collection::vec(0u32..4, 12..13),
        budget in 0u64..100_000_000,
        by in 0usize..12,
    ) {
        let streams: Vec<(StreamId, f64)> = streams
            .into_iter()
            .zip(nans)
            .map(|((stream, score), nan)| (stream, if nan == 0 { f64::NAN } else { score }))
            .collect();
        let a = fit_qualities(&ladder, Some(budget), &streams);
        let b = fit_qualities(&ladder, Some(budget), &permuted(&streams, by));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.qualities.len(), streams.len());
        prop_assert!(a.qualities.values().all(|&q| q <= ladder.floor()));
        prop_assert!(!a.fits || a.total_bps <= budget);
    }

    /// Without a budget every stream stays at full quality.
    #[test]
    fn no_budget_keeps_every_stream_full(ladder in arb_ladder(), streams in arb_streams()) {
        let fit = fit_qualities(&ladder, None, &streams);
        prop_assert!(fit.fits);
        prop_assert_eq!(fit.qualities.len(), streams.len());
        prop_assert!(fit.qualities.values().all(|&q| q == Quality::FULL));
        prop_assert_eq!(fit.total_bps, streams.len() as u64 * ladder.full().bitrate_bps);
    }
}
