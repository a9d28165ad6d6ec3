//! The benchmark's derivations, kept free of I/O so they can be tested on
//! synthetic inputs: medians and quantiles, windowed rates, the paced
//! schedule's lag, the failure ratio, and per-thread CPU attribution.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 for an empty
/// sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (each rounded down) are left out. Over a run's fleets it is
/// steadier than the median, since it averages half of them, and, like
/// the median, a few fleets disturbed by the host do not move it. 0 for an
/// empty sample.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    mean(middle.iter().sum(), middle.len() as f64)
}

/// Indices, in order, of the samples to measure on given each one's steal
/// share: every sample at or under `limit`, or, when those are fewer than
/// half, the half (rounded up) with the least steal, earlier ones first on
/// ties.
pub fn least_stolen(steal: &[f64], limit: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let undisturbed = order.iter().take_while(|&&i| steal[i] <= limit).count();
    order.truncate(undisturbed.max(steal.len().div_ceil(2)));
    order.sort_unstable();
    order
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// `sum / count`, or 0 when nothing was counted.
pub fn mean(sum: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        sum / count
    }
}

/// Rates (count per second) over windows of consecutive steps, each step
/// given as `(wall_ns, count)`. A window takes whole steps until it spans
/// at least `min_window_ns`; a short trailing window is folded into the
/// last full one, so every step counts exactly once.
pub fn windowed_rates(steps: &[(u64, u64)], min_window_ns: u64) -> Vec<f64> {
    let mut windows: Vec<(u64, u64)> = Vec::new();
    let mut open = (0u64, 0u64);
    for &(ns, count) in steps {
        open.0 += ns;
        open.1 += count;
        if open.0 >= min_window_ns {
            windows.push(open);
            open = (0, 0);
        }
    }
    if open.0 > 0 {
        match windows.last_mut() {
            Some(last) => {
                last.0 += open.0;
                last.1 += open.1;
            }
            None => windows.push(open),
        }
    }
    windows
        .into_iter()
        .map(|(ns, count)| count as f64 * 1e9 / ns as f64)
        .collect()
}

/// Least-squares slope of `values` over their indices (0, 1, 2, ...);
/// 0 with fewer than two values.
pub fn slope(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if values.len() < 2 {
        return 0.0;
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = values.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (i, y) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxy += dx * (y - mean_y);
        sxx += dx * dx;
    }
    sxy / sxx
}

/// Measured wall time of a paced batch over its schedule. A batch of
/// `frames` frames at `interval_ns` is due to finish after
/// `(frames + 1) × interval` (the origin's `BatchDone` fires one interval
/// after its last frame); 1.0 means the origins held their rate.
pub fn pace_lag(wall_ns: u64, frames: u64, interval_ns: u64) -> f64 {
    wall_ns as f64 / ((frames + 1) * interval_ns) as f64
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    mean(failed as f64, attempted as f64)
}

/// Thread ids present in `after` but not in `before`: the threads a call
/// spawned between the two listings.
pub fn spawned_threads(before: &[u64], after: &[u64]) -> Vec<u64> {
    after
        .iter()
        .copied()
        .filter(|tid| !before.contains(tid))
        .collect()
}

/// CPU-seconds per wall-second of each thread between two CPU snapshots
/// (`tid → ns`) taken `wall_ns` apart. Threads missing from either
/// snapshot are left out.
pub fn thread_busy(
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
    wall_ns: u64,
) -> BTreeMap<u64, f64> {
    after
        .iter()
        .filter_map(|(tid, &end)| {
            let start = *before.get(tid)?;
            Some((*tid, mean(end.saturating_sub(start) as f64, wall_ns as f64)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_of_small_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.5), 50.0);
        assert_eq!(quantile(&hundred, 0.99), 99.0);
        assert_eq!(quantile(&hundred, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        // Eight samples: the two lowest and the two highest are left out.
        let values = [100.0, 1.0, 5.0, 3.0, 4.0, 6.0, 2.0, -50.0];
        assert_eq!(interquartile_mean(&values), 3.5);
        // One stalled fleet among eight moves the mean by 10; this moves
        // by one sample's step.
        let quiet = [10.0, 11.0, 12.0, 10.0, 11.0, 12.0, 10.0, 11.0];
        let mut stalled = quiet;
        stalled[3] = 90.0;
        assert_eq!(interquartile_mean(&quiet), 10.75);
        assert_eq!(interquartile_mean(&stalled), 11.25);
    }

    #[test]
    fn least_stolen_keeps_the_undisturbed_or_the_quieter_half() {
        assert!(least_stolen(&[], 0.01).is_empty());
        // Quiet run: everything is kept.
        assert_eq!(least_stolen(&[0.0, 0.01, 0.005], 0.01), vec![0, 1, 2]);
        // A burst over the last three of eight: the five before stay.
        let burst = [0.0, 0.003, 0.0, 0.01, 0.005, 0.08, 0.2, 0.05];
        assert_eq!(least_stolen(&burst, 0.01), vec![0, 1, 2, 3, 4]);
        // Stolen throughout: the quieter half, ties to the earlier.
        let stolen = [0.05, 0.02, 0.09, 0.02, 0.03];
        assert_eq!(least_stolen(&stolen, 0.01), vec![1, 3, 4]);
        assert_eq!(least_stolen(&[0.3, 0.2, 0.2, 0.1], 0.01), vec![1, 3]);
    }

    #[test]
    fn windowed_rates_group_whole_steps() {
        // Four 100 ms steps of 10 items, windows of at least 200 ms.
        let steps = [(100_000_000, 10); 4];
        assert_eq!(windowed_rates(&steps, 200_000_000), vec![100.0, 100.0]);
        // A trailing short window folds into the last full one.
        let steps = [(200_000_000, 20), (200_000_000, 40), (50_000_000, 10)];
        let rates = windowed_rates(&steps, 200_000_000);
        assert_eq!(rates, vec![100.0, 200.0]);
        // One short run is still one window.
        assert_eq!(windowed_rates(&[(50_000_000, 5)], 200_000_000), vec![100.0]);
        assert!(windowed_rates(&[], 1).is_empty());
        // The windowed median ignores one stalled window.
        let steps = [(100, 1), (100, 1), (10_000, 1), (100, 1), (100, 1)];
        let rates = windowed_rates(&steps, 100);
        assert_eq!(median(&rates), 1e7);
    }

    #[test]
    fn slope_fits_a_line_through_noise() {
        assert_eq!(slope(&[]), 0.0);
        assert_eq!(slope(&[5.0]), 0.0);
        assert_eq!(slope(&[1.0, 3.0, 5.0, 7.0]), 2.0);
        assert_eq!(slope(&[4.0, 4.0, 4.0]), 0.0);
        // Alternating ±1 around 10 + 0.5 i.
        let noisy = [11.0, 9.5, 12.0, 10.5, 13.0, 11.5];
        assert!((slope(&noisy) - 0.5).abs() < 0.2);
    }

    #[test]
    fn pace_lag_counts_the_trailing_interval() {
        // 25 frames at 10 ms are due after 260 ms.
        assert_eq!(pace_lag(260_000_000, 25, 10_000_000), 1.0);
        assert!((pace_lag(273_000_000, 25, 10_000_000) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn failed_ratio_is_zero_without_attempts() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 1000), 0.0);
        assert_eq!(failed_ratio(5, 1000), 0.005);
    }

    #[test]
    fn cpu_is_attributed_to_the_threads_a_call_spawned() {
        let before_tids = [100, 101];
        let after_tids = [100, 101, 205, 206];
        let spawned = spawned_threads(&before_tids, &after_tids);
        assert_eq!(spawned, vec![205, 206]);

        let start: BTreeMap<u64, u64> = [(205, 1_000), (206, 5_000)].into();
        // Thread 207 appeared mid-window and has no start sample.
        let end: BTreeMap<u64, u64> = [(205, 501_000), (206, 255_000), (207, 9)].into();
        let busy = thread_busy(&start, &end, 1_000_000);
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[&205], 0.5);
        assert_eq!(busy[&206], 0.25);
        assert_eq!(busy.values().copied().fold(0.0, f64::max), 0.5);
    }
}
