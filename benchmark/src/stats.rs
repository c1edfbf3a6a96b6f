//! Order statistics the benchmark reports: medians, quartiles and the
//! percentile picker.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so spreads computed here match the ones the driver
/// computes. Fewer than two values have no spread: both quartiles are
/// the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// A percentile read off a sample, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually used, e.g. 99.0.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// The candidates the picker walks, highest first.
const PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Minimum samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Value at percentile `p` (0–100) of an ascending-sorted sample, by the
/// nearest-rank rule, with the number of samples above that rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        percentile: p,
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// The highest percentile, no higher than `cap`, that still has at least
/// [`MIN_BEYOND`] samples beyond it; the median when the sample is too
/// small for any.
pub fn highest_supported_percentile(sorted: &[f64], cap: f64) -> Percentile {
    for &p in PERCENTILES.iter().filter(|&&p| p <= cap) {
        let picked = percentile_sorted(sorted, p);
        if picked.beyond >= MIN_BEYOND {
            return picked;
        }
    }
    percentile_sorted(sorted, 50.0)
}

/// Fewest windows a phase is cut into (when it has the samples).
pub const MIN_WINDOWS: usize = 5;

/// Most windows a phase is cut into.
pub const MAX_WINDOWS: usize = 25;

/// Samples a window should hold before a phase gets more than
/// [`MIN_WINDOWS`]: 2 000 keep 20 samples beyond a window's p99.
const WINDOW_SAMPLES: usize = 2000;

/// Windows a phase of `samples` requests is cut into. Short windows
/// confine a host stall (a descheduled vCPU, a neighbour's burst) to one
/// or two of them, so the median window does not see it; a phase too
/// small to give every window a p90 with [`MIN_BEYOND`] samples beyond
/// it is not cut at all.
pub fn window_count(samples: usize) -> usize {
    if samples < MIN_WINDOWS * 10 * MIN_BEYOND {
        1
    } else {
        (samples / WINDOW_SAMPLES).clamp(MIN_WINDOWS, MAX_WINDOWS)
    }
}

/// Cuts `in_order` (samples in arrival order) into [`window_count`]
/// consecutive windows and sorts each window ascending.
pub fn sorted_windows(in_order: &[f64]) -> Vec<Vec<f64>> {
    let len = in_order.len().div_ceil(window_count(in_order.len())).max(1);
    in_order
        .chunks(len)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            w
        })
        .collect()
}

/// The percentile `p` of each window, reduced to their median: the
/// steady-state value, which one window hit by a host stall (a
/// descheduled vCPU, a neighbour's burst) does not move. `beyond` is the
/// smallest count of samples beyond the rank in any window.
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64) -> Percentile {
    let picked: Vec<Percentile> = windows.iter().map(|w| percentile_sorted(w, p)).collect();
    Percentile {
        percentile: p,
        value: median(&picked.iter().map(|x| x.value).collect::<Vec<_>>()),
        beyond: picked.iter().map(|x| x.beyond).min().unwrap_or(0),
    }
}

/// [`windowed_percentile`] at the highest percentile, no higher than
/// `cap`, that every window supports with [`MIN_BEYOND`] samples beyond.
pub fn highest_supported_windowed(windows: &[Vec<f64>], cap: f64) -> Percentile {
    let shortest = windows
        .iter()
        .min_by_key(|w| w.len())
        .expect("at least one window");
    let p = highest_supported_percentile(shortest, cap).percentile;
    windowed_percentile(windows, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q3), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picker_honours_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1 000 samples: p99 has exactly 10 beyond
        let picked = highest_supported_percentile(&sample(1000), 99.0);
        assert_eq!((picked.percentile, picked.beyond), (99.0, 10));
        assert_eq!(picked.value, 990.0);
        // 999 samples: p99 would leave 9 beyond, so the picker drops to p95
        let picked = highest_supported_percentile(&sample(999), 99.0);
        assert_eq!(picked.percentile, 95.0);
        assert!(picked.beyond >= MIN_BEYOND);
        // the caller's cap holds however many samples there are
        assert_eq!(
            highest_supported_percentile(&sample(20_000), 95.0).percentile,
            95.0
        );
        // a tiny sample supports nothing beyond the median
        assert_eq!(
            highest_supported_percentile(&sample(12), 99.0).percentile,
            50.0
        );
    }

    #[test]
    fn windowed_tail_ignores_a_stall_confined_to_one_window() {
        // 5 000 samples of ~1 ms in arrival order; 200 consecutive ones
        // (4 % of all, all inside the second window) sit behind a 150 ms stall
        let mut in_order: Vec<f64> = (0..5000).map(|i| 1.0 + (i % 100) as f64 * 0.001).collect();
        for v in &mut in_order[1200..1400] {
            *v += 150.0;
        }
        let windows = sorted_windows(&in_order);
        assert_eq!(windows.len(), 5);
        assert!(windows.iter().all(|w| w.len() == 1000));
        let robust = highest_supported_windowed(&windows, 99.0);
        assert_eq!((robust.percentile, robust.beyond), (99.0, 10));
        assert!(robust.value < 1.2, "steady-state p99, got {}", robust.value);
        // the plain p99 over the whole phase is the stall
        let mut all = in_order.clone();
        all.sort_by(f64::total_cmp);
        assert!(percentile_sorted(&all, 99.0).value > 100.0);
        // 1 069 samples (a /topk phase): five windows of ~214 support p95
        let topk = sorted_windows(&in_order[..1069]);
        assert_eq!(topk.len(), 5);
        let tail = highest_supported_windowed(&topk, 99.0);
        assert_eq!(tail.percentile, 95.0);
        assert!(tail.beyond >= MIN_BEYOND);
        // too few samples for a p90 in each of five windows: one window
        assert_eq!(sorted_windows(&in_order[..450]).len(), 1);
        assert_eq!(sorted_windows(&in_order[..500]).len(), 5);
        // a /score phase: windows of about 2 000, never more than 25
        assert_eq!(window_count(20_000), 10);
        assert_eq!(window_count(56_250), MAX_WINDOWS);
    }
}
