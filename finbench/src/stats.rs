//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank rule on a sorted sample: the `p`th
//! percentile of `n` values is the value at rank `ceil(p/100 * n)`, so
//! exactly `n - rank` samples lie beyond it.

/// Percentiles the tail reader chooses among, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Samples per window when reading a tail percentile: 1000 leave ten
/// beyond a p99.
pub const WINDOW: usize = 1000;

/// The nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs representation error: 99.9 * 10_000 / 100 must
    // rank 9990, not 9991.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The nearest-rank percentile `p` of an ascending slice, or `None` when
/// it is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n`, or `None` when not even the median has.
pub fn highest_resolvable(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (the mean of the two middle values when the
/// count is even), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Percentile `p` of each consecutive window of `window` samples; a
/// trailing partial window is dropped.
fn window_percentiles(values: &[f64], window: usize, p: f64) -> impl Iterator<Item = f64> + '_ {
    values
        .chunks_exact(window)
        .filter_map(move |w| percentile(&sorted(w), p))
}

/// The lowest of [`window_percentiles`]: the percentile of the calmest
/// window. Each window resolves `p` only if `window` leaves
/// [`MIN_BEYOND`] samples beyond it; the caller picks `window` so that it
/// does. `None` when there is no whole window.
pub fn calmest_window_percentile(values: &[f64], window: usize, p: f64) -> Option<f64> {
    window_percentiles(values, window, p).min_by(f64::total_cmp)
}

/// The highest of [`window_percentiles`]: the percentile of the worst
/// window. `None` when there is no whole window.
pub fn worst_window_percentile(values: &[f64], window: usize, p: f64) -> Option<f64> {
    window_percentiles(values, window, p).max_by(f64::total_cmp)
}

/// A latency percentile as the benchmark reports it:
/// [`calmest_window_percentile`] over windows of [`WINDOW`] samples in
/// arrival order, or the whole-run percentile when the run holds no
/// whole window.
pub fn reported_percentile(values: &[f64], p: f64) -> Option<f64> {
    calmest_window_percentile(values, WINDOW, p).or_else(|| percentile(&sorted(values), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn tail_reader_keeps_ten_samples_beyond() {
        // 20 000 samples: p99.9 has 20 beyond, p99.99 only 2.
        assert_eq!(highest_resolvable(20_000), Some(99.9));
        // Exactly 10 beyond p99.9 at 10 000; 9 at 9 999 drops to p99.
        assert_eq!(highest_resolvable(10_000), Some(99.9));
        assert_eq!(highest_resolvable(9_999), Some(99.0));
        assert_eq!(highest_resolvable(1_000), Some(99.0));
        assert_eq!(highest_resolvable(999), Some(90.0));
        assert_eq!(highest_resolvable(20), Some(50.0));
        assert_eq!(highest_resolvable(19), None);
        assert_eq!(highest_resolvable(0), None);
        for n in [20, 57, 1_000, 4_321, 20_000, 123_456] {
            let p = highest_resolvable(n).expect("resolvable");
            assert!(beyond(n, p) >= MIN_BEYOND, "p{p} of {n}");
            if let Some(&higher) = TAIL_CANDIDATES.iter().rev().find(|&&c| c > p) {
                assert!(
                    beyond(n, higher) < MIN_BEYOND,
                    "p{higher} of {n} also resolves"
                );
            }
        }
    }

    #[test]
    fn medians_and_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // Windows of 1000 with p99 = 2490 and 1490 (descending input); the
        // 500-sample tail, whose p99 would be lower still, is dropped.
        let v: Vec<f64> = (1..=2500).rev().map(f64::from).collect();
        assert_eq!(calmest_window_percentile(&v, 1000, 99.0), Some(1490.0));
        assert_eq!(calmest_window_percentile(&v[..999], 1000, 99.0), None);
        assert_eq!(worst_window_percentile(&v, 1000, 99.0), Some(2490.0));
        assert_eq!(worst_window_percentile(&v, 1000, 50.0), Some(2000.0));
        assert_eq!(worst_window_percentile(&v[..999], 1000, 50.0), None);
        assert_eq!(reported_percentile(&v, 99.0), Some(1490.0));
        assert_eq!(reported_percentile(&v[..100], 50.0), Some(2450.0));
    }
}
