//! Order statistics and per-operation ratios used by every report line.

/// Percentiles a report may quote, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave beyond itself to be quoted: with fewer,
/// the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).min(n)
}

/// The highest percentile of [`LADDER`] that still has [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|p| samples_beyond(n, *p) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the two middle ones for even
/// counts). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A counter delta per operation; 0 when no operation completed, so a
/// stalled window reads as "nothing happened", not as a division error.
pub fn per_op(delta: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        delta as f64 / ops as f64
    }
}

/// Nanoseconds as microseconds, keeping the fraction.
pub fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn percentile_matches_a_brute_force_rank_on_seeded_data() {
        let mut rng = Rng::new(7, 0);
        let mut data: Vec<u64> = (0..1_000).map(|_| rng.below(50_000)).collect();
        data.sort_unstable();
        for p in [50.0, 90.0, 95.0, 99.0, 99.9] {
            let v = percentile(&data, p);
            let at_or_below = data.iter().filter(|x| **x <= v).count();
            let below = data.iter().filter(|x| **x < v).count();
            let want = (p / 100.0 * data.len() as f64).ceil() as usize;
            assert!(below < want && want <= at_or_below, "p{p}: rank {want} not at value {v}");
        }
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[9], 99.9), 9);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond_the_tail() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(480), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(24_000), Some(99.9));
        assert_eq!(samples_beyond(480, 95.0), 24);
        assert_eq!(samples_beyond(480, 99.0), 4);
    }

    #[test]
    fn per_op_with_zero_ops_is_zero() {
        assert_eq!(per_op(123, 0), 0.0);
        assert_eq!(per_op(0, 0), 0.0);
        assert_eq!(per_op(10, 4), 2.5);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
