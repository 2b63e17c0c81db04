//! Exact quantiles from per-op samples.
//!
//! The repository's histograms bucket their values (log2 buckets, or
//! three sub-bits), so their quantiles can be off by up to 2× or 12%.
//! The benchmark keeps every op's latency and reads quantiles off the
//! sorted samples by the nearest-rank rule. A quantile is reported only
//! when at least [`MIN_BEYOND`] samples lie strictly beyond its rank, so
//! a p99.9 needs at least 10 000 samples.

/// Samples that must lie beyond a reported quantile.
pub const MIN_BEYOND: u64 = 10;

/// A quantile as an exact fraction of 10 000 (p50 = 5000, p99.9 = 9990),
/// so ranks are computed in integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q(pub u64);

/// The median.
pub const P50: Q = Q(5000);
/// The 99th percentile.
pub const P99: Q = Q(9900);
/// The 99.9th percentile.
pub const P999: Q = Q(9990);

/// 1-based nearest rank of `q` among `n` samples: `ceil(q * n)`.
pub fn rank(q: Q, n: u64) -> u64 {
    (q.0 * n).div_ceil(10_000).max(1)
}

/// Samples strictly beyond the nearest rank of `q`.
pub fn beyond(q: Q, n: u64) -> u64 {
    n.saturating_sub(rank(q, n))
}

/// Fewest samples for which `q` may be reported.
#[cfg(test)]
fn min_samples(q: Q) -> u64 {
    (1..).find(|&n| beyond(q, n) >= MIN_BEYOND).expect("finite")
}

/// The `q` quantile of ascending `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(sorted: &[u64], q: Q) -> Option<u64> {
    let n = sorted.len() as u64;
    if n == 0 || beyond(q, n) < MIN_BEYOND {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    Some(sorted[(rank(q, n) - 1) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_must_lie_beyond_a_reported_quantile() {
        assert_eq!(min_samples(P50), 20);
        assert_eq!(min_samples(P99), 1000);
        assert_eq!(min_samples(P999), 10_000);
        let v: Vec<u64> = (1..=9_999).collect();
        assert_eq!(quantile(&v, P999), None);
        assert_eq!(quantile(&v, P99), Some(9_900));
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(quantile(&v, P999), Some(9_990));
        assert_eq!(beyond(P999, 10_000), 10);
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(quantile(&v, P50), None);
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(quantile(&v, P50), Some(10));
    }

    #[test]
    fn nearest_rank_is_exact() {
        // 1000 samples: p99 is the 990th smallest, with 10 beyond it.
        let v: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(quantile(&v, P99), Some(989 * 3));
        assert_eq!(beyond(P99, 1000), 10);
        assert_eq!(quantile(&[], P50), None);
    }
}
