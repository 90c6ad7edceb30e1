//! Order statistics shared by every workload.

/// Nearest-rank percentile of `samples` (`q` in 0..=100): the smallest
/// sample with at least `q`% of the samples at or below it. Failed
/// operations enter as `f64::INFINITY`, so they land above every limit.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (see [`percentile`]).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Quantile `q` (0..=1) of a bucketed histogram given as
/// `(upper_bound, count_in_bucket)` pairs, interpolating linearly inside
/// the bucket that holds the target rank. The open last bucket reports its
/// lower bound. Returns `None` when the histogram is empty.
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).max(1.0);
    let mut below = 0u64;
    let mut lower = 0.0f64;
    for &(upper, count) in buckets {
        if count > 0 && (below + count) as f64 >= rank {
            if upper == u64::MAX {
                return Some(lower);
            }
            let frac = (rank - below as f64) / count as f64;
            return Some(lower + frac * (upper as f64 - lower));
        }
        below += count;
        lower = upper as f64;
    }
    Some(lower)
}
