//! Order statistics for the slice aggregation and the layer ledger.
//!
//! Everything here works on small in-memory samples (one value per
//! slice, or one latency per request of a slice), so the functions sort
//! copies rather than asking callers to pre-sort.

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty sample, so a missing metric cannot pass
/// for a measured zero.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Indices of the `count` slices with the highest throughput: the
/// run's *quiet slices*. The reference host is a shared microVM whose
/// speed for this program wanders by 10–40 % over seconds, always
/// downwards from one level, so a median over all slices reads the
/// neighbours (README, "Host noise"); what repeats from run to run is
/// what the program does while the host is at that level. Every
/// run-time metric is its median over these same slices, so the
/// numbers of one run describe the same moments.
pub fn quiet_slices(throughput: &[f64], count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..throughput.len()).collect();
    order.sort_by(|&a, &b| throughput[b].total_cmp(&throughput[a]));
    order.truncate(count);
    order
}

/// Median of `values` at `indices`.
pub fn median_at(values: &[f64], indices: &[usize]) -> f64 {
    let picked: Vec<f64> = indices.iter().map(|&i| values[i]).collect();
    median(&picked)
}

/// Median of integer nanosecond samples, as `f64` nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    median(&v)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported (≤ the one asked for).
    pub quantile: f64,
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// The percentile `q` of `samples` by nearest rank — but only if at
/// least ten samples lie beyond it; otherwise steps down through
/// 0.99 → 0.9 → 0.5 to the highest quantile the sample supports (the
/// "ten samples beyond" rule: a p99 of 300 samples is three values, not
/// a percentile). `None` for fewer than 20 samples, where not even the
/// median has ten beyond it.
pub fn supported_tail(samples: &[u64], q: f64) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    [q, 0.99, 0.9, 0.5].into_iter().filter(|&c| c <= q).find_map(|c| {
        let rank = ((n as f64) * c).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            quantile: c,
            value: v[rank - 1] as f64,
            samples: n,
        })
    })
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), which is what the driver applies across runs; the slice
/// noise shares use the same rule so the two are comparable.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Cut point k of 4 sits at position k(n+1)/4 (1-based); the
        // index is clamped to the sample but, as in Python, the weight
        // is not, so two values extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median: the benchmark's own
/// noise figure for one metric over the slices of one run.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2,
        _ => f64::NAN,
    }
}

/// `whole − parts`, clamped at zero. The flag reports that clamping
/// happened: the parts were timed in separate calls, so on a noisy host
/// their medians can exceed the whole's, and a negative self time must
/// never be summed into a ledger as if it were a saving.
pub fn self_time(whole: f64, parts: f64) -> (f64, bool) {
    let rest = whole - parts;
    if rest < 0.0 {
        (0.0, true)
    } else {
        (rest, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_slices_ignores_one_disturbed_slice() {
        // Twelve slices, one hit by a burst of host interference.
        let mut slices = vec![100.0; 11];
        slices.push(40.0);
        assert_eq!(median(&slices), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quiet_slices_are_the_fastest_and_every_metric_is_read_from_them() {
        // Ten slices: most disturbed, three at the quiet level, one freak.
        let throughput = [20.0, 27.9, 21.0, 28.0, 23.0, 31.0, 22.0, 28.1, 24.0, 20.5];
        let latency = [44.0, 27.2, 41.0, 27.0, 38.0, 19.0, 43.0, 27.1, 40.0, 45.0];
        let quiet = quiet_slices(&throughput, 4);
        assert_eq!(quiet, [5, 7, 3, 1]);
        // The freak is one of four, so it moves neither median.
        assert_eq!(median_at(&throughput, &quiet), 28.05);
        assert_eq!(median_at(&latency, &quiet), 27.05);
        assert_eq!(quiet_slices(&throughput, 20).len(), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let thousand: Vec<u64> = (1..=1000).collect();
        let t = supported_tail(&thousand, 0.99).unwrap();
        assert_eq!((t.quantile, t.value, t.samples), (0.99, 990.0, 1000));
        // 999 samples leave nine beyond the p99 rank: step down to p90.
        let t = supported_tail(&thousand[..999], 0.99).unwrap();
        assert_eq!(t.quantile, 0.9);
        assert_eq!(t.value, 900.0);
        // 100 samples: ten beyond p90, so p90 is the highest supported.
        let t = supported_tail(&thousand[..100], 0.99).unwrap();
        assert_eq!((t.quantile, t.value), (0.9, 90.0));
        // 20 samples support only the median; 19 support nothing.
        assert_eq!(supported_tail(&thousand[..20], 0.99).unwrap().quantile, 0.5);
        assert!(supported_tail(&thousand[..19], 0.99).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 4.0, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 12]), 0.0);
        assert!(iqr_share(&[1.0]).is_nan());
    }

    #[test]
    fn self_time_never_goes_negative_and_says_so() {
        assert_eq!(self_time(10.0, 4.0), (6.0, false));
        assert_eq!(self_time(10.0, 10.0), (0.0, false));
        assert_eq!(self_time(10.0, 12.5), (0.0, true));
    }
}
