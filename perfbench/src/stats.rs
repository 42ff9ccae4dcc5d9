//! Order statistics shared by the workloads, the waterfall and compare
//! mode.

/// The `q`-quantile of sorted samples, linearly interpolated between the
/// two closest ranks (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-percentile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (a p99 needs at least 1000
/// samples).
pub fn reportable(sorted: &[f64], q: f64) -> Option<f64> {
    let beyond = ((1.0 - q) * sorted.len() as f64 + 1e-9).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// The median of the `q`-percentiles of up to `max_chunks` consecutive
/// chunks of `values` (given in time order), each chunk large enough to
/// report its percentile, with the number of chunks; `None` when `values`
/// cannot fill even one. A slow stretch of a shared host then moves one
/// chunk's percentile, not the result.
pub fn chunked_percentile(values: &[f64], q: f64, max_chunks: usize) -> Option<(f64, usize)> {
    let need = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
    let chunks = (values.len() / need).min(max_chunks);
    if chunks == 0 {
        return None;
    }
    let len = values.len() / chunks;
    let per_chunk: Vec<f64> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks { values.len() } else { (i + 1) * len };
            reportable(&sorted(&values[i * len..end]), q).expect("chunk holds enough samples")
        })
        .collect();
    Some((median(&per_chunk), chunks))
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, which is how run-to-run
/// spread is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld as i64 + 1;
    let n = 4i64;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(reportable(&few, 0.99), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(reportable(&enough, 0.99).is_some());
        assert!(reportable(&few, 0.5).is_some());
        assert_eq!(reportable(&few[..19], 0.5), None);
        assert!(reportable(&few[..20], 0.5).is_some());
    }

    #[test]
    fn chunked_percentile_is_the_median_of_chunk_percentiles() {
        assert_eq!(chunked_percentile(&vec![1.0; 999], 0.99, 5), None);
        // Three chunks of 1000; the middle one is ten times slower.
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        v.extend((0..1000).map(|x| f64::from(x) * 10.0));
        v.extend((0..1000).map(f64::from));
        let (p, chunks) = chunked_percentile(&v, 0.99, 5).unwrap();
        assert_eq!(chunks, 3);
        assert_eq!(p, quantile(&sorted(&v[..1000]), 0.99));
        assert_eq!(chunked_percentile(&v, 0.99, 1).unwrap().1, 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
