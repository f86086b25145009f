//! Order statistics for the report: the median, and the highest percentile
//! that still has at least ten samples beyond it (the tail a sample count
//! can support without reading single outliers), with the count stated.

/// Percentiles the tail picker may choose from, ascending, in tenths of a
/// percent (whole numbers, so that "exactly ten samples beyond" is exact).
const TAIL_CANDIDATES_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Median, supported tail, and the sample count they rest on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// The percentile `tail` was read at; 50 when the sample is too small
    /// to support anything higher.
    pub tail_pct: f64,
    pub count: usize,
}

/// 1-based nearest rank of the `permille / 10`-th percentile among `n`
/// samples: `ceil(n · permille / 1000)`.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Median of `values` (mean of the two middle samples for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_of_sorted(&sorted)
}

fn median_of_sorted(sorted: &[f64]) -> Option<f64> {
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[mid]),
        _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
    }
}

/// Share of the samples [`trimmed_mean`] drops at each end.
pub const TRIM: f64 = 0.10;

/// Mean of the samples between the 10th and the 90th percentile (the
/// lowest and highest tenth, rounded down, are dropped); `None` when
/// empty.
///
/// What the end-to-end accuracy and latency metrics report. Ranges and
/// durations come in a few discrete sizes (a rate grid, a whole number of
/// fleets), so a median sits on one atom and jumps to the next between
/// seeds, while a plain mean follows the one measurement in fifty that a
/// scheduling hiccup on the wire sent astray. This moves smoothly and
/// ignores the stragglers — which `coverage_share` still counts.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let drop = (sorted.len() as f64 * TRIM) as usize;
    let kept = &sorted[drop..sorted.len() - drop];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Median plus the highest candidate percentile with at least ten samples
/// beyond it; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = median_of_sorted(&sorted)?;
    let n = sorted.len();
    let (tail, tail_pct) = TAIL_CANDIDATES_PERMILLE
        .iter()
        .rev()
        .map(|&permille| (nearest_rank(n, permille), permille))
        .find(|&(rank, _)| n - rank >= MIN_BEYOND)
        .map_or((median, 50.0), |(rank, permille)| {
            (sorted[rank - 1], permille as f64 / 10.0)
        });
    Some(Summary {
        median,
        tail,
        tail_pct,
        count: n,
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// in this workload reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: p75 sits at rank 30 with only 9 beyond — fall back.
        let s = summarize(&ramp(39)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.count), (50.0, s.median, 39));
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        let s = summarize(&ramp(40)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (75.0, 30.0));
        // 100 samples: p90 leaves 10; p95 leaves 5.
        let s = summarize(&ramp(100)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.median), (90.0, 90.0, 50.5));
        // 10 000 samples: p99.9 leaves exactly 10.
        let s = summarize(&ramp(10_000)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.count), (99.9, 9990.0, 10_000));
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), None);
        // Fewer than ten samples: nothing to drop.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // Twenty samples: the two lowest and the two highest go.
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v), Some(10.5));
        v[19] = 1e9; // one wild straggler changes nothing
        v[0] = -1e9;
        assert_eq!(trimmed_mean(&v), Some(10.5));
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
