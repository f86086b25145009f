//! Relative-OWD preprocessing: partition the K per-packet delays into
//! Γ ≈ √K groups of consecutive measurements and keep each group's median
//! (§IV "Detecting an Increasing OWD Trend"). Medians-of-groups are robust
//! to outliers (a delayed packet, a receiver context switch) that would
//! otherwise dominate the pairwise statistics.
//!
//! This runs once per probe stream, so the classification path
//! ([`crate::classify_stream`]) sorts each group and holds the medians in
//! fixed stack buffers: a stream of up to ~1000 packets (the default is
//! 100: ten groups of ten) is classified without touching the heap.

/// Groups, and group counts, up to this size live in stack buffers;
/// larger ones fall back to the heap.
const STACK_LEN: usize = 32;

/// Group medians of a relative-OWD series.
///
/// Uses Γ = ⌊√n⌋ groups; the first `n mod Γ` groups take one extra element
/// so every measurement is used. Returns an empty vector when `n < 4`
/// (fewer than two groups of two — no trend can be established).
pub fn group_medians(owds: &[i64]) -> Vec<f64> {
    with_group_medians(owds, |&x| x, <[f64]>::to_vec)
}

/// Compute the group medians of `xs`' OWDs (read through `owd`) exactly
/// as [`group_medians`] does, and hand them to `f` without allocating for
/// groups and group counts of up to [`STACK_LEN`].
pub(crate) fn with_group_medians<T, R>(
    xs: &[T],
    owd: impl Fn(&T) -> i64,
    f: impl FnOnce(&[f64]) -> R,
) -> R {
    let n = xs.len();
    if n < 4 {
        return f(&[]);
    }
    let gamma = (n as f64).sqrt().floor() as usize;
    let base = n / gamma;
    let extra = n % gamma;
    let mut stack_medians = [0.0f64; STACK_LEN];
    let mut heap_medians;
    let medians: &mut [f64] = if gamma <= STACK_LEN {
        &mut stack_medians[..gamma]
    } else {
        heap_medians = vec![0.0; gamma];
        &mut heap_medians
    };
    let mut stack_group = [0i64; STACK_LEN];
    let mut heap_group = Vec::new();
    let mut start = 0usize;
    for (g, median) in medians.iter_mut().enumerate() {
        let len = base + usize::from(g < extra);
        let group: &mut [i64] = if len <= STACK_LEN {
            &mut stack_group[..len]
        } else {
            heap_group.resize(len, 0);
            &mut heap_group
        };
        for (slot, x) in group.iter_mut().zip(&xs[start..start + len]) {
            *slot = owd(x);
        }
        *median = median_in_place(group);
        start += len;
    }
    debug_assert_eq!(start, n);
    f(medians)
}

/// Median of a non-empty i64 slice (mean of the central pair when even);
/// sorts the slice.
fn median_in_place(v: &mut [i64]) -> f64 {
    debug_assert!(!v.is_empty());
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] as f64 + v[n / 2] as f64) * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hundred_samples_make_ten_groups_of_ten() {
        let owds: Vec<i64> = (0..100).collect();
        let m = group_medians(&owds);
        assert_eq!(m.len(), 10);
        // Group g covers [10g, 10g+10): median = 10g + 4.5
        for (g, v) in m.iter().enumerate() {
            assert_eq!(*v, 10.0 * g as f64 + 4.5);
        }
    }

    #[test]
    fn uneven_split_uses_every_sample() {
        // n = 10 -> Γ = 3, groups of sizes 4, 3, 3.
        let owds: Vec<i64> = (0..10).collect();
        let m = group_medians(&owds);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0], 1.5); // median of 0,1,2,3
        assert_eq!(m[1], 5.0); // median of 4,5,6
        assert_eq!(m[2], 8.0); // median of 7,8,9
    }

    #[test]
    fn too_few_samples_yield_nothing() {
        assert!(group_medians(&[1, 2, 3]).is_empty());
        assert!(group_medians(&[]).is_empty());
    }

    #[test]
    fn medians_resist_outliers() {
        // An increasing ramp with one huge outlier in the middle group.
        let mut owds: Vec<i64> = (0..100).map(|i| i * 10).collect();
        owds[55] = 1_000_000;
        let m = group_medians(&owds);
        // The outlier group's median is barely affected.
        assert!(m[5] < 600.0, "median {} blew up", m[5]);
        // Trend preserved.
        assert!(m.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn negative_relative_owds_are_fine() {
        // Receiver clock behind the sender's: all OWDs negative.
        let owds: Vec<i64> = (0..100).map(|i| -1_000_000 + i * 7).collect();
        let m = group_medians(&owds);
        assert_eq!(m.len(), 10);
        assert!(m.windows(2).all(|w| w[1] > w[0]));
    }

    /// The straightforward definition: Γ = ⌊√n⌋ groups, each copied into
    /// its own `Vec` and sorted.
    fn reference_medians(owds: &[i64]) -> Vec<f64> {
        let n = owds.len();
        if n < 4 {
            return Vec::new();
        }
        let gamma = (n as f64).sqrt().floor() as usize;
        let (base, extra) = (n / gamma, n % gamma);
        let mut out = Vec::new();
        let mut start = 0;
        for g in 0..gamma {
            let len = base + usize::from(g < extra);
            let mut v = owds[start..start + len].to_vec();
            v.sort();
            out.push(if len % 2 == 1 {
                v[len / 2] as f64
            } else {
                (v[len / 2 - 1] as f64 + v[len / 2] as f64) * 0.5
            });
            start += len;
        }
        out
    }

    /// Bit-level equality of two median series.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// n from 0 to 400 (up to 20 groups of up to 21), with heavy
        /// duplication and the extreme values.
        #[test]
        fn stack_buffers_match_the_sorting_reference(
            draws in prop::collection::vec((0u8..8, any::<i64>()), 0..401),
        ) {
            let owds: Vec<i64> = draws
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 | 3 => v,
                    _ => v % 16, // few distinct values: many ties
                })
                .collect();
            let got = group_medians(&owds);
            let want = reference_medians(&owds);
            prop_assert!(same_bits(&got, &want), "n = {}: {got:?} vs {want:?}", owds.len());
        }
    }

    #[test]
    fn heap_fallback_matches_the_reference() {
        // 2000 samples: 44 groups of 45-46, both past the stack limit.
        let owds: Vec<i64> = (0..2000i64).map(|i| (i * 7919) % 1013 - 500).collect();
        assert!(same_bits(&group_medians(&owds), &reference_medians(&owds)));
    }
}
