//! Deterministic pseudo-random number generation.
//!
//! The workspace deliberately does not use the `rand` crate in library code:
//! experiment reproducibility must not depend on the version of an external
//! RNG, whose output stream — and with it every figure and every pinned
//! fingerprint — may change in any release. This is xoshiro256**
//! (Blackman & Vigna), seeded through SplitMix64 — the standard,
//! well-tested combination — plus the handful of distribution samplers the
//! traffic models need.

/// xoshiro256** generator with SplitMix64 seeding.
///
/// ```
/// use netsim::rng::Prng;
/// let mut a = Prng::new(42);
/// let mut b = Prng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Derive an independent child generator; `stream` distinguishes
    /// subsystems (links, sources, ...) sharing one master seed.
    pub fn derive(&self, stream: u64) -> Prng {
        // Mix the stream id through SplitMix so neighbouring ids decorrelate.
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` (Lemire's method, unbiased).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.f64() < p
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        Prng::exponential_at(self.f64(), mean)
    }

    /// The exponential variate [`Prng::exponential`] returns when its
    /// uniform draw is `u` (in `[0, 1)`): for callers that draw the
    /// uniforms of many variates ahead and invert them in a batch.
    #[inline]
    pub fn exponential_at(u: f64, mean: f64) -> f64 {
        // 1 - u is in (0, 1], avoiding ln(0).
        -mean * (1.0 - u).ln()
    }

    /// Pareto variate with shape `alpha` and the given **mean**.
    ///
    /// For alpha <= 1 the mean does not exist; we then interpret `mean` as
    /// the scale parameter x_m directly. For alpha > 1, x_m is chosen so
    /// that `E[X] = mean`: x_m = mean * (alpha - 1) / alpha. The paper uses
    /// alpha = 1.9 (finite mean, infinite variance).
    #[inline]
    pub fn pareto_mean(&mut self, alpha: f64, mean: f64) -> f64 {
        self.pareto(Prng::pareto_scale(alpha, mean), 1.0 / alpha)
    }

    /// The scale x_m that [`Prng::pareto_mean`] uses for this shape and
    /// mean — a loop invariant for callers that draw many variates.
    #[inline]
    pub fn pareto_scale(alpha: f64, mean: f64) -> f64 {
        debug_assert!(alpha > 0.0 && mean > 0.0);
        if alpha > 1.0 {
            mean * (alpha - 1.0) / alpha
        } else {
            mean
        }
    }

    /// Pareto variate from the precomputed scale `xm`
    /// ([`Prng::pareto_scale`]) and reciprocal shape `1 / alpha`: the same
    /// value, bit for bit, as [`Prng::pareto_mean`] draws.
    #[inline]
    pub fn pareto(&mut self, xm: f64, inv_alpha: f64) -> f64 {
        Prng::pareto_at(self.f64(), xm, inv_alpha)
    }

    /// The Pareto variate [`Prng::pareto`] returns when its uniform draw
    /// is `u` (in `[0, 1)`), as [`Prng::exponential_at`].
    #[inline]
    pub fn pareto_at(u: f64, xm: f64, inv_alpha: f64) -> f64 {
        let u = 1.0 - u; // (0, 1]
        xm / u.powf(inv_alpha)
    }

    /// Pick an index according to (unnormalized) non-negative weights.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        debug_assert!(!weights.is_empty());
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0);
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        let mut c = Prng::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn derive_decorrelates_streams() {
        let root = Prng::new(1);
        let mut a = root.derive(0);
        let mut b = root.derive(1);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Prng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Prng::new(4);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = Prng::new(5);
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let m = sum / n as f64;
        assert!((m - mean).abs() < 0.05, "sample mean {m}");
    }

    #[test]
    fn pareto_mean_close_for_alpha_gt_one() {
        let mut r = Prng::new(6);
        let n = 400_000;
        let mean = 2.0;
        let sum: f64 = (0..n).map(|_| r.pareto_mean(1.9, mean)).sum();
        let m = sum / n as f64;
        // Infinite variance => slow convergence; accept 10%.
        assert!((m - mean).abs() / mean < 0.10, "sample mean {m}");
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let mut r = Prng::new(7);
        let xm = 2.0 * 0.9 / 1.9; // mean 2.0, alpha 1.9
        for _ in 0..10_000 {
            assert!(r.pareto_mean(1.9, 2.0) >= xm * 0.999);
        }
    }

    #[test]
    fn weighted_choice_distribution() {
        let mut r = Prng::new(8);
        let w = [0.4, 0.5, 0.1];
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[r.weighted_choice(&w)] += 1;
        }
        for i in 0..3 {
            let p = counts[i] as f64 / n as f64;
            assert!((p - w[i]).abs() < 0.01, "p[{i}]={p}");
        }
    }

    #[test]
    fn chance_edges() {
        let mut r = Prng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
