//! Packet interarrival-time models.

use netsim::Prng;

/// Renewal interarrival-time models used in the paper's simulations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Interarrival {
    /// Exponential interarrivals (Poisson arrivals) — the "smooth" model.
    Exponential,
    /// Pareto interarrivals with the given shape α. The paper uses α = 1.9:
    /// finite mean, infinite variance.
    Pareto {
        /// Shape parameter.
        alpha: f64,
    },
    /// Deterministic (CBR) interarrivals — fluid-like traffic, used to
    /// validate the simulator against the analytic fluid model.
    Constant,
}

impl Interarrival {
    /// The paper's heavy-tailed default: Pareto with α = 1.9.
    pub const PARETO_PAPER: Interarrival = Interarrival::Pareto { alpha: 1.9 };

    /// Draw one interarrival time with the given mean (seconds).
    #[inline]
    pub fn sample(&self, rng: &mut Prng, mean: f64) -> f64 {
        self.gaps(mean).sample(rng)
    }

    /// Bind the model to a mean (seconds), working out once what every
    /// draw would otherwise recompute.
    pub fn gaps(self, mean: f64) -> Gaps {
        debug_assert!(mean > 0.0);
        match self {
            Interarrival::Exponential => Gaps::Exponential { mean },
            Interarrival::Pareto { alpha } => Gaps::Pareto {
                xm: Prng::pareto_scale(alpha, mean),
                inv_alpha: 1.0 / alpha,
            },
            Interarrival::Constant => Gaps::Constant { mean },
        }
    }
}

/// An [`Interarrival`] model bound to its mean: the Pareto scale `x_m` and
/// `1 / alpha` are loop invariants of a source's draws, computed here once
/// by the same operations, so every gap is bit-identical to
/// [`Interarrival::sample`]'s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gaps {
    /// Exponential gaps with this mean.
    Exponential {
        /// Mean gap, seconds.
        mean: f64,
    },
    /// Pareto gaps.
    Pareto {
        /// Scale x_m, seconds.
        xm: f64,
        /// Reciprocal of the shape.
        inv_alpha: f64,
    },
    /// Always this gap.
    Constant {
        /// The gap, seconds.
        mean: f64,
    },
}

impl Gaps {
    /// Draw one interarrival time (seconds).
    #[inline]
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        match *self {
            Gaps::Constant { mean } => mean,
            _ => self.at(rng.f64()),
        }
    }

    /// Whether a gap takes a uniform draw from the source's `Prng`
    /// (a constant one takes none).
    pub(crate) fn draws(&self) -> bool {
        !matches!(self, Gaps::Constant { .. })
    }

    /// The gap [`Gaps::sample`] returns when its uniform draw is `u`.
    #[inline]
    pub(crate) fn at(&self, u: f64) -> f64 {
        match *self {
            Gaps::Exponential { mean } => Prng::exponential_at(u, mean),
            Gaps::Pareto { xm, inv_alpha } => Prng::pareto_at(u, xm, inv_alpha),
            Gaps::Constant { mean } => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(model: Interarrival, mean: f64, n: usize) -> f64 {
        let mut rng = Prng::new(99);
        (0..n).map(|_| model.sample(&mut rng, mean)).sum::<f64>() / n as f64
    }

    #[test]
    fn all_models_hit_requested_mean() {
        assert!((sample_mean(Interarrival::Exponential, 0.01, 200_000) - 0.01).abs() < 2e-4);
        assert!((sample_mean(Interarrival::PARETO_PAPER, 0.01, 400_000) - 0.01).abs() / 0.01 < 0.1);
        assert!((sample_mean(Interarrival::Constant, 0.01, 10) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn pareto_is_burstier_than_exponential() {
        let mut rng = Prng::new(7);
        let n = 100_000;
        let var = |model: Interarrival, rng: &mut Prng| {
            let xs: Vec<f64> = (0..n).map(|_| model.sample(rng, 1.0)).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64
        };
        let v_exp = var(Interarrival::Exponential, &mut rng);
        let v_par = var(Interarrival::PARETO_PAPER, &mut rng);
        assert!(
            v_par > 2.0 * v_exp,
            "pareto variance {v_par} not >> exponential {v_exp}"
        );
    }
}
