//! Packet-size distributions.

use netsim::Prng;

/// A discrete packet-size distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum SizeDist {
    /// All packets have the same size.
    Fixed(u32),
    /// Sizes drawn from `(size, weight)` pairs.
    Discrete(Vec<(u32, f64)>),
}

impl SizeDist {
    /// The paper's cross-traffic mix (§V-A): 40% 40 B, 50% 550 B, 10% 1500 B.
    pub fn paper_mix() -> SizeDist {
        SizeDist::Discrete(vec![(40, 0.4), (550, 0.5), (1500, 0.1)])
    }

    /// Draw one packet size.
    #[inline]
    pub fn sample(&self, rng: &mut Prng) -> u32 {
        self.sample_with_total(rng, self.total_weight())
    }

    /// The sum of the weights (0 for a fixed size): a loop invariant of a
    /// source's draws, see [`SizeDist::sample_with_total`].
    pub fn total_weight(&self) -> f64 {
        match self {
            SizeDist::Fixed(_) => 0.0,
            SizeDist::Discrete(items) => items.iter().map(|(_, w)| *w).sum(),
        }
    }

    /// [`SizeDist::sample`] with [`SizeDist::total_weight`] supplied by a
    /// caller that computed it once.
    #[inline]
    pub fn sample_with_total(&self, rng: &mut Prng, total: f64) -> u32 {
        match self {
            SizeDist::Fixed(s) => *s,
            SizeDist::Discrete(_) => self.at(rng.f64(), total),
        }
    }

    /// Whether a size takes a uniform draw from the source's `Prng` (a
    /// fixed one takes none).
    pub(crate) fn draws(&self) -> bool {
        matches!(self, SizeDist::Discrete(_))
    }

    /// The size [`SizeDist::sample_with_total`] returns when its uniform
    /// draw is `u`: the first item whose weight exceeds what is left of
    /// `u * total` after subtracting the weights before it, else the last
    /// item. Every item is visited and the pick made by selects, so a mix
    /// of sizes costs no misprediction however the draws fall.
    #[inline]
    pub(crate) fn at(&self, u: f64, total: f64) -> u32 {
        let items = match self {
            SizeDist::Fixed(s) => return *s,
            SizeDist::Discrete(items) => items,
        };
        let mut size = items.last().expect("empty size distribution").0;
        let mut open = true;
        let mut x = u * total;
        for &(s, w) in items {
            let hit = open & (x < w);
            size = std::hint::select_unpredictable(hit, s, size);
            open &= !hit;
            x -= w;
        }
        size
    }

    /// Expected packet size in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            SizeDist::Fixed(s) => *s as f64,
            SizeDist::Discrete(items) => {
                items.iter().map(|(s, w)| *s as f64 * *w).sum::<f64>() / self.total_weight()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_mean() {
        // 0.4*40 + 0.5*550 + 0.1*1500 = 16 + 275 + 150 = 441
        assert!((SizeDist::paper_mix().mean() - 441.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_always_returns_same() {
        let mut rng = Prng::new(1);
        let d = SizeDist::Fixed(777);
        assert_eq!(d.mean(), 777.0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 777);
        }
    }

    #[test]
    fn discrete_frequencies_match_weights() {
        let mut rng = Prng::new(2);
        let d = SizeDist::paper_mix();
        let n = 200_000;
        let mut c40 = 0;
        let mut c550 = 0;
        let mut c1500 = 0;
        for _ in 0..n {
            match d.sample(&mut rng) {
                40 => c40 += 1,
                550 => c550 += 1,
                1500 => c1500 += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        assert!((c40 as f64 / n as f64 - 0.4).abs() < 0.01);
        assert!((c550 as f64 / n as f64 - 0.5).abs() < 0.01);
        assert!((c1500 as f64 / n as f64 - 0.1).abs() < 0.01);
    }

    #[test]
    fn unnormalized_weights_are_fine() {
        let d = SizeDist::Discrete(vec![(100, 2.0), (200, 2.0)]);
        assert_eq!(d.mean(), 150.0);
    }
}
