//! Key-popularity modelling.
//!
//! Production key-value traffic is heavily skewed (Atikoglu et al.
//! report Zipf-like key popularity in Facebook's Memcached pools). The
//! [`ZipfSampler`] draws key *ranks* from a Zipf(s) distribution over a
//! finite key space, and provides the analytic hit rate of an LRU-like
//! cache that can hold the hottest `c` keys — which is how the
//! Memcached model derives its miss fraction from workload shape
//! instead of hard-coding it.

use rand::RngCore;

/// A Zipf(s) distribution over ranks `0..keys`, sampled by inverse CDF
/// with a precomputed cumulative table (exact, O(log n) per draw).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    keys: u64,
    exponent: f64,
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `keys` keys with skew `exponent` (s = 0
    /// is uniform; Facebook pools are typically s ≈ 0.9–1.1).
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or the exponent is negative.
    pub fn new(keys: u64, exponent: f64) -> Self {
        assert!(keys > 0, "need at least one key");
        assert!(exponent >= 0.0, "negative Zipf exponent");
        let mut sampler = ZipfSampler {
            keys,
            exponent,
            cdf: Vec::new(),
        };
        sampler.build_cdf();
        sampler
    }

    // Table sizes are capped at 1e6 so the u64→usize casts cannot
    // truncate; `exponent != 1.0` is an exact sentinel (the harmonic
    // closed form divides by 1 - s), not a tolerance comparison.
    #[allow(clippy::cast_possible_truncation, clippy::float_cmp)]
    fn build_cdf(&mut self) {
        // Cap the table: beyond ~1M keys the tail contributes uniformly
        // enough that we bucket it.
        let table = self.keys.min(1_000_000) as usize;
        let mut cdf = Vec::with_capacity(table);
        let mut total = 0.0;
        for rank in 0..table {
            total += 1.0 / ((rank + 1) as f64).powf(self.exponent);
            cdf.push(total);
        }
        // Remaining mass for keys beyond the table (approximated by the
        // integral of x^-s).
        if self.keys as usize > table && self.exponent != 1.0 {
            let a = table as f64;
            let b = self.keys as f64;
            let tail = (b.powf(1.0 - self.exponent) - a.powf(1.0 - self.exponent))
                / (1.0 - self.exponent);
            total += tail.max(0.0);
        }
        for v in &mut cdf {
            *v /= total;
        }
        self.cdf = cdf;
    }

    /// Number of keys.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// The skew exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws a key rank (0 = hottest).
    pub fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        use rand::Rng;
        let u: f64 = rng.gen::<f64>();
        let idx = self.cdf.partition_point(|&c| c < u);
        if idx < self.cdf.len() {
            idx as u64
        } else {
            // Tail bucket: uniform over the untabulated cold keys.
            let table = self.cdf.len() as u64;
            table + rng.gen_range(0..self.keys - table + 1).min(self.keys - table)
        }
    }

    /// The fraction of requests that hit the hottest `capacity` keys —
    /// the analytic hit rate of a cache holding exactly the head of the
    /// popularity distribution.
    // `capacity as usize` is immediately min-clamped to the table size.
    #[allow(clippy::cast_possible_truncation)]
    pub fn hit_rate(&self, capacity: u64) -> f64 {
        if capacity == 0 {
            return 0.0;
        }
        let idx = (capacity as usize).min(self.cdf.len());
        self.cdf[idx - 1].min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn hot_keys_dominate() {
        let zipf = ZipfSampler::new(100_000, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let hot = (0..n).filter(|_| zipf.sample(&mut rng) < 100).count();
        let frac = hot as f64 / n as f64;
        // Zipf(1) over 100k keys: top 100 keys ≈ ln(100)/ln(100000) ≈ 40%.
        assert!(frac > 0.3 && frac < 0.5, "hot fraction {frac}");
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let zipf = ZipfSampler::new(1_000, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let top_half = (0..n).filter(|_| zipf.sample(&mut rng) < 500).count();
        let frac = top_half as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "top-half fraction {frac}");
    }

    #[test]
    fn hit_rate_is_monotone_in_capacity() {
        let zipf = ZipfSampler::new(10_000, 0.9);
        let mut last = 0.0;
        for capacity in [1, 10, 100, 1_000, 10_000] {
            let rate = zipf.hit_rate(capacity);
            assert!(rate >= last, "hit rate must grow with capacity");
            last = rate;
        }
        assert!((zipf.hit_rate(10_000) - 1.0).abs() < 0.05);
        assert_eq!(zipf.hit_rate(0), 0.0);
    }

    #[test]
    fn empirical_hit_rate_matches_analytic() {
        let zipf = ZipfSampler::new(50_000, 1.0);
        let capacity = 5_000;
        let analytic = zipf.hit_rate(capacity);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| zipf.sample(&mut rng) < capacity).count();
        let empirical = hits as f64 / n as f64;
        assert!(
            (empirical - analytic).abs() < 0.02,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn samples_stay_in_range() {
        let zipf = ZipfSampler::new(500, 1.2);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 500);
        }
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_rejected() {
        ZipfSampler::new(0, 1.0);
    }
}
