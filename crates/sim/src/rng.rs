//! The experiment's single deterministic randomness source.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded RNG with the distribution helpers the simulation needs.
///
/// One `SimRng` per experiment; subsystems that need independent streams
/// should [`fork`](SimRng::fork) so adding draws in one subsystem does not
/// perturb another.
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Seeded constructor — the seed fully determines the experiment.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream.
    #[must_use]
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.next_u64())
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// Normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Fill a byte buffer (key generation in tests and simulations).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// A fresh 32-byte seed (for key generation).
    pub fn seed32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_independent() {
        let mut root1 = SimRng::new(9);
        let mut fork1 = root1.fork();
        let mut root2 = SimRng::new(9);
        let mut fork2 = root2.fork();
        // Consuming extra draws from one root must not change the fork.
        let _ = root1.next_u64();
        assert_eq!(fork1.next_u64(), fork2.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(8);
        for _ in 0..1000 {
            let v = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            let u = r.uniform_u64(5, 10);
            assert!((5..10).contains(&u));
        }
    }
}
