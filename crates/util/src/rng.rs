//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the reproduction (dataset sampling, weight
//! initialization, dropout, placement jitter, measurement noise) draws from
//! [`Rng64`], a small xoshiro256\*\*-based generator seeded explicitly, so
//! that every experiment is bit-reproducible across runs and platforms.

/// A deterministic random number generator (xoshiro256\*\* seeded via
/// SplitMix64).
///
/// # Examples
///
/// ```
/// use pg_util::Rng64;
/// let mut rng = Rng64::new(42);
/// let a = rng.next_u64();
/// let b = Rng64::new(42).next_u64();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second normal deviate from Box-Muller.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            state,
            spare_normal: None,
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn f32(&mut self) -> f32 {
        self.f64() as f32
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "Rng64::below requires bound > 0");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "Rng64::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal deviate (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let m = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * m);
                return u * m;
            }
        }
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher-Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir sampling order is
    /// then shuffled). Returns fewer than `k` if `n < k`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

/// Stateless 64-bit hash used for deterministic "noise" that must depend only
/// on an identifier (e.g. per-design measurement jitter).
///
/// # Examples
///
/// ```
/// let h1 = pg_util::rng::hash64(b"atax-cfg-3");
/// let h2 = pg_util::rng::hash64(b"atax-cfg-3");
/// assert_eq!(h1, h2);
/// ```
pub fn hash64(bytes: &[u8]) -> u64 {
    // FNV-1a followed by a SplitMix64 finalizer for avalanche.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut s = h;
    splitmix64(&mut s)
}

/// Stateless mix of several identifiers into one seed (SplitMix64 steps
/// folded over the inputs). Use this to derive per-worker RNG seeds as a
/// pure function of coordinates like `(seed, epoch, batch, shard)` — no
/// stream is consumed, so the derivation is independent of how many
/// workers exist or in which order they run.
///
/// # Examples
///
/// ```
/// let a = pg_util::rng::mix64(&[42, 0, 3, 1]);
/// let b = pg_util::rng::mix64(&[42, 0, 3, 1]);
/// assert_eq!(a, b);
/// assert_ne!(a, pg_util::rng::mix64(&[42, 0, 3, 2]));
/// ```
pub fn mix64(parts: &[u64]) -> u64 {
    let mut s: u64 = 0x243F_6A88_85A3_08D3; // pi fractional bits, arbitrary non-zero start
    for &p in parts {
        s ^= p;
        s = splitmix64(&mut s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::new(3);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng64::new(4);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn range_within() {
        let mut rng = Rng64::new(5);
        for _ in 0..500 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(8);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(9);
        let s = rng.sample_indices(30, 10);
        assert_eq!(s.len(), 10);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn sample_indices_small_population() {
        let mut rng = Rng64::new(10);
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn hash64_stable_and_spread() {
        assert_eq!(hash64(b"abc"), hash64(b"abc"));
        assert_ne!(hash64(b"abc"), hash64(b"abd"));
    }

    #[test]
    fn mix64_pure_and_order_sensitive() {
        assert_eq!(mix64(&[1, 2, 3]), mix64(&[1, 2, 3]));
        assert_ne!(mix64(&[1, 2, 3]), mix64(&[3, 2, 1]));
        assert_ne!(mix64(&[0]), mix64(&[0, 0]));
        // Seeding an Rng64 from a mixed seed is reproducible.
        let mut a = Rng64::new(mix64(&[7, 0, 4, 2]));
        let mut b = Rng64::new(mix64(&[7, 0, 4, 2]));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bool_probability() {
        let mut rng = Rng64::new(12);
        let hits = (0..10_000).filter(|_| rng.bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
