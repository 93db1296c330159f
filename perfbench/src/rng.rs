//! Deterministic input generation: a SplitMix64 stream and a Zipf
//! sampler. Every operation stream the benchmark drives is a pure
//! function of `(seed, round, thread)`, so one seed always yields the
//! same inputs.

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The stream for one client thread of one round of a run.
    pub fn for_stream(seed: u64, round: u64, thread: u64) -> Rng {
        let mut mix = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        let a = mix.next_u64() ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let b = Rng(a).next_u64() ^ thread.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7);
        Rng(Rng(b).next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(`s`) over `0..n`: rank 0 is the hottest key.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` keys with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One key.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c <= u).min(self.cdf.len() - 1)
    }
}
