//! Order statistics and seeded samplers.
//!
//! Percentiles are nearest-rank: the reported value is always an observed
//! sample, never an interpolation. Medians and quartiles of *run values*
//! (used by `compare` and by the spread check) follow Python's
//! `statistics.median` and `statistics.quantiles(data, n=4)`, so a spread
//! printed here equals the one an external checker computes from the same
//! numbers.

/// Sorts a sample ascending (total order, so NaNs cannot scramble it).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank `q`-quantile (`q` in [0, 1]) of an ascending sample;
/// `None` when the sample is empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, q) - 1])
}

/// The 1-based nearest rank of the `q`-quantile in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Tail percentiles a workload may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it in a sample of `n`; `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// A percentile as a label: `0.99` → `p99`, `0.999` → `p99.9`.
pub fn label(q: f64) -> String {
    let p = (q * 1000.0).round() / 10.0;
    if p.fract() == 0.0 {
        format!("p{}", p as u32)
    } else {
        format!("p{p}")
    }
}

/// Median as `statistics.median`: the mean of the two middle values for an
/// even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// SplitMix64: a small, fast, seedable generator whose streams are fully
/// determined by their seed (the benchmark's inputs must repeat exactly).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`: each workload part
    /// (object layers, probe points, one client thread) gets its own, so
    /// adding a consumer never shifts another's values.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A Zipf(s) distribution over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(
            n > 0 && s.is_finite() && s >= 0.0,
            "Zipf needs n > 0, s >= 0"
        );
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_observed_samples() {
        let s = sorted(vec![50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(percentile(&s, 0.5), Some(30.0));
        assert_eq!(percentile(&s, 1.0), Some(50.0));
        assert_eq!(percentile(&s, 0.0), Some(10.0));
        assert_eq!(percentile(&s, 0.99), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_helper_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in [20, 57, 100, 1234, 99_999] {
            let q = highest_supported(n).unwrap();
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
            // ...and no higher rung would.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&h| h > q) {
                assert!(samples_beyond(n, higher) < 10, "n={n} q={q}");
            }
        }
        assert_eq!(label(0.99), "p99");
        assert_eq!(label(0.999), "p99.9");
        assert_eq!(label(0.5), "p50");
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) on the same data.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn zipf_streams_are_seeded() {
        let z = Zipf::new(65_536, 1.0);
        let draw = |seed| {
            let mut rng = Rng::derive(seed, 7);
            (0..1_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1), "same seed, same op stream");
        assert_ne!(draw(1), draw(2), "another seed, another op stream");
        assert!(draw(3).iter().all(|&r| r < 65_536));
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(1_000, 1.0);
        let mut rng = Rng::derive(42, 0);
        let mut counts = [0usize; 1_000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(1000) ≈ 0.134; P(rank 1) is half of it.
        let p0 = counts[0] as f64 / 200_000.0;
        assert!((p0 - 0.1336).abs() < 0.01, "{p0}");
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        // s = 0 is uniform.
        let flat = Zipf::new(4, 0.0);
        let mut c = [0usize; 4];
        for _ in 0..40_000 {
            c[flat.sample(&mut rng)] += 1;
        }
        assert!(c.iter().all(|&n| (9_000..11_000).contains(&n)), "{c:?}");
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = Rng::derive(5, 1);
        let mut b = Rng::derive(5, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut r = Rng::derive(9, 0);
        assert!((0..1_000).all(|_| (0.0..1.0).contains(&r.next_f64())));
        assert!((0..1_000).all(|_| r.below(3) < 3));
    }
}
