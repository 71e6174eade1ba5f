//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule on the sorted sample: the
//! `p`-th percentile is the value at rank `ceil(p/100 * n)`, so it is
//! always an observed sample and the number of samples strictly beyond
//! its rank is `n - rank`.

/// The percentiles a tail may be reported at, lowest first. The ladder
/// stops at p99: deeper percentiles of sub-millisecond event times mostly
/// measure the machine's scheduling noise.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The rank (1-based) of the `p`-th percentile in a sample of `n`,
/// computed in whole tenths of a percent so that e.g. p99.9 of 10 000
/// samples is exactly rank 9990.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Sorts a copy of `samples` ascending (NaN-free input expected).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `p`-th percentile of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[rank(p, v.len()) - 1])
}

/// The median (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of [`TAIL_LADDER`]).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even the median
/// lacks that many (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    tail_upto(samples, 99.0)
}

/// [`tail`] with the ladder cut at percentile `top`, for a workload whose
/// sample count would otherwise move the tail from one rung to the next
/// with the speed of the machine.
pub fn tail_upto(samples: &[f64], top: f64) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_LADDER
        .iter()
        .rev()
        .filter(|&&p| p <= top)
        .find_map(|&p| {
            if n == 0 {
                return None;
            }
            let r = rank(p, n);
            (n - r >= TAIL_MIN_BEYOND).then(|| Tail {
                percentile: p,
                value: v[r - 1],
                beyond: n - r,
                samples: n,
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&one_to(1000)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // The ladder tops out at p99.
        let t = tail(&one_to(10_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 9900.0, 100));
        assert_eq!(percentile(&one_to(10_000), 99.9), Some(9990.0));
    }

    #[test]
    fn tail_steps_down_the_ladder_when_samples_are_short() {
        // 999 samples: p99 has rank 990 and only nine beyond it.
        let t = tail(&one_to(999)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));
        let t = tail(&one_to(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&one_to(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn a_cut_ladder_stops_at_its_top_rung() {
        let t = tail_upto(&one_to(1000), 75.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 750.0, 250));
        // Below the top rung the ladder steps down as before.
        let t = tail_upto(&one_to(20), 75.0).unwrap();
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn median_and_percentiles_use_the_sorted_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&one_to(100), 90.0), Some(90.0));
        assert_eq!(percentile(&[5.0], 99.0), Some(5.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
