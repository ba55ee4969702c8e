//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation
/// between closest ranks. `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile [`tail`] reports. Higher ones measured the
/// shared host's scheduler more than the program: across runs of the
/// same code their spread was several times that of the median.
pub const TAIL_CAP: u32 = 90;

/// A tail summary: the highest whole percentile, up to [`TAIL_CAP`],
/// that still has at least ten samples beyond it, its value, and the
/// sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when the sample is too small for
    /// anything higher).
    pub percentile: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

/// The highest whole percentile `p` in 50..=[`TAIL_CAP`] with at least
/// ten samples above it, `n · (100 − p) ≥ 1000`. Samples too few for
/// any `p > 50` give the median.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let p = (51..=TAIL_CAP)
        .rev()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .unwrap_or(50);
    Tail {
        percentile: p,
        value: quantile(xs, p as f64 / 100.0),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_up_to_the_cap() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, TAIL_CAP);
        assert_eq!(t.n, 1000);
        let t = tail(&xs[..100]);
        assert_eq!(t.percentile, 90);
        let t = tail(&xs[..40]);
        assert_eq!(t.percentile, 75);
        let t = tail(&xs[..15]);
        assert_eq!(t.percentile, 50);
    }
}
