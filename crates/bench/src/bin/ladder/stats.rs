//! Order statistics the ladder reports: nearest-rank percentiles over raw
//! nanosecond samples, and the median over a handful of trial values.

/// Nearest-rank percentile of an ascending slice, `q` in `0.0..=1.0`
/// (the same rule `bin/net.rs` uses, so old and new p50s are comparable).
/// An empty slice reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of a few values: the middle one, or the mean of the two middle
/// ones for an even count — with four trials the nearest-rank rule would
/// always pick the third-best, which biases every metric one way.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Raw samples of one timed call within one trial, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    nanos: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, nanos: u64) {
        self.nanos.push(nanos);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    pub fn sum(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Percentile in nanoseconds; sorts lazily, once per batch of pushes.
    pub fn q(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.nanos.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.nanos, q) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_sorted_input() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51); // round(99 * 0.5) = 50 -> v[50]
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_averages_the_middle_pair_of_an_even_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_report_quartiles_regardless_of_push_order() {
        let mut s = Samples::default();
        for v in [50, 10, 40, 20, 30] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.sum(), 150);
        assert_eq!(s.q(0.25), 20.0);
        assert_eq!(s.q(0.5), 30.0);
        assert_eq!(s.q(0.75), 40.0);
        s.push(5);
        assert_eq!(s.q(0.0), 5.0, "a push after a read re-sorts");
    }
}
