//! Order statistics over a handful of samples. With so few samples no tail
//! percentile has ten samples beyond it, so the summary is min, median, max
//! and n.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summary of `samples` (which must not be empty). The median of an even
/// count is the mean of the two middle values.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_and_single() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        let s = summarize(&[7.5]);
        assert_eq!((s.median, s.min, s.max, s.n), (7.5, 7.5, 7.5, 1));
    }
}
