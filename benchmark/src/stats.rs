//! Order statistics for repeated timings.

/// Sample count, quartiles and median of one metric's repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), so a spread printed here is the
/// spread the driver computes from the same values.
///
/// Panics on an empty sample; a single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    if m == 1 {
        return Summary {
            n: 1,
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: m,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// The undisturbed time of a job made of parts, from repeated passes
/// that timed each part on its own (`passes[k][i]` is part `i` in pass
/// `k`): the sum over the parts of each part's fastest pass.
///
/// The host slows in bursts of a second or two (README, "Noise"), and
/// only ever slows: a part's fastest pass is the one a burst touched
/// least, and a part is short enough to fall between bursts where the
/// whole job is not.
pub fn floor(passes: &[Vec<f64>]) -> f64 {
    assert!(!passes.is_empty(), "floor of no passes");
    (0..passes[0].len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Each pass's total over its parts, summarized.
pub fn totals(passes: &[Vec<f64>]) -> Summary {
    let sums: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    summarize(&sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_each_parts_fastest_pass() {
        let passes = vec![vec![1.0, 9.0], vec![2.0, 5.0], vec![3.0, 7.0]];
        assert_eq!(floor(&passes), 1.0 + 5.0);
        let t = totals(&passes);
        assert_eq!((t.n, t.median), (3, 10.0));
        assert_eq!(floor(&[vec![4.0]]), 4.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = summarize(&[10.0, 20.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
    }
}
