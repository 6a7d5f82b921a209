//! Performance profiles (Fig. 10).
//!
//! "The X-axis represents the factor by which a given scheme fares relative
//! to the best performing scheme for that particular input. The Y-axis
//! represents the fraction of problems." Each scheme's curve is the CDF of
//! its ratio-to-best across the input collection; "the closer a heuristic
//! curve is to the Y-axis the more superior its performance".

/// Whether larger metric values are better (modularity) or worse (runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Higher values win (e.g. modularity). Ratio = best / value.
    HigherIsBetter,
    /// Lower values win (e.g. runtime). Ratio = value / best.
    LowerIsBetter,
}

/// One scheme's profile curve.
#[derive(Clone, Debug)]
pub struct ProfileCurve {
    /// Scheme name.
    pub name: String,
    /// Sorted ratio-to-best, one entry per input (1.0 = best on that input).
    pub ratios: Vec<f64>,
}

impl ProfileCurve {
    /// Fraction of inputs on which this scheme is within `factor` of the
    /// best scheme.
    pub fn fraction_within(&self, factor: f64) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        let count = self.ratios.iter().filter(|&&r| r <= factor).count();
        count as f64 / self.ratios.len() as f64
    }

    /// Fraction of inputs on which this scheme *is* the best (ratio ≈ 1).
    pub fn fraction_best(&self) -> f64 {
        self.fraction_within(1.0 + 1e-12)
    }

    /// The curve as `(factor, fraction)` steps suitable for plotting.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.ratios.len();
        self.ratios
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, (i + 1) as f64 / n as f64))
            .collect()
    }
}

/// The full profile for a set of schemes over a set of inputs.
#[derive(Clone, Debug)]
pub struct PerfProfile {
    /// One curve per scheme, in input order of `values`.
    pub curves: Vec<ProfileCurve>,
}

impl PerfProfile {
    /// Builds profiles from `values[scheme][input]` with scheme `names`.
    ///
    /// Panics if rows are ragged, empty, or contain non-positive values
    /// (ratios are undefined there).
    pub fn compute(names: &[&str], values: &[Vec<f64>], direction: Direction) -> Self {
        assert_eq!(names.len(), values.len(), "one name per scheme row");
        assert!(!values.is_empty(), "need at least one scheme");
        let num_inputs = values[0].len();
        assert!(num_inputs > 0, "need at least one input");
        for row in values {
            assert_eq!(row.len(), num_inputs, "ragged value matrix");
            assert!(row.iter().all(|&v| v > 0.0), "values must be positive");
        }

        let mut curves = Vec::with_capacity(values.len());
        for (s, name) in names.iter().enumerate() {
            let mut ratios: Vec<f64> = (0..num_inputs)
                .map(|i| {
                    let column: Vec<f64> = values.iter().map(|row| row[i]).collect();
                    match direction {
                        Direction::LowerIsBetter => {
                            let best = column.iter().cloned().fold(f64::INFINITY, f64::min);
                            values[s][i] / best
                        }
                        Direction::HigherIsBetter => {
                            let best = column.iter().cloned().fold(0.0, f64::max);
                            best / values[s][i]
                        }
                    }
                })
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
            curves.push(ProfileCurve {
                name: name.to_string(),
                ratios,
            });
        }
        Self { curves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_profile_identifies_winner() {
        // Scheme A is fastest on both inputs; scheme B is 2× slower.
        let values = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let p = PerfProfile::compute(&["A", "B"], &values, Direction::LowerIsBetter);
        assert_eq!(p.curves[0].fraction_best(), 1.0);
        assert_eq!(p.curves[1].fraction_best(), 0.0);
        assert_eq!(p.curves[1].fraction_within(2.0), 1.0);
    }

    #[test]
    fn modularity_profile_higher_better() {
        let values = vec![vec![0.9, 0.5], vec![0.45, 0.75]];
        let p = PerfProfile::compute(&["A", "B"], &values, Direction::HigherIsBetter);
        // A best on input 0, B best on input 1.
        assert_eq!(p.curves[0].fraction_best(), 0.5);
        assert_eq!(p.curves[1].fraction_best(), 0.5);
        // A is 1.5× off the best on input 1 (0.75/0.5).
        assert!((p.curves[0].ratios[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ties_count_as_best_for_both() {
        let values = vec![vec![3.0], vec![3.0]];
        let p = PerfProfile::compute(&["A", "B"], &values, Direction::LowerIsBetter);
        assert_eq!(p.curves[0].fraction_best(), 1.0);
        assert_eq!(p.curves[1].fraction_best(), 1.0);
    }

    #[test]
    fn steps_are_monotone_cdf() {
        let values = vec![vec![1.0, 3.0, 2.0], vec![2.0, 1.0, 4.0]];
        let p = PerfProfile::compute(&["A", "B"], &values, Direction::LowerIsBetter);
        for curve in &p.curves {
            let steps = curve.steps();
            for w in steps.windows(2) {
                assert!(w[0].0 <= w[1].0);
                assert!(w[0].1 <= w[1].1);
            }
            assert_eq!(steps.last().unwrap().1, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_panics() {
        PerfProfile::compute(
            &["A", "B"],
            &[vec![1.0, 2.0], vec![1.0]],
            Direction::LowerIsBetter,
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_values_panic() {
        PerfProfile::compute(&["A"], &[vec![0.0]], Direction::LowerIsBetter);
    }
}
