//! Summary statistics for replicated experiment runs.

/// Mean/dispersion summary of a sample of measurements.
///
/// ```
/// let s = eval::Summary::from_samples([1.0, 2.0, 3.0]).expect("samples are non-empty");
/// assert_eq!(s.mean, 2.0);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 3.0);
/// assert!((s.std - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for a single
    /// sample).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes finite samples; returns `None` for an empty (or
    /// all-non-finite) input.
    pub fn from_samples<I>(samples: I) -> Option<Summary>
    where
        I: IntoIterator<Item = f64>,
    {
        let xs: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        // Sums in index order, from -0.0 as `Iterator::sum` starts.
        let (mut total, mut min, mut max) = (-0.0, f64::INFINITY, f64::NEG_INFINITY);
        for &x in &xs {
            total += x;
            min = min.min(x);
            max = max.max(x);
        }
        let mean = total / n as f64;
        let var = if n > 1 {
            let mut squares = -0.0;
            for &x in &xs {
                squares += (x - mean).powi(2);
            }
            squares / (n - 1) as f64
        } else {
            0.0
        };
        Some(Summary { n, mean, std: var.sqrt(), min, max })
    }

    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean (`1.96·std/√n`; 0 for a single sample).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std / (self.n as f64).sqrt()
        }
    }

    /// Renders as `mean ± ci95` with 4 decimals.
    pub fn display(&self) -> String {
        if self.n < 2 {
            format!("{:.4}", self.mean)
        } else {
            format!("{:.4} ± {:.4}", self.mean, self.ci95())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_by_hand() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).expect("samples are non-empty");
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max), (2.0, 9.0));
    }

    #[test]
    fn single_sample_has_zero_dispersion() {
        let s = Summary::from_samples([3.5]).expect("samples are non-empty");
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95(), 0.0);
        assert_eq!(s.display(), "3.5000");
    }

    #[test]
    fn empty_input_is_none() {
        assert!(Summary::from_samples([]).is_none());
        assert!(Summary::from_samples([f64::NAN]).is_none());
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let few = Summary::from_samples([0.0, 1.0]).expect("samples are non-empty");
        let many = Summary::from_samples((0..32).map(|i| (i % 2) as f64)).expect("samples are non-empty");
        assert!(many.ci95() < few.ci95());
    }

    #[test]
    fn display_includes_interval() {
        let s = Summary::from_samples([1.0, 2.0, 3.0]).expect("samples are non-empty");
        assert!(s.display().contains('±'));
    }
}
