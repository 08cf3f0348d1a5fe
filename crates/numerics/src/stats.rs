//! Scalar reductions used by optimizer stopping rules and reports.

use crate::grid::Grid;

/// Root-mean-square of a slice.
///
/// Alg. 1 of the paper stops gradient descent when `RMS(∇F) < th_g`; this
/// is that reduction. Returns `0.0` for an empty slice.
///
/// ```
/// let rms = mosaic_numerics::stats::rms(&[3.0, 4.0]);
/// assert!((rms - (12.5f64).sqrt()).abs() < 1e-12);
/// ```
pub fn rms(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    (sum_sq / values.len() as f64).sqrt()
}

/// Root-mean-square over all pixels of a grid.
pub fn grid_rms(grid: &Grid<f64>) -> f64 {
    rms(grid.as_slice())
}

/// Largest absolute value in a slice; `0.0` for an empty slice.
pub fn max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_of_empty_is_zero() {
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn rms_of_constant_is_that_constant() {
        assert!((rms(&[2.0; 10]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn grid_rms_matches_slice_rms() {
        let g = Grid::from_vec(2, 2, vec![1.0, -1.0, 1.0, -1.0]).unwrap();
        assert!((grid_rms(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_of_slice() {
        assert_eq!(max_abs(&[-5.0, 4.0]), 5.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
