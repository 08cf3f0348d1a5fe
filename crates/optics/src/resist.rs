//! Photoresist models.
//!
//! Development/etch is modeled as a threshold on the aerial intensity:
//! the hard step of Eq. (3) for evaluation, and the differentiable sigmoid
//! of Eq. (4) for optimization:
//!
//! ```text
//! Z(x, y) = sig(I(x, y)) = 1 / (1 + exp(−θ_Z · (I − th_r)))
//! ```

use mosaic_numerics::Grid;

/// Sigmoid/threshold resist model with the paper's parameterization.
///
/// ```
/// use mosaic_optics::ResistModel;
///
/// let resist = ResistModel::paper(); // θ_Z = 50, th_r = 0.5 (Fig. 2)
/// assert!((resist.sigmoid(0.5) - 0.5).abs() < 1e-12);
/// assert!(resist.sigmoid(0.8) > 0.99);
/// assert!(resist.sigmoid(0.2) < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistModel {
    /// Print threshold `th_r` on normalized intensity.
    pub threshold: f64,
    /// Sigmoid steepness `θ_Z`.
    pub steepness: f64,
}

impl ResistModel {
    /// The paper's Fig. 2 parameters: `θ_Z = 50`, `th_r = 0.5`.
    pub fn paper() -> Self {
        ResistModel {
            threshold: 0.5,
            steepness: 50.0,
        }
    }

    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the steepness is not positive or the threshold is not in
    /// `(0, 1)`.
    pub fn new(threshold: f64, steepness: f64) -> Self {
        assert!(steepness > 0.0, "steepness must be positive");
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        ResistModel {
            threshold,
            steepness,
        }
    }

    /// The scalar sigmoid of Eq. (4).
    #[inline]
    pub fn sigmoid(&self, intensity: f64) -> f64 {
        1.0 / (1.0 + (-self.steepness * (intensity - self.threshold)).exp())
    }

    /// Derivative of the sigmoid w.r.t. intensity:
    /// `θ_Z · sig · (1 − sig)` — the factor appearing in every gradient
    /// of §3.
    #[inline]
    pub fn sigmoid_derivative(&self, intensity: f64) -> f64 {
        let s = self.sigmoid(intensity);
        self.steepness * s * (1.0 - s)
    }

    /// Applies the sigmoid pixel-wise into `z` — the continuous printed
    /// image `Z = sig(I)` — and writes its derivative into `dz`: one
    /// exponential per pixel serves both `Z` and
    /// `dZ/dI = θ_Z · sig · (1 − sig)` — the pair every gradient
    /// evaluation needs (§3). Bit-identical to calling
    /// [`sigmoid`](Self::sigmoid) and
    /// [`sigmoid_derivative`](Self::sigmoid_derivative) separately,
    /// because the derivative recomputes the same sigmoid value from
    /// the same intensity.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn develop_with_derivative_into(
        &self,
        intensity: &Grid<f64>,
        z: &mut Grid<f64>,
        dz: &mut Grid<f64>,
    ) {
        assert_eq!(intensity.dims(), z.dims(), "develop shape mismatch");
        assert_eq!(intensity.dims(), dz.dims(), "develop shape mismatch");
        for ((o, d), &i) in z.iter_mut().zip(dz.iter_mut()).zip(intensity.iter()) {
            let s = self.sigmoid(i);
            *o = s;
            *d = self.steepness * s * (1.0 - s);
        }
    }

    /// Applies the hard step of Eq. (3): the binary printed image.
    pub fn print(&self, intensity: &Grid<f64>) -> Grid<f64> {
        intensity.threshold(self.threshold)
    }
}

impl Default for ResistModel {
    fn default() -> Self {
        ResistModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_monotone_and_bounded() {
        let r = ResistModel::paper();
        let mut prev = -1.0;
        for k in 0..=40 {
            let i = k as f64 / 40.0;
            let s = r.sigmoid(i);
            assert!((0.0..=1.0).contains(&s));
            assert!(s > prev, "sigmoid not monotone at {i}");
            prev = s;
        }
    }

    #[test]
    fn sigmoid_centered_on_threshold() {
        let r = ResistModel::new(0.3, 25.0);
        assert!((r.sigmoid(0.3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let r = ResistModel::paper();
        for &i in &[0.2, 0.45, 0.5, 0.55, 0.9] {
            let eps = 1e-6;
            let fd = (r.sigmoid(i + eps) - r.sigmoid(i - eps)) / (2.0 * eps);
            assert!(
                (r.sigmoid_derivative(i) - fd).abs() < 1e-5,
                "at {i}: {} vs {fd}",
                r.sigmoid_derivative(i)
            );
        }
    }

    #[test]
    fn develop_and_print_are_consistent() {
        let r = ResistModel::paper();
        let intensity = Grid::from_vec(4, 1, vec![0.1, 0.49, 0.51, 0.9]).unwrap();
        let (mut z, mut dz) = (Grid::zeros(4, 1), Grid::zeros(4, 1));
        r.develop_with_derivative_into(&intensity, &mut z, &mut dz);
        let p = r.print(&intensity);
        assert_eq!(p.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
        // Hard print agrees with rounding the sigmoid image.
        for (zi, pi) in z.iter().zip(p.iter()) {
            assert_eq!((*zi > 0.5) as i32 as f64, *pi);
        }
    }

    #[test]
    fn fused_develop_matches_separate_calls_bitwise() {
        let r = ResistModel::paper();
        let intensity = Grid::from_fn(13, 5, |x, y| {
            (x as f64 * 0.07 + y as f64 * 0.11).sin() * 0.6 + 0.5
        });
        let mut z = Grid::zeros(13, 5);
        let mut dz = Grid::zeros(13, 5);
        r.develop_with_derivative_into(&intensity, &mut z, &mut dz);
        for (idx, &i) in intensity.iter().enumerate() {
            assert_eq!(
                z.as_slice()[idx].to_bits(),
                r.sigmoid(i).to_bits(),
                "z pixel {idx}"
            );
            assert_eq!(
                dz.as_slice()[idx].to_bits(),
                r.sigmoid_derivative(i).to_bits(),
                "dz pixel {idx}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "steepness")]
    fn rejects_bad_steepness() {
        let _ = ResistModel::new(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = ResistModel::new(1.5, 10.0);
    }
}
