//! Illumination sources and Abbe source-point sampling.
//!
//! A partially coherent source is described in pupil ("σ") coordinates:
//! σ = 1 corresponds to rays entering at the full numerical aperture.
//! Abbe's method discretizes the source into point emitters; each point
//! yields one coherent imaging system (one SOCS kernel). Sampling uses a
//! deterministic golden-angle spiral, which covers disks and annuli nearly
//! uniformly for any point count — so `kernel_count = 24` reproduces the
//! paper's 24-kernel approximation.

use crate::error::OpticsError;
use std::f64::consts::PI;

/// One sampled source point in σ coordinates with its intensity weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcePoint {
    /// σ-space x component (|σ| ≤ 1 for physical sources).
    pub sx: f64,
    /// σ-space y component.
    pub sy: f64,
    /// Relative intensity weight; a full sample set sums to 1.
    pub weight: f64,
}

/// Shape of the illumination source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceShape {
    /// Conventional circular (top-hat) illumination of radius
    /// `sigma` in pupil coordinates.
    Circular {
        /// Partial-coherence factor, in `(0, 1]`.
        sigma: f64,
    },
    /// Annular illumination between two radii — the standard choice for
    /// dense 32 nm metal layers (strong off-axis component).
    Annular {
        /// Inner radius in `(0, 1)`.
        sigma_in: f64,
        /// Outer radius in `(sigma_in, 1]`.
        sigma_out: f64,
    },
}

impl SourceShape {
    /// Checks the radii: `0 < σ ≤ 1` for a disk and
    /// `0 < σ_in < σ_out ≤ 1` for an annulus. NaN radii fail too.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] naming `source` when a
    /// radius is out of range.
    pub fn validate(&self) -> Result<(), OpticsError> {
        let (ok, rule) = match *self {
            SourceShape::Circular { sigma } => (
                sigma > 0.0 && sigma <= 1.0,
                "sigma out of range: need 0 < sigma <= 1",
            ),
            SourceShape::Annular {
                sigma_in,
                sigma_out,
            } => (
                sigma_in > 0.0 && sigma_out > sigma_in && sigma_out <= 1.0,
                "annulus radii out of range: need 0 < sigma_in < sigma_out <= 1",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(OpticsError::param("source", rule))
        }
    }

    /// Samples the source into `count` weighted points.
    ///
    /// Points follow a golden-angle spiral with radii chosen so each point
    /// represents an equal source area; weights are uniform and sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or the shape fails
    /// [`validate`](Self::validate).
    pub fn sample(&self, count: usize) -> Vec<SourcePoint> {
        assert!(count > 0, "source sample count must be non-zero");
        let valid = self.validate();
        assert!(valid.is_ok(), "{valid:?}");
        let golden = PI * (3.0 - 5.0f64.sqrt());
        let weight = 1.0 / count as f64;
        // Radius of the point at area fraction `t`: equal-area spacing.
        let radius = |t: f64| match *self {
            SourceShape::Circular { sigma } => sigma * t.sqrt(),
            SourceShape::Annular {
                sigma_in,
                sigma_out,
            } => (sigma_in * sigma_in + t * (sigma_out * sigma_out - sigma_in * sigma_in)).sqrt(),
        };
        (0..count)
            .map(|i| {
                let r = radius((i as f64 + 0.5) / count as f64);
                let theta = golden * i as f64;
                SourcePoint {
                    sx: r * theta.cos(),
                    sy: r * theta.sin(),
                    weight,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        for count in [1usize, 7, 24, 100] {
            let pts = SourceShape::Circular { sigma: 0.8 }.sample(count);
            let total: f64 = pts.iter().map(|p| p.weight).sum();
            assert!((total - 1.0).abs() < 1e-12, "count {count}: sum {total}");
        }
    }

    #[test]
    fn circular_points_stay_inside_sigma() {
        let pts = SourceShape::Circular { sigma: 0.7 }.sample(50);
        for p in &pts {
            let r = (p.sx * p.sx + p.sy * p.sy).sqrt();
            assert!(r <= 0.7 + 1e-12, "point radius {r}");
        }
    }

    #[test]
    fn annular_points_stay_in_annulus() {
        let pts = SourceShape::Annular {
            sigma_in: 0.6,
            sigma_out: 0.9,
        }
        .sample(24);
        for p in &pts {
            let r = (p.sx * p.sx + p.sy * p.sy).sqrt();
            assert!((0.6 - 1e-12..=0.9 + 1e-12).contains(&r), "point radius {r}");
        }
    }

    #[test]
    fn sampling_is_roughly_centered() {
        // Near-uniform coverage implies a small centroid.
        let pts = SourceShape::Annular {
            sigma_in: 0.5,
            sigma_out: 0.9,
        }
        .sample(24);
        let cx: f64 = pts.iter().map(|p| p.sx * p.weight).sum();
        let cy: f64 = pts.iter().map(|p| p.sy * p.weight).sum();
        assert!(cx.abs() < 0.1 && cy.abs() < 0.1, "centroid ({cx},{cy})");
    }

    #[test]
    fn sampling_is_deterministic() {
        let shape = SourceShape::Circular { sigma: 0.9 };
        assert_eq!(shape.sample(24), shape.sample(24));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_count_rejected() {
        let _ = SourceShape::Circular { sigma: 0.5 }.sample(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_annulus_rejected() {
        let _ = SourceShape::Annular {
            sigma_in: 0.9,
            sigma_out: 0.5,
        }
        .sample(4);
    }
}
