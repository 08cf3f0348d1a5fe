//! Optical-system configuration and process-window corners.

use crate::error::OpticsError;
use crate::source::SourceShape;

/// One lithography process condition: a defocus/dose pair.
///
/// The paper's process window spans "a defocus range of ±25 nm and a dose
/// range of ±2 %" (§4); the PV-band term of the objective (Eq. (18))
/// evaluates the printed image at several such corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessCondition {
    /// Defocus in nm (0 = nominal focal plane).
    pub defocus_nm: f64,
    /// Relative exposure dose (1.0 = nominal).
    pub dose: f64,
}

impl ProcessCondition {
    /// The nominal condition: in focus, nominal dose.
    pub const NOMINAL: ProcessCondition = ProcessCondition {
        defocus_nm: 0.0,
        dose: 1.0,
    };

    /// Creates a condition.
    pub const fn new(defocus_nm: f64, dose: f64) -> Self {
        ProcessCondition { defocus_nm, dose }
    }

    /// Just the nominal condition — for design-target-only optimization
    /// and quick simulations.
    pub fn nominal_only() -> Vec<ProcessCondition> {
        vec![ProcessCondition::NOMINAL]
    }

    /// The paper's process window: nominal plus the four extreme corners
    /// of (±`defocus_nm`) × (1 ∓ `dose_delta`).
    ///
    /// Defocused/underdosed is the "inner" worst case and
    /// focused/overdosed the "outer" one; taking all four corners matches
    /// how PV bands are measured (outermost and innermost edges may come
    /// from different conditions, Fig. 4).
    pub fn paper_window(defocus_nm: f64, dose_delta: f64) -> Vec<ProcessCondition> {
        vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(defocus_nm, 1.0 - dose_delta),
            ProcessCondition::new(defocus_nm, 1.0 + dose_delta),
            ProcessCondition::new(-defocus_nm, 1.0 - dose_delta),
            ProcessCondition::new(-defocus_nm, 1.0 + dose_delta),
        ]
    }

    /// The default contest window: ±25 nm defocus, ±2 % dose.
    pub fn contest_window() -> Vec<ProcessCondition> {
        Self::paper_window(25.0, 0.02)
    }
}

impl Default for ProcessCondition {
    fn default() -> Self {
        ProcessCondition::NOMINAL
    }
}

/// Parameters of the projection optics and the simulation grid.
///
/// Construct via [`OpticsConfig::contest_32nm`] (the paper's setup) or
/// [`OpticsConfig::builder`] for custom systems.
#[derive(Debug, Clone, PartialEq)]
pub struct OpticsConfig {
    /// Exposure wavelength in nm (193 for ArF immersion).
    pub wavelength_nm: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Simulation pixel pitch in nm (1 nm in the paper; coarser pitches
    /// trade accuracy for speed in tests).
    pub pixel_nm: f64,
    /// Simulation grid width in pixels.
    pub grid_width: usize,
    /// Simulation grid height in pixels.
    pub grid_height: usize,
    /// Illumination shape.
    pub source: SourceShape,
    /// Number of coherent kernels (source sample points); the paper uses
    /// 24.
    pub kernel_count: usize,
}

impl OpticsConfig {
    /// The paper's 32 nm M1 setup: λ = 193 nm, NA = 1.35 immersion,
    /// annular 0.6/0.9 illumination, 24 kernels, on a square grid of
    /// `grid` pixels at `pixel_nm` nm pitch.
    ///
    /// `contest_32nm(2048, 1.0)` reproduces the full-resolution contest
    /// configuration; tests typically run `contest_32nm(256, 4.0)` (same
    /// physical window, 4 nm pixels).
    pub fn contest_32nm(grid: usize, pixel_nm: f64) -> Self {
        OpticsConfig {
            wavelength_nm: 193.0,
            na: 1.35,
            pixel_nm,
            grid_width: grid,
            grid_height: grid,
            source: SourceShape::Annular {
                sigma_in: 0.6,
                sigma_out: 0.9,
            },
            kernel_count: 24,
        }
    }

    /// Starts a builder with the contest defaults.
    pub fn builder() -> OpticsConfigBuilder {
        OpticsConfigBuilder {
            config: OpticsConfig::contest_32nm(512, 2.0),
        }
    }

    /// Validates physical ranges.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] naming the offending
    /// field when any parameter is non-positive, NA is non-physical, the
    /// kernel count is zero, or the source radii fail
    /// [`SourceShape::validate`].
    // The negated comparisons deliberately reject NaN alongside
    // non-positive values.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), OpticsError> {
        if !(self.wavelength_nm > 0.0) {
            return Err(OpticsError::param("wavelength_nm", "must be positive"));
        }
        if !(self.na > 0.0 && self.na < 2.0) {
            return Err(OpticsError::param("na", "must be in (0, 2)"));
        }
        if !(self.pixel_nm > 0.0) {
            return Err(OpticsError::param("pixel_nm", "must be positive"));
        }
        if self.grid_width == 0 || self.grid_height == 0 {
            return Err(OpticsError::param("grid", "dimensions must be non-zero"));
        }
        if self.kernel_count == 0 {
            return Err(OpticsError::param("kernel_count", "must be non-zero"));
        }
        self.source.validate()
    }

    /// The pupil cutoff spatial frequency NA/λ in cycles/nm.
    pub fn cutoff_frequency(&self) -> f64 {
        self.na / self.wavelength_nm
    }
}

/// Builder for [`OpticsConfig`] (C-BUILDER).
///
/// ```
/// use mosaic_optics::{OpticsConfig, SourceShape};
///
/// let config = OpticsConfig::builder()
///     .grid(256, 256)
///     .pixel_nm(4.0)
///     .kernel_count(12)
///     .source(SourceShape::Circular { sigma: 0.7 })
///     .build()
///     .unwrap();
/// assert_eq!(config.kernel_count, 12);
/// ```
#[derive(Debug, Clone)]
pub struct OpticsConfigBuilder {
    config: OpticsConfig,
}

impl OpticsConfigBuilder {
    /// Sets the wavelength in nm.
    pub fn wavelength_nm(mut self, v: f64) -> Self {
        self.config.wavelength_nm = v;
        self
    }

    /// Sets the numerical aperture.
    pub fn na(mut self, v: f64) -> Self {
        self.config.na = v;
        self
    }

    /// Sets the pixel pitch in nm.
    pub fn pixel_nm(mut self, v: f64) -> Self {
        self.config.pixel_nm = v;
        self
    }

    /// Sets the simulation grid dimensions in pixels.
    pub fn grid(mut self, width: usize, height: usize) -> Self {
        self.config.grid_width = width;
        self.config.grid_height = height;
        self
    }

    /// Sets the illumination shape.
    pub fn source(mut self, v: SourceShape) -> Self {
        self.config.source = v;
        self
    }

    /// Sets the number of coherent kernels.
    pub fn kernel_count(mut self, v: usize) -> Self {
        self.config.kernel_count = v;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`OpticsConfig::validate`].
    pub fn build(self) -> Result<OpticsConfig, OpticsError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contest_defaults_are_valid() {
        let c = OpticsConfig::contest_32nm(256, 4.0);
        c.validate().unwrap();
        assert_eq!(c.wavelength_nm, 193.0);
        assert_eq!(c.kernel_count, 24);
        assert!((c.cutoff_frequency() - 1.35 / 193.0).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = OpticsConfig::builder()
            .na(1.2)
            .wavelength_nm(248.0)
            .grid(64, 128)
            .build()
            .unwrap();
        assert_eq!(c.na, 1.2);
        assert_eq!((c.grid_width, c.grid_height), (64, 128));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(OpticsConfig::builder().na(0.0).build().is_err());
        assert!(OpticsConfig::builder().na(2.5).build().is_err());
        assert!(OpticsConfig::builder().wavelength_nm(-1.0).build().is_err());
        assert!(OpticsConfig::builder().pixel_nm(0.0).build().is_err());
        assert!(OpticsConfig::builder().grid(0, 64).build().is_err());
        assert!(OpticsConfig::builder().kernel_count(0).build().is_err());
        // Source radii: inverted annulus, sigma > 1, NaN. The simulator
        // must reject them before its sampler asserts.
        let bad_sources = [
            SourceShape::Annular {
                sigma_in: 0.9,
                sigma_out: 0.5,
            },
            SourceShape::Annular {
                sigma_in: 0.6,
                sigma_out: 1.2,
            },
            SourceShape::Circular { sigma: 1.5 },
            SourceShape::Circular { sigma: f64::NAN },
            SourceShape::Annular {
                sigma_in: f64::NAN,
                sigma_out: 0.9,
            },
        ];
        for source in bad_sources {
            let err = OpticsConfig::builder().source(source).build().unwrap_err();
            assert!(
                matches!(err, OpticsError::InvalidParameter { name: "source", .. }),
                "{source:?}: {err}"
            );
            let mut config = OpticsConfig::contest_32nm(64, 16.0);
            config.source = source;
            let sim = crate::LithoSimulator::new(
                &config,
                crate::ResistModel::paper(),
                ProcessCondition::nominal_only(),
            );
            assert!(sim.is_err(), "{source:?} built a simulator");
        }
    }

    #[test]
    fn paper_window_has_five_conditions() {
        let w = ProcessCondition::contest_window();
        assert_eq!(w.len(), 5);
        assert_eq!(w[0], ProcessCondition::NOMINAL);
        assert!(w.iter().any(|c| c.defocus_nm == 25.0 && c.dose == 0.98));
        assert!(w.iter().any(|c| c.defocus_nm == -25.0 && c.dose == 1.02));
    }
}
