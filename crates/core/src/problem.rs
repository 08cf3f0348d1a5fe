//! The assembled inverse-lithography problem.
//!
//! An [`OpcProblem`] ties together everything an objective evaluation
//! needs: the forward simulator (kernel banks for the nominal condition
//! and every process corner), the rasterized target `Z_t` embedded on the
//! simulation grid, and the EPE sample sites mapped to pixel coordinates.

use crate::error::CoreError;
use mosaic_geometry::raster::whole_nm_pitch;
use mosaic_geometry::{Layout, Orientation};
use mosaic_numerics::Grid;
use mosaic_optics::{LithoSimulator, OpticsConfig, ProcessCondition, ResistModel};
use std::sync::Arc;

/// An EPE sample site in simulation-grid pixel coordinates.
///
/// `(x, y)` is the pixel just inside the target pattern at the site; the
/// EPE window extends `±th_epe` pixels along the direction perpendicular
/// to the edge (vertically for `Horizontal` sites, horizontally for
/// `Vertical` ones), per Eq. (9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelSample {
    /// Pixel column.
    pub x: usize,
    /// Pixel row.
    pub y: usize,
    /// Orientation of the edge the site sits on.
    pub orientation: Orientation,
    /// Outward unit normal of the target edge at the site.
    pub normal: (i64, i64),
}

/// A fully assembled OPC problem on the simulation grid.
#[derive(Debug, Clone)]
pub struct OpcProblem {
    sim: Arc<LithoSimulator>,
    layout: Layout,
    target: Grid<f64>,
    samples: Vec<PixelSample>,
    pixel_nm: f64,
    clip_px: (usize, usize),
    offset_px: (usize, usize),
}

impl OpcProblem {
    /// Assembles a problem: rasterizes `layout` at the optics pixel
    /// pitch, embeds it centered on the simulation grid, builds kernel
    /// banks for every condition and maps EPE sites to pixels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ClipTooLarge`] when the rasterized clip
    /// exceeds the simulation grid, [`CoreError::Optics`] for invalid
    /// optics, and [`CoreError::InvalidConfig`] for an empty condition
    /// list, non-positive sample spacing or a pixel pitch that is not a
    /// whole number of nm of at least 1.
    pub fn from_layout(
        layout: &Layout,
        optics: &OpticsConfig,
        resist: ResistModel,
        conditions: Vec<ProcessCondition>,
        epe_spacing_nm: i64,
    ) -> Result<Self, CoreError> {
        optics.validate()?;
        if conditions.is_empty() {
            return Err(CoreError::InvalidConfig(
                "need at least one process condition".into(),
            ));
        }
        let sim = Arc::new(LithoSimulator::new(optics, resist, conditions)?);
        Self::from_layout_with_simulator(layout, sim, epe_spacing_nm)
    }

    /// Assembles a problem around an existing (typically cached and
    /// shared) simulator instead of building fresh kernel banks.
    ///
    /// The batch runtime builds each distinct simulator configuration
    /// once, wraps it in [`Arc`], and hands it to every job with the same
    /// optics — kernel-bank construction and FFT spectra are paid once
    /// per configuration instead of once per clip.
    ///
    /// # Errors
    ///
    /// Same as [`OpcProblem::from_layout`], evaluated against the
    /// simulator's optics configuration.
    pub fn from_layout_with_simulator(
        layout: &Layout,
        sim: Arc<LithoSimulator>,
        epe_spacing_nm: i64,
    ) -> Result<Self, CoreError> {
        let optics = sim.config().clone();
        if epe_spacing_nm <= 0 {
            return Err(CoreError::InvalidConfig(
                "EPE sample spacing must be positive".into(),
            ));
        }
        let pixel_nm = optics.pixel_nm;
        // The clip is drawn on whole nm, so it rasterizes only at a
        // whole-nm pitch; the kernels and EPE sites use `pixel_nm` as is.
        let Some(pitch) = whole_nm_pitch(pixel_nm) else {
            return Err(CoreError::InvalidConfig(format!(
                "pixel pitch must be a whole number of nm, at least 1, got {pixel_nm}"
            )));
        };
        let clip = layout.rasterize(pitch);
        let (cw, ch) = clip.dims();
        let (gw, gh) = (optics.grid_width, optics.grid_height);
        if cw > gw || ch > gh {
            return Err(CoreError::ClipTooLarge {
                clip_px: (cw, ch),
                grid_px: (gw, gh),
            });
        }
        let offset = ((gw - cw) / 2, (gh - ch) / 2);
        let target = clip.embed_centered(gw, gh);
        let samples = layout
            .epe_samples(epe_spacing_nm)
            .iter()
            .filter_map(|s| {
                let (px, py) = s.interior_pixel(pixel_nm);
                let x = px + offset.0 as i64;
                let y = py + offset.1 as i64;
                if x >= 0 && y >= 0 && (x as usize) < gw && (y as usize) < gh {
                    Some(PixelSample {
                        x: x as usize,
                        y: y as usize,
                        orientation: s.orientation,
                        normal: s.normal,
                    })
                } else {
                    None
                }
            })
            .collect();
        Ok(OpcProblem {
            sim,
            layout: layout.clone(),
            target,
            samples,
            pixel_nm,
            clip_px: (cw, ch),
            offset_px: offset,
        })
    }

    /// The forward simulator (nominal bank is index 0).
    pub fn simulator(&self) -> &LithoSimulator {
        &self.sim
    }

    /// The source layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The rasterized target `Z_t` on the simulation grid.
    pub fn target(&self) -> &Grid<f64> {
        &self.target
    }

    /// EPE sample sites in simulation-grid pixels.
    pub fn samples(&self) -> &[PixelSample] {
        &self.samples
    }

    /// Pixel pitch in nm.
    pub fn pixel_nm(&self) -> f64 {
        self.pixel_nm
    }

    /// Clip size in pixels (before embedding).
    pub fn clip_px(&self) -> (usize, usize) {
        self.clip_px
    }

    /// Offset of the clip's top-left corner on the simulation grid.
    pub fn offset_px(&self) -> (usize, usize) {
        self.offset_px
    }

    /// Simulation grid shape.
    pub fn grid_dims(&self) -> (usize, usize) {
        self.target.dims()
    }

    /// Crops a simulation-grid field back to the clip window (inverse of
    /// the centered embedding) — for reporting and image dumps.
    pub fn crop_to_clip(&self, field: &Grid<f64>) -> Grid<f64> {
        field.crop_centered(self.clip_px.0, self.clip_px.1)
    }

    /// Embeds a clip-sized mask onto the simulation grid.
    ///
    /// # Panics
    ///
    /// Panics if `clip_field` does not match the clip pixel size.
    pub fn embed_clip(&self, clip_field: &Grid<f64>) -> Grid<f64> {
        assert_eq!(clip_field.dims(), self.clip_px, "clip field shape mismatch");
        let (gw, gh) = self.grid_dims();
        clip_field.embed_centered(gw, gh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_geometry::{Polygon, Rect};

    fn small_layout() -> Layout {
        let mut l = Layout::new(256, 256);
        l.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        l
    }

    fn small_optics() -> OpticsConfig {
        OpticsConfig::builder()
            .grid(128, 128)
            .pixel_nm(4.0)
            .kernel_count(6)
            .build()
            .unwrap()
    }

    fn problem() -> OpcProblem {
        OpcProblem::from_layout(
            &small_layout(),
            &small_optics(),
            ResistModel::paper(),
            ProcessCondition::nominal_only(),
            40,
        )
        .unwrap()
    }

    #[test]
    fn target_is_centered_embedding() {
        let p = problem();
        assert_eq!(p.grid_dims(), (128, 128));
        assert_eq!(p.clip_px(), (64, 64)); // 256 nm / 4 nm
        assert_eq!(p.offset_px(), (32, 32));
        // Shape spans nm [64,160)x[48,208) -> clip px [16,40)x[12,52)
        // -> grid px [48,72)x[44,84).
        assert_eq!(p.target()[(50, 50)], 1.0);
        assert_eq!(p.target()[(40, 50)], 0.0);
    }

    #[test]
    fn samples_land_inside_target_pixels() {
        let p = problem();
        assert!(!p.samples().is_empty());
        for s in p.samples() {
            assert_eq!(
                p.target()[(s.x, s.y)],
                1.0,
                "sample at ({}, {}) not on target interior",
                s.x,
                s.y
            );
        }
    }

    #[test]
    fn crop_inverts_embed() {
        let p = problem();
        let cropped = p.crop_to_clip(p.target());
        assert_eq!(cropped.dims(), (64, 64));
        let back = p.embed_clip(&cropped);
        assert_eq!(&back, p.target());
    }

    #[test]
    fn rejects_clip_larger_than_grid() {
        let mut big = Layout::new(4096, 4096);
        big.push(Polygon::from_rect(Rect::new(0, 0, 100, 100)));
        let err = OpcProblem::from_layout(
            &big,
            &small_optics(),
            ResistModel::paper(),
            ProcessCondition::nominal_only(),
            40,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::ClipTooLarge { .. }));
    }

    #[test]
    fn rejects_empty_conditions_and_bad_spacing() {
        let l = small_layout();
        let o = small_optics();
        assert!(matches!(
            OpcProblem::from_layout(&l, &o, ResistModel::paper(), vec![], 40),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            OpcProblem::from_layout(
                &l,
                &o,
                ResistModel::paper(),
                ProcessCondition::nominal_only(),
                0
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        for pixel_nm in [2.5, 0.4] {
            let optics = OpticsConfig {
                pixel_nm,
                ..small_optics()
            };
            let err = OpcProblem::from_layout(
                &l,
                &optics,
                ResistModel::paper(),
                ProcessCondition::nominal_only(),
                40,
            )
            .err();
            assert!(
                matches!(err, Some(CoreError::InvalidConfig(_))),
                "pixel {pixel_nm} nm: {err:?}"
            );
        }
    }

    #[test]
    fn sample_orientations_cover_both_axes() {
        let p = problem();
        let h = p
            .samples()
            .iter()
            .filter(|s| s.orientation == Orientation::Horizontal)
            .count();
        let v = p.samples().len() - h;
        assert!(h > 0 && v > 0);
    }
}
