//! Process-variability band measurement (Fig. 4).
//!
//! The PV band is the area between the outermost and innermost printed
//! edges over all process conditions: pixels printed under **some** but
//! not **all** conditions. It is computed by boolean OR/AND over the
//! per-condition binary prints — exactly the construction the paper
//! describes (and the reason a differentiable surrogate, Eq. (18), is
//! needed inside the optimizer).

use mosaic_numerics::Grid;

/// The measured PV band.
#[derive(Debug, Clone)]
pub struct PvBand {
    band: Grid<f64>,
    area_px: usize,
    pixel_nm: f64,
}

impl PvBand {
    /// Computes the band from per-condition binary prints.
    ///
    /// # Panics
    ///
    /// Panics if `prints` is empty or shapes differ.
    pub fn measure(prints: &[Grid<f64>], pixel_nm: f64) -> Self {
        assert!(!prints.is_empty(), "need at least one printed image");
        let dims = prints[0].dims();
        for p in prints {
            assert_eq!(p.dims(), dims, "print shape mismatch");
        }
        let (w, h) = dims;
        let mut band = Grid::<f64>::zeros(w, h);
        let mut area = 0usize;
        // Per row: which pixels print under some condition and which
        // under all, folded print by print over row slices.
        let (mut any, mut all) = (vec![false; w], vec![true; w]);
        for y in 0..h {
            any.fill(false);
            all.fill(true);
            for p in prints {
                for ((a, l), &v) in any.iter_mut().zip(all.iter_mut()).zip(p.row(y)) {
                    let lit = v > 0.5;
                    *a |= lit;
                    *l &= lit;
                }
            }
            for ((b, &a), &l) in band.row_mut(y).iter_mut().zip(&any).zip(&all) {
                if a && !l {
                    *b = 1.0;
                    area += 1;
                }
            }
        }
        PvBand {
            band,
            area_px: area,
            pixel_nm,
        }
    }

    /// The band as a binary grid (1 inside the band).
    pub fn band(&self) -> &Grid<f64> {
        &self.band
    }

    /// Band area in pixels.
    pub fn area_px(&self) -> usize {
        self.area_px
    }

    /// Band area in nm².
    pub fn area_nm2(&self) -> f64 {
        self.area_px as f64 * self.pixel_nm * self.pixel_nm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar(x0: usize, x1: usize) -> Grid<f64> {
        Grid::from_fn(16, 16, |x, _| if x >= x0 && x < x1 { 1.0 } else { 0.0 })
    }

    #[test]
    fn identical_prints_have_zero_band() {
        let prints = vec![bar(4, 12), bar(4, 12), bar(4, 12)];
        let pv = PvBand::measure(&prints, 1.0);
        assert_eq!(pv.area_px(), 0);
        assert_eq!(pv.area_nm2(), 0.0);
    }

    #[test]
    fn band_is_union_minus_intersection() {
        // Bars [4,12) and [6,14): band = [4,6) ∪ [12,14) -> 4 columns.
        let pv = PvBand::measure(&[bar(4, 12), bar(6, 14)], 1.0);
        assert_eq!(pv.area_px(), 4 * 16);
        assert_eq!(pv.band()[(5, 0)], 1.0);
        assert_eq!(pv.band()[(12, 0)], 1.0);
        assert_eq!(pv.band()[(8, 0)], 0.0); // in intersection
        assert_eq!(pv.band()[(1, 0)], 0.0); // outside union
    }

    #[test]
    fn band_from_multiple_conditions_fig4_style() {
        // Three prints, each contributing a different extreme: the band
        // is the OR of pairwise differences.
        let pv = PvBand::measure(&[bar(4, 12), bar(5, 13), bar(6, 11)], 1.0);
        // Union [4,13), intersection [6,11) -> band (13-4 - (11-6)) = 4 cols.
        assert_eq!(pv.area_px(), 4 * 16);
    }

    /// Band and area equal the per-pixel loop they replaced, on seeded
    /// prints of one to five conditions.
    #[test]
    fn row_walk_matches_the_per_pixel_loop() {
        let mut rng = mosaic_numerics::Rng64::new(0xB4ED_0001);
        for (w, h) in [(1, 1), (9, 4), (32, 17)] {
            for conditions in 1..=5 {
                let prints: Vec<Grid<f64>> = (0..conditions)
                    .map(|_| Grid::from_fn(w, h, |_, _| f64::from(rng.range_usize(0, 2) as u8)))
                    .collect();
                let mut band = Grid::<f64>::zeros(w, h);
                let mut area = 0;
                for y in 0..h {
                    for x in 0..w {
                        let lit = |p: &Grid<f64>| p[(x, y)] > 0.5;
                        if prints.iter().any(lit) && !prints.iter().all(lit) {
                            band[(x, y)] = 1.0;
                            area += 1;
                        }
                    }
                }
                let pv = PvBand::measure(&prints, 2.0);
                assert_eq!((pv.band(), pv.area_px()), (&band, area), "{w}x{h}");
            }
        }
    }

    #[test]
    fn pixel_pitch_squares_in_area() {
        let pv = PvBand::measure(&[bar(4, 12), bar(4, 13)], 4.0);
        assert_eq!(pv.area_px(), 16);
        assert_eq!(pv.area_nm2(), 16.0 * 16.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_input_rejected() {
        let _ = PvBand::measure(&[], 1.0);
    }
}
