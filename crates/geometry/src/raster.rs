//! Scanline rasterization of layouts onto pixel grids.
//!
//! A pixel is lit when its **center** lies inside a shape (even-odd rule).
//! Pixel `(px, py)` at pitch `p` covers the nm square
//! `[px·p, (px+1)·p) × [py·p, (py+1)·p)`, so its center sits at
//! `((px+0.5)·p, (py+0.5)·p)` — never on a lattice line, which keeps the
//! parity test exact for integer-coordinate Manhattan geometry.

use crate::layout::Layout;
use crate::point::Orientation;
use crate::polygon::Polygon;
use mosaic_numerics::Grid;

/// The pitch in whole nm a layout rasterizes at for a grid of
/// `pixel_nm`-nm pixels: `pixel_nm` itself when it is a whole number of
/// nm of at least 1, else `None`. Layouts are drawn on whole nm, so this
/// is the one pixel-pitch rule every path that rasterizes a clip
/// (problem assembly, the contest evaluator, `mosaic serve` submits)
/// applies.
pub fn whole_nm_pitch(pixel_nm: f64) -> Option<i64> {
    (pixel_nm >= 1.0 && pixel_nm.fract() == 0.0).then_some(pixel_nm as i64)
}

/// Rasterizes a whole layout. See [`Layout::rasterize`].
///
/// # Panics
///
/// Panics if `pixel_nm` is not positive.
pub fn rasterize_layout(layout: &Layout, pixel_nm: i64) -> Grid<f64> {
    assert!(pixel_nm > 0, "pixel pitch must be positive");
    let w = div_ceil(layout.width(), pixel_nm) as usize;
    let h = div_ceil(layout.height(), pixel_nm) as usize;
    let mut grid = Grid::zeros(w, h);
    for shape in layout.shapes() {
        rasterize_polygon_into(shape, pixel_nm, &mut grid);
    }
    grid
}

fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

fn rasterize_polygon_into(polygon: &Polygon, pixel_nm: i64, grid: &mut Grid<f64>) {
    let bbox = polygon.bounding_box();
    let px0 = (bbox.x0.div_euclid(pixel_nm)).max(0);
    let py0 = (bbox.y0.div_euclid(pixel_nm)).max(0);
    let px1 = div_ceil(bbox.x1, pixel_nm).min(grid.width() as i64);
    let py1 = div_ceil(bbox.y1, pixel_nm).min(grid.height() as i64);
    if px0 >= px1 || py0 >= py1 {
        return;
    }
    // Collect vertical edges once: (x, ylo, yhi).
    let verticals: Vec<(f64, f64, f64)> = polygon
        .edges()
        .filter(|e| e.orientation() == Orientation::Vertical)
        .map(|e| {
            let (lo, hi) = if e.start.y < e.end.y {
                (e.start.y, e.end.y)
            } else {
                (e.end.y, e.start.y)
            };
            (e.start.x as f64, lo as f64, hi as f64)
        })
        .collect();
    let mut crossings: Vec<f64> = Vec::with_capacity(verticals.len());
    for py in py0..py1 {
        let yc = (py as f64 + 0.5) * pixel_nm as f64;
        crossings.clear();
        for &(x, ylo, yhi) in &verticals {
            if yc >= ylo && yc < yhi {
                crossings.push(x);
            }
        }
        if crossings.is_empty() {
            continue;
        }
        crossings.sort_by(f64::total_cmp);
        // Parity fill: pairs (crossings[0], crossings[1]), ...
        for pair in crossings.chunks_exact(2) {
            let (xa, xb) = (pair[0], pair[1]);
            for px in px0..px1 {
                let xc = (px as f64 + 0.5) * pixel_nm as f64;
                if xc >= xa && xc < xb {
                    grid[(px as usize, py as usize)] = 1.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::rect::Rect;

    #[test]
    fn only_whole_nm_pitches_of_at_least_one_rasterize() {
        for (pixel_nm, pitch) in [(1.0, Some(1)), (2.0, Some(2)), (8.0, Some(8))] {
            assert_eq!(whole_nm_pitch(pixel_nm), pitch, "{pixel_nm} nm");
        }
        for pixel_nm in [2.5, 0.4, 0.0, -1.0, -2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(whole_nm_pitch(pixel_nm), None, "{pixel_nm} nm");
        }
    }

    #[test]
    fn rect_raster_exact_at_1nm() {
        let mut l = Layout::new(16, 16);
        l.push(Polygon::from_rect(Rect::new(3, 4, 7, 10)));
        let g = l.rasterize(1);
        let lit: usize = g.iter().filter(|&&v| v > 0.5).count();
        assert_eq!(lit, 4 * 6);
        assert_eq!(g[(3, 4)], 1.0);
        assert_eq!(g[(6, 9)], 1.0);
        assert_eq!(g[(7, 4)], 0.0); // half-open right edge
        assert_eq!(g[(3, 10)], 0.0); // half-open bottom edge
        assert_eq!(g[(2, 4)], 0.0);
    }

    #[test]
    fn raster_area_matches_geometry_area_at_1nm() {
        let mut l = Layout::new(64, 64);
        l.push(
            Polygon::new(vec![
                Point::new(10, 10),
                Point::new(40, 10),
                Point::new(40, 20),
                Point::new(20, 20),
                Point::new(20, 50),
                Point::new(10, 50),
            ])
            .unwrap(),
        );
        let g = l.rasterize(1);
        let lit: usize = g.iter().filter(|&&v| v > 0.5).count();
        assert_eq!(lit as i64, l.pattern_area());
    }

    #[test]
    fn coarse_pixels_sample_centers() {
        // A rect covering x in [0,8) lights pixels 0 and 1 at 4 nm pitch
        // (centers 2.0 and 6.0), but a rect [0,6) lights only pixel 0
        // (center 6.0 of pixel 1 is outside).
        let mut l = Layout::new(16, 16);
        l.push(Polygon::from_rect(Rect::new(0, 0, 6, 16)));
        let g = l.rasterize(4);
        assert_eq!(g.dims(), (4, 4));
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(1, 0)], 0.0);
    }

    #[test]
    fn concave_notch_not_filled() {
        // U shape: notch between the arms stays dark.
        let mut l = Layout::new(32, 32);
        l.push(
            Polygon::new(vec![
                Point::new(4, 4),
                Point::new(28, 4),
                Point::new(28, 28),
                Point::new(20, 28),
                Point::new(20, 12),
                Point::new(12, 12),
                Point::new(12, 28),
                Point::new(4, 28),
            ])
            .unwrap(),
        );
        let g = l.rasterize(1);
        assert_eq!(g[(16, 20)], 0.0); // inside the notch
        assert_eq!(g[(8, 20)], 1.0); // left arm
        assert_eq!(g[(24, 20)], 1.0); // right arm
        assert_eq!(g[(16, 8)], 1.0); // bridge
    }

    #[test]
    fn non_divisible_extent_rounds_up() {
        let l = Layout::new(10, 10);
        let g = l.rasterize(4);
        assert_eq!(g.dims(), (3, 3));
    }

    #[test]
    fn overlapping_shapes_stay_binary() {
        let mut l = Layout::new(16, 16);
        l.push(Polygon::from_rect(Rect::new(0, 0, 10, 10)));
        l.push(Polygon::from_rect(Rect::new(5, 5, 15, 15)));
        let g = l.rasterize(1);
        assert_eq!(g[(7, 7)], 1.0);
        assert_eq!(g.max(), 1.0);
    }
}
