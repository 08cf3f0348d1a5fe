//! Shape-violation checks on the printed contour.
//!
//! Eq. (22) charges 10000 per `ShapeViolation`, "based on the existence
//! of holes in the final contour". This module counts:
//!
//! * **holes** — dark regions fully enclosed by printed material;
//! * **missing** — target shapes with no printed material at their
//!   sample interior;
//! * **spurious** — printed connected components that touch no target
//!   shape (e.g. an assist feature that printed).
//!
//! Connected-component labeling uses 4-connectivity via union-find.

use mosaic_numerics::Grid;

/// Union-find over grid pixels.
struct DisjointSet {
    parent: Vec<u32>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// 4-connected component labels of pixels matching `predicate`.
///
/// Returns a grid of labels (`u32::MAX` for non-matching pixels) and the
/// number of components.
pub fn label_components(grid: &Grid<f64>, predicate: impl Fn(f64) -> bool) -> (Grid<u32>, usize) {
    let (w, h) = grid.dims();
    let mut ds = DisjointSet::new(w * h);
    let matches = |x: usize, y: usize| predicate(grid[(x, y)]);
    for y in 0..h {
        for x in 0..w {
            if !matches(x, y) {
                continue;
            }
            let idx = (y * w + x) as u32;
            if x + 1 < w && matches(x + 1, y) {
                ds.union(idx, idx + 1);
            }
            if y + 1 < h && matches(x, y + 1) {
                ds.union(idx, idx + w as u32);
            }
        }
    }
    // Labels are handed out in first-seen raster order. A component's
    // label is written at its root pixel as soon as it is handed out, so
    // the labels double as the root-to-label map.
    let mut labels = Grid::filled(w, h, u32::MAX);
    let by_pixel = labels.as_mut_slice();
    let mut count = 0;
    for y in 0..h {
        for x in 0..w {
            if matches(x, y) {
                let i = y * w + x;
                let root = ds.find(i as u32) as usize;
                if by_pixel[root] == u32::MAX {
                    by_pixel[root] = count;
                    count += 1;
                }
                by_pixel[i] = by_pixel[root];
            }
        }
    }
    (labels, count as usize)
}

/// The result of a shape check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShapeCheck {
    /// Dark regions fully enclosed by printed material.
    pub holes: usize,
    /// Target interiors with nothing printed.
    pub missing: usize,
    /// Printed components overlapping no target material.
    pub spurious: usize,
}

impl ShapeCheck {
    /// Total violation count entering the score.
    pub fn violations(&self) -> usize {
        self.holes + self.missing + self.spurious
    }

    /// Runs all three checks of a binary print against the binary target
    /// (both on the same grid).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn check(print: &Grid<f64>, target: &Grid<f64>) -> ShapeCheck {
        assert_eq!(print.dims(), target.dims(), "shape mismatch");
        let (w, h) = print.dims();

        // Holes: dark components that do not touch the grid border.
        let (dark_labels, dark_count) = label_components(print, |v| v <= 0.5);
        let mut touches_border = vec![false; dark_count];
        for x in 0..w {
            for &y in &[0, h - 1] {
                let l = dark_labels[(x, y)];
                if l != u32::MAX {
                    touches_border[l as usize] = true;
                }
            }
        }
        for y in 0..h {
            for &x in &[0, w - 1] {
                let l = dark_labels[(x, y)];
                if l != u32::MAX {
                    touches_border[l as usize] = true;
                }
            }
        }
        let holes = touches_border.iter().filter(|t| !**t).count();

        // Missing targets / spurious prints via component overlap.
        let (target_labels, target_count) = label_components(target, |v| v > 0.5);
        let (print_labels, print_count) = label_components(print, |v| v > 0.5);
        let mut target_covered = vec![false; target_count];
        let mut print_touches_target = vec![false; print_count];
        for y in 0..h {
            for x in 0..w {
                let t = target_labels[(x, y)];
                let p = print_labels[(x, y)];
                if t != u32::MAX && p != u32::MAX {
                    target_covered[t as usize] = true;
                    print_touches_target[p as usize] = true;
                }
            }
        }
        ShapeCheck {
            holes,
            missing: target_covered.iter().filter(|c| !**c).count(),
            spurious: print_touches_target.iter().filter(|t| !**t).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_from(rows: &[&str]) -> Grid<f64> {
        let h = rows.len();
        let w = rows[0].len();
        Grid::from_fn(w, h, |x, y| {
            if rows[y].as_bytes()[x] == b'#' {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn perfect_print_is_clean() {
        let t = grid_from(&["........", ".####...", ".####...", "........"]);
        let check = ShapeCheck::check(&t, &t);
        assert_eq!(check, ShapeCheck::default());
        assert_eq!(check.violations(), 0);
    }

    #[test]
    fn donut_counts_one_hole() {
        let print = grid_from(&[
            "........", ".#####..", ".#...#..", ".#...#..", ".#####..", "........",
        ]);
        let target = print.clone();
        let check = ShapeCheck::check(&print, &target);
        assert_eq!(check.holes, 1);
    }

    #[test]
    fn missing_target_detected() {
        let target = grid_from(&["##...##", "##...##"]);
        let print = grid_from(&["##.....", "##....."]);
        let check = ShapeCheck::check(&print, &target);
        assert_eq!(check.missing, 1);
        assert_eq!(check.spurious, 0);
        assert_eq!(check.violations(), 1);
    }

    #[test]
    fn spurious_print_detected() {
        let target = grid_from(&["##.....", "##....."]);
        let print = grid_from(&["##...##", "##...##"]);
        let check = ShapeCheck::check(&print, &target);
        assert_eq!(check.spurious, 1);
        assert_eq!(check.missing, 0);
    }

    #[test]
    fn border_touching_dark_region_is_not_a_hole() {
        // A C-shape: the notch opens to the border.
        let print = grid_from(&["#####", "#...#", "#.###", "#...#", "#####"]);
        // The inner dark region connects to... actually it doesn't here;
        // build a real open notch:
        let open = grid_from(&["#####", "#...#", "#.###", "....#", "#####"]);
        let t = Grid::filled(5, 5, 1.0);
        assert_eq!(ShapeCheck::check(&print, &t).holes, 1);
        assert_eq!(ShapeCheck::check(&open, &t).holes, 0);
    }

    #[test]
    fn label_components_counts_correctly() {
        let g = grid_from(&["#.#", "#.#", "..."]);
        let (_labels, n) = label_components(&g, |v| v > 0.5);
        assert_eq!(n, 2);
        let (_d, nd) = label_components(&g, |v| v <= 0.5);
        assert_eq!(nd, 1); // all dark pixels connect
    }

    /// 4-connected labels by flood fill, each component labelled in the
    /// raster order of its first pixel: the oracle of
    /// [`label_components`].
    fn flood_fill_labels(grid: &Grid<f64>, lit: impl Fn(f64) -> bool) -> (Grid<u32>, usize) {
        let (w, h) = grid.dims();
        let mut labels = Grid::filled(w, h, u32::MAX);
        let mut count = 0;
        for y0 in 0..h {
            for x0 in 0..w {
                if !lit(grid[(x0, y0)]) || labels[(x0, y0)] != u32::MAX {
                    continue;
                }
                labels[(x0, y0)] = count;
                let mut stack = vec![(x0, y0)];
                while let Some((x, y)) = stack.pop() {
                    let near = [
                        (x.wrapping_sub(1), y),
                        (x + 1, y),
                        (x, y.wrapping_sub(1)),
                        (x, y + 1),
                    ];
                    for (nx, ny) in near {
                        if nx < w && ny < h && lit(grid[(nx, ny)]) && labels[(nx, ny)] == u32::MAX {
                            labels[(nx, ny)] = count;
                            stack.push((nx, ny));
                        }
                    }
                }
                count += 1;
            }
        }
        (labels, count as usize)
    }

    #[test]
    fn labels_match_a_flood_fill_oracle_on_seeded_grids() {
        let mut rng = mosaic_numerics::Rng64::new(0x5A4E_0001);
        for (w, h) in [(1, 1), (7, 1), (1, 9), (16, 16), (33, 20), (64, 48)] {
            for density in [0.1, 0.45, 0.6, 0.9] {
                let grid = Grid::from_fn(w, h, |_, _| {
                    if rng.range_f64(0.0, 1.0) < density {
                        1.0
                    } else {
                        0.0
                    }
                });
                for lit in [|v: f64| v > 0.5, |v: f64| v <= 0.5] {
                    assert_eq!(
                        label_components(&grid, lit),
                        flood_fill_labels(&grid, lit),
                        "{w}x{h} at density {density}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_pixels_are_separate_components() {
        let g = grid_from(&["#.", ".#"]);
        let (_l, n) = label_components(&g, |v| v > 0.5);
        assert_eq!(n, 2);
    }

    #[test]
    fn two_holes_counted() {
        let print = grid_from(&["#########", "#.##..###", "#.##..###", "#########"]);
        let t = Grid::filled(9, 4, 1.0);
        assert_eq!(ShapeCheck::check(&print, &t).holes, 2);
    }
}
