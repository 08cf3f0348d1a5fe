//! Pooled scratch buffers for the spectral hot path.
//!
//! Every MOSAIC iteration runs a fixed sequence of FFTs, Hadamard
//! products and pixel-wise reductions, and before this module each of
//! them allocated fresh `Vec`s. A [`Workspace`] is a small free-list of
//! previously used buffers: hot-path code *takes* a buffer sized to its
//! need, uses it, and *gives* it back, so after one warm-up iteration
//! the whole gradient loop runs without touching the global allocator
//! (asserted by `crates/core/tests/alloc_smoke.rs`).
//!
//! # Ownership and aliasing rules
//!
//! - A taken buffer is **owned** by the caller until it is given back;
//!   the pool holds no reference to it, so there is no aliasing to
//!   reason about and no `unsafe` anywhere in this crate.
//! - Taken buffers have **unspecified contents** (stale data from a
//!   previous user). Callers must fully overwrite them or use the
//!   `*_zeroed` / `*_filled` variants. The workspace-reuse determinism
//!   test in `mosaic-core` seeds a pool with poisoned (NaN) buffers to
//!   prove no stale value ever leaks into results.
//! - Give-back is by value and not enforced (no RAII guard): forgetting
//!   to give a buffer back is a silent efficiency bug, not a soundness
//!   bug — the next take simply allocates again.
//! - A `Workspace` is deliberately `!Sync`; each worker thread owns its
//!   own pool (`mosaic-runtime` keeps one per worker in a thread local).
//!
//! Buffers are matched best-fit by capacity, so a pool shared between a
//! full-resolution grid and its `w/2 + 1` half-spectrum (see
//! [`Fft2d::forward_real_split_into`](crate::fft::Fft2d::forward_real_split_into))
//! converges to a stable set of allocations instead of thrashing.

use crate::grid::Grid;
use crate::split::SplitSpectrum;

/// A free-list of reusable `f64` buffers: real grids and the two planes
/// of every [`SplitSpectrum`].
///
/// See the [module docs](self) for the take/give contract.
#[derive(Debug, Default)]
pub struct Workspace {
    real_pool: Vec<Vec<f64>>,
    /// Emptied grid lists from [`give_real_grids`](Self::give_real_grids),
    /// kept for their capacity.
    grid_lists: Vec<Vec<Grid<f64>>>,
}

/// Removes the best-fit buffer from a pool: the smallest capacity that
/// already holds `len` elements, else the largest available (which then
/// grows once and stays grown), else `None` (pool empty).
fn take_best_fit(pool: &mut Vec<Vec<f64>>, len: usize) -> Option<Vec<f64>> {
    let mut best: Option<usize> = None;
    let mut largest: Option<usize> = None;
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len {
            if best.is_none_or(|b| cap < pool[b].capacity()) {
                best = Some(i);
            }
        } else if largest.is_none_or(|l| cap > pool[l].capacity()) {
            largest = Some(i);
        }
    }
    best.or(largest).map(|i| pool.swap_remove(i))
}

impl Workspace {
    /// An empty pool. Creating one performs no allocation.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Takes an `f64` buffer of exactly `len` elements with unspecified
    /// contents.
    pub fn take_real(&mut self, len: usize) -> Vec<f64> {
        let mut buf = take_best_fit(&mut self.real_pool, len).unwrap_or_default();
        buf.resize(len, 0.0);
        buf.truncate(len);
        buf
    }

    /// Takes an `f64` buffer of exactly `len` zeros.
    pub fn take_real_zeroed(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.take_real(len);
        buf.fill(0.0);
        buf
    }

    /// Returns an `f64` buffer to the pool for reuse.
    pub fn give_real(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.real_pool.push(buf);
        }
    }

    /// Takes a `width × height` real grid with unspecified contents.
    pub fn take_real_grid(&mut self, width: usize, height: usize) -> Grid<f64> {
        Grid::from_vec_resized(width, height, self.take_real(width * height))
    }

    /// Takes a `width × height` real grid of zeros.
    pub fn take_real_grid_zeroed(&mut self, width: usize, height: usize) -> Grid<f64> {
        let mut g = self.take_real_grid(width, height);
        g.fill(0.0);
        g
    }

    /// Returns a real grid's buffer to the pool.
    pub fn give_real_grid(&mut self, grid: Grid<f64>) {
        self.give_real(grid.into_vec());
    }

    /// Takes `count` real grids of `width × height` with unspecified
    /// contents, in a list that is itself pooled: with a warm pool,
    /// neither the grids nor the list allocate.
    pub fn take_real_grids(&mut self, count: usize, width: usize, height: usize) -> Vec<Grid<f64>> {
        let mut grids = self.grid_lists.pop().unwrap_or_default();
        for _ in 0..count {
            let grid = self.take_real_grid(width, height);
            grids.push(grid);
        }
        grids
    }

    /// Returns the grids left in a list and the emptied list itself to
    /// the pool.
    pub fn give_real_grids(&mut self, mut grids: Vec<Grid<f64>>) {
        for grid in grids.drain(..) {
            self.give_real_grid(grid);
        }
        if grids.capacity() > 0 {
            self.grid_lists.push(grids);
        }
    }

    /// Takes a `width × height` split-plane spectrum (two `f64` plane
    /// buffers drawn from the real pool) with unspecified contents.
    pub fn take_split(&mut self, width: usize, height: usize) -> SplitSpectrum {
        let re = self.take_real(width * height);
        let im = self.take_real(width * height);
        SplitSpectrum::from_parts(width, height, re, im)
    }

    /// Returns a split spectrum's plane buffers to the real pool.
    pub fn give_split(&mut self, spectrum: SplitSpectrum) {
        let (re, im) = spectrum.into_parts();
        self.give_real(re);
        self.give_real(im);
    }

    /// Preallocates a fixed list of buffers for a `width × height`
    /// spectral pipeline (forward real FFT, the small-grid SOCS image
    /// pass and the gradient's pruned transforms and small-grid
    /// product). Nothing
    /// in the program calls this: the pipeline draws its scratch on
    /// first use, so each pool holds what its first evaluation drew and
    /// nothing more. Only the benchmark probe (`perfbench/probe`)
    /// pre-warms through it, and it goes with the probe's two calls at
    /// the next change to the benchmark.
    pub fn warm_spectral(&mut self, width: usize, height: usize) {
        let full = width * height;
        let half = (width / 2 + 1) * height;
        // The image pass sums on a grid set by the kernel boxes, not by
        // `width × height`: 32×32 for the pupil kernels of the 1024 nm
        // clip at any pitch. Buffers for up to 64×64 cover it.
        let small = full.min(64 * 64);
        // The spectral pipeline (DESIGN.md §16) draws *pairs* of f64
        // planes for every spectrum it touches: the mask spectrum (a
        // full grid written on the kernels' box, zero elsewhere; no
        // half spectrum or transpose of its own), the column-subset
        // scratch of the pruned real forward and inverse (their live
        // half-spectrum columns, the mask spectrum's included), the
        // half-row and row buffers of the real inverse, and the
        // Bluestein pad / real-row pack scratch for non-power-of-two
        // shapes. No evaluation draws the `half` sizes below; they stay
        // in the probe's pre-warm list, which goes with this function
        // (ROADMAP's API item). The image pass and the gradient
        // also draw, per bank, small-grid sums, fields, row bands,
        // transpose scratch, half spectra and box spectra; no full grid
        // beyond the images and the gradient's real planes. Warm enough
        // buffers for all of them plus the real-grid intermediates:
        // every buffer warmed here stays resident for the worker's
        // lifetime.
        let mut real_sizes = vec![full; 14];
        real_sizes.extend([half; 8]);
        real_sizes.extend([small; 10]);
        real_sizes.extend([width.max(height); 8]);
        let taken: Vec<_> = real_sizes.iter().map(|&len| self.take_real(len)).collect();
        for buf in taken {
            self.give_real(buf);
        }
    }

    /// Number of buffers currently parked in the pool (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.real_pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_requested_length() {
        let mut ws = Workspace::new();
        assert_eq!(ws.take_real(17).len(), 17);
        assert_eq!(ws.take_real(9).len(), 9);
        assert_eq!(ws.take_real(0).len(), 0);
    }

    #[test]
    fn given_buffers_are_reused() {
        let mut ws = Workspace::new();
        let buf = ws.take_real(64);
        let ptr = buf.as_ptr();
        ws.give_real(buf);
        let again = ws.take_real(64);
        assert_eq!(
            again.as_ptr(),
            ptr,
            "same-size take must reuse the pooled buffer"
        );
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_capacity() {
        let mut ws = Workspace::new();
        let big = ws.take_real(256);
        let small = ws.take_real(32);
        let small_ptr = small.as_ptr();
        ws.give_real(big);
        ws.give_real(small);
        let taken = ws.take_real(16);
        assert_eq!(
            taken.as_ptr(),
            small_ptr,
            "should pick the 32-cap buffer, not the 256"
        );
    }

    #[test]
    fn undersized_pool_buffer_grows_instead_of_leaking() {
        let mut ws = Workspace::new();
        let small = ws.take_real(8);
        ws.give_real(small);
        let grown = ws.take_real(1024);
        assert_eq!(grown.len(), 1024);
        assert_eq!(
            ws.pooled_buffers(),
            0,
            "the small buffer was grown, not left behind"
        );
    }

    #[test]
    fn zeroed_take_clears_stale_contents() {
        let mut ws = Workspace::new();
        let mut buf = ws.take_real(16);
        buf.fill(f64::NAN);
        ws.give_real(buf);
        let clean = ws.take_real_zeroed(16);
        assert!(clean.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grid_round_trip_preserves_capacity() {
        let mut ws = Workspace::new();
        let g = ws.take_real_grid(12, 7);
        assert_eq!(g.dims(), (12, 7));
        ws.give_real_grid(g);
        assert_eq!(ws.pooled_buffers(), 1);
        let g2 = ws.take_real_grid(12, 7);
        assert_eq!(g2.dims(), (12, 7));
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn grid_lists_recycle_the_list_and_its_grids() {
        let mut ws = Workspace::new();
        let grids = ws.take_real_grids(3, 12, 7);
        assert_eq!(grids.len(), 3);
        assert!(grids.iter().all(|g| g.dims() == (12, 7)));
        let list_ptr = grids.as_ptr();
        ws.give_real_grids(grids);
        assert_eq!(ws.pooled_buffers(), 3, "three grid buffers parked");
        let mut again = ws.take_real_grids(2, 12, 7);
        assert_eq!(again.as_ptr(), list_ptr, "the emptied list is reused");
        assert_eq!(ws.pooled_buffers(), 1);
        // A grid taken out of the list early goes back on its own.
        if let Some(grid) = again.pop() {
            ws.give_real_grid(grid);
        }
        ws.give_real_grids(again);
        assert_eq!(ws.pooled_buffers(), 3);
    }

    #[test]
    fn split_take_give_recycles_plane_buffers() {
        let mut ws = Workspace::new();
        let s = ws.take_split(12, 9);
        assert_eq!(s.dims(), (12, 9));
        let re_ptr = s.re().as_ptr();
        ws.give_split(s);
        assert_eq!(ws.pooled_buffers(), 2, "two f64 planes parked");
        let again = ws.take_split(12, 9);
        assert!(
            again.re().as_ptr() == re_ptr || again.im().as_ptr() == re_ptr,
            "same-size split take must reuse a pooled plane"
        );
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn warm_spectral_covers_split_plane_takes() {
        let mut ws = Workspace::new();
        ws.warm_spectral(32, 24);
        let before = ws.pooled_buffers();
        let a = ws.take_split(32, 24);
        let b = ws.take_split(32, 24);
        let c = ws.take_split(32 / 2 + 1, 24);
        ws.give_split(a);
        ws.give_split(b);
        ws.give_split(c);
        assert_eq!(ws.pooled_buffers(), before);
    }

    #[test]
    fn warm_spectral_then_hot_takes_do_not_grow_pool_count() {
        let mut ws = Workspace::new();
        ws.warm_spectral(32, 24);
        let before = ws.pooled_buffers();
        let a = ws.take_real_grid(32, 24);
        let b = ws.take_real((32 / 2 + 1) * 24);
        let c = ws.take_real(32);
        ws.give_real_grid(a);
        ws.give_real(b);
        ws.give_real(c);
        assert_eq!(ws.pooled_buffers(), before);
    }
}
