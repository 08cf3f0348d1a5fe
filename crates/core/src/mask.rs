//! Sigmoid mask parameterization (Eq. (8)).
//!
//! The physical mask is binary, making ILT an integer nonlinear program.
//! MOSAIC relaxes it through a pixel-wise sigmoid over unconstrained
//! variables `P`:
//!
//! ```text
//! M = sig(P) = 1 / (1 + exp(−θ_M · P))
//! ```
//!
//! Gradient descent then runs on `P` (lines 3 and 7 of Alg. 1), and the
//! final mask is re-binarized by thresholding at 0.5.

use mosaic_numerics::Grid;

/// The optimizer's view of the mask: unconstrained variables `P` plus the
/// transform steepness `θ_M`.
///
/// ```
/// use mosaic_numerics::Grid;
/// use mosaic_core::MaskState;
///
/// let target = Grid::from_fn(8, 8, |x, _| if x >= 4 { 1.0 } else { 0.0 });
/// let state = MaskState::from_mask(&target, 4.0);
/// let mask = state.mask();
/// assert!(mask[(6, 0)] > 0.9 && mask[(1, 0)] < 0.1);
/// assert_eq!(state.binary()[(6, 0)], 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct MaskState {
    p: Grid<f64>,
    theta_m: f64,
}

impl MaskState {
    /// Magnitude assigned to `P` when seeding from a binary mask: bright
    /// pixels start at `P = +1`, dark at `P = −1`.
    pub const SEED_MAGNITUDE: f64 = 1.0;

    /// Seeds the variables from an initial (possibly binary) mask:
    /// `P = (2·M₀ − 1) · SEED_MAGNITUDE`.
    ///
    /// With `θ_M = 4` the seeded mask starts at `sig(±4) ≈ 0.982/0.018`,
    /// close to its binary intent but with live gradients everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `theta_m` is not positive.
    pub fn from_mask(initial: &Grid<f64>, theta_m: f64) -> Self {
        assert!(theta_m > 0.0, "mask steepness must be positive");
        MaskState {
            p: initial.map(|&m| (2.0 * m - 1.0) * Self::SEED_MAGNITUDE),
            theta_m,
        }
    }

    /// Restores a state from previously captured variables `P` (e.g. an
    /// optimizer checkpoint) without re-seeding — the exact values are
    /// kept, so a resumed run continues the identical trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `theta_m` is not positive.
    pub fn from_variables(variables: Grid<f64>, theta_m: f64) -> Self {
        assert!(theta_m > 0.0, "mask steepness must be positive");
        MaskState {
            p: variables,
            theta_m,
        }
    }

    /// The mask steepness `θ_M`.
    pub fn theta_m(&self) -> f64 {
        self.theta_m
    }

    /// Grid shape `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.p.dims()
    }

    /// The unconstrained variables `P`.
    pub fn variables(&self) -> &Grid<f64> {
        &self.p
    }

    /// The continuous mask `M = sig(P)` (line 7 of Alg. 1).
    pub fn mask(&self) -> Grid<f64> {
        let t = self.theta_m;
        self.p.map(|&p| 1.0 / (1.0 + (-t * p).exp()))
    }

    /// In-place twin of [`mask`](Self::mask): overwrites `out` with
    /// `sig(P)` without allocating. Same numerics as the allocating call.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mask_into(&self, out: &mut Grid<f64>) {
        assert_eq!(self.p.dims(), out.dims(), "mask shape mismatch");
        let t = self.theta_m;
        for (o, &p) in out.iter_mut().zip(self.p.iter()) {
            *o = 1.0 / (1.0 + (-t * p).exp());
        }
    }

    /// Gradient-descent update `P ← P − step · g` (line 6 of Alg. 1).
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from the variable grid.
    pub fn step(&mut self, gradient: &Grid<f64>, step_size: f64) {
        assert_eq!(self.p.dims(), gradient.dims(), "gradient shape mismatch");
        for (p, g) in self.p.iter_mut().zip(gradient.iter()) {
            *p -= step_size * g;
        }
    }

    /// The binarized mask: `1` where `M > 0.5` (equivalently `P > 0`).
    pub fn binary(&self) -> Grid<f64> {
        self.p.map(|&p| if p > 0.0 { 1.0 } else { 0.0 })
    }

    /// Replaces the variables wholesale (used to restore a best-so-far
    /// iterate).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn restore(&mut self, variables: Grid<f64>) {
        assert_eq!(self.p.dims(), variables.dims(), "variable shape mismatch");
        self.p = variables;
    }

    /// Borrowing twin of [`restore`](Self::restore): copies the
    /// variables in place without taking ownership (and so without the
    /// caller cloning) — keeps the optimizer's numerical-guard recovery
    /// path allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn restore_from(&mut self, variables: &Grid<f64>) {
        self.p.copy_from(variables);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(n: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| ((x + y) % 2) as f64)
    }

    #[test]
    fn seed_reproduces_binary_intent() {
        let m0 = checker(6);
        let state = MaskState::from_mask(&m0, 4.0);
        let binary = state.binary();
        assert_eq!(binary, m0);
        for (m, m0v) in state.mask().iter().zip(m0.iter()) {
            if *m0v > 0.5 {
                assert!(*m > 0.95);
            } else {
                assert!(*m < 0.05);
            }
        }
    }

    #[test]
    fn mask_values_strictly_inside_unit_interval() {
        let state = MaskState::from_mask(&checker(4), 4.0);
        for &m in state.mask().iter() {
            assert!(m > 0.0 && m < 1.0);
        }
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut state = MaskState::from_mask(&checker(2), 4.0);
        let before = state.variables().clone();
        let grad = Grid::filled(2, 2, 2.0);
        state.step(&grad, 0.25);
        for (a, b) in state.variables().iter().zip(before.iter()) {
            assert!((a - (b - 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn restore_replaces_variables() {
        let mut state = MaskState::from_mask(&checker(2), 4.0);
        let saved = state.variables().clone();
        state.step(&Grid::filled(2, 2, 1.0), 1.0);
        assert_ne!(state.variables(), &saved);
        state.restore(saved.clone());
        assert_eq!(state.variables(), &saved);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_steepness() {
        let _ = MaskState::from_mask(&checker(2), 0.0);
    }
}
