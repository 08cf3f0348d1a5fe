//! Hopkins TCC assembly and SVD (eigen-) decomposition into optimal
//! coherent kernels.
//!
//! The paper's Eq. (1) adopts "the singular value decomposition model
//! (SVD) to approximate the Hopkins model": the transmission cross
//! coefficient
//!
//! ```text
//! TCC(f₁, f₂) = Σ_s w_s · P(f₁ + s) · conj(P(f₂ + s))
//! ```
//!
//! is Hermitian positive-semidefinite, and its dominant eigenpairs give
//! the *optimal* rank-h sum-of-coherent-systems: kernel spectra
//! `K_k(f) = √λ_k · v_k(f)` with unit weights. The everyday kernel path
//! of this crate ([`crate::kernels`]) uses Abbe source-point kernels —
//! the same operator sampled differently — and this module exists to
//! (a) reproduce the paper's stated kernel construction and (b) quantify
//! how close the two decompositions are (see `tcc_matches_abbe_image`).
//!
//! The matrix is small because the pupil is band-limited: only the
//! `O(few hundred)` frequency samples inside the extended cutoff
//! `(1 + σ_max)·NA/λ` participate.

use crate::config::OpticsConfig;
use crate::error::OpticsError;
use crate::kernels::{freq, CoherentKernel, KernelSet};
use mosaic_numerics::{eigen_hermitian, Complex, Grid, KernelSpectrum, Matrix};
use std::f64::consts::PI;

/// The result of a TCC eigendecomposition.
#[derive(Debug, Clone)]
pub struct TccDecomposition {
    /// All eigenvalues of the sampled TCC, descending (≥ 0 up to
    /// round-off).
    pub eigenvalues: Vec<f64>,
    /// The rank-h kernel bank built from the top eigenpairs.
    pub kernels: KernelSet,
    /// Number of frequency samples inside the extended pupil support.
    pub support_size: usize,
}

impl TccDecomposition {
    /// Fraction of total TCC energy (trace) captured by the top `h`
    /// eigenpairs — the paper's "h-th order approximation" quality of
    /// Eq. (2).
    pub fn energy_captured(&self, h: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().filter(|v| **v > 0.0).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let top: f64 = self.eigenvalues.iter().take(h).filter(|v| **v > 0.0).sum();
        (top / total).min(1.0)
    }
}

/// Builds the TCC of the focus state `defocus_nm` on the pupil-support
/// frequency samples and eigendecomposes it into `config.kernel_count`
/// optimal kernels.
///
/// `source_samples` controls how densely the source is integrated
/// (independent of the kernel count; 4–10× the kernel count is plenty).
///
/// # Errors
///
/// Returns the validation error for an invalid configuration,
/// [`OpticsError::InvalidParameter`] when `source_samples == 0` and
/// [`OpticsError::EmptyPupilSupport`] when the grid is too coarse to
/// sample the pupil.
pub fn decompose(
    config: &OpticsConfig,
    defocus_nm: f64,
    source_samples: usize,
) -> Result<TccDecomposition, OpticsError> {
    config.validate()?;
    if source_samples == 0 {
        return Err(OpticsError::InvalidParameter {
            name: "source_samples",
            message: "need at least one source sample".into(),
        });
    }
    let (w, h) = (config.grid_width, config.grid_height);
    let cutoff = config.cutoff_frequency();
    let points = config.source.sample(source_samples);
    let sigma_max = points
        .iter()
        .map(|p| (p.sx * p.sx + p.sy * p.sy).sqrt())
        .fold(0.0f64, f64::max);
    let support_radius = cutoff * (1.0 + sigma_max) + 1e-12;

    // Enumerate the frequency samples inside the extended support.
    let fx: Vec<f64> = (0..w).map(|i| freq(i, w, config.pixel_nm)).collect();
    let fy: Vec<f64> = (0..h).map(|j| freq(j, h, config.pixel_nm)).collect();
    let mut support: Vec<(usize, usize)> = Vec::new();
    for (j, &fyj) in fy.iter().enumerate() {
        for (i, &fxi) in fx.iter().enumerate() {
            if fxi * fxi + fyj * fyj <= support_radius * support_radius {
                support.push((i, j));
            }
        }
    }
    let n = support.len();
    if n == 0 {
        return Err(OpticsError::EmptyPupilSupport);
    }

    // Defocused pupil evaluated at arbitrary frequency.
    let pupil = |gx: f64, gy: f64| -> Complex {
        let g2 = gx * gx + gy * gy;
        if g2 <= cutoff * cutoff {
            Complex::cis(-PI * config.wavelength_nm * defocus_nm * g2)
        } else {
            Complex::ZERO
        }
    };

    // Rank-1 accumulation: T += w_s · u_s · u_sᴴ.
    let mut t = Matrix::zeros(n);
    let mut u = vec![Complex::ZERO; n];
    for p in &points {
        let sx = p.sx * cutoff;
        let sy = p.sy * cutoff;
        for (a, &(i, j)) in support.iter().enumerate() {
            u[a] = pupil(fx[i] + sx, fy[j] + sy);
        }
        for a in 0..n {
            if u[a] == Complex::ZERO {
                continue;
            }
            let ua = u[a].scale(p.weight);
            for b in 0..n {
                t[(a, b)] += ua * u[b].conj();
            }
        }
    }

    let eig = eigen_hermitian(&t);
    let rank = config.kernel_count.min(n);
    let kernels: Vec<CoherentKernel> = (0..rank)
        .filter(|&k| eig.values[k] > 0.0)
        .map(|k| {
            let amp = eig.values[k].sqrt();
            let vec = eig.vector(k);
            let mut grid = Grid::<Complex>::zeros(w, h);
            for (a, &(i, j)) in support.iter().enumerate() {
                grid[(i, j)] = vec[a].scale(amp);
            }
            CoherentKernel {
                weight: 1.0,
                spectrum: KernelSpectrum::from_grid(grid),
            }
        })
        .collect();
    Ok(TccDecomposition {
        eigenvalues: eig.values,
        kernels: KernelSet::from_kernels(kernels, defocus_nm, w, h),
        support_size: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelSet;
    use mosaic_numerics::{Convolver, SplitSpectrum, Workspace};

    fn config() -> OpticsConfig {
        OpticsConfig::builder()
            .grid(64, 64)
            .pixel_nm(8.0)
            .kernel_count(16)
            .build()
            .unwrap()
    }

    fn bar_mask() -> Grid<f64> {
        Grid::from_fn(64, 64, |x, _| if (22..42).contains(&x) { 1.0 } else { 0.0 })
    }

    /// The aerial image of `mask` under `set`.
    fn socs_image(set: &KernelSet, mask: &Grid<f64>) -> Grid<f64> {
        let conv = Convolver::new(64, 64);
        let mut ws = Workspace::new();
        let mut spectrum = SplitSpectrum::zeros(64, 64);
        conv.forward_real_split_into(mask, &mut spectrum, &mut ws);
        let mut intensity = Grid::zeros(64, 64);
        set.aerial_images_split(
            &conv,
            &spectrum,
            &[1.0],
            std::slice::from_mut(&mut intensity),
            &mut ws,
        );
        intensity
    }

    #[test]
    fn eigenvalues_nonnegative_and_descending() {
        let tcc = decompose(&config(), 0.0, 64).unwrap();
        assert!(tcc.support_size > 16);
        for pair in tcc.eigenvalues.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12);
        }
        for v in &tcc.eigenvalues {
            assert!(*v > -1e-9, "negative TCC eigenvalue {v}");
        }
    }

    #[test]
    fn energy_capture_grows_to_one() {
        let tcc = decompose(&config(), 0.0, 64).unwrap();
        let mut prev = 0.0;
        for h in [1usize, 4, 8, 16, tcc.eigenvalues.len()] {
            let e = tcc.energy_captured(h);
            assert!(e >= prev - 1e-12);
            prev = e;
        }
        assert!((tcc.energy_captured(tcc.eigenvalues.len()) - 1.0).abs() < 1e-9);
        // The paper uses 24 kernels; even 16 captures most energy here.
        assert!(
            tcc.energy_captured(16) > 0.8,
            "rank-16 captures only {}",
            tcc.energy_captured(16)
        );
    }

    #[test]
    fn clear_field_intensity_near_unity() {
        // DC response: Σ_k |K_k(0)|² equals TCC(0,0) = 1 up to rank
        // truncation.
        let tcc = decompose(&config(), 0.0, 64).unwrap();
        let intensity = socs_image(&tcc.kernels, &Grid::filled(64, 64, 1.0));
        let center = intensity[(32, 32)];
        assert!(
            (center - 1.0).abs() < 0.05,
            "clear field {center} (truncation should cost < 5 %)"
        );
    }

    #[test]
    fn tcc_matches_abbe_image() {
        // The rank-h TCC kernels and a dense Abbe decomposition sample
        // the same Hopkins operator, so their aerial images must agree.
        let cfg = config();
        let source_n = 64;
        let tcc = decompose(&cfg, 0.0, source_n).unwrap();
        let mut abbe_cfg = cfg.clone();
        abbe_cfg.kernel_count = source_n;
        let abbe = KernelSet::build(&abbe_cfg, 0.0).unwrap();
        let i_tcc = socs_image(&tcc.kernels, &bar_mask());
        let i_abbe = socs_image(&abbe, &bar_mask());
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in i_tcc.iter().zip(i_abbe.iter()) {
            num += (a - b) * (a - b);
            den += b * b;
        }
        let rel = (num / den.max(1e-300)).sqrt();
        assert!(
            rel < 0.05,
            "TCC vs Abbe relative image error {rel} (expected < 5 %)"
        );
    }

    #[test]
    fn defocus_enters_the_tcc() {
        let cfg = config();
        let focused = decompose(&cfg, 0.0, 32).unwrap();
        let defocused = decompose(&cfg, 80.0, 32).unwrap();
        let i_f = socs_image(&focused.kernels, &bar_mask());
        let i_d = socs_image(&defocused.kernels, &bar_mask());
        // Peak intensity drops under defocus.
        assert!(i_d[(32, 32)] < i_f[(32, 32)]);
    }

    #[test]
    fn dominant_kernel_dominates() {
        let tcc = decompose(&config(), 0.0, 48).unwrap();
        // λ₁ should carry a large share for a conventional-ish source.
        assert!(tcc.energy_captured(1) > 0.15);
        assert!(tcc.energy_captured(1) < 1.0);
    }
}
