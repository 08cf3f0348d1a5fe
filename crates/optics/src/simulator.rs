//! End-to-end forward lithography simulation (Fig. 1 of the paper):
//! mask → optical projection → aerial image → resist → printed image.

use crate::config::{OpticsConfig, ProcessCondition};
use crate::error::OpticsError;
use crate::kernels::KernelSet;
use crate::resist::ResistModel;
use crate::source::SourceShape;
use mosaic_numerics::{Convolver, Grid, SplitSpectrum, Workspace};
use std::ops::Range;
use std::sync::Arc;

/// A hashable identity for a simulator configuration: everything that
/// goes into building the SOCS kernel banks plus the resist model.
///
/// Two simulators with equal keys are interchangeable, so a batch runtime
/// can build each distinct configuration once and share the whole
/// simulator across jobs (`SimCache` in `mosaic-runtime`). Floats are
/// compared by bit pattern — constructions from the same literals always
/// collide, which is the only case a cache needs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimKey {
    grid: (usize, usize),
    pixel_bits: u64,
    wavelength_bits: u64,
    na_bits: u64,
    kernel_count: usize,
    source_bits: Vec<u64>,
    resist_bits: (u64, u64),
    condition_bits: Vec<(u64, u64)>,
}

impl SimKey {
    /// Derives the key of a simulator built from these parts.
    pub fn new(
        config: &OpticsConfig,
        resist: &ResistModel,
        conditions: &[ProcessCondition],
    ) -> Self {
        let source_bits = match config.source {
            SourceShape::Circular { sigma } => vec![0, sigma.to_bits()],
            SourceShape::Annular {
                sigma_in,
                sigma_out,
            } => vec![1, sigma_in.to_bits(), sigma_out.to_bits()],
        };
        SimKey {
            grid: (config.grid_width, config.grid_height),
            pixel_bits: config.pixel_nm.to_bits(),
            wavelength_bits: config.wavelength_nm.to_bits(),
            na_bits: config.na.to_bits(),
            kernel_count: config.kernel_count,
            source_bits,
            resist_bits: (resist.threshold.to_bits(), resist.steepness.to_bits()),
            condition_bits: conditions
                .iter()
                .map(|c| (c.defocus_nm.to_bits(), c.dose.to_bits()))
                .collect(),
        }
    }
}

/// A forward lithography simulator for a fixed list of process
/// conditions, holding one kernel bank per focus state.
///
/// Condition 0 is conventionally the nominal condition; the remaining
/// entries are process-window corners. Dose only scales the SOCS sum, so
/// the conditions are grouped into **focus banks**: maximal runs of
/// adjacent conditions with the same defocus (compared by bits). Each
/// bank holds one [`KernelSet`], and one pass over its coherent fields
/// images every dose of the run. The contest window (nominal, then
/// +25 nm at two doses, then −25 nm at two doses) has three banks.
///
/// Building the simulator precomputes every kernel spectrum, so repeated
/// simulation (the ILT inner loop) only pays FFTs. Banks are held behind
/// [`Arc`], so cloning a simulator shares the spectra instead of copying
/// them.
#[derive(Debug, Clone)]
pub struct LithoSimulator {
    convolver: Convolver,
    resist: ResistModel,
    /// One kernel set per focus bank, in condition order.
    banks: Vec<Arc<KernelSet>>,
    /// Bank `b` serves conditions `bank_starts[b]..bank_starts[b + 1]`.
    bank_starts: Vec<usize>,
    /// Every condition's dose, in condition order.
    doses: Vec<f64>,
    config: OpticsConfig,
}

impl LithoSimulator {
    /// Builds one kernel bank per focus bank of `conditions`.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::NoConditions`] when `conditions` is empty
    /// and the validation error when the configuration is invalid.
    pub fn new(
        config: &OpticsConfig,
        resist: ResistModel,
        conditions: Vec<ProcessCondition>,
    ) -> Result<Self, OpticsError> {
        config.validate()?;
        if conditions.is_empty() {
            return Err(OpticsError::NoConditions);
        }
        let convolver = Convolver::new(config.grid_width, config.grid_height);
        let mut bank_starts: Vec<usize> = (0..conditions.len())
            .filter(|&c| {
                c == 0
                    || conditions[c].defocus_nm.to_bits() != conditions[c - 1].defocus_nm.to_bits()
            })
            .collect();
        let banks = bank_starts
            .iter()
            .map(|&c| {
                Ok(Arc::new(KernelSet::build(
                    config,
                    conditions[c].defocus_nm,
                )?))
            })
            .collect::<Result<Vec<_>, OpticsError>>()?;
        bank_starts.push(conditions.len());
        Ok(LithoSimulator {
            convolver,
            resist,
            banks,
            bank_starts,
            doses: conditions.iter().map(|c| c.dose).collect(),
            config: config.clone(),
        })
    }

    /// The cache key identifying this simulator's configuration.
    pub fn sim_key(&self) -> SimKey {
        SimKey::new(&self.config, &self.resist, &self.conditions())
    }

    /// The shared kernel banks, one per focus bank, in condition order.
    pub fn shared_banks(&self) -> &[Arc<KernelSet>] {
        &self.banks
    }

    /// The optics configuration the simulator was built with.
    pub fn config(&self) -> &OpticsConfig {
        &self.config
    }

    /// The resist model in use.
    pub fn resist(&self) -> &ResistModel {
        &self.resist
    }

    /// The shared convolution engine (same grid shape as the simulator).
    pub fn convolver(&self) -> &Convolver {
        &self.convolver
    }

    /// Number of process conditions.
    pub fn condition_count(&self) -> usize {
        self.doses.len()
    }

    /// The conditions, in order.
    pub fn conditions(&self) -> Vec<ProcessCondition> {
        (0..self.bank_count())
            .flat_map(|b| {
                let defocus = self.banks[b].defocus_nm();
                self.bank_conditions(b)
                    .map(move |c| ProcessCondition::new(defocus, self.doses[c]))
            })
            .collect()
    }

    /// Every condition's dose, in condition order.
    pub fn doses(&self) -> &[f64] {
        &self.doses
    }

    /// Number of focus banks (distinct adjacent defocus runs).
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The kernel bank of focus bank `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: usize) -> &KernelSet {
        self.banks[bank].as_ref()
    }

    /// The condition indices focus bank `bank` serves, in order.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_conditions(&self, bank: usize) -> Range<usize> {
        self.bank_starts[bank]..self.bank_starts[bank + 1]
    }

    /// The focus bank serving condition `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn bank_of(&self, index: usize) -> usize {
        assert!(index < self.condition_count(), "condition out of range");
        self.bank_starts.partition_point(|&start| start <= index) - 1
    }

    /// Forward-transforms a mask once for reuse across conditions and
    /// kernels, overwriting `out` with its full spectrum through the
    /// Hermitian half-spectrum fast path — the entry into the split
    /// spectral engine (DESIGN.md §16).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the simulation grid.
    pub fn mask_spectrum_split(
        &self,
        mask: &Grid<f64>,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
    ) {
        self.convolver.forward_real_split_into(mask, out, ws);
    }

    /// Overwrites `intensity` with the aerial image under condition
    /// `index` from a precomputed mask spectrum, using pooled scratch:
    /// its bank's image pass for this one dose.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the simulation grid or the index is
    /// out of range.
    pub fn aerial_image_split(
        &self,
        mask_spectrum: &SplitSpectrum,
        index: usize,
        intensity: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        self.banks[self.bank_of(index)].aerial_images_split(
            &self.convolver,
            mask_spectrum,
            &self.doses[index..=index],
            std::slice::from_mut(intensity),
            ws,
        );
    }

    /// Aerial image of `mask` under condition `index`.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the simulation grid or the
    /// index is out of range.
    pub fn aerial_image(&self, mask: &Grid<f64>, index: usize) -> Grid<f64> {
        let mut ws = Workspace::new();
        let spectrum = self.fresh_mask_spectrum(mask, &mut ws);
        let mut intensity = Grid::zeros(self.convolver.width(), self.convolver.height());
        self.aerial_image_split(&spectrum, index, &mut intensity, &mut ws);
        intensity
    }

    /// Binary printed image (Eq. (3)) from an aerial image.
    pub fn printed(&self, intensity: &Grid<f64>) -> Grid<f64> {
        self.resist.print(intensity)
    }

    /// Binary printed images of `mask` under **all** conditions, in
    /// condition order — the inputs to PV-band measurement (Fig. 4).
    /// Each focus bank images all its doses in one image pass.
    pub fn printed_all_conditions(&self, mask: &Grid<f64>) -> Vec<Grid<f64>> {
        let mut ws = Workspace::new();
        let spectrum = self.fresh_mask_spectrum(mask, &mut ws);
        let (w, h) = (self.convolver.width(), self.convolver.height());
        let mut prints = Vec::with_capacity(self.condition_count());
        for (b, bank) in self.banks.iter().enumerate() {
            let doses = &self.doses[self.bank_conditions(b)];
            let mut images = vec![Grid::zeros(w, h); doses.len()];
            bank.aerial_images_split(&self.convolver, &spectrum, doses, &mut images, &mut ws);
            prints.extend(images.iter().map(|i| self.printed(i)));
        }
        prints
    }

    /// The mask spectrum in a newly allocated split spectrum (cold paths).
    fn fresh_mask_spectrum(&self, mask: &Grid<f64>, ws: &mut Workspace) -> SplitSpectrum {
        let mut spectrum = SplitSpectrum::zeros(self.convolver.width(), self.convolver.height());
        self.mask_spectrum_split(mask, &mut spectrum, ws);
        spectrum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulator(conditions: Vec<ProcessCondition>) -> LithoSimulator {
        let config = OpticsConfig::builder()
            .grid(64, 64)
            .pixel_nm(8.0)
            .kernel_count(8)
            .build()
            .unwrap();
        LithoSimulator::new(&config, ResistModel::paper(), conditions).unwrap()
    }

    fn bar_mask() -> Grid<f64> {
        // 24-pixel (192 nm) wide vertical bar — comfortably printable.
        Grid::from_fn(64, 64, |x, _| if (20..44).contains(&x) { 1.0 } else { 0.0 })
    }

    #[test]
    fn large_bar_prints_near_its_edges() {
        let sim = simulator(ProcessCondition::nominal_only());
        let aerial = sim.aerial_image(&bar_mask(), 0);
        let printed = sim.printed(&aerial);
        // Center of the bar prints, far outside does not.
        assert_eq!(printed[(32, 32)], 1.0);
        assert_eq!(printed[(4, 32)], 0.0);
        // Intensity decays monotonically-ish across the edge region.
        assert!(aerial[(32, 32)] > aerial[(20, 32)]);
        assert!(aerial[(20, 32)] > aerial[(8, 32)]);
    }

    #[test]
    fn printed_edge_is_close_to_mask_edge() {
        let sim = simulator(ProcessCondition::nominal_only());
        let printed = sim.printed(&sim.aerial_image(&bar_mask(), 0));
        // Find the printed left edge along the middle row.
        let row = 32;
        let left_edge = (0..64).find(|&x| printed[(x, row)] > 0.5).unwrap();
        // Mask edge at x = 20; printed edge within a few pixels.
        assert!(
            (left_edge as i64 - 20).abs() <= 3,
            "printed edge at {left_edge}, mask edge at 20"
        );
    }

    #[test]
    fn process_corners_change_the_print() {
        // The contest ±2 % dose moves edges by ~1–2 nm — below one 8 nm
        // test pixel — so use an exaggerated window at this pitch.
        let sim = simulator(ProcessCondition::paper_window(80.0, 0.10));
        let prints = sim.printed_all_conditions(&bar_mask());
        assert_eq!(prints.len(), 5);
        // Dose variation must move at least one edge pixel somewhere.
        let base = &prints[0];
        let differs = prints[1..]
            .iter()
            .any(|p| p.iter().zip(base.iter()).any(|(a, b)| (a - b).abs() > 0.5));
        assert!(differs, "corners did not change the printed image");
    }

    #[test]
    fn overdose_prints_wider_than_underdose() {
        let sim = simulator(vec![
            ProcessCondition::new(0.0, 0.94),
            ProcessCondition::new(0.0, 1.06),
        ]);
        let prints = sim.printed_all_conditions(&bar_mask());
        let width = |g: &Grid<f64>| -> usize { (0..64).filter(|&x| g[(x, 32)] > 0.5).count() };
        assert!(
            width(&prints[1]) >= width(&prints[0]),
            "overdose narrower than underdose"
        );
        assert!(width(&prints[1]) > 0);
    }

    #[test]
    fn mask_spectrum_reuse_matches_direct() {
        let sim = simulator(ProcessCondition::contest_window());
        let mask = bar_mask();
        let mut ws = Workspace::new();
        let mut spectrum = SplitSpectrum::zeros(64, 64);
        sim.mask_spectrum_split(&mask, &mut spectrum, &mut ws);
        // One intensity buffer reused across conditions: each call must
        // overwrite it completely.
        let mut reused = Grid::zeros(64, 64);
        for i in 0..sim.condition_count() {
            sim.aerial_image_split(&spectrum, i, &mut reused, &mut ws);
            assert_eq!(sim.aerial_image(&mask, i), reused, "condition {i}");
        }
    }

    #[test]
    fn empty_conditions_rejected() {
        let config = OpticsConfig::builder()
            .grid(64, 64)
            .pixel_nm(8.0)
            .kernel_count(8)
            .build()
            .unwrap();
        let err = LithoSimulator::new(&config, ResistModel::paper(), vec![]).unwrap_err();
        assert_eq!(err, OpticsError::NoConditions);
    }

    /// The dense per-condition forward model, kept as the oracle of the
    /// bank pass: a fresh kernel set per condition and one full-grid
    /// field per kernel, `(w_k · dose) · |E_k|²` accumulated in kernel
    /// order.
    fn per_condition_image(
        sim: &LithoSimulator,
        spectrum: &SplitSpectrum,
        condition: ProcessCondition,
    ) -> Grid<f64> {
        let set = KernelSet::build(sim.config(), condition.defocus_nm).unwrap();
        let conv = sim.convolver();
        let mut ws = Workspace::new();
        let mut intensity = Grid::zeros(conv.width(), conv.height());
        let mut field = SplitSpectrum::zeros(conv.width(), conv.height());
        for k in set.kernels() {
            conv.convolve_spectrum_split_into(spectrum, &k.spectrum, &mut field, &mut ws);
            let scale = k.weight * condition.dose;
            let (fr, fi) = field.planes();
            for ((acc, &r), &i) in intensity.iter_mut().zip(fr).zip(fi) {
                *acc += scale * (r * r + i * i);
            }
        }
        intensity
    }

    /// One single-dose pass per condition: a fresh kernel set for the
    /// condition's focus state, imaging its dose alone.
    fn single_dose_image(
        sim: &LithoSimulator,
        spectrum: &SplitSpectrum,
        condition: ProcessCondition,
    ) -> Grid<f64> {
        let set = KernelSet::build(sim.config(), condition.defocus_nm).unwrap();
        let conv = sim.convolver();
        let mut intensity = Grid::zeros(conv.width(), conv.height());
        set.aerial_images_split(
            conv,
            spectrum,
            &[condition.dose],
            std::slice::from_mut(&mut intensity),
            &mut Workspace::new(),
        );
        intensity
    }

    fn assert_bits_eq(a: &Grid<f64>, b: &Grid<f64>, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: shape");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: pixel {i}");
        }
    }

    #[test]
    fn bank_pass_matches_the_per_condition_loop_bit_for_bit() {
        let interleaved = vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
            ProcessCondition::new(-25.0, 0.98),
            ProcessCondition::new(25.0, 1.02),
            ProcessCondition::new(-25.0, 1.02),
        ];
        let single_focus = vec![
            ProcessCondition::new(0.0, 0.94),
            ProcessCondition::new(0.0, 1.06),
        ];
        let mask = Grid::from_fn(64, 64, |x, y| {
            if (20..44).contains(&x) && (12..52).contains(&y) || (x / 6 + y / 9) % 5 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let fast_preset = vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
            ProcessCondition::new(-25.0, 1.02),
        ];
        for (name, window, banks) in [
            ("contest", ProcessCondition::contest_window(), 3),
            ("interleaved", interleaved, 5),
            ("single focus", single_focus, 1),
            ("fast preset", fast_preset, 3),
        ] {
            let sim = simulator(window.clone());
            assert_eq!(sim.bank_count(), banks, "{name}: bank count");
            assert_eq!(sim.conditions(), window, "{name}: conditions");
            let covered: Vec<usize> = (0..banks).flat_map(|b| sim.bank_conditions(b)).collect();
            assert_eq!(covered, (0..window.len()).collect::<Vec<_>>(), "{name}");

            let spectrum = sim.fresh_mask_spectrum(&mask, &mut Workspace::new());
            let prints = sim.printed_all_conditions(&mask);
            assert_eq!(prints.len(), window.len(), "{name}: print count");
            let mut ws = Workspace::new();
            // Each bank's images from one pass over all its doses.
            let bank_images: Vec<Grid<f64>> = (0..banks)
                .flat_map(|b| {
                    let doses = &sim.doses()[sim.bank_conditions(b)];
                    let mut images = vec![Grid::zeros(64, 64); doses.len()];
                    sim.bank(b).aerial_images_split(
                        sim.convolver(),
                        &spectrum,
                        doses,
                        &mut images,
                        &mut ws,
                    );
                    images
                })
                .collect();
            let mut intensity = Grid::zeros(64, 64);
            for (c, &condition) in window.iter().enumerate() {
                let single = single_dose_image(&sim, &spectrum, condition);
                assert_bits_eq(&bank_images[c], &single, &format!("{name} bank image {c}"));
                sim.aerial_image_split(&spectrum, c, &mut intensity, &mut ws);
                assert_bits_eq(&intensity, &single, &format!("{name} image {c}"));
                let printed = sim.printed(&single);
                assert_bits_eq(&prints[c], &printed, &format!("{name} print {c}"));
                // The dense oracle, within the image pass's tolerance.
                let dense = per_condition_image(&sim, &spectrum, condition);
                let err = single
                    .iter()
                    .zip(dense.iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, |m, d| if d.is_nan() || d > m { d } else { m });
                assert!(
                    err <= 1e-12 * dense.max(),
                    "{name} image {c}: max error {err:e}, peak {:e}",
                    dense.max()
                );
            }
        }
    }

    #[test]
    fn sim_key_distinguishes_configurations() {
        let a = simulator(ProcessCondition::nominal_only()).sim_key();
        let b = simulator(ProcessCondition::nominal_only()).sim_key();
        assert_eq!(a, b);
        assert_ne!(a, simulator(ProcessCondition::contest_window()).sim_key());
        let other = LithoSimulator::new(
            &OpticsConfig::builder()
                .grid(64, 64)
                .pixel_nm(8.0)
                .kernel_count(6)
                .build()
                .unwrap(),
            ResistModel::paper(),
            ProcessCondition::nominal_only(),
        )
        .unwrap();
        assert_ne!(a, other.sim_key());
        // Sources are part of the key: a collision would make a cache
        // share one source's banks with another.
        let key_with = |source: SourceShape| {
            let config = OpticsConfig::builder()
                .grid(64, 64)
                .pixel_nm(8.0)
                .kernel_count(8)
                .source(source)
                .build()
                .unwrap();
            SimKey::new(
                &config,
                &ResistModel::paper(),
                &ProcessCondition::nominal_only(),
            )
        };
        assert_eq!(
            a,
            key_with(SourceShape::Annular {
                sigma_in: 0.6,
                sigma_out: 0.9
            })
        );
        assert_ne!(a, key_with(SourceShape::Circular { sigma: 0.9 }));
        assert_ne!(
            a,
            key_with(SourceShape::Annular {
                sigma_in: 0.5,
                sigma_out: 0.9
            })
        );
        assert_ne!(
            a,
            key_with(SourceShape::Annular {
                sigma_in: 0.6,
                sigma_out: 0.8
            })
        );
    }
}
