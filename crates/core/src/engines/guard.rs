//! The traditional guard-band baseline (paper eqs. 33–34): every device is
//! assumed to have the *minimum* oxide thickness and the chip's *worst*
//! operating temperature. Deterministic, closed-form — and, as the paper's
//! Table III shows, ~50 % pessimistic.

use crate::chip::ChipAnalysis;
use crate::engines::composition::{Composition, CompositionAccumulator};
use crate::engines::{check_times, ReliabilityEngine};
use crate::{CoreError, Result};

/// Configuration of the guard-band baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardBandConfig {
    /// Thickness margin in sigmas: `x_min = u₀ − k·σ_tot` (paper: 3).
    pub sigmas: f64,
}

statobd_num::impl_json_struct!(GuardBandConfig { sigmas });

impl Default for GuardBandConfig {
    fn default() -> Self {
        GuardBandConfig {
            sigmas: crate::params::GUARD_BAND_SIGMAS,
        }
    }
}

/// The guard-band engine (`guard` in Table III).
#[derive(Debug)]
pub struct GuardBand {
    /// Minimum assumed thickness `x_min` (nm).
    x_min_nm: f64,
    /// Worst-case (hottest-block) Weibull scale (s).
    alpha_worst_s: f64,
    /// Worst-case `b` (1/nm).
    b_worst: f64,
    /// Total chip area `A`.
    total_area: f64,
    /// Per-block areas `A_j`, in block order — the grouped evaluation
    /// needs per-block corner probabilities, not just their sum.
    block_areas: Vec<f64>,
    /// The chip's block composition, captured at build time (the corner
    /// is self-contained: no `ChipAnalysis` borrow at query time).
    composition: Composition,
}

impl GuardBand {
    /// Builds the guard-band corner from a characterized chip: minimum
    /// nominal thickness minus `k·σ_tot`, with the hottest block's
    /// Weibull parameters applied to the whole chip area.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the margin consumes the
    /// whole thickness (non-positive `x_min`).
    pub fn new(analysis: &ChipAnalysis, config: GuardBandConfig) -> Result<Self> {
        let model = analysis.model();
        let min_nominal = model
            .nominal()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let x_min_nm = min_nominal - config.sigmas * model.budget().sigma_total();
        if !(x_min_nm > 0.0) {
            return Err(CoreError::InvalidParameter {
                detail: format!("guard-band thickness margin is non-physical: x_min = {x_min_nm}"),
            });
        }
        // The hottest block defines the worst corner. `total_cmp` keeps
        // this a total order even for pathological (NaN) temperatures, and
        // an empty analysis is a structured error — the serve loop must
        // never abort on a bad request.
        let worst = analysis
            .blocks()
            .iter()
            .max_by(|a, b| {
                a.spec()
                    .temperature_k()
                    .total_cmp(&b.spec().temperature_k())
            })
            .ok_or_else(|| CoreError::InvalidParameter {
                detail: "guard-band corner needs at least one block".to_string(),
            })?;
        Ok(GuardBand {
            x_min_nm,
            alpha_worst_s: worst.alpha_s(),
            b_worst: worst.b_per_nm(),
            total_area: analysis.spec().total_area(),
            block_areas: analysis.blocks().iter().map(|b| b.spec().area()).collect(),
            composition: analysis.composition().clone(),
        })
    }

    /// The grouped corner probability at hazard kernel `k`: each block's
    /// worst-case failure probability `1 − exp(−A_j·k)` composed through
    /// the redundancy groups. (The weakest-link path keeps the original
    /// whole-chip-area closed form, bit-identically.)
    fn grouped_probability(&self, chip: &mut CompositionAccumulator, kernel: f64) -> f64 {
        chip.reset();
        for (j, &area) in self.block_areas.iter().enumerate() {
            chip.absorb(j, -(-area * kernel).exp_m1());
        }
        chip.failure_probability()
    }

    /// The assumed minimum thickness (nm).
    pub fn x_min_nm(&self) -> f64 {
        self.x_min_nm
    }

    /// The worst-corner Weibull scale (s).
    pub fn alpha_worst_s(&self) -> f64 {
        self.alpha_worst_s
    }

    /// The worst-corner `b` (1/nm).
    pub fn b_worst(&self) -> f64 {
        self.b_worst
    }

    /// Closed-form lifetime at failure-probability target `p` (eq. 34):
    /// `t = α_worst · (−ln(1−p)/A)^(1/(b·x_min))`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `0 < p < 1`.
    pub fn lifetime(&self, p_target: f64) -> Result<f64> {
        if !(0.0 < p_target && p_target < 1.0) {
            return Err(CoreError::InvalidParameter {
                detail: format!("lifetime target must be in (0,1), got {p_target}"),
            });
        }
        let hazard = -(-p_target).ln_1p() / self.total_area;
        Ok(self.alpha_worst_s * hazard.powf(1.0 / (self.b_worst * self.x_min_nm)))
    }
}

impl ReliabilityEngine for GuardBand {
    fn name(&self) -> &str {
        "guard"
    }

    /// `P(t) = 1 − exp(−A·(t/α)^(b·x_min))`, evaluated stably: two
    /// `exp`s per point, with the Weibull slope `β = b·x_min` hoisted out
    /// of the loop.
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        check_times(ts)?;
        let beta = self.b_worst * self.x_min_nm;
        let mut chip = (!self.composition.is_weakest_link())
            .then(|| self.composition.accumulator(self.block_areas.len()));
        Ok(ts
            .iter()
            .map(|&t_s| {
                let kernel = (beta * (t_s / self.alpha_worst_s).ln()).exp();
                match &mut chip {
                    None => -(-self.total_area * kernel).exp_m1(),
                    Some(chip) => self.grouped_probability(chip, kernel),
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BlockSpec, ChipSpec};
    use crate::engines::st_fast::{StFast, StFastConfig};
    use crate::lifetime::solve_lifetime;
    use statobd_device::ClosedFormTech;
    use statobd_variation::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};

    fn analysis() -> ChipAnalysis {
        let model = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(5).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap();
        let mut spec = ChipSpec::new();
        spec.add_block(
            BlockSpec::new(
                "core",
                40_000.0,
                40_000,
                368.15,
                1.2,
                vec![(0, 0.5), (6, 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        spec.add_block(
            BlockSpec::new("cache", 60_000.0, 60_000, 341.15, 1.2, vec![(12, 1.0)]).unwrap(),
        )
        .unwrap();
        ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm()).unwrap()
    }

    #[test]
    fn closed_form_lifetime_matches_probability_inversion() {
        let a = analysis();
        let mut g = GuardBand::new(&a, GuardBandConfig::default()).unwrap();
        let p = 1e-6;
        let t = g.lifetime(p).unwrap();
        let back = g.failure_probability(t).unwrap();
        assert!((back - p).abs() / p < 1e-9, "round trip {back:.4e}");
    }

    #[test]
    fn guard_band_is_pessimistic_vs_statistical() {
        // The headline claim: guard-band underestimates lifetime by ~50 %.
        let a = analysis();
        let g = GuardBand::new(&a, GuardBandConfig::default()).unwrap();
        let t_guard = g.lifetime(1e-6).unwrap();
        let mut fast = StFast::new(&a, StFastConfig::default());
        let t_stat = solve_lifetime(&mut fast, 1e-6, (1e5, 1e12)).unwrap();
        assert!(
            t_guard < t_stat,
            "guard {t_guard:.3e} should be below statistical {t_stat:.3e}"
        );
        let underestimate = 1.0 - t_guard / t_stat;
        assert!(
            (0.2..0.8).contains(&underestimate),
            "underestimation {underestimate:.2} outside the paper's regime"
        );
    }

    #[test]
    fn uses_hottest_block_parameters() {
        let a = analysis();
        let g = GuardBand::new(&a, GuardBandConfig::default()).unwrap();
        // Worst = core at 368.15 K.
        assert!((g.alpha_worst_s() - a.blocks()[0].alpha_s()).abs() < 1e-3);
        assert!((g.b_worst() - a.blocks()[0].b_per_nm()).abs() < 1e-12);
        // x_min = 2.2 − 3σ.
        let expected = 2.2 - 3.0 * a.model().budget().sigma_total();
        assert!((g.x_min_nm() - expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_absurd_margin() {
        let a = analysis();
        assert!(GuardBand::new(&a, GuardBandConfig { sigmas: 100.0 }).is_err());
    }

    #[test]
    fn lifetime_rejects_bad_targets() {
        let a = analysis();
        let g = GuardBand::new(&a, GuardBandConfig::default()).unwrap();
        assert!(g.lifetime(0.0).is_err());
        assert!(g.lifetime(1.0).is_err());
    }
}
