//! Fully closed-form first-order engine (an extension beyond the paper,
//! used as an ablation of its numerical-integration step).
//!
//! In the lifetime regime the conditional block failure probability is
//! tiny, so `1 − e^{−A·g} ≈ A·g` and the double integral of eq. (28)
//! collapses to an expectation with closed form:
//!
//! ```text
//! P_j(t) ≈ A_j · E[g(u, v)]
//!        = A_j · exp(s₁·u₀ + s₁²·σ_u²/2) · MGF_v(s₂)
//! ```
//!
//! using the Gaussian MGF for `u` and the shifted-gamma MGF for `v`
//! (`s₁ = γb`, `s₂ = γ²b²/2`). The gamma MGF diverges when
//! `s₂·(2â) ≥ 1`; in that regime (far beyond the lifetime window) the
//! engine falls back to the numerical [`StFast`] evaluation.

use crate::chip::ChipAnalysis;
use crate::engines::st_fast::{StFast, StFastConfig};
use crate::engines::{check_times, ReliabilityEngine};
use crate::gfun::GCoefficients;
use crate::Result;

/// The closed-form first-order engine (`st_closed`).
#[derive(Debug)]
pub struct StClosed<'a> {
    analysis: &'a ChipAnalysis,
    fallback: StFast<'a>,
}

impl<'a> StClosed<'a> {
    /// Creates the engine over a characterized chip.
    pub fn new(analysis: &'a ChipAnalysis) -> Self {
        StClosed {
            analysis,
            fallback: StFast::new(analysis, StFastConfig::default()),
        }
    }

    /// Closed-form per-block failure probability
    /// `A·exp(s₁u₀ + s₁²σ_u²/2)·MGF_v(s₂)`, or `None` when the gamma MGF
    /// diverges or the result leaves the first-order regime
    /// (`p ≥ 0.01`) and the numerical fallback is required.
    pub fn block_failure_probability_closed(&self, block_idx: usize, t_s: f64) -> Option<f64> {
        let block = &self.analysis.blocks()[block_idx];
        let coeff = GCoefficients::at(t_s, block.alpha_s(), block.b_per_nm());
        let m = block.moments();
        let mean_term = (coeff.s1 * m.u_nominal()
            + 0.5 * coeff.s1 * coeff.s1 * m.u_sigma() * m.u_sigma())
        .exp();
        let v_term = m.v_dist().mgf(coeff.s2).ok()?;
        let p = block.spec().area() * mean_term * v_term;
        // First-order validity: the approximation 1 − e^{−x} ≈ x is only
        // trustworthy for small x.
        (p < 0.01).then_some(p)
    }
}

impl ReliabilityEngine for StClosed<'_> {
    fn name(&self) -> &str {
        "st_closed"
    }

    /// The closed-form kernel is a handful of `exp`s per block, so a
    /// serial sweep is already orders of magnitude cheaper than a
    /// quadrature engine (and the rare fallback shares `StFast`'s cached
    /// node sets).
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        check_times(ts)?;
        let n_blocks = self.analysis.n_blocks();
        let mut chip = self.analysis.composition().accumulator(n_blocks);
        ts.iter()
            .map(|&t_s| {
                chip.reset();
                for j in 0..n_blocks {
                    let p = match self.block_failure_probability_closed(j, t_s) {
                        Some(p) => p,
                        None => self.fallback.block_failure_probability(j, t_s)?,
                    };
                    chip.absorb(j, p);
                }
                Ok(chip.failure_probability())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BlockSpec, ChipSpec};
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
                vec![(0, 0.4), (1, 0.3), (6, 0.3)],
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
    fn closed_form_matches_fine_numerical_integration() {
        let a = analysis();
        let mut closed = StClosed::new(&a);
        let mut fine = StFast::new(
            &a,
            StFastConfig {
                l0: 400,
                u_width_sigmas: 8.0,
                ..Default::default()
            },
        );
        for &t in &[1e8, 1e9, 3e9] {
            let pc = closed.failure_probability(t).unwrap();
            let pf = fine.failure_probability(t).unwrap();
            let rel = ((pc - pf) / pf).abs();
            assert!(
                rel < 0.01,
                "closed {pc:.4e} vs numeric {pf:.4e} at t={t:e} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn closed_form_declines_fallback_when_probability_large() {
        let a = analysis();
        let closed = StClosed::new(&a);
        // At an absurdly late time the first-order form is invalid.
        assert!(closed.block_failure_probability_closed(0, 1e16).is_none());
    }

    #[test]
    fn engine_name() {
        let a = analysis();
        let e = StClosed::new(&a);
        assert_eq!(e.name(), "st_closed");
    }
}
