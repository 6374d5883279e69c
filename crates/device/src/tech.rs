//! Technology models for the Weibull OBD parameters `α(T, V)` and `b(T)`.
//!
//! Calibration targets (from the interrelation studies of Wu et al. and
//! Degraeve et al. that the paper builds on):
//!
//! * *temperature acceleration*: roughly one decade of characteristic life
//!   per ~30 K near operating conditions for ultra-thin oxides — the same
//!   magnitude the paper quotes when it warns that ignoring a 30 °C
//!   on-chip spread misestimates reliability by an order of magnitude;
//! * *voltage acceleration*: steep power law (`α ∝ V^−n`, `n ≈ 40` near
//!   1 V for 2 nm-class oxides);
//! * *Weibull slope*: `β = b·x ≈ 1.4` at the 2.2 nm nominal thickness,
//!   decreasing slightly with temperature.

use crate::{DeviceError, Result, BOLTZMANN_EV};
use statobd_num::impl_json_struct;

/// Temperature/voltage-dependent OBD technology parameters.
///
/// Implementors provide the Weibull scale `α` (seconds, for a minimum-area
/// device) and the thickness-slope coefficient `b` (1/nm) of eq. (4).
pub trait ObdTechnology: std::fmt::Debug {
    /// Characteristic life `α` (s) of a minimum-area device at temperature
    /// `t_k` (K) and stress/supply voltage `vdd_v` (V).
    fn alpha(&self, t_k: f64, vdd_v: f64) -> f64;

    /// Thickness coefficient `b` (1/nm) of the Weibull slope `β = b·x` at
    /// temperature `t_k` (K).
    fn b(&self, t_k: f64) -> f64;
}

/// Closed-form technology model:
///
/// ```text
/// α(T, V) = α_ref · exp[ (Ea/k)·(1/T − 1/T_ref) ] · (V/V_ref)^(−n)
/// b(T)    = b_ref · (1 − c_b·(T − T_ref))
/// ```
///
/// # Example
///
/// ```
/// use statobd_device::{ClosedFormTech, ObdTechnology};
///
/// let tech = ClosedFormTech::nominal_45nm();
/// // Hotter → shorter characteristic life.
/// assert!(tech.alpha(373.15, 1.2) < tech.alpha(343.15, 1.2));
/// // Higher voltage → shorter life.
/// assert!(tech.alpha(353.15, 1.3) < tech.alpha(353.15, 1.2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedFormTech {
    alpha_ref_s: f64,
    t_ref_k: f64,
    v_ref: f64,
    ea_ev: f64,
    voltage_exp: f64,
    b_ref: f64,
    b_temp_coeff: f64,
}

impl_json_struct!(ClosedFormTech {
    alpha_ref_s,
    t_ref_k,
    v_ref,
    ea_ev,
    voltage_exp,
    b_ref,
    b_temp_coeff,
});

impl ClosedFormTech {
    /// Creates a closed-form technology model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for non-positive
    /// `alpha_ref_s`, `t_ref_k`, `v_ref` or `b_ref`, or negative `ea_ev`.
    pub fn new(
        alpha_ref_s: f64,
        t_ref_k: f64,
        v_ref: f64,
        ea_ev: f64,
        voltage_exp: f64,
        b_ref: f64,
        b_temp_coeff: f64,
    ) -> Result<Self> {
        for (name, v) in [
            ("alpha_ref_s", alpha_ref_s),
            ("t_ref_k", t_ref_k),
            ("v_ref", v_ref),
            ("b_ref", b_ref),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(DeviceError::InvalidParameter {
                    detail: format!("{name} must be positive, got {v}"),
                });
            }
        }
        if ea_ev < 0.0 || !ea_ev.is_finite() {
            return Err(DeviceError::InvalidParameter {
                detail: format!("ea_ev must be non-negative, got {ea_ev}"),
            });
        }
        Ok(ClosedFormTech {
            alpha_ref_s,
            t_ref_k,
            v_ref,
            ea_ev,
            voltage_exp,
            b_ref,
            b_temp_coeff,
        })
    }

    /// Representative 45 nm-class parameters for a 2.2 nm oxide at
    /// `V_ref = 1.2 V`, `T_ref = 72 °C`:
    ///
    /// * `Ea = 0.48 eV`, which makes the *failure probability* (hazard)
    ///   change by one order of magnitude per ≈30 K — the calibration the
    ///   paper quotes for the impact of across-die temperature spread,
    /// * `n = 40` voltage power law,
    /// * `b = 0.8 nm⁻¹` → Weibull slope `β ≈ 1.76` at nominal thickness,
    /// * `α_ref = 4×10¹⁴ s`, which places chip-level 1-per-million
    ///   lifetimes of ~10⁵-device designs near 10 years.
    pub fn nominal_45nm() -> Self {
        ClosedFormTech {
            alpha_ref_s: 4.0e14,
            t_ref_k: 345.15,
            v_ref: 1.2,
            ea_ev: 0.48,
            voltage_exp: 40.0,
            b_ref: 0.8,
            b_temp_coeff: 5.0e-4,
        }
    }

    /// Reference temperature (K).
    pub fn t_ref_k(&self) -> f64 {
        self.t_ref_k
    }

    /// Reference voltage (V).
    pub fn v_ref(&self) -> f64 {
        self.v_ref
    }

    /// Effective activation energy (eV).
    pub fn ea_ev(&self) -> f64 {
        self.ea_ev
    }
}

impl ObdTechnology for ClosedFormTech {
    fn alpha(&self, t_k: f64, vdd_v: f64) -> f64 {
        debug_assert!(t_k > 0.0 && vdd_v > 0.0, "invalid operating point");
        let temp_factor = ((self.ea_ev / BOLTZMANN_EV) * (1.0 / t_k - 1.0 / self.t_ref_k)).exp();
        let volt_factor = (vdd_v / self.v_ref).powf(-self.voltage_exp);
        self.alpha_ref_s * temp_factor * volt_factor
    }

    fn b(&self, t_k: f64) -> f64 {
        self.b_ref * (1.0 - self.b_temp_coeff * (t_k - self.t_ref_k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hazard_decade_per_thirty_kelvin() {
        // The paper's calibration: a 30 °C spread changes the failure
        // probability (hazard ∝ α^{−β}) by an order of magnitude.
        let tech = ClosedFormTech::nominal_45nm();
        let alpha_ratio = tech.alpha(343.15, 1.2) / tech.alpha(373.15, 1.2);
        let beta = tech.b(358.15) * 2.2;
        let hazard_ratio = alpha_ratio.powf(beta);
        assert!(
            (7.0..14.0).contains(&hazard_ratio),
            "hazard decade ratio {hazard_ratio}"
        );
    }

    #[test]
    fn reference_point_recovers_alpha_ref() {
        let tech = ClosedFormTech::nominal_45nm();
        assert!((tech.alpha(345.15, 1.2) - 4.0e14).abs() / 4.0e14 < 1e-12);
    }

    #[test]
    fn voltage_power_law() {
        let tech = ClosedFormTech::nominal_45nm();
        let r = tech.alpha(345.15, 1.32) / tech.alpha(345.15, 1.2);
        let expected = (1.1f64).powf(-40.0);
        assert!((r - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn weibull_slope_in_thin_oxide_range() {
        // β for 2.2 nm-class oxides sits in the ~1.3–1.9 range reported
        // by the stress-characterization literature.
        let tech = ClosedFormTech::nominal_45nm();
        let beta = tech.b(345.15) * 2.2;
        assert!((1.3..1.9).contains(&beta), "beta {beta}");
        // b decreases with temperature.
        assert!(tech.b(380.0) < tech.b(320.0));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ClosedFormTech::new(-1.0, 345.0, 1.2, 0.8, 40.0, 0.65, 0.0).is_err());
        assert!(ClosedFormTech::new(1e16, 0.0, 1.2, 0.8, 40.0, 0.65, 0.0).is_err());
        assert!(ClosedFormTech::new(1e16, 345.0, 1.2, -0.8, 40.0, 0.65, 0.0).is_err());
        assert!(ClosedFormTech::new(1e16, 345.0, 1.2, 0.8, 40.0, 0.0, 0.0).is_err());
    }
}
