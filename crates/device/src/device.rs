//! The per-device Weibull OBD distribution (paper eqs. 4, 6, 9).

use crate::{DeviceError, Result};
use statobd_num::impl_json_struct;
use statobd_num::json::{FromJson, Json, JsonError, ToJson};

/// The failure criterion for OBD analysis.
///
/// The paper limits its full-chip analysis to the *initiation of soft
/// breakdown* — SBD is irreversible, raises gate leakage 10–20× and
/// dominates CPU life-test fallout (cache failures) — while noting circuits
/// can sometimes survive to hard breakdown. The enum documents the choice
/// and lets the degradation simulator report both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCriterion {
    /// First soft breakdown (the paper's criterion for chip analysis).
    SoftBreakdown,
    /// Hard breakdown (thermal runaway of the percolation path).
    HardBreakdown,
}

impl ToJson for FailureCriterion {
    fn to_json(&self) -> Json {
        Json::String(
            match self {
                FailureCriterion::SoftBreakdown => "SoftBreakdown",
                FailureCriterion::HardBreakdown => "HardBreakdown",
            }
            .to_string(),
        )
    }
}

impl FromJson for FailureCriterion {
    fn from_json(v: &Json) -> statobd_num::json::Result<Self> {
        match v.as_str() {
            Some("SoftBreakdown") => Ok(FailureCriterion::SoftBreakdown),
            Some("HardBreakdown") => Ok(FailureCriterion::HardBreakdown),
            _ => Err(JsonError::new(format!("unknown FailureCriterion {v}"))),
        }
    }
}

/// OBD statistics of one device: `F(t) = 1 − exp(−a·(t/α)^(b·x))`.
///
/// # Example
///
/// ```
/// use statobd_device::DeviceObd;
///
/// let d = DeviceObd::new(1.0, 2.2, 1.0e16, 0.65)?;
/// // At t = α a unit-area device has failed with prob 1 − e⁻¹.
/// assert!((d.cdf(1.0e16) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// assert!((d.weibull_slope() - 1.43).abs() < 1e-12);
/// # Ok::<(), statobd_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceObd {
    area: f64,
    thickness_nm: f64,
    alpha_s: f64,
    b_per_nm: f64,
}

impl_json_struct!(DeviceObd {
    area,
    thickness_nm,
    alpha_s,
    b_per_nm,
});

impl DeviceObd {
    /// Creates a device model.
    ///
    /// `area` is normalized to the minimum device area; `thickness_nm` is
    /// the oxide thickness; `alpha_s` and `b_per_nm` are the technology
    /// parameters at the device's operating point.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if any argument is
    /// non-positive or non-finite.
    pub fn new(area: f64, thickness_nm: f64, alpha_s: f64, b_per_nm: f64) -> Result<Self> {
        for (name, v) in [
            ("area", area),
            ("thickness_nm", thickness_nm),
            ("alpha_s", alpha_s),
            ("b_per_nm", b_per_nm),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(DeviceError::InvalidParameter {
                    detail: format!("{name} must be positive and finite, got {v}"),
                });
            }
        }
        Ok(DeviceObd {
            area,
            thickness_nm,
            alpha_s,
            b_per_nm,
        })
    }

    /// Normalized device area `a`.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Oxide thickness (nm).
    pub fn thickness_nm(&self) -> f64 {
        self.thickness_nm
    }

    /// Characteristic life `α` (s).
    pub fn alpha_s(&self) -> f64 {
        self.alpha_s
    }

    /// Thickness coefficient `b` (1/nm).
    pub fn b_per_nm(&self) -> f64 {
        self.b_per_nm
    }

    /// The Weibull slope `β = b·x`.
    pub fn weibull_slope(&self) -> f64 {
        self.b_per_nm * self.thickness_nm
    }

    /// The exponent `a·(t/α)^(b·x)` — the cumulative hazard at time `t`.
    ///
    /// Computed in log-space for numerical range; exact for `t = 0`.
    pub fn hazard_exponent(&self, t_s: f64) -> f64 {
        if t_s <= 0.0 {
            return 0.0;
        }
        self.area * (self.weibull_slope() * (t_s / self.alpha_s).ln()).exp()
    }

    /// Failure probability by time `t` (eq. 4).
    pub fn cdf(&self, t_s: f64) -> f64 {
        -(-self.hazard_exponent(t_s)).exp_m1()
    }

    /// Reliability (survivor) function `R(t) = exp(−a·(t/α)^(b·x))`
    /// (eq. 9).
    pub fn reliability(&self, t_s: f64) -> f64 {
        (-self.hazard_exponent(t_s)).exp()
    }

    /// Time at which the failure probability reaches `p` (inverse CDF).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] unless `0 < p < 1`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0 < p && p < 1.0) {
            return Err(DeviceError::InvalidParameter {
                detail: format!("quantile requires 0 < p < 1, got {p}"),
            });
        }
        // a (t/α)^β = −ln(1−p)  ⇒  t = α (−ln1p(−p)/a)^(1/β)
        let target = -(-p).ln_1p() / self.area;
        Ok(self.alpha_s * target.powf(1.0 / self.weibull_slope()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceObd {
        DeviceObd::new(1.0, 2.2, 1.0e16, 0.65).unwrap()
    }

    #[test]
    fn cdf_and_reliability_are_complementary() {
        let d = device();
        for &t in &[1e8, 1e12, 1e15, 1e16, 1e17] {
            assert!((d.cdf(t) + d.reliability(t) - 1.0).abs() < 1e-12);
        }
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.reliability(0.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let d = device();
        let mut prev = 0.0;
        for i in 0..30 {
            let t = 10f64.powf(6.0 + i as f64 * 0.5);
            let c = d.cdf(t);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn thinner_oxide_fails_sooner() {
        let thick = DeviceObd::new(1.0, 2.29, 1.0e16, 0.65).unwrap();
        let thin = DeviceObd::new(1.0, 2.11, 1.0e16, 0.65).unwrap();
        // Before the characteristic life, thinner oxide (smaller slope) has
        // higher failure probability.
        let t = 1e10;
        assert!(thin.cdf(t) > thick.cdf(t));
        // 1-ppm lifetime of the thin device is shorter.
        assert!(thin.quantile(1e-6).unwrap() < thick.quantile(1e-6).unwrap());
    }

    #[test]
    fn larger_area_fails_sooner() {
        let small = DeviceObd::new(1.0, 2.2, 1.0e16, 0.65).unwrap();
        let big = DeviceObd::new(100.0, 2.2, 1.0e16, 0.65).unwrap();
        assert!(big.cdf(1e12) > small.cdf(1e12));
    }

    #[test]
    fn quantile_round_trips() {
        let d = device();
        for &p in &[1e-9, 1e-6, 1e-3, 0.5, 0.99] {
            let t = d.quantile(p).unwrap();
            let back = d.cdf(t);
            assert!((back - p).abs() / p < 1e-9, "p {p}: round-trip {back}");
        }
        assert!(d.quantile(0.0).is_err());
        assert!(d.quantile(1.0).is_err());
    }

    #[test]
    fn tiny_probability_is_accurate() {
        // The hazard at the 1e-9 quantile must match 1e-9 relative — this
        // exercises the expm1/ln1p path the chip analysis depends on.
        let d = device();
        let t = d.quantile(1e-9).unwrap();
        let h = d.hazard_exponent(t);
        assert!((h - 1e-9).abs() / 1e-9 < 1e-9);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(DeviceObd::new(0.0, 2.2, 1e16, 0.65).is_err());
        assert!(DeviceObd::new(1.0, -2.2, 1e16, 0.65).is_err());
        assert!(DeviceObd::new(1.0, 2.2, f64::NAN, 0.65).is_err());
        assert!(DeviceObd::new(1.0, 2.2, 1e16, 0.0).is_err());
    }

    #[test]
    fn json_round_trip() {
        let d = device();
        let json = statobd_num::json::to_string(&d);
        let back: DeviceObd = statobd_num::json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
