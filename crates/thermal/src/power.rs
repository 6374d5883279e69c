//! Architectural power modeling (the Wattch-style substrate).
//!
//! Each block carries a dynamic power (externally estimated or computed
//! from the activity-based [`dynamic_power`] helper) and a reference
//! leakage power that the thermal solver scales exponentially with
//! temperature during the leakage–temperature fixed-point iteration.

use crate::{Result, ThermalError};
use statobd_num::impl_json_struct;
use std::collections::BTreeMap;

/// Reference temperature (K) at which block leakage powers are specified.
pub const LEAKAGE_REF_K: f64 = 358.15; // 85 °C

/// Per-block power assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockPower {
    dynamic_w: f64,
    leakage_ref_w: f64,
}

impl_json_struct!(BlockPower {
    dynamic_w,
    leakage_ref_w,
});

impl BlockPower {
    /// Creates a block power: dynamic watts plus leakage watts at the
    /// reference temperature ([`LEAKAGE_REF_K`]).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for negative or
    /// non-finite powers.
    pub fn new(dynamic_w: f64, leakage_ref_w: f64) -> Result<Self> {
        if dynamic_w < 0.0
            || leakage_ref_w < 0.0
            || !dynamic_w.is_finite()
            || !leakage_ref_w.is_finite()
        {
            return Err(ThermalError::InvalidParameter {
                detail: format!("powers must be non-negative, got ({dynamic_w}, {leakage_ref_w})"),
            });
        }
        Ok(BlockPower {
            dynamic_w,
            leakage_ref_w,
        })
    }

    /// Dynamic power (W).
    pub fn dynamic_w(&self) -> f64 {
        self.dynamic_w
    }

    /// Leakage power (W) at the reference temperature.
    pub fn leakage_ref_w(&self) -> f64 {
        self.leakage_ref_w
    }

    /// Leakage power at temperature `t_k`, using an exponential
    /// sensitivity with e-folding temperature `theta_k` (the solver's
    /// configured value; HotSpot-era silicon roughly doubles leakage every
    /// ~20–30 K).
    pub fn leakage_at(&self, t_k: f64, theta_k: f64) -> f64 {
        self.leakage_ref_w * ((t_k - LEAKAGE_REF_K) / theta_k).exp()
    }
}

/// Power assignments for the blocks of a floorplan.
///
/// Blocks without an assignment are treated as zero power (inactive
/// regions — exactly the "cool areas" of the paper's Fig. 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerModel {
    blocks: BTreeMap<String, BlockPower>,
}

impl_json_struct!(PowerModel { blocks });

impl PowerModel {
    /// Creates an empty power model.
    pub fn new() -> Self {
        PowerModel {
            blocks: BTreeMap::new(),
        }
    }

    /// Assigns power to a block (replacing any existing assignment).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] if the name is empty.
    pub fn set_block_power(&mut self, name: impl Into<String>, power: BlockPower) -> Result<()> {
        let name = name.into();
        if name.is_empty() {
            return Err(ThermalError::InvalidParameter {
                detail: "block name must be non-empty".to_string(),
            });
        }
        self.blocks.insert(name, power);
        Ok(())
    }

    /// Looks up a block's power.
    pub fn block_power(&self, name: &str) -> Option<&BlockPower> {
        self.blocks.get(name)
    }

    /// Iterates over `(name, power)` assignments.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &BlockPower)> {
        self.blocks.iter().map(|(n, p)| (n.as_str(), p))
    }

    /// Total dynamic power (W).
    pub fn total_dynamic_w(&self) -> f64 {
        self.blocks.values().map(|p| p.dynamic_w()).sum()
    }

    /// Total leakage power (W) at the reference temperature.
    pub fn total_leakage_ref_w(&self) -> f64 {
        self.blocks.values().map(|p| p.leakage_ref_w()).sum()
    }
}

/// Wattch-style dynamic power estimate:
/// `P = activity · c_eff · V² · f`, with `c_eff` the block's effective
/// switched capacitance (F).
///
/// # Example
///
/// ```
/// use statobd_thermal::dynamic_power;
///
/// // 2 nF effective capacitance, 1.2 V, 2 GHz, 30 % activity.
/// let p = dynamic_power(0.3, 2e-9, 1.2, 2e9);
/// assert!((p - 1.728).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if any argument is negative (programming error at call sites —
/// these are design constants, not data).
pub fn dynamic_power(activity: f64, c_eff_f: f64, vdd_v: f64, freq_hz: f64) -> f64 {
    assert!(
        activity >= 0.0 && c_eff_f >= 0.0 && vdd_v >= 0.0 && freq_hz >= 0.0,
        "power parameters must be non-negative"
    );
    activity * c_eff_f * vdd_v * vdd_v * freq_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_scales_exponentially() {
        let p = BlockPower::new(10.0, 2.0).unwrap();
        assert!((p.leakage_at(LEAKAGE_REF_K, 30.0) - 2.0).abs() < 1e-12);
        // +30 K at theta = 30 K multiplies by e.
        let hot = p.leakage_at(LEAKAGE_REF_K + 30.0, 30.0);
        assert!((hot - 2.0 * std::f64::consts::E).abs() < 1e-10);
        // Cooler than reference → less leakage.
        assert!(p.leakage_at(LEAKAGE_REF_K - 20.0, 30.0) < 2.0);
    }

    #[test]
    fn model_accounting() {
        let mut m = PowerModel::new();
        m.set_block_power("a", BlockPower::new(10.0, 1.0).unwrap())
            .unwrap();
        m.set_block_power("b", BlockPower::new(5.0, 0.5).unwrap())
            .unwrap();
        assert_eq!(m.total_dynamic_w(), 15.0);
        assert_eq!(m.total_leakage_ref_w(), 1.5);
        assert!(m.block_power("a").is_some());
        assert!(m.block_power("zz").is_none());
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn replace_assignment() {
        let mut m = PowerModel::new();
        m.set_block_power("a", BlockPower::new(1.0, 0.0).unwrap())
            .unwrap();
        m.set_block_power("a", BlockPower::new(2.0, 0.0).unwrap())
            .unwrap();
        assert_eq!(m.block_power("a").unwrap().dynamic_w(), 2.0);
    }

    #[test]
    fn rejects_invalid() {
        assert!(BlockPower::new(-1.0, 0.0).is_err());
        assert!(BlockPower::new(0.0, f64::INFINITY).is_err());
        let mut m = PowerModel::new();
        assert!(m
            .set_block_power("", BlockPower::new(1.0, 0.0).unwrap())
            .is_err());
    }

    #[test]
    fn dynamic_power_formula() {
        assert_eq!(dynamic_power(0.0, 1e-9, 1.2, 1e9), 0.0);
        let p = dynamic_power(1.0, 1e-9, 1.0, 1e9);
        assert!((p - 1.0).abs() < 1e-12);
    }
}
