//! Per-block effective-age damage accumulation.

use crate::{ManagerError, Result};
use statobd_num::impl_json_struct;

/// Accumulated OBD damage: one effective age `ξ_j` per block plus the
/// wall-clock time it covers.
///
/// The effective age is the dimensionless integral
/// `ξ_j = ∫₀ᵗ dt' / α_j(T(t'), V(t'))`, advanced phase by phase under a
/// piecewise-constant operating history. Because the per-block failure
/// probability depends on the history only through `γ_j = ln ξ_j` (the
/// hybrid tables' abscissa), this vector is the *complete* reliability
/// state of a deployed chip — which is why it is the unit of
/// checkpoint/restore ([`DamageState::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DamageState {
    /// Per-block effective age `ξ_j` (dimensionless).
    xi: Vec<f64>,
    /// Wall-clock seconds of operation the ages account for.
    elapsed_s: f64,
}

impl_json_struct!(DamageState { xi, elapsed_s });

impl DamageState {
    /// A pristine chip with `n_blocks` undamaged blocks.
    pub fn new(n_blocks: usize) -> Self {
        DamageState {
            xi: vec![0.0; n_blocks],
            elapsed_s: 0.0,
        }
    }

    /// Number of blocks tracked.
    pub fn n_blocks(&self) -> usize {
        self.xi.len()
    }

    /// The per-block effective ages `ξ_j`.
    pub fn effective_ages(&self) -> &[f64] {
        &self.xi
    }

    /// Wall-clock seconds of operation accumulated so far.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Advances every block by `dξ_j = dt / α_j` under the
    /// per-block Weibull scales `alphas_s` of the current operating
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for a negative or
    /// non-finite `dt_s`, a mismatched `alphas_s` length, or a
    /// non-positive scale.
    pub fn advance(&mut self, dt_s: f64, alphas_s: &[f64]) -> Result<()> {
        if !(dt_s >= 0.0) || !dt_s.is_finite() {
            return Err(ManagerError::InvalidParameter {
                detail: format!("time step must be finite and non-negative, got {dt_s}"),
            });
        }
        if alphas_s.len() != self.xi.len() {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "got {} Weibull scales for {} blocks",
                    alphas_s.len(),
                    self.xi.len()
                ),
            });
        }
        if let Some(&bad) = alphas_s.iter().find(|a| !(**a > 0.0) || !a.is_finite()) {
            return Err(ManagerError::InvalidParameter {
                detail: format!("Weibull scales must be positive and finite, got {bad}"),
            });
        }
        for (xi, &alpha) in self.xi.iter_mut().zip(alphas_s) {
            *xi += dt_s / alpha;
        }
        self.elapsed_s += dt_s;
        Ok(())
    }

    /// Records a repair event: block `block` is swapped for a pristine
    /// spare (or repaired in place), re-baselining its effective age to
    /// zero. Wall-clock time is untouched — the rest of the chip keeps
    /// its accumulated damage.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for an out-of-range
    /// block index.
    pub fn repair(&mut self, block: usize) -> Result<()> {
        let n = self.xi.len();
        let xi = self
            .xi
            .get_mut(block)
            .ok_or_else(|| ManagerError::InvalidParameter {
                detail: format!("repair of block {block}, but the chip has {n}"),
            })?;
        *xi = 0.0;
        Ok(())
    }

    /// Serializes the state to JSON for checkpointing.
    pub fn to_json(&self) -> String {
        statobd_num::json::to_string(self)
    }

    /// Restores a checkpointed state, validating that every age is
    /// finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for malformed JSON or
    /// physically impossible contents.
    pub fn from_json(json: &str) -> Result<Self> {
        let state: DamageState =
            statobd_num::json::from_str(json).map_err(|e| ManagerError::InvalidParameter {
                detail: format!("damage-state deserialization failed: {e}"),
            })?;
        if state.xi.iter().any(|x| !(*x >= 0.0) || !x.is_finite()) {
            return Err(ManagerError::InvalidParameter {
                detail: "checkpoint contains a negative or non-finite effective age".to_string(),
            });
        }
        if !(state.elapsed_s >= 0.0) || !state.elapsed_s.is_finite() {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "checkpoint elapsed time must be non-negative, got {}",
                    state.elapsed_s
                ),
            });
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_age_and_elapsed_time() {
        let mut d = DamageState::new(2);
        d.advance(100.0, &[50.0, 200.0]).unwrap();
        d.advance(100.0, &[50.0, 200.0]).unwrap();
        assert_eq!(d.effective_ages(), &[4.0, 1.0]);
        assert_eq!(d.elapsed_s(), 200.0);
        // Constant-point identity: ξ = t/α.
        assert_eq!(d.effective_ages()[0], d.elapsed_s() / 50.0);
    }

    #[test]
    fn repair_rebaselines_one_block_only() {
        let mut d = DamageState::new(3);
        d.advance(100.0, &[10.0, 20.0, 50.0]).unwrap();
        d.repair(1).unwrap();
        assert_eq!(d.effective_ages(), &[10.0, 0.0, 2.0]);
        // Elapsed wall-clock time is not a per-block quantity.
        assert_eq!(d.elapsed_s(), 100.0);
        // The repaired block re-ages from zero.
        d.advance(40.0, &[10.0, 20.0, 50.0]).unwrap();
        assert_eq!(d.effective_ages()[1], 2.0);
        assert!(d.repair(3).is_err());
    }

    #[test]
    fn rejects_bad_steps() {
        let mut d = DamageState::new(2);
        assert!(d.advance(-1.0, &[1.0, 1.0]).is_err());
        assert!(d.advance(f64::NAN, &[1.0, 1.0]).is_err());
        assert!(d.advance(1.0, &[1.0]).is_err());
        assert!(d.advance(1.0, &[1.0, 0.0]).is_err());
        assert!(d.advance(1.0, &[1.0, -2.0]).is_err());
        // Failed advances leave the state untouched.
        assert_eq!(d.effective_ages(), &[0.0, 0.0]);
        assert_eq!(d.elapsed_s(), 0.0);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut d = DamageState::new(3);
        d.advance(2.63e6, &[4.0e14, 1.3e13, 7.7e15]).unwrap();
        let restored = DamageState::from_json(&d.to_json()).unwrap();
        assert_eq!(restored, d);
        // Bit-exactness matters: a checkpoint/restore cycle must not
        // perturb the monitored probability.
        for (a, b) in restored.effective_ages().iter().zip(d.effective_ages()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_corrupt_checkpoints() {
        assert!(DamageState::from_json("not json").is_err());
        assert!(DamageState::from_json(r#"{"xi": [-1.0], "elapsed_s": 0.0}"#).is_err());
        assert!(DamageState::from_json(r#"{"xi": [1.0], "elapsed_s": -5.0}"#).is_err());
    }
}
