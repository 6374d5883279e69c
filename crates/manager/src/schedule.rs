//! Piecewise-constant operating schedules.

use crate::policy::PolicyConfig;
use crate::{ManagerError, Result};
use statobd_core::ChipSpec;
use statobd_num::impl_json_struct;

/// One piecewise-constant operating phase: per-block temperatures and a
/// requested supply voltage, held for `duration_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPhase {
    /// Display name ("compute", "memory", "idle", ...).
    pub name: String,
    /// Phase duration (s).
    pub duration_s: f64,
    /// Per-block worst-case temperature (K) during the phase, in chip
    /// block order.
    pub temps_k: Vec<f64>,
    /// Requested supply voltage (V); the manager's DVFS level may cap
    /// it.
    pub vdd_v: f64,
}

impl_json_struct!(OperatingPhase {
    name,
    duration_s,
    temps_k,
    vdd_v
});

impl OperatingPhase {
    /// Validates the phase against a block count.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for a non-positive
    /// duration or voltage, a block-count mismatch, or a non-physical
    /// temperature.
    pub fn validate(&self, n_blocks: usize) -> Result<()> {
        if !(self.duration_s > 0.0) || !self.duration_s.is_finite() {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "phase '{}': duration must be positive, got {}",
                    self.name, self.duration_s
                ),
            });
        }
        if !(self.vdd_v > 0.0) {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "phase '{}': voltage must be positive, got {}",
                    self.name, self.vdd_v
                ),
            });
        }
        if self.temps_k.len() != n_blocks {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "phase '{}': {} temperatures for {} blocks",
                    self.name,
                    self.temps_k.len(),
                    n_blocks
                ),
            });
        }
        if let Some(bad) = unphysical_temperature(self.temps_k.iter().copied()) {
            return Err(ManagerError::InvalidParameter {
                detail: format!("phase '{}': temperature {bad} K is not physical", self.name),
            });
        }
        Ok(())
    }
}

/// The first of `temps_k` that is not a finite temperature above 0 K —
/// where the technology law `α(T)` stops being defined — if any.
pub(crate) fn unphysical_temperature(temps_k: impl IntoIterator<Item = f64>) -> Option<f64> {
    temps_k.into_iter().find(|t| !(*t > 0.0) || !t.is_finite())
}

/// A design-independent phase description for schedule files: a uniform
/// temperature *offset* from each block's specified worst-case
/// temperature, plus the requested voltage. One schedule file therefore
/// works for any design.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Display name.
    pub name: String,
    /// Phase duration (s).
    pub duration_s: f64,
    /// Temperature offset (K) added to every block's spec temperature
    /// ("idle" phases run cooler, "turbo" phases hotter).
    pub dt_k: f64,
    /// Requested supply voltage (V).
    pub vdd_v: f64,
}

impl_json_struct!(PhaseSpec {
    name,
    duration_s,
    dt_k,
    vdd_v
});

impl PhaseSpec {
    /// Resolves the offset against a chip specification's per-block
    /// temperatures.
    pub fn resolve(&self, spec: &ChipSpec) -> OperatingPhase {
        OperatingPhase {
            name: self.name.clone(),
            duration_s: self.duration_s,
            temps_k: spec
                .blocks()
                .iter()
                .map(|b| b.temperature_k() + self.dt_k)
                .collect(),
            vdd_v: self.vdd_v,
        }
    }
}

/// The root of a `statobd manage` schedule file: the policy, the phase
/// pattern, and how to iterate it.
#[derive(Debug, Clone, PartialEq)]
pub struct ManageSpec {
    /// The reliability budget and DVFS ladder.
    pub policy: PolicyConfig,
    /// The phase pattern, applied in order.
    pub phases: Vec<PhaseSpec>,
    /// Manager invocations per phase (each phase is split into this many
    /// equal damage/decision steps).
    pub steps_per_phase: usize,
    /// How many times the phase pattern repeats over the service life.
    pub repeat: usize,
}

impl_json_struct!(ManageSpec {
    policy,
    phases,
    steps_per_phase,
    repeat
});

impl ManageSpec {
    /// Parses and validates a schedule file.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for malformed JSON, an
    /// invalid policy, an empty phase list, zero steps/repeats, or a
    /// non-positive phase duration/voltage.
    pub fn from_json(json: &str) -> Result<Self> {
        let spec: ManageSpec =
            statobd_num::json::from_str(json).map_err(|e| ManagerError::InvalidParameter {
                detail: format!("schedule deserialization failed: {e}"),
            })?;
        spec.policy.validate()?;
        if spec.phases.is_empty() {
            return Err(ManagerError::InvalidParameter {
                detail: "schedule needs at least one phase".to_string(),
            });
        }
        if spec.steps_per_phase == 0 || spec.repeat == 0 {
            return Err(ManagerError::InvalidParameter {
                detail: "steps_per_phase and repeat must be positive".to_string(),
            });
        }
        for p in &spec.phases {
            if !(p.duration_s > 0.0) || !(p.vdd_v > 0.0) {
                return Err(ManagerError::InvalidParameter {
                    detail: format!("phase '{}': duration and voltage must be positive", p.name),
                });
            }
        }
        Ok(spec)
    }

    /// Serializes the schedule (the `statobd manage --template` output).
    pub fn to_json(&self) -> String {
        statobd_num::json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DvfsLevel;

    #[test]
    fn phase_validation_catches_mismatches() {
        let phase = OperatingPhase {
            name: "p".to_string(),
            duration_s: 100.0,
            temps_k: vec![350.0, 340.0],
            vdd_v: 1.2,
        };
        assert!(phase.validate(2).is_ok());
        assert!(phase.validate(3).is_err());
        assert!(OperatingPhase {
            duration_s: 0.0,
            ..phase.clone()
        }
        .validate(2)
        .is_err());
        assert!(OperatingPhase {
            vdd_v: -1.0,
            ..phase.clone()
        }
        .validate(2)
        .is_err());
        assert!(OperatingPhase {
            temps_k: vec![350.0, f64::NAN],
            ..phase
        }
        .validate(2)
        .is_err());
    }

    #[test]
    fn manage_spec_round_trips_and_validates() {
        let spec = ManageSpec {
            policy: PolicyConfig {
                budget: 1e-6,
                service_life_s: 1.6e8,
                hysteresis: 0.8,
                levels: vec![
                    DvfsLevel {
                        name: "turbo".to_string(),
                        vdd_cap_v: 1.26,
                        dt_when_capped_k: 0.0,
                    },
                    DvfsLevel {
                        name: "nominal".to_string(),
                        vdd_cap_v: 1.20,
                        dt_when_capped_k: -6.0,
                    },
                ],
            },
            phases: vec![
                PhaseSpec {
                    name: "typical".to_string(),
                    duration_s: 2.63e6,
                    dt_k: 0.0,
                    vdd_v: 1.2,
                },
                PhaseSpec {
                    name: "turbo".to_string(),
                    duration_s: 2.63e6,
                    dt_k: 10.0,
                    vdd_v: 1.26,
                },
            ],
            steps_per_phase: 1,
            repeat: 30,
        };
        let restored = ManageSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(restored, spec);
        // Validation failures.
        assert!(ManageSpec::from_json("nope").is_err());
        let mut bad = spec.clone();
        bad.phases.clear();
        assert!(ManageSpec::from_json(&bad.to_json()).is_err());
        let mut bad = spec.clone();
        bad.steps_per_phase = 0;
        assert!(ManageSpec::from_json(&bad.to_json()).is_err());
        let mut bad = spec.clone();
        bad.phases[0].duration_s = -1.0;
        assert!(ManageSpec::from_json(&bad.to_json()).is_err());
        let mut bad = spec;
        bad.policy.budget = 0.0;
        assert!(ManageSpec::from_json(&bad.to_json()).is_err());
    }
}
