//! The benchmark designs of the paper's evaluation (Sec. V).
//!
//! Six designs: C1–C5 are synthetic circuits from 50 K to 0.5 M devices
//! (deterministically generated), and C6 is an Alpha-processor-class
//! design with 15 functional modules and ~0.84 M transistors. A 16-core
//! many-core design (the second panel of the paper's Fig. 1) is included
//! as an extra.
//!
//! [`build_design`] runs the full substrate pipeline for a benchmark:
//! floorplan → architectural power → steady-state thermal solve →
//! block-level worst-case temperatures → [`statobd_core::ChipSpec`] with
//! the device distribution over the correlation grids.
//!
//! # Example
//!
//! ```
//! use statobd_circuits::{build_design, Benchmark, DesignConfig};
//!
//! let built = build_design(Benchmark::C1, &DesignConfig::default())?;
//! assert_eq!(built.spec.total_devices(), Benchmark::C1.target_devices());
//! // The thermal profile shows Fig. 1 structure: a hot-to-cool spread.
//! assert!(built.map.max_k() - built.map.min_k() > 5.0);
//! # Ok::<(), statobd_circuits::CircuitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod synthetic;

pub use builder::{build_design, BuiltDesign, DesignConfig};
pub use synthetic::synthetic_floorplan;

use statobd_core::CoreError;
use statobd_thermal::ThermalError;

/// The benchmark designs of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Synthetic, 50 K devices, 6 blocks.
    C1,
    /// Synthetic, 80 K devices, 8 blocks.
    C2,
    /// Synthetic, 0.1 M devices, 10 blocks.
    C3,
    /// Synthetic, 0.2 M devices, 12 blocks.
    C4,
    /// Synthetic, 0.5 M devices, 14 blocks.
    C5,
    /// Alpha-processor-class design, 15 functional modules, ~0.84 M
    /// transistors.
    C6,
    /// Extra: the 16-core many-core design of Fig. 1(b).
    ManyCore16,
}

impl Benchmark {
    /// Every bundled design, in order: the six Table III circuits plus the
    /// 16-core many-core extra.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::C1,
        Benchmark::C2,
        Benchmark::C3,
        Benchmark::C4,
        Benchmark::C5,
        Benchmark::C6,
        Benchmark::ManyCore16,
    ];

    /// Parses a benchmark name (case-insensitive: `C1`..`C6`, `MC16`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] listing the valid names
    /// if `s` matches none of them.
    pub fn parse(s: &str) -> Result<Self> {
        Benchmark::ALL
            .iter()
            .copied()
            .find(|b| b.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
                CircuitError::InvalidParameter {
                    detail: format!("unknown benchmark '{s}' (one of: {})", names.join(", ")),
                }
            })
    }

    /// The six designs of Table III, in order.
    pub fn table_iii() -> [Benchmark; 6] {
        [
            Benchmark::C1,
            Benchmark::C2,
            Benchmark::C3,
            Benchmark::C4,
            Benchmark::C5,
            Benchmark::C6,
        ]
    }

    /// The display name used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::C1 => "C1",
            Benchmark::C2 => "C2",
            Benchmark::C3 => "C3",
            Benchmark::C4 => "C4",
            Benchmark::C5 => "C5",
            Benchmark::C6 => "C6",
            Benchmark::ManyCore16 => "MC16",
        }
    }

    /// Total device count of the design.
    pub fn target_devices(&self) -> u64 {
        match self {
            Benchmark::C1 => 50_000,
            Benchmark::C2 => 80_000,
            Benchmark::C3 => 100_000,
            Benchmark::C4 => 200_000,
            Benchmark::C5 => 500_000,
            Benchmark::C6 => 840_000,
            Benchmark::ManyCore16 => 640_000,
        }
    }

    /// Number of temperature-uniform blocks.
    pub fn n_blocks(&self) -> usize {
        match self {
            Benchmark::C1 => 6,
            Benchmark::C2 => 8,
            Benchmark::C3 => 10,
            Benchmark::C4 => 12,
            Benchmark::C5 => 14,
            Benchmark::C6 => 15,
            Benchmark::ManyCore16 => 16,
        }
    }

    /// Deterministic seed for the synthetic generator.
    pub fn seed(&self) -> u64 {
        match self {
            Benchmark::C1 => 101,
            Benchmark::C2 => 102,
            Benchmark::C3 => 103,
            Benchmark::C4 => 104,
            Benchmark::C5 => 105,
            Benchmark::C6 => 106,
            Benchmark::ManyCore16 => 107,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl statobd_num::json::ToJson for Benchmark {
    fn to_json(&self) -> statobd_num::json::Json {
        statobd_num::json::Json::String(self.name().to_string())
    }
}

impl statobd_num::json::FromJson for Benchmark {
    fn from_json(
        json: &statobd_num::json::Json,
    ) -> std::result::Result<Self, statobd_num::json::JsonError> {
        let name = json
            .as_str()
            .ok_or_else(|| statobd_num::json::JsonError::new("benchmark: expected a string"))?;
        Benchmark::parse(name).map_err(|e| statobd_num::json::JsonError::new(e.to_string()))
    }
}

/// Errors from the benchmark construction pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A configuration parameter was invalid.
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
    /// The thermal substrate failed.
    Thermal(ThermalError),
    /// The reliability-spec construction failed.
    Core(CoreError),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            CircuitError::Thermal(e) => write!(f, "thermal substrate failed: {e}"),
            CircuitError::Core(e) => write!(f, "spec construction failed: {e}"),
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Thermal(e) => Some(e),
            CircuitError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ThermalError> for CircuitError {
    fn from(e: ThermalError) -> Self {
        CircuitError::Thermal(e)
    }
}

impl From<CoreError> for CircuitError {
    fn from(e: CoreError) -> Self {
        CircuitError::Core(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CircuitError>;

#[cfg(test)]
mod tests {
    use super::*;
    use statobd_num::json::{FromJson, ToJson};

    #[test]
    fn parse_accepts_every_name_case_insensitively() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.name()).unwrap(), b);
            assert_eq!(Benchmark::parse(&b.name().to_lowercase()).unwrap(), b);
        }
    }

    #[test]
    fn parse_lists_the_menu_on_failure() {
        let err = Benchmark::parse("C9").unwrap_err().to_string();
        assert!(err.contains("C9") && err.contains("MC16"), "{err}");
    }

    #[test]
    fn benchmark_json_round_trips_as_its_name() {
        for b in Benchmark::ALL {
            let json = b.to_json();
            assert_eq!(json.as_str(), Some(b.name()));
            assert_eq!(Benchmark::from_json(&json).unwrap(), b);
        }
        assert!(Benchmark::from_json(&statobd_num::json::Json::Number(3.0)).is_err());
    }
}
