//! The facade error type: one enum wrapping every substrate failure plus
//! the facade's own spec/artifact diagnostics, so [`crate::Session`] and
//! [`crate::serve()`] callers handle a single error type.

use statobd_circuits::CircuitError;
use statobd_core::CoreError;
use statobd_device::DeviceError;
use statobd_manager::ManagerError;
use statobd_num::json::JsonError;
use statobd_thermal::ThermalError;
use statobd_variation::VariationError;

/// Errors from the facade pipeline (spec → build/load → query).
#[derive(Debug)]
pub enum Error {
    /// The analysis spec itself is invalid.
    Spec(String),
    /// A cached artifact failed validation (version, hash, checksum or
    /// payload structure).
    Artifact(String),
    /// JSON parsing or structural validation failed.
    Json(JsonError),
    /// Filesystem access failed (path included in the message).
    Io(String),
    /// The chip-level reliability engines failed.
    Core(CoreError),
    /// The benchmark construction pipeline failed.
    Circuit(CircuitError),
    /// The variation-model construction failed.
    Variation(VariationError),
    /// The thermal substrate failed.
    Thermal(ThermalError),
    /// The device/technology model rejected its parameters.
    Device(DeviceError),
    /// The dynamic reliability manager failed.
    Manager(ManagerError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Spec(detail) => write!(f, "invalid spec: {detail}"),
            Error::Artifact(detail) => write!(f, "invalid artifact: {detail}"),
            Error::Json(e) => write!(f, "json: {e}"),
            Error::Io(detail) => write!(f, "io: {detail}"),
            Error::Core(e) => write!(f, "{e}"),
            Error::Circuit(e) => write!(f, "{e}"),
            Error::Variation(e) => write!(f, "{e}"),
            Error::Thermal(e) => write!(f, "{e}"),
            Error::Device(e) => write!(f, "{e}"),
            Error::Manager(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Circuit(e) => Some(e),
            Error::Variation(e) => Some(e),
            Error::Thermal(e) => Some(e),
            Error::Device(e) => Some(e),
            Error::Manager(e) => Some(e),
            Error::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<CircuitError> for Error {
    fn from(e: CircuitError) -> Self {
        Error::Circuit(e)
    }
}

impl From<VariationError> for Error {
    fn from(e: VariationError) -> Self {
        Error::Variation(e)
    }
}

impl From<ThermalError> for Error {
    fn from(e: ThermalError) -> Self {
        Error::Thermal(e)
    }
}

impl From<DeviceError> for Error {
    fn from(e: DeviceError) -> Self {
        Error::Device(e)
    }
}

impl From<ManagerError> for Error {
    fn from(e: ManagerError) -> Self {
        Error::Manager(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error::Json(e)
    }
}

impl From<statobd_num::NumError> for Error {
    fn from(e: statobd_num::NumError) -> Self {
        Error::Core(CoreError::from(e))
    }
}

/// Convenience result alias for the facade.
pub type Result<T> = std::result::Result<T, Error>;
