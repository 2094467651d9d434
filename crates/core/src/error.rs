//! Error type for the measurement toolkit.

use std::error::Error;
use std::fmt;

/// Errors produced by the measurement toolkit.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An underlying DNS operation failed irrecoverably.
    Dns(remnant_dns::DnsError),
    /// A study was configured inconsistently.
    Config(String),
    /// A scan prerequisite is missing (e.g. no harvested nameservers).
    MissingPrerequisite(String),
}

/// The workspace's named configuration-validation failure.
///
/// Defined in `remnant-engine` (the bottom of the dependency graph) and
/// re-exported here so `EngineConfig`, `StudyConfig` and the `repro`
/// harness's `ReproConfig` all reject fields with one type and one
/// rendering.
pub use remnant_engine::ConfigFieldError;

impl From<ConfigFieldError> for CoreError {
    fn from(e: ConfigFieldError) -> Self {
        CoreError::Config(e.to_string())
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dns(e) => write!(f, "dns failure: {e}"),
            CoreError::Config(msg) => write!(f, "invalid study configuration: {msg}"),
            CoreError::MissingPrerequisite(msg) => write!(f, "missing prerequisite: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Dns(e) => Some(e),
            _ => None,
        }
    }
}

impl From<remnant_dns::DnsError> for CoreError {
    fn from(e: remnant_dns::DnsError) -> Self {
        CoreError::Dns(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_dns_errors_with_source() {
        let inner = remnant_dns::DnsError::Timeout {
            name: "x.com".into(),
        };
        let err = CoreError::from(inner.clone());
        assert!(err.to_string().contains("x.com"));
        assert!(err.source().is_some());
        assert_eq!(err, CoreError::Dns(inner));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CoreError>();
    }
}
