//! Error type for the provider substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by provider control planes.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProviderError {
    /// An unknown provider name was parsed.
    UnknownProvider(String),
    /// An unknown rerouting method was parsed.
    UnknownRerouting(String),
    /// The requested rerouting method is not offered by this provider or
    /// not available on the customer's plan.
    ReroutingUnavailable {
        /// Provider name.
        provider: String,
        /// The requested method.
        method: String,
        /// Why it is unavailable.
        reason: String,
    },
    /// The domain is already enrolled.
    AlreadyEnrolled {
        /// The apex domain.
        domain: String,
    },
    /// The domain is not enrolled.
    NotEnrolled {
        /// The apex domain.
        domain: String,
    },
    /// A zone record was asked for a name outside the customer's domain.
    OutsideZone {
        /// The customer's apex domain.
        domain: String,
        /// The rejected record name.
        name: String,
    },
    /// Provisioning failed (e.g. address pools exhausted).
    Provisioning {
        /// The apex domain.
        domain: String,
        /// Failure detail.
        reason: String,
    },
}

impl fmt::Display for ProviderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProviderError::UnknownProvider(s) => write!(f, "unknown provider {s:?}"),
            ProviderError::UnknownRerouting(s) => write!(f, "unknown rerouting method {s:?}"),
            ProviderError::ReroutingUnavailable {
                provider,
                method,
                reason,
            } => write!(
                f,
                "{provider} cannot provision {method} rerouting: {reason}"
            ),
            ProviderError::AlreadyEnrolled { domain } => {
                write!(f, "{domain} is already enrolled")
            }
            ProviderError::NotEnrolled { domain } => write!(f, "{domain} is not enrolled"),
            ProviderError::OutsideZone { domain, name } => {
                write!(f, "{name} lies outside the zone of {domain}")
            }
            ProviderError::Provisioning { domain, reason } => {
                write!(f, "provisioning {domain} failed: {reason}")
            }
        }
    }
}

impl Error for ProviderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ProviderError::ReroutingUnavailable {
            provider: "Cloudflare".into(),
            method: "CNAME".into(),
            reason: "requires business plan".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("Cloudflare"));
        assert!(msg.contains("CNAME"));
        assert!(msg.contains("business"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ProviderError>();
    }
}
