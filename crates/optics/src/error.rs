//! Error type for optics configuration.

use std::error::Error;
use std::fmt;

/// Errors from optical-system configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpticsError {
    /// A physical parameter was out of range.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// Why it was rejected.
        message: String,
    },
    /// A simulator was requested with no process conditions.
    NoConditions,
    /// The sampled pupil support contains no frequency points — the
    /// simulation grid is too coarse for the optical cutoff.
    EmptyPupilSupport,
}

impl OpticsError {
    pub(crate) fn param(name: &'static str, message: impl Into<String>) -> Self {
        OpticsError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

impl fmt::Display for OpticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpticsError::InvalidParameter { name, message } => {
                write!(f, "invalid optical parameter '{name}': {message}")
            }
            OpticsError::NoConditions => write!(f, "need at least one process condition"),
            OpticsError::EmptyPupilSupport => {
                write!(f, "pupil support is empty - grid too coarse for the cutoff")
            }
        }
    }
}

impl Error for OpticsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_parameter() {
        let e = OpticsError::param("na", "must be positive");
        assert_eq!(
            e.to_string(),
            "invalid optical parameter 'na': must be positive"
        );
    }
}
