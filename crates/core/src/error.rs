use rds::DpiId;
use std::error::Error;
use std::fmt;

/// Errors from the elastic process runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The Translator rejected the delegated program.
    Translation(dpl::DplError),
    /// No dp with this name is in the repository.
    NoSuchProgram {
        /// The requested dp name.
        name: String,
    },
    /// No live dpi with this id.
    NoSuchInstance(DpiId),
    /// The dpi is in a state where the operation is illegal.
    BadState {
        /// The instance.
        dpi: DpiId,
        /// Its current state.
        state: rds::DpiState,
        /// The operation that was attempted.
        operation: &'static str,
    },
    /// The invocation faulted (type error, budget exhaustion, ...).
    Runtime(dpl::RuntimeError),
    /// The configured dpi limit was reached.
    TooManyInstances {
        /// The configured limit.
        limit: usize,
    },
    /// A dp with this name already exists and overwrite was not requested.
    ProgramExists {
        /// The conflicting name.
        name: String,
    },
    /// The durability layer failed (WAL append, snapshot write,
    /// recovery I/O).
    Durability {
        /// What went wrong.
        message: String,
    },
    /// A checkpoint blob could not be decoded or recompiled.
    BadCheckpoint {
        /// What went wrong.
        message: String,
    },
    /// The checkpoint blob's single-use nonce was already burned on
    /// this server (double-install attempt).
    NonceReused,
    /// Restore would overwrite a dpi id that is still in the table.
    InstanceExists {
        /// The conflicting id.
        dpi: DpiId,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Translation(e) => write!(f, "translation rejected: {e}"),
            CoreError::NoSuchProgram { name } => write!(f, "no such program `{name}`"),
            CoreError::NoSuchInstance(dpi) => write!(f, "no such instance {dpi}"),
            CoreError::BadState { dpi, state, operation } => {
                write!(f, "{dpi} is {state}; cannot {operation}")
            }
            CoreError::Runtime(e) => write!(f, "runtime fault: {e}"),
            CoreError::TooManyInstances { limit } => {
                write!(f, "instance limit {limit} reached")
            }
            CoreError::ProgramExists { name } => write!(f, "program `{name}` already exists"),
            CoreError::Durability { message } => write!(f, "durability failure: {message}"),
            CoreError::BadCheckpoint { message } => write!(f, "bad checkpoint: {message}"),
            CoreError::NonceReused => write!(f, "checkpoint nonce already used on this server"),
            CoreError::InstanceExists { dpi } => {
                write!(f, "instance {dpi} already exists; cannot restore over it")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Translation(e) => Some(e),
            CoreError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dpl::DplError> for CoreError {
    fn from(e: dpl::DplError) -> CoreError {
        match e {
            dpl::DplError::Runtime(r) => CoreError::Runtime(r),
            other => CoreError::Translation(other),
        }
    }
}

impl From<dpl::RuntimeError> for CoreError {
    fn from(e: dpl::RuntimeError) -> CoreError {
        CoreError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::BadState {
            dpi: DpiId(3),
            state: rds::DpiState::Suspended,
            operation: "invoke",
        };
        let s = e.to_string();
        assert!(s.contains("dpi-3"));
        assert!(s.contains("suspended"));
        assert!(s.contains("invoke"));
    }

    #[test]
    fn dpl_errors_split_into_translation_and_runtime() {
        let t: CoreError =
            dpl::DplError::Check(dpl::CheckError::DuplicateFunction { name: "f".to_string() })
                .into();
        assert!(matches!(t, CoreError::Translation(_)));
        let r: CoreError = dpl::DplError::Runtime(dpl::RuntimeError::OutOfFuel).into();
        assert!(matches!(r, CoreError::Runtime(_)));
    }
}
