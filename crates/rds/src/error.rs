use std::error::Error;
use std::fmt;

/// Error codes an RDS server can return (stable wire integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The delegated program failed translation (lexical/syntactic/binding
    /// rules) and was rejected.
    TranslationFailed,
    /// The named dp is not in the repository.
    NoSuchProgram,
    /// The dpi id does not name a live instance.
    NoSuchInstance,
    /// The requested operation is illegal in the instance's current state.
    BadState,
    /// The principal is not authorized for this operation.
    AccessDenied,
    /// Digest authentication failed.
    AuthFailed,
    /// The invocation faulted at runtime (budget or error).
    RuntimeFault,
    /// Anything else.
    Internal,
    /// The server is overloaded and shed this request before doing any
    /// work — safe to retry after a backoff.
    Busy,
}

impl ErrorCode {
    /// The wire integer for this code.
    pub fn code(self) -> i64 {
        match self {
            ErrorCode::TranslationFailed => 1,
            ErrorCode::NoSuchProgram => 2,
            ErrorCode::NoSuchInstance => 3,
            ErrorCode::BadState => 4,
            ErrorCode::AccessDenied => 5,
            ErrorCode::AuthFailed => 6,
            ErrorCode::RuntimeFault => 7,
            ErrorCode::Internal => 8,
            ErrorCode::Busy => 9,
        }
    }

    /// Parses a wire integer, mapping unknown codes to `Internal`.
    pub fn from_code(code: i64) -> ErrorCode {
        match code {
            1 => ErrorCode::TranslationFailed,
            2 => ErrorCode::NoSuchProgram,
            3 => ErrorCode::NoSuchInstance,
            4 => ErrorCode::BadState,
            5 => ErrorCode::AccessDenied,
            6 => ErrorCode::AuthFailed,
            7 => ErrorCode::RuntimeFault,
            9 => ErrorCode::Busy,
            _ => ErrorCode::Internal,
        }
    }

    /// Whether a request that failed with this code may safely be
    /// retried verbatim. Only [`ErrorCode::Busy`] qualifies: the server
    /// promises it shed the request before executing any effect. Every
    /// other code is an answer, not a delivery failure.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Busy)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::TranslationFailed => "translation failed",
            ErrorCode::NoSuchProgram => "no such program",
            ErrorCode::NoSuchInstance => "no such instance",
            ErrorCode::BadState => "operation illegal in current state",
            ErrorCode::AccessDenied => "access denied",
            ErrorCode::AuthFailed => "authentication failed",
            ErrorCode::RuntimeFault => "runtime fault",
            ErrorCode::Internal => "internal error",
            ErrorCode::Busy => "server busy",
        };
        f.write_str(s)
    }
}

/// Errors surfaced to RDS clients.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RdsError {
    /// Malformed wire data.
    Codec(ber::BerError),
    /// The transport failed to deliver or the peer is gone.
    Transport {
        /// Description of the failure.
        message: String,
    },
    /// The server answered with an error.
    Remote {
        /// The server's error code.
        code: ErrorCode,
        /// Detail text.
        message: String,
    },
    /// A received message failed digest verification.
    BadDigest,
    /// Unknown operation tag on the wire.
    UnknownOperation(u8),
}

impl fmt::Display for RdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdsError::Codec(e) => write!(f, "codec error: {e}"),
            RdsError::Transport { message } => write!(f, "transport error: {message}"),
            RdsError::Remote { code, message } => write!(f, "remote error ({code}): {message}"),
            RdsError::BadDigest => write!(f, "message digest verification failed"),
            RdsError::UnknownOperation(op) => write!(f, "unknown RDS operation tag {op}"),
        }
    }
}

impl Error for RdsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RdsError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ber::BerError> for RdsError {
    fn from(e: ber::BerError) -> RdsError {
        RdsError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for c in [
            ErrorCode::TranslationFailed,
            ErrorCode::NoSuchProgram,
            ErrorCode::NoSuchInstance,
            ErrorCode::BadState,
            ErrorCode::AccessDenied,
            ErrorCode::AuthFailed,
            ErrorCode::RuntimeFault,
            ErrorCode::Internal,
            ErrorCode::Busy,
        ] {
            assert_eq!(ErrorCode::from_code(c.code()), c);
        }
        assert_eq!(ErrorCode::from_code(999), ErrorCode::Internal);
    }

    #[test]
    fn only_busy_is_retryable() {
        assert!(ErrorCode::Busy.is_retryable());
        for c in [ErrorCode::BadState, ErrorCode::RuntimeFault, ErrorCode::Internal] {
            assert!(!c.is_retryable(), "{c:?} must not be retried");
        }
    }

    #[test]
    fn displays_are_informative() {
        let e = RdsError::Remote { code: ErrorCode::NoSuchProgram, message: "dp x".to_string() };
        assert!(e.to_string().contains("no such program"));
        assert!(e.to_string().contains("dp x"));
    }
}
