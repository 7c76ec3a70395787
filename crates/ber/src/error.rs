use std::error::Error;
use std::fmt;

/// Error produced while decoding (or validating) BER data.
///
/// Encoding is infallible in this crate; all variants describe malformed or
/// unsupported input encountered by [`crate::BerReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BerError {
    /// Input ended in the middle of a tag, length, or content octets.
    UnexpectedEof,
    /// A definite length field was malformed or too large for this platform.
    BadLength,
    /// Indefinite lengths are not allowed by the SNMP mapping of BER.
    IndefiniteLength,
    /// The decoded tag differs from the tag the caller required.
    TagMismatch {
        /// Tag the caller asked for.
        expected: crate::Tag,
        /// Tag actually present in the input.
        found: crate::Tag,
    },
    /// An INTEGER's content octets were empty, non-minimal, or too wide.
    BadInteger,
    /// An OBJECT IDENTIFIER's content octets were malformed.
    BadOid,
    /// A constructed value's contents did not fill its declared length.
    TrailingBytes,
    /// Multi-byte (high) tag numbers are not used by SNMP or RDS.
    HighTagNumber,
    /// A primitive value carried the constructed bit, or vice versa.
    WrongConstruction,
    /// Constructed values nested deeper than [`crate::MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for BerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BerError::UnexpectedEof => write!(f, "unexpected end of BER input"),
            BerError::BadLength => write!(f, "malformed or oversized BER length"),
            BerError::IndefiniteLength => write!(f, "indefinite BER length is not supported"),
            BerError::TagMismatch { expected, found } => {
                write!(f, "BER tag mismatch: expected {expected}, found {found}")
            }
            BerError::BadInteger => write!(f, "malformed BER integer"),
            BerError::BadOid => write!(f, "malformed BER object identifier"),
            BerError::TrailingBytes => write!(f, "trailing bytes after BER value"),
            BerError::HighTagNumber => write!(f, "high (multi-byte) BER tag numbers unsupported"),
            BerError::WrongConstruction => {
                write!(f, "BER primitive/constructed bit does not match type")
            }
            BerError::TooDeep => write!(f, "BER values nested too deeply"),
        }
    }
}

impl Error for BerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Class, Tag};

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            BerError::UnexpectedEof,
            BerError::BadLength,
            BerError::IndefiniteLength,
            BerError::TagMismatch {
                expected: Tag::new(Class::Universal, 2),
                found: Tag::new(Class::Universal, 4),
            },
            BerError::BadInteger,
            BerError::BadOid,
            BerError::TrailingBytes,
            BerError::HighTagNumber,
            BerError::WrongConstruction,
            BerError::TooDeep,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BerError>();
    }
}
