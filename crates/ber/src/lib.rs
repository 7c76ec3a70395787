//! A small ASN.1 Basic Encoding Rules (BER) implementation.
//!
//! This crate implements the subset of ITU-T X.690 BER needed by the SNMPv1
//! message codec and by the Remote Delegation Service (RDS) message headers,
//! mirroring the 1991 MbD prototype, which "uses the ASN.1 Basic Encoding
//! Rules to encode RDS message headers".
//!
//! Supported universal types: `INTEGER`, `OCTET STRING`, `NULL`,
//! `OBJECT IDENTIFIER`, and `SEQUENCE`; plus the SNMP application types
//! `IpAddress`, `Counter32`, `Gauge32`, `TimeTicks` and `Opaque`, and
//! context-tagged constructed types (used for SNMP PDUs).
//!
//! Only *definite* lengths are produced and accepted, as required by the
//! SNMP mapping of BER.
//!
//! # Examples
//!
//! ```
//! use ber::{BerWriter, BerReader, Oid};
//!
//! let mut w = BerWriter::new();
//! w.write_sequence(|w| {
//!     w.write_i64(42);
//!     w.write_octet_string(b"public");
//!     w.write_oid(&Oid::from_slice(&[1, 3, 6, 1, 2, 1, 1, 1, 0]));
//! });
//! let bytes = w.into_bytes();
//!
//! let mut r = BerReader::new(&bytes);
//! r.read_sequence(|r| {
//!     assert_eq!(r.read_i64()?, 42);
//!     assert_eq!(r.read_octet_string()?, b"public");
//!     assert_eq!(r.read_oid()?.as_slice(), &[1, 3, 6, 1, 2, 1, 1, 1, 0]);
//!     Ok(())
//! }).unwrap();
//! ```

mod error;
mod oid;
mod reader;
mod tag;
mod value;
mod writer;

pub use error::BerError;
pub use oid::{Oid, ParseOidError};
pub use reader::{BerReader, MAX_DEPTH};
pub use tag::{Class, Tag};
pub use value::BerValue;
pub use writer::BerWriter;

/// Convenience: encode a single [`BerValue`] to bytes.
///
/// # Examples
///
/// ```
/// let bytes = ber::encode(&ber::BerValue::Integer(5));
/// assert_eq!(bytes, vec![0x02, 0x01, 0x05]);
/// ```
pub fn encode(value: &BerValue) -> Vec<u8> {
    let mut w = BerWriter::new();
    w.write_value(value);
    w.into_bytes()
}

/// Convenience: decode a single [`BerValue`] from bytes, requiring that the
/// whole input is consumed.
///
/// # Errors
///
/// Returns [`BerError`] if the input is not a single well-formed BER value.
///
/// # Examples
///
/// ```
/// let v = ber::decode(&[0x02, 0x01, 0x05]).unwrap();
/// assert_eq!(v, ber::BerValue::Integer(5));
/// ```
pub fn decode(bytes: &[u8]) -> Result<BerValue, BerError> {
    let mut r = BerReader::new(bytes);
    let v = r.read_value()?;
    r.expect_end()?;
    Ok(v)
}
