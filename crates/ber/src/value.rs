use crate::{Oid, Tag};
use std::fmt;

/// A decoded BER value: the dynamic counterpart of the typed reader/writer
/// API, used where a message field may hold any SNMP/RDS type (for example a
/// VarBind value).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BerValue {
    /// Universal INTEGER (two's-complement, up to 64 bits here).
    Integer(i64),
    /// Universal OCTET STRING.
    OctetString(Vec<u8>),
    /// Universal NULL.
    Null,
    /// Universal OBJECT IDENTIFIER.
    ObjectId(Oid),
    /// Universal SEQUENCE of nested values.
    Sequence(Vec<BerValue>),
    /// SNMP IpAddress (application 0): four octets.
    IpAddress([u8; 4]),
    /// SNMP Counter32 (application 1): monotonically wrapping counter.
    Counter32(u32),
    /// SNMP Gauge32 (application 2): non-wrapping gauge.
    Gauge32(u32),
    /// SNMP TimeTicks (application 3): hundredths of a second.
    TimeTicks(u32),
    /// SNMP Opaque (application 4): arbitrary bytes.
    Opaque(Vec<u8>),
    /// A constructed value under a context-specific tag (SNMP PDUs).
    ContextConstructed(u8, Vec<BerValue>),
}

impl BerValue {
    /// The BER tag this value encodes under.
    pub fn tag(&self) -> Tag {
        match self {
            BerValue::Integer(_) => Tag::INTEGER,
            BerValue::OctetString(_) => Tag::OCTET_STRING,
            BerValue::Null => Tag::NULL,
            BerValue::ObjectId(_) => Tag::OID,
            BerValue::Sequence(_) => Tag::SEQUENCE,
            BerValue::IpAddress(_) => Tag::IP_ADDRESS,
            BerValue::Counter32(_) => Tag::COUNTER32,
            BerValue::Gauge32(_) => Tag::GAUGE32,
            BerValue::TimeTicks(_) => Tag::TIME_TICKS,
            BerValue::Opaque(_) => Tag::OPAQUE,
            BerValue::ContextConstructed(n, _) => Tag::context(*n),
        }
    }

    /// Returns the integer payload if this is any integral variant
    /// (INTEGER, Counter32, Gauge32 or TimeTicks).
    ///
    /// # Examples
    ///
    /// ```
    /// use ber::BerValue;
    /// assert_eq!(BerValue::Counter32(7).as_i64(), Some(7));
    /// assert_eq!(BerValue::Null.as_i64(), None);
    /// ```
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            BerValue::Integer(v) => Some(*v),
            BerValue::Counter32(v) | BerValue::Gauge32(v) | BerValue::TimeTicks(v) => {
                Some(i64::from(*v))
            }
            _ => None,
        }
    }

    /// Returns the byte payload if this is an OCTET STRING or Opaque.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            BerValue::OctetString(b) | BerValue::Opaque(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the OID payload if this is an OBJECT IDENTIFIER.
    pub fn as_oid(&self) -> Option<&Oid> {
        match self {
            BerValue::ObjectId(o) => Some(o),
            _ => None,
        }
    }

    /// Number of bytes this value occupies when encoded (tag + length +
    /// content). Exact, computed without encoding; used by the traffic
    /// experiments to account message sizes.
    pub fn encoded_len(&self) -> usize {
        let content = self.content_len();
        1 + length_of_length(content) + content
    }

    /// Whether this value nests more than `levels` constructed values,
    /// one inside the next. Past [`crate::MAX_DEPTH`] no
    /// [`crate::BerReader`] decodes it. Looks no deeper than `levels`.
    pub fn nests_deeper_than(&self, levels: usize) -> bool {
        match self {
            BerValue::Sequence(items) | BerValue::ContextConstructed(_, items) => {
                levels == 0 || items.iter().any(|v| v.nests_deeper_than(levels - 1))
            }
            _ => false,
        }
    }

    fn content_len(&self) -> usize {
        match self {
            BerValue::Integer(v) => crate::writer::integer_content_len(*v),
            BerValue::OctetString(b) | BerValue::Opaque(b) => b.len(),
            BerValue::Null => 0,
            BerValue::ObjectId(o) => o.encode_content().len(),
            BerValue::IpAddress(_) => 4,
            BerValue::Counter32(v) | BerValue::Gauge32(v) | BerValue::TimeTicks(v) => {
                crate::writer::unsigned_content_len(*v)
            }
            BerValue::Sequence(items) | BerValue::ContextConstructed(_, items) => {
                items.iter().map(BerValue::encoded_len).sum()
            }
        }
    }
}

/// Number of bytes needed to encode a definite length.
pub(crate) fn length_of_length(content_len: usize) -> usize {
    if content_len < 128 {
        1
    } else {
        1 + (usize::BITS as usize / 8 - (content_len.leading_zeros() as usize) / 8)
    }
}

impl fmt::Display for BerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BerValue::Integer(v) => write!(f, "{v}"),
            BerValue::OctetString(b) => match std::str::from_utf8(b) {
                Ok(s) => write!(f, "{s:?}"),
                Err(_) => write!(f, "0x{}", hex(b)),
            },
            BerValue::Null => write!(f, "NULL"),
            BerValue::ObjectId(o) => write!(f, "{o}"),
            BerValue::IpAddress(a) => write!(f, "{}.{}.{}.{}", a[0], a[1], a[2], a[3]),
            BerValue::Counter32(v) => write!(f, "Counter32({v})"),
            BerValue::Gauge32(v) => write!(f, "Gauge32({v})"),
            BerValue::TimeTicks(v) => write!(f, "TimeTicks({v})"),
            BerValue::Opaque(b) => write!(f, "Opaque(0x{})", hex(b)),
            BerValue::Sequence(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
            BerValue::ContextConstructed(n, items) => {
                write!(f, "[{n}]{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl From<i64> for BerValue {
    fn from(v: i64) -> BerValue {
        BerValue::Integer(v)
    }
}

impl From<&str> for BerValue {
    fn from(s: &str) -> BerValue {
        BerValue::OctetString(s.as_bytes().to_vec())
    }
}

impl From<Oid> for BerValue {
    fn from(o: Oid) -> BerValue {
        BerValue::ObjectId(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_variants() {
        assert_eq!(BerValue::Integer(1).tag(), Tag::INTEGER);
        assert_eq!(BerValue::Null.tag(), Tag::NULL);
        assert_eq!(BerValue::Counter32(1).tag(), Tag::COUNTER32);
        assert_eq!(BerValue::ContextConstructed(2, vec![]).tag(), Tag::context(2));
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let values = vec![
            BerValue::Integer(0),
            BerValue::Integer(-129),
            BerValue::Integer(i64::MAX),
            BerValue::OctetString(vec![0u8; 300]),
            BerValue::Null,
            BerValue::ObjectId("1.3.6.1.2.1.2.2.1.10.1".parse().unwrap()),
            BerValue::IpAddress([192, 168, 0, 1]),
            BerValue::Counter32(u32::MAX),
            BerValue::Gauge32(0),
            BerValue::TimeTicks(123_456),
            BerValue::Opaque(vec![1, 2, 3]),
            BerValue::Sequence(vec![
                BerValue::Integer(5),
                BerValue::OctetString(b"public".to_vec()),
                BerValue::Sequence(vec![BerValue::Null]),
            ]),
            BerValue::ContextConstructed(0, vec![BerValue::Integer(1)]),
        ];
        for v in values {
            assert_eq!(v.encoded_len(), crate::encode(&v).len(), "value {v:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(BerValue::from("hi").to_string(), "\"hi\"");
        assert_eq!(BerValue::IpAddress([10, 0, 0, 1]).to_string(), "10.0.0.1");
        assert_eq!(
            BerValue::Sequence(vec![BerValue::Integer(1), BerValue::Null]).to_string(),
            "{1, NULL}"
        );
    }

    #[test]
    fn as_accessors() {
        assert_eq!(BerValue::Integer(-2).as_i64(), Some(-2));
        assert_eq!(BerValue::TimeTicks(9).as_i64(), Some(9));
        assert_eq!(BerValue::from("x").as_bytes(), Some(&b"x"[..]));
        let oid: Oid = "1.3".parse().unwrap();
        assert_eq!(BerValue::ObjectId(oid.clone()).as_oid(), Some(&oid));
        assert_eq!(BerValue::Null.as_bytes(), None);
    }
}
