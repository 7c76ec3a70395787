use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// An ASN.1 OBJECT IDENTIFIER: a sequence of non-negative integer arcs.
///
/// OIDs name every managed object in an SNMP MIB; lexicographic ordering of
/// OIDs defines the `GetNext` traversal order, so `Oid` implements `Ord`
/// with exactly that ordering (component-wise, shorter prefix first).
///
/// # Examples
///
/// ```
/// use ber::Oid;
///
/// let sys_descr: Oid = "1.3.6.1.2.1.1.1.0".parse().unwrap();
/// let sys_object_id: Oid = "1.3.6.1.2.1.1.2.0".parse().unwrap();
/// assert!(sys_descr < sys_object_id);
/// assert!(sys_descr.starts_with(&"1.3.6.1.2.1.1".parse().unwrap()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Oid {
    arcs: Vec<u32>,
}

impl Oid {
    /// Creates an empty OID (no arcs). Mostly useful as a sentinel root.
    pub fn new() -> Oid {
        Oid::default()
    }

    /// Creates an OID from a slice of arcs.
    pub fn from_slice(arcs: &[u32]) -> Oid {
        Oid { arcs: arcs.to_vec() }
    }

    /// The arcs of this OID.
    pub fn as_slice(&self) -> &[u32] {
        &self.arcs
    }

    /// Number of arcs.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Whether the OID has no arcs.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Returns a new OID with `arc` appended.
    ///
    /// # Examples
    ///
    /// ```
    /// let base: ber::Oid = "1.3.6".parse().unwrap();
    /// assert_eq!(base.child(1).to_string(), "1.3.6.1");
    /// ```
    pub fn child(&self, arc: u32) -> Oid {
        let mut arcs = self.arcs.clone();
        arcs.push(arc);
        Oid { arcs }
    }

    /// Returns a new OID with all of `suffix`'s arcs appended.
    pub fn extend(&self, suffix: &[u32]) -> Oid {
        let mut arcs = self.arcs.clone();
        arcs.extend_from_slice(suffix);
        Oid { arcs }
    }

    /// Whether `prefix` is a (non-strict) prefix of this OID.
    pub fn starts_with(&self, prefix: &Oid) -> bool {
        self.arcs.len() >= prefix.arcs.len() && self.arcs[..prefix.arcs.len()] == prefix.arcs[..]
    }

    /// The arcs remaining after `prefix`, or `None` if `prefix` does not
    /// prefix this OID. Used to recover a table index from an instance OID.
    pub fn strip_prefix(&self, prefix: &Oid) -> Option<&[u32]> {
        if self.starts_with(prefix) {
            Some(&self.arcs[prefix.arcs.len()..])
        } else {
            None
        }
    }

    /// The parent OID (all arcs but the last), or `None` for an empty OID.
    pub fn parent(&self) -> Option<Oid> {
        if self.arcs.is_empty() {
            None
        } else {
            Some(Oid { arcs: self.arcs[..self.arcs.len() - 1].to_vec() })
        }
    }

    /// Encodes the OID content octets (X.690 §8.19). The first two arcs are
    /// packed into one subidentifier (`40 * arc0 + arc1`); remaining arcs use
    /// base-128 with continuation bits.
    ///
    /// OIDs with fewer than two arcs are padded with zeros when encoded, per
    /// common SNMP library behaviour (the zero-OID encodes as `0.0`).
    pub(crate) fn encode_content(&self) -> Vec<u8> {
        let a0 = self.arcs.first().copied().unwrap_or(0);
        let a1 = self.arcs.get(1).copied().unwrap_or(0);
        let mut out = Vec::with_capacity(self.arcs.len() + 1);
        encode_subidentifier(&mut out, a0 * 40 + a1);
        for &arc in self.arcs.iter().skip(2) {
            encode_subidentifier(&mut out, arc);
        }
        out
    }

    /// Decodes OID content octets.
    pub(crate) fn decode_content(content: &[u8]) -> Result<Oid, crate::BerError> {
        if content.is_empty() {
            return Err(crate::BerError::BadOid);
        }
        let mut subids = Vec::new();
        let mut cur: u64 = 0;
        let mut in_progress = false;
        for &b in content {
            cur = (cur << 7) | u64::from(b & 0x7F);
            if cur > u64::from(u32::MAX) {
                return Err(crate::BerError::BadOid);
            }
            if b & 0x80 != 0 {
                in_progress = true;
            } else {
                subids.push(cur as u32);
                cur = 0;
                in_progress = false;
            }
        }
        if in_progress {
            return Err(crate::BerError::BadOid);
        }
        let first = subids[0];
        let (a0, a1) = if first < 40 {
            (0, first)
        } else if first < 80 {
            (1, first - 40)
        } else {
            (2, first - 80)
        };
        let mut arcs = Vec::with_capacity(subids.len() + 1);
        arcs.push(a0);
        arcs.push(a1);
        arcs.extend_from_slice(&subids[1..]);
        Ok(Oid { arcs })
    }
}

fn encode_subidentifier(out: &mut Vec<u8>, value: u32) {
    let mut buf = [0u8; 5];
    let mut i = buf.len();
    let mut v = value;
    loop {
        i -= 1;
        buf[i] = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            break;
        }
    }
    let last = buf.len() - 1;
    for (j, b) in buf[i..].iter().enumerate() {
        let continuation = if i + j < last { 0x80 } else { 0 };
        out.push(b | continuation);
    }
}

impl fmt::Display for Oid {
    /// Dotted decimal. The text is assembled in a stack buffer and handed
    /// to the formatter with one `write_str` per buffer (one in all for
    /// OIDs under ~60 characters) instead of two `write!`s per arc.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The longest arc text: a dot and `u32::MAX`'s ten digits.
        const ARC_MAX: usize = 11;
        let mut buf = [0u8; 64];
        let mut len = 0;
        for (i, &arc) in self.arcs.iter().enumerate() {
            if len + ARC_MAX > buf.len() {
                f.write_str(ascii(&buf[..len]))?;
                len = 0;
            }
            if i > 0 {
                buf[len] = b'.';
                len += 1;
            }
            let mut digits = [0u8; 10];
            let mut start = digits.len();
            let mut rest = arc;
            loop {
                start -= 1;
                digits[start] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            let digits = &digits[start..];
            buf[len..len + digits.len()].copy_from_slice(digits);
            len += digits.len();
        }
        f.write_str(ascii(&buf[..len]))
    }
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("OID text is ASCII digits and dots")
}

/// Error returned when parsing an OID from dotted-decimal text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOidError;

impl fmt::Display for ParseOidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid dotted-decimal object identifier")
    }
}

impl Error for ParseOidError {}

impl FromStr for Oid {
    type Err = ParseOidError;

    fn from_str(s: &str) -> Result<Oid, ParseOidError> {
        if s.is_empty() {
            return Ok(Oid::new());
        }
        let arcs = s
            .split('.')
            .map(|part| part.parse::<u32>().map_err(|_| ParseOidError))
            .collect::<Result<Vec<u32>, ParseOidError>>()?;
        Ok(Oid { arcs })
    }
}

impl From<&[u32]> for Oid {
    fn from(arcs: &[u32]) -> Oid {
        Oid::from_slice(arcs)
    }
}

impl From<Vec<u32>> for Oid {
    fn from(arcs: Vec<u32>) -> Oid {
        Oid { arcs }
    }
}

impl AsRef<[u32]> for Oid {
    fn as_ref(&self) -> &[u32] {
        &self.arcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["1.3.6.1.2.1", "0.0", "2.999.3", "1.3.6.1.4.1.45.1.3.2"] {
            assert_eq!(oid(s).to_string(), s);
        }
    }

    /// The reference rendering: each arc's `Display`, joined by dots.
    fn joined(arcs: &[u32]) -> String {
        arcs.iter().map(u32::to_string).collect::<Vec<_>>().join(".")
    }

    #[test]
    fn display_text_is_exact() {
        assert_eq!(Oid::new().to_string(), "");
        assert_eq!(Oid::from_slice(&[7]).to_string(), "7");
        assert_eq!(Oid::from_slice(&[0, 0]).to_string(), "0.0");
        assert_eq!(Oid::from_slice(&[u32::MAX]).to_string(), "4294967295");
        assert_eq!(
            Oid::from_slice(&[1, u32::MAX, 0, u32::MAX]).to_string(),
            "1.4294967295.0.4294967295"
        );
        // Long enough to fill and flush the formatting buffer many times,
        // with arcs of every digit count.
        let arcs: Vec<u32> =
            (0..128u32).map(|i| i.wrapping_mul(2_654_435_761) >> (i % 32)).collect();
        assert_eq!(Oid::from_slice(&arcs).to_string(), joined(&arcs));
        let maxed = vec![u32::MAX; 128];
        assert_eq!(Oid::from_slice(&maxed).to_string(), joined(&maxed));
        // Padding flags are ignored, as they were with per-arc `write!`s.
        assert_eq!(format!("{:>12}", Oid::from_slice(&[1, 3])), "1.3");
    }

    proptest::proptest! {
        #[test]
        fn display_parses_back(
            arcs in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::arbitrary::any::<u32>(),
                    0u32..10,
                    proptest::strategy::Just(u32::MAX),
                ],
                0..160,
            )
        ) {
            let o = Oid::from(arcs);
            let text = o.to_string();
            proptest::prop_assert_eq!(&text, &joined(o.as_slice()));
            proptest::prop_assert_eq!(text.parse::<Oid>().unwrap(), o);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("1.3.x".parse::<Oid>().is_err());
        assert!("1..3".parse::<Oid>().is_err());
        assert!("-1.3".parse::<Oid>().is_err());
    }

    #[test]
    fn lexicographic_ordering_matches_getnext_semantics() {
        // Prefix sorts before its children; siblings sort numerically.
        assert!(oid("1.3.6.1") < oid("1.3.6.1.0"));
        assert!(oid("1.3.6.1.2") < oid("1.3.6.1.10"));
        assert!(oid("1.3.6.2") > oid("1.3.6.1.999.999"));
    }

    #[test]
    fn content_encoding_well_known() {
        // 1.3.6.1.2.1 encodes as 2B 06 01 02 01 (first two arcs pack to 43).
        assert_eq!(oid("1.3.6.1.2.1").encode_content(), vec![0x2B, 0x06, 0x01, 0x02, 0x01]);
        // Multi-byte subidentifier: arc 999 = 0x87 0x67.
        assert_eq!(oid("2.999").encode_content(), vec![0x88, 0x37]);
    }

    #[test]
    fn content_decoding_round_trip() {
        for s in ["1.3.6.1.2.1.1.1.0", "0.39", "1.39.4294967295", "2.999.1.128.16384"] {
            let o = oid(s);
            assert_eq!(Oid::decode_content(&o.encode_content()).unwrap(), o);
        }
    }

    #[test]
    fn decode_rejects_truncated_subidentifier() {
        // A continuation bit with no following byte.
        assert_eq!(Oid::decode_content(&[0x2B, 0x86]), Err(crate::BerError::BadOid));
        assert_eq!(Oid::decode_content(&[]), Err(crate::BerError::BadOid));
    }

    #[test]
    fn prefix_helpers() {
        let base = oid("1.3.6.1.2.1.6.13");
        let inst = base.extend(&[1, 2, 10, 0, 0, 1, 80]);
        assert!(inst.starts_with(&base));
        assert_eq!(inst.strip_prefix(&base).unwrap(), &[1, 2, 10, 0, 0, 1, 80]);
        assert_eq!(inst.strip_prefix(&oid("1.4")), None);
        assert_eq!(base.child(1).to_string(), "1.3.6.1.2.1.6.13.1");
        assert_eq!(oid("1.3").parent().unwrap(), oid("1"));
        assert_eq!(Oid::new().parent(), None);
    }
}
