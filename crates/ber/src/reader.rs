use crate::{BerError, BerValue, Class, Oid, Tag};

/// How many constructed values [`BerReader::read_value`] follows, one
/// inside the next, before it returns [`BerError::TooDeep`]. Each level
/// is one recursive call, so without a bound a small frame of nested
/// empty SEQUENCEs (two bytes a level) could overflow the decoding
/// thread's stack and abort the process.
pub const MAX_DEPTH: usize = 256;

/// An incremental BER decoder over a byte slice.
///
/// The reader validates definite lengths, rejects the indefinite form and
/// high tag numbers, and offers both typed accessors (`read_i64`,
/// `read_oid`, ...) and a dynamic [`BerReader::read_value`].
#[derive(Debug)]
pub struct BerReader<'a> {
    input: &'a [u8],
    pos: usize,
    /// Exclusive end of the region this reader may consume (for nested
    /// constructed values).
    end: usize,
}

impl<'a> BerReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> BerReader<'a> {
        BerReader { input, pos: 0, end: input.len() }
    }

    /// Bytes remaining in the current scope.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Whether the current scope is fully consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.end
    }

    /// Errors unless the current scope is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`BerError::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), BerError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(BerError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BerError> {
        if self.remaining() < n {
            return Err(BerError::UnexpectedEof);
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn peek_byte(&self) -> Result<u8, BerError> {
        if self.at_end() {
            Err(BerError::UnexpectedEof)
        } else {
            Ok(self.input[self.pos])
        }
    }

    /// Peeks at the tag of the next value without consuming anything.
    ///
    /// # Errors
    ///
    /// Returns an error at end of input or on a high tag number.
    pub fn peek_tag(&self) -> Result<Tag, BerError> {
        let id = self.peek_byte()?;
        if id & 0x1F == 0x1F {
            return Err(BerError::HighTagNumber);
        }
        Ok(Tag::from_identifier_octet(id).0)
    }

    /// Reads a tag-length header, returning (tag, constructed, content-len).
    fn read_header(&mut self) -> Result<(Tag, bool, usize), BerError> {
        let id = self.take(1)?[0];
        if id & 0x1F == 0x1F {
            return Err(BerError::HighTagNumber);
        }
        let (tag, constructed) = Tag::from_identifier_octet(id);
        let first = self.take(1)?[0];
        let len = if first < 0x80 {
            usize::from(first)
        } else if first == 0x80 {
            return Err(BerError::IndefiniteLength);
        } else {
            let n = usize::from(first & 0x7F);
            if n > std::mem::size_of::<usize>() {
                return Err(BerError::BadLength);
            }
            let mut len = 0usize;
            for &b in self.take(n)? {
                len = len.checked_shl(8).ok_or(BerError::BadLength)? | usize::from(b);
            }
            len
        };
        if len > self.remaining() {
            return Err(BerError::UnexpectedEof);
        }
        Ok((tag, constructed, len))
    }

    /// Reads the header of a primitive value with the given tag and returns
    /// its content octets.
    fn read_primitive(&mut self, expected: Tag) -> Result<&'a [u8], BerError> {
        let (tag, constructed, len) = self.read_header()?;
        if tag != expected {
            return Err(BerError::TagMismatch { expected, found: tag });
        }
        if constructed {
            return Err(BerError::WrongConstruction);
        }
        self.take(len)
    }

    /// Reads a universal INTEGER.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch or an integer wider than 64 bits.
    pub fn read_i64(&mut self) -> Result<i64, BerError> {
        self.read_tagged_i64(Tag::INTEGER)
    }

    /// Reads an INTEGER under an arbitrary primitive tag.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch or malformed content.
    pub fn read_tagged_i64(&mut self, tag: Tag) -> Result<i64, BerError> {
        let content = self.read_primitive(tag)?;
        decode_i64(content)
    }

    /// Reads an unsigned 32-bit quantity under `tag` (Counter32 etc.).
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch, negative content, or overflow.
    pub fn read_tagged_u32(&mut self, tag: Tag) -> Result<u32, BerError> {
        let content = self.read_primitive(tag)?;
        let v = decode_i64(content)?;
        u32::try_from(v).map_err(|_| BerError::BadInteger)
    }

    /// Reads a universal OCTET STRING, borrowing the content.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch.
    pub fn read_octet_string(&mut self) -> Result<&'a [u8], BerError> {
        self.read_primitive(Tag::OCTET_STRING)
    }

    /// Reads a universal NULL.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch or nonempty content.
    pub fn read_null(&mut self) -> Result<(), BerError> {
        let content = self.read_primitive(Tag::NULL)?;
        if content.is_empty() {
            Ok(())
        } else {
            Err(BerError::BadLength)
        }
    }

    /// Reads an OBJECT IDENTIFIER.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch or malformed arcs.
    pub fn read_oid(&mut self) -> Result<Oid, BerError> {
        let content = self.read_primitive(Tag::OID)?;
        Oid::decode_content(content)
    }

    /// Reads a SEQUENCE, handing `f` a reader scoped to its contents.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch, on `f`'s error, or if `f` leaves bytes
    /// unconsumed.
    pub fn read_sequence<T, F>(&mut self, f: F) -> Result<T, BerError>
    where
        F: FnOnce(&mut BerReader<'a>) -> Result<T, BerError>,
    {
        self.read_constructed(Tag::SEQUENCE, f)
    }

    /// Reads a constructed value under `tag`, scoping `f` to its contents.
    ///
    /// # Errors
    ///
    /// Errors on tag mismatch, if the value is primitive, on `f`'s error, or
    /// if `f` leaves bytes unconsumed.
    pub fn read_constructed<T, F>(&mut self, expected: Tag, f: F) -> Result<T, BerError>
    where
        F: FnOnce(&mut BerReader<'a>) -> Result<T, BerError>,
    {
        let (tag, constructed, len) = self.read_header()?;
        if tag != expected {
            return Err(BerError::TagMismatch { expected, found: tag });
        }
        if !constructed {
            return Err(BerError::WrongConstruction);
        }
        let mut inner = BerReader { input: self.input, pos: self.pos, end: self.pos + len };
        let out = f(&mut inner)?;
        inner.expect_end()?;
        self.pos += len;
        Ok(out)
    }

    /// Returns the raw bytes of the next whole TLV (tag + length +
    /// content) without interpreting it, advancing past it. Used to
    /// extract an embedded payload for digest verification before
    /// decoding it.
    ///
    /// # Errors
    ///
    /// Errors on a malformed header or truncated content.
    pub fn read_raw_value(&mut self) -> Result<&'a [u8], BerError> {
        let start = self.pos;
        let (_, _, len) = self.read_header()?;
        self.pos += len;
        Ok(&self.input[start..self.pos])
    }

    /// Reads the next value dynamically as a [`BerValue`].
    ///
    /// # Errors
    ///
    /// Errors on any malformed or unsupported encoding, and with
    /// [`BerError::TooDeep`] past [`MAX_DEPTH`] nested constructed values.
    pub fn read_value(&mut self) -> Result<BerValue, BerError> {
        self.read_value_within(MAX_DEPTH)
    }

    /// [`BerReader::read_value`] with `levels` constructed levels left.
    fn read_value_within(&mut self, levels: usize) -> Result<BerValue, BerError> {
        let (tag, constructed, len) = self.read_header()?;
        if constructed {
            let levels = levels.checked_sub(1).ok_or(BerError::TooDeep)?;
            let mut inner = BerReader { input: self.input, pos: self.pos, end: self.pos + len };
            let mut items = Vec::new();
            while !inner.at_end() {
                items.push(inner.read_value_within(levels)?);
            }
            self.pos += len;
            return match (tag.class(), tag.number()) {
                (Class::Universal, 16) => Ok(BerValue::Sequence(items)),
                (Class::Context, n) => Ok(BerValue::ContextConstructed(n, items)),
                _ => Err(BerError::WrongConstruction),
            };
        }
        let content = self.take(len)?;
        match tag {
            Tag::INTEGER => decode_i64(content).map(BerValue::Integer),
            Tag::OCTET_STRING => Ok(BerValue::OctetString(content.to_vec())),
            Tag::NULL => {
                if content.is_empty() {
                    Ok(BerValue::Null)
                } else {
                    Err(BerError::BadLength)
                }
            }
            Tag::OID => Oid::decode_content(content).map(BerValue::ObjectId),
            Tag::IP_ADDRESS => {
                let arr: [u8; 4] = content.try_into().map_err(|_| BerError::BadLength)?;
                Ok(BerValue::IpAddress(arr))
            }
            Tag::COUNTER32 | Tag::GAUGE32 | Tag::TIME_TICKS => {
                let v = decode_i64(content)?;
                let v = u32::try_from(v).map_err(|_| BerError::BadInteger)?;
                Ok(match tag {
                    Tag::COUNTER32 => BerValue::Counter32(v),
                    Tag::GAUGE32 => BerValue::Gauge32(v),
                    _ => BerValue::TimeTicks(v),
                })
            }
            Tag::OPAQUE => Ok(BerValue::Opaque(content.to_vec())),
            other => Err(BerError::TagMismatch { expected: Tag::SEQUENCE, found: other }),
        }
    }
}

fn decode_i64(content: &[u8]) -> Result<i64, BerError> {
    if content.is_empty() || content.len() > 9 {
        return Err(BerError::BadInteger);
    }
    if content.len() == 9 && content[0] != 0 {
        return Err(BerError::BadInteger);
    }
    let mut v: i64 = if content[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in content {
        v = (v << 8) | i64::from(b);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BerWriter;

    #[test]
    fn typed_round_trip() {
        let mut w = BerWriter::new();
        w.write_i64(-300);
        w.write_octet_string(b"hello");
        w.write_null();
        w.write_oid(&"1.3.6.1".parse().unwrap());
        w.write_tagged_u32(Tag::TIME_TICKS, 54321);
        let bytes = w.into_bytes();

        let mut r = BerReader::new(&bytes);
        assert_eq!(r.read_i64().unwrap(), -300);
        assert_eq!(r.read_octet_string().unwrap(), b"hello");
        r.read_null().unwrap();
        assert_eq!(r.read_oid().unwrap().to_string(), "1.3.6.1");
        assert_eq!(r.read_tagged_u32(Tag::TIME_TICKS).unwrap(), 54321);
        assert!(r.at_end());
    }

    #[test]
    fn tag_mismatch_reported() {
        let mut w = BerWriter::new();
        w.write_null();
        let bytes = w.into_bytes();
        let err = BerReader::new(&bytes).read_i64().unwrap_err();
        assert_eq!(err, BerError::TagMismatch { expected: Tag::INTEGER, found: Tag::NULL });
    }

    /// `levels` SEQUENCEs, each holding the next, the innermost empty.
    fn nested(levels: usize) -> Vec<u8> {
        let mut w = BerWriter::new();
        fn nest(w: &mut BerWriter, levels: usize) {
            if levels > 0 {
                w.write_sequence(|w| nest(w, levels - 1));
            }
        }
        nest(&mut w, levels);
        w.into_bytes()
    }

    #[test]
    fn nesting_is_read_up_to_the_limit_and_refused_past_it() {
        let mut value = BerReader::new(&nested(MAX_DEPTH)).read_value().unwrap();
        for _ in 1..MAX_DEPTH {
            let BerValue::Sequence(mut items) = value else { panic!("{value:?}") };
            value = items.pop().unwrap();
        }
        assert_eq!(value, BerValue::Sequence(Vec::new()));
        let deepest = BerReader::new(&nested(MAX_DEPTH)).read_value().unwrap();
        assert!(!deepest.nests_deeper_than(MAX_DEPTH));
        assert!(BerValue::Sequence(vec![deepest]).nests_deeper_than(MAX_DEPTH));
        let err = BerReader::new(&nested(MAX_DEPTH + 1)).read_value().unwrap_err();
        assert_eq!(err, BerError::TooDeep);
    }

    #[test]
    fn indefinite_length_rejected() {
        // SEQUENCE with indefinite length marker 0x80.
        let err = BerReader::new(&[0x30, 0x80, 0x00, 0x00]).read_value().unwrap_err();
        assert_eq!(err, BerError::IndefiniteLength);
    }

    #[test]
    fn truncated_content_rejected() {
        let err = BerReader::new(&[0x04, 0x05, b'a']).read_value().unwrap_err();
        assert_eq!(err, BerError::UnexpectedEof);
    }

    #[test]
    fn declared_length_beyond_scope_rejected() {
        // Outer sequence declares 3 bytes but inner integer claims 4.
        let err = BerReader::new(&[0x30, 0x03, 0x02, 0x04, 0x01]).read_value().unwrap_err();
        assert_eq!(err, BerError::UnexpectedEof);
    }

    #[test]
    fn inner_reader_must_consume_scope() {
        let mut w = BerWriter::new();
        w.write_sequence(|w| {
            w.write_i64(1);
            w.write_i64(2);
        });
        let bytes = w.into_bytes();
        let mut r = BerReader::new(&bytes);
        let err = r.read_sequence(|r| r.read_i64()).unwrap_err();
        assert_eq!(err, BerError::TrailingBytes);
    }

    #[test]
    fn nonminimal_wide_integer_rejected() {
        // 10 content octets is wider than i64 allows.
        let err =
            BerReader::new(&[0x02, 0x0A, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]).read_i64().unwrap_err();
        assert_eq!(err, BerError::BadInteger);
    }

    #[test]
    fn u32_range_enforced() {
        let mut w = BerWriter::new();
        w.write_tagged_i64(Tag::COUNTER32, -5);
        let bytes = w.into_bytes();
        let err = BerReader::new(&bytes).read_tagged_u32(Tag::COUNTER32).unwrap_err();
        assert_eq!(err, BerError::BadInteger);
    }

    #[test]
    fn peek_tag_does_not_consume() {
        let mut w = BerWriter::new();
        w.write_i64(7);
        let bytes = w.into_bytes();
        let mut r = BerReader::new(&bytes);
        assert_eq!(r.peek_tag().unwrap(), Tag::INTEGER);
        assert_eq!(r.read_i64().unwrap(), 7);
    }

    #[test]
    fn context_constructed_value_round_trip() {
        let v = BerValue::ContextConstructed(
            2,
            vec![BerValue::Integer(1), BerValue::OctetString(b"x".to_vec())],
        );
        let bytes = crate::encode(&v);
        assert_eq!(bytes[0], 0xA2);
        assert_eq!(crate::decode(&bytes).unwrap(), v);
    }

    #[test]
    fn empty_sequence_round_trip() {
        let v = BerValue::Sequence(vec![]);
        assert_eq!(crate::decode(&crate::encode(&v)).unwrap(), v);
    }

    #[test]
    fn trailing_garbage_rejected_by_decode() {
        let mut bytes = crate::encode(&BerValue::Null);
        bytes.push(0x00);
        assert_eq!(crate::decode(&bytes).unwrap_err(), BerError::TrailingBytes);
    }
}
