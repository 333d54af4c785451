//! Hand-written binary codec.
//!
//! The zoom-in result cache serializes whole result sets (tuples plus their
//! summary objects) to disk, and the workload tooling snapshots generated
//! databases. Rather than pulling in `serde` + a format crate, the workspace
//! uses this small, explicit codec: little-endian fixed-width primitives,
//! LEB128 varints for lengths and ids, and length-prefixed UTF-8 strings.
//!
//! Types participate by implementing [`Encodable`]. Decoding is strict:
//! truncated or trailing bytes produce [`Error::Codec`].

use crate::error::{Error, Result};
use crate::idset::IdSet;

/// Byte sink with primitive write helpers.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with a pre-sized buffer.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finishes encoding and returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an IEEE-754 `f64`.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a LEB128 varint (lengths, dense ids).
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a bool as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an id set as a varint count followed by delta-encoded ids.
    /// Delta encoding exploits the sorted invariant: consecutive dense ids
    /// encode in one byte each.
    pub fn idset(&mut self, set: &IdSet) {
        self.varint(set.len() as u64);
        let mut prev = 0u64;
        for id in set.iter() {
            self.varint(id - prev);
            prev = id;
        }
    }

    /// Writes `Some`/`None` followed by the payload when present.
    pub fn option<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a varint length followed by each element.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.varint(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }
}

/// Byte source with primitive read helpers. Tracks its position; all reads
/// bounds-check and fail with [`Error::Codec`] on truncation.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole buffer was consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::Codec(format!("{} trailing bytes", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Codec(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(Error::Codec("varint overflow".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a bool (rejects values other than 0/1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Codec(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }

    /// Reads a delta-encoded id set (inverse of [`Encoder::idset`]).
    pub fn idset(&mut self) -> Result<IdSet> {
        let len = self.varint()? as usize;
        // Every id takes at least one byte, so the input bounds the
        // preallocation whatever length the prefix claims.
        let mut ids = Vec::with_capacity(len.min(self.remaining()));
        let mut prev = 0u64;
        for i in 0..len {
            let delta = self.varint()?;
            if i > 0 && delta == 0 {
                return Err(Error::Codec("idset not strictly increasing".into()));
            }
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| Error::Codec("idset delta overflow".into()))?;
            ids.push(prev);
        }
        Ok(IdSet::from_sorted(ids))
    }

    /// Reads an `Option` written by [`Encoder::option`].
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence written by [`Encoder::seq`].
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let len = self.varint()? as usize;
        // Every encoded item takes at least one byte, so the input bounds
        // the preallocation whatever length the prefix claims.
        let mut out = Vec::with_capacity(len.min(self.remaining()));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Implemented by every type that round-trips through the binary codec.
pub trait Encodable: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);
    /// Decodes one value from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decodes from a buffer, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

impl Encodable for IdSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.idset(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.idset()
    }
}

impl Encodable for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.str()
    }
}

impl Encodable for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.u64()
    }
}

impl<T: Encodable> Encodable for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.varint(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = dec.varint()? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(3.5);
        e.bool(true);
        e.str("héllo");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        d.expect_end().unwrap();
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut e = Encoder::new();
            e.varint(v);
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            assert_eq!(d.varint().unwrap(), v, "value {v}");
            d.expect_end().unwrap();
        }
    }

    #[test]
    fn idset_round_trip_and_compression() {
        let set: IdSet = (1000..2000u64).collect();
        let bytes = set.to_bytes();
        // Dense ids delta-encode to ~1 byte each plus the base.
        assert!(bytes.len() < 1024 + 16, "got {} bytes", bytes.len());
        assert_eq!(IdSet::from_bytes(&bytes).unwrap(), set);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let set: IdSet = (0..10u64).collect();
        let bytes = set.to_bytes();
        let err = IdSet::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err.class(), "codec");
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = String::from("x").to_bytes();
        bytes.push(0);
        assert_eq!(String::from_bytes(&bytes).unwrap_err().class(), "codec");
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(d.bool().is_err());
    }

    #[test]
    fn option_and_seq_round_trip() {
        let mut e = Encoder::new();
        e.option(&Some(5u64), |e, v| e.u64(*v));
        e.option(&None::<u64>, |e, v| e.u64(*v));
        e.seq(&[1u64, 2, 3], |e, v| e.varint(*v));
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.option(super::Decoder::u64).unwrap(), Some(5));
        assert_eq!(d.option(super::Decoder::u64).unwrap(), None);
        assert_eq!(d.seq(super::Decoder::varint).unwrap(), vec![1, 2, 3]);
        d.expect_end().unwrap();
    }

    #[test]
    fn vec_of_strings_round_trips() {
        let v = vec!["a".to_string(), "".to_string(), "ccc".to_string()];
        assert_eq!(Vec::<String>::from_bytes(&v.to_bytes()).unwrap(), v);
    }
}
