//! Little-endian primitive encoding and a bounds-checked decode cursor.
//!
//! Every multi-byte integer is little-endian; every `f64` travels as its
//! IEEE-754 bit pattern (`to_bits`/`from_bits`), which is what makes restored
//! state *bit-identical* — no decimal round-trip is ever involved. Lengths
//! are `u32` (no section in this system approaches 4 GiB) and every read is
//! bounds-checked so corrupt lengths surface as [`PersistError::Corrupt`],
//! never as a panic or an out-of-bounds slice.

use crate::error::PersistError;

/// Upper bound on any single decoded collection length. Snapshots of real
/// deployments are far below this; a corrupt length field must not convince
/// the decoder to pre-allocate gigabytes.
pub const MAX_LEN: u32 = 64 * 1024 * 1024;

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Writes a collection length after checking it against [`MAX_LEN`].
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    debug_assert!(len <= MAX_LEN as usize, "collection too large to persist");
    put_u32(out, len as u32);
}

/// A bounds-checked read cursor over a decode buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Names the structure being decoded in error messages.
    context: &'static str,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails the decode with a truncation error.
    fn truncated(&self, want: usize) -> PersistError {
        PersistError::corrupt(
            self.context,
            format!(
                "truncated: wanted {want} more bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ),
        )
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads exactly `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let Some((bytes, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(*bytes)
    }

    pub fn u16(&mut self) -> Result<u16, PersistError> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Result<u32, PersistError> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, PersistError> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection length whose elements each encode to at least
    /// `min_bytes` bytes. A length beyond [`MAX_LEN`], or one whose elements
    /// could not fit in the bytes left (`len × min_bytes > remaining`), is
    /// corrupt. So a caller's `Vec::with_capacity(len)` reserves at most
    /// `size_of::<T>() / min_bytes` times the input it was given, whatever
    /// the prefix claims.
    pub fn read_len(&mut self, min_bytes: usize) -> Result<usize, PersistError> {
        let len = self.u32()?;
        if len > MAX_LEN || (len as usize).saturating_mul(min_bytes) > self.remaining() {
            return Err(PersistError::corrupt(
                self.context,
                format!("implausible collection length {len}"),
            ));
        }
        Ok(len as usize)
    }

    /// Asserts the buffer was consumed exactly — trailing garbage means the
    /// image does not match the format version that is decoding it.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::corrupt(
                self.context,
                format!("{} trailing bytes after decode", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 513);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::from_bits(0x0000_0000_0000_0001)); // subnormal
        let mut c = Cursor::new(&buf, "test");
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 513);
        assert_eq!(c.u32().unwrap(), 70_000);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.f64().unwrap().to_bits(), 1);
        c.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors_not_panics() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 9);
        let mut c = Cursor::new(&buf[..2], "test");
        assert!(c.u32().is_err());
        let mut c = Cursor::new(&buf, "test");
        c.u16().unwrap();
        assert!(c.finish().is_err());
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_LEN + 1);
        assert!(Cursor::new(&buf, "test").read_len(1).is_err());
    }

    #[test]
    fn a_length_beyond_the_bytes_left_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0xAA; 3]);
        assert_eq!(Cursor::new(&buf, "test").read_len(1).unwrap(), 3);
        assert!(Cursor::new(&buf[..6], "test").read_len(1).is_err());
        // Within MAX_LEN, but the buffer cannot hold that many elements.
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_LEN);
        assert!(Cursor::new(&buf, "test").read_len(1).is_err());
        // Elements of at least 8 bytes each: 3 fit in 24 bytes, not in 23.
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0xAA; 24]);
        assert_eq!(Cursor::new(&buf, "test").read_len(8).unwrap(), 3);
        assert!(Cursor::new(&buf[..27], "test").read_len(8).is_err());
        assert!(Cursor::new(&buf, "test").read_len(9).is_err());
        assert!(Cursor::new(&buf, "test").read_len(usize::MAX).is_err());
    }
}
