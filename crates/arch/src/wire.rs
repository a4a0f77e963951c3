//! Minimal little-endian wire codec shared by state-serialization code.
//!
//! The snapshot subsystem (`bgp-snapshot`) serializes the private runtime
//! state of every crate in the workspace — caches, prefetchers, counter
//! files, trace rings. Each crate encodes its own state with these
//! helpers so the byte format stays uniform and the decoding side is
//! bounds-checked everywhere: a truncated or corrupted snapshot surfaces
//! as [`BgpError::Corrupt`] with the failing byte offset, never as a
//! panic or a silently wrong value.

use crate::error::{BgpError, Context, Result};

/// Append a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u16` (little-endian).
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte (0 or 1).
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a length-prefixed byte string (`u64` length, then the bytes).
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

/// Append a length-prefixed `u64` slice.
pub fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_u64(out, x);
    }
}

/// Bytes folded per step of [`checksum`].
const CHUNK: usize = 16;

/// `POW31[k] = 31^k mod 2^64` for `k` in `0..=CHUNK`.
const POW31: [u64; CHUNK + 1] = {
    let mut p = [1u64; CHUNK + 1];
    let mut k = 1;
    while k <= CHUNK {
        p[k] = p[k - 1].wrapping_mul(31);
        k += 1;
    }
    p
};

/// Position-weighted checksum of every dump, snapshot section, blob
/// and spec fingerprint: `Σ (b_i ^ i)·31^(n-1-i) mod 2^64` over the
/// `n` bytes. Byte transpositions and zeroed runs both perturb it, and
/// because 31 is odd and thus invertible mod 2^64 it catches every
/// single-byte change.
///
/// The sum is folded 16 bytes at a time: a chunk's 16 terms are
/// independent products with precomputed powers of 31, so they do not
/// wait on one another the way a byte-serial multiply-add chain does.
/// Leftover bytes take the serial step. The value is the byte-serial
/// one exactly.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = 0u64;
    let mut chunks = bytes.chunks_exact(CHUNK);
    let mut base = 0u64;
    for chunk in &mut chunks {
        let mut sum = 0u64;
        for (j, &b) in chunk.iter().enumerate() {
            let term = u64::from(b) ^ (base + j as u64);
            sum = sum.wrapping_add(term.wrapping_mul(POW31[CHUNK - 1 - j]));
        }
        acc = acc.wrapping_mul(POW31[CHUNK]).wrapping_add(sum);
        base += CHUNK as u64;
    }
    for (j, &b) in chunks.remainder().iter().enumerate() {
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(b) ^ (base + j as u64));
    }
    acc
}

/// Bounds-checked cursor over an encoded byte slice.
///
/// Every read validates the remaining length first; failures carry the
/// absolute byte offset so snapshot-decoding errors can name the exact
/// position a file went bad.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current absolute byte offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, what: &str) -> BgpError {
        BgpError::Corrupt(
            Context::new(format!("truncated while reading {what}"))
                .at_offset(self.pos as u64),
        )
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `bool`; any byte other than 0/1 is corruption.
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BgpError::Corrupt(
                Context::new(format!("invalid bool byte {b:#x} in {what}"))
                    .at_offset(self.pos as u64 - 1),
            )),
        }
    }

    /// Read a length-prefixed byte string. The length is validated
    /// against the remaining input before any allocation, so a corrupted
    /// length can never trigger an unbounded allocation.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let n = self.u64(what)?;
        if n > self.remaining() as u64 {
            return Err(BgpError::Corrupt(
                Context::new(format!(
                    "length {n} of {what} exceeds remaining {} bytes",
                    self.remaining()
                ))
                .at_offset(self.pos as u64),
            ));
        }
        self.take(n as usize, what)
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64s(&mut self, what: &str) -> Result<Vec<u64>> {
        let n = self.u64(what)?;
        if n.checked_mul(8).is_none_or(|b| b > self.remaining() as u64) {
            return Err(BgpError::Corrupt(
                Context::new(format!(
                    "length {n} of {what} exceeds remaining {} bytes",
                    self.remaining()
                ))
                .at_offset(self.pos as u64),
            ));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.u64(what)?);
        }
        Ok(out)
    }

    /// Read exactly `n` `u64`s into a caller-provided slice (fixed-size
    /// state arrays restore in place without an allocation).
    pub fn u64_array(&mut self, dst: &mut [u64], what: &str) -> Result<()> {
        for d in dst.iter_mut() {
            *d = self.u64(what)?;
        }
        Ok(())
    }

    /// Assert the input is fully consumed (trailing garbage is
    /// corruption, not padding).
    pub fn expect_end(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(BgpError::Corrupt(
                Context::new(format!(
                    "{} trailing byte(s) after {what}",
                    self.remaining()
                ))
                .at_offset(self.pos as u64),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_bool(&mut buf, true);
        put_bytes(&mut buf, b"hello");
        put_u64s(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 0xAB);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 7);
        assert!(r.bool("e").unwrap());
        assert_eq!(r.bytes("f").unwrap(), b"hello");
        assert_eq!(r.u64s("g").unwrap(), vec![1, 2, 3]);
        r.expect_end("tail").unwrap();
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error_with_offset() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        put_bytes(&mut buf, b"xyz");
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let res = r.u64("head").and_then(|_| r.bytes("body").map(|_| ()));
            assert!(res.is_err(), "cut at {cut} decoded");
            match res.unwrap_err() {
                BgpError::Corrupt(c) => assert!(c.offset.is_some(), "cut {cut}: no offset"),
                other => panic!("cut {cut}: wrong error {other}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // claims ~2^64 bytes follow
        assert!(Reader::new(&buf).bytes("blob").is_err());
        assert!(Reader::new(&buf).u64s("words").is_err());
    }

    #[test]
    fn invalid_bool_and_trailing_garbage_are_corruption() {
        let buf = [7u8, 0];
        let mut r = Reader::new(&buf);
        assert!(r.bool("flag").is_err());
        let buf = [1u8, 9];
        let mut r = Reader::new(&buf);
        assert!(r.bool("flag").unwrap());
        assert!(r.expect_end("state").is_err());
    }

    /// The checksum's definition, one byte at a time.
    fn serial_checksum(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc.wrapping_mul(31).wrapping_add(u64::from(b) ^ i as u64))
    }

    #[test]
    fn chunked_checksum_equals_the_serial_definition() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x5EED);
        let buf: Vec<u8> = (0..4200 + 16).map(|_| rng.next_u64() as u8).collect();
        // Every length up to two dumps' worth hits every remainder mod
        // 16; every offset shifts the chunk grid against the buffer.
        for offset in 0..16 {
            for len in 0..=4200 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(checksum(bytes), serial_checksum(bytes), "offset {offset} len {len}");
            }
        }
    }

    /// Values of the byte-serial checksum every dump, snapshot and blob
    /// on disk was sealed with; a formula drift fails here even if the
    /// reference above drifts with it.
    #[test]
    fn checksum_values_are_pinned() {
        let ramp: Vec<u8> = (0..4200u32).map(|i| (i * 7 + 3) as u8).collect();
        let descending: Vec<u8> = (0..=255u8).rev().collect();
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"a"), 0x61);
        assert_eq!(checksum(b"abcd"), 0x2d97c8);
        assert_eq!(checksum(&descending), 0xa2b1_72a8_b82d_f000);
        assert_eq!(checksum(&ramp), 0x0d04_f74f_f8a6_49e0);
        assert_eq!(checksum(&ramp[..2071]), 0xc22d_c1c5_f309_5433);
        assert_eq!(checksum(&[0u8; 4096]), 0xcafd_1130_27f0_0800);
    }

    #[test]
    fn checksum_detects_transposition_and_zero_runs() {
        let a = checksum(b"abcd");
        assert_ne!(a, checksum(b"abdc"));
        assert_ne!(checksum(&[0, 0, 1]), checksum(&[0, 1, 0]));
    }
}
