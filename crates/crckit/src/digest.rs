//! Streaming CRC computation.

use crate::engine::Crc;
use std::io;

/// An in-progress CRC over streamed data.
///
/// Produced by [`Digest::new`]; feed bytes with [`Digest::update`] (or via
/// [`std::io::Write`]) and close with [`Digest::finalize`].
///
/// ```
/// use crckit::{Crc, Digest, catalog};
/// let crc = Crc::new(catalog::CRC32_ISO_HDLC);
/// let mut digest = Digest::new(&crc);
/// digest.update(b"1234");
/// digest.update(b"56789");
/// assert_eq!(digest.finalize(), crc.checksum(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Digest<'a> {
    crc: &'a Crc,
    state: u64,
    bytes_fed: u64,
}

impl<'a> Digest<'a> {
    /// Starts a digest for the given engine.
    pub fn new(crc: &'a Crc) -> Digest<'a> {
        Digest {
            crc,
            state: crc.init_raw(),
            bytes_fed: 0,
        }
    }

    /// Absorbs more input bytes on the engine's selected tier, so large
    /// streamed updates run as fast as one-shot checksums.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = self.crc.update_raw(self.state, bytes);
        self.bytes_fed += bytes.len() as u64;
    }

    /// Number of bytes absorbed so far.
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Finishes and returns the CRC value.
    pub fn finalize(self) -> u64 {
        self.crc.finalize_raw(self.state)
    }

    /// Returns the CRC of the data so far without consuming the digest
    /// (useful for incremental integrity checkpoints, e.g. iSCSI interim
    /// data digests).
    pub fn peek(&self) -> u64 {
        self.crc.finalize_raw(self.state)
    }
}

impl io::Write for Digest<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use std::io::Write;

    #[test]
    fn split_updates_match_one_shot() {
        let crc = Crc::new(catalog::CRC32_ISCSI);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = crc.checksum(&data);
        for split in [0usize, 1, 7, 8, 9, 4096, 9999, 10_000] {
            let mut d = Digest::new(&crc);
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn byte_by_byte_matches_one_shot() {
        let crc = Crc::new(catalog::CRC16_CCITT_FALSE);
        let data = b"streaming one byte at a time";
        let mut d = Digest::new(&crc);
        for &b in data.iter() {
            d.update(&[b]);
        }
        assert_eq!(d.finalize(), crc.checksum(data));
    }

    #[test]
    fn peek_does_not_disturb_state() {
        let crc = Crc::new(catalog::CRC32_ISO_HDLC);
        let mut d = Digest::new(&crc);
        d.update(b"12345");
        let _ = d.peek();
        d.update(b"6789");
        assert_eq!(d.finalize(), crc.checksum(b"123456789"));
    }

    #[test]
    fn write_adapter() {
        let crc = Crc::new(catalog::CRC32_ISO_HDLC);
        let mut d = Digest::new(&crc);
        write!(d, "123").unwrap();
        write!(d, "456789").unwrap();
        assert_eq!(d.bytes_fed(), 9);
        assert_eq!(d.finalize(), 0xCBF4_3926);
    }
}
