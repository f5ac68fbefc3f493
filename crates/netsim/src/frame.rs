//! Framing: payload + FCS codecs and an iSCSI-like PDU with separate
//! header and data digests.

use crckit::{catalog, fcs, Crc, CrcParams, EngineKind};

/// A payload ↔ framed-codeword codec over one CRC algorithm.
///
/// The codec rides whatever engine tier [`Crc::new`] selects — CLMUL
/// folding on capable hardware — so per-frame digest work in Monte-Carlo
/// corruption runs no longer pays software-slicing cost.
#[derive(Debug, Clone)]
pub struct FrameCodec {
    crc: Crc,
}

impl FrameCodec {
    /// Builds a codec for the given algorithm on the fastest engine tier
    /// the host supports.
    pub fn new(params: CrcParams) -> FrameCodec {
        FrameCodec {
            crc: Crc::new(params),
        }
    }

    /// Builds a codec pinned to a specific engine tier (e.g.
    /// [`EngineKind::Slice16`] to compare against the auto-selected
    /// tier, or the bitwise reference for cross-validation).
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail validation, like [`Crc::new`].
    pub fn with_engine(params: CrcParams, kind: EngineKind) -> FrameCodec {
        FrameCodec {
            crc: Crc::try_with_engine(params, kind).expect("invalid CRC parameters"),
        }
    }

    /// The underlying engine.
    pub fn crc(&self) -> &Crc {
        &self.crc
    }

    /// The engine tier frames are digested on.
    pub fn engine(&self) -> EngineKind {
        self.crc.engine()
    }

    /// Frames a payload (appends the FCS).
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        fcs::append(&self.crc, payload)
    }

    /// Seals a payload already sitting in `frame` by appending its FCS in
    /// place — the allocation-free encode the batch engine uses when
    /// reusing frame buffers across bursts.
    ///
    /// ```
    /// use netsim::frame::FrameCodec;
    /// use crckit::catalog;
    /// let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    /// let mut frame = b"hello ethernet".to_vec();
    /// codec.seal(&mut frame);
    /// assert_eq!(frame, codec.encode(b"hello ethernet"));
    /// ```
    pub fn seal(&self, frame: &mut Vec<u8>) {
        fcs::append_in_place(&self.crc, frame);
    }

    /// Verifies a received frame; `true` means the FCS matches.
    ///
    /// Length errors fail closed: a frame shorter than the FCS itself is
    /// rejected outright, and a cut or extended frame (as produced by
    /// `netsim`'s truncation and bit-stuffing slip channels) simply has
    /// its last bytes reinterpreted as the FCS, which then fails to match
    /// except with the usual 2⁻ʳ false-accept probability.
    pub fn verify(&self, frame: &[u8]) -> bool {
        fcs::verify(&self.crc, frame).unwrap_or(false)
    }

    /// Verifies a burst of received frames (the receive-queue shape of a
    /// packet loop); equivalent to mapping [`FrameCodec::verify`].
    pub fn verify_batch(&self, frames: &[&[u8]]) -> Vec<bool> {
        frames.iter().map(|frame| self.verify(frame)).collect()
    }

    /// Overhead added per frame, in bytes.
    pub fn overhead(&self) -> usize {
        fcs::fcs_len(&self.crc)
    }
}

/// An iSCSI-like PDU: a fixed-size header segment and a variable data
/// segment, each protected by its own digest — the structure the iSCSI
/// drafts debated when \[Sheinwald00\] recommended Castagnoli's polynomial,
/// and where the paper's 0xBA0DC66B offers HD=6 across full-MTU bursts.
#[derive(Debug, Clone)]
pub struct IscsiPdu {
    codec: FrameCodec,
    header_len: usize,
}

/// Result of receiving an [`IscsiPdu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PduVerdict {
    /// Header digest matched.
    pub header_ok: bool,
    /// Data digest matched.
    pub data_ok: bool,
}

impl IscsiPdu {
    /// iSCSI's Basic Header Segment length in bytes.
    pub const BHS_LEN: usize = 48;

    /// Builds a PDU codec with the standard 48-byte header segment.
    pub fn new(params: CrcParams) -> IscsiPdu {
        IscsiPdu {
            codec: FrameCodec::new(params),
            header_len: Self::BHS_LEN,
        }
    }

    /// Builds the draft-standard variant: CRC-32C digests, as adopted by
    /// RFC 3720 following \[Sheinwald00\].
    pub fn crc32c() -> IscsiPdu {
        IscsiPdu::new(catalog::CRC32_ISCSI)
    }

    /// Builds the paper's proposed variant using 0xBA0DC66B
    /// (CRC-32/MEF conventions).
    pub fn koopman() -> IscsiPdu {
        IscsiPdu::new(catalog::CRC32_MEF)
    }

    /// Serializes `header` (padded/truncated to 48 bytes) and `data` into
    /// a wire PDU: `header ‖ header-digest ‖ data ‖ data-digest`.
    pub fn encode(&self, header: &[u8], data: &[u8]) -> Vec<u8> {
        let mut hdr = header.to_vec();
        hdr.resize(self.header_len, 0);
        let mut out = self.codec.encode(&hdr);
        out.extend_from_slice(&self.codec.encode(data));
        out
    }

    /// Splits and verifies a wire PDU; `None` if it is too short to parse.
    pub fn verify(&self, wire: &[u8]) -> Option<PduVerdict> {
        let hdr_total = self.header_len + self.codec.overhead();
        if wire.len() < hdr_total + self.codec.overhead() {
            return None;
        }
        let (hdr, data) = wire.split_at(hdr_total);
        Some(PduVerdict {
            header_ok: self.codec.verify(hdr),
            data_ok: self.codec.verify(data),
        })
    }

    /// Total wire overhead (header padding excluded): two digests.
    pub fn digest_overhead(&self) -> usize {
        2 * self.codec.overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip() {
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let frame = codec.encode(b"hello ethernet");
        assert_eq!(frame.len(), 14 + 4);
        assert!(codec.verify(&frame));
        assert_eq!(codec.overhead(), 4);
    }

    #[test]
    fn batch_verify_matches_individual() {
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let mut frames: Vec<Vec<u8>> = (0..8usize)
            .map(|i| codec.encode(&vec![i as u8; 64 + i * 100]))
            .collect();
        frames[3][10] ^= 0x01; // corrupt one
        frames[6][0] ^= 0x80; // and another
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let verdicts = codec.verify_batch(&refs);
        for (i, (frame, got)) in refs.iter().zip(&verdicts).enumerate() {
            assert_eq!(*got, codec.verify(frame), "frame {i}");
        }
        assert_eq!(verdicts.iter().filter(|&&ok| !ok).count(), 2);
    }

    #[test]
    fn pinned_engine_codec_round_trips() {
        for kind in [crckit::EngineKind::Slice16, crckit::EngineKind::Clmul] {
            let codec = FrameCodec::with_engine(catalog::CRC32_ISCSI, kind);
            assert_eq!(codec.engine(), kind);
            let frame = codec.encode(&vec![0x5A; 2000]);
            assert!(codec.verify(&frame));
        }
    }

    #[test]
    fn codec_rejects_corruption_and_length_errors() {
        let codec = FrameCodec::new(catalog::CRC32_ISCSI);
        let mut frame = codec.encode(b"data integrity matters");
        frame[3] ^= 0x40;
        assert!(!codec.verify(&frame));
        assert!(!codec.verify(&frame[..2]), "short frames fail closed");
        let clean = codec.encode(b"data integrity matters");
        assert!(!codec.verify(&clean[..clean.len() - 1]), "cut frames fail");
        let mut extended = clean.clone();
        extended.push(0xA5);
        assert!(!codec.verify(&extended), "extended frames fail");
    }

    #[test]
    fn pdu_round_trip_both_variants() {
        for pdu in [IscsiPdu::crc32c(), IscsiPdu::koopman()] {
            let wire = pdu.encode(b"\x01\x23opcode-ish", &vec![0xA5u8; 1024]);
            assert_eq!(
                wire.len(),
                IscsiPdu::BHS_LEN + 4 + 1024 + 4,
                "48B BHS + digest + data + digest"
            );
            let v = pdu.verify(&wire).expect("parseable");
            assert!(v.header_ok && v.data_ok);
        }
    }

    #[test]
    fn pdu_digests_are_independent() {
        let pdu = IscsiPdu::crc32c();
        let mut wire = pdu.encode(b"hdr", b"payload payload");
        // Corrupt one data byte: header digest must still pass.
        let n = wire.len();
        wire[n - 6] ^= 0xFF;
        let v = pdu.verify(&wire).unwrap();
        assert!(v.header_ok);
        assert!(!v.data_ok);
        // Corrupt the header: data digest unaffected.
        let mut wire2 = pdu.encode(b"hdr", b"payload payload");
        wire2[0] ^= 1;
        let v2 = pdu.verify(&wire2).unwrap();
        assert!(!v2.header_ok);
        assert!(v2.data_ok);
    }

    #[test]
    fn pdu_too_short_is_none() {
        let pdu = IscsiPdu::crc32c();
        assert_eq!(pdu.verify(&[0u8; 10]), None);
    }
}
