//! Umbrella crate for the reproduction of Koopman's DSN 2002 paper
//! *"32-Bit Cyclic Redundancy Codes for Internet Applications"*.
//!
//! Re-exports the five workspace crates under one roof:
//!
//! * [`gf2poly`] — polynomial algebra over GF(2) (factorization, order,
//!   irreducibility, the paper's `{d1,..,dk}` classes) and the one
//!   generator type, [`gf2poly::GenPoly`], with its Koopman / normal /
//!   reversed notation conversions.
//! * [`crckit`] — the CRC engine a downstream user adopts (Rocksoft
//!   parameters, two engine tiers plus a bit-at-a-time oracle, framing,
//!   catalog).
//! * [`crc_hd`] — the paper's contribution: Hamming-distance evaluation,
//!   `d_min` searches, weight counting, HD profiles, the §4.1 filtering
//!   pipeline, and exhaustive/sampled polynomial search.
//! * [`netsim`] — channel and framing simulation for end-to-end
//!   demonstrations.
//! * [`crc_survey`] — sharded, checkpointable survey campaigns over
//!   whole polynomial spaces with Pareto selection and leaderboards.
//!
//! # The paper in one code block
//!
//! ```
//! use koopman_crc::crc_hd::{GenPoly, HdProfile};
//!
//! // The iSCSI draft picked Castagnoli's 0x8F6E37A0 (CRC-32C).
//! let iscsi = GenPoly::from_koopman(32, 0x8F6E37A0).unwrap();
//! // The paper proposes 0xBA0DC66B instead.
//! let koopman = GenPoly::from_koopman(32, 0xBA0DC66B).unwrap();
//!
//! let mtu = 12_112; // Ethernet MTU data word, bits
//! let p_iscsi = HdProfile::compute(&iscsi, 13_000).unwrap();
//! let p_koop = HdProfile::compute(&koopman, 17_000).unwrap();
//!
//! // Two extra bits of error detection at full MTU length:
//! assert_eq!(p_iscsi.hd_at(mtu), Some(4));
//! assert_eq!(p_koop.hd_at(mtu), Some(6));
//! ```

pub use crc_hd;
pub use crc_survey;
pub use crckit;
pub use gf2poly;
pub use netsim;
