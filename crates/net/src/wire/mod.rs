//! Wire formats: Ethernet II, ARP, IPv4 and UDP.
//!
//! Following the layering the networking guides recommend (smoltcp's
//! packet/repr split), each protocol offers:
//!
//! * a `Repr` struct — the parsed, validated, high-level representation;
//! * `Repr::parse(&[u8]) -> Result<(Repr, payload), WireError>`;
//! * `Repr::emit(&mut [u8])` to write the header in place, and a
//!   `Repr::to_frame`/`to_packet`/`to_segment(payload)` that serializes
//!   header + payload into a fresh buffer.
//!
//! All multi-byte fields are network byte order. Parsers never panic on
//! malformed input — every length and field is checked and reported via
//! [`WireError`].

pub mod arp;
pub mod ethernet;
pub mod ipv4;
pub mod stack;
pub mod udp;

pub use arp::{ArpOp, ArpRepr};
pub use ethernet::{EtherType, EthernetRepr};
pub use ipv4::Ipv4Repr;
pub use stack::{peek_udp_frame, udp_frame, udp_frame_with, UdpDatagram, UdpEndpoints};
pub use udp::UdpRepr;

use std::fmt;

/// Errors raised while parsing any wire format in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    Truncated { needed: usize, got: usize },
    /// A length field disagrees with the buffer.
    BadLength,
    /// A version/hardware-type/etc. field has an unsupported value.
    Unsupported(&'static str),
    /// A checksum failed verification.
    BadChecksum(&'static str),
    /// A field holds a value that is syntactically valid but semantically
    /// not allowed (e.g. ARP op 0).
    BadField(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated packet: need {needed} bytes, got {got}")
            }
            WireError::BadLength => write!(f, "length field inconsistent with buffer"),
            WireError::Unsupported(what) => write!(f, "unsupported {what}"),
            WireError::BadChecksum(proto) => write!(f, "bad {proto} checksum"),
            WireError::BadField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Check that `buf` holds at least `needed` bytes (shared by all wire
/// parsers in the workspace).
pub fn need(buf: &[u8], needed: usize) -> Result<(), WireError> {
    if buf.len() < needed {
        Err(WireError::Truncated {
            needed,
            got: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Read helpers over big-endian byte slices. All callers must have
/// validated lengths with [`need`] first; these panic on logic errors,
/// never on attacker-controlled lengths.
pub fn be16(buf: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([buf[at], buf[at + 1]])
}

pub fn be32(buf: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

pub fn put16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
}

pub fn put32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn need_reports_sizes() {
        let buf = [0u8; 3];
        assert_eq!(
            need(&buf, 5),
            Err(WireError::Truncated { needed: 5, got: 3 })
        );
        assert_eq!(need(&buf, 3), Ok(()));
    }

    #[test]
    fn endian_helpers_roundtrip() {
        let mut buf = [0u8; 8];
        put16(&mut buf, 1, 0xabcd);
        put32(&mut buf, 3, 0xdead_beef);
        assert_eq!(be16(&buf, 1), 0xabcd);
        assert_eq!(be32(&buf, 3), 0xdead_beef);
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::Truncated { needed: 20, got: 7 };
        assert!(e.to_string().contains("20"));
        assert!(e.to_string().contains("7"));
        assert!(WireError::BadChecksum("ipv4").to_string().contains("ipv4"));
    }
}
