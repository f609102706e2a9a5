//! Ethernet II frames.
//!
//! Every frame crossing a simulated link is a real encoded Ethernet II
//! frame: `dst(6) src(6) ethertype(2) payload`. The supercharged data
//! path works *because* the router writes a VMAC into `dst` and the
//! switch matches and rewrites it — so the frame encoding is load-bearing
//! for the whole reproduction, not decoration.

use super::{be16, need, put16, WireError};
use crate::mac::MacAddr;
use std::fmt;

/// Minimum Ethernet II header length (we do not model the FCS trailer;
/// link-level corruption is injected at the simulator instead).
pub const HEADER_LEN: usize = 14;

/// The EtherType values used in this workspace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    Ipv4,
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }

    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::Arp => write!(f, "ARP"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

/// Parsed Ethernet II header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetRepr {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parse a frame, returning the header and the payload slice.
    pub fn parse(frame: &[u8]) -> Result<(EthernetRepr, &[u8]), WireError> {
        need(frame, HEADER_LEN)?;
        let dst = MacAddr::from_bytes(&frame[0..6]).unwrap();
        let src = MacAddr::from_bytes(&frame[6..12]).unwrap();
        let ethertype = EtherType::from_u16(be16(frame, 12));
        Ok((
            EthernetRepr {
                dst,
                src,
                ethertype,
            },
            &frame[HEADER_LEN..],
        ))
    }

    /// Write the header into the first [`HEADER_LEN`] bytes of `frame`.
    pub fn emit(&self, frame: &mut [u8]) {
        frame[0..6].copy_from_slice(&self.dst.octets());
        frame[6..12].copy_from_slice(&self.src.octets());
        put16(frame, 12, self.ethertype.to_u16());
    }

    /// Serialize header + payload into a fresh frame buffer.
    pub fn to_frame(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        self.emit(&mut buf);
        buf[HEADER_LEN..].copy_from_slice(payload);
        buf
    }

    /// Rewrite the destination MAC of an already-encoded frame in place.
    ///
    /// This is the switch's `set_dst_mac` action: it must not re-parse or
    /// re-serialize the rest of the frame.
    pub fn rewrite_dst(frame: &mut [u8], dst: MacAddr) -> Result<(), WireError> {
        need(frame, HEADER_LEN)?;
        frame[0..6].copy_from_slice(&dst.octets());
        Ok(())
    }

    /// Rewrite the source MAC of an already-encoded frame in place.
    pub fn rewrite_src(frame: &mut [u8], src: MacAddr) -> Result<(), WireError> {
        need(frame, HEADER_LEN)?;
        frame[6..12].copy_from_slice(&src.octets());
        Ok(())
    }

    /// Peek at the destination MAC without a full parse (hot path of the
    /// switch pipeline).
    pub fn peek_dst(frame: &[u8]) -> Result<MacAddr, WireError> {
        need(frame, HEADER_LEN)?;
        Ok(MacAddr::from_bytes(&frame[0..6]).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetRepr {
        EthernetRepr {
            dst: MacAddr::new(0x02, 0x5c, 0, 0, 0, 1),
            src: MacAddr::new(0x00, 0x1b, 0x21, 0xaa, 0xbb, 0xcc),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample();
        let frame = repr.to_frame(b"hello");
        let (parsed, payload) = EthernetRepr::parse(&frame).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn truncated_rejected() {
        let frame = sample().to_frame(b"");
        assert!(EthernetRepr::parse(&frame[..13]).is_err());
        assert!(EthernetRepr::parse(&[]).is_err());
        // Exactly the header with empty payload is fine.
        let (_, payload) = EthernetRepr::parse(&frame).unwrap();
        assert!(payload.is_empty());
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_u16(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(EtherType::Other(0x1234).to_u16(), 0x1234);
        assert_eq!(EtherType::Ipv4.to_u16(), 0x0800);
    }

    #[test]
    fn rewrite_dst_in_place_preserves_rest() {
        let repr = sample();
        let mut frame = repr.to_frame(b"payload");
        let vmac = MacAddr::virtual_mac(7);
        EthernetRepr::rewrite_dst(&mut frame, vmac).unwrap();
        let (parsed, payload) = EthernetRepr::parse(&frame).unwrap();
        assert_eq!(parsed.dst, vmac);
        assert_eq!(parsed.src, repr.src);
        assert_eq!(parsed.ethertype, repr.ethertype);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn peek_dst_matches_parse() {
        let frame = sample().to_frame(&[0u8; 46]);
        assert_eq!(EthernetRepr::peek_dst(&frame).unwrap(), sample().dst);
        assert!(EthernetRepr::peek_dst(&frame[..5]).is_err());
    }
}
