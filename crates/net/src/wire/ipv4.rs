//! IPv4 headers (RFC 791), without options.
//!
//! The router's data plane parses these to do its longest-prefix match and
//! TTL handling; the traffic generator emits them for every probe packet.
//! Header checksums are always generated and validated (a corrupted frame
//! injected by the simulator's fault injection must be *detected*, not
//! silently forwarded).

use super::{be16, be32, need, put16, WireError};
use crate::checksum;
use std::net::Ipv4Addr;

/// Length of an IPv4 header without options.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers used in this workspace.
pub mod protocol {
    pub const ICMP: u8 = 1;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
}

/// Parsed IPv4 header (options unsupported by design — the paper's data
/// plane never generates them, and real routers punt optioned packets to
/// the slow path anyway).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Repr {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: u8,
    pub ttl: u8,
    /// DSCP/ECN byte, preserved verbatim.
    pub tos: u8,
    /// Identification field (used by the traffic generator to carry a
    /// per-flow sequence number, like the FPGA source does).
    pub ident: u16,
}

impl Ipv4Repr {
    /// Parse a header, validating version, length fields and checksum.
    /// Returns the header and the payload slice (trimmed to total_length).
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<(Ipv4Repr, &[u8]), WireError> {
        need(buf, HEADER_LEN)?;
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::Unsupported("ip version"));
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl != HEADER_LEN {
            return Err(WireError::Unsupported("ipv4 options"));
        }
        let total_len = be16(buf, 2) as usize;
        if total_len < HEADER_LEN || total_len > buf.len() {
            return Err(WireError::BadLength);
        }
        if !checksum::is_valid(&buf[..HEADER_LEN]) {
            return Err(WireError::BadChecksum("ipv4"));
        }
        let repr = Ipv4Repr {
            tos: buf[1],
            ident: be16(buf, 4),
            ttl: buf[8],
            protocol: buf[9],
            src: Ipv4Addr::from_bits(be32(buf, 12)),
            dst: Ipv4Addr::from_bits(be32(buf, 16)),
        };
        Ok((repr, &buf[HEADER_LEN..total_len]))
    }

    /// Write the header, checksum included, into the first
    /// [`HEADER_LEN`] bytes of `packet`; `payload_len` bytes follow it.
    pub fn emit(&self, packet: &mut [u8], payload_len: usize) {
        let total = HEADER_LEN + payload_len;
        assert!(total <= u16::MAX as usize, "ipv4 packet too large");
        let buf = &mut packet[..HEADER_LEN];
        buf.fill(0);
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = self.tos;
        put16(buf, 2, total as u16);
        put16(buf, 4, self.ident);
        // flags/fragment offset: DF set, never fragmented in this model.
        put16(buf, 6, 0x4000);
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::checksum(buf);
        put16(buf, 10, c);
    }

    /// Serialize header + payload into a packet, computing the checksum.
    pub fn to_packet(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        self.emit(&mut buf, payload.len());
        buf[HEADER_LEN..].copy_from_slice(payload);
        buf
    }

    /// Decrement the TTL of an already-encoded packet in place,
    /// incrementally updating the checksum (RFC 1624). Returns the new
    /// TTL, or an error if the packet is malformed or the TTL was already
    /// zero (caller should drop and, in a full router, emit ICMP time
    /// exceeded).
    #[inline]
    pub fn decrement_ttl(packet: &mut [u8]) -> Result<u8, WireError> {
        need(packet, HEADER_LEN)?;
        let ttl = packet[8];
        if ttl == 0 {
            return Err(WireError::BadField("ttl already zero"));
        }
        packet[8] = ttl - 1;
        // RFC 1624 incremental update: HC' = ~(~HC + ~m + m') (eq. 3).
        // The sum is at most 3 * 0xffff, so two end-around carries fold
        // it to 16 bits: the first leaves at most 0x10001, the second
        // at most 0xffff.
        let old = be16(packet, 10);
        let m = u16::from_be_bytes([ttl, packet[9]]);
        let m_new = u16::from_be_bytes([ttl - 1, packet[9]]);
        let acc = u32::from(!old) + u32::from(!m) + u32::from(m_new);
        let acc = (acc & 0xffff) + (acc >> 16);
        let acc = (acc & 0xffff) + (acc >> 16);
        put16(packet, 10, !(acc as u16));
        Ok(ttl - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(203, 0, 113, 10),
            dst: Ipv4Addr::new(1, 0, 0, 1),
            protocol: protocol::UDP,
            ttl: 64,
            tos: 0,
            ident: 0x1234,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample();
        let pkt = repr.to_packet(b"data!");
        let (parsed, payload) = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(payload, b"data!");
    }

    #[test]
    fn checksum_validated() {
        let mut pkt = sample().to_packet(b"x");
        pkt[8] ^= 0xff; // corrupt TTL without fixing checksum
        assert_eq!(Ipv4Repr::parse(&pkt), Err(WireError::BadChecksum("ipv4")));
    }

    #[test]
    fn version_and_options_rejected() {
        let mut pkt = sample().to_packet(b"");
        pkt[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Repr::parse(&pkt),
            Err(WireError::Unsupported("ip version"))
        );
        let mut pkt = sample().to_packet(b"");
        pkt[0] = 0x46; // IHL 6 => options present
        assert_eq!(
            Ipv4Repr::parse(&pkt),
            Err(WireError::Unsupported("ipv4 options"))
        );
    }

    #[test]
    fn total_length_respected() {
        let repr = sample();
        let pkt = repr.to_packet(b"abcdef");
        // Frame padded past total_length (Ethernet min-size padding):
        // payload must be trimmed to the header's total_length.
        let mut padded = pkt.clone();
        padded.extend_from_slice(&[0u8; 20]);
        let (_, payload) = Ipv4Repr::parse(&padded).unwrap();
        assert_eq!(payload, b"abcdef");
        // Truncated below total_length: error.
        assert!(Ipv4Repr::parse(&pkt[..pkt.len() - 1]).is_err());
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let mut pkt = sample().to_packet(b"payload");
        for expected in (0..64u8).rev() {
            let got = Ipv4Repr::decrement_ttl(&mut pkt).unwrap();
            assert_eq!(got, expected);
            let (parsed, _) = Ipv4Repr::parse(&pkt).expect("checksum must stay valid");
            assert_eq!(parsed.ttl, expected);
        }
        // TTL now 0: further decrement refused.
        assert!(Ipv4Repr::decrement_ttl(&mut pkt).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The incremental checksum after a TTL decrement is the one a
        /// recomputation from scratch gives, and the header still parses.
        #[test]
        fn decrement_ttl_equals_a_fresh_checksum(
            src in any::<u32>(), dst in any::<u32>(), protocol in any::<u8>(),
            ttl in 1u8..=255, tos in any::<u8>(), ident in any::<u16>(),
            payload in vec(any::<u8>(), 0..64),
        ) {
            let repr = Ipv4Repr {
                src: Ipv4Addr::from_bits(src),
                dst: Ipv4Addr::from_bits(dst),
                protocol,
                ttl,
                tos,
                ident,
            };
            let mut pkt = repr.to_packet(&payload);
            prop_assert_eq!(Ipv4Repr::decrement_ttl(&mut pkt), Ok(ttl - 1));
            let mut fresh = [0u8; HEADER_LEN];
            fresh.copy_from_slice(&pkt[..HEADER_LEN]);
            fresh[10..12].fill(0);
            prop_assert_eq!(be16(&pkt, 10), checksum::checksum(&fresh));
            let (parsed, rest) = Ipv4Repr::parse(&pkt).expect("checksum must stay valid");
            prop_assert_eq!(parsed, Ipv4Repr { ttl: ttl - 1, ..repr });
            prop_assert_eq!(rest, &payload[..]);
        }
    }
}
