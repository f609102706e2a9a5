//! Ethernet MAC addresses.
//!
//! The supercharger tags traffic with *virtual* MAC addresses (VMACs): the
//! router writes the VMAC of a backup-group into outgoing frames and the
//! SDN switch matches on it. VMACs are allocated from the
//! locally-administered, unicast range (`x2:xx:...`), which is guaranteed
//! never to collide with burned-in hardware addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit Ethernet MAC address.
///
/// The six octets are packed big-endian into the low 48 bits of a word,
/// so the derived `Ord` is octet order and every per-hop copy, compare
/// and hash is one register operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(u64);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr::from_octets([0xff; 6]);
    /// The all-zero address (invalid as a source; used as "unset").
    pub const ZERO: MacAddr = MacAddr(0);

    /// Construct from the six octets, first on the wire first.
    pub const fn from_octets(o: [u8; 6]) -> Self {
        MacAddr(u64::from_be_bytes([
            0, 0, o[0], o[1], o[2], o[3], o[4], o[5],
        ]))
    }

    /// The raw octets.
    pub const fn octets(self) -> [u8; 6] {
        let b = self.0.to_be_bytes();
        [b[2], b[3], b[4], b[5], b[6], b[7]]
    }

    /// True for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// True if the group bit (I/G, least-significant bit of the first
    /// octet) is set — broadcast or multicast.
    pub fn is_multicast(self) -> bool {
        (self.0 >> 40) & 0x01 != 0
    }

    /// True for unicast (neither broadcast nor multicast).
    pub fn is_unicast(self) -> bool {
        !self.is_multicast()
    }

    /// True if the locally-administered bit (U/L, second-least-significant
    /// bit of the first octet) is set. All VMACs are locally administered.
    pub fn is_locally_administered(self) -> bool {
        (self.0 >> 40) & 0x02 != 0
    }

    /// The `02:5c:` ("sc") prefix of every VMAC, in the top two octets.
    const VMAC_PREFIX: u64 = 0x025c << 32;

    /// Build the `index`-th virtual MAC: locally-administered unicast,
    /// `02:5c:` ("sc") prefix, with the index in the low 32 bits.
    ///
    /// This is the allocation scheme the supercharger's VMAC pool uses;
    /// it supports 2^32 distinct backup-groups, far more than the
    /// `n(n-1)` any real deployment needs.
    pub const fn virtual_mac(index: u32) -> MacAddr {
        MacAddr(Self::VMAC_PREFIX | index as u64)
    }

    /// If this address is a VMAC produced by [`MacAddr::virtual_mac`],
    /// return its index.
    pub fn virtual_index(self) -> Option<u32> {
        (self.0 >> 32 == Self::VMAC_PREFIX >> 32).then_some(self.0 as u32)
    }

    /// Parse from a 6-byte slice.
    #[inline]
    pub fn from_bytes(b: &[u8]) -> Option<MacAddr> {
        let (hi, lo) = b.split_first_chunk::<2>()?;
        let lo: &[u8; 4] = lo.try_into().ok()?;
        Some(MacAddr(
            (u64::from(u16::from_be_bytes(*hi)) << 32) | u64::from(u32::from_be_bytes(*lo)),
        ))
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing a textual MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacParseError;

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax (expected aa:bb:cc:dd:ee:ff)")
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for o in octets.iter_mut() {
            let part = parts.next().ok_or(MacParseError)?;
            if part.len() != 2 {
                return Err(MacParseError);
            }
            *o = u8::from_str_radix(part, 16).map_err(|_| MacParseError)?;
        }
        if parts.next().is_some() {
            return Err(MacParseError);
        }
        Ok(MacAddr::from_octets(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed word is the octets: it round-trips, orders as
        /// they do, parses and prints as they do, and its flag and VMAC
        /// helpers read the octets the standard names.
        #[test]
        fn packed_word_is_the_octets(
            o in any::<[u8; 6]>(),
            p in any::<[u8; 6]>(),
            index in any::<u32>(),
        ) {
            let (a, b) = (MacAddr::from_octets(o), MacAddr::from_octets(p));
            prop_assert_eq!(a.octets(), o);
            prop_assert_eq!(a.cmp(&b), o.cmp(&p));
            prop_assert_eq!(a == b, o == p);
            prop_assert_eq!(MacAddr::from_bytes(&o), Some(a));
            prop_assert_eq!(MacAddr::from_bytes(&o[..5]), None);
            prop_assert_eq!(MacAddr::from_bytes(&[o, p].concat()), None);
            let text = a.to_string();
            let expect = o.map(|x| format!("{x:02x}")).join(":");
            prop_assert_eq!(&text, &expect);
            prop_assert_eq!(text.parse::<MacAddr>(), Ok(a));
            prop_assert_eq!(a.is_multicast(), o[0] & 0x01 != 0);
            prop_assert_eq!(a.is_locally_administered(), o[0] & 0x02 != 0);
            prop_assert_eq!(MacAddr::virtual_mac(index).virtual_index(), Some(index));
            let vmac = o[..2] == [0x02, 0x5c];
            let index_of_o = u32::from_be_bytes([o[2], o[3], o[4], o[5]]);
            prop_assert_eq!(a.virtual_index(), vmac.then_some(index_of_o));
            let forced = MacAddr::from_octets([0x02, 0x5c, o[2], o[3], o[4], o[5]]);
            prop_assert_eq!(forced.virtual_index(), Some(index_of_o));
        }
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let m = MacAddr::from_octets([0x01, 0xaa, 0x00, 0xff, 0x02, 0xbb]);
        assert_eq!(m.to_string(), "01:aa:00:ff:02:bb");
        assert_eq!("01:aa:00:ff:02:bb".parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("01:aa".parse::<MacAddr>().is_err());
        assert!("01:aa:00:ff:02:bb:cc".parse::<MacAddr>().is_err());
        assert!("01:aa:00:ff:02:zz".parse::<MacAddr>().is_err());
        assert!("1:aa:00:ff:02:bb".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());
        let mcast = MacAddr::from_octets([0x01, 0x00, 0x5e, 0x00, 0x00, 0x01]);
        assert!(mcast.is_multicast());
        assert!(!mcast.is_broadcast());
        let ucast = MacAddr::from_octets([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]);
        assert!(ucast.is_unicast());
    }

    #[test]
    fn virtual_mac_scheme() {
        let v0 = MacAddr::virtual_mac(0);
        let v1 = MacAddr::virtual_mac(1);
        let vbig = MacAddr::virtual_mac(0xdead_beef);
        assert_ne!(v0, v1);
        assert!(v0.is_locally_administered());
        assert!(v0.is_unicast());
        assert_eq!(v0.virtual_index(), Some(0));
        assert_eq!(v1.virtual_index(), Some(1));
        assert_eq!(vbig.virtual_index(), Some(0xdead_beef));
        // A hardware-looking address is not a VMAC.
        assert_eq!(
            MacAddr::from_octets([0x00, 0x1b, 0x21, 0x00, 0x00, 0x01]).virtual_index(),
            None
        );
    }

    #[test]
    fn virtual_macs_are_dense_and_distinct() {
        let macs: Vec<MacAddr> = (0..1000).map(MacAddr::virtual_mac).collect();
        let mut dedup = macs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), macs.len());
    }

    #[test]
    fn from_bytes_checks_length() {
        assert!(MacAddr::from_bytes(&[1, 2, 3, 4, 5, 6]).is_some());
        assert!(MacAddr::from_bytes(&[1, 2, 3]).is_none());
        assert!(MacAddr::from_bytes(&[0; 7]).is_none());
    }
}
