//! IPv4 CIDR prefixes.
//!
//! A full Internet table is ~512k of these (the paper's workload); they
//! are the keys of every RIB and FIB in the workspace. The type is a
//! compact `(u32, u8)` pair and is always held in *canonical* form: host
//! bits below the mask are zero, so `Eq`/`Ord`/`Hash` behave as set
//! identity.

use std::cmp::Ordering;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix in canonical (masked) form.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

/// Network bits, then length: the FIB walk order. Every RIB lookup
/// compares prefixes, so the two fields are compared as one `u64`.
impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ipv4Prefix {
    /// `0.0.0.0/0` — the default route.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { bits: 0, len: 0 };

    /// Build a prefix, masking off host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        let raw = u32::from(addr);
        Ipv4Prefix {
            bits: raw & mask(len),
            len,
        }
    }

    /// Build a /32 host route.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix {
            bits: u32::from(addr),
            len: 32,
        }
    }

    /// The network address.
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The prefix length (mask bits).
    #[allow(
        clippy::len_without_is_empty,
        reason = "\"empty\" is not a meaningful notion for a prefix"
    )]
    pub fn len(self) -> u8 {
        self.len
    }

    /// The raw network bits (host bits zero).
    pub fn raw_bits(self) -> u32 {
        self.bits
    }

    /// `(bits, len)` packed so that comparing keys compares the pairs.
    fn order_key(self) -> u64 {
        (u64::from(self.bits) << 8) | u64::from(self.len)
    }

    /// The netmask as an address (e.g. `255.255.255.0` for /24).
    pub fn netmask(self) -> Ipv4Addr {
        Ipv4Addr::from(mask(self.len))
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask(self.len) == self.bits
    }

    /// True if `other` is fully covered by `self` (i.e. `self` is a
    /// supernet of — or equal to — `other`).
    pub fn covers(self, other: Ipv4Prefix) -> bool {
        self.len <= other.len && (other.bits & mask(self.len)) == self.bits
    }

    /// True if the two prefixes share any address.
    pub fn overlaps(self, other: Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The value of bit `i` (0 = most significant). Used by the radix trie.
    ///
    /// # Panics
    /// Panics if `i >= 32`.
    pub fn bit(self, i: u8) -> bool {
        assert!(i < 32);
        self.bits & (1u32 << (31 - i)) != 0
    }

    /// The first usable-looking host inside the prefix (network address
    /// +1 for prefixes shorter than /31, the network address itself
    /// otherwise). The traffic generator uses this to pick a concrete
    /// destination IP inside a monitored prefix.
    pub fn sample_host(self) -> Ipv4Addr {
        if self.len >= 31 {
            self.network()
        } else {
            Ipv4Addr::from(self.bits | 1)
        }
    }

    /// Number of addresses covered (saturating at `u64::MAX` is
    /// unnecessary: 2^32 fits in u64).
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len as u32)
    }
}

/// The 32-bit netmask for a prefix length.
fn mask(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing a textual prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// Missing `/` separator.
    MissingSlash,
    /// The address part did not parse.
    BadAddress,
    /// The length part did not parse or exceeded 32.
    BadLength,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::MissingSlash => write!(f, "missing '/' in prefix"),
            PrefixParseError::BadAddress => write!(f, "invalid IPv4 address in prefix"),
            PrefixParseError::BadLength => write!(f, "invalid prefix length (0-32)"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(PrefixParseError::MissingSlash)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| PrefixParseError::BadAddress)?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError::BadLength)?;
        if len > 32 {
            return Err(PrefixParseError::BadLength);
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let a = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        let b = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert_eq!(a, b);
        assert_eq!(a.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(a.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("1.0.0.0/24").to_string(), "1.0.0.0/24");
        assert_eq!(p("0.0.0.0/0"), Ipv4Prefix::DEFAULT);
        assert_eq!(p("203.0.113.7/32").len(), 32);
        assert!("1.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("1.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("1.0.0.x/8".parse::<Ipv4Prefix>().is_err());
        assert!("1.0.0.0/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn contains_respects_mask() {
        let pfx = p("192.168.4.0/22");
        assert!(pfx.contains(Ipv4Addr::new(192, 168, 4, 1)));
        assert!(pfx.contains(Ipv4Addr::new(192, 168, 7, 255)));
        assert!(!pfx.contains(Ipv4Addr::new(192, 168, 8, 0)));
        assert!(Ipv4Prefix::DEFAULT.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn covers_and_overlaps() {
        let wide = p("10.0.0.0/8");
        let narrow = p("10.1.0.0/16");
        let other = p("11.0.0.0/8");
        assert!(wide.covers(narrow));
        assert!(!narrow.covers(wide));
        assert!(wide.covers(wide));
        assert!(wide.overlaps(narrow));
        assert!(narrow.overlaps(wide));
        assert!(!wide.overlaps(other));
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let pfx = p("128.0.0.0/1");
        assert!(pfx.bit(0));
        let pfx = p("64.0.0.0/2");
        assert!(!pfx.bit(0));
        assert!(pfx.bit(1));
    }

    #[test]
    fn netmask_values() {
        assert_eq!(p("10.0.0.0/8").netmask(), Ipv4Addr::new(255, 0, 0, 0));
        assert_eq!(p("10.0.0.0/24").netmask(), Ipv4Addr::new(255, 255, 255, 0));
        assert_eq!(p("0.0.0.0/0").netmask(), Ipv4Addr::new(0, 0, 0, 0));
        assert_eq!(p("1.2.3.4/32").netmask(), Ipv4Addr::new(255, 255, 255, 255));
    }

    #[test]
    fn sample_host_is_inside() {
        for s in ["1.0.0.0/24", "10.0.0.0/8", "1.2.3.4/32", "1.2.3.4/31"] {
            let pfx = p(s);
            assert!(pfx.contains(pfx.sample_host()), "{s}");
        }
        assert_eq!(p("1.0.0.0/24").sample_host(), Ipv4Addr::new(1, 0, 0, 1));
    }

    #[test]
    fn size_counts_addresses() {
        assert_eq!(p("1.2.3.4/32").size(), 1);
        assert_eq!(p("1.0.0.0/24").size(), 256);
        assert_eq!(p("0.0.0.0/0").size(), 1u64 << 32);
    }

    #[test]
    fn ordering_is_stable_for_fib_walks() {
        // The router walks its FIB in trie (sorted) order; the Ord impl
        // must sort by network bits then length.
        let mut v = vec![p("2.0.0.0/8"), p("1.0.0.0/24"), p("1.0.0.0/16")];
        v.sort();
        assert_eq!(v, vec![p("1.0.0.0/16"), p("1.0.0.0/24"), p("2.0.0.0/8")]);
    }
}
