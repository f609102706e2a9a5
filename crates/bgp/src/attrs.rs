//! BGP path attributes: typed representation and wire encode/decode.
//!
//! Attribute sets are immutable once built and shared across prefixes via
//! `Arc` — a RIPE RIS full table reuses the same attribute set for long
//! runs of prefixes, and both the router model and the controller exploit
//! that (exactly like real BGP implementations pack NLRI sharing one
//! attribute set into one UPDATE).

use sc_net::wire::{be32, need, WireError};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// ORIGIN attribute (RFC 4271 §5.1.1). Lower is preferred.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Origin {
    Igp = 0,
    Egp = 1,
    Incomplete = 2,
}

impl Origin {
    pub fn from_u8(v: u8) -> Result<Origin, WireError> {
        match v {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(WireError::BadField("origin")),
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Igp => write!(f, "IGP"),
            Origin::Egp => write!(f, "EGP"),
            Origin::Incomplete => write!(f, "?"),
        }
    }
}

/// AS_PATH segment types.
const SEG_SET: u8 = 1;
const SEG_SEQUENCE: u8 = 2;

/// One AS_PATH segment.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum AsSegment {
    /// Ordered sequence of ASes.
    Sequence(Vec<u16>),
    /// Unordered set (from aggregation); counts as length 1.
    Set(Vec<u16>),
}

/// An AS_PATH: a list of segments (RFC 4271 §5.1.2).
#[derive(Clone, PartialEq, Eq, Default, Debug, Hash)]
pub struct AsPath {
    pub segments: Vec<AsSegment>,
}

impl AsPath {
    /// A path consisting of one plain sequence.
    pub fn sequence(ases: impl Into<Vec<u16>>) -> AsPath {
        AsPath {
            segments: vec![AsSegment::Sequence(ases.into())],
        }
    }

    /// The empty path (locally originated).
    pub fn empty() -> AsPath {
        AsPath {
            segments: Vec::new(),
        }
    }

    /// Path length for the decision process: each AS in a SEQUENCE counts
    /// 1, each SET counts 1 in total (RFC 4271 §9.1.2.2.a).
    pub fn path_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                AsSegment::Sequence(v) => v.len(),
                AsSegment::Set(_) => 1,
            })
            .sum()
    }

    /// The first (neighbor) AS of the path, if any.
    pub fn first_as(&self) -> Option<u16> {
        match self.segments.first()? {
            AsSegment::Sequence(v) => v.first().copied(),
            AsSegment::Set(v) => v.first().copied(),
        }
    }

    /// True if `asn` appears anywhere (loop detection).
    pub fn contains(&self, asn: u16) -> bool {
        self.segments.iter().any(|s| match s {
            AsSegment::Sequence(v) | AsSegment::Set(v) => v.contains(&asn),
        })
    }

    /// A new path with `asn` prepended (what an eBGP speaker does when
    /// propagating).
    pub fn prepended(&self, asn: u16) -> AsPath {
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(AsSegment::Sequence(v)) if v.len() < 255 => v.insert(0, asn),
            _ => segments.insert(0, AsSegment::Sequence(vec![asn])),
        }
        AsPath { segments }
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsSegment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsSegment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// The complete attribute set carried by an UPDATE.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteAttrs {
    pub origin: Origin,
    pub as_path: AsPath,
    /// NEXT_HOP — the field the supercharger rewrites to a virtual
    /// next-hop (VNH).
    pub next_hop: Ipv4Addr,
    pub med: Option<u32>,
    pub local_pref: Option<u32>,
    pub communities: Vec<u32>,
}

impl RouteAttrs {
    /// Minimal eBGP attribute set.
    pub fn ebgp(as_path: AsPath, next_hop: Ipv4Addr) -> RouteAttrs {
        RouteAttrs {
            origin: Origin::Igp,
            as_path,
            next_hop,
            med: None,
            local_pref: None,
            communities: Vec::new(),
        }
    }

    /// The same attributes with a different NEXT_HOP — *the* operation of
    /// the supercharged controller (it rewrites NH to a VNH and forwards
    /// the announcement otherwise untouched).
    pub fn with_next_hop(&self, next_hop: Ipv4Addr) -> RouteAttrs {
        RouteAttrs {
            next_hop,
            ..self.clone()
        }
    }

    /// Share behind an `Arc`.
    pub fn shared(self) -> Arc<RouteAttrs> {
        Arc::new(self)
    }
}

// Attribute type codes.
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_COMMUNITIES: u8 = 8;

// Attribute flags.
const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXTENDED: u8 = 0x10;

/// Wire size of one attribute's header + value.
fn attr_wire_len(value_len: usize) -> usize {
    if value_len > 255 {
        4 + value_len // flags, code, 2-byte extended length
    } else {
        3 + value_len
    }
}

/// Wire size of the AS_PATH attribute *value* (segments only).
fn as_path_value_len(path: &AsPath) -> usize {
    path.segments
        .iter()
        .map(|s| match s {
            AsSegment::Sequence(v) | AsSegment::Set(v) => 2 + v.len() * 2,
        })
        .sum()
}

/// Exact encoded size of the path-attributes block, without encoding.
/// Pinned to [`encode_attrs`] by unit and property tests; UPDATE packing
/// sizes messages through this instead of a trial encode.
pub fn encoded_attrs_len(attrs: &RouteAttrs) -> usize {
    let mut n = attr_wire_len(1); // ORIGIN
    n += attr_wire_len(as_path_value_len(&attrs.as_path));
    n += attr_wire_len(4); // NEXT_HOP
    if attrs.med.is_some() {
        n += attr_wire_len(4);
    }
    if attrs.local_pref.is_some() {
        n += attr_wire_len(4);
    }
    if !attrs.communities.is_empty() {
        n += attr_wire_len(attrs.communities.len() * 4);
    }
    n
}

/// Write one attribute header (choosing the extended-length form when
/// the value exceeds 255 bytes); the caller appends the value bytes.
fn push_attr_header(out: &mut Vec<u8>, flags: u8, code: u8, value_len: usize) {
    if value_len > 255 {
        out.push(flags | FLAG_EXTENDED);
        out.push(code);
        out.extend_from_slice(&(value_len as u16).to_be_bytes());
    } else {
        out.push(flags);
        out.push(code);
        out.push(value_len as u8);
    }
}

/// Encode the attribute set into the UPDATE's path-attributes block.
/// Appends to `out` without any intermediate allocation (the hot
/// control-plane path reuses one buffer per session).
pub fn encode_attrs(attrs: &RouteAttrs, out: &mut Vec<u8>) {
    push_attr_header(out, FLAG_TRANSITIVE, ATTR_ORIGIN, 1);
    out.push(attrs.origin as u8);

    // AS_PATH: the value length is computable up front, so the segments
    // stream straight into `out` — no temporary path buffer.
    push_attr_header(
        out,
        FLAG_TRANSITIVE,
        ATTR_AS_PATH,
        as_path_value_len(&attrs.as_path),
    );
    for seg in &attrs.as_path.segments {
        let (ty, ases) = match seg {
            AsSegment::Sequence(v) => (SEG_SEQUENCE, v),
            AsSegment::Set(v) => (SEG_SET, v),
        };
        assert!(ases.len() <= 255, "AS segment too long");
        out.push(ty);
        out.push(ases.len() as u8);
        for a in ases {
            out.extend_from_slice(&a.to_be_bytes());
        }
    }

    push_attr_header(out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4);
    out.extend_from_slice(&attrs.next_hop.octets());

    if let Some(med) = attrs.med {
        push_attr_header(out, FLAG_OPTIONAL, ATTR_MED, 4);
        out.extend_from_slice(&med.to_be_bytes());
    }
    if let Some(lp) = attrs.local_pref {
        push_attr_header(out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, 4);
        out.extend_from_slice(&lp.to_be_bytes());
    }
    if !attrs.communities.is_empty() {
        push_attr_header(
            out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITIES,
            attrs.communities.len() * 4,
        );
        for comm in &attrs.communities {
            out.extend_from_slice(&comm.to_be_bytes());
        }
    }
}

/// Decode a path-attributes block. Mandatory attributes (ORIGIN, AS_PATH,
/// NEXT_HOP) must be present; unknown optional attributes are skipped.
pub fn decode_attrs(mut buf: &[u8]) -> Result<RouteAttrs, WireError> {
    let mut origin = None;
    let mut as_path = None;
    let mut next_hop = None;
    let mut med = None;
    let mut local_pref = None;
    let mut communities = Vec::new();

    while !buf.is_empty() {
        need(buf, 3)?;
        let flags = buf[0];
        let code = buf[1];
        let (len, header) = if flags & FLAG_EXTENDED != 0 {
            need(buf, 4)?;
            (u16::from_be_bytes([buf[2], buf[3]]) as usize, 4)
        } else {
            (buf[2] as usize, 3)
        };
        need(buf, header + len)?;
        let value = &buf[header..header + len];
        buf = &buf[header + len..];

        match code {
            ATTR_ORIGIN => {
                if len != 1 {
                    return Err(WireError::BadLength);
                }
                origin = Some(Origin::from_u8(value[0])?);
            }
            ATTR_AS_PATH => {
                // Count the segment headers first, so the path holds
                // what it carries; a malformed tail stops the count and
                // fails below.
                let mut headers = 0;
                let mut v = value;
                while let [_, count, ..] = *v {
                    let Some(rest) = v.get(2 + count as usize * 2..) else {
                        break;
                    };
                    headers += 1;
                    v = rest;
                }
                let mut segments = Vec::with_capacity(headers);
                let mut v = value;
                while !v.is_empty() {
                    need(v, 2)?;
                    let ty = v[0];
                    let count = v[1] as usize;
                    need(v, 2 + count * 2)?;
                    let mut ases = Vec::with_capacity(count);
                    for i in 0..count {
                        ases.push(u16::from_be_bytes([v[2 + i * 2], v[3 + i * 2]]));
                    }
                    segments.push(match ty {
                        SEG_SEQUENCE => AsSegment::Sequence(ases),
                        SEG_SET => AsSegment::Set(ases),
                        _ => return Err(WireError::BadField("as_path segment type")),
                    });
                    v = &v[2 + count * 2..];
                }
                as_path = Some(AsPath { segments });
            }
            ATTR_NEXT_HOP => {
                if len != 4 {
                    return Err(WireError::BadLength);
                }
                next_hop = Some(Ipv4Addr::new(value[0], value[1], value[2], value[3]));
            }
            ATTR_MED => {
                if len != 4 {
                    return Err(WireError::BadLength);
                }
                med = Some(be32(value, 0));
            }
            ATTR_LOCAL_PREF => {
                if len != 4 {
                    return Err(WireError::BadLength);
                }
                local_pref = Some(be32(value, 0));
            }
            ATTR_COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(WireError::BadLength);
                }
                for chunk in value.chunks_exact(4) {
                    communities.push(be32(chunk, 0));
                }
            }
            _ => {
                // Unknown attribute: acceptable only if optional.
                if flags & FLAG_OPTIONAL == 0 {
                    return Err(WireError::Unsupported("well-known attribute"));
                }
            }
        }
    }

    Ok(RouteAttrs {
        origin: origin.ok_or(WireError::BadField("missing ORIGIN"))?,
        as_path: as_path.ok_or(WireError::BadField("missing AS_PATH"))?,
        next_hop: next_hop.ok_or(WireError::BadField("missing NEXT_HOP"))?,
        med,
        local_pref,
        communities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RouteAttrs {
        RouteAttrs {
            origin: Origin::Igp,
            as_path: AsPath::sequence(vec![65001, 3356, 15169]),
            next_hop: Ipv4Addr::new(203, 0, 113, 1),
            med: Some(50),
            local_pref: Some(200),
            communities: vec![(65001u32 << 16) | 666, 0xFFFF_FF01],
        }
    }

    #[test]
    fn roundtrip_full() {
        let a = sample();
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        let b = decode_attrs(&buf).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_minimal() {
        let a = RouteAttrs::ebgp(AsPath::sequence(vec![65001]), Ipv4Addr::new(10, 0, 0, 1));
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        assert_eq!(decode_attrs(&buf).unwrap(), a);
    }

    #[test]
    fn roundtrip_with_set_segment() {
        let a = RouteAttrs {
            as_path: AsPath {
                segments: vec![
                    AsSegment::Sequence(vec![65001, 65002]),
                    AsSegment::Set(vec![100, 200, 300]),
                ],
            },
            ..sample()
        };
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        assert_eq!(decode_attrs(&buf).unwrap(), a);
    }

    #[test]
    fn missing_mandatory_rejected() {
        // Encode then strip the NEXT_HOP attribute (flags 0x40, code 3, len 4, value).
        let a = RouteAttrs::ebgp(AsPath::sequence(vec![1]), Ipv4Addr::new(1, 1, 1, 1));
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        let nh_pos = buf
            .windows(2)
            .position(|w| w == [FLAG_TRANSITIVE, ATTR_NEXT_HOP])
            .unwrap();
        let mut stripped = buf[..nh_pos].to_vec();
        stripped.extend_from_slice(&buf[nh_pos + 3 + 4..]);
        assert_eq!(
            decode_attrs(&stripped),
            Err(WireError::BadField("missing NEXT_HOP"))
        );
    }

    #[test]
    fn unknown_optional_skipped_unknown_wellknown_rejected() {
        let a = RouteAttrs::ebgp(AsPath::sequence(vec![1]), Ipv4Addr::new(1, 1, 1, 1));
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        // Append unknown optional attr (code 99).
        let mut with_opt = buf.clone();
        with_opt.extend_from_slice(&[FLAG_OPTIONAL, 99, 2, 0xde, 0xad]);
        assert!(decode_attrs(&with_opt).is_ok());
        // Append unknown well-known attr: reject.
        let mut with_wk = buf.clone();
        with_wk.extend_from_slice(&[0x40, 99, 1, 0x00]);
        assert_eq!(
            decode_attrs(&with_wk),
            Err(WireError::Unsupported("well-known attribute"))
        );
    }

    #[test]
    fn truncated_attr_rejected() {
        let a = sample();
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        for cut in [1, 2, buf.len() - 1] {
            assert!(decode_attrs(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn path_len_counts_sets_once() {
        let p = AsPath {
            segments: vec![
                AsSegment::Sequence(vec![1, 2, 3]),
                AsSegment::Set(vec![4, 5, 6, 7]),
            ],
        };
        assert_eq!(p.path_len(), 4);
        assert_eq!(AsPath::empty().path_len(), 0);
    }

    #[test]
    fn prepend_and_loop_detection() {
        let p = AsPath::sequence(vec![2, 3]);
        let q = p.prepended(1);
        assert_eq!(q, AsPath::sequence(vec![1, 2, 3]));
        assert!(q.contains(3));
        assert!(!q.contains(9));
        assert_eq!(q.first_as(), Some(1));
        // Prepending to an empty path creates a segment.
        assert_eq!(AsPath::empty().prepended(7), AsPath::sequence(vec![7]));
    }

    #[test]
    fn with_next_hop_only_changes_nh() {
        let a = sample();
        let vnh = Ipv4Addr::new(10, 200, 0, 1);
        let b = a.with_next_hop(vnh);
        assert_eq!(b.next_hop, vnh);
        assert_eq!(b.as_path, a.as_path);
        assert_eq!(b.med, a.med);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Origin::Igp.to_string(), "IGP");
        let p = AsPath {
            segments: vec![AsSegment::Sequence(vec![1, 2]), AsSegment::Set(vec![3, 4])],
        };
        assert_eq!(p.to_string(), "1 2 {3,4}");
    }

    #[test]
    fn encoded_len_is_exact() {
        let cases = [
            sample(),
            RouteAttrs::ebgp(AsPath::empty(), Ipv4Addr::new(1, 1, 1, 1)),
            RouteAttrs {
                as_path: AsPath {
                    segments: vec![AsSegment::Sequence((0..200).collect()); 2],
                },
                ..sample()
            },
        ];
        for a in cases {
            let mut buf = Vec::new();
            encode_attrs(&a, &mut buf);
            assert_eq!(encoded_attrs_len(&a), buf.len(), "{a:?}");
        }
    }

    #[test]
    fn extended_length_attribute_roundtrip() {
        // An AS_PATH long enough to need the extended-length flag (>255 bytes).
        let long: Vec<u16> = (0..200).collect();
        let a = RouteAttrs {
            as_path: AsPath {
                segments: vec![AsSegment::Sequence(long.clone()), AsSegment::Sequence(long)],
            },
            ..RouteAttrs::ebgp(AsPath::empty(), Ipv4Addr::new(1, 1, 1, 1))
        };
        let mut buf = Vec::new();
        encode_attrs(&a, &mut buf);
        assert_eq!(decode_attrs(&buf).unwrap(), a);
    }
}
