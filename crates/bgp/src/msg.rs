//! BGP message wire formats (RFC 4271 §4).
//!
//! Every message starts with the 19-byte header: a 16-byte all-ones
//! marker, a 2-byte length and a 1-byte type. UPDATE carries withdrawn
//! prefixes, one shared attribute block and the NLRI; like real BGP
//! speakers (and the RIS feeds the paper replays) we pack as many
//! prefixes sharing an attribute set as fit into one message.

use crate::attrs::{decode_attrs, encode_attrs, encoded_attrs_len, RouteAttrs};
use sc_net::wire::{be16, need, WireError};
use sc_net::Ipv4Prefix;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Header length (marker + length + type).
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message size (RFC 4271).
pub const MAX_MESSAGE_LEN: usize = 4096;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

/// OPEN message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpenMsg {
    /// Always 4.
    pub version: u8,
    pub my_as: u16,
    /// Hold time in seconds (0 = disabled, else >= 3 per RFC).
    pub hold_time: u16,
    pub router_id: Ipv4Addr,
}

impl OpenMsg {
    pub fn new(my_as: u16, hold_time: u16, router_id: Ipv4Addr) -> OpenMsg {
        OpenMsg {
            version: 4,
            my_as,
            hold_time,
            router_id,
        }
    }
}

/// NOTIFICATION message (error report; closes the session).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotificationMsg {
    pub code: u8,
    pub subcode: u8,
    pub data: Vec<u8>,
}

impl NotificationMsg {
    /// Cease / administrative shutdown — what a controller sends when it
    /// tears a session down deliberately.
    pub fn cease() -> NotificationMsg {
        NotificationMsg {
            code: 6,
            subcode: 2,
            data: Vec::new(),
        }
    }

    /// Hold timer expired (code 4).
    pub fn hold_timer_expired() -> NotificationMsg {
        NotificationMsg {
            code: 4,
            subcode: 0,
            data: Vec::new(),
        }
    }
}

/// UPDATE message: withdrawals plus announcements sharing one attribute
/// set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateMsg {
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Present iff `nlri` is non-empty.
    pub attrs: Option<Arc<RouteAttrs>>,
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMsg {
    /// An announcement of `nlri` with shared `attrs`.
    pub fn announce(attrs: Arc<RouteAttrs>, nlri: Vec<Ipv4Prefix>) -> UpdateMsg {
        assert!(!nlri.is_empty());
        UpdateMsg {
            withdrawn: Vec::new(),
            attrs: Some(attrs),
            nlri,
        }
    }

    /// A pure withdrawal.
    pub fn withdraw(prefixes: Vec<Ipv4Prefix>) -> UpdateMsg {
        UpdateMsg {
            withdrawn: prefixes,
            attrs: None,
            nlri: Vec::new(),
        }
    }

    /// Exact encoded size of `BgpMessage::Update(self)`, without
    /// encoding. Pinned to [`BgpMessage::encode`] by property tests;
    /// [`UpdateMsg::split_to_fit`] sizes fragments through this instead
    /// of trial-encoding every candidate split.
    pub fn encoded_len(&self) -> usize {
        let withdrawn: usize = self.withdrawn.iter().map(|p| prefix_wire_len(*p)).sum();
        let attrs = self
            .attrs
            .as_ref()
            .map(|a| encoded_attrs_len(a))
            .unwrap_or(0);
        let nlri: usize = self.nlri.iter().map(|p| prefix_wire_len(*p)).sum();
        HEADER_LEN + 2 + withdrawn + 2 + attrs + nlri
    }

    /// Split the NLRI so every emitted message fits in
    /// [`MAX_MESSAGE_LEN`], appending the parts to `out` in order. An
    /// UPDATE that already fits is pushed unchanged: no vector of its
    /// own, so the caller's buffer is the only allocation.
    pub fn split_to_fit(self, out: &mut Vec<UpdateMsg>) {
        if self.encoded_len() <= MAX_MESSAGE_LEN {
            out.push(self);
            return;
        }
        UpdateMsg::split_from(
            &self.withdrawn,
            self.attrs.as_ref(),
            &self.nlri,
            &mut |part| out.push(part),
        );
    }

    /// The UPDATEs that carry `withdrawn`, then `nlri` announced with
    /// `attrs`, each within [`MAX_MESSAGE_LEN`], handed to `out` in
    /// order: one message when it fits, else the longer list halved,
    /// recursively. The halving runs over index ranges of the borrowed
    /// lists, and each part's lists are copied out once, at their size.
    pub fn split_from(
        withdrawn: &[Ipv4Prefix],
        attrs: Option<&Arc<RouteAttrs>>,
        nlri: &[Ipv4Prefix],
        out: &mut impl FnMut(UpdateMsg),
    ) {
        let attrs_len = attrs.map_or(0, |a| encoded_attrs_len(a));
        split_ranges(withdrawn, attrs, attrs_len, nlri, out);
    }
}

/// [`UpdateMsg::split_from`] with the attribute block's size known:
/// `attrs_len` when `attrs` is present.
fn split_ranges(
    withdrawn: &[Ipv4Prefix],
    attrs: Option<&Arc<RouteAttrs>>,
    attrs_len: usize,
    nlri: &[Ipv4Prefix],
    out: &mut impl FnMut(UpdateMsg),
) {
    let wire =
        |prefixes: &[Ipv4Prefix]| -> usize { prefixes.iter().map(|p| prefix_wire_len(*p)).sum() };
    let len = HEADER_LEN + 2 + wire(withdrawn) + 2 + attrs.map_or(0, |_| attrs_len) + wire(nlri);
    if len <= MAX_MESSAGE_LEN {
        out(UpdateMsg {
            withdrawn: withdrawn.to_vec(),
            attrs: attrs.cloned(),
            nlri: nlri.to_vec(),
        });
        return;
    }
    // Conservative split: halve the larger list recursively.
    assert!(
        withdrawn.len() > 1 || nlri.len() > 1,
        "single-prefix UPDATE exceeds MAX_MESSAGE_LEN"
    );
    if nlri.len() >= withdrawn.len() {
        let (a, b) = nlri.split_at(nlri.len() / 2);
        if !withdrawn.is_empty() || !a.is_empty() {
            split_ranges(withdrawn, attrs, attrs_len, a, out);
        }
        split_ranges(&[], attrs, attrs_len, b, out);
    } else {
        let (a, b) = withdrawn.split_at(withdrawn.len() / 2);
        split_ranges(a, None, attrs_len, &[], out);
        split_ranges(b, attrs, attrs_len, nlri, out);
    }
}

/// Any BGP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage {
    Open(OpenMsg),
    Update(UpdateMsg),
    Notification(NotificationMsg),
    Keepalive,
}

/// Encode a prefix in BGP NLRI form: length byte + minimal octets.
/// Public because the same encoding appears outside UPDATE bodies —
/// MRT `TABLE_DUMP_V2` RIB records carry it too (`sc-mrt`).
pub fn encode_prefix(p: Ipv4Prefix, out: &mut Vec<u8>) {
    out.push(p.len());
    let octets = p.network().octets();
    let n = (p.len() as usize).div_ceil(8);
    out.extend_from_slice(&octets[..n]);
}

/// NLRI wire size of one prefix: length byte + minimal octets.
pub fn prefix_wire_len(p: Ipv4Prefix) -> usize {
    1 + (p.len() as usize).div_ceil(8)
}

/// Decode a run of NLRI-encoded prefixes filling `buf` entirely.
pub fn decode_prefixes(mut buf: &[u8]) -> Result<Vec<Ipv4Prefix>, WireError> {
    let mut out = Vec::with_capacity(prefix_count(buf));
    while !buf.is_empty() {
        let len = buf[0];
        if len > 32 {
            return Err(WireError::BadField("prefix length"));
        }
        let n = (len as usize).div_ceil(8);
        need(buf, 1 + n)?;
        let mut octets = [0u8; 4];
        octets[..n].copy_from_slice(&buf[1..1 + n]);
        out.push(Ipv4Prefix::new(Ipv4Addr::from(octets), len));
        buf = &buf[1 + n..];
    }
    Ok(out)
}

/// How many prefixes `buf` holds if it is well formed: one per length
/// byte, skipping each one's octets. At most `buf.len()`, whatever the
/// bytes; [`decode_prefixes`] checks them.
fn prefix_count(buf: &[u8]) -> usize {
    let mut count = 0;
    let mut at = 0;
    while let Some(&len) = buf.get(at) {
        count += 1;
        at += 1 + (len as usize).div_ceil(8);
    }
    count
}

impl BgpMessage {
    /// The message type byte (for diagnostics).
    pub fn type_code(&self) -> u8 {
        match self {
            BgpMessage::Open(_) => TYPE_OPEN,
            BgpMessage::Update(_) => TYPE_UPDATE,
            BgpMessage::Notification(_) => TYPE_NOTIFICATION,
            BgpMessage::Keepalive => TYPE_KEEPALIVE,
        }
    }

    /// Serialize with header and marker into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serialize with header and marker, reusing `out` (cleared first).
    /// This is the hot-path form: one pass over the message, length
    /// fields backpatched in place, zero intermediate allocations — a
    /// session replaying a full feed reuses one buffer for every
    /// message instead of building four fresh `Vec<u8>`s per message.
    /// An UPDATE reserves its size first, rounded up to the power of
    /// two that growing by doubling would reach, so a fresh buffer is
    /// allocated once and a recycled one keeps fitting the next message.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        if let BgpMessage::Update(u) = self {
            out.reserve(u.encoded_len().next_power_of_two());
        }
        out.extend_from_slice(&[0xff; 16]);
        out.extend_from_slice(&[0, 0]); // total length, backpatched
        out.push(self.type_code());
        match self {
            BgpMessage::Open(o) => {
                out.push(o.version);
                out.extend_from_slice(&o.my_as.to_be_bytes());
                out.extend_from_slice(&o.hold_time.to_be_bytes());
                out.extend_from_slice(&o.router_id.octets());
                out.push(0); // no optional parameters
            }
            BgpMessage::Update(u) => {
                let withdrawn_at = out.len();
                out.extend_from_slice(&[0, 0]); // withdrawn length
                for p in &u.withdrawn {
                    encode_prefix(*p, out);
                }
                let wlen = out.len() - withdrawn_at - 2;
                out[withdrawn_at..withdrawn_at + 2].copy_from_slice(&(wlen as u16).to_be_bytes());
                let attrs_at = out.len();
                out.extend_from_slice(&[0, 0]); // attrs length
                if let Some(a) = &u.attrs {
                    encode_attrs(a, out);
                } else {
                    assert!(u.nlri.is_empty(), "NLRI requires attributes");
                }
                let alen = out.len() - attrs_at - 2;
                out[attrs_at..attrs_at + 2].copy_from_slice(&(alen as u16).to_be_bytes());
                for p in &u.nlri {
                    encode_prefix(*p, out);
                }
            }
            BgpMessage::Notification(n) => {
                out.push(n.code);
                out.push(n.subcode);
                out.extend_from_slice(&n.data);
            }
            BgpMessage::Keepalive => {}
        }
        let total = out.len();
        assert!(total <= u16::MAX as usize, "bgp message too large to frame");
        out[16..18].copy_from_slice(&(total as u16).to_be_bytes());
    }

    /// Parse one message from `buf` (which must contain exactly one
    /// message — the reliable channel preserves message boundaries).
    pub fn decode(buf: &[u8]) -> Result<BgpMessage, WireError> {
        need(buf, HEADER_LEN)?;
        if buf[..16] != [0xff; 16] {
            return Err(WireError::BadField("bgp marker"));
        }
        let len = be16(buf, 16) as usize;
        if len < HEADER_LEN || len != buf.len() {
            return Err(WireError::BadLength);
        }
        let ty = buf[18];
        let body = &buf[HEADER_LEN..];
        match ty {
            TYPE_OPEN => {
                need(body, 10)?;
                if body[0] != 4 {
                    return Err(WireError::Unsupported("bgp version"));
                }
                let hold_time = be16(body, 3);
                if hold_time != 0 && hold_time < 3 {
                    return Err(WireError::BadField("hold time"));
                }
                Ok(BgpMessage::Open(OpenMsg {
                    version: body[0],
                    my_as: be16(body, 1),
                    hold_time,
                    router_id: Ipv4Addr::new(body[5], body[6], body[7], body[8]),
                }))
            }
            TYPE_UPDATE => {
                need(body, 2)?;
                let wlen = be16(body, 0) as usize;
                need(body, 2 + wlen + 2)?;
                let withdrawn = decode_prefixes(&body[2..2 + wlen])?;
                let alen = be16(body, 2 + wlen) as usize;
                need(body, 2 + wlen + 2 + alen)?;
                let attr_bytes = &body[2 + wlen + 2..2 + wlen + 2 + alen];
                let nlri = decode_prefixes(&body[2 + wlen + 2 + alen..])?;
                let attrs = if alen > 0 {
                    Some(Arc::new(decode_attrs(attr_bytes)?))
                } else {
                    None
                };
                if attrs.is_none() && !nlri.is_empty() {
                    return Err(WireError::BadField("NLRI without attributes"));
                }
                Ok(BgpMessage::Update(UpdateMsg {
                    withdrawn,
                    attrs,
                    nlri,
                }))
            }
            TYPE_NOTIFICATION => {
                need(body, 2)?;
                Ok(BgpMessage::Notification(NotificationMsg {
                    code: body[0],
                    subcode: body[1],
                    data: body[2..].to_vec(),
                }))
            }
            TYPE_KEEPALIVE => {
                if !body.is_empty() {
                    return Err(WireError::BadLength);
                }
                Ok(BgpMessage::Keepalive)
            }
            _ => Err(WireError::BadField("bgp message type")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs() -> Arc<RouteAttrs> {
        RouteAttrs::ebgp(
            AsPath::sequence(vec![65001, 174]),
            Ipv4Addr::new(203, 0, 113, 1),
        )
        .shared()
    }

    #[test]
    fn open_roundtrip() {
        let m = BgpMessage::Open(OpenMsg::new(65001, 90, Ipv4Addr::new(1, 1, 1, 1)));
        let enc = m.encode();
        assert_eq!(BgpMessage::decode(&enc).unwrap(), m);
        assert_eq!(enc.len(), HEADER_LEN + 10);
    }

    #[test]
    fn keepalive_roundtrip() {
        let enc = BgpMessage::Keepalive.encode();
        assert_eq!(enc.len(), HEADER_LEN);
        assert_eq!(BgpMessage::decode(&enc).unwrap(), BgpMessage::Keepalive);
    }

    #[test]
    fn notification_roundtrip() {
        let m = BgpMessage::Notification(NotificationMsg {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3],
        });
        assert_eq!(BgpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn update_roundtrip_mixed() {
        let m = BgpMessage::Update(UpdateMsg {
            withdrawn: vec![p("9.9.0.0/16"), p("8.0.0.0/8")],
            attrs: Some(attrs()),
            nlri: vec![p("1.0.0.0/24"), p("1.0.1.0/24"), p("100.64.0.0/10")],
        });
        assert_eq!(BgpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn update_pure_withdrawal() {
        let m = BgpMessage::Update(UpdateMsg::withdraw(vec![p("1.0.0.0/24")]));
        assert_eq!(BgpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn prefix_encoding_is_minimal() {
        // A /8 must use 1 octet, /24 three, /32 four, /0 zero.
        let m = BgpMessage::Update(UpdateMsg::announce(
            attrs(),
            vec![
                p("10.0.0.0/8"),
                p("1.2.3.0/24"),
                p("5.6.7.8/32"),
                p("0.0.0.0/0"),
            ],
        ));
        let enc = m.encode();
        let dec = BgpMessage::decode(&enc).unwrap();
        assert_eq!(dec, m);
        // NLRI bytes: (1+1)+(1+3)+(1+4)+(1+0) = 12.
        let attrs_len = {
            let mut v = Vec::new();
            encode_attrs(&attrs(), &mut v);
            v.len()
        };
        assert_eq!(enc.len(), HEADER_LEN + 2 + 2 + attrs_len + 12);
    }

    #[test]
    fn marker_and_length_validated() {
        let m = BgpMessage::Keepalive.encode();
        let mut bad_marker = m.clone();
        bad_marker[3] = 0;
        assert_eq!(
            BgpMessage::decode(&bad_marker),
            Err(WireError::BadField("bgp marker"))
        );
        let mut bad_len = m.clone();
        bad_len[17] = 99;
        assert!(BgpMessage::decode(&bad_len).is_err());
        assert!(BgpMessage::decode(&m[..10]).is_err());
    }

    #[test]
    fn nlri_without_attrs_rejected() {
        // Hand-craft an UPDATE with NLRI but empty attribute block.
        let mut body = Vec::new();
        body.extend_from_slice(&0u16.to_be_bytes()); // no withdrawals
        body.extend_from_slice(&0u16.to_be_bytes()); // no attrs
        body.push(24);
        body.extend_from_slice(&[1, 0, 0]);
        let total = HEADER_LEN + body.len();
        let mut msg = vec![0xff; 16];
        msg.extend_from_slice(&(total as u16).to_be_bytes());
        msg.push(TYPE_UPDATE);
        msg.extend_from_slice(&body);
        assert_eq!(
            BgpMessage::decode(&msg),
            Err(WireError::BadField("NLRI without attributes"))
        );
    }

    #[test]
    fn bad_prefix_len_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&0u16.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
        let mut msg = vec![0xff; 16];
        // wait to compute total; craft NLRI with len 33
        let mut b2 = body.clone();
        b2.push(33);
        b2.extend_from_slice(&[1, 0, 0, 0, 1]);
        let total = HEADER_LEN + b2.len();
        msg.extend_from_slice(&(total as u16).to_be_bytes());
        msg.push(TYPE_UPDATE);
        msg.extend_from_slice(&b2);
        // NLRI-without-attrs check happens after prefix decode, so the
        // length error must surface first.
        assert_eq!(
            BgpMessage::decode(&msg),
            Err(WireError::BadField("prefix length"))
        );
    }

    #[test]
    fn split_to_fit_respects_max_len() {
        // 2000 prefixes in one UPDATE exceeds 4096 bytes; splitting must
        // produce messages that each fit and that jointly carry all NLRI.
        let nlri: Vec<Ipv4Prefix> = (0..2000u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24))
            .collect();
        let mut msgs = Vec::new();
        UpdateMsg::announce(attrs(), nlri.clone()).split_to_fit(&mut msgs);
        assert!(msgs.len() > 1);
        let mut collected = Vec::new();
        for m in &msgs {
            let enc = BgpMessage::Update(m.clone()).encode();
            assert!(
                enc.len() <= MAX_MESSAGE_LEN,
                "fragment too large: {}",
                enc.len()
            );
            collected.extend(m.nlri.iter().copied());
        }
        assert_eq!(collected, nlri);
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let msgs = vec![
            BgpMessage::Open(OpenMsg::new(65001, 90, Ipv4Addr::new(1, 1, 1, 1))),
            BgpMessage::Keepalive,
            BgpMessage::Notification(NotificationMsg::cease()),
            BgpMessage::Update(UpdateMsg {
                withdrawn: vec![p("9.9.0.0/16")],
                attrs: Some(attrs()),
                nlri: vec![p("1.0.0.0/24"), p("100.64.0.0/10")],
            }),
            BgpMessage::Update(UpdateMsg::withdraw(vec![p("1.0.0.0/24")])),
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            m.encode_into(&mut buf);
            assert_eq!(buf, m.encode(), "{m:?}");
            if let BgpMessage::Update(u) = m {
                assert_eq!(u.encoded_len(), buf.len(), "{u:?}");
            }
        }
    }

    #[test]
    fn hold_time_below_three_rejected() {
        let m = BgpMessage::Open(OpenMsg::new(1, 2, Ipv4Addr::new(1, 1, 1, 1)));
        let enc = m.encode();
        assert_eq!(
            BgpMessage::decode(&enc),
            Err(WireError::BadField("hold time"))
        );
    }
}
