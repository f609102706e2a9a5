//! The switch↔controller control protocol.
//!
//! Same message set and semantics as the OpenFlow 1.0 subset the paper
//! uses (HELLO, FEATURES, FLOW_MOD, PACKET_IN/OUT, PORT_STATUS, BARRIER,
//! ECHO, flow STATS), with a compact binary encoding:
//!
//! ```text
//! version(1)=1 | type(1) | length(2) | xid(4) | body...
//! ```
//!
//! Each message is carried as one reliable-channel message, so no
//! streaming reassembly is needed.

use crate::types::{Action, FlowMatch};
use sc_net::wire::{be16, be32, need, WireError};
use sc_net::{Ipv4Prefix, MacAddr};
use std::net::Ipv4Addr;

/// Protocol version byte.
pub const VERSION: u8 = 1;
/// Fixed header length.
pub const HEADER_LEN: usize = 8;

const T_HELLO: u8 = 0;
const T_ECHO_REQ: u8 = 1;
const T_ECHO_REP: u8 = 2;
const T_FEATURES_REQ: u8 = 3;
const T_FEATURES_REP: u8 = 4;
const T_FLOW_MOD: u8 = 5;
const T_PACKET_IN: u8 = 6;
const T_PACKET_OUT: u8 = 7;
const T_PORT_STATUS: u8 = 8;
const T_BARRIER_REQ: u8 = 9;
const T_BARRIER_REP: u8 = 10;
const T_STATS_REQ: u8 = 11;
const T_STATS_REP: u8 = 12;

/// FLOW_MOD commands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowModCommand {
    Add = 0,
    Modify = 1,
    Delete = 2,
}

impl FlowModCommand {
    fn from_u8(v: u8) -> Result<FlowModCommand, WireError> {
        match v {
            0 => Ok(FlowModCommand::Add),
            1 => Ok(FlowModCommand::Modify),
            2 => Ok(FlowModCommand::Delete),
            _ => Err(WireError::BadField("flow_mod command")),
        }
    }
}

/// One row of a flow-stats reply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowStatsRow {
    pub priority: u16,
    pub cookie: u64,
    pub packets: u64,
    pub bytes: u64,
}

/// Control-channel messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OfMessage {
    Hello,
    EchoRequest(Vec<u8>),
    EchoReply(Vec<u8>),
    FeaturesRequest,
    FeaturesReply {
        datapath_id: u64,
        n_ports: u16,
    },
    FlowMod {
        command: FlowModCommand,
        priority: u16,
        cookie: u64,
        matcher: FlowMatch,
        actions: Vec<Action>,
    },
    PacketIn {
        in_port: u16,
        frame: Vec<u8>,
    },
    PacketOut {
        actions: Vec<Action>,
        frame: Vec<u8>,
    },
    PortStatus {
        port: u16,
        up: bool,
    },
    /// Fence: the switch replies once every earlier flow-mod has been
    /// applied. The token round-trips so the controller can match acks
    /// to pending batches cumulatively (a reply acks every batch with a
    /// token ≤ the replied one).
    BarrierRequest {
        token: u64,
    },
    BarrierReply {
        token: u64,
    },
    StatsRequest,
    StatsReply {
        lookups: u64,
        misses: u64,
        flows: Vec<FlowStatsRow>,
    },
}

fn put_mac(out: &mut Vec<u8>, m: MacAddr) {
    out.extend_from_slice(&m.octets());
}

fn put_prefix(out: &mut Vec<u8>, p: Ipv4Prefix) {
    out.extend_from_slice(&p.network().octets());
    out.push(p.len());
}

fn get_mac(buf: &[u8], at: usize) -> MacAddr {
    MacAddr::from_bytes(&buf[at..at + 6]).unwrap()
}

fn get_prefix(buf: &[u8], at: usize) -> Result<Ipv4Prefix, WireError> {
    let len = buf[at + 4];
    if len > 32 {
        return Err(WireError::BadField("prefix length"));
    }
    Ok(Ipv4Prefix::new(
        Ipv4Addr::new(buf[at], buf[at + 1], buf[at + 2], buf[at + 3]),
        len,
    ))
}

fn encode_match(m: &FlowMatch, out: &mut Vec<u8>) {
    let mut bitmap = 0u8;
    let fields: [bool; 8] = [
        m.in_port.is_some(),
        m.eth_src.is_some(),
        m.eth_dst.is_some(),
        m.eth_type.is_some(),
        m.ip_src.is_some(),
        m.ip_dst.is_some(),
        m.udp_src.is_some(),
        m.udp_dst.is_some(),
    ];
    for (i, present) in fields.iter().enumerate() {
        if *present {
            bitmap |= 1 << i;
        }
    }
    out.push(bitmap);
    if let Some(p) = m.in_port {
        out.extend_from_slice(&p.to_be_bytes());
    }
    if let Some(mac) = m.eth_src {
        put_mac(out, mac);
    }
    if let Some(mac) = m.eth_dst {
        put_mac(out, mac);
    }
    if let Some(t) = m.eth_type {
        out.extend_from_slice(&t.to_be_bytes());
    }
    if let Some(p) = m.ip_src {
        put_prefix(out, p);
    }
    if let Some(p) = m.ip_dst {
        put_prefix(out, p);
    }
    if let Some(p) = m.udp_src {
        out.extend_from_slice(&p.to_be_bytes());
    }
    if let Some(p) = m.udp_dst {
        out.extend_from_slice(&p.to_be_bytes());
    }
}

fn decode_match(buf: &[u8]) -> Result<(FlowMatch, usize), WireError> {
    need(buf, 1)?;
    let bitmap = buf[0];
    let mut at = 1usize;
    let mut m = FlowMatch::default();
    if bitmap & 0x01 != 0 {
        need(buf, at + 2)?;
        m.in_port = Some(be16(buf, at));
        at += 2;
    }
    if bitmap & 0x02 != 0 {
        need(buf, at + 6)?;
        m.eth_src = Some(get_mac(buf, at));
        at += 6;
    }
    if bitmap & 0x04 != 0 {
        need(buf, at + 6)?;
        m.eth_dst = Some(get_mac(buf, at));
        at += 6;
    }
    if bitmap & 0x08 != 0 {
        need(buf, at + 2)?;
        m.eth_type = Some(be16(buf, at));
        at += 2;
    }
    if bitmap & 0x10 != 0 {
        need(buf, at + 5)?;
        m.ip_src = Some(get_prefix(buf, at)?);
        at += 5;
    }
    if bitmap & 0x20 != 0 {
        need(buf, at + 5)?;
        m.ip_dst = Some(get_prefix(buf, at)?);
        at += 5;
    }
    if bitmap & 0x40 != 0 {
        need(buf, at + 2)?;
        m.udp_src = Some(be16(buf, at));
        at += 2;
    }
    if bitmap & 0x80 != 0 {
        need(buf, at + 2)?;
        m.udp_dst = Some(be16(buf, at));
        at += 2;
    }
    Ok((m, at))
}

fn encode_actions(actions: &[Action], out: &mut Vec<u8>) {
    assert!(actions.len() <= 255);
    out.push(actions.len() as u8);
    for a in actions {
        match a {
            Action::SetDstMac(m) => {
                out.push(1);
                put_mac(out, *m);
            }
            Action::SetSrcMac(m) => {
                out.push(2);
                put_mac(out, *m);
            }
            Action::Output(p) => {
                out.push(3);
                out.extend_from_slice(&p.to_be_bytes());
            }
            Action::Flood => out.push(4),
            Action::ToController => out.push(5),
            Action::Drop => out.push(6),
        }
    }
}

fn decode_actions(buf: &[u8]) -> Result<(Vec<Action>, usize), WireError> {
    need(buf, 1)?;
    let count = buf[0] as usize;
    let mut at = 1usize;
    let mut actions = Vec::with_capacity(count);
    for _ in 0..count {
        need(buf, at + 1)?;
        let tag = buf[at];
        at += 1;
        let a = match tag {
            1 => {
                need(buf, at + 6)?;
                let m = get_mac(buf, at);
                at += 6;
                Action::SetDstMac(m)
            }
            2 => {
                need(buf, at + 6)?;
                let m = get_mac(buf, at);
                at += 6;
                Action::SetSrcMac(m)
            }
            3 => {
                need(buf, at + 2)?;
                let p = be16(buf, at);
                at += 2;
                Action::Output(p)
            }
            4 => Action::Flood,
            5 => Action::ToController,
            6 => Action::Drop,
            _ => return Err(WireError::BadField("action tag")),
        };
        actions.push(a);
    }
    Ok((actions, at))
}

impl OfMessage {
    fn type_code(&self) -> u8 {
        match self {
            OfMessage::Hello => T_HELLO,
            OfMessage::EchoRequest(_) => T_ECHO_REQ,
            OfMessage::EchoReply(_) => T_ECHO_REP,
            OfMessage::FeaturesRequest => T_FEATURES_REQ,
            OfMessage::FeaturesReply { .. } => T_FEATURES_REP,
            OfMessage::FlowMod { .. } => T_FLOW_MOD,
            OfMessage::PacketIn { .. } => T_PACKET_IN,
            OfMessage::PacketOut { .. } => T_PACKET_OUT,
            OfMessage::PortStatus { .. } => T_PORT_STATUS,
            OfMessage::BarrierRequest { .. } => T_BARRIER_REQ,
            OfMessage::BarrierReply { .. } => T_BARRIER_REP,
            OfMessage::StatsRequest => T_STATS_REQ,
            OfMessage::StatsReply { .. } => T_STATS_REP,
        }
    }

    /// Serialize with the given transaction id.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            OfMessage::Hello | OfMessage::FeaturesRequest | OfMessage::StatsRequest => {}
            OfMessage::BarrierRequest { token } | OfMessage::BarrierReply { token } => {
                body.extend_from_slice(&token.to_be_bytes());
            }
            OfMessage::EchoRequest(d) | OfMessage::EchoReply(d) => {
                body.extend_from_slice(d);
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_ports,
            } => {
                body.extend_from_slice(&datapath_id.to_be_bytes());
                body.extend_from_slice(&n_ports.to_be_bytes());
            }
            OfMessage::FlowMod {
                command,
                priority,
                cookie,
                matcher,
                actions,
            } => {
                body.push(*command as u8);
                body.extend_from_slice(&priority.to_be_bytes());
                body.extend_from_slice(&cookie.to_be_bytes());
                encode_match(matcher, &mut body);
                encode_actions(actions, &mut body);
            }
            OfMessage::PacketIn { in_port, frame } => {
                body.extend_from_slice(&in_port.to_be_bytes());
                body.extend_from_slice(frame);
            }
            OfMessage::PacketOut { actions, frame } => {
                encode_actions(actions, &mut body);
                body.extend_from_slice(frame);
            }
            OfMessage::PortStatus { port, up } => {
                body.extend_from_slice(&port.to_be_bytes());
                body.push(*up as u8);
            }
            OfMessage::StatsReply {
                lookups,
                misses,
                flows,
            } => {
                body.extend_from_slice(&lookups.to_be_bytes());
                body.extend_from_slice(&misses.to_be_bytes());
                body.extend_from_slice(&(flows.len() as u32).to_be_bytes());
                for f in flows {
                    body.extend_from_slice(&f.priority.to_be_bytes());
                    body.extend_from_slice(&f.cookie.to_be_bytes());
                    body.extend_from_slice(&f.packets.to_be_bytes());
                    body.extend_from_slice(&f.bytes.to_be_bytes());
                }
            }
        }
        let total = HEADER_LEN + body.len();
        assert!(total <= u16::MAX as usize, "of message too large");
        let mut out = Vec::with_capacity(total);
        out.push(VERSION);
        out.push(self.type_code());
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&xid.to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse one message; returns `(xid, message)`.
    pub fn decode(buf: &[u8]) -> Result<(u32, OfMessage), WireError> {
        need(buf, HEADER_LEN)?;
        if buf[0] != VERSION {
            return Err(WireError::Unsupported("of version"));
        }
        let len = be16(buf, 2) as usize;
        if len != buf.len() || len < HEADER_LEN {
            return Err(WireError::BadLength);
        }
        let xid = be32(buf, 4);
        let body = &buf[HEADER_LEN..];
        let msg = match buf[1] {
            T_HELLO => OfMessage::Hello,
            T_ECHO_REQ => OfMessage::EchoRequest(body.to_vec()),
            T_ECHO_REP => OfMessage::EchoReply(body.to_vec()),
            T_FEATURES_REQ => OfMessage::FeaturesRequest,
            T_FEATURES_REP => {
                need(body, 10)?;
                OfMessage::FeaturesReply {
                    datapath_id: u64::from_be_bytes(body[0..8].try_into().unwrap()),
                    n_ports: be16(body, 8),
                }
            }
            T_FLOW_MOD => {
                need(body, 11)?;
                let command = FlowModCommand::from_u8(body[0])?;
                let priority = be16(body, 1);
                let cookie = u64::from_be_bytes(body[3..11].try_into().unwrap());
                let (matcher, n) = decode_match(&body[11..])?;
                let (actions, m) = decode_actions(&body[11 + n..])?;
                if 11 + n + m != body.len() {
                    return Err(WireError::BadLength);
                }
                OfMessage::FlowMod {
                    command,
                    priority,
                    cookie,
                    matcher,
                    actions,
                }
            }
            T_PACKET_IN => {
                need(body, 2)?;
                OfMessage::PacketIn {
                    in_port: be16(body, 0),
                    frame: body[2..].to_vec(),
                }
            }
            T_PACKET_OUT => {
                let (actions, n) = decode_actions(body)?;
                OfMessage::PacketOut {
                    actions,
                    frame: body[n..].to_vec(),
                }
            }
            T_PORT_STATUS => {
                need(body, 3)?;
                OfMessage::PortStatus {
                    port: be16(body, 0),
                    up: body[2] != 0,
                }
            }
            T_BARRIER_REQ => {
                need(body, 8)?;
                OfMessage::BarrierRequest {
                    token: u64::from_be_bytes(body[0..8].try_into().unwrap()),
                }
            }
            T_BARRIER_REP => {
                need(body, 8)?;
                OfMessage::BarrierReply {
                    token: u64::from_be_bytes(body[0..8].try_into().unwrap()),
                }
            }
            T_STATS_REQ => OfMessage::StatsRequest,
            T_STATS_REP => {
                need(body, 20)?;
                let lookups = u64::from_be_bytes(body[0..8].try_into().unwrap());
                let misses = u64::from_be_bytes(body[8..16].try_into().unwrap());
                let count = be32(body, 16) as usize;
                need(body, 20 + count * 26)?;
                let mut flows = Vec::with_capacity(count);
                for i in 0..count {
                    let at = 20 + i * 26;
                    flows.push(FlowStatsRow {
                        priority: be16(body, at),
                        cookie: u64::from_be_bytes(body[at + 2..at + 10].try_into().unwrap()),
                        packets: u64::from_be_bytes(body[at + 10..at + 18].try_into().unwrap()),
                        bytes: u64::from_be_bytes(body[at + 18..at + 26].try_into().unwrap()),
                    });
                }
                OfMessage::StatsReply {
                    lookups,
                    misses,
                    flows,
                }
            }
            _ => return Err(WireError::BadField("of message type")),
        };
        Ok((xid, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: OfMessage) {
        let enc = m.encode(0x1234_5678);
        let (xid, dec) = OfMessage::decode(&enc).unwrap();
        assert_eq!(xid, 0x1234_5678);
        assert_eq!(dec, m);
    }

    #[test]
    fn roundtrip_simple_messages() {
        roundtrip(OfMessage::Hello);
        roundtrip(OfMessage::FeaturesRequest);
        roundtrip(OfMessage::FeaturesReply {
            datapath_id: 0xdead_beef_0bad_cafe,
            n_ports: 18,
        });
        roundtrip(OfMessage::BarrierRequest { token: 7 });
        roundtrip(OfMessage::BarrierReply { token: u64::MAX });
        roundtrip(OfMessage::StatsRequest);
        roundtrip(OfMessage::EchoRequest(vec![1, 2, 3]));
        roundtrip(OfMessage::EchoReply(vec![]));
        roundtrip(OfMessage::PortStatus { port: 7, up: false });
    }

    #[test]
    fn roundtrip_flow_mod_supercharger_rule() {
        // The paper's Listing 2 rule: match VMAC, rewrite to backup MAC,
        // output on the backup's port.
        roundtrip(OfMessage::FlowMod {
            command: FlowModCommand::Modify,
            priority: 100,
            cookie: 0x5c,
            matcher: FlowMatch::dst_mac(MacAddr::virtual_mac(3)),
            actions: vec![
                Action::SetDstMac(MacAddr::from_octets([0x02, 0xbb, 0, 0, 0, 1])),
                Action::Output(2),
            ],
        });
    }

    #[test]
    fn roundtrip_flow_mod_full_match() {
        roundtrip(OfMessage::FlowMod {
            command: FlowModCommand::Add,
            priority: 65535,
            cookie: u64::MAX,
            matcher: FlowMatch {
                in_port: Some(3),
                eth_src: Some(MacAddr::from_octets([1, 2, 3, 4, 5, 6])),
                eth_dst: Some(MacAddr::BROADCAST),
                eth_type: Some(0x0800),
                ip_src: Some("10.0.0.0/8".parse().unwrap()),
                ip_dst: Some("1.2.3.4/32".parse().unwrap()),
                udp_src: Some(1000),
                udp_dst: Some(2000),
            },
            actions: vec![Action::Flood, Action::ToController, Action::Drop],
        });
    }

    #[test]
    fn roundtrip_packet_in_out() {
        roundtrip(OfMessage::PacketIn {
            in_port: 4,
            frame: vec![0xca; 64],
        });
        roundtrip(OfMessage::PacketOut {
            actions: vec![Action::Output(1)],
            frame: vec![0xfe; 128],
        });
    }

    #[test]
    fn roundtrip_stats_reply() {
        roundtrip(OfMessage::StatsReply {
            lookups: 1_000_000,
            misses: 17,
            flows: vec![
                FlowStatsRow {
                    priority: 100,
                    cookie: 1,
                    packets: 500,
                    bytes: 32_000,
                },
                FlowStatsRow {
                    priority: 90,
                    cookie: 2,
                    packets: 0,
                    bytes: 0,
                },
            ],
        });
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(OfMessage::decode(&[]).is_err());
        let mut enc = OfMessage::Hello.encode(1);
        enc[0] = 9; // bad version
        assert!(OfMessage::decode(&enc).is_err());
        let mut enc = OfMessage::Hello.encode(1);
        enc[1] = 99; // bad type
        assert!(OfMessage::decode(&enc).is_err());
        let mut enc = OfMessage::Hello.encode(1);
        enc[3] = 200; // bad length
        assert!(OfMessage::decode(&enc).is_err());
        // FlowMod with trailing garbage.
        let mut fm = OfMessage::FlowMod {
            command: FlowModCommand::Add,
            priority: 1,
            cookie: 0,
            matcher: FlowMatch::any(),
            actions: vec![],
        }
        .encode(1);
        fm.push(0xff);
        fm[3] += 1;
        assert!(OfMessage::decode(&fm).is_err());
    }
}
