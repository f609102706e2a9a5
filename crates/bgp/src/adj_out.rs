//! The Adj-RIB-Out: what a speaker has told (or must tell) one peer.
//!
//! RFC 4271 §3.2 keeps one Adj-RIB-Out per peer; §9.4 replays it when a
//! session re-establishes — a router does not "remember" that it already
//! sent its routes across a session restart, it advertises the current
//! contents again. The seed model latched a `feed_sent` flag instead, so
//! a flapped session came back *empty* and every flap script measured
//! first-failover only.
//!
//! [`AdjRibOut`] is that bookkeeping: a prefix → attribute map mutated by
//! the same [`UpdateMsg`]s that go on the wire (withdrawals remove,
//! announcements insert) and exported back as packed UPDATEs — prefixes
//! sharing an attribute set ride one message, split to the RFC 4271 size
//! cap — on every establishment.

use crate::attrs::RouteAttrs;
use crate::msg::UpdateMsg;
use sc_net::Ipv4Prefix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-peer outbound routing state, replayed on session (re-)establish.
#[derive(Clone, Debug, Default)]
pub struct AdjRibOut {
    routes: BTreeMap<Ipv4Prefix, Arc<RouteAttrs>>,
}

impl AdjRibOut {
    pub fn new() -> AdjRibOut {
        AdjRibOut::default()
    }

    /// Seed from a static originate feed (the configured announcements a
    /// provider router offers on every establishment).
    pub fn from_updates(updates: &[UpdateMsg]) -> AdjRibOut {
        // The announce-only head of the feed (all of it, for an originate
        // feed) is sorted once and bulk-built instead of inserted prefix
        // by prefix. Collected in feed order, a generated or exported
        // feed is already one ascending run, so the stable sort is a
        // scan; the dedup then keeps each prefix's last announcement, as
        // insertion in feed order would.
        let head = updates
            .iter()
            .take_while(|upd| upd.withdrawn.is_empty())
            .count();
        let announced = updates[..head].iter().map(|upd| upd.nlri.len()).sum();
        let mut routes: Vec<(Ipv4Prefix, Arc<RouteAttrs>)> = Vec::with_capacity(announced);
        routes.extend(
            updates[..head]
                .iter()
                .filter_map(|upd| Some((upd.attrs.as_ref()?, &upd.nlri)))
                .flat_map(|(attrs, nlri)| nlri.iter().map(move |p| (*p, attrs.clone()))),
        );
        routes.sort_by_key(|(prefix, _)| *prefix);
        routes.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            repeat
        });
        let mut out = AdjRibOut {
            routes: routes.into_iter().collect(),
        };
        for upd in &updates[head..] {
            out.apply(upd);
        }
        out
    }

    /// Number of prefixes currently advertised.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Is `prefix` currently advertised?
    pub fn contains(&self, prefix: Ipv4Prefix) -> bool {
        self.routes.contains_key(&prefix)
    }

    /// Track one UPDATE sent to the peer: withdrawals leave the table,
    /// announcements enter (or replace) it.
    pub fn apply(&mut self, upd: &UpdateMsg) {
        for prefix in &upd.withdrawn {
            self.routes.remove(prefix);
        }
        if let Some(attrs) = &upd.attrs {
            for prefix in &upd.nlri {
                self.routes.insert(*prefix, attrs.clone());
            }
        }
    }

    /// The full current state as packed UPDATE messages: prefix-ordered,
    /// consecutive prefixes sharing an attribute set (Arc identity —
    /// attribute sets are immutable) packed into one message, each split
    /// to the RFC 4271 size cap. Deterministic for identical state.
    pub fn export(&self) -> Vec<UpdateMsg> {
        let mut out = Vec::new();
        let mut current: Option<(Arc<RouteAttrs>, Vec<Ipv4Prefix>)> = None;
        let flush = |current: &mut Option<(Arc<RouteAttrs>, Vec<Ipv4Prefix>)>,
                     out: &mut Vec<UpdateMsg>| {
            if let Some((attrs, nlri)) = current.take() {
                UpdateMsg::announce(attrs, nlri).split_to_fit(out);
            }
        };
        for (prefix, attrs) in &self.routes {
            match &mut current {
                Some((a, nlri)) if Arc::ptr_eq(a, attrs) => nlri.push(*prefix),
                _ => {
                    flush(&mut current, &mut out);
                    current = Some((attrs.clone(), vec![*prefix]));
                }
            }
        }
        flush(&mut current, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(first_as: u16) -> Arc<RouteAttrs> {
        RouteAttrs::ebgp(
            AsPath::sequence(vec![first_as, 174]),
            Ipv4Addr::new(10, 0, 0, 2),
        )
        .shared()
    }

    #[test]
    fn announce_withdraw_roundtrip() {
        let a = attrs(65002);
        let mut rib = AdjRibOut::new();
        rib.apply(&UpdateMsg::announce(
            a.clone(),
            vec![p("1.0.0.0/24"), p("2.0.0.0/24")],
        ));
        assert_eq!(rib.len(), 2);
        assert!(rib.contains(p("1.0.0.0/24")));
        rib.apply(&UpdateMsg::withdraw(vec![p("1.0.0.0/24")]));
        assert_eq!(rib.len(), 1);
        assert!(!rib.contains(p("1.0.0.0/24")));

        let export = rib.export();
        assert_eq!(export.len(), 1);
        assert_eq!(export[0].nlri, vec![p("2.0.0.0/24")]);
        assert!(export[0].withdrawn.is_empty());
    }

    #[test]
    fn export_packs_shared_attrs_and_splits_to_fit() {
        let shared = attrs(65002);
        let mut rib = AdjRibOut::new();
        let prefixes: Vec<Ipv4Prefix> = (0..1500u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32 + (i << 8)), 24))
            .collect();
        rib.apply(&UpdateMsg::announce(shared.clone(), prefixes.clone()));
        let export = rib.export();
        let total: usize = export.iter().map(|m| m.nlri.len()).sum();
        assert_eq!(total, 1500);
        for m in &export {
            assert!(
                crate::BgpMessage::Update(m.clone()).encode().len() <= crate::msg::MAX_MESSAGE_LEN
            );
            assert!(Arc::ptr_eq(m.attrs.as_ref().unwrap(), &shared));
        }
        // Distinct attribute sets stay in distinct messages.
        let other = attrs(65009);
        rib.apply(&UpdateMsg::announce(other.clone(), vec![p("9.0.0.0/24")]));
        let export = rib.export();
        assert!(export
            .iter()
            .any(|m| m.nlri == vec![p("9.0.0.0/24")]
                && Arc::ptr_eq(m.attrs.as_ref().unwrap(), &other)));
    }

    #[test]
    fn reannouncement_replaces_attrs() {
        let first = attrs(65002);
        let second = attrs(65003);
        let mut rib = AdjRibOut::new();
        rib.apply(&UpdateMsg::announce(first, vec![p("1.0.0.0/24")]));
        rib.apply(&UpdateMsg::announce(second.clone(), vec![p("1.0.0.0/24")]));
        assert_eq!(rib.len(), 1);
        let export = rib.export();
        assert!(Arc::ptr_eq(export[0].attrs.as_ref().unwrap(), &second));
    }

    #[test]
    fn from_updates_seeds_the_table() {
        let a = attrs(65002);
        let feed = vec![
            UpdateMsg::announce(a.clone(), vec![p("1.0.0.0/24")]),
            UpdateMsg::announce(a, vec![p("2.0.0.0/24")]),
        ];
        let rib = AdjRibOut::from_updates(&feed);
        assert_eq!(rib.len(), 2);
        // Export packs both prefixes (same attrs Arc) into one message.
        assert_eq!(rib.export().len(), 1);
    }

    #[test]
    fn from_updates_equals_applying_in_order() {
        let (a, b, c) = (attrs(65002), attrs(65003), attrs(65004));
        let feed = [
            UpdateMsg::announce(a, vec![p("3.0.0.0/24"), p("1.0.0.0/24")]),
            // Re-announced in the bulk-built head: the later attrs win.
            UpdateMsg::announce(b, vec![p("1.0.0.0/24"), p("2.0.0.0/24")]),
            UpdateMsg::withdraw(vec![p("3.0.0.0/24")]),
            UpdateMsg::announce(c, vec![p("2.0.0.0/24"), p("4.0.0.0/24")]),
        ];
        for len in 0..=feed.len() {
            let mut applied = AdjRibOut::new();
            for upd in &feed[..len] {
                applied.apply(upd);
            }
            let built = AdjRibOut::from_updates(&feed[..len]);
            assert_eq!(built.export(), applied.export(), "first {len} updates");
            for (x, y) in built.export().iter().zip(applied.export().iter()) {
                assert!(Arc::ptr_eq(
                    x.attrs.as_ref().unwrap(),
                    y.attrs.as_ref().unwrap()
                ));
            }
        }
    }
}
