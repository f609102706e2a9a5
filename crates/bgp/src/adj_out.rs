//! The Adj-RIB-Out: what a speaker has told (or must tell) one peer.
//!
//! RFC 4271 §3.2 keeps one Adj-RIB-Out per peer; §9.4 replays it when a
//! session re-establishes — a router does not "remember" that it already
//! sent its routes across a session restart, it advertises the current
//! contents again. The seed model latched a `feed_sent` flag instead, so
//! a flapped session came back *empty* and every flap script measured
//! first-failover only.
//!
//! [`AdjRibOut`] is that bookkeeping, in two parts:
//!
//! * the **base**: the feed the session was configured with, immutable
//!   and `Arc`-shared — its sorted, distinct prefixes as one
//!   `Arc<[Ipv4Prefix]>` and the attribute runs over them (prefixes in a
//!   row with the same attribute set `Arc` form one run). Cloning an
//!   Adj-RIB-Out shares its base, so every session of a provider holds
//!   one table, and a builder that hands every provider the same prefix
//!   list ([`AdjRibOut::from_runs`]) holds one list: a full table costs
//!   its runs, 16 bytes per run, not a tree node per prefix;
//! * the **delta**: what [`AdjRibOut::apply`] wrote since, one entry per
//!   prefix an UPDATE named (a withdrawal writes `None`), in a
//!   `index::PrefixIndex` that looks for each of an UPDATE's ascending
//!   prefixes where it found the last. `apply` never looks at the base,
//!   so churn costs one index write per prefix and a repeated cycle over
//!   the same prefixes overwrites its entries.
//!
//! [`AdjRibOut::export_each`] merges the two in prefix order, the delta
//! winning, and packs the result back into UPDATEs with the
//! [`RunPacker`] — prefixes in a row sharing an attribute set ride one
//! message, split to the RFC 4271 size cap — on every establishment,
//! handing each message over as it is packed ([`AdjRibOut::export`]
//! collects them).

use crate::attrs::RouteAttrs;
use crate::index::PrefixIndex;
use crate::msg::UpdateMsg;
use crate::pack::RunPacker;
use sc_net::Ipv4Prefix;
use std::sync::Arc;

/// Per-peer outbound routing state, replayed on session (re-)establish.
#[derive(Clone, Debug, Default)]
pub struct AdjRibOut {
    base: Arc<Base>,
    /// Prefix → what `apply` last wrote for it: an attribute set, or
    /// `None` for a withdrawal. Overrides the base.
    delta: PrefixIndex<Option<Arc<RouteAttrs>>>,
}

/// The configured feed: immutable, shared by every clone.
#[derive(Debug, Default)]
struct Base {
    /// Sorted and distinct.
    prefixes: Arc<[Ipv4Prefix]>,
    /// `(index of the run's first prefix, its attribute set)` in
    /// ascending order, the first at 0; a run ends where the next
    /// begins.
    runs: Box<[(u32, Arc<RouteAttrs>)]>,
}

impl Base {
    /// Every prefix with its attribute set, in prefix order.
    fn routes(&self) -> impl Iterator<Item = (Ipv4Prefix, &Arc<RouteAttrs>)> {
        let ends = self.runs.iter().skip(1).map(|(start, _)| *start as usize);
        let ends = ends.chain(std::iter::once(self.prefixes.len()));
        self.runs
            .iter()
            .zip(ends)
            .flat_map(move |((start, attrs), end)| {
                self.prefixes[*start as usize..end]
                    .iter()
                    .map(move |prefix| (*prefix, attrs))
            })
    }
}

impl AdjRibOut {
    pub fn new() -> AdjRibOut {
        AdjRibOut::default()
    }

    /// A feed already in table form: the sorted, distinct `prefixes`
    /// (shared, not copied) and `runs` of `(index of the first prefix,
    /// attribute set)` over them, ascending from 0. Panics on a list or
    /// runs out of order.
    pub fn from_runs(prefixes: Arc<[Ipv4Prefix]>, runs: Vec<(u32, Arc<RouteAttrs>)>) -> AdjRibOut {
        assert!(
            prefixes.windows(2).all(|w| w[0] < w[1]),
            "an Adj-RIB-Out's prefixes are sorted and distinct"
        );
        assert_eq!(
            runs.first().map(|(start, _)| *start),
            (!prefixes.is_empty()).then_some(0),
            "the first run starts at the first prefix"
        );
        assert!(
            runs.windows(2).all(|w| w[0].0 < w[1].0)
                && runs
                    .last()
                    .is_none_or(|(start, _)| (*start as usize) < prefixes.len()),
            "runs ascend within the prefix list"
        );
        AdjRibOut {
            base: Arc::new(Base {
                prefixes,
                runs: runs.into_boxed_slice(),
            }),
            delta: PrefixIndex::default(),
        }
    }

    /// Seed from a feed of UPDATEs (an MRT snapshot's, or a test's).
    pub fn from_updates(updates: &[UpdateMsg]) -> AdjRibOut {
        // The announce-only head of the feed (all of it, for an originate
        // feed) is sorted once into the base; the rest is applied. Collected
        // in feed order, a generated or exported feed is already one
        // ascending run, so the stable sort is a scan; the dedup then
        // keeps each prefix's last announcement, as applying the feed in
        // order would.
        let head = updates
            .iter()
            .take_while(|upd| upd.withdrawn.is_empty())
            .count();
        let announced = updates[..head].iter().map(|upd| upd.nlri.len()).sum();
        let mut routes: Vec<(Ipv4Prefix, &Arc<RouteAttrs>)> = Vec::with_capacity(announced);
        routes.extend(
            updates[..head]
                .iter()
                .filter_map(|upd| Some((upd.attrs.as_ref()?, &upd.nlri)))
                .flat_map(|(attrs, nlri)| nlri.iter().map(move |p| (*p, attrs))),
        );
        routes.sort_by_key(|(prefix, _)| *prefix);
        routes.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            repeat
        });
        let prefixes = routes.iter().map(|(prefix, _)| *prefix).collect();
        let mut runs: Vec<(u32, Arc<RouteAttrs>)> = Vec::new();
        for (i, (_, attrs)) in routes.iter().enumerate() {
            if !runs.last().is_some_and(|(_, run)| Arc::ptr_eq(run, attrs)) {
                runs.push((i as u32, Arc::clone(attrs)));
            }
        }
        let mut out = AdjRibOut::from_runs(prefixes, runs);
        for upd in &updates[head..] {
            out.apply(upd);
        }
        out
    }

    /// Every advertised prefix with its attribute set, in prefix order:
    /// the base merged with the delta, the delta winning.
    fn routes(&self) -> impl Iterator<Item = (Ipv4Prefix, &Arc<RouteAttrs>)> {
        let mut base = self.base.routes().peekable();
        let mut delta = self.delta.iter().peekable();
        std::iter::from_fn(move || loop {
            let next_base = base.peek().map(|(prefix, _)| *prefix);
            let Some((prefix, _)) = delta.peek().copied() else {
                return base.next();
            };
            match next_base {
                Some(from_base) if from_base < prefix => return base.next(),
                Some(from_base) if from_base == prefix => {
                    base.next();
                }
                _ => {}
            }
            if let (_, Some(attrs)) = delta.next()? {
                return Some((prefix, attrs));
            }
        })
    }

    /// Number of prefixes currently advertised (a merge: diagnostics).
    pub fn len(&self) -> usize {
        self.routes().count()
    }

    pub fn is_empty(&self) -> bool {
        self.routes().next().is_none()
    }

    /// Is `prefix` currently advertised?
    pub fn contains(&self, prefix: Ipv4Prefix) -> bool {
        match self.delta.get(prefix) {
            Some(written) => written.is_some(),
            None => self.base.prefixes.binary_search(&prefix).is_ok(),
        }
    }

    /// Track one UPDATE sent to the peer: withdrawals leave the table,
    /// announcements enter (or replace) it.
    pub fn apply(&mut self, upd: &UpdateMsg) {
        for prefix in &upd.withdrawn {
            *self.delta.get_or_insert_with(*prefix, || None) = None;
        }
        if let Some(attrs) = &upd.attrs {
            for prefix in &upd.nlri {
                *self.delta.get_or_insert_with(*prefix, || None) = Some(attrs.clone());
            }
        }
    }

    /// The full current state as packed UPDATE messages: prefix-ordered,
    /// consecutive prefixes sharing an attribute set (Arc identity —
    /// attribute sets are immutable) packed into one message, each split
    /// to the RFC 4271 size cap. Deterministic for identical state.
    pub fn export(&self) -> Vec<UpdateMsg> {
        let mut out = Vec::new();
        self.export_each(|msg| out.push(msg));
        out
    }

    /// [`AdjRibOut::export`]'s messages handed to `out` one at a time,
    /// each as soon as the walk has packed it: a session replaying its
    /// table encodes each into its channel at once and never holds more
    /// than one attribute run's prefixes.
    pub fn export_each(&self, mut out: impl FnMut(UpdateMsg)) {
        let mut packer = RunPacker::new();
        for (prefix, attrs) in self.routes() {
            packer.push(prefix, attrs, None, &mut out);
        }
        packer.finish(&mut out);
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
