//! Packing a table into UPDATEs while it is walked.
//!
//! A speaker that advertises a table — a provider replaying its
//! Adj-RIB-Out on establishment, the supercharger controller
//! re-announcing after a repair — packs prefixes in a row that share an
//! attribute set into one UPDATE, split to the RFC 4271 size cap.
//! [`RunPacker`] does that during the walk: it holds the open run's
//! prefixes, and hands each run's messages to the caller the moment the
//! run ends, so a caller can encode them into its channel at once.
//! Nothing table-sized is built on the way.

use crate::attrs::RouteAttrs;
use crate::msg::UpdateMsg;
use sc_net::Ipv4Prefix;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The open run of a table walk. A run is the prefixes in a row with the
/// same attribute set — by `Arc` identity, attribute sets being
/// immutable — and the same next-hop rewrite. Its messages are exactly
/// what [`UpdateMsg::split_to_fit`] makes of the whole run in one
/// announcement, so a packed walk's wire bytes do not depend on when its
/// messages were taken.
#[derive(Debug, Default)]
pub struct RunPacker {
    /// The open run's attribute set and the NEXT_HOP its messages carry
    /// instead of the set's own, if any.
    run: Option<(Arc<RouteAttrs>, Option<Ipv4Addr>)>,
    /// The open run's prefixes; cleared, not freed, between runs.
    nlri: Vec<Ipv4Prefix>,
}

impl RunPacker {
    pub fn new() -> RunPacker {
        RunPacker::default()
    }

    /// Add `prefix`, announced with `attrs`, its NEXT_HOP rewritten to
    /// `next_hop` when one is given. A prefix with another attribute set
    /// or another rewrite ends the open run first, handing the run's
    /// UPDATEs to `out`.
    pub fn push(
        &mut self,
        prefix: Ipv4Prefix,
        attrs: &Arc<RouteAttrs>,
        next_hop: Option<Ipv4Addr>,
        out: &mut impl FnMut(UpdateMsg),
    ) {
        let continues =
            matches!(&self.run, Some((run, nh)) if Arc::ptr_eq(run, attrs) && *nh == next_hop);
        if !continues {
            self.finish(out);
            self.run = Some((Arc::clone(attrs), next_hop));
        }
        self.nlri.push(prefix);
    }

    /// End the open run, handing its UPDATEs to `out`.
    pub fn finish(&mut self, out: &mut impl FnMut(UpdateMsg)) {
        let Some((attrs, next_hop)) = self.run.take() else {
            return;
        };
        let attrs = match next_hop {
            Some(nh) => Arc::new(attrs.with_next_hop(nh)),
            None => attrs,
        };
        UpdateMsg::split_from(&[], Some(&attrs), &self.nlri, out);
        self.nlri.clear();
    }
}
