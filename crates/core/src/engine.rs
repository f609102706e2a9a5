//! The supercharger engine: Listing 1 (online backup-group computation)
//! and Listing 2 (data-plane convergence) of the paper, as a pure state
//! machine.
//!
//! The engine is deliberately free of I/O and simulator types: it maps
//! BGP updates to what the router must be told and to flow-rule
//! operations toward the switch. Its host either takes the router's
//! UPDATEs as the walk packs them ([`Engine::process_update_streamed`],
//! [`Engine::peer_down_repair`], [`Engine::replay`]) or collects every
//! decision as an [`EngineAction`] list ([`Engine::process_update`]).
//! That makes it directly benchmarkable (the paper's §4 controller
//! micro-benchmark) and lets the property tests compare engines fed the
//! same stream for bit-identical state — the paper's §3 reliability
//! argument.
//!
//! Differences from the paper's pseudocode, made deliberately and
//! commented inline: Listing 1 as printed does not handle brand-new
//! prefixes (its outer `if old:` has no else), and re-sends the
//! *original* next-hop when the backup pair is unchanged but attributes
//! churned — which would overwrite the VNH in the router. This
//! implementation announces the correct VNH in both cases.

use crate::groups::{GroupId, GroupTable};
use crate::vnh::VnhAllocator;
use sc_bgp::attrs::RouteAttrs;
use sc_bgp::msg::UpdateMsg;
use sc_bgp::pack::RunPacker;
use sc_bgp::rib::LocRib;
use sc_bgp::{PeerId, PeerInfo, Route};
use sc_net::{Ipv4Prefix, MacAddr};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Static facts about one of the supercharged router's original peers.
#[derive(Clone, Copy, Debug)]
pub struct PeerSpec {
    pub id: PeerId,
    /// The peer's real MAC (flow rules rewrite VMAC → this).
    pub mac: MacAddr,
    /// The switch port the peer hangs off.
    pub switch_port: u16,
    /// Import LOCAL_PREF the supercharged router would assign (the
    /// engine must rank exactly like the router it fronts).
    pub local_pref: u32,
    /// The peer's BGP identifier (decision-process tiebreak).
    pub router_id: Ipv4Addr,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Pool for virtual next-hops; must lie inside the LAN subnet shared
    /// with the router (it will ARP for these).
    pub vnh_pool: Ipv4Prefix,
    pub peers: Vec<PeerSpec>,
    /// Backup-group depth: 2 protects any single link/node failure (the
    /// paper's choice); deeper groups survive simultaneous failures.
    pub protect_depth: usize,
}

impl EngineConfig {
    pub fn new(vnh_pool: Ipv4Prefix, peers: Vec<PeerSpec>) -> EngineConfig {
        EngineConfig {
            vnh_pool,
            peers,
            protect_depth: 2,
        }
    }
}

/// Actions the engine asks its host (the controller node) to perform.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineAction {
    /// (Re-)announce `prefix` to the supercharged router with the given
    /// attributes and `next_hop` (a VNH for protected prefixes, the real
    /// next-hop for unprotected ones).
    Announce {
        prefix: Ipv4Prefix,
        attrs: Arc<RouteAttrs>,
        next_hop: Ipv4Addr,
    },
    /// Withdraw `prefix` from the router.
    Withdraw { prefix: Ipv4Prefix },
    /// Install the flow rule for a newly created backup-group.
    FlowAdd {
        vmac: MacAddr,
        dst_mac: MacAddr,
        port: u16,
    },
    /// Rewrite a group's flow rule (the failover operation).
    FlowModify {
        vmac: MacAddr,
        dst_mac: MacAddr,
        port: u16,
    },
    /// A group lost its last prefix: its rule must stay installed for a
    /// grace period (the router's FIB may still tag traffic with the
    /// VMAC until its slow walk completes), after which the host calls
    /// [`Engine::purge_retired`] and deletes the rule.
    FlowRetire { group: GroupId, vmac: MacAddr },
    /// Remove the flow rule of a purged group.
    FlowDelete { vmac: MacAddr },
}

/// One rewrite of the data-plane convergence procedure (Listing 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowRewrite {
    pub group: GroupId,
    pub vmac: MacAddr,
    pub new_dst_mac: MacAddr,
    pub out_port: u16,
    pub new_target: PeerId,
}

/// The output of [`Engine::failover_plan`]: the constant-size set of
/// flow rewrites that restores connectivity.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FailoverPlan {
    pub rewrites: Vec<FlowRewrite>,
    /// Groups whose entire key is dead: traffic stays black-holed until
    /// the control plane re-announces (counted for diagnostics).
    pub unprotected_groups: usize,
}

/// What a streamed walk ([`Engine::process_update_streamed`],
/// [`Engine::peer_down_repair`]) leaves besides the UPDATEs it packed
/// for the router.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Walked {
    /// How many actions the walk made, announcements and withdrawals
    /// included: the length of the list the walk would have collected.
    pub actions: usize,
    /// Its flow actions, in order, for the host to carry out.
    pub flow: Vec<EngineAction>,
}

/// Engine counters (also part of the state-hash for replication tests).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct EngineStats {
    pub updates_processed: u64,
    pub routes_learned: u64,
    pub withdrawals_processed: u64,
    pub announcements: u64,
    pub withdrawals_sent: u64,
    pub groups_created: u64,
    pub groups_retired: u64,
    pub groups_purged: u64,
    pub failovers: u64,
    /// Groups steered back to a better (restored) member outside the
    /// failover fast path — the flap-recovery "re-arm" operation.
    pub groups_rearmed: u64,
}

/// What the engine last told the router about a prefix. It rides in the
/// prefix's RIB entry, so bringing it in line after a RIB change needs no
/// lookup of its own.
#[derive(Clone, Debug)]
pub struct Announced {
    next_hop: Ipv4Addr,
    /// The backup-group whose VNH `next_hop` is, [`Announced::NO_GROUP`]
    /// for a plain announcement: the bare id, so the two fill one word.
    group: u32,
    /// Identity of the attribute set we forwarded (Arc pointer — the
    /// sets are immutable, so pointer equality implies content
    /// equality).
    attrs: Arc<RouteAttrs>,
}

impl Announced {
    /// Group ids are dense from 0 and bounded by the VNH pool.
    const NO_GROUP: u32 = u32::MAX;

    fn new(next_hop: Ipv4Addr, attrs: Arc<RouteAttrs>, group: Option<GroupId>) -> Announced {
        debug_assert_ne!(group, Some(GroupId(Announced::NO_GROUP)));
        Announced {
            next_hop,
            group: group.map_or(Announced::NO_GROUP, |g| g.0),
            attrs,
        }
    }

    fn group(&self) -> Option<GroupId> {
        (self.group != Announced::NO_GROUP).then_some(GroupId(self.group))
    }
}

// It rides in every RIB entry of the controller: 16 B per prefix, the
// `None` in the `Arc`'s niche.
const _: () = assert!(
    std::mem::size_of::<Option<Announced>>() <= 16,
    "Announced: 16 B per controller RIB entry"
);

/// Backup-group keys up to this deep are built on the stack
/// ([`Steering::reconcile`] runs once per learned prefix).
const STACK_KEY_DEPTH: usize = 8;

/// The supercharger engine.
pub struct Engine {
    cfg: EngineConfig,
    peer_specs: BTreeMap<PeerId, PeerSpec>,
    alive: BTreeMap<PeerId, bool>,
    rib: LocRib<Option<Announced>>,
    groups: GroupTable,
    pub stats: EngineStats,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        let peer_specs: BTreeMap<PeerId, PeerSpec> = cfg.peers.iter().map(|p| (p.id, *p)).collect();
        let alive = peer_specs.keys().map(|&p| (p, true)).collect();
        let groups = GroupTable::new(VnhAllocator::new(cfg.vnh_pool));
        Engine {
            peer_specs,
            alive,
            rib: LocRib::default(),
            groups,
            stats: EngineStats::default(),
            cfg,
        }
    }

    // ----------------------------------------------------- inspection

    pub fn rib(&self) -> &LocRib<Option<Announced>> {
        &self.rib
    }

    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// The ARP responder's lookup: resolve a VNH to its group's VMAC.
    pub fn arp_lookup(&self, vnh: Ipv4Addr) -> Option<MacAddr> {
        self.groups.by_vnh(vnh).map(|g| g.vmac)
    }

    /// Is this address inside the VNH pool (ours to answer for)?
    pub fn owns_vnh(&self, ip: Ipv4Addr) -> bool {
        self.cfg.vnh_pool.contains(ip)
    }

    /// A deterministic digest of externally visible state: what each
    /// prefix is announced as, and every group's (key → VNH/VMAC/target).
    /// Two replicas fed the same update stream must agree on this — the
    /// paper's §3 claim, checked by the `replicas_never_diverge` property.
    pub fn state_digest(&self) -> u64 {
        // FNV-1a over a canonical serialization.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (prefix, a) in self.announced() {
            eat(&prefix.raw_bits().to_be_bytes());
            eat(&[prefix.len()]);
            eat(&u32::from(a.next_hop).to_be_bytes());
        }
        for g in self.groups.iter() {
            eat(&g.id.0.to_be_bytes());
            for p in &g.key {
                eat(&u32::from(*p).to_be_bytes());
            }
            eat(&u32::from(g.vnh).to_be_bytes());
            eat(&g.vmac.octets());
            eat(&u32::from(g.active_target).to_be_bytes());
        }
        h
    }

    // ------------------------------------------------- update handling

    /// Process one BGP UPDATE received from `peer` (Listing 1, applied
    /// per prefix). Returns the actions to perform, in order: the
    /// collected form of [`Engine::process_update_streamed`], which
    /// [`Engine::pack_for_router`] packs into the same UPDATEs.
    pub fn process_update(&mut self, peer: PeerId, upd: &UpdateMsg) -> Vec<EngineAction> {
        // About one action per prefix plus one (§4's per-UPDATE work).
        let mut actions = Vec::with_capacity(upd.withdrawn.len() + upd.nlri.len() + 1);
        self.process_update_into(peer, upd, &mut actions);
        actions
    }

    /// Process one BGP UPDATE received from `peer`, streamed the way
    /// [`Engine::peer_down_repair`] is: each announcement joins the
    /// [`RunPacker`] as it is decided, each packed UPDATE goes to
    /// `router` at once, and the withdrawals follow every announcement.
    /// The batch is the one UPDATE, so the router gets the messages
    /// [`Engine::pack_for_router`] makes of [`Engine::process_update`]'s
    /// list. With `router` `None` nothing is packed. The flow actions
    /// come back in [`Walked`].
    pub fn process_update_streamed(
        &mut self,
        peer: PeerId,
        upd: &UpdateMsg,
        router: Option<&mut dyn FnMut(UpdateMsg)>,
    ) -> Walked {
        let mut feed = RouterFeed::new(router);
        self.process_update_into(peer, upd, &mut feed);
        feed.finish()
    }

    /// Listing 1 over one UPDATE, writing what it decides into `sink`.
    fn process_update_into(&mut self, peer: PeerId, upd: &UpdateMsg, sink: &mut impl ActionSink) {
        let (rib, mut steering) = self.split(sink);
        steering.stats.updates_processed += 1;
        let reannounced = reannounced(upd);
        for &prefix in &upd.withdrawn {
            if reannounced.binary_search(&prefix).is_ok() {
                continue;
            }
            steering.stats.withdrawals_processed += 1;
            rib.withdraw_with(prefix, peer, |candidates, announced| {
                steering.reconcile(prefix, candidates, announced)
            });
        }
        if let Some(attrs) = &upd.attrs {
            let spec = steering.peer_specs.get(&peer).copied();
            let from = PeerInfo {
                peer,
                router_id: spec.map(|s| s.router_id).unwrap_or(peer),
                ebgp: true,
                igp_cost: 0,
            };
            let local_pref = attrs
                .local_pref
                .unwrap_or_else(|| spec.map(|s| s.local_pref).unwrap_or(100));
            for &prefix in &upd.nlri {
                steering.stats.routes_learned += 1;
                rib.update_with(
                    prefix,
                    attrs.clone(),
                    from,
                    local_pref,
                    |candidates, announced| steering.reconcile(prefix, candidates, announced),
                );
            }
        }
    }

    /// The RIB, and everything [`Steering::reconcile`] needs while a RIB
    /// entry is borrowed.
    fn split<'a, S: ActionSink>(
        &'a mut self,
        sink: &'a mut S,
    ) -> (&'a mut LocRib<Option<Announced>>, Steering<'a, S>) {
        let steering = Steering {
            protect_depth: self.cfg.protect_depth,
            peer_specs: &self.peer_specs,
            alive: &self.alive,
            groups: &mut self.groups,
            stats: &mut self.stats,
            sink,
        };
        (&mut self.rib, steering)
    }

    /// What the router currently holds, in FIB walk order.
    fn announced(&self) -> impl Iterator<Item = (Ipv4Prefix, &Announced)> {
        self.rib
            .iter_ext()
            .filter_map(|(prefix, a)| Some((prefix, a.as_ref()?)))
    }

    // ----------------------------------------------------- failure path

    /// Listing 2: the constant-time data-plane convergence procedure.
    /// Computes the flow rewrites for every group currently steering
    /// into `dead_peer`, redirecting each to its first alive backup.
    ///
    /// This is the *fast path* — call it the moment BFD reports the
    /// failure, before any control-plane repair.
    pub fn failover_plan(&mut self, dead_peer: PeerId) -> FailoverPlan {
        self.stats.failovers += 1;
        self.alive.insert(dead_peer, false);
        let mut plan = FailoverPlan::default();
        for gid in self.groups.groups_targeting(dead_peer) {
            let group = self.groups.get(gid).unwrap();
            let backup = group
                .key
                .iter()
                .find(|p| *self.alive.get(p).unwrap_or(&false))
                .copied();
            match backup {
                Some(peer) => {
                    let spec = self.peer_specs[&peer];
                    plan.rewrites.push(FlowRewrite {
                        group: gid,
                        vmac: group.vmac,
                        new_dst_mac: spec.mac,
                        out_port: spec.switch_port,
                        new_target: peer,
                    });
                    self.groups.get_mut(gid).unwrap().active_target = peer;
                }
                None => plan.unprotected_groups += 1,
            }
        }
        plan
    }

    /// The control-plane repair that follows the fast path: purge the
    /// dead peer's routes and re-announce every affected prefix (the
    /// router digests this at its own slow pace — the data plane is
    /// already healed).
    ///
    /// One walk over the RIB, streamed: each re-announcement joins the
    /// [`RunPacker`] as the walk makes it, and each packed UPDATE goes to
    /// `router` at once; the withdrawals follow every announcement, as
    /// [`Engine::pack_for_router`] orders a batch. With `router` `None`
    /// (the router's session is down) nothing is packed, and the
    /// engine's state changes all the same. The flow actions come back
    /// in [`Walked`].
    pub fn peer_down_repair(
        &mut self,
        dead_peer: PeerId,
        router: Option<&mut dyn FnMut(UpdateMsg)>,
    ) -> Walked {
        let mut feed = RouterFeed::new(router);
        self.withdraw_peer(dead_peer, &mut feed);
        feed.finish()
    }

    /// Purge `dead_peer`'s routes, writing what each prefix's
    /// reconciliation decides into `sink`.
    fn withdraw_peer(&mut self, dead_peer: PeerId, sink: &mut impl ActionSink) {
        let (rib, mut steering) = self.split(sink);
        rib.withdraw_peer_with(dead_peer, |prefix, candidates, announced| {
            steering.reconcile(prefix, candidates, announced)
        });
    }

    /// A previously failed peer is back (its BFD session recovered or
    /// its BGP session re-established). Marks it eligible as a failover
    /// target again and **re-arms** every group — live or retired, the
    /// rules are still installed — whose current steering is worse than
    /// the restored member: those flow rules are rewritten back, undoing
    /// the temporary failover before the peer's routes even return via
    /// ordinary UPDATEs. Returns the flow rewrites to issue.
    pub fn peer_up(&mut self, peer: PeerId) -> Vec<EngineAction> {
        if self.alive.insert(peer, true) == Some(true) {
            return Vec::new(); // already alive: nothing to re-arm
        }
        let mut actions = Vec::new();
        let rearm: Vec<(GroupId, MacAddr, PeerId)> = self
            .groups
            .iter()
            .filter(|g| g.key.contains(&peer))
            .filter_map(|g| {
                let desired = g
                    .key
                    .iter()
                    .find(|p| *self.alive.get(p).unwrap_or(&false))
                    .copied()?;
                (desired != g.active_target).then_some((g.id, g.vmac, desired))
            })
            .collect();
        for (gid, vmac, desired) in rearm {
            self.stats.groups_rearmed += 1;
            let spec = self.peer_specs[&desired];
            actions.push(EngineAction::FlowModify {
                vmac,
                dst_mac: spec.mac,
                port: spec.switch_port,
            });
            self.groups.get_mut(gid).unwrap().active_target = desired;
        }
        actions
    }

    /// The full announced state, packed for the router: what it must be
    /// told when its session (re-)establishes (RFC 4271 §9.4 on the
    /// controller side). The router purged our routes when the session
    /// dropped, so a full replay is exactly the delta. One walk over the
    /// RIB; each UPDATE goes to `out` as soon as it is packed, the same
    /// messages [`Engine::pack_for_router`] makes of
    /// [`Engine::export_announcements`].
    pub fn replay(&self, mut out: impl FnMut(UpdateMsg)) {
        let mut packer = RunPacker::new();
        for (prefix, a) in self.announced() {
            packer.push(prefix, &a.attrs, Some(a.next_hop), &mut out);
        }
        packer.finish(&mut out);
    }

    /// The full announced state as `Announce` actions, in the order
    /// [`Engine::replay`] packs them.
    pub fn export_announcements(&self) -> Vec<EngineAction> {
        self.announced()
            .map(|(prefix, a)| EngineAction::Announce {
                prefix,
                attrs: a.attrs.clone(),
                next_hop: a.next_hop,
            })
            .collect()
    }

    /// Destroy a retired group after its grace period; returns the VMAC
    /// whose flow rule should now be deleted.
    pub fn purge_retired(&mut self, group: GroupId) -> Option<MacAddr> {
        let dead = self.groups.purge_retired(group)?;
        self.stats.groups_purged += 1;
        Some(dead.vmac)
    }

    /// Convert a batch of announce/withdraw actions into packed BGP
    /// UPDATE messages toward the router: consecutive announcements
    /// sharing attributes and next-hop ride one UPDATE, like real
    /// speakers pack NLRI, the actions in between not ending the run;
    /// the batch's withdrawals follow every announcement. The streamed
    /// UPDATE path and repair pack the same way, through the same
    /// [`RouterFeed`].
    pub fn pack_for_router(actions: &[EngineAction]) -> Vec<UpdateMsg> {
        let mut out = Vec::new();
        let mut push = |msg| out.push(msg);
        let mut feed = RouterFeed::new(Some(&mut push));
        for action in actions {
            feed.add(action);
        }
        feed.finish();
        out
    }
}

/// The prefixes `upd` both withdraws and announces can be told apart
/// from its withdrawals by a search of this: its NLRI, sorted, when it
/// has both lists, and empty otherwise. RFC 4271 §3.1 reads such a prefix
/// as announced only; withdrawing it first would have the router, whose
/// batch sends withdrawals last, end with it withdrawn.
fn reannounced(upd: &UpdateMsg) -> Cow<'_, [Ipv4Prefix]> {
    if upd.attrs.is_none() || upd.withdrawn.is_empty() {
        Cow::Borrowed(&[])
    } else if upd.nlri.is_sorted() {
        Cow::Borrowed(&upd.nlri)
    } else {
        let mut sorted = upd.nlri.clone();
        sorted.sort_unstable();
        Cow::Owned(sorted)
    }
}

/// Where [`Steering::reconcile`] writes what it decides: a [`RouterFeed`]
/// packs it for the router as it comes, a `Vec<EngineAction>` collects
/// it (an `Arc` handle per announcement).
trait ActionSink {
    /// Tell the router `prefix` is reached via `next_hop` with `attrs`.
    fn announce(&mut self, prefix: Ipv4Prefix, attrs: &Arc<RouteAttrs>, next_hop: Ipv4Addr);
    /// Tell the router `prefix` is gone.
    fn withdraw(&mut self, prefix: Ipv4Prefix);
    /// A flow-rule action for the host.
    fn flow(&mut self, action: EngineAction);
}

impl ActionSink for Vec<EngineAction> {
    fn announce(&mut self, prefix: Ipv4Prefix, attrs: &Arc<RouteAttrs>, next_hop: Ipv4Addr) {
        self.push(EngineAction::Announce {
            prefix,
            attrs: Arc::clone(attrs),
            next_hop,
        });
    }

    fn withdraw(&mut self, prefix: Ipv4Prefix) {
        self.push(EngineAction::Withdraw { prefix });
    }

    fn flow(&mut self, action: EngineAction) {
        self.push(action);
    }
}

/// A batch packed for the router as it comes: announcements into the
/// [`RunPacker`], whose UPDATEs go out at once; withdrawals held until
/// [`RouterFeed::finish`], to follow every announcement of the batch;
/// flow actions kept, in order, for the host. A batch is one UPDATE
/// ([`Engine::process_update_streamed`]), one repair walk
/// ([`Engine::peer_down_repair`]) or one list
/// ([`Engine::pack_for_router`]).
struct RouterFeed<'o> {
    /// Where packed UPDATEs go; `None` packs nothing.
    out: Option<&'o mut dyn FnMut(UpdateMsg)>,
    packer: RunPacker,
    withdrawals: Vec<Ipv4Prefix>,
    walked: Walked,
}

impl<'o> RouterFeed<'o> {
    fn new(out: Option<&'o mut dyn FnMut(UpdateMsg)>) -> RouterFeed<'o> {
        RouterFeed {
            out,
            packer: RunPacker::new(),
            withdrawals: Vec::new(),
            walked: Walked::default(),
        }
    }

    fn add(&mut self, action: &EngineAction) {
        match action {
            EngineAction::Announce {
                prefix,
                attrs,
                next_hop,
            } => self.announce(*prefix, attrs, *next_hop),
            EngineAction::Withdraw { prefix } => self.withdraw(*prefix),
            flow => self.flow(flow.clone()),
        }
    }

    /// Send the open run and the held withdrawals.
    fn finish(mut self) -> Walked {
        if let Some(out) = &mut self.out {
            self.packer.finish(out);
            if !self.withdrawals.is_empty() {
                UpdateMsg::split_from(&self.withdrawals, None, &[], out);
            }
        }
        self.walked
    }
}

impl ActionSink for RouterFeed<'_> {
    fn announce(&mut self, prefix: Ipv4Prefix, attrs: &Arc<RouteAttrs>, next_hop: Ipv4Addr) {
        self.walked.actions += 1;
        if let Some(out) = &mut self.out {
            self.packer.push(prefix, attrs, Some(next_hop), out);
        }
    }

    fn withdraw(&mut self, prefix: Ipv4Prefix) {
        self.walked.actions += 1;
        if self.out.is_some() {
            self.withdrawals.push(prefix);
        }
    }

    fn flow(&mut self, action: EngineAction) {
        self.walked.actions += 1;
        self.walked.flow.push(action);
    }
}

/// The engine minus its RIB: what [`Steering::reconcile`] reads and
/// writes while the RIB lends out one prefix's entry.
struct Steering<'a, S> {
    protect_depth: usize,
    peer_specs: &'a BTreeMap<PeerId, PeerSpec>,
    alive: &'a BTreeMap<PeerId, bool>,
    groups: &'a mut GroupTable,
    stats: &'a mut EngineStats,
    sink: &'a mut S,
}

impl<S: ActionSink> Steering<'_, S> {
    /// Bring `announced`, what the router was last told about `prefix`,
    /// in line with the prefix's ranked `candidates`. It decides on the
    /// best candidate's attributes by reference, and takes a handle of
    /// its own only when the announcement changes.
    fn reconcile(
        &mut self,
        prefix: Ipv4Prefix,
        candidates: &[Route],
        announced: &mut Option<Announced>,
    ) {
        let desired: Option<(&Arc<RouteAttrs>, Ipv4Addr, Option<GroupId>)> = match candidates {
            [] => None,
            [only] => Some((&only.attrs, only.next_hop(), None)),
            multiple => {
                let depth = self.protect_depth.min(multiple.len());
                // One key per learned prefix: keep it off the heap at
                // every depth anyone configures.
                let mut stack = [Ipv4Addr::UNSPECIFIED; STACK_KEY_DEPTH];
                let heap: Vec<PeerId>;
                let peers = multiple[..depth].iter().map(|r| r.peer);
                let key: &[PeerId] = if depth <= STACK_KEY_DEPTH {
                    for (slot, peer) in stack.iter_mut().zip(peers) {
                        *slot = peer;
                    }
                    &stack[..depth]
                } else {
                    heap = peers.collect();
                    &heap
                };
                let best = &multiple[0];
                // A group is only useful if we can actually steer to its
                // members (all peers known to the switch config).
                if key.iter().all(|p| self.peer_specs.contains_key(p)) {
                    let (group, created) = self.groups.get_or_create(key);
                    let (gid, vnh, vmac, target) =
                        (group.id, group.vnh, group.vmac, group.active_target);
                    // Steer to the first *alive* member. A resurrected
                    // group may still target the backup it failed over
                    // to before its primary returned; re-arm it so a
                    // restored peer's re-announcements de-supercharge
                    // the temporary failover steering. With no member
                    // alive there is nothing useful to steer to — leave
                    // the rule alone (mirrors [`Engine::peer_up`]).
                    let desired = key
                        .iter()
                        .find(|p| *self.alive.get(p).unwrap_or(&false))
                        .copied();
                    if created {
                        self.stats.groups_created += 1;
                        let spec = self.peer_specs[&desired.unwrap_or(key[0])];
                        self.sink.flow(EngineAction::FlowAdd {
                            vmac,
                            dst_mac: spec.mac,
                            port: spec.switch_port,
                        });
                        self.groups.get_mut(gid).unwrap().active_target = spec.id;
                    } else if let Some(desired) = desired.filter(|d| *d != target) {
                        self.stats.groups_rearmed += 1;
                        let spec = self.peer_specs[&desired];
                        self.sink.flow(EngineAction::FlowModify {
                            vmac,
                            dst_mac: spec.mac,
                            port: spec.switch_port,
                        });
                        self.groups.get_mut(gid).unwrap().active_target = desired;
                    }
                    Some((&best.attrs, vnh, Some(gid)))
                } else {
                    Some((&best.attrs, best.next_hop(), None))
                }
            }
        };

        match (&*announced, desired) {
            (None, None) => {}
            (Some(prev), Some((attrs, nh, group)))
                if prev.next_hop == nh
                    && Arc::ptr_eq(&prev.attrs, attrs)
                    && prev.group() == group => {}
            _ => {
                // Reference counting for group transitions.
                let old_group = announced.as_ref().and_then(Announced::group);
                let new_group = desired.and_then(|(_, _, g)| g);
                if old_group != new_group {
                    if let Some(g) = new_group {
                        self.groups.add_ref(g);
                    }
                    if let Some(g) = old_group {
                        if let Some(retired) = self.groups.drop_ref(g) {
                            self.stats.groups_retired += 1;
                            let vmac = self.groups.get(retired).unwrap().vmac;
                            self.sink.flow(EngineAction::FlowRetire {
                                group: retired,
                                vmac,
                            });
                        }
                    }
                }
                *announced = match desired {
                    Some((attrs, next_hop, group)) => {
                        self.stats.announcements += 1;
                        self.sink.announce(prefix, attrs, next_hop);
                        Some(Announced::new(next_hop, Arc::clone(attrs), group))
                    }
                    None => {
                        self.stats.withdrawals_sent += 1;
                        self.sink.withdraw(prefix);
                        None
                    }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bgp::attrs::AsPath;

    const R2: PeerId = Ipv4Addr::new(10, 0, 0, 2);
    const R3: PeerId = Ipv4Addr::new(10, 0, 0, 3);
    const R4: PeerId = Ipv4Addr::new(10, 0, 0, 4);
    const MAC_R2: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);
    const MAC_R3: MacAddr = MacAddr([2, 0, 0, 0, 0, 3]);
    const MAC_R4: MacAddr = MacAddr([2, 0, 0, 0, 0, 4]);

    fn spec(id: PeerId, mac: MacAddr, port: u16, lp: u32) -> PeerSpec {
        PeerSpec {
            id,
            mac,
            switch_port: port,
            local_pref: lp,
            router_id: id,
        }
    }

    fn engine2() -> Engine {
        // Paper scenario: R2 preferred ($, lp 200), R3 backup ($$, lp 100).
        Engine::new(EngineConfig::new(
            "10.0.200.0/24".parse().unwrap(),
            vec![spec(R2, MAC_R2, 2, 200), spec(R3, MAC_R3, 3, 100)],
        ))
    }

    fn engine3() -> Engine {
        Engine::new(EngineConfig::new(
            "10.0.200.0/24".parse().unwrap(),
            vec![
                spec(R2, MAC_R2, 2, 200),
                spec(R3, MAC_R3, 3, 150),
                spec(R4, MAC_R4, 4, 100),
            ],
        ))
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// [`Engine::peer_down_repair`]'s walk, collecting its actions: the
    /// list its streamed UPDATEs must pack like.
    fn peer_down_repair_as_list(e: &mut Engine, dead_peer: PeerId) -> Vec<EngineAction> {
        let mut actions = Vec::new();
        e.withdraw_peer(dead_peer, &mut actions);
        actions
    }

    fn announce(peer: PeerId, prefixes: &[&str]) -> UpdateMsg {
        let attrs = RouteAttrs::ebgp(
            AsPath::sequence(vec![65000 + peer.octets()[3] as u16, 174]),
            peer,
        )
        .shared();
        UpdateMsg::announce(attrs, prefixes.iter().map(|s| p(s)).collect())
    }

    #[test]
    fn single_candidate_announced_plain() {
        let mut e = engine2();
        let actions = e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            EngineAction::Announce {
                prefix, next_hop, ..
            } => {
                assert_eq!(*prefix, p("1.0.0.0/24"));
                assert_eq!(*next_hop, R2, "one candidate: real NH, no protection");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.groups().len(), 0);
    }

    #[test]
    fn second_candidate_creates_group_and_rewrites_nh() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        let actions = e.process_update(R3, &announce(R3, &["1.0.0.0/24"]));
        // Expect: FlowAdd for the new (R2,R3) group, then re-announce
        // with the VNH.
        let flow_adds: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, EngineAction::FlowAdd { .. }))
            .collect();
        assert_eq!(flow_adds.len(), 1);
        match flow_adds[0] {
            EngineAction::FlowAdd {
                vmac,
                dst_mac,
                port,
            } => {
                assert_eq!(*dst_mac, MAC_R2, "rule steers to the primary");
                assert_eq!(*port, 2);
                assert_eq!(vmac.virtual_index(), Some(0));
            }
            _ => unreachable!(),
        }
        let vnh = match actions
            .iter()
            .find(|a| matches!(a, EngineAction::Announce { .. }))
            .unwrap()
        {
            EngineAction::Announce { next_hop, .. } => *next_hop,
            _ => unreachable!(),
        };
        assert!(e.owns_vnh(vnh), "NH rewritten to a pool address");
        assert_eq!(e.arp_lookup(vnh), Some(MacAddr::virtual_mac(0)));
        assert_eq!(e.groups().len(), 1);
    }

    #[test]
    fn prefixes_sharing_backup_pair_share_one_group() {
        let mut e = engine2();
        let prefixes = ["1.0.0.0/24", "2.0.0.0/16", "3.3.0.0/24", "4.0.0.0/8"];
        e.process_update(R2, &announce(R2, &prefixes));
        let actions = e.process_update(R3, &announce(R3, &prefixes));
        let flow_adds = actions
            .iter()
            .filter(|a| matches!(a, EngineAction::FlowAdd { .. }))
            .count();
        assert_eq!(
            flow_adds, 1,
            "one rule for all 4 prefixes (the paper's 512k→1)"
        );
        assert_eq!(e.groups().len(), 1);
        assert_eq!(e.groups().iter().next().unwrap().prefixes, 4);
        // All announcements carry the same VNH.
        let vnhs: std::collections::BTreeSet<Ipv4Addr> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::Announce { next_hop, .. } => Some(*next_hop),
                _ => None,
            })
            .collect();
        assert_eq!(vnhs.len(), 1);
    }

    #[test]
    fn no_redundant_reannouncement() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        e.process_update(R3, &announce(R3, &["1.0.0.0/24"]));
        // R3 re-announces identical content: the pair (R2,R3) is
        // unchanged, the attrs pointer differs but NH/group are the
        // same... a new Arc means we do re-announce; send the same
        // UPDATE twice instead and expect silence the second time.
        let upd = announce(R3, &["1.0.0.0/24"]);
        let first = e.process_update(R3, &upd);
        let second = e.process_update(R3, &upd);
        assert!(
            second.is_empty(),
            "identical update produces no churn, got {second:?}"
        );
        let _ = first;
    }

    #[test]
    fn failover_plan_is_constant_size_and_correct() {
        let mut e = engine2();
        let prefixes: Vec<String> = (0..100)
            .map(|i| format!("{}.{}.0.0/16", 1 + i / 250, i % 250))
            .collect();
        let refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
        e.process_update(R2, &announce(R2, &refs));
        e.process_update(R3, &announce(R3, &refs));
        assert_eq!(e.groups().len(), 1);

        let plan = e.failover_plan(R2);
        // Listing 2: number of rewrites ≤ number of peers, regardless of
        // 100 prefixes.
        assert_eq!(plan.rewrites.len(), 1);
        let rw = plan.rewrites[0];
        assert_eq!(rw.new_dst_mac, MAC_R3);
        assert_eq!(rw.out_port, 3);
        assert_eq!(rw.new_target, R3);
        assert_eq!(plan.unprotected_groups, 0);
        // The group now steers to R3.
        assert_eq!(e.groups().get(rw.group).unwrap().active_target, R3);
    }

    #[test]
    fn repair_reannounces_with_real_backup_nh_and_gcs_group() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24", "2.0.0.0/24"]));
        e.process_update(R3, &announce(R3, &["1.0.0.0/24", "2.0.0.0/24"]));
        e.failover_plan(R2);
        let actions = peer_down_repair_as_list(&mut e, R2);
        // With only R3 left, prefixes become unprotected: announced with
        // R3's real NH; the (R2,R3) group empties and its rule dies.
        let announces: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::Announce { next_hop, .. } => Some(*next_hop),
                _ => None,
            })
            .collect();
        assert_eq!(announces, vec![R3, R3]);
        let retire = actions
            .iter()
            .find_map(|a| match a {
                EngineAction::FlowRetire { group, vmac } => Some((*group, *vmac)),
                _ => None,
            })
            .expect("group retired, not deleted");
        assert_eq!(e.groups().len(), 0, "no live groups");
        assert_eq!(e.groups().retired_count(), 1, "rule kept during grace");
        assert_eq!(e.stats.groups_retired, 1);
        // The retired VNH still answers ARP (the router may re-query).
        assert!(e
            .arp_lookup(e.groups().get(retire.0).unwrap().vnh)
            .is_some());
        // After the grace period the host purges; only then is the rule
        // deleted.
        assert_eq!(e.purge_retired(retire.0), Some(retire.1));
        assert_eq!(e.groups().retired_count(), 0);
        assert_eq!(e.stats.groups_purged, 1);
        assert_eq!(e.purge_retired(retire.0), None, "idempotent");
    }

    #[test]
    fn three_peers_repair_regroups_to_next_pair() {
        let mut e = engine3();
        for peer in [R2, R3, R4] {
            e.process_update(peer, &announce(peer, &["1.0.0.0/24"]));
        }
        // Group is (R2,R3) — top two by local-pref.
        assert_eq!(e.groups().iter().next().unwrap().key, vec![R2, R3]);
        let plan = e.failover_plan(R2);
        assert_eq!(plan.rewrites.len(), 1);
        assert_eq!(plan.rewrites[0].new_target, R3);
        let actions = peer_down_repair_as_list(&mut e, R2);
        // Repair creates the (R3,R4) group and re-announces with its VNH.
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::FlowAdd { dst_mac, .. } if *dst_mac == MAC_R3)));
        let new_group = e.groups().by_key(&[R3, R4]).expect("regrouped");
        assert_eq!(new_group.prefixes, 1);
        assert!(e.groups().by_key(&[R2, R3]).is_none(), "old group retired");
        assert_eq!(e.groups().retired_count(), 1);
    }

    #[test]
    fn withdrawal_of_best_promotes_and_regroups() {
        let mut e = engine3();
        for peer in [R2, R3, R4] {
            e.process_update(peer, &announce(peer, &["1.0.0.0/24"]));
        }
        // R2 withdraws just this prefix (no failure): group becomes
        // (R3,R4) for it.
        let actions = e.process_update(R2, &UpdateMsg::withdraw(vec![p("1.0.0.0/24")]));
        let vnh = actions
            .iter()
            .find_map(|a| match a {
                EngineAction::Announce { next_hop, .. } => Some(*next_hop),
                _ => None,
            })
            .expect("re-announced");
        let g = e.groups().by_vnh(vnh).expect("protected by a group");
        assert_eq!(g.key, vec![R3, R4]);
    }

    #[test]
    fn full_withdrawal_sends_withdraw() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        let actions = e.process_update(R2, &UpdateMsg::withdraw(vec![p("1.0.0.0/24")]));
        assert_eq!(
            actions,
            vec![EngineAction::Withdraw {
                prefix: p("1.0.0.0/24")
            }]
        );
        assert_eq!(e.stats.withdrawals_sent, 1);
    }

    #[test]
    fn double_failure_with_depth_three() {
        let mut e = Engine::new(EngineConfig {
            protect_depth: 3,
            ..EngineConfig::new(
                "10.0.200.0/24".parse().unwrap(),
                vec![
                    spec(R2, MAC_R2, 2, 200),
                    spec(R3, MAC_R3, 3, 150),
                    spec(R4, MAC_R4, 4, 100),
                ],
            )
        });
        for peer in [R2, R3, R4] {
            e.process_update(peer, &announce(peer, &["1.0.0.0/24"]));
        }
        let live: Vec<_> = e.groups().iter().filter(|g| !g.retired).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].key, vec![R2, R3, R4]);
        let plan1 = e.failover_plan(R2);
        assert_eq!(plan1.rewrites[0].new_target, R3);
        // Second failure before any repair: fall through to R4.
        let plan2 = e.failover_plan(R3);
        assert_eq!(plan2.rewrites[0].new_target, R4);
        // The retired (R2,R3) group from the early two-candidate phase
        // has no survivor — it counts as unprotected (it carries no
        // announced prefixes, only a lingering rule).
        assert_eq!(plan2.unprotected_groups, 1);
        // Third failure: nobody left.
        let plan3 = e.failover_plan(R4);
        assert!(plan3.rewrites.is_empty());
        assert_eq!(plan3.unprotected_groups, 1);
    }

    #[test]
    fn peer_up_restores_failover_eligibility() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        e.process_update(R3, &announce(R3, &["1.0.0.0/24"]));
        e.failover_plan(R3); // backup dies first
        e.peer_up(R3);
        let plan = e.failover_plan(R2);
        assert_eq!(plan.rewrites.len(), 1);
        assert_eq!(plan.rewrites[0].new_target, R3, "revived peer usable again");
    }

    #[test]
    fn restored_peer_rearms_group_and_reannouncement_restores_vnh() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        e.process_update(R3, &announce(R3, &["1.0.0.0/24"]));
        let vnh = e.groups().iter().next().unwrap().vnh;
        // Primary dies: fast path steers to R3, repair de-superchages.
        e.failover_plan(R2);
        peer_down_repair_as_list(&mut e, R2);
        assert_eq!(e.groups().retired_count(), 1, "group retired");

        // Primary's forwarding plane returns (BFD Up): the retired
        // group's rule — still installed — is re-armed back to R2
        // before any route returns.
        let actions = e.peer_up(R2);
        assert_eq!(
            actions,
            vec![EngineAction::FlowModify {
                vmac: MacAddr::virtual_mac(0),
                dst_mac: MAC_R2,
                port: 2,
            }]
        );
        assert_eq!(e.stats.groups_rearmed, 1);
        assert!(e.peer_up(R2).is_empty(), "already alive: no-op");

        // Its re-announcement resurrects the group (same VNH, correct
        // target) and the prefix goes back behind the VNH.
        let actions = e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        let nh = actions
            .iter()
            .find_map(|a| match a {
                EngineAction::Announce { next_hop, .. } => Some(*next_hop),
                _ => None,
            })
            .expect("re-announced toward the router");
        assert_eq!(nh, vnh, "same VNH resurrected");
        let g = e.groups().by_vnh(vnh).unwrap();
        assert!(!g.retired);
        assert_eq!(g.active_target, R2, "steering restored to the primary");
        assert_eq!(e.stats.groups_rearmed, 1, "no redundant re-arm");
    }

    #[test]
    fn pack_for_router_batches_shared_attrs() {
        let mut e = engine2();
        // 600 distinct /24s sharing one attribute set.
        let refs: Vec<String> = (0..600u32)
            .map(|i| {
                format!(
                    "{}",
                    Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32 + (i << 8)), 24)
                )
            })
            .collect();
        let refs2: Vec<&str> = refs.iter().map(String::as_str).collect();
        let actions = e.process_update(R2, &announce(R2, &refs2));
        let msgs = Engine::pack_for_router(&actions);
        // 600 prefixes sharing one attribute set pack into few messages,
        // each under the BGP size cap.
        assert!(msgs.len() < 10, "got {}", msgs.len());
        let total: usize = msgs.iter().map(|m| m.nlri.len()).sum();
        assert_eq!(total, 600);
        for m in &msgs {
            assert!(sc_bgp::BgpMessage::Update(m.clone()).encode().len() <= 4096);
        }
    }

    /// RFC 4271 §3.1: an UPDATE that both withdraws and announces a
    /// prefix announces it. The router, applying the packed messages in
    /// order, ends holding it, as the engine records.
    #[test]
    fn a_prefix_withdrawn_and_announced_in_one_update_is_announced() {
        let mut e = engine2();
        e.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        // NLRI out of order; 3.0.0.0/24 was never announced.
        let mut upd = announce(R2, &["2.0.0.0/24", "1.0.0.0/24"]);
        upd.withdrawn = vec![p("3.0.0.0/24"), p("1.0.0.0/24")];
        let actions = e.process_update(R2, &upd);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, EngineAction::Withdraw { .. })),
            "{actions:?}"
        );
        let controller = PeerInfo {
            peer: Ipv4Addr::new(10, 0, 0, 254),
            router_id: Ipv4Addr::new(10, 0, 0, 254),
            ebgp: true,
            igp_cost: 0,
        };
        let mut router = LocRib::new();
        for msg in Engine::pack_for_router(&actions) {
            for prefix in &msg.withdrawn {
                router.withdraw(*prefix, controller.peer);
            }
            for prefix in &msg.nlri {
                let attrs = msg.attrs.clone().expect("an announcement");
                router.update(*prefix, attrs, controller, 100);
            }
        }
        let held: Vec<Ipv4Prefix> = router.iter().map(|(prefix, _)| prefix).collect();
        assert_eq!(held, [p("1.0.0.0/24"), p("2.0.0.0/24")]);
        let announced: Vec<Ipv4Prefix> = e.announced().map(|(prefix, _)| prefix).collect();
        assert_eq!(announced, held);
        assert_eq!(e.stats.withdrawals_processed, 1, "only 3.0.0.0/24");
    }

    /// [`Engine::pack_for_router`] as it was before runs were sized up
    /// front: one growing NLRI per run. The reference it must match.
    fn packed_by_pushing(actions: &[EngineAction]) -> Vec<UpdateMsg> {
        let mut out: Vec<UpdateMsg> = Vec::new();
        let mut current: Option<(Arc<RouteAttrs>, Ipv4Addr, Vec<Ipv4Prefix>)> = None;
        let mut withdrawals: Vec<Ipv4Prefix> = Vec::new();
        let flush_current = |current: &mut Option<(Arc<RouteAttrs>, Ipv4Addr, Vec<Ipv4Prefix>)>,
                             out: &mut Vec<UpdateMsg>| {
            if let Some((attrs, nh, nlri)) = current.take() {
                let rewritten = Arc::new(attrs.with_next_hop(nh));
                UpdateMsg::announce(rewritten, nlri).split_to_fit(out);
            }
        };
        for action in actions {
            match action {
                EngineAction::Announce {
                    prefix,
                    attrs,
                    next_hop,
                } => match &mut current {
                    Some((a, nh, nlri)) if Arc::ptr_eq(a, attrs) && nh == next_hop => {
                        nlri.push(*prefix);
                    }
                    _ => {
                        flush_current(&mut current, &mut out);
                        current = Some((attrs.clone(), *next_hop, vec![*prefix]));
                    }
                },
                EngineAction::Withdraw { prefix } => withdrawals.push(*prefix),
                _ => {}
            }
        }
        flush_current(&mut current, &mut out);
        if !withdrawals.is_empty() {
            UpdateMsg::withdraw(withdrawals).split_to_fit(&mut out);
        }
        out
    }

    /// The flow actions of a collected list, in order.
    fn flow_of(actions: &[EngineAction]) -> Vec<EngineAction> {
        actions
            .iter()
            .filter(|a| {
                !matches!(
                    a,
                    EngineAction::Announce { .. } | EngineAction::Withdraw { .. }
                )
            })
            .cloned()
            .collect()
    }

    /// A random stream of UPDATEs from R2, R3 and R4, one per step
    /// `(who, kind, start, len)`: runs of /24s and /16s from `start`,
    /// announced with one of two attribute sets per peer (kinds 0 and 1),
    /// withdrawn (kind 2), or withdrawn and re-announced in one UPDATE
    /// (kind 3): its NLRI, unsorted, overlaps its withdrawals by half, so
    /// RFC 4271 §3.1's rule decides those prefixes.
    fn random_feed(steps: &[(usize, usize, u32, u32)]) -> Vec<(PeerId, UpdateMsg)> {
        let peers = [R2, R3, R4];
        let sets: Vec<Vec<Arc<RouteAttrs>>> = peers
            .iter()
            .map(|&peer| {
                (0..2u16)
                    .map(|k| {
                        let path = AsPath::sequence(vec![65000 + peer.octets()[3] as u16, 100 + k]);
                        RouteAttrs::ebgp(path, peer).shared()
                    })
                    .collect()
            })
            .collect();
        let prefix = |i: u32| {
            let len = if i.is_multiple_of(5) { 16 } else { 24 };
            Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32 + (i << 8)), len)
        };
        steps
            .iter()
            .map(|&(who, kind, start, len)| {
                let nlri: Vec<Ipv4Prefix> = (start..start + len).map(prefix).collect();
                let upd = match kind {
                    2 => UpdateMsg::withdraw(nlri),
                    3 => {
                        let half = start + len / 2;
                        let mut upd = UpdateMsg::announce(
                            sets[who][(start % 2) as usize].clone(),
                            (half..half + len).rev().map(prefix).collect(),
                        );
                        upd.withdrawn = nlri;
                        upd
                    }
                    k => UpdateMsg::announce(sets[who][k].clone(), nlri),
                };
                (peers[who], upd)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random action lists: announcements from three attribute sets
        /// (two of them equal in content, distinct in identity) and two
        /// next-hops, interleaved with withdrawals and flow actions. The
        /// announcement key changes at a random step with a per-case
        /// odds, so some cases are one long run that splits at the size
        /// cap and others change key at almost every step.
        #[test]
        fn pack_for_router_matches_the_growing_reference(
            odds in 0usize..4,
            steps in proptest::collection::vec((0u8..8, 0u16..4096, 0u16..2048), 0..3000),
        ) {
            let path = AsPath::sequence(vec![65002, 174]);
            let sets = [
                RouteAttrs::ebgp(path.clone(), R2).shared(),
                RouteAttrs::ebgp(path, R2).shared(),
                RouteAttrs::ebgp(AsPath::sequence(vec![65003]), R3).shared(),
            ];
            let vmac = MacAddr([2, 0xaa, 0, 0, 0, 1]);
            let mut key = 0usize;
            let actions: Vec<EngineAction> = steps
                .iter()
                .map(|&(kind, roll, slot)| {
                    if (roll as usize) < [4096, 1024, 16, 1][odds] {
                        key = (key + 1 + roll as usize) % 6;
                    }
                    let prefix =
                        Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32 + ((slot as u32) << 8)), 24);
                    match kind {
                        0..=5 => EngineAction::Announce {
                            prefix,
                            attrs: sets[key % 3].clone(),
                            next_hop: [R2, R3][key / 3],
                        },
                        6 => EngineAction::Withdraw { prefix },
                        _ if roll % 2 == 0 => EngineAction::FlowModify { vmac, dst_mac: MAC_R2, port: 2 },
                        _ => EngineAction::FlowRetire { group: GroupId(slot as u32), vmac },
                    }
                })
                .collect();
            let packed = Engine::pack_for_router(&actions);
            proptest::prop_assert_eq!(&packed, &packed_by_pushing(&actions));
            for m in &packed {
                proptest::prop_assert!(m.encoded_len() <= sc_bgp::msg::MAX_MESSAGE_LEN);
            }
        }

        /// The streamed repair and replay against the same reference, on
        /// random RIBs of three peers ([`random_feed`]). Three engines
        /// learn the same stream and lose the same peer: one collects the
        /// repair's actions, one streams its UPDATEs, one streams with
        /// the router's session down and packs nothing. All three end in
        /// the same state.
        #[test]
        fn streamed_repair_and_replay_match_the_growing_reference(
            steps in proptest::collection::vec((0usize..3, 0usize..4, 0u32..4096, 1u32..1500), 1..40),
            victim in 0usize..3,
            fail_first in 0u8..2,
        ) {
            let peers = [R2, R3, R4];
            let feed = random_feed(&steps);
            let learned = || {
                let mut e = engine3();
                for (peer, upd) in &feed {
                    e.process_update(*peer, upd);
                }
                if fail_first == 1 {
                    e.failover_plan(peers[victim]);
                }
                e
            };
            let (mut listed, mut streamed, mut silent) = (learned(), learned(), learned());

            let actions = peer_down_repair_as_list(&mut listed, peers[victim]);
            let mut packed = Vec::new();
            let walked = streamed.peer_down_repair(peers[victim], Some(&mut |m| packed.push(m)));
            proptest::prop_assert_eq!(&packed, &packed_by_pushing(&actions));
            proptest::prop_assert_eq!(walked.actions, actions.len());
            proptest::prop_assert_eq!(&walked.flow, &flow_of(&actions));
            proptest::prop_assert_eq!(silent.peer_down_repair(peers[victim], None), walked);
            proptest::prop_assert_eq!(streamed.state_digest(), listed.state_digest());
            proptest::prop_assert_eq!(silent.state_digest(), listed.state_digest());

            let mut replayed = Vec::new();
            streamed.replay(|m| replayed.push(m));
            let exported = listed.export_announcements();
            proptest::prop_assert_eq!(&replayed, &packed_by_pushing(&exported));
            proptest::prop_assert_eq!(&replayed, &Engine::pack_for_router(&exported));
            for m in packed.iter().chain(&replayed) {
                proptest::prop_assert!(m.encoded_len() <= sc_bgp::msg::MAX_MESSAGE_LEN);
            }
        }

        /// The streamed UPDATE path against the collected one, UPDATE by
        /// UPDATE, over [`random_feed`]'s streams. Three engines learn
        /// the same stream, the `victim` failing over (no repair) before
        /// step `fail_at`, so later groups are built around a dead
        /// member: one collects each UPDATE's actions, one streams its
        /// packed UPDATEs, one streams with the router's session down.
        /// After every UPDATE the streamed messages equal the growing
        /// reference's packing of the list, and all three agree on what
        /// was walked and on their state.
        #[test]
        fn streamed_updates_match_the_collected_list(
            steps in proptest::collection::vec((0usize..3, 0usize..4, 0u32..4096, 1u32..1500), 1..40),
            victim in 0usize..3,
            fail_at in 0usize..48,
        ) {
            let peers = [R2, R3, R4];
            let (mut listed, mut streamed, mut silent) = (engine3(), engine3(), engine3());
            for (step, (peer, upd)) in random_feed(&steps).iter().enumerate() {
                if step == fail_at {
                    for e in [&mut listed, &mut streamed, &mut silent] {
                        e.failover_plan(peers[victim]);
                    }
                }
                let actions = listed.process_update(*peer, upd);
                let mut packed = Vec::new();
                let walked = streamed.process_update_streamed(*peer, upd, Some(&mut |m| packed.push(m)));
                proptest::prop_assert_eq!(&packed, &packed_by_pushing(&actions));
                proptest::prop_assert_eq!(walked.actions, actions.len());
                proptest::prop_assert_eq!(&walked.flow, &flow_of(&actions));
                proptest::prop_assert_eq!(silent.process_update_streamed(*peer, upd, None), walked);
                proptest::prop_assert_eq!(streamed.state_digest(), listed.state_digest());
                proptest::prop_assert_eq!(silent.state_digest(), listed.state_digest());
                for m in &packed {
                    proptest::prop_assert!(m.encoded_len() <= sc_bgp::msg::MAX_MESSAGE_LEN);
                }
            }
        }
    }

    #[test]
    fn state_digest_differs_on_divergence() {
        let mut a = engine2();
        let mut b = engine2();
        a.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        b.process_update(R2, &announce(R2, &["1.0.0.0/24"]));
        assert_eq!(a.state_digest(), b.state_digest());
        b.process_update(R3, &announce(R3, &["1.0.0.0/24"]));
        assert_ne!(a.state_digest(), b.state_digest());
    }

    /// The digest's values are pinned: the §3 property only compares
    /// digests across replicas, so a change that moved the digest of
    /// the same state would go unnoticed there.
    #[test]
    fn state_digest_is_pinned_over_a_churny_stream() {
        let mut e = engine2();
        for step in 0..200u32 {
            let peer = if step % 2 == 0 { R2 } else { R3 };
            let attrs =
                RouteAttrs::ebgp(AsPath::sequence(vec![(65000 + step % 7) as u16, 174]), peer)
                    .shared();
            let nlri = (0..20)
                .map(|i| {
                    Ipv4Prefix::new(
                        Ipv4Addr::from(0x0100_0000u32 + (((step * 131 + i) % 5000) << 8)),
                        24,
                    )
                })
                .collect();
            e.process_update(peer, &UpdateMsg::announce(attrs, nlri));
        }
        assert_eq!(e.state_digest(), 0x7244_d5d5_3f5f_0992);
        e.failover_plan(R2);
        e.peer_down_repair(R2, None);
        assert_eq!(e.state_digest(), 0xf3c1_5f1c_7bcd_c27e);
    }
}
