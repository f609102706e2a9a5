//! Typed failure scripts.
//!
//! A script is a schedule of [`ScenarioEvent`] values at offsets
//! relative to the script origin `t0` (the instant the measurement
//! window opens). Scripts are built in code, from the constructors
//! below or from a `Vec<ScenarioEvent>`; [`EventScript::apply`]
//! compiles the schedule down to [`sc_sim::World`] failure injections.
//! The paper's experiment, "cut R2 at `t_fail`", is
//! [`EventScript::primary_cut`].
//!
//! Semantics note: session restart is modeled end-to-end (RFC 4271
//! §9.4): a session torn down by BFD or the hold timer drops its
//! transport, reconnects, and replays the originating side's
//! Adj-RIB-Out on re-establishment. Flap and reset scripts therefore
//! measure a full down→up→re-converge cycle per epoch — use
//! [`EventScript::epochs`] to carve one measurement window per cycle.
//! Route churn over a *live* session is exercised separately by
//! [`ScenarioEvent::ChurnBurst`].

use crate::builder::BuiltScenario;
use sc_bgp::msg::UpdateMsg;
use sc_net::{splitmix64, Ipv4Prefix, SimDuration, SimTime};
use sc_router::LegacyRouter;
use sc_sim::{LinkId, NodeId};
use std::rc::Rc;

/// Which provider an event targets, by preference rank (scripts stay
/// topology-portable). A blueprint lists its providers in preference
/// order, so rank `n` is provider index `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProviderSel {
    /// The highest-preference provider.
    Primary,
    /// The provider ranked `n` by preference (0 = primary).
    Rank(usize),
}

/// A cuttable link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkRef {
    /// Provider ↔ switch (the paper's "pull the cable").
    ProviderSwitch(ProviderSel),
    /// A provider's first delivery edge toward the sink.
    ProviderPath(ProviderSel),
    /// Forwarder j's uplink toward the sink.
    ForwarderUplink(usize),
    /// Controller replica `c`'s control channel to the switch (the
    /// chaos layer's favorite victim; legacy builds have none and
    /// events targeting it no-op).
    ControllerSwitch(usize),
}

/// A crashable node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef {
    Provider(ProviderSel),
    Forwarder(usize),
    Controller(usize),
    /// The OpenFlow switch (partition endpoint; crashing it is legal
    /// chaos too).
    Switch,
}

/// One scheduled event; all offsets are relative to the script origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioEvent {
    LinkDown {
        link: LinkRef,
        at: SimDuration,
    },
    LinkUp {
        link: LinkRef,
        at: SimDuration,
    },
    /// `cycles` × (down, then up half a period later).
    LinkFlap {
        link: LinkRef,
        at: SimDuration,
        period: SimDuration,
        cycles: u32,
    },
    NodeCrash {
        node: NodeRef,
        at: SimDuration,
    },
    /// The provider withdraws its first `count` prefixes.
    WithdrawBurst {
        provider: ProviderSel,
        at: SimDuration,
        count: u32,
    },
    /// `cycles` × (withdraw first `count` prefixes, re-announce half a
    /// period later) — sustained route churn over a live session.
    ChurnBurst {
        provider: ProviderSel,
        at: SimDuration,
        count: u32,
        cycles: u32,
        period: SimDuration,
    },
    /// Crash controller replica `replica` (all its links drop) — the
    /// replica-divergence probe, typically fired mid-failover. A legacy
    /// build has no replicas and ignores it, so one script drives both
    /// sides of a comparison cell.
    CrashReplica {
        replica: usize,
        at: SimDuration,
    },
    /// Chaos: seeded stochastic faults on a link from `at` to `until` —
    /// drop each frame with probability `loss_ppm` and flip one byte
    /// with probability `corrupt_ppm` (both parts-per-million, so the
    /// event stays `Eq`). Healing restores the link's apply-time
    /// parameters. Faults apply to frames *emitted* while active;
    /// in-flight frames are unaffected.
    SetLinkFaults {
        link: LinkRef,
        at: SimDuration,
        loss_ppm: u32,
        corrupt_ppm: u32,
        until: SimDuration,
    },
    /// Chaos: sever every wired link between `a` and `b` at `at`,
    /// restore at `heal`. A pair with no wired link fails validation;
    /// a controller endpoint a legacy build lacks no-ops.
    Partition {
        a: NodeRef,
        b: NodeRef,
        at: SimDuration,
        heal: SimDuration,
    },
    /// Chaos: crash controller replica `replica` (process death — links
    /// drop, liveness watchdogs fire, the router degrades). Unlike
    /// [`ScenarioEvent::CrashReplica`] this *is* a convergence onset:
    /// it opens its own measurement window rather than perturbing one
    /// already in progress. Legacy builds no-op.
    CrashController {
        replica: usize,
        at: SimDuration,
    },
    /// Chaos: boot a fresh controller process into crashed slot
    /// `replica` (links return, handshakes and engine resync rerun —
    /// the reconciliation path). No-op if the slot is still alive or
    /// the build has no such replica (legacy).
    RestartController {
        replica: usize,
        at: SimDuration,
    },
    /// Chaos: from `at`, the switch silently discards the next `count`
    /// FlowMods and swallows barriers while the budget lasts — the
    /// controller sees missing acks and must retry (or give up into
    /// degradation).
    DropFlowMods {
        count: u32,
        at: SimDuration,
    },
}

impl ScenarioEvent {
    /// The last instant this event touches the world.
    pub fn end(&self) -> SimDuration {
        match *self {
            ScenarioEvent::LinkDown { at, .. }
            | ScenarioEvent::LinkUp { at, .. }
            | ScenarioEvent::NodeCrash { at, .. }
            | ScenarioEvent::WithdrawBurst { at, .. }
            | ScenarioEvent::CrashReplica { at, .. }
            | ScenarioEvent::CrashController { at, .. }
            | ScenarioEvent::RestartController { at, .. }
            | ScenarioEvent::DropFlowMods { at, .. } => at,
            ScenarioEvent::LinkFlap {
                at, period, cycles, ..
            } => at + period * cycles.saturating_sub(1) as u64 + period / 2,
            ScenarioEvent::SetLinkFaults { until, .. } => until,
            ScenarioEvent::Partition { heal, .. } => heal,
            ScenarioEvent::ChurnBurst {
                at, period, cycles, ..
            } => at + period * cycles.saturating_sub(1) as u64 + period / 2,
        }
    }

    /// The failure *onsets* of this event, one per cycle — the instants
    /// a convergence event begins (restorations are not onsets; they
    /// belong to the cycle they end). A pure [`ScenarioEvent::LinkUp`]
    /// contributes none.
    pub fn epochs(&self) -> Vec<SimDuration> {
        match *self {
            ScenarioEvent::LinkDown { at, .. }
            | ScenarioEvent::NodeCrash { at, .. }
            | ScenarioEvent::WithdrawBurst { at, .. } => vec![at],
            // Chaos onsets that start perturbing traffic or degrade the
            // router open their own measurement window.
            ScenarioEvent::SetLinkFaults { at, .. }
            | ScenarioEvent::Partition { at, .. }
            | ScenarioEvent::CrashController { at, .. } => vec![at],
            // Restorations are not onsets, and replica events perturb
            // the control plane *during* a co-scripted failover rather
            // than starting a convergence cycle of their own. A
            // controller restart and a flow-mod drop budget likewise
            // only modulate a window already open.
            ScenarioEvent::LinkUp { .. }
            | ScenarioEvent::CrashReplica { .. }
            | ScenarioEvent::RestartController { .. }
            | ScenarioEvent::DropFlowMods { .. } => Vec::new(),
            ScenarioEvent::LinkFlap {
                at, period, cycles, ..
            }
            | ScenarioEvent::ChurnBurst {
                at, period, cycles, ..
            } => (0..cycles as u64).map(|c| at + period * c).collect(),
        }
    }
}

/// A named schedule of events.
#[derive(Clone, Debug, PartialEq)]
pub struct EventScript {
    pub name: String,
    pub events: Vec<ScenarioEvent>,
}

impl EventScript {
    pub fn new(name: &str, events: Vec<ScenarioEvent>) -> EventScript {
        EventScript {
            name: name.to_string(),
            events,
        }
    }

    /// The paper's failure: cut the primary's cable at the origin.
    pub fn primary_cut() -> EventScript {
        EventScript::new(
            "primary-cut",
            vec![ScenarioEvent::LinkDown {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
            }],
        )
    }

    /// Flap the primary's cable: `cycles` × (down, up ½ period later).
    pub fn primary_flap(period: SimDuration, cycles: u32) -> EventScript {
        EventScript::new(
            "primary-flap",
            vec![ScenarioEvent::LinkFlap {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
                period,
                cycles,
            }],
        )
    }

    /// Crash the primary provider outright (all its links drop).
    pub fn primary_crash() -> EventScript {
        EventScript::new(
            "primary-crash",
            vec![ScenarioEvent::NodeCrash {
                node: NodeRef::Provider(ProviderSel::Primary),
                at: SimDuration::ZERO,
            }],
        )
    }

    /// Reset the primary's session: a carrier outage of `outage` on its
    /// switch link (the operational shape of a BGP session reset), i.e.
    /// one flap cycle of period `2 × outage`.
    pub fn primary_session_reset(outage: SimDuration) -> EventScript {
        EventScript::new(
            "session-reset",
            vec![ScenarioEvent::LinkFlap {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
                period: outage * 2,
                cycles: 1,
            }],
        )
    }

    /// The primary withdraws its first `count` prefixes.
    pub fn withdraw_burst(count: u32) -> EventScript {
        EventScript::new(
            "withdraw-burst",
            vec![ScenarioEvent::WithdrawBurst {
                provider: ProviderSel::Primary,
                at: SimDuration::ZERO,
                count,
            }],
        )
    }

    /// Replica-divergence probe: cut the primary at the origin and
    /// crash controller replica `replica` mid-failover, `after` later.
    pub fn replica_crash(replica: usize, after: SimDuration) -> EventScript {
        EventScript::new(
            "replica-crash",
            vec![
                ScenarioEvent::LinkDown {
                    link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                    at: SimDuration::ZERO,
                },
                ScenarioEvent::CrashReplica { replica, at: after },
            ],
        )
    }

    /// A seeded chaos schedule: the paper's primary cut at the origin
    /// (the measured convergence event) overlaid with a deterministic
    /// pseudo-random mix of fail-safe stressors — a lossy/corrupting
    /// window on the controller channel, a dropped-flow-mod budget, a
    /// controller crash/restart pair, and a short switch↔controller
    /// partition after the restart. A pure function of `seed`
    /// (splitmix64 throughout): the same seed always yields the same
    /// script, so chaos cells stay byte-identical across reruns. Every
    /// chaos target no-ops in a legacy build, so one script drives both
    /// sides of a comparison cell.
    pub fn chaos(seed: u64) -> EventScript {
        let mut ctr = 0u64;
        let mut next = |hi: u64| -> u64 {
            ctr += 1;
            splitmix64(&mut seed.wrapping_add(ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15))) % hi
        };
        let us = SimDuration::from_micros;
        let fault_at = next(20_000);
        let drop_at = next(5_000);
        let crash_at = 20_000 + next(40_000);
        let restart_at = crash_at + 50_000 + next(100_000);
        let part_at = restart_at + 10_000 + next(20_000);
        let events = vec![
            ScenarioEvent::LinkDown {
                link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                at: SimDuration::ZERO,
            },
            ScenarioEvent::SetLinkFaults {
                link: LinkRef::ControllerSwitch(0),
                at: us(fault_at),
                loss_ppm: (50_000 + next(150_000)) as u32,
                corrupt_ppm: next(50_000) as u32,
                until: us(fault_at + 100_000 + next(200_000)),
            },
            ScenarioEvent::DropFlowMods {
                count: (1 + next(3)) as u32,
                at: us(drop_at),
            },
            ScenarioEvent::CrashController {
                replica: 0,
                at: us(crash_at),
            },
            ScenarioEvent::RestartController {
                replica: 0,
                at: us(restart_at),
            },
            ScenarioEvent::Partition {
                a: NodeRef::Controller(0),
                b: NodeRef::Switch,
                at: us(part_at),
                heal: us(part_at + 20_000 + next(40_000)),
            },
        ];
        EventScript::new("chaos", events)
    }

    /// The last instant the script touches the world (relative to the
    /// origin).
    pub fn end(&self) -> SimDuration {
        self.events
            .iter()
            .map(|e| e.end())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The merged, ascending failure onsets of every event — the
    /// script's convergence epochs, one measurement window each (see
    /// `sc_lab::harness::plan_cycle_measurement`). Scripts without an
    /// onset (e.g. a lone `link_up`) measure a single window at the
    /// origin.
    pub fn epochs(&self) -> Vec<SimDuration> {
        let mut out: Vec<SimDuration> = self.events.iter().flat_map(|e| e.epochs()).collect();
        out.sort_unstable();
        out.dedup();
        if out.is_empty() {
            out.push(SimDuration::ZERO);
        }
        out
    }

    /// Check every target resolves in `scn`'s topology.
    pub fn validate(&self, scn: &BuiltScenario) -> Result<(), String> {
        for ev in &self.events {
            match *ev {
                ScenarioEvent::LinkDown { link, .. }
                | ScenarioEvent::LinkUp { link, .. }
                | ScenarioEvent::LinkFlap { link, .. } => {
                    resolve_link(scn, link)?;
                }
                ScenarioEvent::NodeCrash { node, .. } => {
                    resolve_node(scn, node)?;
                }
                ScenarioEvent::WithdrawBurst { provider, .. }
                | ScenarioEvent::ChurnBurst { provider, .. } => {
                    resolve_provider(scn, provider)?;
                }
                ScenarioEvent::CrashReplica { replica, .. }
                | ScenarioEvent::CrashController { replica, .. }
                | ScenarioEvent::RestartController { replica, .. } => {
                    // Legacy builds have no replicas and ignore these
                    // events; a supercharged build must have the named
                    // replica.
                    if !scn.controllers.is_empty() && replica >= scn.controllers.len() {
                        return Err(format!(
                            "controller {replica} out of range ({} replicas)",
                            scn.controllers.len()
                        ));
                    }
                }
                ScenarioEvent::SetLinkFaults {
                    link, at, until, ..
                } => {
                    // A fault window on a controller link a legacy
                    // build lacks is a no-op, like the replica events.
                    if !matches!(link, LinkRef::ControllerSwitch(_)) || !scn.controllers.is_empty()
                    {
                        resolve_link(scn, link)?;
                    }
                    if until <= at {
                        return Err(format!("set_link_faults heals at {until} ≤ onset {at}"));
                    }
                }
                ScenarioEvent::Partition { a, b, at, heal } => {
                    resolve_pair_links(scn, a, b)?;
                    if heal <= at {
                        return Err(format!("partition heals at {heal} ≤ onset {at}"));
                    }
                }
                ScenarioEvent::DropFlowMods { .. } => {}
            }
        }
        Ok(())
    }

    /// Compile the schedule into world control events, origin at `t0`.
    /// Panics on unresolvable targets — run [`EventScript::validate`]
    /// when the script/topology pairing is not statically known.
    pub fn apply(&self, scn: &mut BuiltScenario, t0: SimTime) {
        for ev in &self.events {
            match *ev {
                ScenarioEvent::LinkDown { link, at } => {
                    let l = resolve_link(scn, link).unwrap();
                    scn.world
                        .schedule(t0 + at, move |w| w.set_link_up(l, false));
                }
                ScenarioEvent::LinkUp { link, at } => {
                    let l = resolve_link(scn, link).unwrap();
                    scn.world.schedule(t0 + at, move |w| w.set_link_up(l, true));
                }
                ScenarioEvent::LinkFlap {
                    link,
                    at,
                    period,
                    cycles,
                } => {
                    let l = resolve_link(scn, link).unwrap();
                    for c in 0..cycles as u64 {
                        let down_at = t0 + at + period * c;
                        scn.world
                            .schedule(down_at, move |w| w.set_link_up(l, false));
                        scn.world
                            .schedule(down_at + period / 2, move |w| w.set_link_up(l, true));
                    }
                }
                ScenarioEvent::NodeCrash { node, at } => {
                    let n = resolve_node(scn, node).unwrap();
                    scn.world.schedule(t0 + at, move |w| w.crash_node(n));
                }
                ScenarioEvent::WithdrawBurst {
                    provider,
                    at,
                    count,
                } => {
                    let i = resolve_provider(scn, provider).unwrap();
                    let node = scn.providers[i];
                    let updates = Rc::new([withdraw_of(&scn.universe, count)]);
                    schedule_injection(scn, node, t0 + at, updates);
                }
                ScenarioEvent::ChurnBurst {
                    provider,
                    at,
                    count,
                    cycles,
                    period,
                } => {
                    let i = resolve_provider(scn, provider).unwrap();
                    let node = scn.providers[i];
                    // Built once: every cycle injects the same two
                    // message lists, so the cycles share them.
                    let withdraw = withdraw_of(&scn.universe, count);
                    let targets: std::collections::BTreeSet<Ipv4Prefix> =
                        withdraw.withdrawn.iter().copied().collect();
                    let withdraw: Rc<[UpdateMsg]> = Rc::new([withdraw]);
                    let reannounce: Rc<[UpdateMsg]> = scn
                        .provider_feed(i)
                        .iter()
                        .filter_map(|u| {
                            let nlri: Vec<Ipv4Prefix> = u
                                .nlri
                                .iter()
                                .copied()
                                .filter(|p| targets.contains(p))
                                .collect();
                            (!nlri.is_empty()).then(|| UpdateMsg {
                                withdrawn: Vec::new(),
                                attrs: u.attrs.clone(),
                                nlri,
                            })
                        })
                        .collect();
                    for c in 0..cycles as u64 {
                        let w_at = t0 + at + period * c;
                        schedule_injection(scn, node, w_at, withdraw.clone());
                        schedule_injection(scn, node, w_at + period / 2, reannounce.clone());
                    }
                }
                ScenarioEvent::CrashReplica { replica, at } => {
                    // Legacy builds have no replicas: the event is a
                    // no-op so one script drives both comparison modes.
                    if let Some(&n) = scn.controllers.get(replica) {
                        scn.world.schedule(t0 + at, move |w| w.crash_node(n));
                    }
                }
                ScenarioEvent::SetLinkFaults {
                    link,
                    at,
                    loss_ppm,
                    corrupt_ppm,
                    until,
                } => {
                    // Controller-link faults no-op in legacy builds,
                    // like the replica events, so one chaos script
                    // drives both comparison modes.
                    let l = match link {
                        LinkRef::ControllerSwitch(_) if scn.controllers.is_empty() => continue,
                        _ => resolve_link(scn, link).unwrap(),
                    };
                    // Heal back to the *apply-time* parameters, which
                    // include builder-level overrides.
                    let orig = scn.world.link_params(l);
                    scn.world.schedule(t0 + at, move |w| {
                        let mut p = w.link_params(l);
                        p.loss = loss_ppm as f64 / 1e6;
                        p.corrupt = corrupt_ppm as f64 / 1e6;
                        w.set_link_params(l, p);
                    });
                    scn.world
                        .schedule(t0 + until, move |w| w.set_link_params(l, orig));
                }
                ScenarioEvent::Partition { a, b, at, heal } => {
                    for l in resolve_pair_links(scn, a, b).unwrap() {
                        scn.world
                            .schedule(t0 + at, move |w| w.set_link_up(l, false));
                        scn.world
                            .schedule(t0 + heal, move |w| w.set_link_up(l, true));
                    }
                }
                ScenarioEvent::CrashController { replica, at } => {
                    if let Some(&n) = scn.controllers.get(replica) {
                        scn.world.schedule(t0 + at, move |w| w.crash_node(n));
                    }
                }
                ScenarioEvent::RestartController { replica, at } => {
                    // Needs a replica slot and its restart factory;
                    // no-op otherwise (legacy).
                    if let (Some(&n), Some(cfg)) = (
                        scn.controllers.get(replica),
                        scn.controller_cfgs.get(replica).cloned(),
                    ) {
                        scn.world.schedule(t0 + at, move |w| {
                            if !w.is_alive(n) {
                                w.restart_node(
                                    n,
                                    supercharger::Controller::new(cfg, sc_sim::PortId(0)),
                                );
                            }
                        });
                    }
                }
                ScenarioEvent::DropFlowMods { count, at } => {
                    let sw = scn.switch;
                    scn.world.schedule(t0 + at, move |w| {
                        w.node_mut::<sc_openflow::OfSwitch>(sw)
                            .set_drop_flowmods(count);
                    });
                }
            }
        }
    }
}

pub(crate) fn resolve_provider(scn: &BuiltScenario, sel: ProviderSel) -> Result<usize, String> {
    let m = scn.providers.len();
    let idx = match sel {
        ProviderSel::Primary => 0,
        ProviderSel::Rank(r) => r,
    };
    if idx < m {
        Ok(idx)
    } else {
        Err(format!("provider {idx} out of range ({m} providers)"))
    }
}

pub(crate) fn resolve_link(scn: &BuiltScenario, link: LinkRef) -> Result<LinkId, String> {
    match link {
        LinkRef::ProviderSwitch(sel) => Ok(scn.provider_switch_links[resolve_provider(scn, sel)?]),
        LinkRef::ProviderPath(sel) => Ok(scn.provider_path_links[resolve_provider(scn, sel)?]),
        LinkRef::ForwarderUplink(j) => scn
            .forwarder_up_links
            .get(j)
            .copied()
            .ok_or_else(|| format!("forwarder {j} out of range")),
        LinkRef::ControllerSwitch(c) => scn
            .controller_links
            .get(c)
            .copied()
            .ok_or_else(|| format!("controller {c} out of range")),
    }
}

/// Every wired link between two partitionable endpoints. Controller
/// endpoints a legacy build lacks resolve to the empty set (the
/// partition no-ops); a pair the topology never wires is an error.
pub(crate) fn resolve_pair_links(
    scn: &BuiltScenario,
    a: NodeRef,
    b: NodeRef,
) -> Result<Vec<LinkId>, String> {
    use NodeRef::{Controller, Forwarder, Provider, Switch};
    match (a, b) {
        (Switch, Provider(sel)) | (Provider(sel), Switch) => {
            Ok(vec![scn.provider_switch_links[resolve_provider(scn, sel)?]])
        }
        (Switch, Controller(c)) | (Controller(c), Switch) => {
            if !scn.controllers.is_empty() && c >= scn.controllers.len() {
                return Err(format!(
                    "controller {c} out of range ({} replicas)",
                    scn.controllers.len()
                ));
            }
            Ok(scn.controller_links.get(c).copied().into_iter().collect())
        }
        (Provider(sel), Forwarder(j)) | (Forwarder(j), Provider(sel)) => {
            let i = resolve_provider(scn, sel)?;
            if scn.blueprint.providers[i].entry() == Some(j) {
                Ok(vec![scn.provider_path_links[i]])
            } else {
                Err(format!("provider {i} has no link to forwarder {j}"))
            }
        }
        (Forwarder(j), Forwarder(k)) => {
            let mut v = Vec::new();
            if scn.blueprint.forwarders.get(j).and_then(|f| f.next) == Some(k) {
                v.push(scn.forwarder_up_links[j]);
            }
            if scn.blueprint.forwarders.get(k).and_then(|f| f.next) == Some(j) {
                v.push(scn.forwarder_up_links[k]);
            }
            if v.is_empty() {
                Err(format!("no wired link between forwarders {j} and {k}"))
            } else {
                Ok(v)
            }
        }
        _ => Err(format!("no partitionable link between {a:?} and {b:?}")),
    }
}

fn resolve_node(scn: &BuiltScenario, node: NodeRef) -> Result<NodeId, String> {
    match node {
        NodeRef::Provider(sel) => Ok(scn.providers[resolve_provider(scn, sel)?]),
        NodeRef::Forwarder(j) => scn
            .forwarders
            .get(j)
            .copied()
            .ok_or_else(|| format!("forwarder {j} out of range")),
        NodeRef::Controller(c) => scn
            .controllers
            .get(c)
            .copied()
            .ok_or_else(|| format!("controller {c} out of range")),
        NodeRef::Switch => Ok(scn.switch),
    }
}

fn withdraw_of(universe: &[Ipv4Prefix], count: u32) -> UpdateMsg {
    UpdateMsg {
        withdrawn: universe.iter().take(count as usize).copied().collect(),
        attrs: None,
        nlri: Vec::new(),
    }
}

/// Schedule a runtime UPDATE injection on a provider router and wake
/// its sessions so the messages leave immediately. The event holds
/// `updates` by reference count, so a script that injects one list many
/// times stores it once.
fn schedule_injection(
    scn: &mut BuiltScenario,
    node: NodeId,
    at: SimTime,
    updates: Rc<[UpdateMsg]>,
) {
    scn.world.schedule(at, move |w| {
        let tokens = w.node_mut::<LegacyRouter>(node).inject_updates(&updates);
        let now = w.now();
        for tok in tokens {
            w.wake_node(now, node, tok);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn chaos_is_a_pure_function_of_seed() {
        assert_eq!(EventScript::chaos(42), EventScript::chaos(42));
        assert_ne!(EventScript::chaos(42), EventScript::chaos(43));
        // The measured convergence event (primary cut at the origin) is
        // always present regardless of seed.
        for seed in 0..16u64 {
            let s = EventScript::chaos(seed);
            assert!(s.events.iter().any(|e| matches!(
                e,
                ScenarioEvent::LinkDown {
                    link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                    at,
                } if *at == SimDuration::ZERO
            )));
        }
    }

    #[test]
    fn epochs_one_per_failure_onset() {
        assert_eq!(EventScript::primary_cut().epochs(), vec![SimDuration::ZERO]);
        assert_eq!(
            EventScript::primary_flap(ms(200), 3).epochs(),
            vec![SimDuration::ZERO, ms(200), ms(400)],
            "one epoch per flap cycle"
        );
        assert_eq!(
            EventScript::primary_session_reset(ms(150)).epochs(),
            vec![SimDuration::ZERO],
            "a reset is one down->up cycle"
        );
        assert_eq!(
            EventScript::primary_session_reset(ms(150)).events[0].end(),
            ms(150),
            "the carrier returns after the outage"
        );
        let churn = EventScript::new(
            "c",
            vec![ScenarioEvent::ChurnBurst {
                provider: ProviderSel::Primary,
                at: ms(10),
                count: 5,
                cycles: 2,
                period: ms(100),
            }],
        );
        assert_eq!(churn.epochs(), vec![ms(10), ms(110)]);
        // Restorations are not onsets; a script with none measures a
        // single window at the origin.
        let up_only = EventScript::new(
            "up",
            vec![ScenarioEvent::LinkUp {
                link: LinkRef::ForwarderUplink(0),
                at: ms(5),
            }],
        );
        assert_eq!(up_only.epochs(), vec![SimDuration::ZERO]);
        // Concurrent onsets from different events merge and dedupe.
        let double = EventScript::new(
            "d",
            vec![
                ScenarioEvent::LinkDown {
                    link: LinkRef::ProviderSwitch(ProviderSel::Primary),
                    at: SimDuration::ZERO,
                },
                ScenarioEvent::NodeCrash {
                    node: NodeRef::Provider(ProviderSel::Rank(1)),
                    at: SimDuration::ZERO,
                },
                ScenarioEvent::WithdrawBurst {
                    provider: ProviderSel::Primary,
                    at: ms(50),
                    count: 3,
                },
            ],
        );
        assert_eq!(double.epochs(), vec![SimDuration::ZERO, ms(50)]);
        // Replica events perturb a failover already in progress; they
        // are not onsets, so the probe scripts measure one window (the
        // primary cut at the origin).
        assert_eq!(
            EventScript::replica_crash(1, ms(2)).epochs(),
            vec![SimDuration::ZERO]
        );
        // Chaos onsets: link faults, partitions and controller crashes
        // are degradations (epochs); restarts and flow-mod drops are
        // not.
        let havoc = EventScript::new(
            "h",
            vec![
                ScenarioEvent::SetLinkFaults {
                    link: LinkRef::ControllerSwitch(0),
                    at: ms(3),
                    loss_ppm: 1,
                    corrupt_ppm: 0,
                    until: ms(9),
                },
                ScenarioEvent::Partition {
                    a: NodeRef::Switch,
                    b: NodeRef::Controller(0),
                    at: ms(3),
                    heal: ms(7),
                },
                ScenarioEvent::CrashController {
                    replica: 0,
                    at: ms(5),
                },
                ScenarioEvent::RestartController {
                    replica: 0,
                    at: ms(20),
                },
                ScenarioEvent::DropFlowMods {
                    count: 2,
                    at: ms(1),
                },
            ],
        );
        assert_eq!(havoc.epochs(), vec![ms(3), ms(5)], "merged + deduped");
        assert_eq!(havoc.end(), ms(20), "restart is the last touch");
    }

    #[test]
    fn script_end_covers_flaps_and_churn() {
        assert_eq!(EventScript::primary_cut().end(), SimDuration::ZERO);
        assert_eq!(
            EventScript::primary_flap(ms(200), 3).end(),
            ms(200) * 2 + ms(100)
        );
        let churn = EventScript::new(
            "c",
            vec![ScenarioEvent::ChurnBurst {
                provider: ProviderSel::Primary,
                at: ms(10),
                count: 5,
                cycles: 2,
                period: ms(100),
            }],
        );
        assert_eq!(churn.end(), ms(10) + ms(100) + ms(50));
    }
}
