//! The pure walk core: given an abstract forwarding function (one hop
//! in, next hops out), trace every path a probe frame can take and
//! report whether it delivers, dead-ends, or cycles.
//!
//! The walker is deliberately independent of the simulator: a
//! [`ForwardingView`] can be backed by a live [`sc_sim::World`] (see
//! [`crate::view::WorldView`]) or by a plain map in tests, so loop
//! detection and classification are property-testable as pure functions
//! of the FIB state.

use sc_net::MacAddr;
// Deterministic hasher, not std's randomly seeded SipHash: the walker
// runs inside byte-reproducible trials (clippy `disallowed_types`).
use sc_net::FxHashMap;
use sc_sim::{NodeId, PortId};
use std::net::Ipv4Addr;

/// One L2 arrival: a probe for `dst` lands on `node` via `in_port`,
/// addressed `src_mac` → `dst_mac`. This quadruple is the walk state —
/// everything a deterministic forwarding pipeline may branch on for a
/// fixed probe header (the IP/UDP fields never change in flight).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Hop {
    pub node: NodeId,
    pub in_port: PortId,
    pub src_mac: MacAddr,
    pub dst_mac: MacAddr,
}

/// Why a walk branch died at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// FIB longest-prefix match came up empty.
    NoRoute,
    /// A next-hop with no interface whose subnet covers it.
    NoInterface,
    /// The next-hop's L2 address is not resolved (the live router would
    /// park the frame — a blackhole for as long as ARP dangles).
    ArpUnresolved,
    /// The NIC filter rejected the frame (wrong destination MAC).
    NicFilter,
    /// An explicit drop action, an L2 table pointing back out the
    /// ingress port, or a matched rule that sends to no port.
    Dropped,
    /// The frame reached a node that does not forward (controller,
    /// traffic source).
    NotForwarding,
}

/// What one node does with an arriving probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// The destination: the walk delivered.
    Deliver,
    /// The frame dies here.
    Drop(DropReason),
    /// The frame continues — possibly to several next hops (flood,
    /// multi-output rules). Branches whose egress link is down or whose
    /// peer is dead are already filtered out; an empty list means every
    /// egress was dark.
    Forward(Vec<Hop>),
}

/// A forwarding function the walker can trace.
pub trait ForwardingView {
    /// Resolve one hop for a probe addressed to `dst`.
    fn step(&self, hop: &Hop, dst: Ipv4Addr) -> Step;
}

/// The outcome of tracing every branch from one start hop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkReport {
    /// Some branch reached the destination.
    pub delivered: bool,
    /// Some branch re-entered a hop state already on its own path — a
    /// forwarding cycle.
    pub looped: bool,
    /// The walk hit the state-expansion cap before finishing (treated
    /// as a loop by classification — only unbounded replication gets
    /// there).
    pub truncated: bool,
    /// Every node some branch traversed, in first-visit order.
    pub visited: Vec<NodeId>,
    /// Where branches died, with the reason.
    pub drops: Vec<(NodeId, DropReason)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Color {
    /// On the current DFS path.
    Grey,
    /// Fully explored.
    Black,
}

enum Task {
    Enter(Hop),
    Exit(Hop),
}

/// Trace every branch from `start`. Iterative depth-first search with
/// tri-color marking: a grey re-entry is a genuine cycle (the state is
/// on the current path), a black re-entry is a join (flood diamonds)
/// and is not re-expanded, so the walk is linear in distinct hop
/// states and always terminates. `max_states` bounds expansions as a
/// final backstop.
pub fn walk<V: ForwardingView + ?Sized>(
    view: &V,
    start: Hop,
    dst: Ipv4Addr,
    max_states: usize,
) -> WalkReport {
    let mut report = WalkReport::default();
    let mut color: FxHashMap<Hop, Color> = FxHashMap::default();
    let mut stack = vec![Task::Enter(start)];
    let mut expanded = 0usize;
    while let Some(task) = stack.pop() {
        match task {
            Task::Enter(h) => match color.get(&h) {
                Some(Color::Grey) => report.looped = true,
                Some(Color::Black) => {}
                None => {
                    if expanded >= max_states {
                        report.truncated = true;
                        continue;
                    }
                    expanded += 1;
                    color.insert(h, Color::Grey);
                    stack.push(Task::Exit(h));
                    if !report.visited.contains(&h.node) {
                        report.visited.push(h.node);
                    }
                    match view.step(&h, dst) {
                        Step::Deliver => report.delivered = true,
                        Step::Drop(r) => report.drops.push((h.node, r)),
                        Step::Forward(next) => {
                            for n in next {
                                stack.push(Task::Enter(n));
                            }
                        }
                    }
                }
            },
            Task::Exit(h) => {
                color.insert(h, Color::Black);
            }
        }
    }
    report
}

/// Default state-expansion cap: far beyond any realistic topology, but
/// finite, so a pathological view cannot hang a sample.
pub const MAX_WALK_STATES: usize = 65_536;

#[cfg(test)]
mod tests {
    use super::*;

    /// A map-backed view for tests: hop → step.
    pub struct MapView(pub FxHashMap<Hop, Step>);

    impl ForwardingView for MapView {
        fn step(&self, hop: &Hop, _dst: Ipv4Addr) -> Step {
            self.0
                .get(hop)
                .cloned()
                .unwrap_or(Step::Drop(DropReason::NotForwarding))
        }
    }

    fn hop(node: usize) -> Hop {
        Hop {
            node: NodeId(node),
            in_port: PortId(0),
            src_mac: MacAddr::from_octets([0; 6]),
            dst_mac: MacAddr::from_octets([1; 6]),
        }
    }

    const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    #[test]
    fn linear_chain_delivers() {
        let mut m = FxHashMap::default();
        m.insert(hop(0), Step::Forward(vec![hop(1)]));
        m.insert(hop(1), Step::Forward(vec![hop(2)]));
        m.insert(hop(2), Step::Deliver);
        let r = walk(&MapView(m), hop(0), DST, MAX_WALK_STATES);
        assert!(r.delivered && !r.looped && !r.truncated);
        assert_eq!(r.visited, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn two_node_cycle_is_a_loop() {
        let mut m = FxHashMap::default();
        m.insert(hop(0), Step::Forward(vec![hop(1)]));
        m.insert(hop(1), Step::Forward(vec![hop(0)]));
        let r = walk(&MapView(m), hop(0), DST, MAX_WALK_STATES);
        assert!(r.looped && !r.delivered);
    }

    #[test]
    fn diamond_join_is_not_a_loop() {
        // 0 → {1, 2} → 3 → deliver: node 3 is entered twice via
        // different paths, which must read as a join, not a cycle.
        let mut m = FxHashMap::default();
        let (h1, h2) = (hop(1), hop(2));
        m.insert(hop(0), Step::Forward(vec![h1, h2]));
        m.insert(h1, Step::Forward(vec![hop(3)]));
        m.insert(h2, Step::Forward(vec![hop(3)]));
        m.insert(hop(3), Step::Deliver);
        let r = walk(&MapView(m), hop(0), DST, MAX_WALK_STATES);
        assert!(r.delivered && !r.looped);
    }

    #[test]
    fn one_live_flood_branch_suffices() {
        let mut m = FxHashMap::default();
        m.insert(hop(0), Step::Forward(vec![hop(1), hop(2)]));
        m.insert(hop(1), Step::Drop(DropReason::NoRoute));
        m.insert(hop(2), Step::Deliver);
        let r = walk(&MapView(m), hop(0), DST, MAX_WALK_STATES);
        assert!(r.delivered);
        assert_eq!(r.drops, vec![(NodeId(1), DropReason::NoRoute)]);
    }

    #[test]
    fn state_cap_truncates_instead_of_hanging() {
        // A self-amplifying view (every hop forwards to two
        // never-seen-before states) can only be stopped by the cap.
        struct Amplifier(std::cell::Cell<usize>);
        impl ForwardingView for Amplifier {
            fn step(&self, hop: &Hop, _dst: Ipv4Addr) -> Step {
                let fresh = self.0.get();
                self.0.set(fresh + 2);
                Step::Forward(vec![
                    Hop {
                        node: NodeId(fresh + 1),
                        ..*hop
                    },
                    Hop {
                        node: NodeId(fresh + 2),
                        ..*hop
                    },
                ])
            }
        }
        let r = walk(&Amplifier(std::cell::Cell::new(0)), hop(0), DST, 100);
        assert!(r.truncated && !r.delivered);
    }
}
