//! Property tests for the loop-detecting FIB walker: over arbitrary
//! random forwarding graphs (drops, delivery, multi-way forwarding,
//! arbitrary cycles), the walk always terminates within its state
//! bound, its report is a pure function of the graph, and the
//! loop/blackhole classification matches ground truth on graphs where
//! ground truth is known (ascending-edge DAGs cannot loop).

use proptest::collection::vec;
use proptest::prelude::*;
use sc_invariant::{classify, walk, ForwardingView, Hop, Step, ViolationClass, WalkReport};
use sc_invariant::{DropReason, MAX_WALK_STATES};
use sc_net::MacAddr;
use sc_sim::{NodeId, PortId};
use std::net::Ipv4Addr;

/// One node's forwarding behaviour in a generated graph.
#[derive(Clone, Debug, PartialEq, Eq)]
enum NodeRule {
    Deliver,
    Drop,
    Forward(Vec<usize>),
}

/// A generated forwarding graph: node `i` behaves per `rules[i]`.
#[derive(Clone, Debug)]
struct GraphView {
    rules: Vec<NodeRule>,
}

fn hop(node: usize) -> Hop {
    Hop {
        node: NodeId(node),
        in_port: PortId(0),
        src_mac: MacAddr::from_octets([0; 6]),
        dst_mac: MacAddr::from_octets([1; 6]),
    }
}

impl ForwardingView for GraphView {
    fn step(&self, h: &Hop, _dst: Ipv4Addr) -> Step {
        match self.rules.get(h.node.0) {
            Some(NodeRule::Deliver) => Step::Deliver,
            Some(NodeRule::Drop) => Step::Drop(DropReason::NoRoute),
            Some(NodeRule::Forward(targets)) => {
                Step::Forward(targets.iter().map(|&t| hop(t)).collect())
            }
            None => Step::Drop(DropReason::NotForwarding),
        }
    }
}

const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

/// Random graphs of 2..=16 nodes. The vendored proptest has no
/// `prop_flat_map`, so node count and edge targets are drawn
/// independently and targets reduced modulo the node count — every
/// graph shape (cycles included) is still reachable.
fn arb_graph() -> impl Strategy<Value = GraphView> {
    vec((0u8..=3, vec(any::<u8>(), 0..4)), 2..=16).prop_map(|raw| {
        let n = raw.len();
        let rules = raw
            .into_iter()
            .map(|(kind, targets)| match kind {
                0 => NodeRule::Deliver,
                1 => NodeRule::Drop,
                // Forward twice as likely as the terminals: interesting
                // walks need edges.
                _ => NodeRule::Forward(targets.into_iter().map(|t| t as usize % n).collect()),
            })
            .collect();
        GraphView { rules }
    })
}

/// The same raw graph with every edge forced ascending (node `i` only
/// forwards to nodes `> i`): a DAG by construction, so the walker must
/// never call it a loop.
fn ascending(g: &GraphView) -> GraphView {
    let n = g.rules.len();
    let rules = g
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| match r {
            NodeRule::Forward(targets) if i + 1 < n => {
                NodeRule::Forward(targets.iter().map(|&t| i + 1 + t % (n - i - 1)).collect())
            }
            NodeRule::Forward(_) => NodeRule::Drop,
            other => other.clone(),
        })
        .collect();
    GraphView { rules }
}

proptest! {
    #[test]
    fn walk_terminates_within_the_state_bound(g in arb_graph()) {
        // The walk state here varies only in the node (ports and MACs
        // are fixed), so a terminating walk can visit at most one state
        // per node and never hits the cap.
        let r = walk(&g, hop(0), DST, MAX_WALK_STATES);
        prop_assert!(!r.truncated);
        prop_assert!(r.visited.len() <= g.rules.len());
    }

    #[test]
    fn report_is_a_pure_function_of_the_graph(g in arb_graph()) {
        let a = walk(&g, hop(0), DST, MAX_WALK_STATES);
        let b = walk(&g, hop(0), DST, MAX_WALK_STATES);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn delivery_needs_a_reachable_deliver_rule(g in arb_graph()) {
        let r = walk(&g, hop(0), DST, MAX_WALK_STATES);
        if r.delivered {
            prop_assert!(
                r.visited
                    .iter()
                    .any(|n| g.rules[n.0] == NodeRule::Deliver),
                "a delivering walk must have crossed a Deliver node"
            );
        }
        // Classification is total and consistent with delivery: a
        // delivered walk with no transit ban is no violation; an
        // undelivered one is always some violation.
        match classify(&r, false) {
            None => prop_assert!(r.delivered),
            Some(ViolationClass::Loop) => prop_assert!(r.looped || r.truncated),
            Some(ViolationClass::Blackhole) => prop_assert!(!r.delivered),
            Some(ViolationClass::Transit) => prop_assert!(false, "no ban was in force"),
        }
    }

    #[test]
    fn ascending_dags_never_loop(g in arb_graph()) {
        let dag = ascending(&g);
        let r = walk(&dag, hop(0), DST, MAX_WALK_STATES);
        prop_assert!(!r.looped, "DAG misclassified as a loop: {r:?}");
        prop_assert!(!r.truncated);
    }

    #[test]
    fn self_loops_are_always_caught(g in arb_graph(), node_raw in any::<u8>()) {
        // Splice a self-edge into an arbitrary graph and route the walk
        // through it: the walker must flag a loop whenever the walk
        // reaches the spliced node.
        let mut g = g;
        let n = g.rules.len();
        let node = node_raw as usize % n;
        g.rules[node] = NodeRule::Forward(vec![node]);
        let r = walk(&g, hop(node), DST, MAX_WALK_STATES);
        prop_assert!(r.looped);
        prop_assert_eq!(classify(&r, false), Some(ViolationClass::Loop));
    }
}

/// Non-proptest regression: an unreferenced `WalkReport` default is the
/// undelivered/blackhole shape `WorldView::walk_flow` returns when the
/// source uplink itself is dark.
#[test]
fn default_report_classifies_as_blackhole() {
    let r = WalkReport::default();
    assert_eq!(classify(&r, false), Some(ViolationClass::Blackhole));
}
