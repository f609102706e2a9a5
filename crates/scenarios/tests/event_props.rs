//! Property tests over the event-script algebra: for *arbitrary* mixes
//! of scenario events — including the chaos variants — `epochs()` is
//! strictly sorted and deduplicated, every epoch is some event's onset,
//! and `end()` dominates every epoch. The measurement windower slices
//! the run at these instants, so a duplicate or out-of-order epoch
//! would silently corrupt per-cycle stats.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_net::SimDuration;
use sc_scenarios::{EventScript, LinkRef, NodeRef, ProviderSel, ScenarioEvent};

fn arb_dur() -> impl Strategy<Value = SimDuration> {
    (0u64..2_000_000).prop_map(SimDuration::from_micros)
}

fn arb_sel() -> impl Strategy<Value = ProviderSel> {
    prop_oneof![
        Just(ProviderSel::Primary),
        (0usize..4).prop_map(ProviderSel::Rank),
    ]
}

fn arb_link() -> impl Strategy<Value = LinkRef> {
    prop_oneof![
        arb_sel().prop_map(LinkRef::ProviderSwitch),
        arb_sel().prop_map(LinkRef::ProviderPath),
        (0usize..4).prop_map(LinkRef::ForwarderUplink),
        (0usize..3).prop_map(LinkRef::ControllerSwitch),
    ]
}

fn arb_node() -> impl Strategy<Value = NodeRef> {
    prop_oneof![
        arb_sel().prop_map(NodeRef::Provider),
        (0usize..4).prop_map(NodeRef::Forwarder),
        (0usize..3).prop_map(NodeRef::Controller),
        Just(NodeRef::Switch),
    ]
}

fn arb_event() -> impl Strategy<Value = ScenarioEvent> {
    prop_oneof![
        (arb_link(), arb_dur()).prop_map(|(link, at)| ScenarioEvent::LinkDown { link, at }),
        (arb_link(), arb_dur()).prop_map(|(link, at)| ScenarioEvent::LinkUp { link, at }),
        (arb_link(), arb_dur(), arb_dur(), 1u32..4).prop_map(|(link, at, period, cycles)| {
            ScenarioEvent::LinkFlap {
                link,
                at,
                period,
                cycles,
            }
        }),
        (arb_node(), arb_dur()).prop_map(|(node, at)| ScenarioEvent::NodeCrash { node, at }),
        (arb_sel(), arb_dur(), 1u32..50).prop_map(|(provider, at, count)| {
            ScenarioEvent::WithdrawBurst {
                provider,
                at,
                count,
            }
        }),
        (arb_sel(), arb_dur(), 1u32..50, 1u32..4, arb_dur()).prop_map(
            |(provider, at, count, cycles, period)| ScenarioEvent::ChurnBurst {
                provider,
                at,
                count,
                cycles,
                period,
            }
        ),
        (0usize..3, arb_dur())
            .prop_map(|(replica, at)| ScenarioEvent::CrashReplica { replica, at }),
        (
            arb_link(),
            arb_dur(),
            0u32..=1_000_000,
            0u32..=1_000_000,
            arb_dur()
        )
            .prop_map(|(link, at, loss_ppm, corrupt_ppm, extra)| {
                ScenarioEvent::SetLinkFaults {
                    link,
                    at,
                    loss_ppm,
                    corrupt_ppm,
                    until: at + extra + SimDuration::from_micros(1),
                }
            }),
        (arb_node(), arb_node(), arb_dur(), arb_dur()).prop_map(|(a, b, at, extra)| {
            ScenarioEvent::Partition {
                a,
                b,
                at,
                heal: at + extra + SimDuration::from_micros(1),
            }
        }),
        (0usize..3, arb_dur())
            .prop_map(|(replica, at)| ScenarioEvent::CrashController { replica, at }),
        (0usize..3, arb_dur())
            .prop_map(|(replica, at)| ScenarioEvent::RestartController { replica, at }),
        (1u32..8, arb_dur()).prop_map(|(count, at)| ScenarioEvent::DropFlowMods { count, at }),
    ]
}

proptest! {
    /// For any mix of events, the epoch list is strictly increasing
    /// (sorted AND deduplicated), bounded by `end()`, and non-empty.
    #[test]
    fn epochs_sorted_deduped_bounded(events in vec(arb_event(), 0..24)) {
        let script = EventScript::new("prop", events);
        let epochs = script.epochs();
        prop_assert!(!epochs.is_empty(), "windower needs at least one window");
        for pair in epochs.windows(2) {
            prop_assert!(pair[0] < pair[1], "epochs must be strictly sorted: {epochs:?}");
        }
        let end = script.end();
        for e in &epochs {
            prop_assert!(*e <= end || (script.events.is_empty() && *e == SimDuration::ZERO),
                "epoch {e:?} past end {end:?}");
        }
    }
}
