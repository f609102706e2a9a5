//! Scheduler equivalence over the scenario engine: for random
//! topologies, seeds and modes, a trial run on the default `TimerWheel`
//! must produce a stable report byte-identical to the `ReferenceHeap`
//! oracle. Event keys are a pure function of the emitting state machine
//! (origin-tagged sequence numbers), so not even the kernel event count
//! may move — the queue decides how fast the next event is found, never
//! which event it is.

use proptest::prelude::*;
use sc_lab::Mode;
use sc_scenarios::{run_scenario, EventScript, ScenarioConfig, SuiteReport, TopologySpec};
use sc_sim::SchedulerKind;

fn tiny(seed: u64, scheduler: SchedulerKind) -> ScenarioConfig {
    ScenarioConfig {
        prefixes: 120,
        flows: 4,
        seed,
        scheduler,
        ..ScenarioConfig::default()
    }
}

/// One trial, rendered as its byte-reproducible stable JSON row plus
/// the kernel event count.
fn stable_row(topo: &TopologySpec, mode: Mode, cfg: &ScenarioConfig) -> String {
    let out = run_scenario(topo, &EventScript::primary_cut(), mode, cfg);
    format!(
        "{} events={}",
        SuiteReport::row_json_stable(&out),
        out.events_processed
    )
}

fn arb_topo() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (2usize..4, 1usize..3)
            .prop_map(|(providers, hops)| TopologySpec::Chain { providers, hops }),
        (3usize..6).prop_map(|peers| TopologySpec::IxpHub { peers }),
        (1usize..3).prop_map(|half| TopologySpec::FatTreePod { k: half * 2 }),
        (0u64..1_000).prop_map(|seed| TopologySpec::Random { seed }),
    ]
}

proptest! {
    // Each case runs two full trials; keep the count modest — the
    // deterministic seed floor below pins the corners regardless.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hard determinism contract, property-tested: any topology ×
    /// seed × mode on the wheel matches the reference heap byte for
    /// byte.
    #[test]
    fn wheel_matches_reference_heap(
        topo in arb_topo(),
        seed in 1u64..1_000,
        supercharged in any::<bool>(),
    ) {
        let mode = if supercharged { Mode::Supercharged } else { Mode::Stock };
        let wheel = stable_row(&topo, mode, &tiny(seed, SchedulerKind::TimerWheel));
        let heap = stable_row(&topo, mode, &tiny(seed, SchedulerKind::ReferenceHeap));
        prop_assert_eq!(wheel, heap, "{topo:?} seed={seed}");
    }
}

/// The named corners — chain, fat-tree pod, IXP hub — pinned outside
/// proptest so a regression names the exact shape.
#[test]
fn named_topologies_are_scheduler_invariant() {
    for topo in [
        TopologySpec::Chain {
            providers: 2,
            hops: 2,
        },
        TopologySpec::FatTreePod { k: 4 },
        TopologySpec::IxpHub { peers: 4 },
    ] {
        let heap = stable_row(
            &topo,
            Mode::Supercharged,
            &tiny(11, SchedulerKind::ReferenceHeap),
        );
        let wheel = stable_row(
            &topo,
            Mode::Supercharged,
            &tiny(11, SchedulerKind::TimerWheel),
        );
        assert_eq!(wheel, heap, "{topo:?}");
    }
}
