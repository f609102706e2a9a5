//! Property tests for the flight-recorder ring: whatever the capacity,
//! the retained window is the *last* `capacity` records of the total
//! order — eviction is a pure function of the stream.

use proptest::prelude::*;
use sc_net::SimTime;
use sc_sim::{NodeId, Trace, TracePhase};

/// A synthetic event stream: strictly ordered `(time, cause)` dispatch
/// keys, each dispatch emitting 1..=3 records (exercising `sub`
/// numbering).
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64, usize)>> {
    proptest::collection::vec((1u64..50, 0u64..8, 1usize..4), 0..120).prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(dt, cause, n)| {
                t += dt;
                (t, cause, n)
            })
            .collect()
    })
}

fn record_serial(stream: &[(u64, u64, usize)], capacity: usize) -> Trace {
    let mut trace = Trace::bounded(capacity);
    for &(t, cause, n) in stream {
        for i in 0..n {
            trace.emit(
                SimTime::from_nanos(t),
                cause,
                NodeId(0),
                TracePhase::Instant,
                "prop",
                "ev",
                cause,
                i as u64,
                String::new,
            );
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bounded rings keep exactly the newest `capacity` records of the
    /// full-capture order, with the recorded/dropped accounting exact.
    #[test]
    fn eviction_keeps_the_newest_suffix_in_total_order(
        stream in arb_stream(),
        capacity in 1usize..64,
    ) {
        let full = record_serial(&stream, usize::MAX);
        let bounded = record_serial(&stream, capacity);

        let all: Vec<_> = full.records().collect();
        let kept: Vec<_> = bounded.records().collect();
        let expect: Vec<_> = all
            .iter()
            .skip(all.len().saturating_sub(capacity))
            .collect();
        prop_assert_eq!(kept.len(), expect.len());
        for (k, e) in kept.iter().zip(expect.iter()) {
            prop_assert_eq!(k.key(), e.key());
        }
        // Total order within the ring: keys strictly increase.
        for w in kept.windows(2) {
            prop_assert!(w[0].key() < w[1].key(), "ring out of order");
        }
        prop_assert_eq!(bounded.recorded(), all.len() as u64);
        prop_assert_eq!(
            bounded.dropped(),
            all.len().saturating_sub(capacity) as u64
        );
    }
}
