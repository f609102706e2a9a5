//! The reusable measurement phases of a convergence experiment.
//!
//! The paper's §4 methodology — converge the control plane, stream
//! probe traffic, open the measurement window just before the failure,
//! run out the window, harvest per-flow maximum gaps — is independent
//! of *which* topology is under test and *what* failure is injected.
//! This module holds that machinery; the `sc-scenarios` runner drives
//! it for every topology, the Fig. 4 lab included.

use crate::topology::Mode;
use sc_net::{SimDuration, SimTime};
use sc_router::Calibration;
use sc_sim::{NodeId, TimerToken, World};
use sc_traffic::{TrafficSink, TrafficSource};

/// The expected convergence budget for sizing measurement windows
/// (`sc_scenarios::expected_budget` derives from it).
pub fn convergence_budget(
    mode: Mode,
    cal: &Calibration,
    prefixes: u32,
    control_loss: f64,
) -> SimDuration {
    match mode {
        Mode::Stock => {
            // detection + processing + full walk.
            SimDuration::from_millis(100) + cal.expected_full_walk(prefixes as u64)
        }
        // detection (≤3×interval) + reaction + install, padded; lossy
        // control links add retransmission rounds.
        Mode::Supercharged => {
            let base = SimDuration::from_millis(300);
            if control_loss > 0.0 {
                base + SimDuration::from_millis(700)
            } else {
                base
            }
        }
    }
}

/// One measurement window, covering one scripted failure epoch: gap
/// counters are re-armed at `t_open` (1 ms before the epoch's failure
/// fires at `t_fail`) and harvested at `t_close`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleWindow {
    /// Window opens (sink gap-state reset — the FPGA re-arm).
    pub t_open: SimTime,
    /// The epoch's failure-injection instant.
    pub t_fail: SimTime,
    /// Window closes (per-flow maxima harvested).
    pub t_close: SimTime,
}

/// The timing of one measurement: when probes start, when the failure
/// script fires (`t_fail`), and when the window closes — plus one
/// [`CycleWindow`] per scripted failure epoch, so repeated convergence
/// events (flaps, session resets, churn cycles) are each measured on
/// their own, not folded into a single "max gap anywhere" number.
#[derive(Clone, Debug)]
pub struct MeasurementPlan {
    /// Probe rate per flow actually used.
    pub rate_pps: u64,
    /// Traffic starts (after control-plane convergence).
    pub t_start: SimTime,
    /// The script origin `t0` (script event offsets are relative to it).
    pub t_origin: SimTime,
    /// The first failure onset (`t0 + epochs[0]`): the first measurement
    /// window opens 1 ms before this instant.
    pub t_fail: SimTime,
    /// End of the last measurement window.
    pub t_end: SimTime,
    /// One window per failure epoch, contiguous: each cycle closes where
    /// the next opens, and the last runs out the full horizon.
    pub cycles: Vec<CycleWindow>,
}

/// Lay out the phases after the control plane converged at `now`:
/// probes start 100 ms later and warm up for at least 20 inter-packet
/// gaps (so every flow has delivered before the cut), then the script
/// origin. `epochs` are the failure onsets of the script (offsets from
/// that origin, ascending — e.g. one per flap cycle; `[0]` is the
/// paper's single failure). Each epoch gets its own [`CycleWindow`];
/// cycle `i` closes exactly where cycle `i+1` opens, and the last cycle
/// runs for `horizon` past its onset.
pub fn plan_cycle_measurement(
    now: SimTime,
    rate_pps: u64,
    epochs: &[SimDuration],
    horizon: SimDuration,
) -> MeasurementPlan {
    assert!(!epochs.is_empty(), "at least one failure epoch required");
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "failure epochs must be strictly ascending"
    );
    let gap = SimDuration::from_nanos(1_000_000_000 / rate_pps.max(1));
    let t_start = now + SimDuration::from_millis(100);
    let warmup = (gap * 20).max(SimDuration::from_millis(200));
    let t0 = t_start + warmup;
    // The re-arm offset before each onset, shrunk to half the gap to
    // the *previous* onset when epochs are closer than 1 ms — windows
    // must stay ordered (open < fail <= close) and contiguous even for
    // sub-millisecond flap periods.
    let arm_before = |i: usize, off: SimDuration| -> SimDuration {
        let full = SimDuration::from_millis(1);
        match i.checked_sub(1).map(|p| epochs[p]) {
            Some(prev) => full.min((off - prev) / 2),
            None => full,
        }
    };
    let cycles: Vec<CycleWindow> = epochs
        .iter()
        .enumerate()
        .map(|(i, &off)| {
            let t_fail = t0 + off;
            let t_close = match epochs.get(i + 1) {
                Some(&next) => t0 + next - arm_before(i + 1, next),
                None => t_fail + horizon,
            };
            CycleWindow {
                t_open: t_fail - arm_before(i, off),
                t_fail,
                t_close,
            }
        })
        .collect();
    MeasurementPlan {
        rate_pps,
        t_start,
        t_origin: t0,
        t_fail: t0 + epochs[0],
        t_end: cycles.last().unwrap().t_close,
        cycles,
    }
}

/// Window the source, schedule its first tick, and schedule the sink's
/// first measurement-window reset 1 ms before the first failure (the
/// FPGA equivalent of arming the gap counters). Later cycles are
/// re-armed by [`run_cycles_and_harvest`] as it walks the windows.
pub fn arm_traffic(world: &mut World, source: NodeId, sink: NodeId, plan: &MeasurementPlan) {
    {
        let src = world.node_mut::<TrafficSource>(source);
        src.set_window(plan.t_start, plan.t_end + SimDuration::from_secs(5));
    }
    world.wake_node(plan.t_start, source, TimerToken(1));
    let sink_id = sink;
    let first_open = plan.cycles.first().map(|c| c.t_open).unwrap_or(plan.t_fail);
    world.schedule(first_open, move |w| {
        let now = w.now();
        w.node_mut::<TrafficSink>(sink_id).reset_window(now);
    });
}

/// A shared read-mostly observer invoked as `(world, window, at)` by
/// [`schedule_window_samples`].
pub type WindowSampler = std::rc::Rc<dyn Fn(&mut World, usize, SimTime)>;

/// Pre-schedule one sampler invocation every `cadence` inside each of
/// the plan's measurement windows: window `w` is sampled at `t_open`,
/// `t_open + cadence`, … strictly before `t_close`. Because every
/// sample is a kernel control event scheduled *before* the world runs,
/// the event stream — and therefore any report derived from it — stays
/// deterministic and byte-reproducible; the sampler must only read.
/// The invariant engine rides on this; any periodic in-window observer
/// can. Returns the number of samples scheduled.
pub fn schedule_window_samples(
    world: &mut World,
    plan: &MeasurementPlan,
    cadence: SimDuration,
    sampler: WindowSampler,
) -> usize {
    assert!(cadence > SimDuration::ZERO, "sampling cadence must be > 0");
    let mut scheduled = 0;
    for (w, cycle) in plan.cycles.iter().enumerate() {
        let mut t = cycle.t_open;
        while t < cycle.t_close {
            let s = sampler.clone();
            world.schedule(t, move |world| s(world, w, t));
            scheduled += 1;
            t += cadence;
        }
    }
    scheduled
}

/// The harvested per-flow measurements of one trial.
#[derive(Clone, Debug)]
pub struct Harvest {
    /// Per-flow convergence time: the maximum inter-packet gap measured
    /// across the failure (the paper's metric), one entry per flow.
    pub per_flow: Vec<SimDuration>,
    /// Flows that never recovered within the measurement window.
    pub unrecovered: usize,
}

/// The sink's per-flow maxima of the window just closed. Panics if a
/// delivery check is asked for and fewer than `expect_flows` flows
/// delivered before the cut — that is a harness bug, not a measurement.
fn harvest_sink(world: &World, sink: NodeId, expect_flows: Option<usize>) -> Harvest {
    let sink_node = world.node::<TrafficSink>(sink);
    if let Some(expect) = expect_flows {
        assert_eq!(
            sink_node.active_flows(),
            expect,
            "every monitored flow must have delivered before the cut"
        );
    }
    let reports = sink_node.report();
    Harvest {
        per_flow: reports.iter().map(|r| r.max_gap).collect(),
        unrecovered: reports.iter().filter(|r| r.recovered_at.is_none()).count(),
    }
}

/// Walk the plan's cycle windows: run out each window, close and
/// harvest it, then re-arm the sink for the next cycle. Returns one
/// [`Harvest`] per cycle — the per-flow maximum gap *within that
/// cycle*, so the second flap of a script is measured as its own
/// convergence event instead of disappearing under the first one's
/// maximum. The `expect_flows` delivery check applies to the first
/// window only (later cycles legitimately start mid-blackhole when a
/// scenario's recovery is slower than its flap period).
pub fn run_cycles_and_harvest(
    world: &mut World,
    sink: NodeId,
    plan: &MeasurementPlan,
    expect_flows: usize,
) -> Vec<Harvest> {
    let mut out = Vec::with_capacity(plan.cycles.len());
    for (i, cycle) in plan.cycles.iter().enumerate() {
        if i > 0 {
            // The previous window was harvested exactly at this
            // window's open instant; re-arm the gap counters.
            let now = world.now();
            world.node_mut::<TrafficSink>(sink).reset_window(now);
        }
        world.run_until(cycle.t_close);
        let end = world.now();
        world.node_mut::<TrafficSink>(sink).close_window(end);
        out.push(harvest_sink(world, sink, (i == 0).then_some(expect_flows)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn single_epoch_plan_matches_the_classic_layout() {
        let plan =
            plan_cycle_measurement(SimTime::from_secs(1), 1_000, &[SimDuration::ZERO], ms(500));
        assert_eq!(plan.cycles.len(), 1);
        assert_eq!(plan.t_origin, plan.t_fail);
        assert_eq!(plan.cycles[0].t_fail, plan.t_fail);
        assert_eq!(plan.cycles[0].t_open, plan.t_fail - ms(1));
        assert_eq!(plan.cycles[0].t_close, plan.t_fail + ms(500));
        assert_eq!(plan.t_end, plan.cycles[0].t_close);
        // 1000 pps -> 1 ms gap; warmup floor of 200 ms applies.
        assert_eq!(plan.t_start, SimTime::from_secs(1) + ms(100));
        assert_eq!(plan.t_fail, plan.t_start + ms(200));
    }

    #[test]
    fn sub_millisecond_epochs_keep_windows_ordered() {
        // Epoch spacing below the 1 ms re-arm offset (a `period=500us`
        // flap script is expressible) must still yield ordered,
        // contiguous windows — the arm offset shrinks, it never inverts
        // a window.
        let us = SimDuration::from_micros;
        let epochs = [SimDuration::ZERO, us(500), us(1000)];
        let plan = plan_cycle_measurement(SimTime::from_secs(1), 14_000, &epochs, ms(100));
        for (i, c) in plan.cycles.iter().enumerate() {
            assert!(c.t_open < c.t_fail, "cycle {i}: opens before its failure");
            assert!(c.t_fail < c.t_close, "cycle {i}: closes after its failure");
            if i + 1 < plan.cycles.len() {
                assert_eq!(c.t_close, plan.cycles[i + 1].t_open, "contiguous");
            }
        }
        assert_eq!(plan.t_end, plan.t_origin + us(1000) + ms(100));
    }

    #[test]
    fn cycle_windows_are_contiguous_and_cover_the_horizon() {
        let epochs = [SimDuration::ZERO, ms(250), ms(500)];
        let plan = plan_cycle_measurement(SimTime::from_secs(2), 1_000, &epochs, ms(400));
        assert_eq!(plan.cycles.len(), 3);
        let t0 = plan.t_origin;
        for (i, c) in plan.cycles.iter().enumerate() {
            assert_eq!(c.t_fail, t0 + epochs[i]);
            assert_eq!(c.t_open, c.t_fail - ms(1), "armed 1ms before the failure");
            if i + 1 < plan.cycles.len() {
                assert_eq!(
                    c.t_close,
                    plan.cycles[i + 1].t_open,
                    "cycle {i} closes where cycle {} opens",
                    i + 1
                );
            }
        }
        assert_eq!(
            plan.t_end,
            t0 + ms(500) + ms(400),
            "last window runs the horizon"
        );
        assert_eq!(plan.t_fail, t0, "first onset at the origin");
    }
}
