//! FPGA-like traffic generation and convergence measurement.
//!
//! The paper measures convergence *at the data plane*: a Xilinx ML605
//! source streams 64-byte UDP packets to 100 destination IPs (14 kpps
//! per flow, ≈1.4 Mpps, ≈725 Mb/s) while a sink board matches arriving
//! packets against a CAM of expected destinations and tracks the
//! **maximum inter-packet gap** per flow with 70 µs precision. The
//! convergence time of a flow is its maximum gap across the failure.
//!
//! [`TrafficSource`] and [`TrafficSink`] reproduce that methodology on
//! the simulated network; [`TrafficSink::report`] yields per-flow gaps
//! quantized to the configured precision, and the experiment driver
//! resets gap tracking just before injecting the failure (the FPGA
//! equivalent of starting the measurement window).

use sc_net::wire::udp::port as udp_port;
use sc_net::wire::{peek_udp_frame, udp_frame, UdpDatagram, UdpEndpoints};
use sc_net::{Frame, FxHashMap, Ipv4Addr, MacAddr, SimDuration, SimTime};
use sc_sim::{Ctx, Node, PortId, TimerToken};
use std::any::Any;

const TIMER_TICK: TimerToken = TimerToken(1);

/// UDP source port of every probe frame. Exported so flow-table
/// predictors (the `sc-invariant` walker) can build the exact key the
/// switch will see.
pub const PROBE_SRC_PORT: u16 = 49152;

/// Traffic source configuration.
#[derive(Clone, Debug)]
pub struct SourceConfig {
    pub name: String,
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
    /// L2 gateway (the supercharged router's MAC) — the FPGA is
    /// statically configured with it.
    pub gateway_mac: MacAddr,
    /// One flow per destination IP (the paper uses 100).
    pub flows: Vec<Ipv4Addr>,
    /// Packets per second *per flow* (the paper's boards do 14 000).
    pub rate_pps: u64,
    /// Transmission window.
    pub start: SimTime,
    pub stop: SimTime,
    /// UDP payload size; 22 bytes yields the paper's 64-byte frames
    /// (14 Ethernet + 20 IPv4 + 8 UDP + 22).
    pub payload_len: usize,
}

impl SourceConfig {
    /// Paper settings for the given flows and window.
    pub fn paper(
        name: &str,
        mac: MacAddr,
        ip: Ipv4Addr,
        gateway_mac: MacAddr,
        flows: Vec<Ipv4Addr>,
        start: SimTime,
        stop: SimTime,
    ) -> SourceConfig {
        SourceConfig {
            name: name.to_string(),
            mac,
            ip,
            gateway_mac,
            flows,
            rate_pps: 14_000,
            start,
            stop,
            payload_len: 22,
        }
    }

    /// The inter-packet gap per flow.
    pub fn nominal_gap(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / self.rate_pps.max(1))
    }

    /// Aggregate offered load in packets/second.
    pub fn aggregate_pps(&self) -> u64 {
        self.rate_pps * self.flows.len() as u64
    }

    /// Aggregate offered load in bits/second (64-byte frames).
    pub fn aggregate_bps(&self) -> u64 {
        let frame_len = (sc_net::wire::ethernet::HEADER_LEN
            + sc_net::wire::ipv4::HEADER_LEN
            + sc_net::wire::udp::HEADER_LEN
            + self.payload_len) as u64;
        self.aggregate_pps() * frame_len * 8
    }
}

/// The traffic source node: every tick it emits one packet per flow
/// (the FPGA's round-robin schedule), with a per-flow sequence number in
/// the first two payload bytes.
///
/// Frames are **prebuilt once per flow** at construction — headers,
/// IPv4 checksum and all — exactly the way the FPGA's packet engine
/// holds one template per flow in block RAM. Each tick only re-stamps
/// the 2 sequence bytes (copy-on-write if the previous tick's copy is
/// still in flight) and clones a refcount, so the per-packet cost is
/// allocation-free in steady state.
pub struct TrafficSource {
    cfg: SourceConfig,
    seq: u16,
    pub packets_sent: u64,
    port: PortId,
    /// One immutable probe frame per flow (same order as `cfg.flows`).
    templates: Vec<Frame>,
    /// Byte offset of the sequence stamp (start of the UDP payload).
    seq_off: usize,
}

impl TrafficSource {
    pub fn new(cfg: SourceConfig, port: PortId) -> TrafficSource {
        // Template payload: 0x5c filler. The UDP checksum is zeroed once
        // (RFC 768: all-zero means "no checksum") because the per-tick
        // sequence stamp would invalidate a computed one; routers only
        // validate the IPv4 header checksum, which the stamp never
        // touches.
        let payload = vec![0x5c; cfg.payload_len];
        let udp_off = sc_net::wire::ethernet::HEADER_LEN + sc_net::wire::ipv4::HEADER_LEN;
        let templates: Vec<Frame> = cfg
            .flows
            .iter()
            .map(|dst| {
                let mut frame = udp_frame(
                    UdpEndpoints {
                        src_mac: cfg.mac,
                        dst_mac: cfg.gateway_mac,
                        src_ip: cfg.ip,
                        dst_ip: *dst,
                        src_port: PROBE_SRC_PORT,
                        dst_port: udp_port::PROBE,
                    },
                    64,
                    &payload,
                );
                frame[udp_off + 6] = 0;
                frame[udp_off + 7] = 0;
                Frame::new(frame)
            })
            .collect();
        TrafficSource {
            seq_off: udp_off + sc_net::wire::udp::HEADER_LEN,
            cfg,
            seq: 0,
            packets_sent: 0,
            port,
            templates,
        }
    }

    pub fn config(&self) -> &SourceConfig {
        &self.cfg
    }

    /// Re-window the source (experiment drivers decide start/stop only
    /// after the control plane converged, then kick the source with
    /// `World::wake_node(start, id, TimerToken(1))`).
    pub fn set_window(&mut self, start: SimTime, stop: SimTime) {
        self.cfg.start = start;
        self.cfg.stop = stop;
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "a fixed-schedule source: its deadlines never move, so no `Wakeup` is needed"
)]
impl Node for TrafficSource {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if !self.cfg.flows.is_empty() && self.cfg.stop > self.cfg.start {
            ctx.set_timer_at(self.cfg.start, TIMER_TICK);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: Frame) {
        // The source never receives (one-way measurement traffic).
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        if token != TIMER_TICK {
            return;
        }
        let now = ctx.now();
        if now >= self.cfg.stop {
            return;
        }
        self.seq = self.seq.wrapping_add(1);
        let stamp = self.cfg.payload_len >= 2;
        for template in &mut self.templates {
            // Re-stamp the sequence into the first two payload bytes.
            // `make_mut` patches in place when the previous copy has
            // already been consumed, and copies the 64-byte buffer when
            // one is still in flight — never both allocating headers and
            // recomputing checksums like the old per-packet build did.
            if stamp {
                let buf = template.make_mut();
                buf[self.seq_off] = (self.seq >> 8) as u8;
                buf[self.seq_off + 1] = self.seq as u8;
            }
            ctx.send_frame(self.port, template.clone());
            self.packets_sent += 1;
        }
        let next = now + self.cfg.nominal_gap();
        if next < self.cfg.stop {
            ctx.set_timer_at(next, TIMER_TICK);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-flow measurement state.
#[derive(Clone, Copy, Debug, Default)]
struct FlowState {
    packets: u64,
    first_arrival: Option<SimTime>,
    last_arrival: Option<SimTime>,
    max_gap: SimDuration,
    /// When the maximum gap ended (i.e. recovery instant).
    max_gap_end: Option<SimTime>,
}

impl FlowState {
    /// Where the flow's next gap starts: its last arrival, or the window
    /// start if it has not delivered since then.
    fn gap_start(&self, window_start: SimTime) -> SimTime {
        self.last_arrival
            .map_or(window_start, |t| t.max(window_start))
    }
}

/// One row of the sink's report.
#[derive(Clone, Copy, Debug)]
pub struct FlowReport {
    pub dst: Ipv4Addr,
    pub packets: u64,
    /// Maximum inter-packet gap since the last reset, quantized up to
    /// the measurement precision.
    pub max_gap: SimDuration,
    /// When that gap ended.
    pub recovered_at: Option<SimTime>,
    pub last_arrival: Option<SimTime>,
}

/// Sink configuration.
#[derive(Clone, Debug)]
pub struct SinkConfig {
    pub name: String,
    /// The CAM of expected destination IPs.
    pub expected: Vec<Ipv4Addr>,
    /// Measurement quantization (the paper's FPGA: 70 µs).
    pub precision: SimDuration,
}

impl SinkConfig {
    pub fn paper(name: &str, expected: Vec<Ipv4Addr>) -> SinkConfig {
        SinkConfig {
            name: name.to_string(),
            expected,
            precision: SimDuration::from_micros(70),
        }
    }
}

/// The measurement sink node. Attach any number of ports; all feed the
/// same CAM (the paper wires both providers into one sink board).
pub struct TrafficSink {
    cfg: SinkConfig,
    /// The expected-destination CAM. The FPGA's CAM is an exact matcher
    /// over host addresses, so a hash map *is* the faithful model — and
    /// a per-packet O(1) hit instead of a 32-level trie walk.
    cam: FxHashMap<Ipv4Addr, usize>,
    flows: Vec<FlowState>,
    pub unexpected_packets: u64,
    /// Gap tracking is measured relative to this instant (reset before
    /// injecting a failure).
    window_start: SimTime,
}

impl TrafficSink {
    pub fn new(cfg: SinkConfig) -> TrafficSink {
        let mut cam = FxHashMap::default();
        cam.reserve(cfg.expected.len());
        for (i, ip) in cfg.expected.iter().enumerate() {
            cam.insert(*ip, i);
        }
        let flows = vec![FlowState::default(); cfg.expected.len()];
        TrafficSink {
            cfg,
            cam,
            flows,
            unexpected_packets: 0,
            window_start: SimTime::ZERO,
        }
    }

    /// Begin a fresh measurement window at `now`: clears max-gap state
    /// but keeps packet counters. Every flow measures its first gap in
    /// the window from the window start, whether or not it delivered
    /// before.
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        for f in &mut self.flows {
            f.max_gap = SimDuration::ZERO;
            f.max_gap_end = None;
        }
    }

    /// Per-flow reports (order matches `cfg.expected`).
    pub fn report(&self) -> Vec<FlowReport> {
        self.cfg
            .expected
            .iter()
            .zip(&self.flows)
            .map(|(dst, f)| FlowReport {
                dst: *dst,
                packets: f.packets,
                max_gap: f.max_gap.quantize_up(self.cfg.precision),
                recovered_at: f.max_gap_end,
                last_arrival: f.last_arrival,
            })
            .collect()
    }

    /// Flows that have received at least one packet.
    pub fn active_flows(&self) -> usize {
        self.flows.iter().filter(|f| f.packets > 0).count()
    }

    /// Account for the experiment ending at `now`: a flow that never
    /// recovered after the window start has an open gap running to the
    /// end; fold it into max_gap so blackholed flows are not reported as
    /// converged.
    pub fn close_window(&mut self, now: SimTime) {
        for f in &mut self.flows {
            let open_gap = now.saturating_duration_since(f.gap_start(self.window_start));
            if open_gap > f.max_gap {
                f.max_gap = open_gap;
                f.max_gap_end = None; // never recovered
            }
        }
    }
}

impl Node for TrafficSink {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: Frame) {
        let Ok(Some(UdpDatagram { ip, udp, .. })) = peek_udp_frame(&frame) else {
            return;
        };
        if udp.dst_port != udp_port::PROBE {
            return;
        }
        let Some(&idx) = self.cam.get(&ip.dst) else {
            self.unexpected_packets += 1;
            return;
        };
        let now = ctx.now();
        let f = &mut self.flows[idx];
        f.packets += 1;
        if f.first_arrival.is_none() {
            f.first_arrival = Some(now);
        }
        let gap = now.saturating_duration_since(f.gap_start(self.window_start));
        if gap > f.max_gap {
            f.max_gap = gap;
            f.max_gap_end = Some(now);
        }
        f.last_arrival = Some(now);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sim::{LinkParams, World};

    const SRC_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const GW_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);

    fn flows(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(1, 0, i, 1)).collect()
    }

    #[test]
    fn paper_load_numbers() {
        let cfg = SourceConfig::paper(
            "fpga",
            SRC_MAC,
            Ipv4Addr::new(10, 0, 0, 100),
            GW_MAC,
            flows(100),
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        assert_eq!(cfg.aggregate_pps(), 1_400_000, "≈1.4 Mpps (§4)");
        let mbps = cfg.aggregate_bps() as f64 / 1e6;
        assert!((700.0..750.0).contains(&mbps), "≈725 Mb/s, got {mbps}");
        assert_eq!(cfg.nominal_gap().as_micros(), 71, "≈71 µs per flow");
    }

    /// Source wired straight to sink: every packet arrives; gaps equal
    /// the nominal inter-packet gap.
    #[test]
    fn direct_stream_measures_nominal_gap() {
        let mut w = World::new(1);
        let fl = flows(4);
        let src_cfg = SourceConfig {
            rate_pps: 1_000, // 1ms apart, keeps the test light
            ..SourceConfig::paper(
                "src",
                SRC_MAC,
                Ipv4Addr::new(10, 0, 0, 100),
                GW_MAC,
                fl.clone(),
                SimTime::ZERO,
                SimTime::from_millis(500),
            )
        };
        let sink = w.add_node(TrafficSink::new(SinkConfig::paper("sink", fl.clone())));
        let src_node = TrafficSource::new(src_cfg, PortId(0));
        let src = w.add_node(src_node);
        w.connect(src, sink, LinkParams::default());
        w.run_until_idle(2_000_000);

        let sink_node = w.node::<TrafficSink>(sink);
        assert_eq!(sink_node.active_flows(), 4);
        assert_eq!(sink_node.unexpected_packets, 0);
        for r in sink_node.report() {
            assert_eq!(r.packets, 500);
            // 1ms gap quantized up to 70µs boundary: 1.05ms.
            assert_eq!(r.max_gap.as_micros(), 1050);
        }
        assert_eq!(w.node::<TrafficSource>(src).packets_sent, 2_000);
    }

    /// A mid-stream outage shows up as the max gap of exactly the outage
    /// length (plus one nominal gap), quantized to the precision.
    #[test]
    fn outage_is_measured_with_fpga_precision() {
        let mut w = World::new(2);
        let fl = flows(2);
        let src_cfg = SourceConfig {
            rate_pps: 1_000,
            ..SourceConfig::paper(
                "src",
                SRC_MAC,
                Ipv4Addr::new(10, 0, 0, 100),
                GW_MAC,
                fl.clone(),
                SimTime::ZERO,
                SimTime::from_secs(2),
            )
        };
        let sink = w.add_node(TrafficSink::new(SinkConfig::paper("sink", fl.clone())));
        let src = {
            let n = TrafficSource::new(src_cfg, PortId(0));
            w.add_node(n)
        };
        let (link, _, _) = w.connect(src, sink, LinkParams::default());
        // Reset the window just before a 150ms outage at t=1s.
        let sink_id = sink;
        w.schedule(SimTime::from_millis(999), move |w| {
            let now = w.now();
            w.node_mut::<TrafficSink>(sink_id).reset_window(now);
        });
        w.schedule(SimTime::from_secs(1), move |w| w.set_link_up(link, false));
        w.schedule(
            SimTime::from_secs(1) + SimDuration::from_millis(150),
            move |w| w.set_link_up(link, true),
        );
        w.run_until_idle(5_000_000);
        let sink_node = w.node::<TrafficSink>(sink);
        for r in sink_node.report() {
            // True gap ≈ 150ms + ≤1ms scheduling: quantized to a 70µs
            // multiple in [150, 152] ms.
            assert!(
                r.max_gap >= SimDuration::from_millis(150)
                    && r.max_gap <= SimDuration::from_millis(152),
                "gap {}",
                r.max_gap
            );
            assert_eq!(r.max_gap.as_nanos() % 70_000, 0, "quantized to 70µs");
            assert!(r.recovered_at.is_some());
        }
    }

    /// A window reset during an outage: the flow's first gap in the new
    /// window runs from the window start (1.5 s), not from its last
    /// arrival before the cut (1 s), to the first arrival after the link
    /// returns at 1.6 s.
    #[test]
    fn first_gap_after_a_reset_starts_at_the_window() {
        let mut w = World::new(5);
        let fl = flows(1);
        let src_cfg = SourceConfig {
            rate_pps: 1_000,
            ..SourceConfig::paper(
                "src",
                SRC_MAC,
                Ipv4Addr::new(10, 0, 0, 100),
                GW_MAC,
                fl.clone(),
                SimTime::ZERO,
                SimTime::from_secs(2),
            )
        };
        let sink = w.add_node(TrafficSink::new(SinkConfig::paper("sink", fl)));
        let src = w.add_node(TrafficSource::new(src_cfg, PortId(0)));
        let (link, _, _) = w.connect(src, sink, LinkParams::default());
        w.schedule(SimTime::from_secs(1), move |w| w.set_link_up(link, false));
        w.schedule(SimTime::from_millis(1_500), move |w| {
            let now = w.now();
            w.node_mut::<TrafficSink>(sink).reset_window(now);
        });
        w.schedule(SimTime::from_millis(1_600), move |w| {
            w.set_link_up(link, true)
        });
        w.run_until_idle(5_000_000);
        let r = &w.node::<TrafficSink>(sink).report()[0];
        let back = r.recovered_at.expect("the flow recovered");
        assert!(back > SimTime::from_millis(1_600) && back <= SimTime::from_millis(1_602));
        let from_window = back.saturating_duration_since(SimTime::from_millis(1_500));
        assert_eq!(
            r.max_gap,
            from_window.quantize_up(SimDuration::from_micros(70))
        );
    }

    /// A flow that never recovers must report an open-ended gap, not
    /// look converged.
    #[test]
    fn blackholed_flow_reports_open_gap() {
        let mut w = World::new(3);
        let fl = flows(1);
        let src_cfg = SourceConfig {
            rate_pps: 1_000,
            ..SourceConfig::paper(
                "src",
                SRC_MAC,
                Ipv4Addr::new(10, 0, 0, 100),
                GW_MAC,
                fl.clone(),
                SimTime::ZERO,
                SimTime::from_secs(3),
            )
        };
        let sink = w.add_node(TrafficSink::new(SinkConfig::paper("sink", fl.clone())));
        let src = w.add_node(TrafficSource::new(src_cfg, PortId(0)));
        let (link, _, _) = w.connect(src, sink, LinkParams::default());
        let sink_id = sink;
        w.schedule(SimTime::from_secs(1), move |w| {
            let now = w.now();
            w.node_mut::<TrafficSink>(sink_id).reset_window(now);
            w.set_link_up(link, false);
        });
        w.run_until_idle(5_000_000);
        let end = w.now();
        w.node_mut::<TrafficSink>(sink).close_window(end);
        let r = &w.node::<TrafficSink>(sink).report()[0];
        assert!(
            r.max_gap >= SimDuration::from_secs(1),
            "open gap counted: {}",
            r.max_gap
        );
        assert!(r.recovered_at.is_none(), "never recovered");
    }

    #[test]
    fn unexpected_destinations_counted_not_tracked() {
        let mut w = World::new(4);
        let expected = vec![Ipv4Addr::new(1, 0, 0, 1)];
        let actual = vec![Ipv4Addr::new(9, 9, 9, 9)];
        let src_cfg = SourceConfig {
            rate_pps: 100,
            ..SourceConfig::paper(
                "src",
                SRC_MAC,
                Ipv4Addr::new(10, 0, 0, 100),
                GW_MAC,
                actual,
                SimTime::ZERO,
                SimTime::from_millis(100),
            )
        };
        let sink = w.add_node(TrafficSink::new(SinkConfig::paper("sink", expected)));
        let src = w.add_node(TrafficSource::new(src_cfg, PortId(0)));
        w.connect(src, sink, LinkParams::default());
        w.run_until_idle(1_000_000);
        let s = w.node::<TrafficSink>(sink);
        assert_eq!(s.active_flows(), 0);
        assert!(s.unexpected_packets > 0);
    }
}
