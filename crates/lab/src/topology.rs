//! The Fig. 4 convergence lab's address plan and modes.
//!
//! ```text
//!                      ┌────────────┐
//!   FPGA source ───────┤            ├────── R1 (Nexus-7k model)
//!                      │  HP E3800  │
//!   controller(s) ─────┤  (OpenFlow │────── R2 (provider $)──── sink
//!                      │   switch)  │────── R3 (provider $$)─── sink
//!                      └────────────┘
//! ```
//!
//! The lab's two halves of Fig. 5 are [`Mode::Stock`] (R1 peers R2/R3
//! directly, BFD on the R2 session, converging via its flat-FIB walk)
//! and [`Mode::Supercharged`] (the controller(s) interpose on the BGP
//! sessions and converge the data plane via Listing 2). This module
//! holds the lab's address plan; `sc-scenarios` builds the lab from it
//! (`TopologySpec::Fig4Lab`).
//!
//! Addressing plan (all MACs locally administered):
//!
//! | node         | IP            | MAC                |
//! |--------------|---------------|--------------------|
//! | R1           | 10.0.0.1      | 02:10:00:00:00:01  |
//! | R2           | 10.0.0.2      | 02:10:00:00:00:02  |
//! | R3           | 10.0.0.3      | 02:10:00:00:00:03  |
//! | controller i | 10.0.0.10+i   | 02:cc:00:00:00:0i  |
//! | switch (mgmt)| 10.0.0.20     | 02:ee:00:00:00:01  |
//! | source       | 10.0.0.100    | 02:aa:00:00:00:01  |
//! | sink         | 192.168.x.100 | 02:bb:00:00:00:01  |
//! | VNH pool     | 10.0.200.0/24 | 02:5c:… (VMACs)    |

use sc_net::{Ipv4Addr, MacAddr};

pub const IP_R1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
pub const IP_R2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
pub const IP_R3: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
pub const IP_SWITCH: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 20);
pub const IP_SOURCE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

pub const MAC_R1: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 1]);
pub const MAC_R2: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 2]);
pub const MAC_R3: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 3]);
pub const MAC_SWITCH: MacAddr = MacAddr([0x02, 0xee, 0, 0, 0, 1]);
pub const MAC_SOURCE: MacAddr = MacAddr([0x02, 0xaa, 0, 0, 0, 1]);
pub const MAC_SINK: MacAddr = MacAddr([0x02, 0xbb, 0, 0, 0, 1]);

pub fn controller_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + i as u8)
}

pub fn controller_mac(i: usize) -> MacAddr {
    MacAddr([0x02, 0xcc, 0, 0, 0, i as u8 + 1])
}

/// Which half of Fig. 5 to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// R1 peers its providers directly; convergence = flat-FIB walk.
    Stock,
    /// The controller(s) interpose; convergence = Listing 2.
    Supercharged,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Stock => "stock",
            Mode::Supercharged => "supercharged",
        }
    }
}
