//! The evaluation harness shared by every experiment: the Fig. 4 lab's
//! address plan and modes, the measurement phases, and statistics.
//!
//! * [`topology`] — the lab's addresses and [`Mode`] (stock or
//!   supercharged); the lab itself is built by `sc-scenarios`
//!   (`TopologySpec::Fig4Lab`), like every other topology;
//! * [`harness`] — the §4 measurement phases (converge → stream → cut →
//!   measure) the `sc-scenarios` runner drives;
//! * [`stats`] — box-plot summaries and CSV emission.

pub mod harness;
pub mod stats;
pub mod topology;

pub use stats::{percentile, BoxStats, Csv};
pub use topology::Mode;
