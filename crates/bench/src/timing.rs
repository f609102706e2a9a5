//! The workspace's single wall-clock shell.
//!
//! Every real-time reading in the workspace funnels through this
//! module: the figure binaries time their runs with [`timed`]. Nothing
//! below the bench shell may read the clock — the sc-check
//! `no-wall-clock` rule denies `Instant`/`SystemTime` everywhere else,
//! which is what keeps simulation outcomes pure functions of the seed.
//! Simulator throughput is measured by the perf ledger
//! (`sim.events_per_s`), outside the workspace.

// This file is the sc-check `no-wall-clock` allowlist: the ONLY place
// in crates/*/src allowed to touch std::time::Instant/SystemTime.
use std::time::{Duration, Instant};

/// Run `f`, returning its result and the wall-clock time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_nonnegative_duration() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }
}
