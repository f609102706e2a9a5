//! The workspace's single wall-clock shell.
//!
//! Every real-time reading in the workspace funnels through this
//! module: the figure binaries time their runs with [`timed`], and
//! simulation worlds that should report an `events_per_sec` trajectory
//! get [`wall_clock`] injected via `sc_sim::World::set_wall_clock`.
//! Nothing below the bench shell may read the clock — the sc-check
//! `no-wall-clock` rule denies `Instant`/`SystemTime` everywhere else,
//! which is what keeps simulation outcomes pure functions of the seed
//! (wall time can only ever be *observed*, never branched on).

// This file is the sc-check `no-wall-clock` allowlist: the ONLY place
// in crates/*/src allowed to touch std::time::Instant/SystemTime.
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Run `f`, returning its result and the wall-clock time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Monotonic elapsed time since an arbitrary process-local epoch —
/// the `sc_sim::WallClock` the bench shell injects into worlds whose
/// `events_per_sec` trajectory should be recorded.
pub fn wall_clock() -> Duration {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
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

    #[test]
    fn wall_clock_is_monotonic() {
        let a = wall_clock();
        let b = wall_clock();
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_feeds_world_perf_accounting() {
        let mut w = sc_sim::World::new(1);
        w.set_wall_clock(wall_clock);
        // An un-clocked world reports no trajectory at all.
        let silent = sc_sim::World::new(1);
        assert_eq!(silent.events_per_sec(), 0.0);
        w.run_until_idle(1_000);
        assert!(w.wall_time() >= Duration::ZERO);
    }
}
