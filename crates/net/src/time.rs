//! Virtual time for the discrete-event world.
//!
//! All timing in the workspace — link latencies, BFD detection intervals,
//! FIB-walk entry costs, inter-packet gaps — is expressed in these types.
//! The unit is the nanosecond, held in a `u64`: enough for ~584 years of
//! virtual time, far beyond any experiment.
//!
//! [`SimTime`] is an absolute instant (nanoseconds since the start of the
//! simulation); [`SimDuration`] is a span. The API mirrors
//! `std::time::{Instant, Duration}` where it makes sense, but both types
//! are plain `Copy` integers with total ordering, which is what a
//! deterministic event queue needs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as an "infinitely far"
    /// sentinel for timer bookkeeping).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (for reporting only —
    /// never feed floats back into the event queue).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; a deterministic simulator
    /// never observes time running backwards, so this is a logic error.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::duration_since: earlier is later than self"),
        )
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Round this duration *up* to the nearest multiple of `quantum`.
    ///
    /// The FPGA-based monitor of the paper measures with 70 µs precision;
    /// the traffic sink uses this to model that quantization.
    pub fn quantize_up(self, quantum: SimDuration) -> SimDuration {
        if quantum.0 == 0 {
            return self;
        }
        let rem = self.0 % quantum.0;
        if rem == 0 {
            self
        } else {
            SimDuration(self.0 - rem + quantum.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Human-readable rendering of a nanosecond count, picking the largest
/// unit that keeps at least one integer digit.
fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0ns".to_string()
    } else if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!((t + d).as_millis(), 150);
        assert_eq!((t - d).as_millis(), 50);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.duration_since(SimTime::ZERO).as_millis(), 100);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_when_backwards() {
        let _ = SimTime::from_millis(1).duration_since(SimTime::from_millis(2));
    }

    #[test]
    fn quantize_up_rounds_to_monitor_precision() {
        let q = SimDuration::from_micros(70);
        assert_eq!(SimDuration::from_micros(0).quantize_up(q).as_micros(), 0);
        assert_eq!(SimDuration::from_micros(1).quantize_up(q).as_micros(), 70);
        assert_eq!(SimDuration::from_micros(70).quantize_up(q).as_micros(), 70);
        assert_eq!(SimDuration::from_micros(71).quantize_up(q).as_micros(), 140);
        // Zero quantum means "no quantization".
        assert_eq!(
            SimDuration::from_micros(33).quantize_up(SimDuration::ZERO),
            SimDuration::from_micros(33)
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_millis(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_millis(3));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(70).to_string(), "70.000us");
        assert_eq!(SimDuration::from_millis(150).to_string(), "150.000ms");
        assert_eq!(SimDuration::from_secs(141).to_string(), "141.000s");
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_micros(281);
        assert_eq!((d * 500_000).as_millis(), 140_500);
        assert_eq!((d / 281).as_micros(), 1);
    }
}
