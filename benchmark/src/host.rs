//! Host-side measurements: a counting allocator, process CPU time and
//! peak resident memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The system allocator plus counters that run only while switched on
/// (traced runs). Switched off it costs one relaxed load per call, so
/// untraced timings are those of the plain system allocator.
pub struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: memory allocated while off may be freed while on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// One counted allocator call that takes live memory from `old` to
/// `new` bytes.
#[inline]
fn record(old: usize, new: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(new.saturating_sub(old) as u64, Ordering::Relaxed);
    let delta = new as i64 - old as i64;
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            record(0, layout.size());
        }
        // SAFETY: same layout the caller passed under the same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            record(0, layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            record(layout.size(), new_size);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters; subtract two to get a region's cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls that obtained memory (alloc, alloc_zeroed, realloc).
    pub count: u64,
    /// Bytes requested (a realloc counts its growth only).
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Forget the peak so far: the next [`peak_heap_bytes`] is the high-water
/// mark of live counted bytes from here on.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

pub fn peak_heap_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// `struct timespec` of 64-bit Linux, where `time_t` and `long` are both
/// 64 bits wide.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process (all threads, exited ones
/// included) has used, at the clock's nanosecond resolution.
/// `/proc/self/stat` counts the same time in ticks of 10 ms, too coarse
/// for a trial of 150 ms.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the target's
    // layout, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: VmHWM not found".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Serialises tests that flip the process-wide counting switch.
#[cfg(test)]
pub static SWITCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_allocator_switches_on_and_off() {
        let _guard = SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        counting(false);
        let before = alloc_snapshot();
        let v: Vec<u64> = Vec::with_capacity(1000);
        std::hint::black_box(&v);
        drop(v);
        assert_eq!(alloc_snapshot(), before, "off: nothing is counted");

        counting(true);
        reset_peak();
        let before = alloc_snapshot();
        let v: Vec<u64> = Vec::with_capacity(1000);
        std::hint::black_box(&v);
        let during = alloc_snapshot().since(before);
        let peak = peak_heap_bytes();
        drop(v);
        counting(false);
        // Other test threads may allocate while the switch is on.
        assert!(during.count >= 1 && during.bytes >= 8000, "{during:?}");
        assert!(peak >= 8000, "peak {peak}");
        let after = alloc_snapshot();
        std::hint::black_box(Box::new(7u8));
        assert_eq!(alloc_snapshot(), after, "off again");
    }

    #[test]
    fn cpu_clock_and_proc_parsers() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        let before = cpu_seconds();
        std::hint::black_box((0..1_000_000u64).map(|i| i ^ (i >> 3)).sum::<u64>());
        assert!(before >= 0.0 && cpu_seconds() > before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
