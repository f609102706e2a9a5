//! [`Frame`] — the shared, cheaply-clonable Ethernet frame buffer.
//!
//! Every frame in the simulator used to be a bare `Vec<u8>`: flooding a
//! switch port deep-copied the bytes per port, and the event queue moved
//! 24-byte vector headers around. `Frame` is a refcounted buffer with
//! copy-on-write mutation:
//!
//! * `clone()` bumps a reference count — flooding N ports or fanning a
//!   probe template out per tick shares one allocation;
//! * [`Frame::make_mut`] hands out `&mut Vec<u8>`, cloning the bytes
//!   first only when another holder still references them (the
//!   in-flight copy of a probe whose template is being re-stamped, a
//!   flooded sibling being MAC-rewritten);
//! * the payload inside the event queue is a single pointer;
//! * retired buffers are recycled through a bounded thread-local pool,
//!   so steady-state forwarding (probe template shared → router
//!   copy-on-write → sink read → drop) performs **zero allocations**
//!   per packet: the copy-on-write pops the `Arc` the previous packet
//!   returned;
//! * [`Frame::build`] encodes a new frame straight into such a recycled
//!   buffer, so control-plane senders share the pool with the data plane.
//!
//! `Deref<Target = [u8]>` keeps every parser call site (`parse(&frame)`)
//! untouched.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on recycled buffers per thread (steady-state forwarding needs a
/// handful; the cap bounds memory after bursts).
const POOL_CAP: usize = 64;

/// Source of per-thread pool identities. Each thread that touches a
/// frame claims one token lazily; a buffer records the token of the
/// thread that allocated it.
static NEXT_THREAD_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's pool identity (see [`NEXT_THREAD_TOKEN`]).
    static THREAD_TOKEN: u64 = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);

    /// Retired sole-holder frames, control block and byte buffer both
    /// intact, ready to back the next copy-on-write without touching
    /// the allocator. Strictly per-thread: only buffers whose `origin`
    /// matches this thread ever enter (the sharded kernel moves frames
    /// across shard threads, and a buffer freed on a foreign thread is
    /// simply dropped).
    static POOL: RefCell<Vec<Arc<PooledBuf>>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn thread_token() -> u64 {
    THREAD_TOKEN.with(|t| *t)
}

/// A frame buffer plus the pool identity of the thread that allocated
/// it. `origin` is metadata for the recycler only — frame equality and
/// hashing see just the bytes.
struct PooledBuf {
    origin: u64,
    bytes: Vec<u8>,
}

impl PooledBuf {
    fn new(bytes: Vec<u8>) -> Arc<PooledBuf> {
        Arc::new(PooledBuf {
            origin: thread_token(),
            bytes,
        })
    }
}

/// A shared immutable-until-written frame buffer.
///
/// The inner `Option` is an implementation detail of buffer recycling
/// (`Drop` moves the `Arc` into the pool); it is `Some` at every other
/// moment of the frame's life.
#[derive(Clone)]
pub struct Frame(Option<Arc<PooledBuf>>);

impl Frame {
    /// Wrap an encoded frame.
    pub fn new(bytes: Vec<u8>) -> Frame {
        Frame(Some(PooledBuf::new(bytes)))
    }

    /// Encode a frame straight into a recycled buffer: `fill` receives
    /// it empty and appends the bytes. A sender that builds its frames
    /// this way and whose receiver drops them after reading allocates
    /// nothing per frame in steady state.
    pub fn build(fill: impl FnOnce(&mut Vec<u8>)) -> Frame {
        let mut arc = pooled();
        let buf = Arc::get_mut(&mut arc).expect("pooled arc is sole-holder");
        buf.bytes.clear();
        fill(&mut buf.bytes);
        Frame(Some(arc))
    }

    #[inline]
    fn arc(&self) -> &Arc<PooledBuf> {
        self.0.as_ref().expect("frame already retired")
    }

    /// Mutable access for in-place patching (MAC rewrite, TTL decrement,
    /// sequence stamping). O(1) when this is the only holder; clones the
    /// bytes first (into a recycled buffer when one is free) when the
    /// buffer is shared, so no other holder ever observes the mutation.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        // No weak refs exist anywhere in the workspace, so strong_count
        // is the whole sharing story.
        if Arc::strong_count(self.arc()) > 1 {
            // Copy-on-write backed by the recycle pool: pooled arcs are
            // sole-holder by construction, so `get_mut` succeeds.
            let mut arc = pooled();
            let buf = Arc::get_mut(&mut arc).expect("pooled arc is sole-holder");
            buf.bytes.clear();
            buf.bytes.extend_from_slice(&self.arc().bytes);
            self.0 = Some(arc);
        }
        let buf = Arc::get_mut(self.0.as_mut().expect("frame already retired"))
            .expect("sole holder after copy-on-write");
        &mut buf.bytes
    }

    /// Copy out the bytes (interop with owned-`Vec<u8>` APIs such as
    /// control-message payloads).
    pub fn to_vec(&self) -> Vec<u8> {
        self.arc().bytes.clone()
    }

    /// Number of holders sharing this buffer (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(self.arc())
    }
}

/// A retired buffer from this thread's pool (contents stale), or a
/// fresh empty one.
fn pooled() -> Arc<PooledBuf> {
    POOL.with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| PooledBuf::new(Vec::new()))
}

/// Buffers parked in *this thread's* recycle pool (diagnostics/tests).
pub fn pool_len() -> usize {
    POOL.with(|p| p.borrow().len())
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        // Bytes only: the recycler's origin tag is not frame identity.
        self.arc().bytes == other.arc().bytes
    }
}

impl Eq for Frame {}

impl Drop for Frame {
    fn drop(&mut self) {
        // Last holder: retire the whole Arc (control block + bytes)
        // into the pool instead of freeing it — but only into the pool
        // of the thread that allocated it. A frame that crossed a
        // shard boundary and died on a foreign thread is freed
        // normally; recycling it there would let one thread's pool
        // hand out another thread's buffers.
        if let Some(arc) = self.0.take() {
            if Arc::strong_count(&arc) == 1
                && arc.bytes.capacity() > 0
                && arc.origin == thread_token()
            {
                POOL.with(|p| {
                    let mut p = p.borrow_mut();
                    if p.len() < POOL_CAP {
                        p.push(arc);
                    }
                });
            }
        }
    }
}

impl Deref for Frame {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.arc().bytes.as_slice()
    }
}

impl AsRef<[u8]> for Frame {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.arc().bytes.as_slice()
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        Frame::new(bytes)
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Frame {
        Frame::new(bytes.to_vec())
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Frame[{}; rc={}]",
            self.arc().bytes.len(),
            self.ref_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Frame::new(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        assert_eq!(&*a, &*b);
        assert_eq!(a.as_ptr(), b.as_ptr(), "no copy on clone");
    }

    #[test]
    fn make_mut_is_in_place_for_sole_holder() {
        let mut a = Frame::new(vec![1, 2, 3]);
        let p = a.as_ptr();
        a.make_mut()[0] = 9;
        assert_eq!(a.as_ptr(), p, "no reallocation when unshared");
        assert_eq!(&*a, &[9, 2, 3]);
    }

    #[test]
    fn make_mut_copies_on_write_when_shared() {
        let mut a = Frame::new(vec![1, 2, 3]);
        let b = a.clone();
        a.make_mut()[0] = 9;
        assert_eq!(&*a, &[9, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3], "other holder untouched");
        assert_eq!(a.ref_count(), 1);
        assert_eq!(b.ref_count(), 1);
    }

    #[test]
    fn dropped_buffers_are_recycled_into_cow() {
        // Dropping a sole-holder frame parks its buffer in the
        // thread-local pool; the next copy-on-write reuses it instead
        // of allocating.
        let recycled_ptr = {
            let f = Frame::new(vec![7u8; 64]);
            f.as_ptr()
        }; // dropped -> pooled
        let mut a = Frame::new(vec![1, 2, 3]);
        let _b = a.clone(); // force the CoW path
        a.make_mut()[0] = 9;
        assert_eq!(a.as_ptr(), recycled_ptr, "CoW popped the pooled buffer");
        assert_eq!(&*a, &[9, 2, 3]);
    }

    #[test]
    fn build_fills_a_recycled_buffer() {
        let recycled_ptr = {
            let f = Frame::new(vec![7u8; 64]);
            f.as_ptr()
        }; // dropped -> pooled
        let f = Frame::build(|buf| {
            assert!(buf.is_empty(), "stale bytes cleared");
            buf.extend_from_slice(&[1, 2, 3]);
        });
        assert_eq!(f.as_ptr(), recycled_ptr, "no allocation");
        assert_eq!(&*f, &[1, 2, 3]);
    }

    #[test]
    fn shared_frames_are_not_pooled_on_drop() {
        // Dropping one of two holders must leave the survivor intact.
        let a = Frame::new(vec![5u8; 16]);
        let b = a.clone();
        drop(a);
        assert_eq!(b.ref_count(), 1);
        assert_eq!(&*b, &[5u8; 16]);
    }

    #[test]
    fn pool_reuse_never_crosses_threads() {
        // A buffer allocated here and dropped on another thread must
        // not seed that thread's pool; the foreign thread's own
        // buffers still recycle normally. Each closure runs on a
        // fresh thread whose pool starts empty, so pool_len() counts
        // are exact.
        let foreign = Frame::new(vec![3u8; 32]);
        std::thread::spawn(move || {
            assert_eq!(pool_len(), 0, "fresh thread, empty pool");
            drop(foreign);
            assert_eq!(pool_len(), 0, "foreign-origin buffer freed, not pooled");
            let local = Frame::new(vec![1, 2, 3]);
            drop(local);
            assert_eq!(pool_len(), 1, "own buffer recycles as before");
        })
        .join()
        .unwrap();

        // A frame that round-trips (created here, visits another
        // thread, comes home) is still recyclable on its origin.
        let here = Frame::new(vec![9u8; 16]);
        let here = std::thread::spawn(move || here).join().unwrap();
        let before = pool_len();
        drop(here);
        assert_eq!(pool_len(), before + 1, "round-tripped buffer pools at home");
    }

    #[test]
    fn deref_feeds_slice_apis() {
        let f = Frame::from(vec![0u8; 64]);
        assert_eq!(f.len(), 64);
        assert!(!f.is_empty());
        assert_eq!(f.to_vec().len(), 64);
        fn takes_slice(s: &[u8]) -> usize {
            s.len()
        }
        assert_eq!(takes_slice(&f), 64);
    }
}
