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
//!   per packet: the copy-on-write pops the `Rc` the previous packet
//!   returned;
//! * [`Frame::build`] encodes a new frame straight into such a recycled
//!   buffer, so control-plane senders share the pool with the data plane.
//!
//! The count is an [`Rc`], not an `Arc`, on purpose. A simulation world
//! owns `Box<dyn Node>` and is built, run and dropped on one thread
//! (suite workers each run whole worlds; nothing hands a frame across),
//! so an atomic count bought a thread-safety no caller used and charged
//! every probe hop for it: a clone and a drop are two locked
//! read-modify-writes, a copy-on-write six. `Frame` is therefore
//! `!Send + !Sync`, and the compiler holds the line:
//!
//! ```compile_fail
//! let frame = sc_net::Frame::new(vec![0u8; 64]);
//! // error[E0277]: `Rc<Vec<u8>>` cannot be sent between threads safely
//! std::thread::spawn(move || drop(frame));
//! ```
//!
//! Bytes that must cross threads (a suite's shared input) travel as
//! plain `Vec<u8>` / `Arc<[u8]>` above the kernel and become a `Frame`
//! on the thread that runs the world.
//!
//! `Deref<Target = [u8]>` keeps every parser call site (`parse(&frame)`)
//! untouched.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Cap on recycled buffers per thread (steady-state forwarding needs a
/// handful; the cap bounds memory after bursts).
const POOL_CAP: usize = 64;

thread_local! {
    /// Retired sole-holder frames, control block and byte buffer both
    /// intact, ready to back the next copy-on-write without touching
    /// the allocator. Per-thread because a simulation world is built,
    /// run and dropped on one thread.
    static POOL: RefCell<Vec<Rc<Vec<u8>>>> = const { RefCell::new(Vec::new()) };
}

/// A shared immutable-until-written frame buffer.
///
/// The inner `Option` is an implementation detail of buffer recycling
/// (`Drop` moves the `Rc` into the pool); it is `Some` at every other
/// moment of the frame's life.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame(Option<Rc<Vec<u8>>>);

impl Frame {
    /// Wrap an encoded frame.
    pub fn new(bytes: Vec<u8>) -> Frame {
        Frame(Some(Rc::new(bytes)))
    }

    /// Encode a frame straight into a recycled buffer: `fill` receives
    /// it empty and appends the bytes. A sender that builds its frames
    /// this way and whose receiver drops them after reading allocates
    /// nothing per frame in steady state.
    pub fn build(fill: impl FnOnce(&mut Vec<u8>)) -> Frame {
        let mut rc = pooled();
        let buf = Rc::get_mut(&mut rc).expect("pooled rc is sole-holder");
        buf.clear();
        fill(buf);
        Frame(Some(rc))
    }

    #[inline]
    fn rc(&self) -> &Rc<Vec<u8>> {
        self.0.as_ref().expect("frame already retired")
    }

    /// Mutable access for in-place patching (MAC rewrite, TTL decrement,
    /// sequence stamping). O(1) when this is the only holder; clones the
    /// bytes first (into a recycled buffer when one is free) when the
    /// buffer is shared, so no other holder ever observes the mutation.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        // No weak refs exist anywhere in the workspace, so strong_count
        // is the whole sharing story.
        if Rc::strong_count(self.rc()) > 1 {
            // Copy-on-write backed by the recycle pool: pooled rcs are
            // sole-holder by construction, so `get_mut` succeeds.
            let mut rc = pooled();
            let buf = Rc::get_mut(&mut rc).expect("pooled rc is sole-holder");
            buf.clear();
            buf.extend_from_slice(self.rc());
            self.0 = Some(rc);
        }
        Rc::get_mut(self.0.as_mut().expect("frame already retired"))
            .expect("sole holder after copy-on-write")
    }

    /// Copy out the bytes (interop with owned-`Vec<u8>` APIs such as
    /// control-message payloads).
    pub fn to_vec(&self) -> Vec<u8> {
        self.rc().as_ref().clone()
    }

    /// Number of holders sharing this buffer (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(self.rc())
    }
}

/// A retired buffer from this thread's pool (contents stale), or a
/// fresh empty one.
fn pooled() -> Rc<Vec<u8>> {
    POOL.with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| Rc::new(Vec::new()))
}

impl Drop for Frame {
    fn drop(&mut self) {
        // Last holder: retire the whole Rc (control block + bytes)
        // into the pool instead of freeing it.
        if let Some(rc) = self.0.take() {
            if Rc::strong_count(&rc) == 1 && rc.capacity() > 0 {
                POOL.with(|p| {
                    let mut p = p.borrow_mut();
                    if p.len() < POOL_CAP {
                        p.push(rc);
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
        self.rc().as_slice()
    }
}

impl AsRef<[u8]> for Frame {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.rc().as_slice()
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
        write!(f, "Frame[{}; rc={}]", self.rc().len(), self.ref_count())
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
