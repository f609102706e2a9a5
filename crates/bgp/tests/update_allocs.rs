//! An UPDATE's buffers are allocated at their final size.
//!
//! The ledger's `bgp.decode_allocs_per_update` averages over a whole
//! feed; this binary pins the per-message counts under it with an
//! allocator of its own that counts only while one call runs. Decoding
//! a maximum-size announcement allocates the NLRI, AS_PATH's two
//! vectors and the shared attribute `Arc`, once each, and a decoded
//! AS_PATH's vectors hold what they carry; encoding into an empty buffer
//! allocates it once; splitting an UPDATE that already fits into a
//! buffer with room allocates nothing, and splitting one that does not
//! allocates each part's lists once, at their size. A `Vec` that grows
//! by doubling again shows up here as extra allocations.

use sc_bgp::attrs::{AsPath, RouteAttrs};
use sc_bgp::msg::{BgpMessage, UpdateMsg, MAX_MESSAGE_LEN};
use sc_net::Ipv4Prefix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

thread_local! {
    /// Whether this thread is metering, and what it allocated meanwhile.
    static METERING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the calls that hand out a block.
struct Counting;

impl Counting {
    fn count() {
        if METERING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; the counters are
// const-initialized thread-locals without destructors, so touching them
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and count what it allocates; what it returns is dropped
/// after the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.get();
    METERING.set(true);
    let out = f();
    METERING.set(false);
    (ALLOCATIONS.get() - before, out)
}

fn slash24s(n: u32) -> Vec<Ipv4Prefix> {
    (0..n)
        .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24))
        .collect()
}

/// `upd` cut down to the most /24s that fit in [`MAX_MESSAGE_LEN`].
fn max_size(mut upd: UpdateMsg) -> UpdateMsg {
    while upd.encoded_len() > MAX_MESSAGE_LEN {
        upd.nlri.pop();
        upd.withdrawn.pop();
    }
    assert!(
        upd.encoded_len() > MAX_MESSAGE_LEN - 4,
        "{}",
        upd.encoded_len()
    );
    upd
}

fn max_size_announcement() -> UpdateMsg {
    let attrs = RouteAttrs::ebgp(
        AsPath::sequence(vec![65002, 174, 3356]),
        Ipv4Addr::new(10, 0, 0, 2),
    )
    .shared();
    max_size(UpdateMsg::announce(attrs, slash24s(1_100)))
}

#[test]
fn decoding_a_max_size_announcement_allocates_four_blocks() {
    let upd = max_size_announcement();
    let wire = BgpMessage::Update(upd.clone()).encode();
    assert!(wire.len() <= MAX_MESSAGE_LEN);
    let (count, decoded) = allocations(|| BgpMessage::decode(&wire).unwrap());
    assert_eq!(decoded, BgpMessage::Update(upd));
    assert_eq!(count, 4, "NLRI, AS_PATH's segments and ASes, the Arc");
}

#[test]
fn decoding_a_max_size_withdrawal_allocates_once() {
    let upd = max_size(UpdateMsg::withdraw(slash24s(1_100)));
    let wire = BgpMessage::Update(upd.clone()).encode();
    let (count, decoded) = allocations(|| BgpMessage::decode(&wire).unwrap());
    assert_eq!(decoded, BgpMessage::Update(upd));
    assert_eq!(count, 1, "the withdrawn list");
}

#[test]
fn encoding_into_an_empty_buffer_allocates_once() {
    for upd in [
        max_size_announcement(),
        max_size(UpdateMsg::withdraw(slash24s(1_100))),
    ] {
        let msg = BgpMessage::Update(upd);
        let (count, buf) = allocations(|| {
            let mut buf = Vec::new();
            msg.encode_into(&mut buf);
            buf
        });
        assert_eq!(buf, msg.encode());
        assert_eq!(count, 1, "{} bytes", buf.len());
    }
}

#[test]
fn splitting_an_update_that_fits_allocates_nothing() {
    for upd in [
        max_size_announcement(),
        max_size(UpdateMsg::withdraw(slash24s(1_100))),
    ] {
        let mut parts = Vec::with_capacity(1);
        let msg = upd.clone();
        let (count, ()) = allocations(|| msg.split_to_fit(&mut parts));
        assert_eq!(parts, [upd], "a message that fits is passed through");
        assert_eq!(count, 0, "the part lands in the caller's buffer");
    }
}

#[test]
fn a_decoded_as_path_holds_what_it_carries() {
    use sc_bgp::attrs::AsSegment;
    let segments = [
        AsSegment::Sequence(vec![65002, 174]),
        AsSegment::Set(vec![3356, 1299, 2914]),
        AsSegment::Sequence(vec![15169]),
    ];
    for n in 1..=segments.len() {
        let path = AsPath {
            segments: segments[..n].to_vec(),
        };
        let attrs = RouteAttrs::ebgp(path, Ipv4Addr::new(10, 0, 0, 2)).shared();
        let upd = UpdateMsg::announce(attrs, slash24s(4));
        let wire = BgpMessage::Update(upd.clone()).encode();
        let Ok(BgpMessage::Update(decoded)) = BgpMessage::decode(&wire) else {
            panic!("{n} segments: not an UPDATE");
        };
        assert_eq!(decoded, upd);
        let decoded = &decoded.attrs.as_ref().unwrap().as_path.segments;
        assert_eq!(decoded.capacity(), n, "{n} segments");
        for seg in decoded {
            let (AsSegment::Sequence(ases) | AsSegment::Set(ases)) = seg;
            assert_eq!(ases.capacity(), ases.len(), "{seg:?}");
        }
    }
}

/// [`UpdateMsg::split_to_fit`] as it was before it split index ranges:
/// every level copies both halves out of its own lists. The reference
/// the range split must match, part for part.
fn split_by_copying(upd: UpdateMsg, out: &mut Vec<UpdateMsg>) {
    if upd.encoded_len() <= MAX_MESSAGE_LEN {
        out.push(upd);
        return;
    }
    let UpdateMsg {
        withdrawn,
        attrs,
        nlri,
    } = upd;
    assert!(withdrawn.len() > 1 || nlri.len() > 1);
    if nlri.len() >= withdrawn.len() {
        let (a, b) = nlri.split_at(nlri.len() / 2);
        if !withdrawn.is_empty() || !a.is_empty() {
            let left = UpdateMsg {
                withdrawn,
                attrs: attrs.clone(),
                nlri: a.to_vec(),
            };
            split_by_copying(left, out);
        }
        let right = UpdateMsg {
            withdrawn: Vec::new(),
            attrs,
            nlri: b.to_vec(),
        };
        split_by_copying(right, out);
    } else {
        let (a, b) = withdrawn.split_at(withdrawn.len() / 2);
        let left = UpdateMsg {
            withdrawn: a.to_vec(),
            attrs: None,
            nlri: Vec::new(),
        };
        split_by_copying(left, out);
        let right = UpdateMsg {
            withdrawn: b.to_vec(),
            attrs,
            nlri,
        };
        split_by_copying(right, out);
    }
}

/// `n` prefixes of mixed lengths (/8 to /32, so 2 to 5 bytes on the
/// wire), drawn from `seed`.
fn mixed_prefixes(n: usize, seed: u64) -> Vec<Ipv4Prefix> {
    const LENGTHS: [u8; 6] = [8, 16, 19, 22, 24, 32];
    let mut x = seed | 1;
    (0..n as u32)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = LENGTHS[(x >> 32) as usize % LENGTHS.len()];
            Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), len)
        })
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Splitting over index ranges makes the parts the copying recursion
    /// made, and allocates each part's withdrawn and NLRI lists once.
    #[test]
    fn the_range_split_matches_the_copying_one(
        withdrawn in 0usize..5_000,
        nlri in 0usize..5_000,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let attrs = RouteAttrs::ebgp(
            AsPath::sequence(vec![65002, 174, 3356]),
            Ipv4Addr::new(10, 0, 0, 2),
        )
        .shared();
        let upd = UpdateMsg {
            withdrawn: mixed_prefixes(withdrawn, seed),
            attrs: (nlri > 0).then_some(attrs),
            nlri: mixed_prefixes(nlri, !seed),
        };
        let mut want = Vec::new();
        split_by_copying(upd.clone(), &mut want);
        let mut parts = Vec::with_capacity(want.len());
        let (count, ()) = allocations(|| {
            UpdateMsg::split_from(&upd.withdrawn, upd.attrs.as_ref(), &upd.nlri, &mut |part| {
                parts.push(part)
            })
        });
        proptest::prop_assert_eq!(&parts, &want);
        let lists: Vec<&Vec<Ipv4Prefix>> = parts
            .iter()
            .flat_map(|part| [&part.withdrawn, &part.nlri])
            .filter(|list| !list.is_empty())
            .collect();
        proptest::prop_assert_eq!(count, lists.len() as u64, "one allocation per list");
        for list in lists {
            proptest::prop_assert_eq!(list.capacity(), list.len());
        }
        for part in &parts {
            proptest::prop_assert!(part.encoded_len() <= MAX_MESSAGE_LEN);
            proptest::prop_assert!(part.attrs.is_none() || Arc::ptr_eq(part.attrs.as_ref().unwrap(), upd.attrs.as_ref().unwrap()));
        }
    }
}
