//! The prefix index under [`LocRib`](crate::rib::LocRib) and
//! [`AdjRibOut`](crate::adj_out::AdjRibOut): exact match plus an ordered
//! walk, for keys that arrive mostly in ascending order.
//!
//! Every UPDATE that reaches a RIB lists its NLRI in ascending prefix
//! order — a provider's export, the [`RunPacker`](crate::pack::RunPacker)'s
//! messages, the churn bursts drawn from a sorted universe — so the prefix
//! a lookup wants is almost always a few slots past the one the previous
//! lookup landed on. [`PrefixIndex`] is a `Vec` of sorted blocks of up to
//! [`BLOCK`] entries beside a `Vec` of each block's lower bound, and two
//! fingers: the block the last mutating lookup landed in, and the slot
//! there it found or filled. A lookup in that block
//!
//! * for a key past the block's last entry is an append: one comparison;
//! * for a key at or past the slot gallops forward from it (+1, +2, +4, …)
//!   and halves the bracket it lands in, about `2·log2(d)` comparisons
//!   for a key `d` slots on;
//! * for any other key tries the finger block and the one after it, then
//!   binary-searches the bounds, then the block.
//!
//! The fingers are only hints: clamped into the index and checked against
//! the key before use, so a stale pair costs a search, never an answer.
//! A B-tree paid a root-to-leaf descent of about seven nodes for every
//! prefix of every such UPDATE, and a search of a full block costs about
//! ten comparisons with its bounds; the tests count them
//! (`a_run_costs_comparisons_by_its_stride_not_the_table`: at most 3 a
//! key for an ascending load, `2·log2(8) + 3` for stride-8 runs).
//!
//! * An insert past the last key of a full block opens a new block at
//!   that key, so an ascending load fills every block it leaves behind;
//!   any other insert into a full block splits it in half.
//! * An emptied block other than the first is freed and its range joins
//!   the block before it; an emptied first block keeps its range and
//!   gives its memory back. The two top-level vectors shrink with the
//!   block count, so a drained index holds a few dozen bytes.
//! * No block's capacity passes [`BLOCK`]: a full table costs its entries
//!   plus 32 B a block.
//!
//! Random order is the weak side: every split moves the top-level
//! vectors, O(blocks), and a key outside the finger block pays the two
//! finger comparisons before its search. With 128-entry blocks a
//! shuffled 500k-key load stays within about 15% of a `BTreeMap`'s
//! per-insert cost.

use sc_net::Ipv4Prefix;
use std::cmp::Ordering;

/// Entries a block holds at most.
const BLOCK: usize = 128;

/// An ordered map from prefixes to `V`; see the module doc.
#[derive(Clone, Debug)]
pub(crate) struct PrefixIndex<V> {
    /// Sorted within and across blocks. Only the first may be empty.
    blocks: Vec<Vec<(Ipv4Prefix, V)>>,
    /// `lows[i]` is the least key block `i` may hold, ascending; the
    /// first is [`Ipv4Prefix::DEFAULT`], the least prefix, and block `i`
    /// holds keys below `lows[i + 1]`.
    lows: Vec<Ipv4Prefix>,
    /// The block the last mutating lookup landed in.
    finger: usize,
    /// The last slot in `finger`'s block at or below the key that lookup
    /// (or a later [`PrefixIndex::remove`]) was for, or 0 if none is.
    pos: usize,
    len: usize,
}

/// Where [`PrefixIndex::find`] found a key; valid until the next
/// mutation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Found {
    block: usize,
    at: usize,
}

impl<V> Default for PrefixIndex<V> {
    fn default() -> Self {
        PrefixIndex {
            blocks: Vec::new(),
            lows: Vec::new(),
            finger: 0,
            pos: 0,
            len: 0,
        }
    }
}

impl<V> PrefixIndex<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The block whose range holds `key`, trying `finger` and the block
    /// after it before a search of the bounds.
    fn block_of(&self, key: Ipv4Prefix, finger: usize) -> usize {
        let holds = |b: usize| cmp(self.lows[b], key).is_le() && self.below_end(b, key);
        if holds(finger) {
            finger
        } else if finger + 1 < self.lows.len() && holds(finger + 1) {
            finger + 1
        } else {
            self.lows.partition_point(|low| cmp(*low, key).is_le()) - 1
        }
    }

    /// Is `key` below the next block's lower bound, if there is one?
    fn below_end(&self, block: usize, key: Ipv4Prefix) -> bool {
        self.lows
            .get(block + 1)
            .is_none_or(|next| cmp(key, *next).is_lt())
    }

    /// `key`'s block and its position there (`Err`: where it would go).
    /// The index has a block.
    ///
    /// In the finger block, a key past the last entry is an append, and a
    /// key at or past the position finger gallops forward from it; any
    /// other key searches the bounds and then its block. Both fingers are
    /// clamped and checked against `key` first, so they are only hints.
    fn locate(&self, key: Ipv4Prefix) -> (usize, Result<usize, usize>) {
        let finger = self.finger.min(self.blocks.len() - 1);
        let entries = &self.blocks[finger];
        if let Some(last) = entries.len().checked_sub(1) {
            if cmp(entries[last].0, key).is_lt() {
                if self.below_end(finger, key) {
                    return (finger, Err(last + 1));
                }
            } else {
                let pos = self.pos.min(last);
                match cmp(entries[pos].0, key) {
                    Ordering::Equal => return (finger, Ok(pos)),
                    // entries[pos] < key <= entries[last].
                    Ordering::Less => return (finger, gallop(entries, pos, last, key)),
                    Ordering::Greater => {}
                }
            }
        }
        let block = self.block_of(key, finger);
        (
            block,
            self.blocks[block].binary_search_by(|(k, _)| cmp(*k, key)),
        )
    }

    /// [`PrefixIndex::locate`], for an index that may have no block.
    fn search(&self, key: Ipv4Prefix) -> Option<(usize, Result<usize, usize>)> {
        (!self.blocks.is_empty()).then(|| self.locate(key))
    }

    pub(crate) fn get(&self, key: Ipv4Prefix) -> Option<&V> {
        let (block, Ok(at)) = self.search(key)? else {
            return None;
        };
        Some(&self.blocks[block][at].1)
    }

    pub(crate) fn find(&mut self, key: Ipv4Prefix) -> Option<Found> {
        let (block, at) = self.search(key)?;
        self.point(block, at.unwrap_or_else(|at| at.saturating_sub(1)));
        Some(Found {
            block,
            at: at.ok()?,
        })
    }

    pub(crate) fn get_mut(&mut self, found: Found) -> &mut V {
        &mut self.blocks[found.block][found.at].1
    }

    /// Take the entry `found` out; its block goes if that emptied it.
    pub(crate) fn remove(&mut self, found: Found) -> V {
        let Found { block, at } = found;
        let (_, value) = self.blocks[block].remove(at);
        self.len -= 1;
        if self.blocks[block].is_empty() {
            if block == 0 {
                self.blocks[0] = Vec::new();
            } else {
                self.blocks.remove(block);
                self.lows.remove(block);
                self.point(block - 1, usize::MAX);
                self.shrink_top();
                return value;
            }
        }
        self.point(block, at.saturating_sub(1));
        value
    }

    /// The value at `key`, made by `make` first if there is none.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: Ipv4Prefix,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        if self.blocks.is_empty() {
            self.blocks.push(Vec::new());
            self.lows.push(Ipv4Prefix::DEFAULT);
        }
        let (mut block, at) = self.locate(key);
        let mut at = match at {
            Ok(at) => {
                self.point(block, at);
                return &mut self.blocks[block][at].1;
            }
            Err(at) => at,
        };
        if self.blocks[block].len() == BLOCK {
            if at == BLOCK {
                // Past the full block's last key: the next ascending keys
                // follow this one into a block of their own.
                block += 1;
                at = 0;
                self.blocks.insert(block, Vec::with_capacity(BLOCK));
                self.lows.insert(block, key);
            } else {
                let upper = self.blocks[block].split_off(BLOCK / 2);
                self.lows.insert(block + 1, upper[0].0);
                self.blocks.insert(block + 1, upper);
                if at > BLOCK / 2 {
                    block += 1;
                    at -= BLOCK / 2;
                }
            }
        }
        self.len += 1;
        let entries = &mut self.blocks[block];
        if entries.len() == entries.capacity() {
            // Doubling, capped at a full block.
            entries.reserve_exact(entries.len().max(4).min(BLOCK - entries.len()));
        }
        entries.insert(at, (key, make()));
        self.point(block, at);
        &mut self.blocks[block][at].1
    }

    /// Keep the entries `keep` says to, visiting all in key order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(Ipv4Prefix, &mut V) -> bool) {
        let mut kept = 0;
        for block in 0..self.blocks.len() {
            self.blocks[block].retain_mut(|(key, value)| keep(*key, value));
            if block == 0 || !self.blocks[block].is_empty() {
                self.blocks.swap(kept, block);
                self.lows.swap(kept, block);
                kept += 1;
            }
        }
        self.blocks.truncate(kept);
        self.lows.truncate(kept);
        if self.blocks.first().is_some_and(Vec::is_empty) {
            self.blocks[0] = Vec::new();
        }
        self.len = self.blocks.iter().map(Vec::len).sum();
        self.finger = 0;
        self.pos = 0;
        self.shrink_top();
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        self.blocks
            .iter()
            .flatten()
            .map(|(key, value)| (*key, value))
    }

    /// Aim the fingers at slot `at` of `block`, or at its last entry if
    /// `at` is past it.
    fn point(&mut self, block: usize, at: usize) {
        self.finger = block;
        self.pos = at.min(self.blocks[block].len().saturating_sub(1));
    }

    /// Give back top-level capacity the blocks no longer use.
    fn shrink_top(&mut self) {
        if self.blocks.len() * 4 <= self.blocks.capacity() {
            self.blocks.shrink_to(self.blocks.len() * 2);
            self.lows.shrink_to(self.lows.len() * 2);
        }
    }
}

/// `a.cmp(&b)`; the tests count the calls.
#[inline]
fn cmp(a: Ipv4Prefix, b: Ipv4Prefix) -> Ordering {
    #[cfg(test)]
    tests::COMPARISONS.set(tests::COMPARISONS.get() + 1);
    a.cmp(&b)
}

/// Where `key` is or would go in `entries`, given `entries[pos] < key <=
/// entries[last]`: probe `pos + 1`, `pos + 2`, `pos + 4`, … (the last
/// probe clamped to `last`) until one is not below `key`, then halve the
/// bracket between it and the probe before.
fn gallop<V>(
    entries: &[(Ipv4Prefix, V)],
    pos: usize,
    last: usize,
    key: Ipv4Prefix,
) -> Result<usize, usize> {
    let mut below = pos;
    let mut step = 1;
    let mut above = loop {
        let probe = (pos + step).min(last);
        match cmp(entries[probe].0, key) {
            Ordering::Less => below = probe,
            Ordering::Equal => return Ok(probe),
            Ordering::Greater => break probe,
        }
        step *= 2;
    };
    // entries[below] < key < entries[above].
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        match cmp(entries[mid].0, key) {
            Ordering::Less => below = mid,
            Ordering::Equal => return Ok(mid),
            Ordering::Greater => above = mid,
        }
    }
    Err(above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    thread_local! {
        /// Bytes this thread has allocated and not yet freed: each test
        /// runs on its own thread, so the tests do not see each other.
        static LIVE: Cell<isize> = const { Cell::new(0) };
        /// Key comparisons this thread's indices have made.
        pub(super) static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    }

    /// `System`, keeping [`LIVE`].
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // whose contract is the one the caller was held to; the counter is a
    // const-initialized thread-local without a destructor, so touching it
    // neither allocates nor runs after thread teardown.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            LIVE.set(LIVE.get() + layout.size() as isize);
            // SAFETY: the caller's `layout`, passed through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            LIVE.set(LIVE.get() + layout.size() as isize);
            // SAFETY: the caller's `layout`, passed through.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            LIVE.set(LIVE.get() + new_size as isize - layout.size() as isize);
            // SAFETY: `ptr` came from this allocator, so from `System`,
            // with this `layout`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.set(LIVE.get() - layout.size() as isize);
            // SAFETY: `ptr` came from this allocator, so from `System`,
            // with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    impl<V> PrefixIndex<V> {
        /// Panic unless the layout the module doc promises holds.
        fn check(&self) {
            assert_eq!(self.blocks.len(), self.lows.len());
            assert_eq!(self.len, self.blocks.iter().map(Vec::len).sum::<usize>());
            match self.blocks.get(self.finger) {
                Some(entries) => {
                    assert!(self.pos < entries.len().max(1), "position past its block")
                }
                None => assert!(self.blocks.is_empty() && (self.finger, self.pos) == (0, 0)),
            }
            if let Some(first) = self.lows.first() {
                assert_eq!(*first, Ipv4Prefix::DEFAULT);
            }
            for (b, block) in self.blocks.iter().enumerate() {
                assert!(b == 0 || !block.is_empty(), "block {b} empty");
                assert!(block.capacity() <= BLOCK, "block {b} over capacity");
                assert!(block.windows(2).all(|w| w[0].0 < w[1].0));
                let above = self.lows.get(b + 1);
                assert!(block
                    .iter()
                    .all(|(k, _)| self.lows[b] <= *k && above.is_none_or(|next| k < next)));
            }
        }
    }

    /// Distinct prefixes ascending with `k` in a space of 4,096: four
    /// lengths over the same network bits, so equal bits at different
    /// lengths sit side by side.
    fn key(k: u16) -> Ipv4Prefix {
        let k = u32::from(k) % 4096;
        Ipv4Prefix::new(Ipv4Addr::from((k >> 2) << 12), 20 + 2 * (k & 3) as u8)
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Put(u16, u32),
        Get(u16),
        Remove(u16),
        /// Remove the next `n` keys from `k` on: empties whole blocks.
        Drain(u16, u16),
        /// Keep the entries whose value is not a multiple of `m`; add one
        /// to every kept value.
        Retain(u32),
        Iter,
        /// Put `v` at every key of the run.
        PutRun(Run, u32),
        /// Look every key of the run up, and add one to those there.
        FindRun(Run),
        /// Remove every key of the run that is there.
        RemoveRun(Run),
    }

    /// Every `stride`-th key from `from` on, `n` of them at most, in
    /// ascending order: the shape of an UPDATE's NLRI.
    #[derive(Clone, Copy, Debug)]
    struct Run {
        from: u16,
        stride: u16,
        n: u16,
    }

    impl Run {
        fn keys(self) -> impl Iterator<Item = Ipv4Prefix> {
            (self.from % 4096..4096)
                .step_by(self.stride.into())
                .take(self.n.into())
                .map(key)
        }
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..26, any::<u16>(), any::<u32>()).prop_map(|(kind, k, v)| {
            // Strides 1..64 over up to 400 keys: many runs cross a block
            // boundary, and a put run into full blocks splits them.
            let run = Run {
                from: k,
                stride: 1 + (v >> 16) as u16 % 63,
                n: v as u16 % 400,
            };
            match kind {
                0..=7 => Op::Put(k, v),
                8..=10 => Op::Get(k),
                11..=15 => Op::Remove(k),
                16 => Op::Drain(k, v as u16 % 600),
                17 => Op::Retain(2 + v % 7),
                18 | 19 => Op::Iter,
                20 | 21 => Op::PutRun(run, v),
                22 | 23 => Op::FindRun(run),
                _ => Op::RemoveRun(run),
            }
        })
    }

    /// The keys `0..n` in the given order: 0 ascending, 1 descending,
    /// else a permutation seeded by `order`.
    fn load_order(order: u32, n: u16) -> Vec<u16> {
        let mut keys: Vec<u16> = (0..n).collect();
        match order {
            0 => {}
            1 => keys.reverse(),
            seed => shuffle(&mut keys, u64::from(seed)),
        }
        keys
    }

    /// Fisher–Yates over a splitmix64 stream.
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed;
        for i in (1..items.len()).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            items.swap(i, (z % (i as u64 + 1)) as usize);
        }
    }

    fn same<V: PartialEq + std::fmt::Debug>(
        index: &PrefixIndex<V>,
        model: &BTreeMap<Ipv4Prefix, V>,
    ) {
        index.check();
        assert_eq!(index.len(), model.len());
        assert!(index.iter().eq(model.iter().map(|(k, v)| (*k, v))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every operation agrees with a `BTreeMap`, after a load in
        /// ascending, descending or random order.
        #[test]
        fn the_index_is_a_btreemap(
            order in 0u32..6,
            loaded in 0u16..2_000,
            ops in vec(op(), 0..400),
        ) {
            let mut index = PrefixIndex::default();
            let mut model = BTreeMap::new();
            for k in load_order(order, loaded) {
                *index.get_or_insert_with(key(k), || 0) = u32::from(k);
                model.insert(key(k), u32::from(k));
            }
            same(&index, &model);
            for op in ops {
                match op {
                    Op::Put(k, v) => {
                        let fresh = !model.contains_key(&key(k));
                        let mut made = false;
                        let slot = index.get_or_insert_with(key(k), || {
                            made = true;
                            v
                        });
                        prop_assert_eq!(made, fresh);
                        *slot = v;
                        model.insert(key(k), v);
                    }
                    Op::Get(k) => prop_assert_eq!(index.get(key(k)), model.get(&key(k))),
                    Op::Remove(k) => {
                        let found = index.find(key(k));
                        prop_assert_eq!(found.is_some(), model.contains_key(&key(k)));
                        if let Some(found) = found {
                            prop_assert_eq!(*index.get_mut(found), model[&key(k)]);
                            prop_assert_eq!(Some(index.remove(found)), model.remove(&key(k)));
                        }
                    }
                    Op::Drain(k, n) => {
                        let doomed: Vec<Ipv4Prefix> =
                            model.range(key(k)..).map(|(p, _)| *p).take(n.into()).collect();
                        for p in doomed {
                            let found = index.find(p).expect("in the model");
                            prop_assert_eq!(Some(index.remove(found)), model.remove(&p));
                        }
                    }
                    Op::Retain(m) => {
                        let mut seen = Vec::new();
                        index.retain(|p, v| {
                            seen.push(p);
                            *v = v.wrapping_add(1);
                            *v % m != 0
                        });
                        prop_assert!(seen.iter().eq(model.keys()), "retain visits in key order");
                        model.retain(|_, v| {
                            *v = v.wrapping_add(1);
                            *v % m != 0
                        });
                    }
                    Op::Iter => prop_assert!(index.iter().eq(model.iter().map(|(k, v)| (*k, v)))),
                    Op::PutRun(run, v) => {
                        for p in run.keys() {
                            let fresh = !model.contains_key(&p);
                            let mut made = false;
                            let slot = index.get_or_insert_with(p, || {
                                made = true;
                                v
                            });
                            prop_assert_eq!(made, fresh);
                            *slot = v;
                            model.insert(p, v);
                        }
                    }
                    Op::FindRun(run) => {
                        for p in run.keys() {
                            prop_assert_eq!(index.get(p), model.get(&p));
                            let found = index.find(p);
                            prop_assert_eq!(found.is_some(), model.contains_key(&p));
                            if let Some(found) = found {
                                let v = index.get_mut(found);
                                *v = v.wrapping_add(1);
                                let m = model.get_mut(&p).expect("found");
                                *m = m.wrapping_add(1);
                                prop_assert_eq!(*v, *m);
                            }
                        }
                    }
                    Op::RemoveRun(run) => {
                        for p in run.keys() {
                            match index.find(p) {
                                Some(found) => {
                                    prop_assert_eq!(Some(index.remove(found)), model.remove(&p));
                                }
                                None => prop_assert!(!model.contains_key(&p)),
                            }
                        }
                    }
                }
                index.check();
                prop_assert_eq!(index.len(), model.len());
            }
            same(&index, &model);
        }

        /// The fingers are only hints: set to anything before each lookup,
        /// in range or far past it, they change no answer.
        #[test]
        fn a_stale_hint_changes_no_answer(
            order in 0u32..6,
            loaded in 0u16..2_000,
            lookups in vec((any::<u8>(), 0usize..24, 0usize..160, any::<u16>()), 0..400),
        ) {
            let mut index = PrefixIndex::default();
            let mut model = BTreeMap::new();
            for k in load_order(order, loaded) {
                *index.get_or_insert_with(key(k), || 0) = u32::from(k);
                model.insert(key(k), u32::from(k));
            }
            for (what, finger, pos, k) in lookups {
                (index.finger, index.pos) = if what / 3 % 8 == 0 {
                    (usize::MAX - finger, usize::MAX - pos)
                } else {
                    (finger, pos)
                };
                let p = key(k);
                match what % 3 {
                    0 => prop_assert_eq!(index.get(p), model.get(&p)),
                    1 => {
                        let found = index.find(p);
                        prop_assert_eq!(found.is_some(), model.contains_key(&p));
                        if let Some(found) = found {
                            prop_assert_eq!(Some(index.remove(found)), model.remove(&p));
                        }
                        index.check();
                    }
                    _ => {
                        let fresh = !model.contains_key(&p);
                        let mut made = false;
                        *index.get_or_insert_with(p, || {
                            made = true;
                            0
                        }) = u32::from(k);
                        prop_assert_eq!(made, fresh);
                        model.insert(p, u32::from(k));
                        index.check();
                    }
                }
            }
            prop_assert_eq!(index.len(), model.len());
            prop_assert!(index.iter().eq(model.iter().map(|(k, v)| (*k, v))));
        }
    }

    /// Key comparisons a key, a work count with no timer in it. An
    /// ascending load appends at a cost that does not grow with the table
    /// (50k and 100k keys), and stride-8 runs over a loaded index — look
    /// up, withdraw, re-announce — gallop from the last hit, about
    /// 2·log2(8) comparisons, rather than search a 128-entry block.
    #[test]
    fn a_run_costs_comparisons_by_its_stride_not_the_table() {
        let keys =
            |n: u32| (0..n).map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24));
        let per_key = |count: usize, work: &mut dyn FnMut()| {
            let before = COMPARISONS.get();
            work();
            (COMPARISONS.get() - before) as f64 / count as f64
        };
        let mut loaded = [50_000, 100_000].map(|n| {
            let mut index = PrefixIndex::default();
            let cost = per_key(n as usize, &mut || {
                for (i, p) in keys(n).enumerate() {
                    *index.get_or_insert_with(p, || 0) = i;
                }
            });
            assert!(
                cost <= 3.0,
                "an ascending load of {n} keys: {cost} comparisons a key"
            );
            (index, cost)
        });
        let ratio = loaded[1].1 / loaded[0].1;
        assert!(ratio <= 1.1, "100k keys cost {ratio} times 50k's a key");

        let index = &mut loaded[1].0;
        let run: Vec<Ipv4Prefix> = keys(100_000).skip(3).step_by(8).collect();
        let bound = 2.0 * 8f64.log2() + 3.0;
        let find = per_key(run.len(), &mut || {
            for p in &run {
                assert!(index.find(*p).is_some());
            }
        });
        let withdraw = per_key(run.len(), &mut || {
            for p in &run {
                let found = index.find(*p).expect("loaded");
                index.remove(found);
            }
        });
        let announce = per_key(run.len(), &mut || {
            for (i, p) in run.iter().enumerate() {
                index.get_or_insert_with(*p, || i);
            }
        });
        index.check();
        assert_eq!(index.len(), 100_000);
        for (what, cost) in [
            ("find", find),
            ("withdraw", withdraw),
            ("announce", announce),
        ] {
            assert!(
                cost <= bound,
                "a stride-8 {what} run: {cost} comparisons a key"
            );
        }
    }

    /// An ascending load fills every block but the last; a descending one
    /// leaves halves.
    #[test]
    fn an_ascending_load_fills_its_blocks() {
        let mut index = PrefixIndex::default();
        for k in 0..1_000 {
            index.get_or_insert_with(key(k), || ());
        }
        index.check();
        assert_eq!(index.blocks.len(), 1_000usize.div_ceil(BLOCK));
        let last = index.blocks.len() - 1;
        assert!(index.blocks[..last].iter().all(|b| b.len() == BLOCK));

        let mut index = PrefixIndex::default();
        for k in (0..1_000).rev() {
            index.get_or_insert_with(key(k), || ());
        }
        index.check();
        assert!(index.blocks[1..].iter().all(|b| b.len() == BLOCK / 2));
    }

    /// Loading 100k keys and removing them all gives back all but at most
    /// one block's bytes, in any removal order.
    #[test]
    fn a_drained_index_gives_its_memory_back() {
        let one_block = (BLOCK * size_of::<(Ipv4Prefix, u32)>()) as isize;
        let keys: Vec<Ipv4Prefix> = (0..100_000u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24))
            .collect();
        for order in 0..3 {
            let removal = match order {
                0 => keys.clone(),
                1 => keys.iter().rev().copied().collect(),
                _ => {
                    let mut shuffled = keys.clone();
                    shuffle(&mut shuffled, 7);
                    shuffled
                }
            };
            let start = LIVE.get();
            let mut index = PrefixIndex::default();
            for (i, p) in keys.iter().enumerate() {
                *index.get_or_insert_with(*p, || 0) = i as u32;
            }
            let loaded = LIVE.get() - start;
            for p in &removal {
                let found = index.find(*p).expect("loaded");
                index.remove(found);
            }
            index.check();
            let left = LIVE.get() - start;
            assert!(
                left <= one_block,
                "removal order {order}: {left} B left of {loaded} B (one block is {one_block} B)"
            );
        }
    }

    /// The whole table, cross-checked against a `BTreeMap` at every
    /// operation: 500k keys in ascending, shuffled and descending order,
    /// each load then looked up, overwritten, looked up and removed and
    /// put back in ascending runs of strides 1 to 64, half removed and
    /// thinned by `retain`.
    #[test]
    #[ignore = "a full table, three times over: run in release"]
    fn a_full_table_matches_a_btreemap() {
        // Distinct: an odd multiplier permutes the 24 network bits.
        let keys: Vec<Ipv4Prefix> = (0..500_000u32)
            .map(|i| {
                let bits = (i.wrapping_mul(0x9e37_79b1) & 0x00ff_ffff) << 8;
                Ipv4Prefix::new(Ipv4Addr::from(bits), 24 + (i % 3) as u8 * 4)
            })
            .collect();
        for order in 0..3 {
            let mut load = keys.clone();
            match order {
                0 => load.sort_unstable(),
                1 => shuffle(&mut load, 2026),
                _ => load.sort_unstable_by(|a, b| b.cmp(a)),
            }
            let mut index = PrefixIndex::default();
            let mut model = BTreeMap::new();
            for (i, p) in load.iter().enumerate() {
                let fresh = !model.contains_key(p);
                let mut made = false;
                *index.get_or_insert_with(*p, || {
                    made = true;
                    0
                }) = i;
                assert_eq!(made, fresh, "{p:?}");
                model.insert(*p, i);
                assert_eq!(index.len(), model.len());
            }
            index.check();
            for (i, p) in load.iter().enumerate() {
                assert_eq!(index.get(*p), model.get(p));
                let found = index.find(*p).expect("loaded");
                *index.get_mut(found) += i;
                *model.get_mut(p).expect("loaded") += i;
            }
            // Runs as an UPDATE lists its NLRI: ascending, every
            // `stride`-th key.
            let sorted: Vec<Ipv4Prefix> = model.keys().copied().collect();
            let run = |from: usize, stride: usize| sorted.iter().skip(from).step_by(stride);
            for (from, stride) in [(0, 1), (1, 3), (2, 8), (5, 61)] {
                for p in run(from, stride) {
                    let found = index.find(*p).expect("loaded");
                    assert_eq!(index.get_mut(found), model.get_mut(p).expect("loaded"));
                }
            }
            for (from, stride) in [(3, 7), (4, 64), (0, 2)] {
                for p in run(from, stride) {
                    match index.find(*p) {
                        Some(found) => assert_eq!(Some(index.remove(found)), model.remove(p)),
                        None => assert!(!model.contains_key(p)),
                    }
                }
                index.check();
                assert_eq!(index.len(), model.len());
            }
            for (i, p) in run(3, 7).enumerate() {
                let fresh = !model.contains_key(p);
                let mut made = false;
                *index.get_or_insert_with(*p, || {
                    made = true;
                    0
                }) = i;
                assert_eq!(made, fresh, "{p:?}");
                model.insert(*p, i);
            }
            index.check();
            for p in load.iter().step_by(2) {
                match index.find(*p) {
                    Some(found) => assert_eq!(Some(index.remove(found)), model.remove(p)),
                    None => assert!(!model.contains_key(p)),
                }
            }
            index.retain(|_, v| *v % 3 != 0);
            model.retain(|_, v| *v % 3 != 0);
            index.check();
            assert_eq!(index.len(), model.len());
            assert!(
                index.iter().eq(model.iter().map(|(k, v)| (*k, v))),
                "order {order}"
            );
        }
    }
}
