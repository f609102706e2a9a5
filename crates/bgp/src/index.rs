//! The prefix index under [`LocRib`](crate::rib::LocRib) and
//! [`AdjRibOut`](crate::adj_out::AdjRibOut): exact match plus an ordered
//! walk, for keys that arrive mostly in ascending order.
//!
//! Every UPDATE that reaches a RIB lists its NLRI in ascending prefix
//! order — a provider's export, the [`RunPacker`](crate::pack::RunPacker)'s
//! messages, the churn bursts drawn from a sorted universe — so the prefix
//! a lookup wants is almost always in the block the previous one landed
//! in, or the next. [`PrefixIndex`] is a `Vec` of sorted blocks of up to
//! [`BLOCK`] entries beside a `Vec` of each block's lower bound, and a
//! *finger*: the block the last mutating lookup landed in. A lookup tries
//! that block, then the one after it, and only when both miss
//! binary-searches the bounds; inside a block it binary-searches the
//! keys. A B-tree paid a root-to-leaf descent of about seven nodes for
//! every prefix of every such UPDATE.
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
//! Random-order inserts pay a move of the top-level vectors at every
//! split, O(blocks); with 128-entry blocks a shuffled 500k-key load stays
//! within about 10% of a `BTreeMap`'s per-insert cost.

use sc_net::Ipv4Prefix;

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
            len: 0,
        }
    }
}

impl<V> PrefixIndex<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The block whose range holds `key`, trying the finger and the block
    /// after it before a search of the bounds. The index has a block.
    fn block_of(&self, key: Ipv4Prefix) -> usize {
        let holds =
            |b: usize| self.lows[b] <= key && self.lows.get(b + 1).is_none_or(|next| key < *next);
        let finger = self.finger;
        if holds(finger) {
            finger
        } else if finger + 1 < self.lows.len() && holds(finger + 1) {
            finger + 1
        } else {
            self.lows.partition_point(|low| *low <= key) - 1
        }
    }

    /// `key`'s block and its position there (`Err`: where it would go).
    /// The index has a block.
    fn locate(&self, key: Ipv4Prefix) -> (usize, Result<usize, usize>) {
        let block = self.block_of(key);
        (
            block,
            self.blocks[block].binary_search_by(|(k, _)| k.cmp(&key)),
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
        self.finger = block;
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
                self.finger = block - 1;
                self.shrink_top();
            }
        }
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
                self.finger = block;
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
        self.finger = block;
        self.len += 1;
        let entries = &mut self.blocks[block];
        if entries.len() == entries.capacity() {
            // Doubling, capped at a full block.
            entries.reserve_exact(entries.len().max(4).min(BLOCK - entries.len()));
        }
        entries.insert(at, (key, make()));
        &mut entries[at].1
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
        self.shrink_top();
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &V)> {
        self.blocks
            .iter()
            .flatten()
            .map(|(key, value)| (*key, value))
    }

    /// Give back top-level capacity the blocks no longer use.
    fn shrink_top(&mut self) {
        if self.blocks.len() * 4 <= self.blocks.capacity() {
            self.blocks.shrink_to(self.blocks.len() * 2);
            self.lows.shrink_to(self.lows.len() * 2);
        }
    }
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
            assert!(self.blocks.is_empty() || self.finger < self.blocks.len());
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
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..20, any::<u16>(), any::<u32>()).prop_map(|(kind, k, v)| match kind {
            0..=7 => Op::Put(k, v),
            8..=10 => Op::Get(k),
            11..=15 => Op::Remove(k),
            16 => Op::Drain(k, v as u16 % 600),
            17 => Op::Retain(2 + v % 7),
            _ => Op::Iter,
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
                }
                index.check();
                prop_assert_eq!(index.len(), model.len());
            }
            same(&index, &model);
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
    /// each load then looked up, overwritten, thinned by `retain` and half
    /// removed.
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
