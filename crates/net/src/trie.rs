//! A path-compressed binary radix trie over [`Ipv4Prefix`] keys.
//!
//! This is the structure behind the router's forwarding table
//! (`sc_router::Fib`), and it is here for the one question only a trie
//! answers well: **longest-prefix match** on an address, once per
//! forwarded packet that misses the flow cache. It also supports
//! exact-match insert/remove/get (the FIB walker's writes) and ordered
//! iteration — ascending `(network bits, length)`, the order in which the
//! legacy router walks its FIB during convergence.
//!
//! It is *not* the structure behind a RIB. A RIB looks a prefix up
//! exactly or walks all of them in order and never asks for a longest
//! match, and for that access pattern an ordered map is smaller and
//! faster: `sc_bgp`'s `LocRib` indexes its entries with sorted blocks
//! of `(prefix, slot)` pairs whose key order is this trie's iteration
//! order (a proptest in `sc_bgp` pins that the two agree).
//!
//! Nodes live in a `Vec` arena addressed by `u32` indices with a free
//! list: no per-node allocations, and a table of N prefixes has at most
//! 2N - 1 nodes. The value sits inline in *every* node, valueless split
//! nodes included, so what a table costs is set by the value's size: a
//! FIB (4-byte values, 24-byte nodes — asserted below) costs about 25 MB
//! for a 512k-entry full table.
//!
//! Inserts start from a **finger**: the trie keeps the arena path of its
//! last insert, and the next insert descends from the deepest node on
//! that path whose prefix covers the new key, not from the root. A table
//! load writes prefixes in ascending order, so consecutive keys share
//! most of their path and a descent is a step or two. The shortcut is
//! exact: every node covering the key lies on the key's own root path,
//! so the descent from there is the root descent's tail, and a split
//! only swaps arena slots at or below where it starts. The arena, the
//! free list and the iteration order are what a root descent builds. A
//! remove clears the finger, since pruning frees nodes.

use crate::prefix::Ipv4Prefix;
use std::mem::size_of;
use std::net::Ipv4Addr;

const NO_NODE: u32 = u32::MAX;

/// No root-to-node walk is longer: every step down lengthens the node's
/// prefix, and IPv4 prefix lengths run 0..=32.
const MAX_DEPTH: usize = 33;

#[derive(Clone, Debug)]
struct Node<T> {
    /// The key bits accumulated on the path down to (and including) this
    /// node. Inner (split) nodes may carry no value.
    prefix: Ipv4Prefix,
    value: Option<T>,
    /// Child whose next bit after `prefix.len()` is 0 / 1.
    left: u32,
    right: u32,
}

// The FIB stores 4-byte values in the nodes; a wider node moves the RSS
// of every full-table run, so break the build instead.
const _: () = assert!(
    size_of::<Node<u32>>() <= 24,
    "trie node with a 4 B value: 24 B"
);

/// A map from IPv4 prefixes to `T` with longest-prefix-match lookup.
#[derive(Clone, Debug)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
    /// The arena path of the last insert, root first, in
    /// `finger[..finger_len]` (see the module docs).
    finger: [u32; MAX_DEPTH],
    finger_len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NO_NODE,
            len: 0,
            finger: [NO_NODE; MAX_DEPTH],
            finger_len: 0,
        }
    }

    /// Number of stored (prefix, value) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, node: Node<T>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx < NO_NODE, "trie node arena exhausted");
            self.nodes.push(node);
            idx
        }
    }

    /// Insert `value` under `prefix`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let leaf = |prefix| Node {
            prefix,
            value: None,
            left: NO_NODE,
            right: NO_NODE,
        };
        // One descent to the node keyed exactly `prefix`, creating it
        // (valueless, until the end of this call) if the trie has none.
        if self.root == NO_NODE {
            self.root = self.alloc(leaf(prefix));
        }
        // It starts at the finger: the nodes covering `prefix` are a
        // leading run of the last insert's path (coverage is inherited
        // by ancestors), so the deepest one is found by binary search.
        let nodes = &self.nodes;
        let mut depth = self.finger[..self.finger_len]
            .partition_point(|&n| nodes[n as usize].prefix.covers(prefix));
        let mut cur = match depth.checked_sub(1) {
            Some(d) => {
                depth = d;
                self.finger[d]
            }
            None => self.root,
        };
        let idx = loop {
            self.finger[depth] = cur;
            depth += 1;
            let cur_prefix = self.nodes[cur as usize].prefix;
            let common = common_prefix_len(prefix, cur_prefix);

            if common < cur_prefix.len() {
                // The new key diverges inside this node's edge: split.
                let split_prefix = Ipv4Prefix::new(Ipv4Addr::from(prefix.raw_bits()), common);
                // Which side does the existing node go to?
                let cur_bit = cur_prefix.bit(common);
                let moved = self.alloc(leaf(split_prefix));
                // The split node replaces `cur` in its parent, so swap
                // their arena positions to avoid tracking parents: the
                // `cur` slot now holds the split node, `moved` the
                // original node.
                self.nodes.swap(cur as usize, moved as usize);
                if cur_bit {
                    self.nodes[cur as usize].right = moved;
                } else {
                    self.nodes[cur as usize].left = moved;
                }
                if common == prefix.len() {
                    // The new prefix *is* the split point.
                    break cur;
                }
                // Attach a fresh leaf for the new prefix on the other side.
                let new_leaf = self.alloc(leaf(prefix));
                debug_assert_ne!(prefix.bit(common), cur_bit);
                if cur_bit {
                    self.nodes[cur as usize].left = new_leaf;
                } else {
                    self.nodes[cur as usize].right = new_leaf;
                }
                break new_leaf;
            }

            // cur_prefix is fully a prefix of the new key.
            if prefix.len() == cur_prefix.len() {
                break cur;
            }

            // Descend.
            let bit = prefix.bit(cur_prefix.len());
            let child = if bit {
                self.nodes[cur as usize].right
            } else {
                self.nodes[cur as usize].left
            };
            if child == NO_NODE {
                let new_leaf = self.alloc(leaf(prefix));
                if bit {
                    self.nodes[cur as usize].right = new_leaf;
                } else {
                    self.nodes[cur as usize].left = new_leaf;
                }
                break new_leaf;
            }
            cur = child;
        };
        if idx != cur {
            self.finger[depth] = idx;
            depth += 1;
        }
        self.finger_len = depth;
        let old = self.nodes[idx as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&T> {
        let mut cur = self.root;
        while cur != NO_NODE {
            let node = &self.nodes[cur as usize];
            let np = node.prefix;
            if !np.covers(prefix) {
                return None;
            }
            if np.len() == prefix.len() {
                return node.value.as_ref();
            }
            cur = if prefix.bit(np.len()) {
                node.right
            } else {
                node.left
            };
        }
        None
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &T)> {
        let key = Ipv4Prefix::host(addr);
        let mut best: Option<(Ipv4Prefix, &T)> = None;
        let mut cur = self.root;
        while cur != NO_NODE {
            let node = &self.nodes[cur as usize];
            let np = node.prefix;
            if !np.covers(key) {
                break;
            }
            if let Some(v) = &node.value {
                best = Some((np, v));
            }
            if np.len() == 32 {
                break;
            }
            cur = if key.bit(np.len()) {
                node.right
            } else {
                node.left
            };
        }
        best
    }

    /// Remove a prefix, returning its value. Prunes and re-merges nodes so
    /// the structure stays compact under churn.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<T> {
        // Walk down, remembering the ancestors (root first) for pruning.
        let mut path = [NO_NODE; MAX_DEPTH];
        let mut depth = 0;
        let mut cur = self.root;
        loop {
            if cur == NO_NODE {
                return None;
            }
            let node = &self.nodes[cur as usize];
            let np = node.prefix;
            if !np.covers(prefix) {
                return None;
            }
            if np.len() == prefix.len() {
                break;
            }
            path[depth] = cur;
            depth += 1;
            cur = if prefix.bit(np.len()) {
                node.right
            } else {
                node.left
            };
        }
        let value = self.nodes[cur as usize].value.take()?;
        self.len -= 1;
        self.finger_len = 0;
        self.prune(cur, &path[..depth]);
        Some(value)
    }

    /// What belongs in `idx`'s place: the node itself while it holds a
    /// value or splits two subtrees, else its only child (or nothing).
    fn stand_in(&self, idx: u32) -> u32 {
        let node = &self.nodes[idx as usize];
        match (node.value.is_some(), node.left, node.right) {
            (false, child, NO_NODE) | (false, NO_NODE, child) => child,
            _ => idx,
        }
    }

    /// Remove node `idx` if it has become useless (no value), merging
    /// single-child pass-through nodes upward along `path`.
    fn prune(&mut self, mut idx: u32, path: &[u32]) {
        for &parent in path.iter().rev() {
            let replacement = self.stand_in(idx);
            if replacement == idx {
                return;
            }
            self.free.push(idx);
            let pnode = &mut self.nodes[parent as usize];
            if pnode.left == idx {
                pnode.left = replacement;
            } else {
                debug_assert_eq!(pnode.right, idx);
                pnode.right = replacement;
            }
            // The parent may itself have become a valueless
            // pass-through node.
            idx = parent;
        }
        let replacement = self.stand_in(idx);
        if replacement != idx {
            self.free.push(idx);
            self.root = replacement;
        }
    }

    /// Iterate entries in ascending `(network bits, length)` order — the
    /// order in which the modeled router walks its FIB.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut stack = Vec::new();
        if self.root != NO_NODE {
            stack.push(self.root);
        }
        Iter { trie: self, stack }
    }
}

/// Ordered iterator over trie entries.
pub struct Iter<'a, T> {
    trie: &'a PrefixTrie<T>,
    stack: Vec<u32>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(idx) = self.stack.pop() {
            let node = &self.trie.nodes[idx as usize];
            // Pre-order: a node's own prefix sorts before both subtrees
            // (same leading bits, shorter length) and the left subtree's
            // bits sort below the right's.
            if node.right != NO_NODE {
                self.stack.push(node.right);
            }
            if node.left != NO_NODE {
                self.stack.push(node.left);
            }
            if let Some(v) = &node.value {
                return Some((node.prefix, v));
            }
        }
        None
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

/// Length of the common prefix of two prefixes, capped at both lengths.
fn common_prefix_len(a: Ipv4Prefix, b: Ipv4Prefix) -> u8 {
    let diff = a.raw_bits() ^ b.raw_bits();
    let common = diff.leading_zeros() as u8;
    common.min(a.len()).min(b.len())
}

#[cfg(test)]
impl<T> PrefixTrie<T> {
    /// [`PrefixTrie::insert`] descending from the root, as it did before
    /// it kept a finger: the reference the finger is tested against.
    fn insert_from_root(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        self.finger_len = 0;
        self.insert(prefix, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// One arena slot: prefix, value, left and right child.
    type Slot = (Ipv4Prefix, Option<u32>, u32, u32);

    /// What a trie's arena holds, slot by slot, and its free list.
    fn arena(t: &PrefixTrie<u32>) -> (Vec<Slot>, Vec<u32>) {
        let nodes = t.nodes.iter().map(|n| (n.prefix, n.value, n.left, n.right));
        (nodes.collect(), t.free.clone())
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// `n` ascending keys of length `len` from `base`, as a table
        /// load writes them.
        Run {
            base: u32,
            len: u8,
            n: u32,
        },
        Insert(Ipv4Prefix),
        /// Remove the key inserted `back` inserts ago: recent keys sit
        /// on the finger's path.
        Remove {
            back: usize,
        },
    }

    /// An address in one of four /8s, so runs and inserts meet.
    fn arb_addr() -> impl Strategy<Value = u32> {
        (0u32..4, any::<u32>()).prop_map(|(net, host)| 0x0a00_0000 + (net << 24) + (host >> 8))
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (arb_addr(), 16u8..=32, 1u32..200).prop_map(|(base, len, n)| Step::Run {
                base,
                len,
                n
            }),
            (arb_addr(), 8u8..=32)
                .prop_map(|(a, len)| Step::Insert(Ipv4Prefix::new(a.into(), len))),
            (0usize..8).prop_map(|back| Step::Remove { back }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inserting from the finger builds, slot for slot, the arena
        /// and free list a root descent builds, under ascending runs,
        /// scattered inserts and removes interleaved.
        #[test]
        fn finger_inserts_build_the_root_descents_arena(steps in vec(arb_step(), 1..60)) {
            let mut finger = PrefixTrie::new();
            let mut root = PrefixTrie::new();
            let mut inserted: Vec<Ipv4Prefix> = Vec::new();
            for step in steps {
                let keys = match step {
                    Step::Run { base, len, n } => {
                        let stride = 1u32 << (32 - u32::from(len));
                        (0..n)
                            .map(|i| base.wrapping_add(i.wrapping_mul(stride)))
                            .map(|a| Ipv4Prefix::new(a.into(), len))
                            .collect()
                    }
                    Step::Insert(key) => vec![key],
                    Step::Remove { back } => {
                        if let Some(&key) = inserted.iter().rev().nth(back) {
                            prop_assert_eq!(finger.remove(key), root.remove(key));
                        }
                        Vec::new()
                    }
                };
                for key in keys {
                    let v = inserted.len() as u32;
                    prop_assert_eq!(finger.insert(key, v), root.insert_from_root(key, v));
                    inserted.push(key);
                }
                prop_assert_eq!(arena(&finger), arena(&root));
                prop_assert_eq!(finger.root, root.root);
                prop_assert_eq!(finger.len(), root.len());
                prop_assert!(finger.iter().eq(root.iter()));
            }
        }
    }

    #[test]
    fn insert_get_exact() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/16"), 2), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 3), Some(1));
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&3));
        assert_eq!(t.get(p("10.0.0.0/16")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/24")), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn longest_prefix_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        t.insert(p("10.1.2.0/24"), "twentyfour");

        let lookup = |a: [u8; 4]| t.lookup(Ipv4Addr::from(a)).map(|(_, v)| *v);
        assert_eq!(lookup([10, 1, 2, 3]), Some("twentyfour"));
        assert_eq!(lookup([10, 1, 9, 9]), Some("sixteen"));
        assert_eq!(lookup([10, 200, 0, 1]), Some("eight"));
        assert_eq!(lookup([192, 168, 0, 1]), Some("default"));
    }

    #[test]
    fn lookup_on_empty_and_miss() {
        let t: PrefixTrie<u32> = PrefixTrie::new();
        assert!(t.lookup(Ipv4Addr::new(1, 2, 3, 4)).is_none());

        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn split_nodes_hold_no_phantom_values() {
        let mut t = PrefixTrie::new();
        // 10.0.0.0/8 and 10.128.0.0/9 share a /8 split... insert siblings
        // that force an inner split node at /15.
        t.insert(p("10.2.0.0/16"), 1);
        t.insert(p("10.3.0.0/16"), 2);
        assert_eq!(t.len(), 2);
        // The split point /15 must not match.
        assert_eq!(t.get(p("10.2.0.0/15")), None);
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 2, 0, 1)).map(|(pf, v)| (pf, *v)),
            Some((p("10.2.0.0/16"), 1))
        );
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 3, 0, 1)).map(|(pf, v)| (pf, *v)),
            Some((p("10.3.0.0/16"), 2))
        );
        assert!(t.lookup(Ipv4Addr::new(10, 4, 0, 1)).is_none());
        // Inserting at the split point claims the valueless node in place.
        let nodes = t.nodes.len();
        assert_eq!(t.insert(p("10.2.0.0/15"), 7), None);
        assert_eq!((t.nodes.len(), t.len()), (nodes, 3));
        assert_eq!(t.get(p("10.2.0.0/15")), Some(&7));
        // Its value gone, it splits two subtrees again; with one of them
        // gone too it is merged away.
        assert_eq!(t.remove(p("10.2.0.0/15")), Some(7));
        assert_eq!(t.get(p("10.2.0.0/15")), None);
        assert_eq!(t.remove(p("10.2.0.0/16")), Some(1));
        assert_eq!((t.len(), t.nodes.len() - t.free.len()), (1, 1));
    }

    #[test]
    fn remove_and_prune() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.2.0.0/16"), 1);
        t.insert(p("10.3.0.0/16"), 2);
        t.insert(p("10.0.0.0/8"), 0);
        assert_eq!(t.remove(p("10.2.0.0/16")), Some(1));
        assert_eq!(t.remove(p("10.2.0.0/16")), None);
        assert_eq!(t.len(), 2);
        assert!(t.lookup(Ipv4Addr::new(10, 2, 0, 1)).is_some()); // /8 still covers
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(0));
        assert_eq!(t.remove(p("10.3.0.0/16")), Some(2));
        assert!(t.is_empty());
        assert!(t.lookup(Ipv4Addr::new(10, 3, 0, 1)).is_none());
        // Arena fully recycled: inserting again must not grow unboundedly.
        let before = t.nodes.len();
        t.insert(p("10.2.0.0/16"), 9);
        assert!(t.nodes.len() <= before.max(1));
    }

    #[test]
    fn removing_inner_value_keeps_children() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("10.2.0.0/16"), 1);
        t.insert(p("10.3.0.0/16"), 2);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("10.2.0.0/16")), Some(&1));
        assert_eq!(t.get(p("10.3.0.0/16")), Some(&2));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut t = PrefixTrie::new();
        let prefixes = [
            "99.0.0.0/8",
            "1.0.0.0/24",
            "1.0.0.0/16",
            "1.0.1.0/24",
            "0.0.0.0/0",
            "128.0.0.0/1",
        ];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let keys: Vec<Ipv4Prefix> = t.iter().map(|(p, _)| p).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), prefixes.len());
        assert_eq!(keys[0], p("0.0.0.0/0"));
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, 42);
        assert_eq!(
            t.lookup(Ipv4Addr::new(0, 0, 0, 0)).map(|(_, v)| *v),
            Some(42)
        );
        assert_eq!(
            t.lookup(Ipv4Addr::new(255, 255, 255, 255)).map(|(_, v)| *v),
            Some(42)
        );
    }

    #[test]
    fn host_routes_at_32_bits() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), 1);
        t.insert(p("1.2.3.5/32"), 2);
        t.insert(p("1.2.3.0/24"), 0);
        assert_eq!(
            t.lookup(Ipv4Addr::new(1, 2, 3, 4)).map(|(_, v)| *v),
            Some(1)
        );
        assert_eq!(
            t.lookup(Ipv4Addr::new(1, 2, 3, 5)).map(|(_, v)| *v),
            Some(2)
        );
        assert_eq!(
            t.lookup(Ipv4Addr::new(1, 2, 3, 6)).map(|(_, v)| *v),
            Some(0)
        );
    }

    /// Differential test against a naive model on a deterministic
    /// pseudo-random workload (the proptest version lives in
    /// `tests/proptests.rs` of this crate).
    #[test]
    fn differential_against_btreemap_model() {
        let mut model: BTreeMap<Ipv4Prefix, u64> = BTreeMap::new();
        let mut t = PrefixTrie::new();
        // Simple deterministic LCG so the test needs no rand dependency.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for i in 0..4000u64 {
            let r = next();
            let addr = Ipv4Addr::from((r >> 16) as u32);
            let len = (r % 33) as u8;
            let pfx = Ipv4Prefix::new(addr, len);
            match r % 3 {
                0 | 1 => {
                    assert_eq!(t.insert(pfx, i), model.insert(pfx, i), "insert {pfx}");
                }
                _ => {
                    assert_eq!(t.remove(pfx), model.remove(&pfx), "remove {pfx}");
                }
            }
            assert_eq!(t.len(), model.len());
        }
        // Compare LPM on a batch of addresses.
        for _ in 0..2000 {
            let addr = Ipv4Addr::from(next() as u32);
            let expect = model
                .iter()
                .filter(|(pfx, _)| pfx.contains(addr))
                .max_by_key(|(pfx, _)| pfx.len())
                .map(|(pfx, v)| (*pfx, *v));
            let got = t.lookup(addr).map(|(pfx, v)| (pfx, *v));
            assert_eq!(got, expect, "lpm {addr}");
        }
        // Ordered iteration equals the model's.
        let got: Vec<_> = t.iter().map(|(pfx, v)| (pfx, *v)).collect();
        let expect: Vec<_> = model.iter().map(|(pfx, v)| (*pfx, *v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn full_table_scale_smoke() {
        // 100k synthetic /24s: insert, LPM, iterate — exercises arena
        // growth and ordered-walk performance assumptions.
        let mut t = PrefixTrie::new();
        for i in 0..100_000u32 {
            let base = 0x0100_0000u32 + (i << 8); // 1.0.0.0 onward, /24 apart
            t.insert(Ipv4Prefix::new(Ipv4Addr::from(base), 24), i);
        }
        assert_eq!(t.len(), 100_000);
        let (pfx, v) = t.lookup(Ipv4Addr::from(0x0100_0001u32)).unwrap();
        assert_eq!((pfx.len(), *v), (24, 0));
        assert_eq!(t.iter().count(), 100_000);
        let first = t.iter().next().unwrap().0;
        assert_eq!(first, Ipv4Prefix::new(Ipv4Addr::new(1, 0, 0, 0), 24));
    }
}
