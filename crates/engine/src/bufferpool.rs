//! LRU buffer pool with ballooning support.
//!
//! The buffer pool caches data pages in the container's memory. Accesses hit
//! (free) or miss (one disk read); evicted dirty pages cost a background
//! disk write. Capacity follows the container's memory allocation, and
//! **ballooning** (§4.3) shrinks capacity gradually so the engine can
//! observe whether the working set still fits — the paper's mechanism for
//! safely probing low memory demand.
//!
//! Implementation: an intrusive doubly-linked LRU list over a slab, indexed
//! by `PageMap` — an open-addressed table with a Fibonacci (FxHash-style)
//! multiplicative hash and linear probing. Page ids are already
//! well-distributed integers, so the table beats `HashMap`'s SipHash by a
//! wide margin on the engine's hottest path (every page access hashes
//! once; every insert hashes twice). Eviction results are written into
//! caller-owned scratch buffers, so steady-state operation never allocates.

const NONE: u32 = u32::MAX;

/// Multiplier for Fibonacci hashing: `2^64 / φ`, rounded to odd. The high
/// bits of `page * FIB` are close to uniform for consecutive or strided
/// page ids, which is exactly the access pattern workloads generate.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressed `u64 → u32` index with linear probing and backward-shift
/// deletion. The sentinel for an empty slot lives in the *value* array
/// (`u32::MAX`, never a valid slab index), so any `u64` is a legal key.
///
/// Grows at 75% load; never shrinks (the pool's working set is bounded by
/// its largest capacity, and resizes reuse the high-water allocation).
#[derive(Debug)]
struct PageMap {
    keys: Vec<u64>,
    /// Slab index per slot, or `NONE` when the slot is empty.
    vals: Vec<u32>,
    mask: usize,
    /// `64 - log2(capacity)`: the hash keeps the *high* bits of the
    /// Fibonacci product, which are the well-mixed ones.
    shift: u32,
    len: usize,
    #[cfg(feature = "strict-invariants")]
    check_tick: u64,
}

/// Mutation count below which `strict-invariants` checks run every time
/// (small tables, unit tests); past it they sample every
/// [`CHECK_EVERY`]th mutation so the O(table) scan amortizes to ~O(1).
#[cfg(feature = "strict-invariants")]
const CHECK_ALWAYS: u64 = 64;
#[cfg(feature = "strict-invariants")]
const CHECK_EVERY: u64 = 1024;

impl PageMap {
    const MIN_CAP: usize = 16;

    fn new() -> Self {
        Self {
            keys: vec![0; Self::MIN_CAP],
            vals: vec![NONE; Self::MIN_CAP],
            mask: Self::MIN_CAP - 1,
            shift: 64 - Self::MIN_CAP.trailing_zeros(),
            len: 0,
            #[cfg(feature = "strict-invariants")]
            check_tick: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    // dasr-lint: no-alloc
    fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.home(key);
        loop {
            let v = self.vals[i];
            if v == NONE {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    // dasr-lint: no-alloc
    fn insert(&mut self, key: u64, val: u32) {
        debug_assert_ne!(val, NONE);
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            // dasr-lint: allow(G2) reason="amortized doubling: grow() reallocates only when load passes 3/4, O(1) amortized per insert"
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            if self.vals[i] == NONE {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                self.debug_check();
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                self.debug_check();
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key` using backward-shift deletion: later entries in the
    /// probe chain slide back so lookups never need tombstones.
    // dasr-lint: no-alloc
    fn remove(&mut self, key: u64) {
        let mut i = self.home(key);
        loop {
            if self.vals[i] == NONE {
                return;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.vals[j] == NONE {
                self.vals[i] = NONE;
                self.debug_check();
                return;
            }
            let home = self.home(self.keys[j]);
            // Shift `j` back into the hole at `i` unless that would move it
            // before its home slot (cyclic distance comparison).
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.keys[i] = self.keys[j];
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
    }

    /// Grows the table once so `n` keys fit under the 3/4 load bound —
    /// the capacity repeated doubling from here would reach.
    fn reserve(&mut self, n: usize) {
        let mut cap = self.mask + 1;
        while n * 4 > cap * 3 {
            cap *= 2;
        }
        if cap > self.mask + 1 {
            self.rehash(cap);
        }
    }

    fn grow(&mut self) {
        self.rehash((self.mask + 1) * 2);
    }

    /// Moves every live key into a fresh table of `new_cap` slots.
    fn rehash(&mut self, new_cap: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![NONE; new_cap]);
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != NONE {
                self.insert(k, v);
            }
        }
    }

    /// Structural self-check (`strict-invariants` builds only): every live
    /// entry's probe chain from its home slot is unbroken, so `get` can
    /// always reach it — the invariant backward-shift deletion maintains.
    /// Sampled past the first [`CHECK_ALWAYS`] mutations to keep large
    /// simulations tractable.
    #[inline]
    fn debug_check(&mut self) {
        #[cfg(feature = "strict-invariants")]
        {
            self.check_tick += 1;
            if self.check_tick > CHECK_ALWAYS && !self.check_tick.is_multiple_of(CHECK_EVERY) {
                return;
            }
            let live = self.vals.iter().filter(|&&v| v != NONE).count();
            debug_assert_eq!(live, self.len, "occupied slot count must match len");
            for i in 0..self.vals.len() {
                if self.vals[i] == NONE {
                    continue;
                }
                let mut j = self.home(self.keys[i]);
                while j != i {
                    debug_assert_ne!(
                        self.vals[j], NONE,
                        "hole at slot {j} breaks the probe chain to slot {i}"
                    );
                    j = (j + 1) & self.mask;
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    page: u64,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// Result of a page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was cached; the access proceeds immediately.
    Hit,
    /// Page was not cached; the engine must read it from disk and then call
    /// [`BufferPool::insert`].
    Miss,
}

/// An LRU page cache.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    map: PageMap,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: PageMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            hits: 0,
            misses: 0,
        }
    }

    /// Sizes the page index for `pages` cached pages, so inserting up to
    /// that many never rehashes it.
    pub(crate) fn reserve(&mut self, pages: usize) {
        self.map.reserve(pages);
    }

    /// Current capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently cached.
    pub fn used(&self) -> usize {
        self.map.len()
    }

    /// Accesses `page`; on a hit the page is touched (moved to MRU) and
    /// marked dirty if `write`. On a miss the caller performs the disk read
    /// and then calls [`insert`](Self::insert).
    // dasr-lint: no-alloc
    pub fn access(&mut self, page: u64, write: bool) -> Access {
        if let Some(idx) = self.map.get(page) {
            self.hits += 1;
            if write {
                // dasr-lint: allow(G3) reason="PageMap stores only live node indices; map and node array mutate together"
                self.nodes[idx as usize].dirty = true;
            }
            self.touch(idx);
            Access::Hit
        } else {
            self.misses += 1;
            Access::Miss
        }
    }

    /// Inserts `page` after its disk read completed; evicts LRU pages while
    /// over capacity, writing the evicted *dirty* page ids into
    /// `dirty_evicted` (cleared first — the engine schedules background
    /// writebacks for them and reuses the buffer across calls, so inserting
    /// never allocates in steady state).
    ///
    /// Inserting a page already present just touches it.
    // dasr-lint: no-alloc
    pub fn insert(&mut self, page: u64, dirty: bool, dirty_evicted: &mut Vec<u64>) {
        dirty_evicted.clear();
        if let Some(idx) = self.map.get(page) {
            if dirty {
                self.nodes[idx as usize].dirty = true;
            }
            self.touch(idx);
            self.evict_to_capacity(dirty_evicted);
            return;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    page,
                    dirty,
                    prev: NONE,
                    next: NONE,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    page,
                    dirty,
                    prev: NONE,
                    next: NONE,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(page, idx);
        self.push_front(idx);
        self.evict_to_capacity(dirty_evicted);
    }

    /// Shrinks or grows capacity; evicted dirty pages are written into
    /// `dirty_evicted` (cleared first) when shrinking. Used both for
    /// container resizes (immediate) and balloon steps (gradual, small
    /// decrements).
    // dasr-lint: no-alloc
    pub fn set_capacity(&mut self, capacity: usize, dirty_evicted: &mut Vec<u64>) {
        dirty_evicted.clear();
        self.capacity = capacity;
        self.evict_to_capacity(dirty_evicted);
    }

    /// Cumulative hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction in `[0, 1]`; `1.0` when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Evicts LRU pages while over capacity, appending dirty victims to
    /// `dirty_evicted` (NOT cleared — callers clear before the first call).
    // dasr-lint: no-alloc
    fn evict_to_capacity(&mut self, dirty_evicted: &mut Vec<u64>) {
        while self.map.len() > self.capacity {
            let tail = self.tail;
            if tail == NONE {
                break;
            }
            // dasr-lint: allow(G3) reason="tail checked against NONE above; LRU links always hold live node indices"
            let node = self.nodes[tail as usize];
            self.unlink(tail);
            self.map.remove(node.page);
            self.free.push(tail);
            if node.dirty {
                dirty_evicted.push(node.page);
            }
        }
    }

    // dasr-lint: no-alloc
    fn touch(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    // dasr-lint: no-alloc
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            // dasr-lint: allow(G3) reason="intrusive-list invariant: unlink is only called with a linked node index"
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let n = &mut self.nodes[idx as usize];
        n.prev = NONE;
        n.next = NONE;
    }

    // dasr-lint: no-alloc
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            // dasr-lint: allow(G3) reason="intrusive-list invariant: push_front is only called with a valid node index"
            let n = &mut self.nodes[idx as usize];
            n.prev = NONE;
            n.next = old_head;
        }
        if old_head != NONE {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shim matching the old allocating API.
    fn insert(bp: &mut BufferPool, page: u64, dirty: bool) -> Vec<u64> {
        let mut out = Vec::new();
        bp.insert(page, dirty, &mut out);
        out
    }

    #[test]
    fn miss_then_hit() {
        let mut bp = BufferPool::new(2);
        assert_eq!(bp.access(1, false), Access::Miss);
        assert!(insert(&mut bp, 1, false).is_empty());
        assert_eq!(bp.access(1, false), Access::Hit);
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 1);
        assert_eq!(bp.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut bp = BufferPool::new(2);
        insert(&mut bp, 1, false);
        insert(&mut bp, 2, false);
        // Touch page 1 so page 2 is now LRU.
        assert_eq!(bp.access(1, false), Access::Hit);
        insert(&mut bp, 3, false);
        assert_eq!(bp.access(2, false), Access::Miss, "2 was evicted");
        assert_eq!(bp.access(1, false), Access::Hit);
        assert_eq!(bp.access(3, false), Access::Hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut bp = BufferPool::new(1);
        insert(&mut bp, 1, false);
        bp.access(1, true); // dirty it
        let evicted = insert(&mut bp, 2, false);
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn clean_eviction_silent() {
        let mut bp = BufferPool::new(1);
        insert(&mut bp, 1, false);
        assert!(insert(&mut bp, 2, false).is_empty());
    }

    #[test]
    fn scratch_is_cleared_on_entry() {
        let mut bp = BufferPool::new(10);
        let mut scratch = vec![99, 98];
        bp.insert(1, false, &mut scratch);
        assert!(scratch.is_empty(), "insert clears the scratch");
        let mut scratch = vec![97];
        bp.set_capacity(10, &mut scratch);
        assert!(scratch.is_empty(), "set_capacity clears the scratch");
    }

    #[test]
    fn shrink_capacity_evicts_lru_first() {
        let mut bp = BufferPool::new(4);
        for p in 1..=4 {
            insert(&mut bp, p, p % 2 == 0); // 2 and 4 dirty
        }
        // LRU order (oldest first): 1, 2, 3, 4.
        let mut evicted = Vec::new();
        bp.set_capacity(2, &mut evicted);
        assert_eq!(evicted, vec![2], "only the dirty one among {{1,2}}");
        assert_eq!(bp.used(), 2);
        assert_eq!(bp.access(3, false), Access::Hit);
        assert_eq!(bp.access(4, false), Access::Hit);
    }

    #[test]
    fn grow_capacity_keeps_pages() {
        let mut bp = BufferPool::new(1);
        insert(&mut bp, 1, false);
        let mut evicted = Vec::new();
        bp.set_capacity(10, &mut evicted);
        assert!(evicted.is_empty());
        assert_eq!(bp.access(1, false), Access::Hit);
    }

    #[test]
    fn reinsert_touches_instead_of_duplicating() {
        let mut bp = BufferPool::new(2);
        insert(&mut bp, 1, false);
        insert(&mut bp, 2, false);
        insert(&mut bp, 1, true); // touch + dirty
        assert_eq!(bp.used(), 2);
        // Now 2 is LRU.
        insert(&mut bp, 3, false);
        assert_eq!(bp.access(2, false), Access::Miss);
    }

    #[test]
    fn zero_capacity_pool_caches_nothing() {
        let mut bp = BufferPool::new(0);
        insert(&mut bp, 1, false);
        assert_eq!(bp.used(), 0);
        assert_eq!(bp.access(1, false), Access::Miss);
    }

    #[test]
    fn hit_ratio_with_working_set_larger_than_pool() {
        let mut bp = BufferPool::new(10);
        // Cycle through 20 pages repeatedly: pure LRU with a scan pattern
        // never hits.
        for round in 0..3 {
            for p in 0..20u64 {
                if bp.access(p, false) == Access::Miss {
                    insert(&mut bp, p, false);
                } else if round == 0 {
                    panic!("unexpected hit on cold pool");
                }
            }
        }
        assert_eq!(bp.hits(), 0, "scan larger than pool never hits LRU");
    }

    #[test]
    fn slab_reuse_is_consistent() {
        let mut bp = BufferPool::new(2);
        for p in 0..100u64 {
            insert(&mut bp, p, false);
        }
        assert_eq!(bp.used(), 2);
        assert!(bp.nodes.len() <= 3, "slab should recycle free nodes");
    }

    /// Proves the `strict-invariants` wiring is live: a hole punched into
    /// a probe chain must trip the structural check on the next mutation.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "occupied slot count must match len")]
    fn strict_invariants_catch_probe_chain_corruption() {
        let mut pm = PageMap::new();
        pm.insert(1, 10);
        pm.insert(2, 20);
        let hole = pm.home(1);
        pm.vals[hole] = NONE; // erase without fixing len or shifting
        pm.insert(3, 30);
    }

    /// Randomized cross-check: the open-addressed [`PageMap`] must behave
    /// exactly like `std::collections::HashMap<u64, u32>` under a mixed
    /// insert/remove/lookup stream, including adversarial keys that
    /// collide in the low bits.
    #[test]
    fn page_map_matches_std_hashmap() {
        let mut pm = PageMap::new();
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for step in 0..20_000u32 {
            let r = next();
            // Small key space (low-bit-colliding strides) to force repeated
            // insert/remove of the same keys through probe chains.
            let key = (r % 512) * 1024;
            match r % 3 {
                0 => {
                    pm.insert(key, step);
                    oracle.insert(key, step);
                }
                1 => {
                    pm.remove(key);
                    oracle.remove(&key);
                }
                _ => {
                    assert_eq!(pm.get(key), oracle.get(&key).copied(), "key {key}");
                }
            }
            assert_eq!(pm.len(), oracle.len());
        }
        for (&k, &v) in &oracle {
            assert_eq!(pm.get(k), Some(v));
        }
    }
}
