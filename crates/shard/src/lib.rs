//! # autopilot-shard
//!
//! Process-lifetime sharded caches for the multi-tenant co-design
//! server. A [`ShardedMap`] splits its key space across N independent
//! shards (FNV-1a key hash, so shard placement is deterministic across
//! processes and runs), each guarded by its own `Mutex` with
//! poisoned-lock recovery, so concurrent jobs contend only when they
//! touch the same shard.
//!
//! Capacity is bounded per shard with **clock** (second-chance)
//! eviction: every slot carries a referenced bit that lookups set; the
//! eviction hand sweeps the slot ring, clearing referenced bits until
//! it finds a cold slot to reuse. Unbounded maps (`capacity == 0`)
//! never evict, which preserves the exact semantics of the per-run
//! caches this crate generalizes.
//!
//! Entries are tagged with the **owner** (job id) that inserted them,
//! so a cache layered on top can distinguish a hit served from the
//! caller's own run from a *cross-run* hit served from another
//! tenant's work — the number the DSE-as-a-service refactor exists to
//! make non-zero.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autopilot_obs as obs;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the key's `Hash` byte stream: deterministic across
/// processes (unlike `RandomState`), so shard placement — and hence
/// per-shard counters — is reproducible.
#[derive(Debug, Clone)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Aggregate (or per-shard) cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by clock eviction.
    pub evictions: u64,
    /// Insertions of previously absent keys.
    pub insertions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
}

impl ShardStats {
    /// Total counted lookups; by construction `hits + misses`.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache slot in a shard's clock ring.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    owner: u64,
    referenced: bool,
}

#[derive(Debug, Default)]
struct ShardState<K, V> {
    /// Key → slot index in `slots`.
    index: HashMap<K, usize>,
    /// The clock ring; slots listed in `free` are vacant.
    slots: Vec<Option<Slot<K, V>>>,
    /// Vacated slot indices available for reuse before growing.
    free: Vec<usize>,
    /// Clock hand for the next eviction sweep.
    hand: usize,
}

#[derive(Debug)]
struct Shard<K, V> {
    state: Mutex<ShardState<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Shard<K, V> {
        Shard {
            state: Mutex::new(ShardState {
                index: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                hand: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }
}

impl<K, V> Shard<K, V> {
    fn lock(&self) -> MutexGuard<'_, ShardState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Precomputed per-shard obs counter names so the hot path never
/// formats strings.
#[derive(Debug, Clone)]
struct CounterNames {
    hits: String,
    misses: String,
    evictions: String,
}

/// A concurrent map sharded N ways by key hash, with per-shard locks,
/// bounded capacity, clock eviction, and owner-tagged entries.
///
/// Values are returned by clone; keep them cheap to clone (the repo's
/// cached payloads are small stat structs) or wrap them in `Arc`.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<Shard<K, V>>,
    /// Per-shard slot budget; `0` means unbounded.
    per_shard_capacity: usize,
    /// Per-shard obs counter names, when enabled.
    names: Option<Vec<CounterNames>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// Creates a map with `shards` shards (clamped to at least 1) and a
    /// total `capacity` spread evenly across them; `capacity == 0`
    /// means unbounded (no eviction ever).
    pub fn new(shards: usize, capacity: usize) -> ShardedMap<K, V> {
        let shards = shards.max(1);
        let per_shard_capacity = if capacity == 0 { 0 } else { capacity.div_ceil(shards).max(1) };
        ShardedMap {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            per_shard_capacity,
            names: None,
        }
    }

    /// Registers per-shard obs counters `{prefix}.shard{i}.hits`,
    /// `.misses`, and `.evictions`, bumped on the corresponding events.
    pub fn with_obs_prefix(mut self, prefix: &str) -> ShardedMap<K, V> {
        self.names = Some(
            (0..self.shards.len())
                .map(|i| CounterNames {
                    hits: format!("{prefix}.shard{i}.hits"),
                    misses: format!("{prefix}.shard{i}.misses"),
                    evictions: format!("{prefix}.shard{i}.evictions"),
                })
                .collect(),
        );
        self
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut h = FnvHasher::default();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Looks `key` up, counting a hit or miss; a hit returns the value
    /// and the owner tag of whoever inserted it, and marks the slot
    /// recently used for the clock sweep.
    pub fn get(&self, key: &K) -> Option<(V, u64)> {
        let si = self.shard_index(key);
        let shard = &self.shards[si];
        let mut st = shard.lock();
        let found = st.index.get(key).copied();
        match found {
            Some(slot) => {
                let out = st.slots[slot].as_mut().map(|s| {
                    s.referenced = true;
                    (s.value.clone(), s.owner)
                });
                drop(st);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(names) = &self.names {
                    obs::add(&names[si].hits, 1);
                }
                out
            }
            None => {
                drop(st);
                shard.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(names) = &self.names {
                    obs::add(&names[si].misses, 1);
                }
                None
            }
        }
    }

    /// Non-counting lookup: returns the value without touching the
    /// hit/miss counters (still refreshes the slot's referenced bit so
    /// assembly-style reads don't get their entries evicted).
    pub fn peek(&self, key: &K) -> Option<V> {
        let shard = &self.shards[self.shard_index(key)];
        let mut st = shard.lock();
        let found = st.index.get(key).copied();
        found.and_then(|slot| {
            st.slots[slot].as_mut().map(|s| {
                s.referenced = true;
                s.value.clone()
            })
        })
    }

    /// Inserts or overwrites `key`, tagging the entry with `owner`.
    /// Returns `true` when the key was previously absent. May evict one
    /// cold entry from the target shard when it is at capacity.
    pub fn insert(&self, key: K, value: V, owner: u64) -> bool {
        let si = self.shard_index(&key);
        let shard = &self.shards[si];
        let mut st = shard.lock();
        if let Some(&slot) = st.index.get(&key) {
            if let Some(s) = st.slots[slot].as_mut() {
                s.value = value;
                s.owner = owner;
                s.referenced = true;
            }
            return false;
        }
        let evicted = self.place(&mut st, key, value, owner);
        drop(st);
        self.count_insertion(si, evicted);
        true
    }

    /// Returns the value resident under `key`, inserting `value` (tagged
    /// with `owner`) first when the key is absent — an atomic
    /// get-or-insert, so concurrent callers racing on one key all get the
    /// same value back. Counts no hit or miss (callers that want them
    /// look up with [`ShardedMap::get`] first); refreshes the referenced
    /// bit of an existing entry, and may evict one cold entry, as
    /// [`ShardedMap::insert`] does.
    pub fn get_or_insert(&self, key: K, value: V, owner: u64) -> V {
        let si = self.shard_index(&key);
        let shard = &self.shards[si];
        let mut st = shard.lock();
        if let Some(&slot) = st.index.get(&key) {
            if let Some(s) = st.slots[slot].as_mut() {
                s.referenced = true;
                return s.value.clone();
            }
        }
        let evicted = self.place(&mut st, key, value.clone(), owner);
        drop(st);
        self.count_insertion(si, evicted);
        value
    }

    /// Stores an absent `key` in a free slot, a new slot while the shard
    /// is under capacity, or else the first cold slot of a clock sweep.
    /// Returns `true` when an entry was evicted to make room.
    fn place(&self, st: &mut ShardState<K, V>, key: K, value: V, owner: u64) -> bool {
        let slot = Slot { key: key.clone(), value, owner, referenced: true };
        if let Some(idx) = st.free.pop() {
            st.slots[idx] = Some(slot);
            st.index.insert(key, idx);
            return false;
        }
        if self.per_shard_capacity == 0 || st.slots.len() < self.per_shard_capacity {
            st.slots.push(Some(slot));
            let idx = st.slots.len() - 1;
            st.index.insert(key, idx);
            return false;
        }
        // Clock sweep: give referenced slots a second chance, evict the
        // first cold one. Bounded by two revolutions.
        let len = st.slots.len();
        let mut victim = st.hand % len;
        for _ in 0..(2 * len) {
            let cold = match st.slots[victim % len].as_mut() {
                Some(s) if s.referenced => {
                    s.referenced = false;
                    false
                }
                _ => true,
            };
            if cold {
                break;
            }
            victim += 1;
        }
        let victim = victim % len;
        st.hand = (victim + 1) % len;
        if let Some(old) = st.slots[victim].take() {
            st.index.remove(&old.key);
        }
        st.slots[victim] = Some(slot);
        st.index.insert(key, victim);
        true
    }

    /// Bumps shard `si`'s insertion (and, if `evicted`, eviction)
    /// counters after the shard lock is released.
    fn count_insertion(&self, si: usize, evicted: bool) {
        let shard = &self.shards[si];
        shard.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(names) = &self.names {
                obs::add(&names[si].evictions, 1);
            }
        }
    }

    /// Live entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().index.len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().index.is_empty())
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut st = shard.lock();
            st.index.clear();
            st.slots.clear();
            st.free.clear();
            st.hand = 0;
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard slot budget (`0` = unbounded).
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard_capacity
    }

    /// Aggregate statistics across all shards.
    pub fn stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for per in self.shard_stats() {
            total.hits += per.hits;
            total.misses += per.misses;
            total.evictions += per.evictions;
            total.insertions += per.insertions;
            total.entries += per.entries;
        }
        total
    }

    /// Statistics for each shard, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                insertions: s.insertions.load(Ordering::Relaxed),
                entries: s.lock().index.len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_insert_roundtrip_with_owner() {
        let map: ShardedMap<u64, String> = ShardedMap::new(4, 0);
        assert!(map.get(&7).is_none());
        assert!(map.insert(7, "seven".to_owned(), 42));
        assert_eq!(map.get(&7), Some(("seven".to_owned(), 42)));
        assert!(!map.insert(7, "SEVEN".to_owned(), 43));
        assert_eq!(map.get(&7), Some(("SEVEN".to_owned(), 43)));
        assert_eq!(map.len(), 1);
        let st = map.stats();
        assert_eq!((st.hits, st.misses, st.insertions, st.evictions), (2, 1, 1, 0));
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        // Single shard so the bound is exact.
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 8);
        for k in 0..100 {
            map.insert(k, k * 10, 0);
        }
        assert_eq!(map.len(), 8);
        let st = map.stats();
        assert_eq!(st.insertions, 100);
        assert_eq!(st.evictions, 92);
        assert_eq!(st.entries, 8);
    }

    #[test]
    fn clock_second_chance_protects_hot_entries() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 4);
        for k in 0..4 {
            map.insert(k, k, 0);
        }
        // Priming insert: the first sweep clears every referenced bit
        // (clock degenerates to FIFO when everything is hot) and evicts
        // key 0, leaving keys 1..4 cold and the hand past slot 0.
        map.insert(10, 10, 0);
        assert!(map.get(&0).is_none());
        // Touch key 2, then stream two inserts: the sweep must evict
        // the cold keys 1 and 3 and give the referenced key 2 a second
        // chance.
        assert!(map.get(&2).is_some());
        map.insert(11, 11, 0);
        map.insert(12, 12, 0);
        assert!(map.peek(&2).is_some(), "referenced key 2 was evicted");
        assert!(map.peek(&1).is_none(), "cold key 1 survived the sweep");
        assert!(map.peek(&3).is_none(), "cold key 3 survived the sweep");
    }

    #[test]
    fn get_or_insert_keeps_the_resident_value_and_stays_bounded() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 4);
        assert_eq!(map.get_or_insert(1, 10, 7), 10);
        assert_eq!(map.get_or_insert(1, 99, 8), 10, "resident value wins");
        assert_eq!(map.get(&1), Some((10, 7)));
        for k in 2..50 {
            assert_eq!(map.get_or_insert(k, k * 10, 0), k * 10);
        }
        assert_eq!(map.len(), 4);
        let st = map.stats();
        assert_eq!((st.insertions, st.evictions), (49, 45));
        assert_eq!((st.hits, st.misses), (1, 0), "get_or_insert counts no lookups");
    }

    #[test]
    fn unbounded_map_never_evicts() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(8, 0);
        for k in 0..10_000 {
            map.insert(k, k, 0);
        }
        assert_eq!(map.len(), 10_000);
        assert_eq!(map.stats().evictions, 0);
    }

    #[test]
    fn peek_does_not_count() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(2, 0);
        map.insert(1, 10, 0);
        assert_eq!(map.peek(&1), Some(10));
        assert_eq!(map.peek(&2), None);
        let st = map.stats();
        assert_eq!((st.hits, st.misses), (0, 0));
    }

    #[test]
    fn shard_placement_is_deterministic() {
        let a: ShardedMap<u64, u64> = ShardedMap::new(8, 0);
        let b: ShardedMap<u64, u64> = ShardedMap::new(8, 0);
        for k in 0..64 {
            assert_eq!(a.shard_index(&k), b.shard_index(&k));
        }
        // And not degenerate: more than one shard gets traffic.
        let used: std::collections::HashSet<usize> =
            (0..64u64).map(|k| a.shard_index(&k)).collect();
        assert!(used.len() > 1, "all keys landed in one shard");
    }

    #[test]
    fn concurrent_counter_conservation() {
        // hits + misses == lookups must hold exactly under contention.
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(4, 64));
        let threads = 8usize;
        let per_thread = 2_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let map = Arc::clone(&map);
                scope.spawn(move || {
                    // Deterministic per-thread key stream (SplitMix64).
                    let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
                    for _ in 0..per_thread {
                        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = x;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        let key = (z ^ (z >> 31)) % 256;
                        if map.get(&key).is_none() {
                            map.insert(key, key, t as u64);
                        }
                    }
                });
            }
        });
        let st = map.stats();
        assert_eq!(st.lookups(), threads as u64 * per_thread);
        assert_eq!(st.hits + st.misses, st.lookups());
        assert!(st.entries <= 64, "capacity bound violated: {}", st.entries);
    }
}
