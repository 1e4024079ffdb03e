//! A sharded concurrent hash map — the in-process stand-in for the Azure
//! Redis instance the paper's controller writes call state to (§6.6).
//! Sharding by key hash keeps writer threads from serializing on one lock.
//!
//! One op costs one shard resolution and one lock: the key is mixed once by
//! [`CallIdHasher`], the shard is read off bits 32.. of that hash, and the
//! shard's inner table runs the same mix for its own lookup (the standard
//! `HashMap` offers no stable way to hand it a precomputed hash). The inner
//! table indexes buckets with the hash's low bits and tags them with its top
//! seven, so keys that share a shard still spread over the shard's buckets.
//!
//! Shards can be failed at runtime ([`ShardedMap::fail_shard`]) to model a
//! Redis partition losing its primary: writes to a failed shard are dropped
//! (and counted), reads keep serving the stale pre-failure state — the
//! read-only failover regime of a replicated cache. The hash has a fixed
//! seed, so which keys a failed shard takes down repeats from process to
//! process.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use sb_obs::{Counter, Histogram};

/// Fixed-seed hasher for call-id keys: every integer written is folded into
/// the state and run through the splitmix64 finalizer, a full-avalanche
/// 64-bit mix (each input bit flips each output bit with probability about
/// one half). Call ids arrive from the line protocol and may be sequential,
/// strided or set only in their high bits; a bare multiply would leave such
/// ids clustered in the bits that pick the shard or the bucket.
///
/// Not resistant to hash flooding: the seed is public, so a client that
/// chooses its own call ids can aim them at one shard (DESIGN.md §7).
#[derive(Clone, Copy, Debug, Default)]
pub struct CallIdHasher(u64);

/// [`BuildHasher`] for [`CallIdHasher`]: stateless, so every table built
/// from it — in this process or another — hashes a key to the same value.
pub type BuildCallIdHasher = BuildHasherDefault<CallIdHasher>;

impl Hasher for CallIdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    /// Non-integer keys: eight bytes at a time through the same mix, the
    /// length last so that trailing zero bytes still change the hash.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

struct StoreMetrics {
    read_ops: Counter,
    write_ops: Counter,
    dropped_writes: Counter,
    lock_wait_ns: Histogram,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        StoreMetrics {
            read_ops: reg.counter("store.read_ops"),
            write_ops: reg.counter("store.write_ops"),
            dropped_writes: reg.counter("store.dropped_writes"),
            lock_wait_ns: reg.histogram("store.lock_wait_ns"),
        }
    })
}

type Table<K, V> = HashMap<K, V, BuildCallIdHasher>;

/// One shard: its lock plus a relaxed op counter for hot-spot diagnosis and
/// a failure flag for chaos drills.
#[derive(Debug)]
struct Shard<K, V> {
    lock: RwLock<Table<K, V>>,
    ops: AtomicU64,
    failed: AtomicBool,
}

/// A write was dropped (and counted) because its key's shard is failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ShardFailed {
    /// Index of the failed shard.
    pub(crate) shard: usize,
}

/// Sharded `HashMap` with per-shard `RwLock`s.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<Shard<K, V>>,
    mask: usize,
    dropped: AtomicU64,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Create with `shards` rounded up to a power of two (minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n)
                .map(|_| Shard {
                    lock: RwLock::new(Table::default()),
                    ops: AtomicU64::new(0),
                    failed: AtomicBool::new(false),
                })
                .collect(),
            mask: n - 1,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Ops (any kind) that have touched each shard since creation. A skewed
    /// distribution here means the key hash is concentrating load.
    pub fn shard_ops(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .collect()
    }

    /// Which shard `key` hashes to: bits 32.. of the key's hash, which the
    /// inner table uses neither for its bucket index (low bits) nor for its
    /// bucket tags (top seven bits). The same for every map of the same
    /// shard count, in every process.
    pub fn shard_index(&self, key: &K) -> usize {
        (BuildCallIdHasher::default().hash_one(key) >> 32) as usize & self.mask
    }

    /// Fail or heal a shard. Writes to a failed shard are dropped (and
    /// counted in [`ShardedMap::dropped_writes`]); reads keep serving the
    /// stale pre-failure state.
    pub fn fail_shard(&self, idx: usize, down: bool) {
        self.shards[idx].failed.store(down, Ordering::Relaxed);
    }

    /// Indices of currently failed shards.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.failed.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .collect()
    }

    /// Writes dropped because their shard was failed, since creation.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Acquire a shard's read lock, recording the wait in the global registry.
    fn read_shard(&self, key: &K) -> RwLockReadGuard<'_, Table<K, V>> {
        let s = &self.shards[self.shard_index(key)];
        s.ops.fetch_add(1, Ordering::Relaxed);
        let m = store_metrics();
        m.read_ops.inc();
        let _t = m.lock_wait_ns.start_timer();
        s.lock.read()
    }

    /// The one shard resolution of a write: hash `key` once, then either
    /// count one dropped write (its shard is failed) or acquire the shard's
    /// write lock, recording the wait in the global registry.
    fn write_shard(&self, key: &K) -> Result<RwLockWriteGuard<'_, Table<K, V>>, ShardFailed> {
        let shard = self.shard_index(key);
        let s = &self.shards[shard];
        let m = store_metrics();
        if s.failed.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            m.dropped_writes.inc();
            return Err(ShardFailed { shard });
        }
        s.ops.fetch_add(1, Ordering::Relaxed);
        m.write_ops.inc();
        let _t = m.lock_wait_ns.start_timer();
        Ok(s.lock.write())
    }

    /// Insert, returning the previous value, or the failed shard the write
    /// was dropped on.
    pub(crate) fn try_insert(&self, key: K, value: V) -> Result<Option<V>, ShardFailed> {
        Ok(self.write_shard(&key)?.insert(key, value))
    }

    /// Atomic read-modify-write; `Ok(false)` when the key is absent, `Err`
    /// when its shard is failed (the write is dropped).
    pub(crate) fn try_update(&self, key: &K, f: impl FnOnce(&mut V)) -> Result<bool, ShardFailed> {
        Ok(self.write_shard(key)?.get_mut(key).map(f).is_some())
    }

    /// Remove a key, returning its value, or the failed shard the write was
    /// dropped on.
    pub(crate) fn try_remove(&self, key: &K) -> Result<Option<V>, ShardFailed> {
        Ok(self.write_shard(key)?.remove(key))
    }

    /// Insert, returning the previous value. Dropped (returning `None`)
    /// when the key's shard is failed.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.try_insert(key, value).unwrap_or(None)
    }

    /// Clone-read a value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.read_shard(key).get(key).cloned()
    }

    /// Read through a closure without cloning.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.read_shard(key).get(key).map(f)
    }

    /// Atomic read-modify-write; returns false when the key is absent or
    /// its shard is failed (the write is dropped).
    pub fn update(&self, key: &K, f: impl FnOnce(&mut V)) -> bool {
        self.try_update(key, f).unwrap_or(false)
    }

    /// Insert-or-update. Dropped when the key's shard is failed.
    pub fn upsert(&self, key: K, insert: impl FnOnce() -> V, update: impl FnOnce(&mut V)) {
        let Ok(mut guard) = self.write_shard(&key) else {
            return;
        };
        match guard.entry(key) {
            Entry::Occupied(mut e) => update(e.get_mut()),
            Entry::Vacant(e) => {
                e.insert(insert());
            }
        }
    }

    /// Remove a key, returning its value. Dropped (returning `None`) when
    /// the key's shard is failed.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.try_remove(key).unwrap_or(None)
    }

    /// Visit every entry, one shard read-lock at a time (shard index order;
    /// entry order within a shard is unspecified — sort the collected output
    /// if determinism matters). Like [`ShardedMap::len`], the view is not
    /// linearizable across shards.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.shards {
            for (k, v) in s.lock.read().iter() {
                f(k, v);
            }
        }
    }

    /// Total entries across shards (not linearizable, like Redis `DBSIZE`).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock.read().len()).sum()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shard_count_power_of_two() {
        assert_eq!(ShardedMap::<u64, u64>::new(0).num_shards(), 1);
        assert_eq!(ShardedMap::<u64, u64>::new(5).num_shards(), 8);
        assert_eq!(ShardedMap::<u64, u64>::new(16).num_shards(), 16);
    }

    #[test]
    fn basic_ops() {
        let m = ShardedMap::new(8);
        assert!(m.is_empty());
        assert_eq!(m.insert(1u64, "a"), None);
        assert_eq!(m.insert(1, "b"), Some("a"));
        assert_eq!(m.get(&1), Some("b"));
        assert_eq!(m.with(&1, |v| v.len()), Some(1));
        assert!(m.update(&1, |v| *v = "c"));
        assert!(!m.update(&2, |_| unreachable!()));
        m.upsert(2, || "x", |_| unreachable!());
        m.upsert(2, || unreachable!(), |v| *v = "y");
        assert_eq!(m.get(&2), Some("y"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&1), Some("c"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn failed_shard_drops_writes_but_serves_stale_reads() {
        let m = ShardedMap::new(1); // one shard: every key maps to it
        m.insert(1u64, 10u64);
        assert_eq!(m.shard_index(&1), 0);
        m.fail_shard(0, true);
        assert_eq!(m.failed_shards(), vec![0]);
        // writes of every flavor are dropped …
        assert_eq!(m.insert(2, 20), None);
        assert!(!m.update(&1, |v| *v = 99));
        m.upsert(3, || 30, |_| unreachable!());
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.dropped_writes(), 4);
        // … while stale reads keep working
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&2), None);
        // healing restores writes; the drop counter is cumulative
        m.fail_shard(0, false);
        assert!(m.failed_shards().is_empty());
        assert!(m.update(&1, |v| *v = 11));
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.dropped_writes(), 4);
    }

    #[test]
    fn try_writes_name_the_failed_shard_and_count_one_drop_each() {
        let m = ShardedMap::new(4);
        let shard = m.shard_index(&7u64);
        assert_eq!(m.try_insert(7, 70u64), Ok(None));
        m.fail_shard(shard, true);
        let failed = ShardFailed { shard };
        assert_eq!(m.try_insert(7, 71), Err(failed));
        assert_eq!(m.try_update(&7, |v| *v = 72), Err(failed));
        assert_eq!(m.try_remove(&7), Err(failed));
        assert_eq!(m.dropped_writes(), 3);
        // dropped writes touch neither the value nor the shard's op count
        assert_eq!(m.get(&7), Some(70));
        assert_eq!(m.shard_ops()[shard], 2);
    }

    /// The id shapes a line-protocol client can send: counting up, strided
    /// by a power of two, and set only in their high bits.
    fn id_families() -> [(&'static str, Vec<u64>); 4] {
        let n = 1u64 << 16;
        [
            ("sequential", (0..n).collect()),
            ("stride 64", (0..n).map(|i| i * 64).collect()),
            ("stride 2^32", (0..n).map(|i| i << 32).collect()),
            ("high 16 bits only", (0..n).map(|i| i << 48).collect()),
        ]
    }

    #[test]
    fn patterned_ids_spread_evenly_over_shards() {
        for (family, ids) in id_families() {
            let m = ShardedMap::<u64, ()>::new(64);
            let mut load = [0usize; 64];
            for id in &ids {
                load[m.shard_index(id)] += 1;
            }
            let mean = ids.len() / 64;
            let max = *load.iter().max().unwrap();
            assert!(
                2 * max <= 3 * mean,
                "{family}: fullest shard holds {max} ids, mean {mean}"
            );
        }
    }

    #[test]
    fn keys_sharing_a_shard_still_spread_over_its_buckets() {
        // The inner table indexes buckets with the hash's low bits. Were the
        // shard picked from those same bits, every key of a shard would
        // agree on them and pile into 1/64 of the buckets. Model the table
        // at the size it would have (7/8 load factor, power of two) and
        // count the buckets the shard's keys actually start their probe at.
        let hasher = BuildCallIdHasher::default();
        for (family, ids) in id_families() {
            let m = ShardedMap::<u64, ()>::new(64);
            let mut by_shard = vec![Vec::new(); 64];
            for id in &ids {
                by_shard[m.shard_index(id)].push(hasher.hash_one(id));
            }
            for hashes in by_shard {
                let n = hashes.len();
                let buckets = (n * 8 / 7 + 1).next_power_of_two();
                let mut hits = vec![0u32; buckets];
                for h in hashes {
                    hits[h as usize & (buckets - 1)] += 1;
                }
                let used = hits.iter().filter(|&&c| c > 0).count();
                let deepest = *hits.iter().max().unwrap();
                // uniform hashing fills about 3/4 of the keys' worth of
                // buckets here and stacks at most 6 or 7 keys on one
                assert!(
                    2 * used >= n,
                    "{family}: {n} keys start in only {used} buckets"
                );
                assert!(deepest <= 12, "{family}: {deepest} keys share one bucket");
            }
        }
    }

    #[test]
    fn shard_placement_is_the_same_in_every_map_and_every_process() {
        let a = ShardedMap::<u64, ()>::new(64);
        let b = ShardedMap::<u64, u64>::new(64);
        for id in id_families().iter().flat_map(|(_, ids)| &ids[..512]) {
            assert_eq!(a.shard_index(id), b.shard_index(id));
        }
        // Recorded once: any process, on any run, must land on the same
        // shards, or a `fail_shard` drill would hit different calls each time.
        let recorded = [
            (0u64, 57usize),
            (1, 44),
            (2, 30),
            (64, 8),
            (1 << 32, 26),
            (1 << 48, 48),
            (u64::MAX, 55),
        ];
        for (id, shard) in recorded {
            assert_eq!(a.shard_index(&id), shard, "call id {id}");
        }
        assert_eq!(
            BuildCallIdHasher::default().hash_one(1u64),
            0x910a_2dec_8902_5cc1
        );
    }

    #[test]
    fn byte_keys_hash_by_content_and_length() {
        let h = |s: &str| BuildCallIdHasher::default().hash_one(s);
        assert_eq!(h("call-7"), h("call-7"));
        assert_ne!(h("call-7"), h("call-8"));
        assert_ne!(h("ab"), h("ab\0"));
    }

    #[test]
    fn for_each_visits_every_entry() {
        let m = ShardedMap::new(4);
        for k in 0..32u64 {
            m.insert(k, k * 10);
        }
        let mut seen: Vec<(u64, u64)> = Vec::new();
        m.for_each(|&k, &v| seen.push((k, v)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 32);
        for (i, &(k, v)) in seen.iter().enumerate() {
            assert_eq!((k, v), (i as u64, i as u64 * 10));
        }
    }

    #[test]
    fn concurrent_counters_are_exact() {
        // read-modify-write under contention must not lose updates
        let m = Arc::new(ShardedMap::new(4));
        for k in 0..8u64 {
            m.insert(k, 0u64);
        }
        let threads = 8;
        let per_thread = 5_000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let k = ((t + i) % 8) as u64;
                        m.update(&k, |v| *v += 1);
                    }
                });
            }
        });
        let total: u64 = (0..8u64).map(|k| m.get(&k).unwrap()).sum();
        assert_eq!(total, (threads * per_thread) as u64);
    }
}
