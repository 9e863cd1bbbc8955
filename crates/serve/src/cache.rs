//! The decoded-field LRU cache: bytes-budgeted, not entry-counted.
//!
//! The GAMESS serving scenario keeps snapshots compressed in memory and decodes fields
//! on demand; the cache is what turns "every `GET` pays a GPU decode" into "hot fields
//! are a memcpy". Decoded fields vary wildly in size (a 2⁰-element diagnostic next to a
//! 2²⁷-element grid), so the budget is expressed in **bytes**: entries are evicted in
//! least-recently-used order until an insertion fits, and an entry larger than the whole
//! budget is simply not cached (it would evict everything for a single use).
//!
//! The cache itself is a plain data structure; the server wraps it in a
//! `std::sync::Mutex` and shares it across client threads. Entries hand out
//! `Arc<Vec<u8>>`, so a hit holds the lock only long enough to bump recency — the bytes
//! are copied to the socket outside the lock, and an entry evicted mid-response stays
//! alive until the last reader drops it.

use std::collections::HashMap;
use std::sync::Arc;

use huffdec_metrics::{Metrics, MetricsSnapshot};

use crate::protocol::GetKind;

/// Cache key: one decoded representation of one field of one loaded archive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Name the archive was loaded under.
    pub archive: String,
    /// Load generation of the archive (`LoadedArchive::generation`). A re-`LOAD` under
    /// the same name bumps the generation, so a decode of the *old* archive that races
    /// the re-load and inserts after `invalidate_archive` lands under a key no new
    /// request ever looks up — it idles until the LRU evicts it, instead of being
    /// served as a permanently pinned stale hit.
    pub generation: u64,
    /// Field index within the archive file.
    pub field: u32,
    /// Which representation (reconstructed f32 data vs. decoded u16 codes).
    pub kind: GetKind,
}

#[derive(Debug)]
struct Entry {
    bytes: Arc<Vec<u8>>,
    last_used: u64,
}

/// A bytes-budgeted LRU cache of decoded fields.
///
/// All counters live in a [`Metrics`] registry (the `cache_*` fields), so a cache built
/// with [`DecodedLru::with_metrics`] shares its hit/miss/eviction accounting with the
/// codec that fills it — one registry, one `/metrics` render.
#[derive(Debug)]
pub struct DecodedLru {
    budget_bytes: u64,
    used_bytes: u64,
    clock: u64,
    entries: HashMap<CacheKey, Entry>,
    metrics: Arc<Metrics>,
}

impl DecodedLru {
    /// Creates a cache that will never hold more than `budget_bytes` of decoded data,
    /// recording into its own private registry.
    pub fn new(budget_bytes: u64) -> Self {
        DecodedLru::with_metrics(budget_bytes, Arc::new(Metrics::new()))
    }

    /// Like [`DecodedLru::new`], but recording into a shared registry — how the daemon
    /// points the cache and its codec at the same instruments.
    pub fn with_metrics(budget_bytes: u64, metrics: Arc<Metrics>) -> Self {
        metrics.update(|m| m.cache_budget_bytes = budget_bytes);
        DecodedLru {
            budget_bytes,
            used_bytes: 0,
            clock: 0,
            entries: HashMap::new(),
            metrics,
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently held; never exceeds the budget.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registry this cache records into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Publishes the occupancy gauges and whatever `record` bumps, in one update.
    fn publish(&self, record: impl FnOnce(&mut MetricsSnapshot)) {
        let (used, entries) = (self.used_bytes, self.entries.len() as u64);
        self.metrics.update(|m| {
            record(m);
            m.cache_used_bytes = used;
            m.cache_entries = entries;
        });
    }

    /// Looks up `key`, counting a hit or a miss and refreshing recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.metrics.update(|m| m.cache_hits += 1);
                Some(Arc::clone(&entry.bytes))
            }
            None => {
                self.metrics.update(|m| m.cache_misses += 1);
                None
            }
        }
    }

    /// Peeks without touching recency or counters (used when a decode raced another
    /// thread's insertion and the result only needs deduplicating, not accounting).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        self.entries.get(key).map(|e| Arc::clone(&e.bytes))
    }

    /// Inserts `bytes` under `key`, evicting least-recently-used entries until the
    /// budget holds. Returns the (possibly pre-existing) cached value: if another
    /// thread inserted the same key first, that copy wins and no accounting changes.
    /// An entry larger than the whole budget is returned uncached.
    pub fn insert(&mut self, key: CacheKey, bytes: Vec<u8>) -> Arc<Vec<u8>> {
        if let Some(existing) = self.entries.get(&key) {
            return Arc::clone(&existing.bytes);
        }
        let size = bytes.len() as u64;
        let bytes = Arc::new(bytes);
        if size > self.budget_bytes {
            self.metrics.update(|m| m.cache_uncacheable += 1);
            return bytes;
        }
        let mut evictions = 0;
        while self.used_bytes + size > self.budget_bytes {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("used_bytes > 0 implies at least one entry");
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.used_bytes -= evicted.bytes.len() as u64;
            evictions += 1;
        }
        self.clock += 1;
        self.used_bytes += size;
        self.entries.insert(
            key,
            Entry {
                bytes: Arc::clone(&bytes),
                last_used: self.clock,
            },
        );
        self.publish(|m| {
            m.cache_evictions += evictions;
            m.cache_insertions += 1;
        });
        bytes
    }

    /// Drops every entry belonging to `archive` (used when an archive is re-loaded
    /// under the same name, so stale decodes cannot be served).
    pub fn invalidate_archive(&mut self, archive: &str) {
        let keys: Vec<CacheKey> = self
            .entries
            .keys()
            .filter(|k| k.archive == archive)
            .cloned()
            .collect();
        for key in keys {
            let entry = self.entries.remove(&key).expect("key just listed");
            self.used_bytes -= entry.bytes.len() as u64;
        }
        self.publish(|_| {});
    }

    /// Checks the structural invariants the concurrency tests assert after every
    /// operation: accounted bytes match the entries exactly and never exceed the budget.
    pub fn check_invariants(&self) -> Result<(), String> {
        let actual: u64 = self.entries.values().map(|e| e.bytes.len() as u64).sum();
        if actual != self.used_bytes {
            return Err(format!(
                "used_bytes {} does not match entry total {}",
                self.used_bytes, actual
            ));
        }
        if self.used_bytes > self.budget_bytes {
            return Err(format!(
                "used_bytes {} exceeds budget {}",
                self.used_bytes, self.budget_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry counters a cache records into.
    fn counters(c: &DecodedLru) -> MetricsSnapshot {
        c.metrics().snapshot()
    }

    fn key(archive: &str, field: u32) -> CacheKey {
        CacheKey {
            archive: archive.into(),
            generation: 1,
            field,
            kind: GetKind::Data,
        }
    }

    #[test]
    fn hit_miss_and_insert_accounting() {
        let mut c = DecodedLru::new(100);
        assert!(c.get(&key("a", 0)).is_none());
        c.insert(key("a", 0), vec![1; 40]);
        let got = c.get(&key("a", 0)).expect("cached");
        assert_eq!(got.len(), 40);
        let s = counters(&c);
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.cache_insertions),
            (1, 1, 1)
        );
        assert_eq!(c.used_bytes(), 40);
        c.check_invariants().unwrap();
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = DecodedLru::new(100);
        c.insert(key("a", 0), vec![0; 40]);
        c.insert(key("a", 1), vec![0; 40]);
        // Touch field 0 so field 1 becomes the LRU victim.
        assert!(c.get(&key("a", 0)).is_some());
        c.insert(key("a", 2), vec![0; 40]);
        assert!(c.peek(&key("a", 0)).is_some(), "recently used survives");
        assert!(c.peek(&key("a", 1)).is_none(), "LRU entry evicted");
        assert!(c.peek(&key("a", 2)).is_some());
        assert_eq!(counters(&c).cache_evictions, 1);
        assert!(c.used_bytes() <= c.budget_bytes());
        c.check_invariants().unwrap();
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = DecodedLru::new(64);
        c.insert(key("a", 0), vec![0; 32]);
        let big = c.insert(key("a", 1), vec![0; 65]);
        assert_eq!(big.len(), 65, "value is still returned to the caller");
        assert!(c.peek(&key("a", 1)).is_none());
        assert!(c.peek(&key("a", 0)).is_some(), "existing entries survive");
        assert_eq!(counters(&c).cache_uncacheable, 1);
        assert_eq!(counters(&c).cache_evictions, 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_returns_the_first_copy() {
        let mut c = DecodedLru::new(100);
        let first = c.insert(key("a", 0), vec![1; 10]);
        let second = c.insert(key("a", 0), vec![2; 10]);
        assert!(Arc::ptr_eq(&first, &second), "first insertion wins");
        assert_eq!(counters(&c).cache_insertions, 1);
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn keys_distinguish_kind_and_field() {
        let mut c = DecodedLru::new(1000);
        c.insert(key("a", 0), vec![0; 8]);
        let codes = CacheKey {
            archive: "a".into(),
            generation: 1,
            field: 0,
            kind: GetKind::Codes,
        };
        assert!(c.peek(&codes).is_none());
        c.insert(codes.clone(), vec![0; 4]);
        assert_eq!(c.len(), 2);
        assert!(c.peek(&codes).is_some());
    }

    #[test]
    fn generations_isolate_reloads() {
        let mut c = DecodedLru::new(1000);
        // A stale insert under the old generation (the LOAD/GET race) is invisible to
        // requests addressing the new generation.
        let old_gen = CacheKey {
            generation: 1,
            ..key("a", 0)
        };
        let new_gen = CacheKey {
            generation: 2,
            ..key("a", 0)
        };
        c.insert(old_gen.clone(), vec![1; 8]);
        assert!(c.get(&new_gen).is_none(), "new generation never sees it");
        c.insert(new_gen.clone(), vec![2; 8]);
        assert_eq!(c.get(&new_gen).unwrap()[0], 2);
        // Name-based invalidation drops every generation of the name.
        c.invalidate_archive("a");
        assert!(c.peek(&old_gen).is_none() && c.peek(&new_gen).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_archive_drops_only_that_archive() {
        let mut c = DecodedLru::new(1000);
        c.insert(key("a", 0), vec![0; 8]);
        c.insert(key("a", 1), vec![0; 8]);
        c.insert(key("b", 0), vec![0; 8]);
        c.invalidate_archive("a");
        assert!(c.peek(&key("a", 0)).is_none());
        assert!(c.peek(&key("a", 1)).is_none());
        assert!(c.peek(&key("b", 0)).is_some());
        assert_eq!(c.used_bytes(), 8);
        c.check_invariants().unwrap();
    }

    #[test]
    fn evictions_cascade_until_the_insertion_fits() {
        let mut c = DecodedLru::new(100);
        for f in 0..4 {
            c.insert(key("a", f), vec![0; 25]);
        }
        assert_eq!(c.len(), 4);
        c.insert(key("b", 0), vec![0; 90]);
        assert!(c.peek(&key("b", 0)).is_some());
        assert_eq!(
            counters(&c).cache_evictions,
            4,
            "all four entries had to go"
        );
        assert_eq!(c.used_bytes(), 90);
        c.check_invariants().unwrap();
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut c = DecodedLru::new(0);
        c.insert(key("a", 0), vec![0; 1]);
        assert!(c.is_empty());
        assert_eq!(counters(&c).cache_uncacheable, 1);
        c.check_invariants().unwrap();
    }
}
