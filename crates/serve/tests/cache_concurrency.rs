//! Multi-threaded hammer test for the decoded-field LRU: counters must stay
//! consistent and the byte budget must hold under every interleaving.
//!
//! The cache is the daemon's only mutable hot-path state, so this is the concurrency
//! property the whole serving layer leans on: `hits + misses` equals the number of
//! `get`s issued, every miss is followed by exactly one accounted insertion (or an
//! uncacheable refusal), and `used_bytes` never exceeds the budget — checked under the
//! lock after *every* operation, not just at the end.

use std::sync::{Arc, Mutex};

use huffdec_serve::cache::{CacheKey, DecodedLru};
use huffdec_serve::protocol::GetKind;

fn key(archive: u64, field: u64, kind: GetKind) -> CacheKey {
    CacheKey {
        archive: format!("arch-{}", archive),
        generation: 1,
        field: field as u32,
        kind,
    }
}

/// A tiny deterministic PRNG (xorshift) so the schedule differs per thread without
/// pulling in a dependency.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn hammer_counters_are_consistent_and_budget_holds() {
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 2_000;
    const BUDGET: u64 = 10_000;

    let cache = Arc::new(Mutex::new(DecodedLru::new(BUDGET)));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        workers.push(std::thread::spawn(move || {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
            let (mut local_gets, mut local_hits) = (0u64, 0u64);
            for _ in 0..OPS_PER_THREAD {
                let r = xorshift(&mut rng);
                let k = key(
                    r % 3,
                    (r >> 8) % 12,
                    if r & 1 == 0 {
                        GetKind::Data
                    } else {
                        GetKind::Codes
                    },
                );
                // Mostly gets with miss-filling inserts; sizes vary so eviction
                // pressure is constant and some entries are uncacheable.
                let mut guard = cache.lock().unwrap();
                local_gets += 1;
                let hit = guard.get(&k).is_some();
                if hit {
                    local_hits += 1;
                } else {
                    let size = match (r >> 16) % 10 {
                        9 => BUDGET as usize + 1, // uncacheable
                        n => 500 + (n as usize) * 300,
                    };
                    let returned = guard.insert(k, vec![0u8; size]);
                    assert_eq!(returned.len(), size);
                }
                guard
                    .check_invariants()
                    .expect("invariants must hold after every operation");
                assert!(guard.used_bytes() <= BUDGET);
                drop(guard);
            }
            (local_gets, local_hits)
        }));
    }

    let mut total_gets = 0u64;
    let mut total_hits = 0u64;
    for worker in workers {
        let (gets, hits) = worker.join().unwrap();
        total_gets += gets;
        total_hits += hits;
    }

    let guard = cache.lock().unwrap();
    let stats = guard.metrics().snapshot();
    assert_eq!(total_gets, THREADS * OPS_PER_THREAD);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        total_gets,
        "every get is exactly one hit or one miss: {:?}",
        stats
    );
    assert_eq!(
        stats.cache_hits, total_hits,
        "hit counters agree: {:?}",
        stats
    );
    assert_eq!(
        stats.cache_insertions + stats.cache_uncacheable,
        stats.cache_misses,
        "every miss was followed by exactly one insert or refusal: {:?}",
        stats
    );
    assert!(
        stats.cache_evictions > 0,
        "the budget must have forced evictions"
    );
    assert!(
        stats.cache_uncacheable > 0,
        "oversized entries must have occurred"
    );
    guard.check_invariants().unwrap();
    assert!(guard.used_bytes() <= BUDGET);
}

#[test]
fn hammer_shared_entries_survive_while_referenced() {
    // Readers hold Arc'd bytes across evictions: the data stays valid even after the
    // entry is pushed out, exactly like a response being streamed during an eviction.
    let cache = Arc::new(Mutex::new(DecodedLru::new(1_000)));
    let k0 = key(0, 0, GetKind::Data);
    let held = cache.lock().unwrap().insert(k0.clone(), vec![7u8; 900]);
    // Force k0 out.
    cache
        .lock()
        .unwrap()
        .insert(key(0, 1, GetKind::Data), vec![1u8; 900]);
    assert!(cache.lock().unwrap().peek(&k0).is_none(), "evicted");
    assert!(held.iter().all(|&b| b == 7), "held bytes outlive eviction");
    assert_eq!(
        cache.lock().unwrap().metrics().snapshot().cache_evictions,
        1
    );
}
