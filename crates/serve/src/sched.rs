//! The decode scheduler: single-flight coalescing plus queue-draining batch waves.
//!
//! A connection thread that misses the cache on a full field does not decode: it
//! submits the field here and blocks on the returned [`FlightSlot`] until the wave
//! worker completes it. Two properties fall out:
//!
//! * **Single-flight** — a per-`(archive, generation, field, kind)` in-flight table
//!   deduplicates concurrent misses of the *same* field: the first miss creates a
//!   [`FlightSlot`], every later one joins it, and the one decode's result fans back
//!   out to all waiters (`sched_coalesced` counts the joins).
//! * **Wave batching** — whenever the worker is free it drains the *whole* pending
//!   queue as one wave, so misses on distinct fields that arrive while a wave decodes
//!   form the next one (group commit; no timer holds a wave open). The worker submits
//!   a wave, data and codes fields alike, as one codec call (`Codec::decode_to_bytes`)
//!   so its fields run as one overlapped batch — the serving-side analogue of the
//!   paper's batched kernel launches (`sched_waves` / `sched_wave_fields` /
//!   `sched_multi_field_waves`) — and each flight completes with its own field's
//!   outcome.
//!
//! Admission control: the pending queue is bounded ([`QUEUE_BOUND`]). A submission
//! that would push it past the bound is **shed** — nothing is enqueued, `sched_shed`
//! is bumped, and the server answers the typed `BUSY` protocol reply instead of
//! queueing unbounded work under overload.
//!
//! The scheduler is pure bookkeeping (a mutex, a condvar, a map); the decode itself
//! runs on the daemon's wave-worker thread, which loops on [`Scheduler::next_wave`].

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use huffdec_metrics::Metrics;

use crate::cache::CacheKey;
use crate::store::LoadedArchive;

/// The daemon's admission bound: the most not-yet-started decodes its pending queue
/// holds. A request whose cold fields would push the queue past it answers `BUSY`.
pub(crate) const QUEUE_BOUND: usize = 256;

/// One in-flight decode: waiters block on the slot until the wave worker completes
/// it with either the decoded bytes or an error message.
#[derive(Debug, Default)]
pub(crate) struct FlightSlot {
    done: Mutex<Option<Result<Arc<Vec<u8>>, String>>>,
    cv: Condvar,
}

impl FlightSlot {
    fn new() -> Arc<FlightSlot> {
        Arc::new(FlightSlot::default())
    }

    /// Blocks until the flight completes.
    pub fn wait(&self) -> Result<Arc<Vec<u8>>, String> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Completes the flight and wakes every waiter. First completion wins.
    pub(crate) fn complete(&self, result: Result<Arc<Vec<u8>>, String>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        if done.is_none() {
            *done = Some(result);
        }
        drop(done);
        self.cv.notify_all();
    }
}

/// One pending decode the wave worker will run: which field, and the slot its result
/// fans out through. The task pins the loaded archive alive for the decode's duration.
#[derive(Debug)]
pub(crate) struct DecodeTask {
    /// Cache key of the representation being decoded (`key.kind` is what the field
    /// decodes to).
    pub key: CacheKey,
    /// The archive the field lives in.
    pub loaded: Arc<LoadedArchive>,
    /// Field index within the archive.
    pub field: usize,
    /// Where the result lands.
    pub slot: Arc<FlightSlot>,
}

/// What a submission resolved to: the flight to wait on, and whether this submission
/// *created* it (vs. joining one already in flight).
#[derive(Debug)]
pub(crate) struct SubmitOutcome {
    /// The flight carrying this field's decode.
    pub slot: Arc<FlightSlot>,
    /// True when this submission enqueued the decode (false = coalesced join).
    pub created: bool,
}

#[derive(Debug)]
struct SchedInner {
    pending: Vec<DecodeTask>,
    inflight: HashMap<CacheKey, Arc<FlightSlot>>,
    stop: bool,
}

/// The single-flight table and bounded pending queue shared by every connection.
#[derive(Debug)]
pub(crate) struct Scheduler {
    inner: Mutex<SchedInner>,
    wake: Condvar,
    queue_bound: usize,
    metrics: Arc<Metrics>,
}

impl Scheduler {
    /// A scheduler admitting at most `queue_bound` not-yet-started decodes: the daemon
    /// passes [`QUEUE_BOUND`]; unit tests pass a bound their submits can reach.
    pub fn new(queue_bound: usize, metrics: Arc<Metrics>) -> Scheduler {
        Scheduler {
            inner: Mutex::new(SchedInner {
                pending: Vec::new(),
                inflight: HashMap::new(),
                stop: false,
            }),
            wake: Condvar::new(),
            queue_bound,
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Submits one request's cold fields as a single admission decision. Keys must be
    /// distinct within the group (the server dedups duplicates in a batch request).
    ///
    /// Fields already in flight are joined (no queue slot consumed, `sched_coalesced`
    /// bumped); the rest are enqueued for the next wave. If enqueueing the new fields
    /// would push the pending queue past the bound — or the daemon is shutting down —
    /// the **whole group** is shed: nothing is enqueued, `sched_shed` is bumped once,
    /// and `None` tells the server to answer `BUSY`.
    pub fn submit_group(
        &self,
        wants: &[(CacheKey, Arc<LoadedArchive>, usize)],
    ) -> Option<Vec<SubmitOutcome>> {
        let mut inner = self.lock();
        let new_needed = wants
            .iter()
            .filter(|(key, _, _)| !inner.inflight.contains_key(key))
            .count();
        if inner.stop || inner.pending.len() + new_needed > self.queue_bound {
            self.metrics.update(|m| m.sched_shed += 1);
            return None;
        }
        let mut outcomes = Vec::with_capacity(wants.len());
        for (key, loaded, field) in wants {
            if let Some(slot) = inner.inflight.get(key) {
                outcomes.push(SubmitOutcome {
                    slot: Arc::clone(slot),
                    created: false,
                });
                continue;
            }
            let slot = FlightSlot::new();
            inner.inflight.insert(key.clone(), Arc::clone(&slot));
            inner.pending.push(DecodeTask {
                key: key.clone(),
                loaded: Arc::clone(loaded),
                field: *field,
                slot: Arc::clone(&slot),
            });
            outcomes.push(SubmitOutcome {
                slot,
                created: true,
            });
        }
        // The gauge is published under the scheduler's lock, so depths land in queue
        // order (the registry's lock is a leaf and may nest inside it).
        let coalesced = outcomes.iter().filter(|o| !o.created).count() as u64;
        self.metrics.update(|m| {
            m.sched_coalesced += coalesced;
            m.sched_queue_depth = inner.pending.len() as u64;
        });
        drop(inner);
        self.wake.notify_all();
        Some(outcomes)
    }

    /// Worker side: blocks until at least one decode is pending, then drains the
    /// whole queue as one wave. Everything submitted while the previous wave decoded
    /// is in it. Returns `None` once the scheduler is stopped and drained.
    pub fn next_wave(&self) -> Option<Vec<DecodeTask>> {
        let mut inner = self.lock();
        while inner.pending.is_empty() {
            if inner.stop {
                return None;
            }
            inner = self.wake.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
        let tasks = std::mem::take(&mut inner.pending);
        self.metrics.update(|m| {
            m.sched_queue_depth = 0;
            m.sched_waves += 1;
            m.sched_wave_fields += tasks.len() as u64;
            m.sched_multi_field_waves += u64::from(tasks.len() > 1);
        });
        drop(inner);
        Some(tasks)
    }

    /// Removes a completed flight from the in-flight table. Called by the worker
    /// *after* the cache insert and the slot completion, so any miss that no longer
    /// finds the flight is guaranteed to find the cache entry (or redo the decode —
    /// correct either way, the cache's first-insert-wins dedups the bytes).
    pub fn finish(&self, key: &CacheKey) {
        self.lock().inflight.remove(key);
    }

    /// Stops the scheduler: fails every still-pending task (so blocked waiters get an
    /// error instead of hanging) and wakes the worker so it can exit.
    pub fn stop(&self) {
        let mut inner = self.lock();
        inner.stop = true;
        let tasks = std::mem::take(&mut inner.pending);
        for task in &tasks {
            inner.inflight.remove(&task.key);
        }
        self.metrics.update(|m| m.sched_queue_depth = 0);
        drop(inner);
        for task in tasks {
            task.slot
                .complete(Err("daemon is shutting down".to_string()));
        }
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::GetKind;
    use crate::store::ArchiveStore;

    type Want = (CacheKey, Arc<LoadedArchive>, usize);

    /// A scheduler admitting `queue_bound` decodes, its metrics, and what the fetch
    /// path submits for a cold field of a two-field archive loaded through the store.
    fn setup(queue_bound: usize, name: &str) -> (Scheduler, Arc<Metrics>, impl Fn(u32) -> Want) {
        let path = std::env::temp_dir().join(format!("hfzd-sched-{}.hfz", name));
        crate::store::tests::write_archive_file(&path, &[1, 2]);
        let store = ArchiveStore::new();
        let loaded = store.load(name, path.to_str().unwrap()).unwrap();
        let want = move |field| {
            let key = CacheKey {
                archive: loaded.name.clone(),
                generation: loaded.generation,
                field,
                kind: GetKind::Data,
            };
            (key, Arc::clone(&loaded), field as usize)
        };
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(queue_bound, Arc::clone(&metrics));
        (sched, metrics, want)
    }

    #[test]
    fn groups_submitted_before_a_wave_merge_into_it() {
        let (sched, metrics, want) = setup(256, "merge");
        // Two requests, each its own group, both queued before the worker looks.
        let a = sched.submit_group(&[want(0)]).unwrap();
        let b = sched.submit_group(&[want(1)]).unwrap();
        let wave = sched.next_wave().unwrap();
        assert_eq!(wave.len(), 2, "one wave drains both requests");
        assert!(Arc::ptr_eq(&wave[0].slot, &a[0].slot) && Arc::ptr_eq(&wave[1].slot, &b[0].slot));
        let m = metrics.snapshot();
        assert_eq!(
            (m.sched_waves, m.sched_multi_field_waves, m.sched_shed),
            (1, 1, 0)
        );
    }

    #[test]
    fn a_full_queue_sheds_new_work_and_keeps_what_it_admitted() {
        let (sched, metrics, want) = setup(1, "shed");
        let a = sched.submit_group(&[want(0)]).unwrap();
        assert!(
            sched.submit_group(&[want(1)]).is_none(),
            "B overflows a bound of 1"
        );
        assert_eq!(metrics.snapshot().sched_shed, 1);
        let wave = sched.next_wave().unwrap();
        assert!(
            wave.len() == 1 && Arc::ptr_eq(&wave[0].slot, &a[0].slot),
            "A still drains"
        );
    }

    #[test]
    fn stop_fails_pending_flights_and_ends_the_worker() {
        let (sched, _, want) = setup(256, "stop");
        let pending = sched.submit_group(&[want(0), want(1)]).unwrap();
        sched.stop();
        for flight in pending {
            assert_eq!(
                flight.slot.wait(),
                Err("daemon is shutting down".to_string())
            );
        }
        assert!(sched.next_wave().is_none());
    }

    #[test]
    fn flight_slot_fans_out_to_every_waiter() {
        let slot = FlightSlot::new();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || slot.wait())
            })
            .collect();
        let bytes = Arc::new(vec![1u8, 2, 3]);
        slot.complete(Ok(Arc::clone(&bytes)));
        for waiter in waiters {
            let got = waiter.join().unwrap().expect("completed ok");
            assert!(Arc::ptr_eq(&got, &bytes), "all waiters share one buffer");
        }
        // Completion persists: a waiter arriving afterwards gets the same buffer.
        assert!(Arc::ptr_eq(&slot.wait().unwrap(), &bytes));
    }

    #[test]
    fn flight_slot_first_completion_wins() {
        let slot = FlightSlot::new();
        slot.complete(Err("first".to_string()));
        slot.complete(Ok(Arc::new(vec![9])));
        assert_eq!(slot.wait(), Err("first".to_string()));
    }
}
