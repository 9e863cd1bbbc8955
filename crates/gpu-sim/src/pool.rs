//! The device's worker pool: the helper threads that run a launch's blocks, or a wave's
//! fields, next to the thread that asked.
//!
//! A job is `n` tasks behind one atomic cursor. The calling thread always works; the
//! helpers it wakes take only the tasks still left when they get there, so no task
//! waits for a helper. One job runs at a time: a job that finds the pool busy (another
//! thread's launch, or a launch made from inside a task) runs all of its tasks on its
//! own thread, so nesting neither waits nor oversubscribes the host.
//!
//! The helpers start with the first job that can use them and exit when the pool drops.
//! That first job returns only once every helper has started: a thread's own start-up
//! (the standard library copies a named thread's name there) then never runs during a
//! later job or a later request.

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// One job's work: called once with each index in `0..n`.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// A pool of `threads − 1` helpers; the thread that submits a job is the last worker.
pub(crate) struct Pool {
    threads: usize,
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    /// Helpers sleep here between jobs.
    wake: Condvar,
    /// The submitting thread sleeps here until the last helper has left its job (and,
    /// on the first job, until every helper has started).
    left: Condvar,
    /// The next task index of the current job. `Relaxed` is enough: it only hands out
    /// indices, and what the tasks write is published by the `state` lock a helper
    /// takes to leave the job and the submitter takes to see that it left.
    cursor: AtomicUsize,
}

#[derive(Default)]
struct State {
    /// The current job and its task count; `Some` is what makes the pool busy.
    job: Option<(&'static Task<'static>, usize)>,
    /// How many more helpers may join the current job.
    openings: usize,
    /// Helpers inside the current job.
    active: usize,
    /// Helpers that have finished starting and taken the lock once.
    started: usize,
    /// The first panic payload of the current job.
    panic: Option<Box<dyn Any + Send>>,
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

impl Shared {
    /// No code panics while holding the lock (tasks run outside it, under
    /// `catch_unwind`), so a poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes tasks off the cursor until none are left. A panicking task is caught and
    /// its payload kept (the first one wins), so a worker always leaves normally.
    fn work(&self, task: &Task<'_>, n: usize) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                self.lock().panic.get_or_insert(payload);
            }
        }
    }
}

impl Pool {
    /// A pool for `threads` workers (at least one, the submitting thread). No thread
    /// starts until a job can use one.
    pub(crate) fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
                left: Condvar::new(),
                cursor: AtomicUsize::new(0),
            }),
        }
    }

    /// The worker count, the submitting thread included.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i` in `0..n` on the calling thread and up to
    /// `min(threads, n) − 1` helpers, and returns when all have run and every helper has
    /// started. A task's panic is re-raised here with its own payload, once every helper
    /// has left the job.
    pub(crate) fn run(&self, n: usize, task: &Task<'_>) {
        let openings = (self.threads - 1).min(n.saturating_sub(1));
        if openings == 0 || !self.submit(n, task, openings) {
            return (0..n).for_each(task);
        }
        self.shared.work(task, n);
        let panic = {
            let mut state = self.shared.lock();
            state.openings = 0;
            while state.active > 0 || state.started < state.helpers.len() {
                state = self
                    .shared
                    .left
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            state.panic.take()
        };
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }

    /// Publishes `task` as the pool's job and wakes `openings` helpers, starting them
    /// first if this is the pool's first job. `false` when another job holds the pool.
    fn submit(&self, n: usize, task: &Task<'_>, openings: usize) -> bool {
        let shared = &self.shared;
        let mut state = shared.lock();
        if state.job.is_some() {
            return false;
        }
        if state.helpers.is_empty() {
            for i in 0..self.threads - 1 {
                let worker = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("gpu-sim-worker-{i}"))
                    .spawn(move || helper(&worker));
                // A host out of threads runs the job with the helpers it has.
                match spawned {
                    Ok(handle) => state.helpers.push(handle),
                    Err(_) => break,
                }
            }
        }
        // SAFETY: only the helpers see `task` as `'static`, and `run` keeps the borrow
        // alive for as long as they can use it: after `submit` returns `true`, `run`
        // neither returns nor unwinds (its own tasks run under `catch_unwind`) until it
        // has seen `active == 0` under the lock and cleared `job`. A helper copies the
        // reference only while joining (under the lock, counted in `active`) and calls
        // it only before it decrements `active`, so every call of `task` ends before
        // `run` returns.
        let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        shared.cursor.store(0, Ordering::Relaxed);
        state.job = Some((task, n));
        state.openings = openings.min(state.helpers.len());
        for _ in 0..state.openings {
            shared.wake.notify_one();
        }
        true
    }
}

/// A helper's life: join each job that has an opening, sleep otherwise, exit on
/// shutdown.
fn helper(shared: &Shared) {
    let mut state = shared.lock();
    state.started += 1;
    shared.left.notify_one();
    while !state.shutdown {
        match state.job {
            Some((task, n)) if state.openings > 0 => {
                state.openings -= 1;
                state.active += 1;
                drop(state);
                shared.work(task, n);
                state = shared.lock();
                state.active -= 1;
                if state.active == 0 {
                    shared.left.notify_one();
                }
            }
            _ => {
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let helpers = {
            let mut state = self.shared.lock();
            state.shutdown = true;
            self.shared.wake.notify_all();
            std::mem::take(&mut state.helpers)
        };
        for handle in helpers {
            // A helper catches every task's panic, so its exit has nothing to report.
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_job_returns_once_every_helper_has_started() {
        let pool = Pool::new(4);
        pool.run(64, &|_| {});
        let state = pool.shared.lock();
        assert_eq!((state.helpers.len(), state.started), (3, 3));
    }
}
