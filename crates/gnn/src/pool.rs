//! Persistent helper threads for [`crate::predict_heads`].
//!
//! A serving process calls `predict_heads` once per batch. A
//! `std::thread::scope` per call would spawn and join a thread every time,
//! and each spawned worker would start on an empty evaluator arena. The
//! helpers here live for the rest of the process instead: they park on a
//! condvar between jobs, and each keeps the thread-local `Eval` arena it
//! warmed on earlier batches.
//!
//! [`run`] posts a job that up to `helpers` idle helpers may join, runs
//! the job on the calling thread as well, then *closes* it. No helper
//! joins a closed job, and `run` waits only for the helpers that joined
//! while it was open. A caller therefore never waits on a helper that is
//! busy with other work, so concurrent callers, and a `run` nested inside
//! a task, cannot deadlock: at worst the caller runs every task itself.
//! Helpers start lazily, up to the largest `helpers` any call has asked
//! for. They are never joined; a panic in a task is caught on the helper
//! and re-raised on the caller.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// The work of one job. Every participant calls it once, and it claims
/// tasks (through an atomic cursor) until none are left.
type Work = dyn Fn() + Sync;

type Panic = Box<dyn Any + Send>;

struct Job {
    id: u64,
    /// The caller's `work` with its lifetime erased; see the SAFETY
    /// comment in [`run`].
    work: &'static Work,
    open: bool,
    /// Helpers that may still join.
    slots: usize,
    /// Helpers that joined and have not left yet.
    active: usize,
    /// The first panic a helper raised in `work`.
    panic: Option<Panic>,
}

struct State {
    jobs: Vec<Job>,
    helpers: usize,
    next_id: u64,
}

struct Pool {
    state: Mutex<State>,
    /// Idle helpers wait here for an open job.
    posted: Condvar,
    /// Callers wait here for the helpers that joined their job to leave.
    left: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        jobs: Vec::new(),
        helpers: 0,
        next_id: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

fn lock() -> MutexGuard<'static, State> {
    // Tasks never run under the lock, and every critical section leaves
    // the state consistent, so a poisoned lock is still safe to use.
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `work` on the calling thread and on up to `helpers` pool threads
/// at once, and returns once every thread that ran it has returned.
/// `work` must split itself into tasks that any participant may claim:
/// the caller alone may end up running all of them. A panic in a helper's
/// call is re-raised here with its payload, and that helper keeps serving.
pub(crate) fn run(helpers: usize, work: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        work();
        return;
    }
    let erased = {
        // SAFETY: only the lifetime changes. A helper reads the erased copy
        // only while joined to this job, and leaves only after `work` has
        // returned or its panic was caught. `run` exits only through
        // `close` (directly, or in `Closing::drop` if `work` panics here),
        // which closes the job, waits until every joined helper has left
        // and removes the copy, all while the borrow of `work` is live.
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static Work>(work) }
    };
    let id = post(helpers, erased);
    let closing = Closing(id);
    work();
    let panic = close(id);
    drop(closing);
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
}

/// Closes the job on drop, so an unwinding caller still waits for its
/// helpers. A no-op once `close` has already removed the job.
struct Closing(u64);

impl Drop for Closing {
    fn drop(&mut self) {
        let _ = close(self.0);
    }
}

/// Starts missing helpers, then queues a job that up to `helpers` of them
/// may join.
fn post(helpers: usize, work: &'static Work) -> u64 {
    let mut st = lock();
    while st.helpers < helpers {
        let spawned = thread::Builder::new()
            .name("pg-gnn-helper".to_string())
            .spawn(helper_loop);
        if spawned.is_err() {
            // Fewer helpers only means the callers run more tasks.
            break;
        }
        st.helpers += 1;
    }
    let id = st.next_id;
    st.next_id += 1;
    st.jobs.push(Job {
        id,
        work,
        open: true,
        slots: helpers,
        active: 0,
        panic: None,
    });
    drop(st);
    for _ in 0..helpers {
        POOL.posted.notify_one();
    }
    id
}

/// Closes job `id`, waits until every helper that joined it has left, and
/// removes it, returning the first panic a helper raised in it. `None`
/// without waiting if the job is already gone.
fn close(id: u64) -> Option<Panic> {
    let mut st = lock();
    loop {
        let i = st.jobs.iter().position(|j| j.id == id)?;
        let job = &mut st.jobs[i];
        job.open = false;
        if job.active == 0 {
            return st.jobs.remove(i).panic;
        }
        st = POOL.left.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// A helper's life: join the oldest open job with a free slot, run its
/// work, leave it, and park while no job is open.
fn helper_loop() {
    let mut st = lock();
    loop {
        let Some(job) = st.jobs.iter_mut().find(|j| j.open && j.slots > 0) else {
            st = POOL.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        job.slots -= 1;
        job.active += 1;
        let (id, work) = (job.id, job.work);
        drop(st);
        let result = panic::catch_unwind(AssertUnwindSafe(work));
        st = lock();
        if let Some(job) = st.jobs.iter_mut().find(|j| j.id == id) {
            job.active -= 1;
            if let Err(payload) = result {
                job.panic.get_or_insert(payload);
            }
            if job.active == 0 && !job.open {
                POOL.left.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// `work` for `tasks` tasks that counts every claim of each index.
    fn claim_all(tasks: usize, helpers: usize) -> Vec<usize> {
        let claims: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        let cursor = AtomicUsize::new(0);
        run(helpers, &|| loop {
            let task = cursor.fetch_add(1, Ordering::Relaxed);
            if task >= tasks {
                return;
            }
            claims[task].fetch_add(1, Ordering::Relaxed);
        });
        claims.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn every_task_is_claimed_exactly_once() {
        for helpers in [0, 1, 3] {
            assert_eq!(claim_all(200, helpers), vec![1; 200], "helpers={helpers}");
        }
    }

    #[test]
    fn helper_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        // The caller waits at the barrier until a helper has joined, so
        // the panic is raised on the helper, never on the caller.
        let caller = thread::current().id();
        let met = Barrier::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            run(1, &|| {
                met.wait();
                if thread::current().id() != caller {
                    panic!("task failed on a helper");
                }
            })
        }));
        let payload = result.expect_err("the helper's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"task failed on a helper")
        );
        assert_eq!(claim_all(64, 1), vec![1; 64]);
    }

    #[test]
    fn nested_run_completes() {
        let inner = AtomicUsize::new(0);
        let outer = AtomicUsize::new(0);
        run(2, &|| {
            if outer.fetch_add(1, Ordering::Relaxed) < 4 {
                run(2, &|| {
                    inner.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let outer = outer.into_inner();
        assert!((1..=3).contains(&outer), "outer ran on {outer} threads");
        assert!(inner.into_inner() >= outer);
    }

    #[test]
    fn concurrent_callers_complete() {
        let start = Barrier::new(4);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        assert_eq!(claim_all(50, 3), vec![1; 50]);
                    }
                });
            }
        });
    }
}
