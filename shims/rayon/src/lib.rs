//! Offline stand-in for the subset of [rayon](https://docs.rs/rayon) this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves the `rayon` package name to this local crate. The API mirrors
//! rayon's exactly for the combinators the workspace calls; execution is
//! sequential for the iterator combinators (identical results, since every
//! call site is order-preserving by construction) while [`join`] overlaps
//! its two closures on a persistent worker pool, mirroring real rayon's
//! protocol: the right side is published to the pool, the left runs
//! inline, and the caller either claims the right side back (if nobody
//! started it) or waits for the thread actively running it. Waits only
//! ever target actively-executing work, so the scheme cannot deadlock, and
//! a pool of width 1 runs everything on the calling thread. A thread that
//! waits for something else another pool thread is doing can run the
//! pool's queued jobs meanwhile through [`yield_now`].
//!
//! As in real rayon, a panic in either closure propagates to the `join`
//! caller (the thread that ran it catches the unwind and hands the payload
//! back), and an installed pool width `N` is a hard concurrency cap: each
//! pool carries a budget of `N - 1` extra-thread permits, and a worker
//! that cannot take a permit leaves the job queued for a helper or the
//! submitting thread to run.

#![deny(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

pub mod prelude {
    //! The traits needed to call `.par_chunks()` / `.into_par_iter()`.
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice};
}

/// A "parallel" iterator: a thin wrapper over a sequential iterator that
/// exposes rayon's combinator names.
pub struct ParIter<I>(I);

/// Conversion into a [`ParIter`]; mirrors rayon's trait of the same name.
pub trait IntoParallelIterator {
    /// Underlying sequential iterator type.
    type Iter: Iterator<Item = Self::Item>;
    /// Item type.
    type Item;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<I: Iterator> IntoParallelIterator for ParIter<I> {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> ParIter<I> {
        self
    }
}

impl<T> IntoParallelIterator for Vec<T> {
    type Iter = std::vec::IntoIter<T>;
    type Item = T;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter(self.into_iter())
    }
}

impl<T: Copy> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Iter = std::ops::Range<T>;
    type Item = T;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter(self)
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = std::slice::Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter(self.iter())
    }
}

/// rayon's `ParallelIterator` combinators, implemented by [`ParIter`].
pub trait ParallelIterator: Sized {
    /// The sequential iterator backing this parallel iterator.
    type Inner: Iterator;

    /// Unwraps the backing iterator.
    fn into_inner(self) -> Self::Inner;

    /// Maps each item through `f`.
    fn map<O, F>(self, f: F) -> ParIter<std::iter::Map<Self::Inner, F>>
    where
        F: FnMut(<Self::Inner as Iterator>::Item) -> O,
    {
        ParIter(self.into_inner().map(f))
    }

    /// Pairs items with a second parallel iterator.
    fn zip<B: IntoParallelIterator>(
        self,
        other: B,
    ) -> ParIter<std::iter::Zip<Self::Inner, B::Iter>> {
        ParIter(self.into_inner().zip(other.into_par_iter().into_inner()))
    }

    /// Calls `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: FnMut(<Self::Inner as Iterator>::Item),
    {
        self.into_inner().for_each(f)
    }

    /// Collects into any `FromIterator` collection.
    fn collect<C>(self) -> C
    where
        C: FromIterator<<Self::Inner as Iterator>::Item>,
    {
        self.into_inner().collect()
    }

    /// Splits an iterator of pairs into two collections.
    fn unzip<A, B, FromA, FromB>(self) -> (FromA, FromB)
    where
        Self::Inner: Iterator<Item = (A, B)>,
        FromA: Default + Extend<A>,
        FromB: Default + Extend<B>,
    {
        self.into_inner().unzip()
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<<Self::Inner as Iterator>::Item>,
    {
        self.into_inner().sum()
    }
}

impl<I: Iterator> ParallelIterator for ParIter<I> {
    type Inner = I;
    fn into_inner(self) -> I {
        self.0
    }
}

/// Slice extension providing `par_chunks`, mirroring rayon.
pub trait ParallelSlice<T> {
    /// Chunked "parallel" iteration over the slice.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<std::slice::Chunks<'_, T>> {
        ParIter(self.chunks(chunk_size))
    }
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
///
/// Like real rayon, a pool of width 1 runs both closures on the calling
/// thread — so single-thread pools (and `RAYON_NUM_THREADS=1`) give a true
/// sequential baseline instead of secretly forking. Wider pools publish
/// `b` to the persistent workers, run `a` inline, then either claim `b`
/// back (nobody started it) or wait for the worker actively running it.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    pool::join_via_pool(a, b)
}

/// What [`yield_now`] did, mirroring `rayon::Yield`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Yield {
    /// A pending job of the current pool was run to completion.
    Executed,
    /// The current pool had no pending job.
    Idle,
}

/// Runs one pending job of the current thread's pool, if there is one,
/// mirroring `rayon::yield_now`: a thread waiting for something another
/// pool thread is working on can lend a hand instead of sleeping.
///
/// Only jobs of the caller's own pool qualify, and the caller runs them
/// without taking a permit: it already counts against that pool's width,
/// so the width stays a hard cap. Unlike real rayon (which returns `None`
/// off-pool) this always returns `Some`, because every thread here runs
/// under a pool: its installed one, else the global one.
pub fn yield_now() -> Option<Yield> {
    Some(if pool::help(&current_ctx()) {
        Yield::Executed
    } else {
        Yield::Idle
    })
}

#[allow(unsafe_code)]
mod pool {
    //! Persistent worker pool behind [`crate::join`].
    //!
    //! Forking a fresh OS thread per `join` costs close to a millisecond
    //! on sandboxed kernels, which silently erases the gain of every
    //! fine-grained fork. The pool keeps `available_parallelism - 1`
    //! long-lived workers fed from one shared queue instead.
    //!
    //! The queue holds exactly the jobs nobody has started: a worker with
    //! a permit of the job's pool, a helper in [`crate::yield_now`] or the
    //! submitter itself removes a job under the queue lock before running
    //! it, so each job runs at most once, and a job a worker cannot take
    //! stays visible to helpers and to its submitter.
    //!
    //! Safety protocol: a submitted job holds a lifetime-erased closure
    //! that writes `b`'s result through a raw pointer into the submitting
    //! `join` frame. `join` exits (returns or unwinds) only after it took
    //! the closure back out of the queue (and ran or dropped it), or after
    //! the thread that took it marked the job `Done` or `Panicked` (with
    //! the payload handed back for re-raising).

    use super::{PoolCtx, POOL_CTX};
    use std::collections::VecDeque;
    use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};

    enum State {
        /// Queued or running.
        Busy,
        /// The closure finished; the result is in the join frame.
        Done,
        /// The closure panicked; the payload awaits the submitter, which
        /// re-raises it on its own thread.
        Panicked(Box<dyn std::any::Any + Send>),
    }

    /// A job's completion, shared by its submitter and whichever thread
    /// runs it.
    struct Job {
        state: Mutex<State>,
        cv: Condvar,
    }

    /// A job nobody has started yet.
    struct Queued {
        job: Arc<Job>,
        run: Box<dyn FnOnce() + Send>,
        /// Pool context (width + concurrency budget) of the submitting
        /// thread, inherited by whichever thread runs the job.
        ctx: PoolCtx,
    }

    /// Every job nobody has started, oldest first.
    static QUEUE: Mutex<VecDeque<Queued>> = Mutex::new(VecDeque::new());

    fn queue() -> MutexGuard<'static, VecDeque<Queued>> {
        QUEUE.lock().expect("queue lock")
    }

    /// Takes the submitter's own job back, if nobody started it. It was
    /// queued after every job its `a` side submitted, and those are all
    /// finished, so it is most likely at the back.
    fn reclaim(job: &Arc<Job>) -> Option<Queued> {
        let mut jobs = queue();
        let i = jobs.iter().rposition(|q| Arc::ptr_eq(&q.job, job))?;
        jobs.remove(i)
    }

    /// Removes the oldest queued job that `admit` accepts: the largest
    /// pending piece of a fork tree, as a rayon thief takes.
    fn take_oldest(
        jobs: &mut VecDeque<Queued>,
        mut admit: impl FnMut(&PoolCtx) -> bool,
    ) -> Option<Queued> {
        let i = jobs.iter().position(|q| admit(&q.ctx))?;
        jobs.remove(i)
    }

    /// Queues a job and rings the workers' doorbell. The doorbell channel
    /// carries no jobs, only wake-ups: its receive spins briefly before
    /// it parks, and a send wakes only a parked receiver, so a fork that
    /// finds the workers busy costs no system call.
    fn submit(queued: Queued) {
        static DOORBELL: OnceLock<mpsc::Sender<()>> = OnceLock::new();
        let doorbell = DOORBELL.get_or_init(|| {
            let (tx, rx) = mpsc::channel();
            let rx = Arc::new(Mutex::new(rx));
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1)
                .max(1);
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name("rayon-shim-worker".into())
                    .spawn(move || worker(&rx))
                    .expect("spawn rayon-shim worker");
            }
            tx
        });
        queue().push_back(queued);
        doorbell
            .send(())
            .expect("rayon-shim workers run for the whole process");
    }

    fn worker(doorbell: &Mutex<mpsc::Receiver<()>>) {
        loop {
            // Take a job only with a free extra-thread permit of its pool,
            // so an installed width stays a hard cap on concurrency rather
            // than a heuristic. A job no worker may take stays queued for
            // a helper or its submitter; the permit holder that frees a
            // permit looks again before it sleeps.
            let taken = take_oldest(&mut queue(), |ctx| ctx.budget.try_acquire());
            match taken {
                Some(queued) => {
                    let budget = Arc::clone(&queued.ctx.budget);
                    run(queued);
                    budget.release();
                }
                // Every submission rings once, so a ring that finds its
                // job already taken costs one more look at the queue.
                None => {
                    let ring = doorbell.lock().expect("doorbell lock").recv();
                    ring.expect("the doorbell sender lives in a static");
                }
            }
        }
    }

    /// Runs a job taken off the queue under its submitter's pool context
    /// and publishes the outcome. A panic is caught and handed to the
    /// submitter, so a failed assertion in pool-run build code surfaces at
    /// the `join` call site (like real rayon) instead of deadlocking the
    /// submitter or killing the thread that ran it.
    fn run(Queued { job, run, ctx }: Queued) {
        let prev = POOL_CTX.with(|c| c.borrow_mut().replace(ctx));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        POOL_CTX.with(|c| *c.borrow_mut() = prev);
        let mut st = job.state.lock().expect("job lock");
        *st = match result {
            Ok(()) => State::Done,
            Err(payload) => State::Panicked(payload),
        };
        job.cv.notify_all();
    }

    /// Runs the oldest queued job of `ctx`'s pool on the calling thread;
    /// `false` when there is none. See [`crate::yield_now`].
    pub(crate) fn help(ctx: &PoolCtx) -> bool {
        let own = |c: &PoolCtx| Arc::ptr_eq(&c.budget, &ctx.budget);
        let Some(queued) = take_oldest(&mut queue(), own) else {
            return false;
        };
        run(queued);
        true
    }

    /// Blocks until whoever took `job` off the queue has finished it.
    fn wait(job: &Job) -> State {
        let mut st = job.state.lock().expect("job lock");
        while matches!(*st, State::Busy) {
            st = job.cv.wait(st).expect("job lock");
        }
        std::mem::replace(&mut *st, State::Done)
    }

    /// Raw pointer wrapper so the result slot can cross into the closure.
    struct SendPtr<T>(*mut T);
    // SAFETY: the pointee lives in the `join` frame, and the protocol
    // guarantees exclusive access (the closure runs at most once, on
    // exactly one thread).
    unsafe impl<T> Send for SendPtr<T> {}

    /// Unwind guard: if the inline side panics while the published side
    /// is still queued or running, the submitting frame must not unwind
    /// away underneath it — take back (and drop) a queued closure, or
    /// block until the thread running it finishes, before the frame dies.
    struct FrameGuard {
        job: Arc<Job>,
        armed: bool,
    }

    impl Drop for FrameGuard {
        fn drop(&mut self) {
            if !self.armed {
                return;
            }
            match reclaim(&self.job) {
                // Never started: drop the closure (and `b`) while the
                // frame is still alive.
                Some(queued) => drop(queued),
                // This frame is already unwinding (the inline side
                // panicked); if the published side *also* panicked, its
                // payload is dropped here — the first panic wins.
                None => drop(wait(&self.job)),
            }
        }
    }

    pub(crate) fn join_via_pool<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let mut rb_slot: Option<RB> = None;
        let slot = SendPtr(&mut rb_slot as *mut Option<RB>);
        let closure: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let slot = slot;
            // SAFETY: see SendPtr — exclusive, and the frame is alive
            // because `join_via_pool` has not returned.
            unsafe { *slot.0 = Some(b()) };
        });
        // SAFETY: lifetime erasure only. The protocol (plus the unwind
        // guard) ensures the closure cannot run, or be dropped, after this
        // frame ends: every exit path — including a panic in `a` — first
        // takes the closure back or observes the job finished.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(closure) };
        let job = Arc::new(Job {
            state: Mutex::new(State::Busy),
            cv: Condvar::new(),
        });
        submit(Queued {
            job: Arc::clone(&job),
            run,
            ctx: super::current_ctx(),
        });
        let mut guard = FrameGuard {
            job: Arc::clone(&job),
            armed: true,
        };

        let ra = a();

        match reclaim(&job) {
            // Nobody started it: run inline (a panic here unwinds the
            // frame naturally; the guard, disarmed, does nothing).
            Some(queued) => {
                guard.armed = false;
                (queued.run)();
            }
            None => {
                let state = wait(&job);
                guard.armed = false;
                if let State::Panicked(payload) = state {
                    std::panic::resume_unwind(payload);
                }
            }
        }
        let rb = rb_slot
            .take()
            .expect("join: published side produced no result");
        (ra, rb)
    }
}

/// Counting semaphore bounding how many *extra* threads (beyond the
/// submitting one) may execute a pool's jobs concurrently. Acquisition
/// never blocks: a worker that misses a permit simply leaves the job for
/// the submitter, so the budget can cap concurrency but never deadlock.
struct Budget {
    permits: AtomicUsize,
}

impl Budget {
    fn new(extra: usize) -> Budget {
        Budget {
            permits: AtomicUsize::new(extra),
        }
    }

    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// The pool a thread is currently executing under: its configured width
/// plus the shared budget of `width - 1` extra-thread permits that makes
/// the width an enforced concurrency cap.
#[derive(Clone)]
struct PoolCtx {
    width: usize,
    budget: Arc<Budget>,
}

impl PoolCtx {
    fn with_width(width: usize) -> PoolCtx {
        PoolCtx {
            width,
            budget: Arc::new(Budget::new(width.saturating_sub(1))),
        }
    }
}

thread_local! {
    static POOL_CTX: RefCell<Option<PoolCtx>> = const { RefCell::new(None) };
}

/// The context a `join` submits under: the installed pool's, else the
/// process-wide global pool context (sized once from the environment, as
/// in real rayon's lazily-created global pool).
fn current_ctx() -> PoolCtx {
    POOL_CTX
        .with(|c| c.borrow().clone())
        .unwrap_or_else(global_ctx)
}

fn global_ctx() -> PoolCtx {
    static GLOBAL: OnceLock<PoolCtx> = OnceLock::new();
    GLOBAL
        .get_or_init(|| PoolCtx::with_width(env_or_machine_width()))
        .clone()
}

fn env_or_machine_width() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The width of the current thread pool: the installed pool's configured
/// thread count, else the `RAYON_NUM_THREADS` environment variable (as in
/// real rayon's global pool), else the machine's available parallelism.
pub fn current_num_threads() -> usize {
    POOL_CTX
        .with(|c| c.borrow().as_ref().map(|ctx| ctx.width))
        .unwrap_or_else(env_or_machine_width)
}

/// Error type returned by [`ThreadPoolBuilder::build`]; never produced by
/// this shim but kept for signature compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool width.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            ctx: PoolCtx::with_width(self.num_threads.unwrap_or_else(current_num_threads)),
        })
    }
}

/// A scoped thread pool: inside [`ThreadPool::install`] the pool's width
/// is both reported by [`current_num_threads`] and enforced — at most
/// `width` threads (the installer plus `width - 1` permit-holding
/// workers) ever execute the scope's `join` work concurrently.
pub struct ThreadPool {
    ctx: PoolCtx,
}

impl ThreadPool {
    /// Runs `f` "inside" the pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the previous context even if `f` unwinds — proptest
        /// catches panics per case, so a stale width would silently leak
        /// into later cases run on the same thread.
        struct Restore(Option<PoolCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                POOL_CTX.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(POOL_CTX.with(|c| c.borrow_mut().replace(self.ctx.clone())));
        f()
    }

    /// The pool's configured width.
    pub fn current_num_threads(&self) -> usize {
        self.ctx.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_scopes_pool_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        pool.install(|| {
            assert_eq!(nested.install(current_num_threads), 7);
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_inherits_pool_width() {
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        pool.install(|| {
            let (a, b) = join(current_num_threads, current_num_threads);
            assert_eq!((a, b), (5, 5));
        });
    }

    #[test]
    fn join_propagates_panic_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        // Whether a worker steals the panicking side or the submitter
        // reclaims it inline, the panic must surface at the `join` call
        // (not hang the caller or kill the worker). The sleep gives a
        // worker time to steal, exercising the resume_unwind path on
        // most runs.
        let caught = std::panic::catch_unwind(|| {
            pool.install(|| {
                join(
                    || std::thread::sleep(std::time::Duration::from_millis(5)),
                    || panic!("boom"),
                )
            })
        });
        let payload = caught.expect_err("panic in the stolen side must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The worker that ran the panicking job must still be alive.
        let (a, b) = pool.install(|| join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn pool_width_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        fn fan(depth: usize, live: &AtomicUsize, peak: &AtomicUsize) {
            if depth == 0 {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            join(|| fan(depth - 1, live, peak), || fan(depth - 1, live, peak));
        }

        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // 16 leaves, eagerly forked: without the permit budget this runs
        // as wide as the machine; with it, at most the installing thread
        // plus one permit-holding worker may be in a leaf at once.
        pool.install(|| fan(4, &live, &peak));
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= 2,
            "width-2 pool ran {peak} leaves concurrently; the width must be a hard cap"
        );
    }

    /// A pool that reports `width` but has no extra-thread permit: no
    /// worker ever takes its jobs, so only their submitter or a helper
    /// in `yield_now` can run them.
    fn permitless_pool(width: usize) -> ThreadPool {
        ThreadPool {
            ctx: PoolCtx {
                width,
                budget: Arc::new(Budget::new(0)),
            },
        }
    }

    #[test]
    fn yield_now_runs_a_join_side_its_left_side_waits_for() {
        use std::sync::atomic::AtomicBool;

        let pool = permitless_pool(2);
        let right_ran = AtomicBool::new(false);
        let (helped, ()) = pool.install(|| {
            join(
                || {
                    // The left side can finish only after the right side
                    // ran, and the right side can run only through here.
                    let mut helped = Vec::new();
                    while !right_ran.load(Ordering::SeqCst) && helped.len() < 1000 {
                        helped.push(yield_now());
                    }
                    helped
                },
                || right_ran.store(true, Ordering::SeqCst),
            )
        });
        assert_eq!(helped, vec![Some(Yield::Executed)]);
        assert_eq!(pool.install(yield_now), Some(Yield::Idle));
    }

    #[test]
    fn yield_now_runs_only_jobs_of_the_callers_pool() {
        use std::sync::atomic::AtomicBool;

        let (pool, other) = (permitless_pool(2), permitless_pool(2));
        let right_ran = AtomicBool::new(false);
        pool.install(|| {
            join(
                || {
                    // Another pool's helper finds nothing to run.
                    assert_eq!(other.install(yield_now), Some(Yield::Idle));
                    assert!(!right_ran.load(Ordering::SeqCst));
                },
                || right_ran.store(true, Ordering::SeqCst),
            )
        });
        assert!(right_ran.load(Ordering::SeqCst), "the submitter runs it");
    }

    #[test]
    fn pool_width_bounds_concurrency_with_a_helping_waiter() {
        use std::collections::HashMap;
        use std::sync::atomic::AtomicUsize;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        /// Threads inside a leaf, each with its nesting depth, and the
        /// most threads ever inside one at once.
        struct Live {
            threads: Mutex<HashMap<ThreadId, usize>>,
            peak: AtomicUsize,
            done: AtomicUsize,
        }

        impl Live {
            fn enter(&self) {
                let mut threads = self.threads.lock().unwrap();
                *threads.entry(std::thread::current().id()).or_default() += 1;
                self.peak.fetch_max(threads.len(), Ordering::SeqCst);
            }

            fn exit(&self) {
                let mut threads = self.threads.lock().unwrap();
                let id = std::thread::current().id();
                let depth = threads.get_mut(&id).unwrap();
                *depth -= 1;
                if *depth == 0 {
                    threads.remove(&id);
                }
            }
        }

        fn fan(depth: usize, first: bool, live: &Live) {
            if depth == 0 {
                live.enter();
                if first {
                    // The first leaf waits for all the others, running
                    // queued leaves while it waits, as a lazy-tree ray
                    // waits for a node another thread expands.
                    while live.done.load(Ordering::SeqCst) < 15 {
                        if yield_now() != Some(Yield::Executed) {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.done.fetch_add(1, Ordering::SeqCst);
                }
                live.exit();
                return;
            }
            join(
                || fan(depth - 1, first, live),
                || fan(depth - 1, false, live),
            );
        }

        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let live = Live {
            threads: Mutex::new(HashMap::new()),
            peak: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
        };
        pool.install(|| fan(4, true, &live));
        assert_eq!(live.done.load(Ordering::SeqCst), 15);
        let peak = live.peak.load(Ordering::SeqCst);
        assert!(
            peak <= 2,
            "width-2 pool ran leaves on {peak} threads at once; helping must not widen it"
        );
    }

    #[test]
    fn install_restores_width_on_unwind() {
        let outer = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caught = std::panic::catch_unwind(|| pool.install(|| -> () { panic!("case failed") }));
        assert!(caught.is_err());
        assert_eq!(
            current_num_threads(),
            outer,
            "a panicking install scope must not leak its width onto the thread"
        );
    }

    #[test]
    fn combinators_match_sequential() {
        let v: Vec<i32> = (0..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        let (evens, odds): (Vec<i32>, Vec<i32>) =
            (0..6).into_par_iter().map(|x| (2 * x, 2 * x + 1)).unzip();
        assert_eq!(evens, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(odds, vec![1, 3, 5, 7, 9, 11]);
        let data = [1u32, 2, 3, 4, 5];
        let sums: Vec<u32> = data.par_chunks(2).map(|c| c.iter().sum::<u32>()).collect();
        assert_eq!(sums, vec![3, 7, 5]);
    }
}
