//! The resident worker pool behind every parallel region.
//!
//! ## Why resident workers
//!
//! The shim's first execution layer spawned fresh OS threads via
//! `std::thread::scope` for **every** parallel region, and split the index
//! space into one fixed contiguous chunk per thread. Each sweep iteration
//! therefore paid thread-spawn latency per region (a colored phase launches
//! one region per color batch per iteration), and heavy-tailed degree
//! distributions left early-finishing workers idle until the slowest chunk
//! completed. This module replaces that with a **lazily-initialized resident
//! pool with deterministic-friendly work-stealing**:
//!
//! * **Fixed task tree.** A region over `0..n` is decomposed into tasks by a
//!   pure function of `n` and the grain size (see `lib.rs::task_layout`) —
//!   never of the worker count. Task `t` always covers the same index range.
//! * **Stolen execution order.** Workers (and the submitting caller, which
//!   participates) claim task indices from a shared atomic counter — the
//!   simple, fair form of work-stealing. *Which* thread runs a task and
//!   *when* is scheduling-dependent; *what* the task computes is not.
//! * **Ordered reduction.** Every task writes its result into a slot indexed
//!   by its task id, and the caller combines slots in ascending task order
//!   after the region completes. Results are therefore bitwise independent
//!   of the worker count and of the stealing schedule — the repo-wide
//!   determinism contract (`par_iter` terminals, `det_sum`) is preserved by
//!   construction.
//!
//! The region is the pool's only kind of work: the injector lists regions,
//! and a worker's loop takes the first one with unclaimed tasks or parks.
//!
//! ## Lifetime & panic safety
//!
//! A region's task closure borrows the caller's stack. The closure reference
//! is lifetime-erased to `'static` before being shared with the workers;
//! this is sound because a task may only be *claimed* while unclaimed tasks
//! remain, every claimed task is counted in `pending`, and the caller blocks
//! until `pending == 0` before its frame can unwind — so no worker can touch
//! the closure after `run_region` returns. Panics inside a task are caught
//! on the executing worker, recorded in the region, and re-thrown on the
//! submitting caller once the region has quiesced, mirroring rayon's
//! propagation semantics.
//!
//! ## Nesting
//!
//! A task may launch a region of its own: each of the splitter's
//! small-component runs does. Workers bind their pool as the thread's
//! region target, so the nested region runs on the same pool, and its
//! submitting worker drains that region's own claim counter before it
//! waits, so it never blocks on tasks nobody will claim. A nested panic
//! unwinds out of the enclosing task and is re-thrown one level up.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

thread_local! {
    /// The pool parallel regions on this thread execute on. `None` means
    /// "no pool installed": regions go to the lazily-created global pool.
    static CURRENT_POOL: RefCell<Option<Arc<PoolCore>>> = const { RefCell::new(None) };
}

/// Reads `RAYON_NUM_THREADS` (once) or falls back to the machine's
/// parallelism — the thread budget used when no pool is installed.
pub(crate) fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The process-wide pool used when no [`crate::ThreadPool`] is installed.
/// Created lazily on the first parallel region that wants workers.
fn global_pool() -> &'static Arc<PoolCore> {
    static GLOBAL: OnceLock<Arc<PoolCore>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // Global workers live for the whole process; their join handles are
        // intentionally dropped.
        let (core, _handles) = PoolCore::start(default_threads());
        core
    })
}

/// The pool the current thread's parallel regions execute on.
pub(crate) fn current_pool() -> Arc<PoolCore> {
    CURRENT_POOL.with(|c| {
        c.borrow()
            .as_ref()
            .cloned()
            .unwrap_or_else(|| global_pool().clone())
    })
}

/// Worker count the current thread's parallel regions will use, without
/// forcing the global pool into existence.
pub(crate) fn current_threads() -> usize {
    CURRENT_POOL.with(|c| {
        c.borrow()
            .as_ref()
            .map(|p| p.threads)
            .unwrap_or_else(default_threads)
    })
}

/// Installs `pool` as the current thread's region target for the duration
/// of `op` (restoring the previous target on exit, panic included).
pub(crate) fn with_pool<R>(pool: &Arc<PoolCore>, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<PoolCore>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_POOL.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT_POOL.with(|c| c.borrow_mut().replace(pool.clone())));
    op()
}

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

/// A lifetime-erased reference to a region's task body (`Fn(task_index)`).
/// `&'static (dyn Fn + Sync)` is `Send + Sync` on its own; the erasure is
/// justified in the module docs (callers outlive every claimable task).
type TaskBody = &'static (dyn Fn(usize) + Sync);

/// Shared state of one parallel region. Lives in an `Arc` so a worker that
/// still holds the region after it drained only ever touches heap
/// state, never the caller's (possibly popped) stack frame.
struct Region {
    body: TaskBody,
    num_tasks: usize,
    /// Next unclaimed task index; claims are `fetch_add` — the stealing
    /// counter.
    next: AtomicUsize,
    /// Tasks claimed but not yet finished + tasks never claimed. The caller
    /// waits for this to reach zero.
    pending: Mutex<usize>,
    quiesced: Condvar,
    /// First panic payload thrown by a task, re-thrown on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Region {
    fn new(body: TaskBody, num_tasks: usize) -> Self {
        Self {
            body,
            num_tasks,
            next: AtomicUsize::new(0),
            pending: Mutex::new(num_tasks),
            quiesced: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.num_tasks
    }

    /// Claims and runs tasks until the counter is exhausted. Called by the
    /// region's own caller and by any worker that picked the region up.
    fn work(&self) {
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.num_tasks {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(t)));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            *pending -= 1;
            if *pending == 0 {
                self.quiesced.notify_all();
            }
        }
    }

    /// Blocks until every claimed task has finished executing.
    fn wait_quiesced(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        while *pending > 0 {
            pending = self
                .quiesced
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Work queued for the resident workers.
struct Injector {
    /// Regions with unclaimed tasks. Not a queue: every idle worker may work
    /// any listed region concurrently (that *is* the stealing).
    regions: Vec<Arc<Region>>,
    shutdown: bool,
}

/// A resident pool: `threads - 1` parked worker OS threads plus the caller,
/// which always participates in its own regions (so a pool of 1 spawns no
/// workers and runs everything inline).
pub(crate) struct PoolCore {
    pub(crate) threads: usize,
    injector: Mutex<Injector>,
    work_ready: Condvar,
}

impl PoolCore {
    /// Starts the pool's resident workers; returns the core and the worker
    /// join handles (joined by [`crate::ThreadPool`] on drop; dropped —
    /// i.e. detached — for the process-global pool).
    pub(crate) fn start(threads: usize) -> (Arc<Self>, Vec<std::thread::JoinHandle<()>>) {
        let threads = threads.max(1);
        let core = Arc::new(PoolCore {
            threads,
            injector: Mutex::new(Injector {
                regions: Vec::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..threads.saturating_sub(1))
            .map(|slot| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{slot}"))
                    .spawn(move || worker_loop(core))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        (core, handles)
    }

    /// Tells the workers to exit once the queue drains. Listed regions are
    /// still completed; only used by `ThreadPool::drop`.
    pub(crate) fn shutdown(&self) {
        let mut inj = self.injector.lock().unwrap_or_else(|e| e.into_inner());
        inj.shutdown = true;
        drop(inj);
        self.work_ready.notify_all();
    }

    /// Runs a region of `num_tasks` tasks on the pool: advertises it to the
    /// workers, participates in the stealing loop, waits for quiescence, and
    /// re-throws the first task panic. `body` receives the task index; task
    /// results must be written to task-indexed slots by the caller's closure
    /// so the post-region combine stays ordered.
    pub(crate) fn run_region(self: &Arc<Self>, num_tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if self.threads <= 1 || num_tasks <= 1 {
            for t in 0..num_tasks {
                body(t);
            }
            return;
        }
        // SAFETY: see module docs — the region cannot be claimed after it
        // drains, every claim is tracked in `pending`, and we do not return
        // (so `body`'s borrows stay live) until `pending == 0`.
        #[allow(unsafe_code)]
        let body: TaskBody =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), TaskBody>(body) };
        let region = Arc::new(Region::new(body, num_tasks));
        {
            let mut inj = self.injector.lock().unwrap_or_else(|e| e.into_inner());
            inj.regions.push(region.clone());
        }
        self.work_ready.notify_all();
        region.work();
        region.wait_quiesced();
        {
            // Retire the drained region so idle workers stop scanning it.
            let mut inj = self.injector.lock().unwrap_or_else(|e| e.into_inner());
            inj.regions.retain(|r| !Arc::ptr_eq(r, &region));
        }
        let payload = region
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// The resident worker body: work the first region with unclaimed tasks,
/// park when there is none. Workers bind their pool as the thread's region
/// target so nested regions launched from inside a task stay on the same
/// pool.
fn worker_loop(core: Arc<PoolCore>) {
    CURRENT_POOL.with(|c| *c.borrow_mut() = Some(core.clone()));
    loop {
        let region = {
            let mut inj = core.injector.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                inj.regions.retain(|r| !r.drained());
                if let Some(region) = inj.regions.first().cloned() {
                    break region;
                }
                if inj.shutdown {
                    return;
                }
                inj = core.work_ready.wait(inj).unwrap_or_else(|e| e.into_inner());
            }
        };
        region.work();
    }
}
