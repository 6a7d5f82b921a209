//! Minimal work-alike for the subset of `rayon` this workspace uses.
//!
//! The build environment has no registry access, so the workspace provides
//! its own data-parallel layer behind the same names. Every parallel step
//! the workspace takes is a parallel loop over an index space (the paper's
//! OpenMP `parallel for`), so the shim has one kind of parallel work: the
//! region. Parallelism is real and resident: a lazily-initialized worker
//! pool (the private `pool` module) executes every parallel region, so
//! regions pay no thread-spawn latency, and tasks are claimed in stolen
//! order from a shared counter so heavy-tailed workloads keep all workers
//! busy. Determinism survives the stealing because the *decomposition* is
//! fixed and the *reduction* is ordered:
//!
//! * **Fixed task tree.** A region over `0..n` splits into tasks at
//!   boundaries computed by `task_layout` — a pure function of `n` and
//!   the grain size, never of the worker count.
//! * **Stolen execution.** Which worker runs a task, and in what order, is
//!   scheduling-dependent; the task's input range and output are not.
//! * **Ordered reduction.** Per-task results land in task-indexed slots and
//!   every terminal combines them in ascending task order, so any result is
//!   bitwise independent of the worker count — a stronger guarantee than
//!   rayon's, and exactly the property the paper's §5.4 stability argument
//!   needs from the runtime.
//!
//! # Grain-size rule
//!
//! Every terminal operation applies one uniform sequential-fallback rule,
//! shared by `for_each` / `count` / `collect` (and therefore by
//! `grappolo_core`'s `det_sum`, which is built on `collect`): with
//! grain `g` — the innermost source's [`ParallelIterator::with_min_len`]
//! value, default `SEQ_CUTOFF` = 1024 items —
//!
//! 1. a region of `n ≤ g` items runs inline on the caller (no pool, no
//!    atomics — identical results, ordered combines);
//! 2. otherwise the index space splits into tasks of
//!    `max(g, ceil(n / 64))` contiguous items each (at most
//!    `MAX_TASKS_PER_REGION` tasks, so per-task bookkeeping stays
//!    amortized), executed by the pool in stolen order.
//!
//! Iterators whose items are coarse units of work (e.g. a task's carved
//! rows) override the grain via `with_min_len(1)` so a handful of heavy
//! items still parallelizes.
//!
//! Supported surface: the sources `into_par_iter` on `u32` and `usize`
//! ranges, and `par_iter` and `par_iter_mut` on slices; the adapters
//! `map` / `filter` / `copied` / `enumerate` / `with_min_len`; the
//! terminals `collect` / `count` / `for_each`; `ThreadPoolBuilder` /
//! `ThreadPool::install` (a built pool owns resident workers and `install`
//! binds execution to them); and [`current_num_threads`]. The crate-level
//! items the workspace names (`ThreadPool`, `ThreadPoolBuilder`,
//! `current_num_threads` and `prelude`) all exist in the real rayon. A
//! region may launch nested regions from inside its tasks. Like the real
//! rayon, the worker count honours the `RAYON_NUM_THREADS` environment
//! variable when no pool is installed.
//!
//! The shim is safe code but for one site: the pool's lifetime erasure of
//! a region's task closure (see the private `pool` module).

#![deny(unsafe_code)]

use std::sync::{Arc, Mutex};

mod pool;

use pool::PoolCore;

/// Below this many items a terminal operation runs inline: dispatching pool
/// tasks for tiny inputs costs more than it saves and the result is
/// identical either way (ordered combines). Iterators whose items are
/// coarse units of work override this via
/// [`ParallelIterator::with_min_len`].
const SEQ_CUTOFF: usize = 1024;

/// Upper bound on the number of tasks a single region decomposes into. The
/// bound is a fixed constant — *never* derived from the worker count — so
/// the task tree (and with it every task's input range) is identical for
/// every pool size; workers merely steal from a deeper or shallower pile.
/// 64 tasks give an 8-worker pool an average of 8 steals per region, enough
/// for the load imbalance of heavy-tailed (RMAT) degree distributions to
/// even out, while keeping per-task slot bookkeeping negligible.
const MAX_TASKS_PER_REGION: usize = 64;

/// Decomposes a region of `n` items with grain `g` into `(num_tasks,
/// task_size)` — the fixed task tree. Pure in `(n, g)`: the layout never
/// depends on the worker count (see the module docs' grain-size rule).
fn task_layout(n: usize, grain: usize) -> (usize, usize) {
    let size = grain.max(1).max(n.div_ceil(MAX_TASKS_PER_REGION));
    (n.div_ceil(size), size)
}

/// Number of workers terminal operations on this thread will use.
pub fn current_num_threads() -> usize {
    pool::current_threads()
}

/// Error from [`ThreadPoolBuilder::build`]; never actually produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self { num_threads: 0 }
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            pool::default_threads()
        } else {
            self.num_threads
        };
        let (core, workers) = PoolCore::start(n);
        Ok(ThreadPool { core, workers })
    }
}

/// A dedicated resident pool: `num_threads(n)` spawns `n - 1` parked worker
/// threads at build time (the installing caller is the n-th executor), and
/// [`ThreadPool::install`] binds the closure's parallel regions to those
/// workers — execution really moves to the pool, it is not just a
/// worker-count override. Workers are shut down and joined on drop.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` with this pool as the execution target for every parallel
    /// region (and nested region) it launches, restoring the previous
    /// target on exit.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        pool::with_pool(&self.core, op)
    }

    pub fn current_num_threads(&self) -> usize {
        self.core.threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.core.shutdown();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside catch_unwind already aborted
            // its region; surface nothing here.
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Core trait
// ---------------------------------------------------------------------------

/// A chunk-evaluable parallel iterator: items are produced for contiguous
/// index ranges of a fixed-length underlying source.
pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;

    /// Length of the underlying index space.
    fn pi_len(&self) -> usize;

    /// Produces the items of indices `lo..hi`, in order, into `sink`.
    fn pi_chunk<S: FnMut(Self::Item)>(&self, lo: usize, hi: usize, sink: &mut S);

    /// Grain size: the index-space length at or below which terminal
    /// operations run inline, and the minimum per-task extent of the fixed
    /// task tree (see the module docs' grain-size rule). Adapters forward
    /// the innermost source's value; [`MinLen`] overrides it so
    /// coarse-grained items (e.g. whole row ranges) still parallelize.
    fn pi_seq_threshold(&self) -> usize {
        SEQ_CUTOFF
    }

    // ---- adapters -------------------------------------------------------

    /// Treats runs of up to `min` items as the smallest unit worth running
    /// inline (mirrors rayon's `with_min_len`): terminal operations fall
    /// back to sequential execution when the whole index space fits in
    /// `min` items, and no pool task covers fewer than `min` items. Use for
    /// iterators whose items are coarse units of work.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen {
            base: self,
            min: min.max(1),
        }
    }

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, f }
    }

    fn copied(self) -> Copied<Self> {
        Copied { base: self }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    // ---- terminals ------------------------------------------------------

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive_chunks(&self, || (), |_: &mut (), item| f(item));
    }

    fn count(self) -> usize {
        drive_chunks(&self, || 0usize, |acc, _| *acc += 1)
            .into_iter()
            .sum()
    }
}

/// Decomposes `0..n` into the fixed task tree ([`task_layout`]) and folds
/// each task's index range into a per-task accumulator on the resident
/// pool; returns the accumulators in task (= index) order, so every
/// terminal's combine is ordered regardless of which workers ran which
/// tasks. Runs inline when the thread budget is 1 or the input fits in one
/// grain.
fn drive_chunks<P, A>(
    p: &P,
    seed: impl Fn() -> A + Sync,
    consume: impl Fn(&mut A, P::Item) + Sync,
) -> Vec<A>
where
    P: ParallelIterator,
    A: Send,
{
    let n = p.pi_len();
    if pool::current_threads() <= 1 || n <= p.pi_seq_threshold() {
        let mut acc = seed();
        p.pi_chunk(0, n, &mut |item| consume(&mut acc, item));
        return vec![acc];
    }
    let (num_tasks, size) = task_layout(n, p.pi_seq_threshold());
    let slots: Vec<Mutex<Option<A>>> = (0..num_tasks).map(|_| Mutex::new(None)).collect();
    pool::current_pool().run_region(num_tasks, &|t| {
        let lo = t * size;
        let hi = (lo + size).min(n);
        let mut acc = seed();
        p.pi_chunk(lo, hi, &mut |item| consume(&mut acc, item));
        *slots[t].lock().unwrap_or_else(|e| e.into_inner()) = Some(acc);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("pool task did not run")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
    type Item = R;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut(R)>(&self, lo: usize, hi: usize, sink: &mut S) {
        self.base.pi_chunk(lo, hi, &mut |item| sink((self.f)(item)));
    }

    fn pi_seq_threshold(&self) -> usize {
        self.base.pi_seq_threshold()
    }
}

/// See [`ParallelIterator::with_min_len`].
pub struct MinLen<P> {
    base: P,
    min: usize,
}

impl<P: ParallelIterator> ParallelIterator for MinLen<P> {
    type Item = P::Item;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut(P::Item)>(&self, lo: usize, hi: usize, sink: &mut S) {
        self.base.pi_chunk(lo, hi, sink);
    }

    fn pi_seq_threshold(&self) -> usize {
        self.min
    }
}

pub struct Filter<P, F> {
    base: P,
    f: F,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Sync + Send,
{
    type Item = P::Item;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut(P::Item)>(&self, lo: usize, hi: usize, sink: &mut S) {
        self.base.pi_chunk(lo, hi, &mut |item| {
            if (self.f)(&item) {
                sink(item);
            }
        });
    }

    fn pi_seq_threshold(&self) -> usize {
        self.base.pi_seq_threshold()
    }
}

pub struct Copied<P> {
    base: P,
}

impl<'a, T, P> ParallelIterator for Copied<P>
where
    T: Copy + Send + Sync + 'a,
    P: ParallelIterator<Item = &'a T>,
{
    type Item = T;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut(T)>(&self, lo: usize, hi: usize, sink: &mut S) {
        self.base.pi_chunk(lo, hi, &mut |item| sink(*item));
    }

    fn pi_seq_threshold(&self) -> usize {
        self.base.pi_seq_threshold()
    }
}

pub struct Enumerate<P> {
    base: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut((usize, P::Item))>(&self, lo: usize, hi: usize, sink: &mut S) {
        let mut idx = lo;
        self.base.pi_chunk(lo, hi, &mut |item| {
            sink((idx, item));
            idx += 1;
        });
    }

    fn pi_seq_threshold(&self) -> usize {
        self.base.pi_seq_threshold()
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (mirrors rayon's trait).
pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel iterator over an integer range.
pub struct RangePar<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_par {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangePar<$t> {
            type Item = $t;

            fn pi_len(&self) -> usize {
                self.len
            }

            fn pi_chunk<S: FnMut($t)>(&self, lo: usize, hi: usize, sink: &mut S) {
                for i in lo..hi {
                    sink(self.start + i as $t);
                }
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = RangePar<$t>;
            type Item = $t;

            fn into_par_iter(self) -> RangePar<$t> {
                let len = self.end.saturating_sub(self.start) as usize;
                RangePar { start: self.start, len }
            }
        }
    )*};
}

impl_range_par!(u32, usize);

/// Parallel iterator over a slice.
pub struct SlicePar<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SlicePar<'a, T> {
    type Item = &'a T;

    fn pi_len(&self) -> usize {
        self.slice.len()
    }

    fn pi_chunk<S: FnMut(&'a T)>(&self, lo: usize, hi: usize, sink: &mut S) {
        for item in &self.slice[lo..hi] {
            sink(item);
        }
    }
}

/// `par_iter()` on slices / Vecs (receiver auto-derefs to `[T]`).
pub trait IntoParallelRefIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + Send + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SlicePar<'a, T>;
    type Item = &'a T;

    fn par_iter(&'a self) -> SlicePar<'a, T> {
        SlicePar { slice: self }
    }
}

/// `par_iter_mut()` on slices / Vecs (receiver auto-derefs to `[T]`).
pub trait IntoParallelRefMutIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = SliceParMut<'a, T>;
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> SliceParMut<'a, T> {
        SliceParMut {
            len: self.len(),
            untaken: Mutex::new(vec![(0, self)]),
        }
    }
}

/// Parallel iterator over a mutable slice. It holds the pieces of the slice
/// that no task has taken yet, each with the index it starts at; a task
/// splits its range out of the piece that contains it (`split_at_mut`), so
/// no two tasks ever hold the same element, and a range that overlaps one
/// already taken finds no piece and panics.
pub struct SliceParMut<'a, T> {
    len: usize,
    untaken: Mutex<Vec<(usize, &'a mut [T])>>,
}

impl<'a, T> SliceParMut<'a, T> {
    /// Takes indices `lo..hi` (not empty) out of the untaken pieces.
    fn take(&self, lo: usize, hi: usize) -> &'a mut [T] {
        let mut untaken = self.untaken.lock().unwrap_or_else(|e| e.into_inner());
        let found = untaken
            .iter()
            .position(|(start, piece)| *start <= lo && hi <= start + piece.len());
        let (start, piece) = untaken.swap_remove(found.expect("par_iter_mut index produced twice"));
        let (before, rest) = piece.split_at_mut(lo - start);
        let (taken, after) = rest.split_at_mut(hi - lo);
        if !before.is_empty() {
            untaken.push((start, before));
        }
        if !after.is_empty() {
            untaken.push((hi, after));
        }
        taken
    }
}

impl<'a, T: Send> ParallelIterator for SliceParMut<'a, T> {
    type Item = &'a mut T;

    fn pi_len(&self) -> usize {
        self.len
    }

    fn pi_chunk<S: FnMut(&'a mut T)>(&self, lo: usize, hi: usize, sink: &mut S) {
        assert!(lo <= hi && hi <= self.len, "index range out of bounds");
        if lo < hi {
            self.take(lo, hi).iter_mut().for_each(sink);
        }
    }
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        let buffers = drive_chunks(&p, Vec::new, |v, item| v.push(item));
        let total = buffers.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for b in buffers {
            out.extend(b);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Prelude
// ---------------------------------------------------------------------------

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<u32> = (0u32..10_000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
    }

    #[test]
    fn filter_count() {
        let n = (0usize..50_000)
            .into_par_iter()
            .filter(|&x| x % 3 == 0)
            .count();
        assert_eq!(n, 16_667);
    }

    #[test]
    fn collect_deterministic_across_pool_sizes() {
        let run = |threads| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                (0u32..100_000)
                    .into_par_iter()
                    .map(|x| (x as f64).sin())
                    .collect::<Vec<f64>>()
            })
        };
        let a = run(1);
        let b = run(4);
        let c = run(16);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn copied_filter_collects_in_order() {
        let a: Vec<u32> = (0..5_000).collect();
        let small: Vec<u32> = a.par_iter().copied().filter(|&x| x < 10).collect();
        assert_eq!(small, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn with_min_len_parallelizes_short_heavy_iterators() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<usize> = pool.install(|| {
            (0usize..8)
                .into_par_iter()
                .with_min_len(1)
                .map(|i| i * i)
                .collect()
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn par_iter_mut_visits_each_element_once() {
        for threads in [1, 2, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut v: Vec<usize> = (0..10_000).collect();
                v.par_iter_mut().for_each(|x| *x *= 3);
                assert!(v.iter().enumerate().all(|(i, &x)| x == 3 * i));
                let mut coarse = vec![0u32; 70];
                coarse
                    .par_iter_mut()
                    .with_min_len(1)
                    .enumerate()
                    .for_each(|(i, x)| *x = i as u32);
                assert_eq!(coarse, (0..70).collect::<Vec<u32>>());
                let mut empty: Vec<u32> = Vec::new();
                empty.par_iter_mut().for_each(|x| *x = 1);
                assert_eq!(empty.par_iter_mut().count(), 0);
            });
        }
        // An empty range takes nothing; two adjacent ranges taken out of
        // order each get their own elements.
        let mut v = [0u8; 130];
        let it = v.par_iter_mut();
        it.pi_chunk(70, 70, &mut |_| panic!("an empty range produced an item"));
        it.pi_chunk(65, 130, &mut |x| *x += 2);
        it.pi_chunk(0, 65, &mut |x| *x += 1);
        it.pi_chunk(65, 65, &mut |_| panic!("an empty range produced an item"));
        assert!(v[..65].iter().all(|&x| x == 1) && v[65..].iter().all(|&x| x == 2));
    }

    #[test]
    #[should_panic(expected = "par_iter_mut index produced twice")]
    fn par_iter_mut_refuses_an_index_twice() {
        let mut v = [0u8; 130];
        let it = v.par_iter_mut();
        it.pi_chunk(0, 65, &mut |_| {});
        it.pi_chunk(64, 130, &mut |_| {});
    }

    #[test]
    fn task_layout_is_pure_in_n_and_grain() {
        // The fixed task tree: same (n, grain) → same layout, independent
        // of any ambient pool.
        assert_eq!(task_layout(10, 1024), (1, 1024));
        assert_eq!(task_layout(2048, 1024), (2, 1024));
        assert_eq!(task_layout(100_000, 1024), (64, 1563));
        assert_eq!(task_layout(8, 1), (8, 1));
        let (tasks, size) = task_layout(1_000_000, 1024);
        assert!(tasks <= MAX_TASKS_PER_REGION);
        assert!(size * tasks >= 1_000_000);
    }

    // --- pool semantics ---------------------------------------------------

    /// `ThreadPool::install` must bind execution to the pool's own resident
    /// workers — not merely override a thread-count variable. Regression
    /// test for the historical shim, where `install` only set a
    /// thread-local count and every region spawned fresh scoped threads.
    #[test]
    fn install_executes_on_pool_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caller_thread = std::thread::current().id();
        let worker_threads: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            assert_eq!(current_num_threads(), 4);
            (0usize..16).into_par_iter().with_min_len(1).for_each(|_| {
                // Slow tasks so the parked workers reliably win some steals
                // before the caller drains the counter.
                std::thread::sleep(std::time::Duration::from_millis(5));
                if std::thread::current().id() != caller_thread {
                    worker_threads
                        .lock()
                        .unwrap()
                        .insert(std::thread::current().id());
                }
            });
        });
        let worker_threads = worker_threads.into_inner().unwrap();
        // At least one task must have executed on a resident worker (a
        // thread other than the caller), and only the pool's own workers
        // may have run any.
        assert!(
            !worker_threads.is_empty(),
            "no task ran on a pool worker: install did not bind execution"
        );
        assert!(
            worker_threads.len() < pool.current_num_threads(),
            "{} threads ran tasks besides the caller of a 4-thread pool",
            worker_threads.len()
        );
    }

    #[test]
    fn install_restores_previous_target() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 3);
            inner.install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 3);
        });
    }

    /// A panic in a stolen task must propagate to the caller of the
    /// parallel region (not kill a worker or hang the region), and the pool
    /// must stay usable afterwards.
    #[test]
    fn panic_in_stolen_task_propagates_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0usize..32).into_par_iter().with_min_len(1).for_each(|i| {
                    if i == 17 {
                        panic!("boom from task 17");
                    }
                });
            });
        }));
        let payload = result.expect_err("task panic must propagate");
        let msg = panic_message(&*payload);
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool still works after the unwound region.
        let evens = pool.install(|| {
            (0usize..10_000)
                .into_par_iter()
                .filter(|&i| i % 2 == 0)
                .count()
        });
        assert_eq!(evens, 5_000);
    }

    /// Stealing changes execution order, never results: a region whose
    /// tasks finish in deliberately skewed time must still reduce in task
    /// order.
    #[test]
    fn skewed_task_durations_keep_ordered_reduction() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<usize> = pool.install(|| {
            (0usize..48)
                .into_par_iter()
                .with_min_len(1)
                .map(|i| {
                    // Earlier tasks sleep longest: under stealing they
                    // finish last, so an unordered combine would reverse.
                    std::thread::sleep(std::time::Duration::from_micros((48 - i as u64) * 100));
                    i * 3
                })
                .collect()
        });
        assert_eq!(out, (0usize..48).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// A region launched from inside a pool task (a component run of the
    /// splitter's small-component fan-out) completes and
    /// collects in task order at every pool size; a panic in an inner
    /// region reaches the outer `install` caller, and the pool keeps
    /// working afterwards.
    #[test]
    fn nested_regions_complete_in_task_order() {
        // The first `threads` outer tasks meet at a barrier, so each
        // executor (every worker and the caller) holds one of them and
        // launches a nested region from it. With `fail`, those nested
        // regions panic.
        let nested = |threads: usize, fail: bool| -> Vec<Vec<usize>> {
            let meet = std::sync::Barrier::new(threads);
            (0usize..16)
                .into_par_iter()
                .with_min_len(1)
                .map(|i| {
                    if i < threads {
                        meet.wait();
                    }
                    (0usize..8)
                        .into_par_iter()
                        .with_min_len(1)
                        .map(|j| {
                            if fail && i < threads && j == 5 {
                                panic!("boom from nested task {i}.{j}");
                            }
                            i * 8 + j
                        })
                        .collect()
                })
                .collect()
        };
        let expected: Vec<Vec<usize>> = (0..16).map(|i| (i * 8..i * 8 + 8).collect()).collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = |fail| pool.install(|| nested(threads, fail));
            assert_eq!(run(false), expected, "{threads} threads");
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(true)));
            let payload = result.expect_err("nested task panic must propagate");
            let msg = panic_message(&*payload);
            assert!(msg.contains("boom"), "{threads} threads: {msg}");
            assert_eq!(run(false), expected, "{threads} threads, after a panic");
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("")
    }
}
