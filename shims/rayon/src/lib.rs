//! Minimal work-alike for the subset of `rayon` this workspace uses.
//!
//! The build environment has no registry access, so the workspace provides
//! its own data-parallel layer behind the same names. Parallelism is real
//! and resident: a lazily-initialized worker pool (the private `pool` module) executes
//! every parallel region, so regions pay no thread-spawn latency, and tasks
//! are claimed in stolen order from a shared counter so heavy-tailed
//! workloads keep all workers busy. Determinism survives the stealing
//! because the *decomposition* is fixed and the *reduction* is ordered:
//!
//! * **Fixed task tree.** A region over `0..n` splits into tasks at
//!   boundaries computed by `task_layout` — a pure function of `n` and
//!   the grain size, never of the worker count (the same contract the
//!   parallel merge sort's fixed split layout follows).
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
//! shared by `for_each` / `map` / `map_init` / `fold`+`reduce` / `sum` /
//! `collect` (and therefore by `grappolo_core`'s `det_sum`, which is built
//! on these): with grain `g` — the innermost source's
//! [`ParallelIterator::with_min_len`] value, default `SEQ_CUTOFF` = 1024
//! items —
//!
//! 1. a region of `n ≤ g` items runs inline on the caller (no pool, no
//!    atomics — identical results, ordered combines);
//! 2. otherwise the index space splits into tasks of
//!    `max(g, ceil(n / 64))` contiguous items each (at most
//!    `MAX_TASKS_PER_REGION` tasks, so per-task bookkeeping stays
//!    amortized), executed by the pool in stolen order.
//!
//! Iterators whose items are coarse units of work (e.g. whole slice chunks)
//! override the grain via `with_min_len(1)` so a handful of heavy items
//! still parallelizes.
//!
//! Supported surface: `into_par_iter` on integer ranges and `Vec<T>`,
//! `par_iter` and `par_iter_mut` on slices, the adapters `map` / `map_init` / `filter` /
//! `flat_map_iter` / `copied` / `zip` / `enumerate` / `fold` /
//! `with_min_len`, the terminals `collect` / `count` / `sum` / `reduce` /
//! `for_each`, plus `join`, a real parallel merge sort behind
//! `par_sort_unstable{,_by,_by_key}`, `par_chunks`,
//! `ThreadPoolBuilder`/`ThreadPool::install` (a built pool owns resident
//! workers and `install` binds execution to them), and
//! [`current_worker_index`] for persistent per-worker arenas. Like the real
//! rayon, the worker count honours the `RAYON_NUM_THREADS` environment
//! variable when no pool is installed.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

mod pool;

pub use pool::current_worker_index;
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
            // its job; surface nothing here.
            let _ = handle.join();
        }
    }
}

/// Runs both closures, potentially in parallel, and returns both results
/// (mirrors `rayon::join`). The second closure is offered to the resident
/// pool as a stealable job while the first runs on the caller; if no worker
/// claims it in time the caller reclaims it and runs it inline, and with a
/// single-thread budget both run inline outright. Results are returned in
/// argument order either way, and panics from either closure propagate on
/// the caller.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if pool::current_threads() <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    pool::join_on_pool(&pool::current_pool(), oper_a, oper_b)
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
    /// coarse-grained items (e.g. whole slice chunks) still parallelize.
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

    fn map_init<T, R, INIT, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F>
    where
        R: Send,
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, Self::Item) -> R + Sync + Send,
    {
        MapInit {
            base: self,
            init,
            f,
        }
    }

    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, f }
    }

    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        FlatMapIter { base: self, f }
    }

    fn copied(self) -> Copied<Self> {
        Copied { base: self }
    }

    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> FoldPartials<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        FoldPartials {
            base: self,
            identity,
            fold_op,
        }
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

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let buffers = drive_chunks(&self, Vec::new, |v, item| v.push(item));
        buffers.into_iter().map(|v| v.into_iter().sum::<S>()).sum()
    }

    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let partials = drive_chunks(
            &self,
            || None::<Self::Item>,
            |acc, item| {
                let prev = acc.take().unwrap_or_else(&identity);
                *acc = Some(op(prev, item));
            },
        );
        partials.into_iter().flatten().fold(identity(), &op)
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

pub struct MapInit<P, INIT, F> {
    base: P,
    init: INIT,
    f: F,
}

impl<P, T, R, INIT, F> ParallelIterator for MapInit<P, INIT, F>
where
    P: ParallelIterator,
    R: Send,
    INIT: Fn() -> T + Sync + Send,
    F: Fn(&mut T, P::Item) -> R + Sync + Send,
{
    type Item = R;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut(R)>(&self, lo: usize, hi: usize, sink: &mut S) {
        // One scratch state per task — the moral equivalent of rayon's
        // per-split init. Call sites that want the state to persist across
        // tasks, regions, and phases pass an `init` that checks out of a
        // worker-indexed arena (see `grappolo_core`'s `ScratchPool`) instead
        // of allocating.
        let mut state = (self.init)();
        self.base
            .pi_chunk(lo, hi, &mut |item| sink((self.f)(&mut state, item)));
    }

    fn pi_seq_threshold(&self) -> usize {
        self.base.pi_seq_threshold()
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

pub struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(P::Item) -> U + Sync + Send,
{
    type Item = U::Item;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_chunk<S: FnMut(U::Item)>(&self, lo: usize, hi: usize, sink: &mut S) {
        self.base.pi_chunk(lo, hi, &mut |item| {
            for out in (self.f)(item) {
                sink(out);
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

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn pi_chunk<S: FnMut((A::Item, B::Item))>(&self, lo: usize, hi: usize, sink: &mut S) {
        let mut left = Vec::with_capacity(hi - lo);
        self.a.pi_chunk(lo, hi, &mut |item| left.push(item));
        let mut right = Vec::with_capacity(hi - lo);
        self.b.pi_chunk(lo, hi, &mut |item| right.push(item));
        for pair in left.into_iter().zip(right) {
            sink(pair);
        }
    }

    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }

    fn pi_seq_threshold(&self) -> usize {
        self.a.pi_seq_threshold().min(self.b.pi_seq_threshold())
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

/// Result of [`ParallelIterator::fold`]: per-task accumulators awaiting a
/// final `reduce`. Matches the `fold(..).reduce(..)` idiom.
pub struct FoldPartials<P, ID, F> {
    base: P,
    identity: ID,
    fold_op: F,
}

impl<P, A, ID, F> FoldPartials<P, ID, F>
where
    P: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Sync + Send,
    F: Fn(A, P::Item) -> A + Sync + Send,
{
    pub fn reduce<RID, OP>(self, reduce_identity: RID, op: OP) -> A
    where
        RID: Fn() -> A + Sync + Send,
        OP: Fn(A, A) -> A + Sync + Send,
    {
        let partials = drive_chunks(
            &self.base,
            || None::<A>,
            |acc, item| {
                let prev = acc.take().unwrap_or_else(&self.identity);
                *acc = Some((self.fold_op)(prev, item));
            },
        );
        partials.into_iter().flatten().fold(reduce_identity(), &op)
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
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                RangePar { start: self.start, len }
            }
        }
    )*};
}

impl_range_par!(u32, u64, usize, i32, i64);

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

impl<'a, T: Sync + Send> IntoParallelIterator for &'a [T] {
    type Iter = SlicePar<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> SlicePar<'a, T> {
        SlicePar { slice: self }
    }
}

impl<'a, T: Sync + Send> IntoParallelIterator for &'a Vec<T> {
    type Iter = SlicePar<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> SlicePar<'a, T> {
        SlicePar { slice: self }
    }
}

/// Immutable chunked view of a slice (mirrors rayon's `ParallelSlice`):
/// `par_chunks(size)` yields `&[T]` windows of `size` elements (last one may
/// be shorter) with a caller-controlled, thread-count-independent layout —
/// chunk `i` always covers `i*size ..`. Chunks are coarse units of work, so
/// the sequential-fallback grain is 1.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunks {
            slice: self,
            size: chunk_size,
        }
    }
}

/// See [`ParallelSlice::par_chunks`].
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn pi_chunk<S: FnMut(&'a [T])>(&self, lo: usize, hi: usize, sink: &mut S) {
        for ci in lo..hi {
            let start = ci * self.size;
            let end = (start + self.size).min(self.slice.len());
            sink(&self.slice[start..end]);
        }
    }

    fn pi_seq_threshold(&self) -> usize {
        1
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
            ptr: self.as_mut_ptr(),
            len: self.len(),
            claimed: (0..self.len().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            _borrow: std::marker::PhantomData,
        }
    }
}

/// Parallel iterator over a mutable slice. Elements are handed out through
/// a raw pointer; a claim bit per index makes a second request for any
/// index panic before it is produced, so no two `&mut` ever alias.
pub struct SliceParMut<'a, T> {
    ptr: *mut T,
    len: usize,
    claimed: Vec<AtomicU64>,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` stand for the `&mut [T]` the iterator was made
// from (`_borrow` keeps it borrowed), which may move to another thread when
// `T: Send`. Shared use hands each index out once (`claimed`, atomics, see
// `claim`), so other threads only ever get distinct `&mut T`, which
// `T: Send` permits; no `&T` is shared, so `T: Sync` is not needed.
unsafe impl<T: Send> Send for SliceParMut<'_, T> {}
unsafe impl<T: Send> Sync for SliceParMut<'_, T> {}

impl<T> SliceParMut<'_, T> {
    /// Claims indices `lo..hi`, panicking if any was claimed before.
    fn claim(&self, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= self.len, "index range out of bounds");
        let mut i = lo;
        while i < hi {
            let word = i / 64;
            let end = hi.min((word + 1) * 64);
            let width = end - i;
            let mask = (u64::MAX >> (64 - width)) << (i % 64);
            let before = self.claimed[word].fetch_or(mask, AtomicOrdering::AcqRel);
            assert!(before & mask == 0, "par_iter_mut index produced twice");
            i = end;
        }
    }
}

impl<'a, T: Send> ParallelIterator for SliceParMut<'a, T> {
    type Item = &'a mut T;

    fn pi_len(&self) -> usize {
        self.len
    }

    fn pi_chunk<S: FnMut(&'a mut T)>(&self, lo: usize, hi: usize, sink: &mut S) {
        self.claim(lo, hi);
        for i in lo..hi {
            // SAFETY: `i < len`, and `claim` handed index `i` to this call
            // alone, so this is the only reference to element `i`.
            sink(unsafe { &mut *self.ptr.add(i) });
        }
    }
}

/// Parallel iterator that moves items out of a `Vec`. Slots are mutexed so
/// tasks can take ownership through a shared reference.
pub struct VecPar<T> {
    slots: Vec<Mutex<Option<T>>>,
}

impl<T: Send> ParallelIterator for VecPar<T> {
    type Item = T;

    fn pi_len(&self) -> usize {
        self.slots.len()
    }

    fn pi_chunk<S: FnMut(T)>(&self, lo: usize, hi: usize, sink: &mut S) {
        for slot in &self.slots[lo..hi] {
            let item = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("VecPar item taken twice");
            sink(item);
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecPar<T>;
    type Item = T;

    fn into_par_iter(self) -> VecPar<T> {
        VecPar {
            slots: self.into_iter().map(|x| Mutex::new(Some(x))).collect(),
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
// Mutable slice operations
// ---------------------------------------------------------------------------

pub trait ParallelSliceMut<T: Send> {
    /// Parallel unstable sort (recursive-`join` merge sort; see
    /// `par_merge_sort_by` for the determinism argument).
    fn par_sort_unstable(&mut self)
    where
        T: Ord;

    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> CmpOrdering + Sync + Send;

    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync + Send;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_merge_sort_by(self, &|a, b| a.cmp(b));
    }

    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> CmpOrdering + Sync + Send,
    {
        par_merge_sort_by(self, &cmp);
    }

    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync + Send,
    {
        par_merge_sort_by(self, &|a, b| key(a).cmp(&key(b)));
    }
}

// ---------------------------------------------------------------------------
// Parallel merge sort
// ---------------------------------------------------------------------------

/// Below this length a (sub)slice is sorted inline with the standard
/// library's pdqsort; above it the slice is split at its midpoint. Splitting
/// always recurses down to this cutoff regardless of the thread budget, so
/// the leaf layout — and therefore the exact output permutation — is
/// **independent of the worker count**: only whether the two halves run
/// concurrently varies. Combined with a left-biased merge this makes
/// `par_sort_unstable*` bitwise deterministic across `RAYON_NUM_THREADS`,
/// which is the property the ingest pipeline's determinism argument needs.
const SORT_LEAF: usize = 4096;

/// Raw pointer that may cross a `join` boundary. The sort hands each
/// recursive call a disjoint scratch region, so sharing is sound.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Aborts the process if dropped during unwinding: the merge moves elements
/// through raw scratch memory, so a panicking comparator mid-merge would
/// otherwise leave duplicated elements behind and double-drop them.
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::abort();
        }
    }
}

/// Parallel merge sort: recursive `join` down to a fixed [`SORT_LEAF`]
/// layout, pdqsort at the leaves, left-biased merges on the way up. The
/// `join` halves execute as stealable jobs on the resident pool, so the
/// recursion spawns no threads.
fn par_merge_sort_by<T, F>(v: &mut [T], cmp: &F)
where
    T: Send,
    F: Fn(&T, &T) -> CmpOrdering + Sync,
{
    let len = v.len();
    if len <= SORT_LEAF {
        v.sort_unstable_by(cmp);
        return;
    }
    // Spawn budget: one extra level past the worker count for load balance.
    // The budget gates only *concurrency*, never the split layout.
    let threads = current_num_threads().max(1);
    let spawn_depth = threads.next_power_of_two().trailing_zeros() as usize + 1;
    let mut buf: Vec<T> = Vec::with_capacity(len);
    let guard = AbortOnUnwind;
    // SAFETY: `buf` has capacity for `len` elements and is handed to exactly
    // one recursive call per disjoint subrange; its length stays 0, elements
    // only move *through* its storage during merges.
    unsafe { sort_rec(v, SendPtr(buf.as_mut_ptr()), cmp, spawn_depth) };
    std::mem::forget(guard);
}

/// # Safety
/// `buf` must point to uninitialized scratch of capacity `v.len()` not
/// aliased by any concurrent call.
unsafe fn sort_rec<T, F>(v: &mut [T], buf: SendPtr<T>, cmp: &F, spawn_depth: usize)
where
    T: Send,
    F: Fn(&T, &T) -> CmpOrdering + Sync,
{
    let len = v.len();
    if len <= SORT_LEAF {
        v.sort_unstable_by(cmp);
        return;
    }
    let mid = len / 2;
    let (lo, hi) = v.split_at_mut(mid);
    let buf_hi = SendPtr(buf.0.add(mid));
    if spawn_depth > 0 {
        join(
            move || sort_rec(lo, buf, cmp, spawn_depth - 1),
            move || sort_rec(hi, buf_hi, cmp, spawn_depth - 1),
        );
    } else {
        sort_rec(lo, buf, cmp, 0);
        sort_rec(hi, buf_hi, cmp, 0);
    }
    merge_halves(v, mid, buf, cmp);
}

/// Merges the sorted halves `v[..mid]` / `v[mid..]` in place using `buf` as
/// scratch for the left run. Ties take the left element, so the merge is
/// stable with respect to the (fixed) split layout.
///
/// # Safety
/// `buf` must have capacity `mid`; both halves must be sorted under `cmp`.
unsafe fn merge_halves<T, F>(v: &mut [T], mid: usize, buf: SendPtr<T>, cmp: &F)
where
    F: Fn(&T, &T) -> CmpOrdering,
{
    let len = v.len();
    let p = v.as_mut_ptr();
    let b = buf.0;
    std::ptr::copy_nonoverlapping(p, b, mid);
    let (mut i, mut j, mut k) = (0usize, mid, 0usize);
    while i < mid && j < len {
        // Write cursor `k = i + (j - mid)` trails the right-run read cursor
        // `j` strictly while `i < mid`, so no unread element is overwritten.
        if cmp(&*b.add(i), &*p.add(j)) != CmpOrdering::Greater {
            std::ptr::copy_nonoverlapping(b.add(i), p.add(k), 1);
            i += 1;
        } else {
            std::ptr::copy_nonoverlapping(p.add(j), p.add(k), 1);
            j += 1;
        }
        k += 1;
    }
    if i < mid {
        std::ptr::copy_nonoverlapping(b.add(i), p.add(k), mid - i);
    }
    // Any leftover right-run suffix is already in its final position.
}

// ---------------------------------------------------------------------------
// Prelude
// ---------------------------------------------------------------------------

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
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
    fn filter_count_and_sum() {
        let n = (0usize..50_000)
            .into_par_iter()
            .filter(|&x| x % 3 == 0)
            .count();
        assert_eq!(n, 16_667);
        let s: usize = (0usize..10_000).into_par_iter().sum();
        assert_eq!(s, 9_999 * 10_000 / 2);
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
    fn vec_into_par_iter_moves_items() {
        let v: Vec<String> = (0..3_000).map(|i| i.to_string()).collect();
        let out: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out.len(), 3_000);
    }

    #[test]
    fn zip_and_copied() {
        let a: Vec<u32> = (0..5_000).collect();
        let b: Vec<u32> = (0..5_000).map(|x| x + 1).collect();
        let n = a
            .par_iter()
            .zip(b.par_iter())
            .filter(|(x, y)| **y == **x + 1)
            .count();
        assert_eq!(n, 5_000);
        let s: u32 = a.par_iter().copied().filter(|&x| x < 10).sum();
        assert_eq!(s, 45);
    }

    #[test]
    fn fold_reduce_matches_serial() {
        let total = (0u64..100_000)
            .into_par_iter()
            .fold(|| 0u64, |acc, x| acc + x)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, 99_999 * 100_000 / 2);
    }

    /// Deterministic pseudo-random u64 stream for sort tests.
    fn splitmix(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn par_sort_matches_std_sort() {
        let mut a = splitmix(7, 200_000);
        let mut b = a.clone();
        a.par_sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn par_sort_by_and_by_key() {
        let base: Vec<(u64, u64)> = splitmix(11, 50_000).into_iter().map(|x| (x, !x)).collect();
        let mut by = base.clone();
        by.par_sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        assert!(by.windows(2).all(|w| (w[1].1, w[0].0) <= (w[0].1, w[1].0)));
        let mut by_key = base.clone();
        by_key.par_sort_unstable_by_key(|&(_, snd)| snd);
        assert!(by_key.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn par_sort_deterministic_across_pool_sizes_with_ties() {
        // Many duplicate keys: the fixed split layout + left-biased merges
        // must give the same permutation for every thread budget — under
        // the stealing scheduler the halves complete in arbitrary order,
        // but the merge tree is fixed.
        let base: Vec<(u64, usize)> = splitmix(3, 100_000)
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x % 64, i))
            .collect();
        let run = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut v = base.clone();
            pool.install(|| v.par_sort_unstable_by(|a, b| a.0.cmp(&b.0)));
            v
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert_eq!(one, run(16));
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_on_pool_returns_both_results() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let (a, b) = pool.install(|| join(|| 2 + 2, || "ok".to_string()));
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_chunks_fixed_layout() {
        let data: Vec<u32> = (0..10_000).collect();
        // 7 coarse chunks: well under SEQ_CUTOFF items, must still map in
        // chunk order thanks to the grain override.
        let sums: Vec<(usize, u32)> = data
            .par_chunks(1536)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum()))
            .collect();
        assert_eq!(sums.len(), 7);
        assert!(sums.iter().enumerate().all(|(i, &(ci, _))| i == ci));
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, data.iter().sum());
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
        let seen: Mutex<HashSet<Option<usize>>> = Mutex::new(HashSet::new());
        let caller_thread = std::thread::current().id();
        let worker_threads: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            assert_eq!(current_num_threads(), 4);
            (0usize..16).into_par_iter().with_min_len(1).for_each(|_| {
                // Slow tasks so the parked workers reliably win some steals
                // before the caller drains the counter.
                std::thread::sleep(std::time::Duration::from_millis(5));
                seen.lock().unwrap().insert(current_worker_index());
                if std::thread::current().id() != caller_thread {
                    worker_threads
                        .lock()
                        .unwrap()
                        .insert(std::thread::current().id());
                }
            });
        });
        let seen = seen.into_inner().unwrap();
        let worker_threads = worker_threads.into_inner().unwrap();
        // At least one task must have executed on a resident worker (a
        // thread other than the caller, reporting Some(index)).
        assert!(
            !worker_threads.is_empty(),
            "no task ran on a pool worker: install did not bind execution"
        );
        assert!(
            seen.iter().any(Option::is_some),
            "no task observed a worker index: {seen:?}"
        );
        // Worker indices are dense and bounded by the pool size.
        assert!(seen
            .iter()
            .flatten()
            .all(|&i| i < pool.current_num_threads() - 1));
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
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool still works after the unwound region.
        let sum: usize = pool.install(|| (0usize..10_000).into_par_iter().sum());
        assert_eq!(sum, 9_999 * 10_000 / 2);
    }

    #[test]
    fn panic_in_stolen_join_half_propagates() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(
                    || std::thread::sleep(std::time::Duration::from_millis(5)),
                    || panic!("boom from join"),
                )
            });
        }));
        assert!(result.is_err(), "join-half panic must propagate");
        let (a, b) = pool.install(|| join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
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

    #[test]
    fn worker_index_is_none_outside_pools() {
        assert_eq!(current_worker_index(), None);
    }
}
