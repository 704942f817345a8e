//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach crates.io, so this shim supplies the
//! exact parallel-iterator surface the workspace uses — `par_iter_mut()`,
//! `par_chunks_mut()`, `.enumerate()`, `.map(..).collect()`, `.for_each(..)`
//! — implemented with `std::thread::scope` fan-out over contiguous batches.
//! It is genuinely parallel (one OS thread per available core), preserves
//! item order in `collect`, and degrades to the plain sequential loop for
//! single-item or single-core workloads.
//!
//! Unlike rayon there is no work-stealing: each worker gets a contiguous
//! batch, which is adequate for this repo's uniform per-item workloads
//! (clients of one round, row panels of one GEMM). Nested parallel calls
//! (a GEMM inside a parallel client loop) run sequentially on the worker
//! that issued them — real rayon folds nesting into one global pool; this
//! shim must not multiply threads per nesting level and oversubscribe the
//! machine.
//!
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)` runs `f`
//! with `n` as the fan-out of every region it starts. The size is a
//! thread-local of the calling thread, so concurrent installs (parallel
//! tests) do not see each other.

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread;

pub mod prelude {
    pub use crate::{IntoParallelRefMutIterator, ParallelSliceMut};
}

/// Number of worker threads to fan out to: the installed pool's size, else
/// one per available core. The core count is read once per process: on
/// Linux each `available_parallelism` call re-reads the cgroup CPU limits.
fn max_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    match INSTALLED_THREADS.with(Cell::get) {
        0 => *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// Number of threads a top-level parallel region fans out to (the shim's
/// analogue of rayon's pool size): the size of the pool installed on this
/// thread by [`ThreadPool::install`], else one per available core.
pub fn current_num_threads() -> usize {
    max_threads()
}

thread_local! {
    /// True on threads already executing inside a parallel region.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
    /// Size of the pool whose `install` is running on this thread; 0 when
    /// none is.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// `rayon::ThreadPoolBuilder`: configures a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// The pool's thread count; 0 (the default) means one per available
    /// core.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Never fails in the shim; the `Result` matches rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads,
        })
    }
}

/// `rayon::ThreadPool`. The shim keeps no resident workers: a pool is the
/// thread count that parallel regions started inside [`ThreadPool::install`]
/// fan out to (0: one per available core).
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with this pool's size governing every
    /// parallel region it starts and [`current_num_threads`]. Regions nested
    /// inside a worker stay sequential, as everywhere in the shim.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        /// Restores the outer pool's size, also when `op` panics.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|n| n.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED_THREADS.with(|n| n.replace(self.threads)));
        op()
    }
}

/// `rayon::ThreadPoolBuildError`; the shim never returns one.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// Run `f` over `items`, in order, on up to `max_threads()` scoped threads.
/// The result vector preserves item order. Called from inside another
/// parallel region, runs sequentially instead of spawning a second level of
/// threads.
fn run_ordered<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 || IN_PARALLEL_REGION.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let per = items.len().div_ceil(threads);
    let mut batches: Vec<Vec<I>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let batch: Vec<I> = it.by_ref().take(per).collect();
        if batch.is_empty() {
            break;
        }
        batches.push(batch);
    }
    let f = &f;
    let mut out = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                s.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    batch.into_iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out
}

/// `slice.par_chunks_mut(n)` — parallel disjoint mutable chunks.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "par_chunks_mut: chunk size must be > 0");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> ParEnumerate<ParChunksMut<'a, T>> {
        ParEnumerate { inner: self }
    }

    fn into_items(self) -> Vec<&'a mut [T]> {
        self.slice.chunks_mut(self.chunk_size).collect()
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        run_ordered(self.into_items(), f);
    }

    pub fn map<R, F>(self, f: F) -> ParMap<&'a mut [T], F>
    where
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        ParMap {
            items: self.into_items(),
            f,
        }
    }
}

/// `.enumerate()` adapter for the chunk/item producers above.
pub struct ParEnumerate<I> {
    inner: I,
}

impl<'a, T: Send> ParEnumerate<ParChunksMut<'a, T>> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let items: Vec<(usize, &'a mut [T])> =
            self.inner.into_items().into_iter().enumerate().collect();
        run_ordered(items, f);
    }

    pub fn map<R, F>(self, f: F) -> ParMap<(usize, &'a mut [T]), F>
    where
        R: Send,
        F: Fn((usize, &mut [T])) -> R + Sync,
    {
        ParMap {
            items: self.inner.into_items().into_iter().enumerate().collect(),
            f,
        }
    }
}

/// `collection.par_iter_mut()` — parallel `&mut` iteration.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut {
            items: self.iter_mut().collect(),
        }
    }
}

pub struct ParIterMut<'a, T> {
    items: Vec<&'a mut T>,
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<&'a mut T, F>
    where
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        run_ordered(self.items, f);
    }

    pub fn enumerate(self) -> ParEnumIterMut<'a, T> {
        ParEnumIterMut { items: self.items }
    }
}

pub struct ParEnumIterMut<'a, T> {
    items: Vec<&'a mut T>,
}

impl<'a, T: Send> ParEnumIterMut<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        let items: Vec<(usize, &'a mut T)> = self.items.into_iter().enumerate().collect();
        run_ordered(items, f);
    }
}

/// Lazy `.map(..)` holder; consumed by ordered `.collect()` / `.for_each()`.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, F> ParMap<I, F>
where
    I: Send,
{
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        C: From<Vec<R>>,
    {
        C::from(run_ordered(self.items, self.f))
    }

    pub fn for_each<R, G>(self, g: G)
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        G: Fn(R) + Sync,
    {
        let f = self.f;
        run_ordered(self.items, |item| g(f(item)));
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_writes_every_chunk() {
        let mut v = vec![0u64; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i as u64 + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[102], 11);
    }

    #[test]
    fn par_iter_mut_map_collect_preserves_order() {
        let mut v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter_mut().map(|x| *x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v: Vec<i32> = vec![1; 64];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn empty_input_is_fine() {
        let mut v: Vec<i32> = Vec::new();
        let out: Vec<i32> = v.par_iter_mut().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn nested_parallelism_runs_sequentially_and_correctly() {
        // An outer parallel loop whose body issues another parallel call —
        // the GEMM-inside-client-loop shape. The inner call must not spawn
        // a second level of threads, and results must still be exact.
        let mut outer: Vec<Vec<u64>> = (0..32).map(|i| vec![i; 64]).collect();
        let sums: Vec<u64> = outer
            .par_iter_mut()
            .map(|row| {
                row.par_chunks_mut(8).enumerate().for_each(|(_, chunk)| {
                    for x in chunk.iter_mut() {
                        *x += 1;
                    }
                });
                row.iter().sum::<u64>()
            })
            .collect();
        let expected: Vec<u64> = (0..32u64).map(|i| (i + 1) * 64).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn install_sets_the_thread_count_and_restores_it() {
        let outer = super::current_num_threads();
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let (inside, out) = pool.install(|| {
            let mut v: Vec<usize> = (0..10).collect();
            let out: Vec<usize> = v.par_iter_mut().map(|x| *x * 2).collect();
            (super::current_num_threads(), out)
        });
        assert_eq!(inside, 3);
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(super::current_num_threads(), outer);
    }

    #[test]
    fn worker_flag_does_not_leak_to_fresh_toplevel_calls() {
        // Two successive top-level parallel calls from the main thread must
        // both be allowed to fan out (the flag only marks worker threads).
        for _ in 0..2 {
            let mut v: Vec<usize> = (0..256).collect();
            let out: Vec<usize> = v.par_iter_mut().map(|x| *x + 1).collect();
            assert_eq!(out, (1..257).collect::<Vec<_>>());
        }
    }
}
