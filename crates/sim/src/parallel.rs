//! Deterministic fork-join helpers.
//!
//! Originally these primitives only served the *offline* phases around the
//! simulator (building ideal personal networks, precomputing indices,
//! scoring baselines); since the plan/commit refactor the cycle engine
//! itself is built on them: the plan phase fans read-only protocol steps
//! out with [`parallel_map_chunks`], per-node preparation uses
//! `parallel_for_each_mut`, and conflict-free exchange batches commit
//! through `parallel_map_owned` over disjoint `&mut` node pairs obtained
//! with `disjoint_muts`. Everything is built on `std::thread::scope` so
//! no external runtime is needed.
//!
//! Determinism contract: every helper splits its input into contiguous
//! chunks, processes each chunk independently and reassembles the results
//! **in input order**, so the output is byte-identical for every thread
//! count (including 1).

use std::num::NonZeroUsize;

/// Environment variable overriding the worker-thread count (useful for the
/// determinism tests and for pinning benchmark runs to one core).
pub const THREADS_ENV: &str = "P3Q_THREADS";

/// Derives an independent RNG seed for stream `stream` of a `master` seed
/// (SplitMix64 finalizer). This is the split-seed trick behind every
/// deterministic fan-out in the workspace: give each unit of work (a node's
/// plan, a user's profile, an item's tag set) its own seed derived from the
/// master seed and the unit's index alone, and the produced bytes cannot
/// depend on chunking, scheduling or thread count.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of worker threads to use: `P3Q_THREADS` if set and positive,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over every index in `0..len`, fanning contiguous chunks out to
/// `threads` workers, and returns the per-index results in index order.
///
/// `f` is called as `f(index, &mut chunk_state)` where `chunk_state` is one
/// `S` built per worker chunk by `make_state` — the hook for reusable
/// scratch buffers that would be too expensive to allocate per index.
///
/// Output is independent of `threads`; passing `threads <= 1` (or a tiny
/// `len`) runs inline without spawning.
pub fn parallel_map_chunks<T, S, MS, F>(len: usize, threads: usize, make_state: MS, f: F) -> Vec<T>
where
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        let mut state = make_state();
        return (0..len).map(|i| f(i, &mut state)).collect();
    }
    // Contiguous chunking keeps results trivially reorderable and gives each
    // worker cache-friendly, index-adjacent work.
    let chunk_size = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk_size);
    let mut chunk_results: Vec<Vec<T>> = Vec::with_capacity(chunks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..chunks)
            .map(|t| {
                let start = t * chunk_size;
                let end = ((t + 1) * chunk_size).min(len);
                let (f, make_state) = (&f, &make_state);
                scope.spawn(move || {
                    let mut state = make_state();
                    (start..end).map(|i| f(i, &mut state)).collect::<Vec<T>>()
                })
            })
            .collect();
        for handle in handles {
            chunk_results.push(handle.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for chunk in chunk_results {
        out.extend(chunk);
    }
    out
}

/// Applies `f` to every element of `items` (as `f(index, &mut item)`),
/// fanning contiguous chunks out to `threads` workers (the same chunks as
/// [`parallel_map_chunks`]).
///
/// Each element is visited exactly once and no element is shared between
/// workers, so the final state is independent of `threads`. Passing
/// `threads <= 1` (or a tiny `len`) runs inline without spawning.
pub(crate) fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk_size = len.div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, chunk) in items.chunks_mut(chunk_size).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, item) in chunk.iter_mut().enumerate() {
                    f(chunk_idx * chunk_size + j, item);
                }
            });
        }
    });
}

/// Maps `f` over an owned work list, fanning contiguous chunks out to
/// `threads` workers, and returns the results **in input order**.
///
/// `f` is called as `f(item, &mut chunk_state)` with one `S` per worker
/// chunk (the same scratch-buffer hook as [`parallel_map_chunks`]). Unlike
/// that helper, the work items are moved into the workers, which is what
/// lets a batch of disjoint `&mut` node pairs travel to the threads that
/// commit them.
pub(crate) fn parallel_map_owned<T, U, S, MS, F>(
    items: Vec<T>,
    threads: usize,
    make_state: MS,
    f: F,
) -> Vec<U>
where
    T: Send,
    U: Send,
    MS: Fn() -> S + Sync,
    F: Fn(T, &mut S) -> U + Sync,
{
    let len = items.len();
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        let mut state = make_state();
        return items.into_iter().map(|item| f(item, &mut state)).collect();
    }
    let chunk_size = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut chunk_results: Vec<Vec<U>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let (f, make_state) = (&f, &make_state);
                scope.spawn(move || {
                    let mut state = make_state();
                    chunk
                        .into_iter()
                        .map(|item| f(item, &mut state))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        for handle in handles {
            chunk_results.push(handle.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for chunk in chunk_results {
        out.extend(chunk);
    }
    out
}

/// Splits a slice into simultaneous mutable references to the elements at
/// `sorted_unique` positions (which must be strictly increasing and in
/// bounds) — the shape of a conflict-free exchange batch, where every node
/// appears at most once and therefore all `&mut` borrows are disjoint.
///
/// # Panics
/// Panics if the indices are not strictly increasing or out of bounds.
pub(crate) fn disjoint_muts<'a, T>(slice: &'a mut [T], sorted_unique: &[usize]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(sorted_unique.len());
    let mut rest = slice;
    let mut consumed = 0usize;
    for &idx in sorted_unique {
        assert!(
            idx >= consumed,
            "disjoint_muts needs strictly increasing indices"
        );
        let (head, tail) = rest.split_at_mut(idx - consumed + 1);
        match head {
            [.., target] => out.push(target),
            [] => unreachable!("split keeps at least one element in head"),
        }
        rest = tail;
        consumed = idx + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = parallel_map_chunks(97, threads, || (), |i, ()| i * i);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = parallel_map_chunks(0, 4, || (), |_, ()| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn chunk_state_is_reused_within_a_chunk() {
        // With one thread there is exactly one state; each call sees the
        // increments of its predecessors.
        let got = parallel_map_chunks(
            5,
            1,
            || 0usize,
            |_, calls| {
                *calls += 1;
                *calls
            },
        );
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(42, 0);
        let b = stream_seed(42, 1);
        let c = stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stream_seed(42, 0));
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        for threads in [1, 2, 3, 8, 50] {
            let mut items: Vec<usize> = (0..37).collect();
            parallel_for_each_mut(&mut items, threads, |i, item| {
                assert_eq!(*item, i);
                *item += 100;
            });
            assert!(
                items.iter().enumerate().all(|(i, &v)| v == i + 100),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn map_owned_preserves_input_order() {
        let expected: Vec<String> = (0..23).map(|i| format!("#{i}")).collect();
        for threads in [1, 2, 4, 23, 99] {
            let items: Vec<usize> = (0..23).collect();
            let got = parallel_map_owned(items, threads, || (), |i, ()| format!("#{i}"));
            assert_eq!(got, expected, "threads = {threads}");
        }
        let empty: Vec<u8> = parallel_map_owned(Vec::<u8>::new(), 4, || (), |b, ()| b);
        assert!(empty.is_empty());
    }

    #[test]
    fn disjoint_muts_yields_the_requested_elements() {
        let mut items: Vec<u32> = (0..10).collect();
        let refs = disjoint_muts(&mut items, &[0, 3, 4, 9]);
        assert_eq!(refs.iter().map(|r| **r).collect::<Vec<_>>(), [0, 3, 4, 9]);
        for r in refs {
            *r += 50;
        }
        assert_eq!(items, [50, 1, 2, 53, 54, 5, 6, 7, 8, 59]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn disjoint_muts_rejects_duplicates() {
        let mut items = [1u8, 2, 3];
        let _ = disjoint_muts(&mut items, &[1, 1]);
    }
}
