//! Deterministic fork-join.
//!
//! [`parallel_map`] is the one fan-out of the workspace. The offline
//! phases (trace generation, ideal personal networks, on-demand
//! resolution) map it over index ranges and work lists; the cycle engine
//! maps it over the alive list (plan), the node store's `&mut` elements
//! (prepare) and a conflict-free batch's disjoint `&mut` node pairs,
//! obtained with `disjoint_muts` (commit). It is built on
//! `std::thread::scope`, so no external runtime is needed.
//!
//! Determinism contract: [`parallel_map`] splits its input into contiguous
//! chunks, processes each chunk independently and reassembles the results
//! **in input order**, so the output is byte-identical for every thread
//! count (including 1).

use std::num::NonZeroUsize;

/// Environment variable overriding the worker-thread count (useful for the
/// determinism tests and for pinning benchmark runs to one core).
pub const THREADS_ENV: &str = "P3Q_THREADS";

/// Derives an independent RNG seed for stream `stream` of a `master` seed.
/// This is the split-seed trick behind every deterministic fan-out in the
/// workspace: give each unit of work (a node's plan, a user's profile, an
/// item's tag set) its own seed derived from the master seed and the unit's
/// index alone, and the produced bytes cannot depend on chunking,
/// scheduling or thread count.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    splitmix(master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The SplitMix64 finalizer: one well-mixed 64-bit value per input.
pub(crate) fn splitmix(mut z: u64) -> u64 {
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

/// Maps `f` over `items`, fanning contiguous chunks of ⌈len/threads⌉ items
/// out to `threads` workers, and returns the results **in input order**.
///
/// `f` is called as `f(item, &mut chunk_state)` where `chunk_state` is one
/// `S` built per worker chunk by `make_state` — the hook for reusable
/// scratch buffers that would be too expensive to allocate per item. The
/// items are moved into the workers, so they may be indices (`0..n`),
/// shared references, or disjoint `&mut`s (`iter_mut().enumerate()`, a
/// batch of node pairs).
///
/// Output is independent of `threads`; passing `threads <= 1` (or a tiny
/// input) runs inline without spawning.
pub fn parallel_map<I, T, S, MS, F>(items: I, threads: usize, make_state: MS, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(I::Item, &mut S) -> T + Sync,
{
    let mut items = items.into_iter();
    let len = items.len();
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        let mut state = make_state();
        return items.map(|item| f(item, &mut state)).collect();
    }
    // Contiguous chunking keeps results trivially reorderable and gives each
    // worker cache-friendly, adjacent work.
    let chunk_size = len.div_ceil(threads);
    let chunks: Vec<Vec<I::Item>> = (0..len.div_ceil(chunk_size))
        .map(|_| items.by_ref().take(chunk_size).collect())
        .collect();
    let mut out = Vec::with_capacity(len);
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
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked"));
        }
    });
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
            let got = parallel_map(0..97, threads, || (), |i, ()| i * i);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = parallel_map(0..0, 4, || (), |_, ()| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn chunk_state_is_reused_within_a_chunk() {
        // With one thread there is exactly one state; each call sees the
        // increments of its predecessors.
        let got = parallel_map(
            0..5,
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
            parallel_map(
                items.iter_mut().enumerate(),
                threads,
                || (),
                |(i, item), ()| {
                    assert_eq!(*item, i);
                    *item += 100;
                },
            );
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
            let got = parallel_map(items, threads, || (), |i, ()| format!("#{i}"));
            assert_eq!(got, expected, "threads = {threads}");
        }
        let empty: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, || (), |b, ()| b);
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
