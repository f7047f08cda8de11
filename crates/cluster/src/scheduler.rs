//! Per-node task scheduling: chunked work queues with light mode (§6.2).
//!
//! Within a node, KnightKing processes walkers (and incoming messages) as
//! *tasks*: chunks of 128 items placed on a shared queue that worker
//! threads grab dynamically. When the number of active items on a node
//! falls below a threshold (4000 in the paper), the node switches to
//! *light mode* — a single thread, no parallel coordination — because
//! during a walk's long tail the overhead of fanning tiny batches out to a
//! thread pool exceeds the benefit. §7.5 measures up to 66% run-time
//! reduction from this switch; `figure9` in the bench crate reproduces it.
//!
//! Determinism: results are accumulated *per chunk* and merged in chunk
//! order, so the outcome is independent of which worker processed which
//! chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks ignoring poisoning: a worker panic during `run_chunks` already
/// propagates through the thread scope, and the queue/slot vectors stay
/// consistent across it.
#[inline]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's dynamic-scheduling granularity, for walkers and messages.
pub const DEFAULT_CHUNK: usize = 128;

/// The paper's light-mode threshold: below this many active items a node
/// retains a single compute thread.
pub const DEFAULT_LIGHT_THRESHOLD: usize = 4000;

/// A node-local scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler {
    /// Worker threads available to this node.
    pub threads: usize,
    /// Items per task.
    pub chunk_size: usize,
    /// Below this many items, process serially (light mode). `0` disables
    /// the switch.
    pub light_threshold: usize,
}

impl Scheduler {
    /// A scheduler with `threads` workers and the paper's defaults.
    pub fn new(threads: usize) -> Self {
        Scheduler {
            threads: threads.max(1),
            chunk_size: DEFAULT_CHUNK,
            light_threshold: DEFAULT_LIGHT_THRESHOLD,
        }
    }

    /// A serial scheduler (one thread, light mode irrelevant).
    pub fn serial() -> Self {
        Scheduler {
            threads: 1,
            chunk_size: DEFAULT_CHUNK,
            light_threshold: 0,
        }
    }

    /// Disables the light-mode switch (used as the Figure 9 baseline).
    pub fn without_light_mode(mut self) -> Self {
        self.light_threshold = 0;
        self
    }

    /// Sets the light-mode threshold.
    pub fn with_light_threshold(mut self, threshold: usize) -> Self {
        self.light_threshold = threshold;
        self
    }

    /// Whether a batch of `len` items is small enough for the light-mode
    /// switch (§6.2) — the condition profiles bill as light mode. A
    /// one-thread scheduler runs every batch serially without it.
    #[inline]
    pub fn below_light_threshold(&self, len: usize) -> bool {
        self.light_threshold > 0 && len < self.light_threshold
    }

    /// Whether a batch of `len` items runs on the calling thread alone.
    #[inline]
    pub fn is_light(&self, len: usize) -> bool {
        self.threads == 1 || self.below_light_threshold(len)
    }

    /// Number of chunk tasks a batch of `len` items queues.
    #[inline]
    pub fn chunk_count(&self, len: usize) -> usize {
        len.div_ceil(self.chunk_size.max(1))
    }

    /// Processes `items` in chunk tasks, producing one accumulator per
    /// chunk, merged in chunk order.
    ///
    /// `f` receives `(chunk_index_base, chunk, accumulator)` where
    /// `chunk_index_base` is the index of the chunk's first item within
    /// `items` — walkers are identified positionally by the engine.
    ///
    /// In light mode (or with one thread) everything runs on the calling
    /// thread; otherwise `self.threads` scoped workers grab chunks from a
    /// shared atomic cursor.
    pub fn run_chunks<T, A, F>(&self, items: &mut [T], init: impl Fn() -> A + Sync, f: F) -> Vec<A>
    where
        T: Send,
        A: Send,
        F: Fn(usize, &mut [T], &mut A) + Sync,
    {
        let chunk = self.chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk);
        if n_chunks == 0 {
            return Vec::new();
        }

        if self.is_light(items.len()) || n_chunks == 1 {
            let mut out = Vec::with_capacity(n_chunks);
            for (ci, slice) in items.chunks_mut(chunk).enumerate() {
                let mut acc = init();
                f(ci * chunk, slice, &mut acc);
                out.push(acc);
            }
            return out;
        }

        // Parallel: distribute (chunk index, slice) pairs through a shared
        // cursor; each completed accumulator lands in its chunk's slot.
        type ChunkQueue<'a, T> = Mutex<Vec<Option<(usize, &'a mut [T])>>>;
        let slots: Mutex<Vec<Option<A>>> = Mutex::new((0..n_chunks).map(|_| None).collect());
        let cursor = AtomicUsize::new(0);
        let chunks: ChunkQueue<'_, T> = Mutex::new(
            items
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, s)| Some((ci, s)))
                .collect(),
        );

        let workers = self.threads.min(n_chunks);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let ci = cursor.fetch_add(1, Ordering::Relaxed);
                    if ci >= n_chunks {
                        break;
                    }
                    let taken = lock(&chunks)[ci].take();
                    let Some((idx, slice)) = taken else { break };
                    let mut acc = init();
                    f(idx * chunk, slice, &mut acc);
                    lock(&slots)[idx] = Some(acc);
                });
            }
        });

        slots
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|s| s.expect("every chunk produces an accumulator"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_every_item_exactly_once() {
        let sched = Scheduler {
            threads: 4,
            chunk_size: 16,
            light_threshold: 0,
        };
        let mut items: Vec<u32> = (0..1000).collect();
        let accs = sched.run_chunks(&mut items, Vec::new, |_base, slice, acc: &mut Vec<u32>| {
            for x in slice.iter_mut() {
                *x += 1;
                acc.push(*x);
            }
        });
        assert!(items.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        let mut all: Vec<u32> = accs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (1..=1000).collect::<Vec<u32>>());
    }

    #[test]
    fn accumulators_merge_in_chunk_order() {
        let sched = Scheduler {
            threads: 8,
            chunk_size: 10,
            light_threshold: 0,
        };
        let mut items: Vec<usize> = (0..95).collect();
        let accs = sched.run_chunks(
            &mut items,
            || 0usize,
            |base, slice, acc| {
                *acc = base + slice.len();
            },
        );
        // Chunk i covers items [10i, 10i+10); the last covers 5.
        assert_eq!(accs.len(), 10);
        for (i, &a) in accs.iter().enumerate() {
            let expect = i * 10 + if i == 9 { 5 } else { 10 };
            assert_eq!(a, expect, "chunk {i}");
        }
    }

    #[test]
    fn base_index_is_correct_in_serial_mode() {
        let sched = Scheduler::serial();
        let mut items = vec![0u8; 300];
        let accs = sched.run_chunks(
            &mut items,
            || 0usize,
            |base, _slice, acc| {
                *acc = base;
            },
        );
        assert_eq!(accs, vec![0, 128, 256]);
    }

    #[test]
    fn light_mode_kicks_in_below_threshold() {
        let sched = Scheduler::new(8).with_light_threshold(100);
        assert!(sched.is_light(99));
        assert!(!sched.is_light(100));
        assert!(!sched.without_light_mode().is_light(5));
        assert!(Scheduler::serial().is_light(1_000_000));
        // Serial by thread count, not by the switch.
        assert!(!Scheduler::serial().below_light_threshold(1));
        let one = Scheduler {
            threads: 1,
            ..Scheduler::new(1).with_light_threshold(100)
        };
        assert!(one.is_light(5000) && !one.below_light_threshold(5000));
        assert!(one.below_light_threshold(99));
    }

    #[test]
    fn chunk_count_matches_run_chunks() {
        let sched = Scheduler {
            threads: 2,
            chunk_size: 128,
            light_threshold: 0,
        };
        for len in [0usize, 1, 127, 128, 129, 1000] {
            let mut items = vec![0u8; len];
            let accs = sched.run_chunks(&mut items, || (), |_, _, _| {});
            assert_eq!(accs.len(), sched.chunk_count(len), "len {len}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let sched = Scheduler::new(4);
        let mut items: Vec<u32> = Vec::new();
        let accs = sched.run_chunks(&mut items, || 0u32, |_, _, _| {});
        assert!(accs.is_empty());
    }

    #[test]
    fn single_item() {
        let sched = Scheduler::new(4).without_light_mode();
        let mut items = vec![7u32];
        let accs = sched.run_chunks(
            &mut items,
            || 0u32,
            |_, slice, acc| {
                *acc = slice[0];
            },
        );
        assert_eq!(accs, vec![7]);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut base: Vec<u64> = (0..5000).collect();
        let run = |threads: usize, items: &mut [u64]| -> Vec<u64> {
            let sched = Scheduler {
                threads,
                chunk_size: 64,
                light_threshold: 0,
            };
            sched.run_chunks(
                items,
                || 0u64,
                |b, slice, acc| {
                    *acc = b as u64 + slice.iter().sum::<u64>();
                },
            )
        };
        let mut one = base.clone();
        let r1 = run(1, &mut one);
        let r8 = run(8, &mut base);
        assert_eq!(r1, r8);
    }
}
