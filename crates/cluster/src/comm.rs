//! All-to-all message exchange and collectives for the simulated cluster.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::metrics::ClusterMetrics;

/// Locks ignoring poisoning: barrier poisoning (below) is the cluster's
/// failure-propagation mechanism, and exchange slots hold plain message
/// vectors that stay consistent across a panic.
#[inline]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A sense-reversing spin-then-park barrier.
///
/// BSP iterations synchronize a handful of node threads thousands of
/// times per run; `std::sync::Barrier`'s futex sleep/wake costs tens of
/// microseconds per crossing, which at simulation scale dwarfs the
/// per-iteration compute. With at most ~16 node threads, spinning (with
/// periodic yields to stay polite under oversubscription) is the right
/// trade for a crossing whose peers are about to arrive. A peer that is
/// *not* about to arrive — the serve loop's leader parked on an empty
/// request queue — would keep every other rank spinning on a core for as
/// long as the service idles, so a waiter that exhausts its spin budget
/// parks on a condvar until the last arrival wakes it.
pub(crate) struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// More barrier participants than hardware threads: spinning would
    /// steal the core a worker needs, so yield on every spin instead.
    oversubscribed: bool,
    /// Set when a participant panicked: waiters must bail out instead of
    /// waiting forever on a peer that will never arrive.
    poisoned: AtomicBool,
    parking: Parking,
}

/// The slow path's state, on a cache line of its own: every crossing's
/// last arrival reads `sleepers`, and must not contend for the line the
/// spinners and arrivers bounce between them.
#[repr(align(64))]
struct Parking {
    /// Waiters parked, or committed to parking.
    sleepers: AtomicUsize,
    /// Times a waiter parked, over the barrier's lifetime.
    parks: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Spins a waiter makes before it parks: ~1 ms of `pause`s, or 128
/// yields when oversubscribed.
const SPIN_LIMIT: u32 = 1 << 15;
const SPIN_LIMIT_OVERSUBSCRIBED: u32 = 1 << 7;

impl SpinBarrier {
    pub(crate) fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            oversubscribed: n > cores,
            poisoned: AtomicBool::new(false),
            parking: Parking {
                sleepers: AtomicUsize::new(0),
                parks: AtomicU64::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            },
        }
    }

    /// Marks the barrier as poisoned; all current and future waiters
    /// panic instead of deadlocking.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        if self.parking.sleepers.load(Ordering::SeqCst) > 0 {
            self.notify_sleepers();
        }
    }

    /// Times a waiter has parked so far.
    pub(crate) fn parks(&self) -> u64 {
        self.parking.parks.load(Ordering::Relaxed)
    }

    /// Blocks until all `n` participants have called `wait`.
    ///
    /// # Panics
    ///
    /// Panics if a participant panicked (the barrier was poisoned) —
    /// propagating the failure instead of deadlocking the cluster.
    pub(crate) fn wait(&self) {
        if self.n == 1 {
            return;
        }
        self.check_poison();
        let gen = self.generation.load(Ordering::Acquire);
        // SeqCst, like the `sleepers` load that follows it: the pair
        // `park` orders its own SeqCst pair against. Both are what the
        // spin-only barrier already executed on x86 (a locked add, a
        // plain load), so a crossing nobody parked in costs what it
        // always did.
        if self.arrived.fetch_add(1, Ordering::SeqCst) == self.n - 1 {
            // Looked up before the release, not after: anything between
            // the generation store and this thread's next arrival
            // lengthens the window in which it and the released spinners
            // fight over the same cache line.
            let sleepers = self.parking.sleepers.load(Ordering::SeqCst) > 0;
            // Last arrival: reset and release the generation.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            if sleepers {
                self.notify_sleepers();
            }
            return;
        }
        let spin_limit = if self.oversubscribed {
            SPIN_LIMIT_OVERSUBSCRIBED
        } else {
            SPIN_LIMIT
        };
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            self.check_poison();
            spins += 1;
            if self.oversubscribed || spins.is_multiple_of(1024) {
                // Both budgets run out on a yielding spin, so the plain
                // ones need not check.
                if spins >= spin_limit {
                    self.park(gen);
                    return;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn check_poison(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("cluster barrier poisoned: another node panicked");
        }
    }

    /// Sleeps until generation `gen` is released or the barrier is
    /// poisoned.
    #[cold]
    fn park(&self, gen: usize) {
        let p = &self.parking;
        let mut guard = lock(&p.lock);
        p.sleepers.fetch_add(1, Ordering::SeqCst);
        p.parks.fetch_add(1, Ordering::Relaxed);
        loop {
            // `arrived` first: a count from the next generation can only
            // be read together with the generation flip that preceded it.
            let arrived = self.arrived.load(Ordering::SeqCst);
            if self.generation.load(Ordering::Acquire) != gen
                || self.poisoned.load(Ordering::SeqCst)
            {
                break;
            }
            if arrived == 0 || arrived == self.n {
                // The last party has arrived (count full, or already
                // reset) and is about to flip the generation. It may have
                // looked for sleepers before this one was counted, so
                // sleeping could miss its wake; the flip is moments away.
                std::hint::spin_loop();
                continue;
            }
            // A count in 1..n read after the increment above means the
            // last party's `fetch_add` is still to come, and with it the
            // `sleepers` load that finds this waiter; the lock, held from
            // before the increment until `wait` releases it, keeps the
            // notification from firing early.
            guard = p.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        p.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        self.check_poison();
    }

    /// Wakes parked waiters after a release or a poisoning. Taking the
    /// lock orders the notification after any waiter that has counted
    /// itself but not yet reached its `wait`.
    #[cold]
    fn notify_sleepers(&self) {
        let _guard = lock(&self.parking.lock);
        self.parking.cv.notify_all();
    }
}

/// Shared collective state for one cluster run.
struct Shared<M> {
    n_nodes: usize,
    /// `slots[from][to]`: staged messages awaiting delivery.
    slots: Vec<Vec<Mutex<Vec<M>>>>,
    /// Synchronizes collective phases.
    barrier: SpinBarrier,
    /// Scratch for `allreduce_sum`.
    reduce: Vec<AtomicU64>,
    /// Per-node staging for `gather_bytes` (leader-side result collection).
    gather: Vec<Mutex<Vec<u8>>>,
    /// Staging for `broadcast_bytes` (leader writes, everyone reads).
    bcast: Mutex<Vec<u8>>,
    /// Run-wide communication metrics.
    metrics: ClusterMetrics,
}

impl<M> Shared<M> {
    fn new(n_nodes: usize) -> Self {
        Shared {
            n_nodes,
            slots: (0..n_nodes)
                .map(|_| (0..n_nodes).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            barrier: SpinBarrier::new(n_nodes),
            reduce: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            gather: (0..n_nodes).map(|_| Mutex::new(Vec::new())).collect(),
            bcast: Mutex::new(Vec::new()),
            metrics: ClusterMetrics::new(n_nodes),
        }
    }
}

/// What one [`exchange_with_stats`](NodeCtx::exchange_with_stats) call
/// sent and received, from the calling node's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeStats {
    /// Remote (cross-node) messages this node sent.
    pub sent_messages: u64,
    /// Wire bytes of those messages, per the caller's sizing function.
    pub sent_bytes: u64,
    /// Messages delivered to this node's inbox (including from itself).
    pub received: usize,
}

/// A node's handle onto the cluster: its identity plus the collectives.
///
/// Handed to each node closure by [`run_cluster`]. All collective calls
/// must be made by *every* node the same number of times in the same
/// order (the usual SPMD contract); violating it deadlocks, exactly as it
/// would under MPI.
pub struct NodeCtx<'a, M> {
    /// This node's id in `[0, n_nodes)`.
    pub node: usize,
    shared: &'a Shared<M>,
}

impl<'a, M: Send> NodeCtx<'a, M> {
    /// Number of nodes in the cluster.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.shared.n_nodes
    }

    /// Run-wide communication metrics (shared by all nodes).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.shared.metrics
    }

    /// Waits until every node reaches this point.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Times a node has parked in the cluster's barrier (spin budget
    /// exhausted) so far. For tests that check idle ranks sleep.
    #[doc(hidden)]
    pub fn barrier_parks(&self) -> u64 {
        self.shared.barrier.parks()
    }

    /// All-to-all message exchange (`MPI_Alltoallv`).
    ///
    /// `outbox[i]` is delivered to node `i`; the returned inbox contains
    /// everything addressed to this node, concatenated in sender-id order.
    /// Messages to self are delivered too (walker logic need not
    /// special-case local moves).
    ///
    /// Wire size is approximated as `size_of::<M>()` per remote message;
    /// use [`exchange_with_stats`](NodeCtx::exchange_with_stats) when the
    /// true serialized size is known.
    ///
    /// # Panics
    ///
    /// Panics if `outbox.len() != n_nodes()`.
    pub fn exchange(&self, outbox: Vec<Vec<M>>) -> Vec<M> {
        self.exchange_with_stats(outbox, |_| std::mem::size_of::<M>())
            .0
    }

    /// [`exchange`](NodeCtx::exchange) with caller-supplied wire sizing and
    /// per-call statistics.
    ///
    /// `wire_bytes` gives the serialized size of one message; for enum
    /// messages this is typically a tag byte plus the active variant's
    /// payload, which `size_of::<M>()` (the whole-enum upper bound used by
    /// [`exchange`](NodeCtx::exchange)) overstates. Sizes feed the run-wide
    /// [`metrics`](NodeCtx::metrics) and the returned [`ExchangeStats`].
    ///
    /// # Panics
    ///
    /// Panics if `outbox.len() != n_nodes()`.
    pub fn exchange_with_stats(
        &self,
        outbox: Vec<Vec<M>>,
        wire_bytes: impl Fn(&M) -> usize,
    ) -> (Vec<M>, ExchangeStats) {
        let n = self.shared.n_nodes;
        assert_eq!(outbox.len(), n, "outbox must address every node");

        let mut sent = 0u64;
        let mut sent_bytes = 0u64;
        for (to, msgs) in outbox.into_iter().enumerate() {
            if to != self.node {
                sent += msgs.len() as u64;
                sent_bytes += msgs.iter().map(|m| wire_bytes(m) as u64).sum::<u64>();
            }
            if !msgs.is_empty() {
                let mut slot = lock(&self.shared.slots[self.node][to]);
                debug_assert!(slot.is_empty(), "exchange slot not drained");
                *slot = msgs;
            }
        }
        self.shared.metrics.record_send_sized(sent, sent_bytes);

        // Phase 1: everyone has staged. Phase 2 (after drain): slots are
        // reusable for the next exchange.
        self.shared.barrier.wait();
        let mut inbox = Vec::new();
        for from in 0..n {
            let mut slot = lock(&self.shared.slots[from][self.node]);
            inbox.append(&mut slot);
        }
        self.shared.barrier.wait();
        self.shared.metrics.record_exchange(self.node);
        let stats = ExchangeStats {
            sent_messages: sent,
            sent_bytes,
            received: inbox.len(),
        };
        (inbox, stats)
    }

    /// Sums `value` across all nodes and returns the total to each
    /// (`MPI_Allreduce` with `MPI_SUM`).
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        self.shared.reduce[self.node].store(value, Ordering::Relaxed);
        self.shared.barrier.wait();
        let total = self
            .shared
            .reduce
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        // Keep slow readers from racing the next allreduce's stores.
        self.shared.barrier.wait();
        total
    }

    /// Gathers one opaque byte payload per node at the leader
    /// (`MPI_Gatherv` to node 0).
    ///
    /// Node 0 receives `Some(payloads)` with `payloads[i]` holding node
    /// `i`'s contribution; every other node receives `None`. Used for
    /// end-of-run result collection (path fragments, serialized metrics)
    /// outside the typed message channel.
    pub fn gather_bytes(&self, payload: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        *lock(&self.shared.gather[self.node]) = payload;
        self.shared.barrier.wait();
        let out = if self.node == 0 {
            Some(
                (0..self.shared.n_nodes)
                    .map(|i| std::mem::take(&mut *lock(&self.shared.gather[i])))
                    .collect(),
            )
        } else {
            None
        };
        // Keep contributors from racing ahead into the next gather while
        // the leader is still draining the staging slots.
        self.shared.barrier.wait();
        out
    }

    /// Broadcasts one opaque byte payload from the leader to every node
    /// (`MPI_Bcast` from node 0).
    ///
    /// The leader's `payload` is returned on every node (the leader gets
    /// its own bytes back untouched); non-leader payloads are ignored and
    /// should be empty.
    pub fn broadcast_bytes(&self, payload: Vec<u8>) -> Vec<u8> {
        if self.node == 0 {
            *lock(&self.shared.bcast) = payload;
        }
        self.shared.barrier.wait();
        let copy = if self.node == 0 {
            None
        } else {
            Some(lock(&self.shared.bcast).clone())
        };
        // Keep the leader from reclaiming (or restaging) the slot while
        // slow readers are still cloning it.
        self.shared.barrier.wait();
        match copy {
            Some(bytes) => bytes,
            None => std::mem::take(&mut *lock(&self.shared.bcast)),
        }
    }

    /// Returns `true` on exactly one node (node 0); useful for one-shot
    /// reporting.
    pub fn is_leader(&self) -> bool {
        self.node == 0
    }
}

/// Runs `n_nodes` node closures to completion and collects their results.
///
/// Each closure receives its [`NodeCtx`]. Panics in any node propagate to
/// the caller (after all threads are joined by the scope).
///
/// # Examples
///
/// ```
/// use knightking_cluster::run_cluster;
///
/// // Ring shift: each node sends its id to the next node.
/// let results = run_cluster::<u64, _, _>(4, |ctx| {
///     let n = ctx.n_nodes();
///     let mut outbox: Vec<Vec<u64>> = vec![Vec::new(); n];
///     outbox[(ctx.node + 1) % n].push(ctx.node as u64);
///     let inbox = ctx.exchange(outbox);
///     inbox[0]
/// });
/// assert_eq!(results, vec![3, 0, 1, 2]);
/// ```
///
/// # Panics
///
/// Panics if `n_nodes == 0`.
pub fn run_cluster<M, R, F>(n_nodes: usize, f: F) -> Vec<R>
where
    M: Send,
    R: Send,
    F: Fn(NodeCtx<'_, M>) -> R + Sync,
{
    assert!(n_nodes > 0, "need at least one node");
    let shared = Shared::<M>::new(n_nodes);

    if n_nodes == 1 {
        return vec![f(NodeCtx {
            node: 0,
            shared: &shared,
        })];
    }

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_nodes)
            .map(|node| {
                let shared = &shared;
                let f = &f;
                scope.spawn(move || run_poisoning(shared, node, f))
            })
            .collect();
        collect_results(handles)
    })
}

/// Runs one node's closure, poisoning the barrier if it panics so peers
/// blocked on collectives fail fast instead of deadlocking.
fn run_poisoning<M: Send, R, F>(shared: &Shared<M>, node: usize, f: &F) -> R
where
    F: Fn(NodeCtx<'_, M>) -> R,
{
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(NodeCtx { node, shared })));
    match result {
        Ok(r) => r,
        Err(payload) => {
            shared.barrier.poison();
            std::panic::resume_unwind(payload);
        }
    }
}

/// Joins node threads, preferring the panic of the node that failed
/// *first* (the poisoner) over the secondary poisoned-barrier panics.
fn collect_results<R>(handles: Vec<std::thread::ScopedJoinHandle<'_, R>>) -> Vec<R> {
    let mut results = Vec::with_capacity(handles.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut secondary: Option<Box<dyn std::any::Any + Send>> = None;
    for h in handles {
        match h.join() {
            Ok(r) => results.push(r),
            Err(payload) => {
                let is_poison = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.contains("barrier poisoned"))
                    .or_else(|| {
                        payload
                            .downcast_ref::<String>()
                            .map(|s| s.contains("barrier poisoned"))
                    })
                    .unwrap_or(false);
                if is_poison {
                    secondary.get_or_insert(payload);
                } else {
                    first_panic.get_or_insert(payload);
                }
            }
        }
    }
    if let Some(p) = first_panic.or(secondary) {
        std::panic::resume_unwind(p);
    }
    results
}

/// Runs a cluster and also returns a snapshot of the communication
/// metrics accumulated over the whole run.
///
/// # Panics
///
/// Panics if `n_nodes == 0`.
pub fn run_cluster_with_metrics<M, R, F>(
    n_nodes: usize,
    f: F,
) -> (Vec<R>, crate::metrics::MetricCounts)
where
    M: Send,
    R: Send,
    F: Fn(NodeCtx<'_, M>) -> R + Sync,
{
    assert!(n_nodes > 0, "need at least one node");
    let shared = Shared::<M>::new(n_nodes);

    let results = if n_nodes == 1 {
        vec![f(NodeCtx {
            node: 0,
            shared: &shared,
        })]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_nodes)
                .map(|node| {
                    let shared = &shared;
                    let f = &f;
                    scope.spawn(move || run_poisoning(shared, node, f))
                })
                .collect();
            collect_results(handles)
        })
    };
    let counts = shared.metrics.clone_counts();
    (results, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_delivers_in_sender_order() {
        let results = run_cluster::<(usize, u32), _, _>(3, |ctx| {
            let n = ctx.n_nodes();
            // Every node sends (its id, i) to every node i.
            let outbox: Vec<Vec<(usize, u32)>> =
                (0..n).map(|to| vec![(ctx.node, to as u32)]).collect();
            ctx.exchange(outbox)
        });
        for (me, inbox) in results.iter().enumerate() {
            let senders: Vec<usize> = inbox.iter().map(|&(s, _)| s).collect();
            assert_eq!(senders, vec![0, 1, 2], "node {me} inbox order");
            assert!(inbox.iter().all(|&(_, to)| to as usize == me));
        }
    }

    #[test]
    fn self_messages_delivered() {
        let results = run_cluster::<u8, _, _>(2, |ctx| {
            let mut outbox = vec![Vec::new(), Vec::new()];
            outbox[ctx.node].push(42u8);
            ctx.exchange(outbox)
        });
        assert_eq!(results, vec![vec![42], vec![42]]);
    }

    #[test]
    fn repeated_exchanges_do_not_leak_messages() {
        let results = run_cluster::<u32, _, _>(4, |ctx| {
            let n = ctx.n_nodes();
            let mut total = 0usize;
            for round in 0..10u32 {
                let outbox: Vec<Vec<u32>> = (0..n).map(|_| vec![round]).collect();
                let inbox = ctx.exchange(outbox);
                assert_eq!(inbox.len(), n);
                assert!(inbox.iter().all(|&m| m == round));
                total += inbox.len();
            }
            total
        });
        assert!(results.iter().all(|&t| t == 40));
    }

    #[test]
    fn allreduce_sums_across_nodes() {
        let results = run_cluster::<(), _, _>(5, |ctx| {
            let mut sums = Vec::new();
            for round in 0..3u64 {
                sums.push(ctx.allreduce_sum(ctx.node as u64 + round));
            }
            sums
        });
        // Round r: sum over nodes of (node + r) = 10 + 5r.
        for sums in results {
            assert_eq!(sums, vec![10, 15, 20]);
        }
    }

    #[test]
    fn single_node_runs_inline() {
        let results = run_cluster::<u8, _, _>(1, |ctx| {
            assert_eq!(ctx.n_nodes(), 1);
            assert!(ctx.is_leader());
            let inbox = ctx.exchange(vec![vec![7u8]]);
            inbox[0]
        });
        assert_eq!(results, vec![7]);
    }

    #[test]
    fn metrics_count_remote_messages_only() {
        run_cluster::<u64, _, _>(2, |ctx| {
            let mut outbox = vec![Vec::new(), Vec::new()];
            outbox[ctx.node].push(1u64); // local: not counted
            outbox[1 - ctx.node].extend([2u64, 3]); // remote: counted
            ctx.exchange(outbox);
            ctx.barrier();
            if ctx.is_leader() {
                let counts = ctx.metrics().clone_counts();
                assert_eq!(counts.messages, 4);
                assert_eq!(counts.bytes, 4 * std::mem::size_of::<u64>() as u64);
                assert_eq!(counts.exchanges, 1);
            }
        });
    }

    #[test]
    fn exchange_with_stats_uses_true_wire_sizes() {
        let results = run_cluster::<u64, _, _>(2, |ctx| {
            let mut outbox = vec![Vec::new(), Vec::new()];
            outbox[ctx.node].push(9u64); // local: excluded from sent stats
            outbox[1 - ctx.node].extend([1u64, 2, 3]);
            // Pretend each message serializes to 3 bytes, not size_of::<u64>().
            let (inbox, stats) = ctx.exchange_with_stats(outbox, |_| 3);
            assert_eq!(stats.sent_messages, 3);
            assert_eq!(stats.sent_bytes, 9);
            assert_eq!(stats.received, 4);
            assert_eq!(inbox.len(), 4);
            ctx.barrier();
            if ctx.is_leader() {
                let counts = ctx.metrics().clone_counts();
                assert_eq!(counts.messages, 6);
                assert_eq!(counts.bytes, 18, "run-wide bytes use the sizing fn");
            }
        });
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn gather_bytes_collects_at_leader_in_rank_order() {
        let results = run_cluster::<(), _, _>(4, |ctx| {
            let mut last = None;
            for round in 0..3u8 {
                last = ctx.gather_bytes(vec![ctx.node as u8 + round; ctx.node + 1]);
                assert_eq!(last.is_some(), ctx.is_leader(), "round {round}");
            }
            last
        });
        let parts = results[0].as_ref().expect("leader gets the gather");
        assert_eq!(parts.len(), 4);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p, &vec![i as u8 + 2; i + 1], "node {i} payload");
        }
        assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn broadcast_bytes_reaches_every_node() {
        let results = run_cluster::<(), _, _>(4, |ctx| {
            let mut got = Vec::new();
            for round in 0..3u8 {
                let payload = if ctx.is_leader() {
                    vec![round; round as usize + 1]
                } else {
                    Vec::new()
                };
                got.push(ctx.broadcast_bytes(payload));
            }
            got
        });
        for (node, rounds) in results.iter().enumerate() {
            for (round, bytes) in rounds.iter().enumerate() {
                assert_eq!(
                    bytes,
                    &vec![round as u8; round + 1],
                    "node {node} round {round}"
                );
            }
        }
    }

    #[test]
    fn broadcast_bytes_single_node_round_trips() {
        let results = run_cluster::<(), _, _>(1, |ctx| ctx.broadcast_bytes(vec![1, 2, 3]));
        assert_eq!(results, vec![vec![1, 2, 3]]);
    }

    #[test]
    #[should_panic(expected = "outbox must address every node")]
    fn wrong_outbox_size_panics() {
        run_cluster::<u8, _, _>(1, |ctx| {
            ctx.exchange(vec![]);
        });
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        run_cluster::<u8, _, _>(0, |_| ());
    }

    #[test]
    fn panicking_node_fails_fast_instead_of_deadlocking() {
        // Node 2 panics before its exchange; the others must not spin
        // forever — they observe the poisoned barrier and the original
        // panic propagates to the caller.
        let result = std::panic::catch_unwind(|| {
            run_cluster::<u8, _, _>(4, |ctx| {
                if ctx.node == 2 {
                    panic!("injected failure on node 2");
                }
                let outbox = (0..ctx.n_nodes()).map(|_| vec![1u8]).collect();
                let _ = ctx.exchange(outbox);
            });
        });
        let payload = result.expect_err("cluster must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("injected failure"),
            "original panic must win over poison panics, got: {msg}"
        );
    }

    #[test]
    fn panic_after_some_exchanges_still_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_cluster::<u8, _, _>(3, |ctx| {
                for round in 0..5 {
                    let outbox = (0..ctx.n_nodes()).map(|_| vec![round as u8]).collect();
                    let _ = ctx.exchange(outbox);
                    if ctx.node == 0 && round == 3 {
                        panic!("late failure");
                    }
                }
            });
        });
        assert!(result.is_err());
    }

    /// The batch fast path: parties that arrive together cross on the
    /// spin alone. A preempted peer can legitimately outlast the spin
    /// budget on a loaded box, so the claim is that a clean run exists,
    /// not that every run is clean.
    #[test]
    fn lockstep_crossings_do_not_park() {
        let clean = (0..5).any(|_| {
            let barrier = SpinBarrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for _ in 0..1000 {
                            barrier.wait();
                        }
                    });
                }
            });
            barrier.parks() == 0
        });
        assert!(clean, "1000 lockstep crossings parked in 5 of 5 attempts");
    }

    #[test]
    fn waiter_parked_behind_a_late_party_is_released() {
        let barrier = SpinBarrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait());
            // The late party arrives only once the waiter has given up
            // spinning; the barrier must then wake it.
            while barrier.parks() == 0 {
                std::thread::yield_now();
            }
            barrier.wait();
            waiter.join().expect("parked waiter crosses");
        });
        assert_eq!(barrier.parks(), 1);
        // The barrier is reusable after a parked crossing.
        std::thread::scope(|scope| {
            scope.spawn(|| barrier.wait());
            barrier.wait();
        });
    }

    #[test]
    fn poison_releases_parked_waiters() {
        let barrier = SpinBarrier::new(3);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| barrier.wait()))
                    })
                })
                .collect();
            while barrier.parks() < 2 {
                std::thread::yield_now();
            }
            barrier.poison();
            for w in waiters {
                let payload = w
                    .join()
                    .expect("the panic was caught")
                    .expect_err("a poisoned barrier panics its waiters");
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(msg, "cluster barrier poisoned: another node panicked");
            }
        });
    }

    #[test]
    fn large_fanout_stress() {
        // 8 nodes, 1000 messages each direction, several rounds.
        let results = run_cluster::<u64, _, _>(8, |ctx| {
            let n = ctx.n_nodes();
            let mut received = 0u64;
            for _ in 0..5 {
                let outbox: Vec<Vec<u64>> = (0..n).map(|to| vec![to as u64; 1000]).collect();
                let inbox = ctx.exchange(outbox);
                assert_eq!(inbox.len(), n * 1000);
                assert!(inbox.iter().all(|&m| m == ctx.node as u64));
                received += inbox.len() as u64;
            }
            received
        });
        assert!(results.iter().all(|&r| r == 40_000));
    }
}
