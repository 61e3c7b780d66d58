//! Parallel search with a shared incumbent: components fanned out largest-first,
//! subtrees work-stolen *within* a component.
//!
//! The `MaxRFC` branch-and-bound runs one exact search per connected component of the
//! reduced graph, and every pruning rule it applies — the trivial size bound, the
//! attribute bound, and the whole colorful bound family — is *incumbent-driven*: the
//! larger the best fair clique known so far, the more of the tree gets cut. The
//! parallel search therefore scales along two axes:
//!
//! * **Across components** — component indices are the initial tasks of a
//!   [work-stealing pool](super::steal), seeded **largest first** so the most
//!   expensive component starts immediately and stragglers don't serialize the tail.
//! * **Within a component** — the worker that claims a component splits the top
//!   level(s) of its branch tree into [`SubtreeTask`]s (owned `(clique, candidates)`
//!   snapshots) published onto its own deque in *reverse* branching order. The owner
//!   then works its deque LIFO in the serial branching order, while idle workers
//!   steal from the front — which the reversal made the *last-ordered* subtrees,
//!   where strong orderings like `CalColorOD` concentrate the structurally dense
//!   vertices (and any strong incumbent). A single giant component, the common shape
//!   of real social graphs, therefore no longer pins the whole solve to one worker,
//!   and a thief lands on the incumbent-bearing region almost immediately.
//!
//! The incumbent is shared through [`SharedIncumbent`]: a lock-free `AtomicUsize`
//! size bound read on the search hot path, plus a mutex-protected clique pool updated
//! only on (rare) improvements. A clique found in any subtree immediately tightens
//! the prunes of every other worker, so even on a single hardware thread the
//! diversified subtree order can beat the serial scan, and on real multicore the
//! subtrees run concurrently.
//!
//! ### Determinism
//!
//! With [`ThreadCount::Serial`] the search is exactly the classic sequential
//! algorithm: components in discovery order, no subtree splitting, and repeated runs
//! produce identical cliques *and* identical [`SearchStats`].
//! With two or more workers the *size* of the returned clique is still always the
//! exact optimum and a top-k pool returns exactly the canonical top-k set (ties
//! broken lexicographically — see [`SharedIncumbent::offer`]), but which of several
//! tied *maximum* cliques is reported, and all pruning counters, depend on incumbent
//! timing and may differ between runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rfc_graph::VertexId;

use crate::problem::FairCliqueParams;
use crate::solver::Component;

use super::branch::{ComponentContext, ComponentSearch, Scratch, SubtreeTask};
use super::control::SearchControl;
use super::steal;
use super::{SearchConfig, SearchStats};

/// How many worker threads the search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadCount {
    /// Classic deterministic single-threaded search: components in discovery order,
    /// reproducible cliques and stats.
    Serial,
    /// One worker per available CPU ([`std::thread::available_parallelism`]); falls
    /// back to serial when parallelism cannot be determined.
    #[default]
    Auto,
    /// Exactly this many workers. `Fixed(0)` and `Fixed(1)` behave like `Serial`.
    Fixed(usize),
}

impl ThreadCount {
    /// The number of workers this setting resolves to on the current machine. A result
    /// of `1` selects the deterministic serial path.
    pub fn resolve(self) -> usize {
        match self {
            ThreadCount::Serial => 1,
            ThreadCount::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ThreadCount::Fixed(n) => n.max(1),
        }
    }
}

/// A user-given worker count, as the CLI's `--threads` and the daemon's `threads`
/// field spell it: `0` means all cores, `1` the deterministic serial search, and
/// any larger `n` a fixed pool of `n` workers. Each front end picks its own default
/// when the count is absent.
impl From<usize> for ThreadCount {
    fn from(threads: usize) -> Self {
        match threads {
            0 => ThreadCount::Auto,
            1 => ThreadCount::Serial,
            n => ThreadCount::Fixed(n),
        }
    }
}

/// The best fair cliques found so far, shared across component searches (and worker
/// threads in parallel mode).
///
/// The pool holds up to `capacity` cliques (capacity 1 is the classic single
/// incumbent; larger capacities implement the top-k objective). The *pruning bound* —
/// the size of the pool's cut-off clique — lives in an [`AtomicUsize`] so the
/// branch-and-bound can read it with a single relaxed load on every node; the cliques
/// themselves sit behind a [`Mutex`] that is only touched on improvements. While the
/// pool has free slots the bound stays at 0, so nothing that could belong to the top
/// k is pruned; once full it is the size of the pool's smallest clique. Both the
/// bound and the derived [`useful_size`](Self::useful_size) are monotonically
/// non-decreasing, so pruning against a possibly-stale read is always sound —
/// staleness can only mean pruning *less*, never cutting a clique that belongs in
/// the pool.
///
/// ### Canonical membership
///
/// Pool membership is decided by a *total* order — size descending, then
/// lexicographic on the sorted vertex ids — so the final contents of a top-k pool do
/// not depend on the order cliques were offered in. Serial and parallel runs
/// therefore return exactly the same top-k set, even when several cliques tie at the
/// k-th size (the previously timing-dependent case).
#[derive(Debug)]
pub(crate) struct SharedIncumbent {
    /// Cached pruning bound (the k-th best size), readable without the lock.
    bound: AtomicUsize,
    /// Cached smallest *useful* clique size: the size a completed clique must reach
    /// for [`offer`](Self::offer) to possibly accept it.
    useful: AtomicUsize,
    state: Mutex<PoolState>,
}

#[derive(Debug)]
struct PoolState {
    /// Maximum number of cliques kept.
    capacity: usize,
    /// Recorded cliques in original (parent-graph) vertex ids with sorted contents,
    /// in canonical order: size descending, ties lexicographically ascending.
    cliques: Vec<Vec<VertexId>>,
}

impl PoolState {
    /// The pool's last clique once it is full: the cut-off a newcomer must beat.
    fn cutoff(&self) -> Option<&Vec<VertexId>> {
        self.cliques
            .last()
            .filter(|_| self.cliques.len() == self.capacity)
    }

    /// The current cut-off size (the k-th best, or 0 while slots are free).
    fn bound(&self) -> usize {
        self.cutoff().map_or(0, Vec::len)
    }

    /// The smallest clique size that could still enter the pool. A single incumbent
    /// (capacity 1) only takes strict improvements; a full top-k pool also takes ties
    /// with its smallest clique, which the lexicographic tie-break may admit.
    fn useful(&self) -> usize {
        if self.capacity == 1 || self.cliques.len() < self.capacity {
            self.bound() + 1
        } else {
            self.bound()
        }
    }
}

/// The canonical pool order of two cliques given as ascending vertex ids: size
/// descending, then lexicographically ascending. Every top-k result is ranked by it.
fn canonical_order<I>(a: I, b: I) -> std::cmp::Ordering
where
    I: ExactSizeIterator<Item = VertexId>,
{
    b.len().cmp(&a.len()).then_with(|| a.cmp(b))
}

impl SharedIncumbent {
    /// A single-incumbent pool starting from an initial clique (e.g. the heuristic
    /// warm start), or empty.
    #[cfg(test)]
    pub(crate) fn new(initial: Option<Vec<VertexId>>) -> Self {
        let pool = Self::with_capacity(1);
        if let Some(clique) = initial {
            pool.offer(clique);
        }
        pool
    }

    /// An empty pool keeping the `capacity` largest cliques. `capacity` must be at
    /// least 1. A warm start is [offered](Self::offer) like any other clique.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        debug_assert!(capacity >= 1, "the pool needs room for at least one clique");
        let state = PoolState {
            capacity: capacity.max(1),
            cliques: Vec::new(),
        };
        Self {
            bound: AtomicUsize::new(state.bound()),
            useful: AtomicUsize::new(state.useful()),
            state: Mutex::new(state),
        }
    }

    /// The current pruning bound: the size of the pool's cut-off clique. With
    /// capacity 1 this is exactly the incumbent size (a lower bound on the optimum).
    /// The search itself prunes on [`useful_size`](Self::useful_size); this accessor
    /// only backs test assertions.
    #[cfg(test)]
    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.bound.load(Ordering::Relaxed)
    }

    /// The smallest completed-clique size still worth [offering](Self::offer): one
    /// more than the pruning bound for a single incumbent or a pool with free
    /// slots, exactly the bound for a full top-k pool (a tie can displace a
    /// lexicographically larger member). Branches that cannot reach this size are
    /// useless to the pool.
    #[inline]
    pub(crate) fn useful_size(&self) -> usize {
        self.useful.load(Ordering::Relaxed)
    }

    /// Installs `clique` if it belongs in the pool under the canonical order — it
    /// improves the single incumbent, or it precedes the cut-off of a full top-k pool
    /// (strictly larger, or tied in size and lexicographically smaller on sorted
    /// vertex ids). Returns whether it was installed.
    ///
    /// Because membership is decided by a total order on cliques, the pool's final
    /// contents are independent of offer order — concurrent workers and the serial
    /// scan converge on the same top-k set. Cliques are stored with sorted vertex
    /// ids, and a clique already in the pool is never recorded twice (the
    /// branch-and-bound enumerates each clique of the graph once, but the heuristic
    /// warm start may seed the pool with a clique the search later re-discovers).
    pub(crate) fn offer(&self, mut clique: Vec<VertexId>) -> bool {
        // Fast reject without the lock; `useful` is monotone so this cannot discard a
        // clique the pool would have taken.
        if clique.len() < self.useful_size() {
            return false;
        }
        clique.sort_unstable();
        let mut state = self.state.lock().expect("incumbent lock poisoned");
        if clique.len() < state.useful() {
            return false;
        }
        let at = state.cliques.partition_point(|c| {
            canonical_order(c.iter().copied(), clique.iter().copied()).is_lt()
        });
        if at >= state.capacity {
            // Everything already in the pool canonically precedes the offer.
            return false;
        }
        if state.cliques.get(at) == Some(&clique) {
            return false;
        }
        state.cliques.insert(at, clique);
        let capacity = state.capacity;
        state.cliques.truncate(capacity);
        self.bound.store(state.bound(), Ordering::Relaxed);
        self.useful.store(state.useful(), Ordering::Relaxed);
        true
    }

    /// Consumes the pool, returning the best clique found (in original vertex ids),
    /// if any.
    #[cfg(test)]
    pub(crate) fn into_best(self) -> Option<Vec<VertexId>> {
        self.into_cliques().into_iter().next()
    }

    /// A copy of the pool's current best clique (sorted vertex ids), if it holds one.
    ///
    /// Used by the [portfolio](crate::portfolio)'s anytime improver to pick up
    /// improvements published by the racing exact members mid-run.
    pub(crate) fn best_snapshot(&self) -> Option<Vec<VertexId>> {
        self.state
            .lock()
            .expect("incumbent lock poisoned")
            .cliques
            .first()
            .cloned()
    }

    /// Whether a component's certificate settles it: whether, once the caller has
    /// offered the certificate's cliques, searching the component could no longer
    /// change the pool. A certificate ending at `cutoff` lists every fair clique of
    /// the component that could enter a pool whose last clique is the cut-off: for
    /// a single incumbent, which takes only strict improvements, every one larger
    /// than it; for a top-k pool, every one canonically before it. Without a
    /// cut-off it lists them all. So the pool settles the component when there is
    /// no cut-off, or when the pool is full and its last clique is at or before the
    /// cut-off, by size for a single incumbent and in canonical order for a top-k
    /// pool.
    pub(crate) fn settles(&self, cutoff: Option<&[VertexId]>) -> bool {
        let Some(cutoff) = cutoff else {
            return true;
        };
        let state = self.state.lock().expect("incumbent lock poisoned");
        match state.cutoff() {
            None => false,
            Some(last) if state.capacity == 1 => last.len() >= cutoff.len(),
            Some(last) => canonical_order(last.iter().copied(), cutoff.iter().copied()).is_le(),
        }
    }

    /// Consumes the pool, returning every recorded clique in canonical order
    /// (largest first, ties lexicographic).
    pub(crate) fn into_cliques(self) -> Vec<Vec<VertexId>> {
        self.state
            .into_inner()
            .expect("incumbent lock poisoned")
            .cliques
    }
}

/// A unit of work on the shared pool: claim a whole component, or resume one of its
/// split-off subtrees.
enum SearchTask {
    Component(usize),
    Subtree(SubtreeTask),
}

/// How many levels of a component's branch tree to split into stealable tasks.
///
/// Splitting only pays when whole components cannot occupy the pool: with at least as
/// many components as workers, component-level dispatch already keeps every worker
/// busy, and slicing each component into hundreds of subtree snapshots (each
/// re-checking the shallow-depth bounds on entry) is pure overhead. Below that,
/// one level already yields up to `n` tasks — plenty when the component dwarfs the
/// worker count. Components too small to feed every worker from one level split two
/// levels; tiny components aren't worth the snapshot overhead at all.
fn split_depth_for(n: usize, workers: usize, num_components: usize) -> usize {
    if workers <= 1 || n < 16 || num_components >= workers {
        0
    } else if n >= 4 * workers {
        1
    } else {
        2
    }
}

/// One worker's private accumulation: its stats and its reusable scratch buffers.
struct WorkerState {
    stats: SearchStats,
    scratch: Scratch,
}

/// Searches `components` on a work-stealing pool of `workers` threads sharing
/// `incumbent`, and returns the merged per-worker [`SearchStats`].
///
/// `components` should be sorted largest-first by the caller: they seed the pool's
/// FIFO injector in order, so the ordering is exactly the dispatch priority. The
/// worker that claims a component builds its [`ComponentContext`] once (published via
/// [`OnceLock`] for thieves) and splits the top of its tree into [`SubtreeTask`]s;
/// any worker can then run any subtree against the shared context.
pub(super) fn search_components(
    components: &[&Component],
    params: FairCliqueParams,
    config: &SearchConfig,
    workers: usize,
    incumbent: &SharedIncumbent,
    ctrl: &SearchControl,
) -> SearchStats {
    let contexts: Vec<OnceLock<ComponentContext>> =
        (0..components.len()).map(|_| OnceLock::new()).collect();
    let contexts = &contexts;
    let initial: Vec<SearchTask> = (0..components.len()).map(SearchTask::Component).collect();
    let states = (0..workers)
        .map(|_| WorkerState {
            stats: SearchStats::default(),
            scratch: Scratch::default(),
        })
        .collect();

    let states = steal::run_pool(workers, initial, states, |state, spawner, task| {
        if ctrl.stopped() {
            return;
        }
        let busy = Instant::now();
        let WorkerState { stats, scratch } = state;
        let (ctx, comp, subtree) = match task {
            SearchTask::Component(i) => {
                stats.components_searched += 1;
                let ctx = contexts[i].get_or_init(|| {
                    let c = components[i];
                    ComponentContext::new(c, config).with_split_depth(split_depth_for(
                        c.vertices.len(),
                        workers,
                        components.len(),
                    ))
                });
                (ctx, i, None)
            }
            SearchTask::Subtree(task) => {
                let ctx = contexts[task.comp]
                    .get()
                    .expect("a subtree task spawns only after its component context is built");
                (ctx, task.comp, Some(task))
            }
        };
        scratch.reset(ctx.num_vertices());
        let mut search =
            ComponentSearch::new(ctx, comp, params, config, stats, incumbent, ctrl, scratch);
        match subtree {
            None => search.run(),
            Some(task) => search.run_task(task),
        }
        // Scatter the split-off subtrees onto this worker's deque in *reverse*
        // branching order: CalColorOD-style orderings put the densest region (where
        // the strong incumbent hides) in the last subtrees, so reversing places those
        // at the deque *front* where thieves steal first. Some worker reaches the
        // dense tail almost immediately and publishes a strong incumbent through the
        // shared pool while the rest of the tree is still being carved up.
        for task in search.take_spawned().into_iter().rev() {
            spawner.spawn(SearchTask::Subtree(task));
        }
        state.stats.cpu_micros += busy.elapsed().as_micros() as u64;
    });

    let mut merged = SearchStats::default();
    for state in states {
        merged += &state.stats;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_resolution() {
        assert_eq!(ThreadCount::Serial.resolve(), 1);
        assert_eq!(ThreadCount::Fixed(0).resolve(), 1);
        assert_eq!(ThreadCount::Fixed(1).resolve(), 1);
        assert_eq!(ThreadCount::Fixed(6).resolve(), 6);
        assert!(ThreadCount::Auto.resolve() >= 1);
        assert_eq!(ThreadCount::default(), ThreadCount::Auto);
    }

    #[test]
    fn split_depth_scales_with_component_size() {
        assert_eq!(split_depth_for(1000, 1, 1), 0); // serial: never split
        assert_eq!(split_depth_for(8, 4, 1), 0); // tiny: not worth it
        assert_eq!(split_depth_for(1000, 4, 1), 1); // plenty of roots per worker
        assert_eq!(split_depth_for(20, 8, 1), 2); // few roots: split deeper
                                                  // Enough whole components to occupy every worker: no intra-component split.
        assert_eq!(split_depth_for(1000, 4, 4), 0);
        assert_eq!(split_depth_for(1000, 4, 3), 1); // pool underfed: split again
    }

    #[test]
    fn incumbent_accepts_only_strict_improvements() {
        let inc = SharedIncumbent::new(Some(vec![1, 2, 3]));
        assert_eq!(inc.size(), 3);
        assert_eq!(inc.useful_size(), 4);
        assert!(!inc.offer(vec![4, 5, 6])); // tie: a single incumbent keeps the first
        assert!(inc.offer(vec![4, 5, 6, 7]));
        assert_eq!(inc.size(), 4);
        assert!(!inc.offer(vec![8, 9]));
        assert_eq!(inc.into_best(), Some(vec![4, 5, 6, 7]));
    }

    #[test]
    fn top_k_pool_keeps_the_largest_cliques() {
        let pool = SharedIncumbent::with_capacity(3);
        // While slots are free the pruning bound stays at 0…
        assert_eq!(pool.size(), 0);
        assert!(pool.offer(vec![0, 1, 2]));
        assert!(pool.offer(vec![3, 4]));
        assert_eq!(pool.size(), 0);
        assert!(pool.offer(vec![5, 6, 7, 8]));
        // …and once full it is the smallest recorded size.
        assert_eq!(pool.size(), 2);
        // A tie with the minimum enters only if lexicographically smaller; an
        // improvement always evicts it.
        assert!(!pool.offer(vec![9, 10]));
        assert!(pool.offer(vec![11, 12, 13]));
        assert_eq!(pool.size(), 3);
        let cliques = pool.into_cliques();
        assert_eq!(
            cliques.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        // Size ties sit in lexicographic order.
        assert_eq!(cliques[1], vec![0, 1, 2]);
        assert_eq!(cliques[2], vec![11, 12, 13]);
    }

    #[test]
    fn top_k_membership_is_canonical_not_first_come() {
        // Unlike a single incumbent, a full top-k pool replaces a lexicographically
        // larger member with a tied-but-smaller one, so the final set is independent
        // of offer order.
        let forward = SharedIncumbent::with_capacity(2);
        assert!(forward.offer(vec![7, 8, 9]));
        assert!(forward.offer(vec![4, 5, 6]));
        // Pool full at size 3; useful stays 3 so ties are still considered.
        assert_eq!((forward.size(), forward.useful_size()), (3, 3));
        assert!(forward.offer(vec![1, 2, 3])); // displaces [7, 8, 9]
        assert!(!forward.offer(vec![7, 8, 9])); // and it cannot come back

        let backward = SharedIncumbent::with_capacity(2);
        assert!(backward.offer(vec![1, 2, 3]));
        assert!(backward.offer(vec![4, 5, 6]));
        assert!(!backward.offer(vec![7, 8, 9]));

        assert_eq!(forward.into_cliques(), backward.into_cliques());
    }

    #[test]
    fn top_k_pool_rejects_exact_duplicates() {
        let pool = SharedIncumbent::with_capacity(3);
        assert!(pool.offer(vec![3, 1, 2]));
        // The same clique in a different discovery order is still a duplicate.
        assert!(!pool.offer(vec![1, 2, 3]));
        assert!(!pool.offer(vec![2, 3, 1]));
        assert_eq!(pool.into_cliques(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn top_k_pool_seeded_with_warm_start() {
        let pool = SharedIncumbent::with_capacity(2);
        assert!(pool.offer(vec![3, 1, 2]));
        assert_eq!(pool.size(), 0); // one free slot left
        assert!(pool.offer(vec![4]));
        assert_eq!(pool.size(), 1); // full: bound is the smaller clique
        assert!(pool.offer(vec![5, 6]));
        assert_eq!(
            pool.into_cliques(),
            vec![vec![1, 2, 3], vec![5, 6]] // the size-1 clique was evicted
        );
    }

    #[test]
    fn a_component_is_settled_by_size_or_by_canonical_order() {
        // No cut-off: the certificate lists all of the component's fair cliques.
        let empty = SharedIncumbent::with_capacity(1);
        assert!(empty.settles(None));
        assert!(!empty.settles(Some(&[1, 2, 3])));
        // A single incumbent takes only strict improvements, so sizes decide.
        let single = SharedIncumbent::new(Some(vec![7, 8, 9]));
        assert!(single.settles(Some(&[1, 2, 3])));
        assert!(single.settles(Some(&[1, 2])));
        assert!(!single.settles(Some(&[1, 2, 3, 4])));
        // A top-k pool with a free slot settles nothing that has a cut-off.
        let top = SharedIncumbent::with_capacity(2);
        assert!(top.offer(vec![1, 2, 3, 4]));
        assert!(!top.settles(Some(&[1, 2])));
        // Full, its last clique [7, 8, 9] follows the cut-off [1, 2, 3]: a tie of
        // the component between them would still enter.
        assert!(top.offer(vec![7, 8, 9]));
        assert!(!top.settles(Some(&[1, 2, 3])));
        assert!(top.settles(Some(&[7, 8, 9])));
        assert!(top.settles(Some(&[8, 9, 10])));
        assert!(top.settles(Some(&[1, 2])));
        assert!(!top.settles(Some(&[5, 6, 7, 8])));
    }

    #[test]
    fn incumbent_is_safe_under_concurrent_offers() {
        let inc = SharedIncumbent::new(None);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let inc = &inc;
                scope.spawn(move || {
                    for len in 1..=64u32 {
                        inc.offer((0..len).collect());
                    }
                });
            }
        });
        // Every thread offered cliques up to 64 vertices; exactly one size-64 offer won.
        assert_eq!(inc.size(), 64);
        assert_eq!(inc.into_best().map(|c| c.len()), Some(64));
    }
}
