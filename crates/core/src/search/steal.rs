//! A std-only work-stealing task pool for the branch-and-bound.
//!
//! The container has no crates registry, so this is a deliberately simple deque
//! scheduler built on `Mutex`/`Condvar`/atomics rather than a lock-free Chase-Lev
//! deque:
//!
//! * every worker owns a deque; it pushes spawned tasks to the **back** and pops its
//!   own work from the **back** (LIFO — depth-first, cache-warm, and on this search it
//!   means the most recently discovered — deepest, late-ordered — subtree runs first);
//! * idle workers steal from the **front** of a victim's deque (FIFO — the oldest,
//!   shallowest entries, which for subtree tasks are the *largest* pieces of work, so a
//!   thief walks away with something worth the synchronization cost) and take half the
//!   deque (`steal-half`) to amortize future steals;
//! * initial tasks sit in a shared FIFO injector that doubles as the steal target of
//!   last resort.
//!
//! Termination uses a single atomic `pending` counter (tasks spawned but not yet
//! finished). Workers that find no work park on a condvar with a short timeout — the
//! timeout bounds the cost of any missed wakeup without requiring a carefully fenced
//! notification protocol. Locks are held only for deque edits, never while running a
//! task, and a panicking task still decrements `pending` via a drop guard so the pool
//! cannot hang inside [`std::thread::scope`].
//!
//! The calling thread is worker 0, as the spawning thread works in Cilk-style
//! schedulers (Blumofe and Leiserson, "Scheduling multithreaded computations by work
//! stealing", JACM 1999): a pool of `n` workers starts `n − 1` threads, and a
//! one-worker pool starts none and runs every task on the caller, in injector order.
//!
//! The pool is generic over the task type and a per-worker state. It is the one way
//! `rfc_core` fans work out over threads: the branch-and-bound (component and subtree
//! tasks, at every thread count), enumeration (component tasks), batch solves (one
//! task per query) and the portfolio race (one task per member).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long an idle worker parks before re-checking for work on its own. Bounds the
/// latency of a missed wakeup (spawns skip the notify when nobody is parked, and a
/// worker headed for its park can race such a spawn). Shorter parks find straggler
/// work sooner but make parked workers re-scan — and, oversubscribed, preempt the
/// workers that *have* work — more often; 1ms is still far below any solve worth
/// parallelizing.
const IDLE_PARK: Duration = Duration::from_micros(1000);

/// Scheduler activity counters, accumulated per pool run and flushed into the
/// global `rfc-obs` metrics registry (`rfc_pool_*`) when the pool drains. Kept
/// local to the run so the hot paths touch pool-owned cache lines, not global
/// registry cells shared with unrelated pools.
#[derive(Default)]
struct PoolCounters {
    /// Successful steal batches (one per victim raid, not per task moved).
    steals: AtomicU64,
    /// Times an idle worker parked on the condvar.
    parks: AtomicU64,
    /// Tasks that entered the pool (initial seeds + spawns).
    spawned: AtomicU64,
    /// Deepest any single worker deque got during the run.
    max_queue: AtomicU64,
}

impl PoolCounters {
    /// Publishes this run's activity into the process-wide metrics registry.
    fn flush(&self, workers: usize) {
        let m = rfc_obs::metrics::global();
        m.counter("rfc_pool_runs_total").inc();
        m.counter("rfc_pool_workers_total").add(workers as u64);
        m.counter("rfc_pool_steals_total")
            .add(self.steals.load(Ordering::Relaxed));
        m.counter("rfc_pool_parks_total")
            .add(self.parks.load(Ordering::Relaxed));
        m.counter("rfc_pool_tasks_total")
            .add(self.spawned.load(Ordering::Relaxed));
        m.gauge("rfc_pool_max_queue_depth")
            .fetch_max(self.max_queue.load(Ordering::Relaxed) as i64);
    }
}

/// Shared scheduler state: injector, per-worker deques and the termination counter.
struct Shared<T> {
    /// FIFO queue seeded with the initial tasks; also the first steal target.
    injector: Mutex<VecDeque<T>>,
    /// One deque per worker. Only the owner pushes/pops the back; thieves take from
    /// the front.
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Tasks spawned but not yet finished; 0 means the pool is done.
    pending: AtomicUsize,
    /// Parking lot for idle workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Number of workers currently parked (or about to park). Spawns skip the
    /// notify syscall entirely while everyone is busy — on a machine with fewer
    /// cores than workers an unconditional notify per spawn triggers a context
    /// switch storm during task-publish bursts.
    idlers: AtomicUsize,
    /// Activity counters for observability (flushed when the pool drains).
    counters: PoolCounters,
}

impl<T> Shared<T> {
    fn notify_one(&self) {
        if self.idlers.load(Ordering::SeqCst) == 0 {
            // Nobody is parked. A worker racing toward its park re-checks `pending`
            // under the idle lock and parks with a timeout, so the worst a stale
            // read costs is one `IDLE_PARK` of latency — never a lost task.
            return;
        }
        // Acquire the idle lock so the notification cannot slip between a parker's
        // "no work" check and its wait.
        drop(self.idle_lock.lock().unwrap());
        self.idle_cv.notify_one();
    }

    fn notify_all(&self) {
        drop(self.idle_lock.lock().unwrap());
        self.idle_cv.notify_all();
    }
}

/// Handle passed to the task body for spawning follow-up tasks onto the pool.
pub(crate) struct Spawner<'a, T> {
    shared: &'a Shared<T>,
    worker: usize,
}

impl<T> Spawner<'_, T> {
    /// Schedules `task` onto this worker's deque (back = next to run locally, first
    /// candidate to keep, while older entries drift frontward toward thieves).
    pub(crate) fn spawn(&self, task: T) {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let depth = {
            let mut deque = self.shared.deques[self.worker].lock().unwrap();
            deque.push_back(task);
            deque.len() as u64
        };
        self.shared.counters.spawned.fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .max_queue
            .fetch_max(depth, Ordering::Relaxed);
        self.shared.notify_one();
    }
}

/// Decrements `pending` when a task finishes — including by panic, so a poisoned
/// worker cannot leave the other workers parked forever.
struct PendingGuard<'a, T> {
    shared: &'a Shared<T>,
}

impl<T> Drop for PendingGuard<'_, T> {
    fn drop(&mut self) {
        if self.shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.notify_all();
        }
    }
}

/// Runs `initial` tasks to completion on `workers` workers, threading a mutable
/// per-worker state through every task a worker runs. Returns the states, worker 0's
/// first, for the caller to merge.
///
/// The calling thread is worker 0; the other `workers − 1` are spawned before it
/// takes its first task. `run_task(state, spawner, task)` may call
/// [`Spawner::spawn`] to schedule more tasks; the pool exits when every spawned task
/// has finished. Workers take work as soon as they start, and termination rests on
/// `pending` alone, so no worker waits for another to exist: if the OS refuses a
/// thread, `Scope::spawn` panics on the caller before worker 0 runs, the workers
/// already running drain the pool, and the scope re-raises the panic instead of
/// hanging.
pub(crate) fn run_pool<T, S, F>(
    workers: usize,
    initial: Vec<T>,
    states: Vec<S>,
    run_task: F,
) -> Vec<S>
where
    T: Send,
    S: Send,
    F: Fn(&mut S, &Spawner<'_, T>, T) + Sync,
{
    assert_eq!(states.len(), workers, "one state per worker");
    let shared = Shared {
        injector: Mutex::new(VecDeque::from_iter(initial)),
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(0),
        idle_lock: Mutex::new(()),
        idle_cv: Condvar::new(),
        idlers: AtomicUsize::new(0),
        counters: PoolCounters::default(),
    };
    let seeded = shared.injector.lock().unwrap().len();
    shared.pending.store(seeded, Ordering::SeqCst);
    shared
        .counters
        .spawned
        .store(seeded as u64, Ordering::Relaxed);
    let run_task = &run_task;
    let shared = &shared;

    std::thread::scope(|scope| {
        let mut states = states.into_iter();
        let first = states.next().expect("a pool has at least one worker");
        let handles: Vec<_> = (1..)
            .zip(states)
            .map(|(worker, state)| scope.spawn(move || work(shared, worker, state, run_task)))
            .collect();
        let mut states = vec![work(shared, 0, first, run_task)];
        for handle in handles {
            states.push(handle.join().expect("pool worker panicked"));
        }
        shared.counters.flush(workers);
        states
    })
}

/// One worker's loop: runs tasks until the pool has none pending, then returns its
/// state.
fn work<T, S, F>(shared: &Shared<T>, worker: usize, mut state: S, run_task: &F) -> S
where
    F: Fn(&mut S, &Spawner<'_, T>, T),
{
    let spawner = Spawner { shared, worker };
    loop {
        if let Some(task) = next_task(shared, worker) {
            let guard = PendingGuard { shared };
            run_task(&mut state, &spawner, task);
            drop(guard);
            continue;
        }
        if shared.pending.load(Ordering::SeqCst) == 0 {
            return state;
        }
        // No work visible but tasks are still in flight: park until a spawn (or the
        // final completion) notifies, with a timeout as a missed-wakeup backstop. The
        // `idlers` count makes this parked worker visible to spawners, which
        // otherwise skip the notify.
        let idle = shared.idle_lock.lock().unwrap();
        shared.counters.parks.fetch_add(1, Ordering::Relaxed);
        shared.idlers.fetch_add(1, Ordering::SeqCst);
        if shared.pending.load(Ordering::SeqCst) == 0 {
            shared.idlers.fetch_sub(1, Ordering::SeqCst);
            return state;
        }
        let _ = shared.idle_cv.wait_timeout(idle, IDLE_PARK).unwrap();
        shared.idlers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Finds the next task for `worker`: own deque (LIFO), then the injector, then
/// steal-half from another worker's deque (FIFO).
fn next_task<T>(shared: &Shared<T>, worker: usize) -> Option<T> {
    if let Some(task) = shared.deques[worker].lock().unwrap().pop_back() {
        return Some(task);
    }
    if let Some(task) = shared.injector.lock().unwrap().pop_front() {
        return Some(task);
    }
    steal(shared, worker)
}

/// Steals from the first victim (round-robin from `worker + 1`) with a non-empty
/// deque: takes the front half, runs the oldest entry and keeps the rest at the
/// *front* of the thief's own deque, preserving oldest-first order for onward thieves.
fn steal<T>(shared: &Shared<T>, worker: usize) -> Option<T> {
    let n = shared.deques.len();
    for offset in 1..n {
        let victim = (worker + offset) % n;
        // Collect the batch under the victim's lock, then release it before touching
        // our own deque — the pool never holds two deque locks at once.
        let batch: Vec<T> = {
            let mut deque = shared.deques[victim].lock().unwrap();
            let take = deque.len().div_ceil(2);
            deque.drain(..take).collect()
        };
        let mut batch = batch.into_iter();
        let first = match batch.next() {
            Some(task) => task,
            None => continue,
        };
        shared.counters.steals.fetch_add(1, Ordering::Relaxed);
        let rest: Vec<T> = batch.collect();
        if !rest.is_empty() {
            let mut own = shared.deques[worker].lock().unwrap();
            for task in rest.into_iter().rev() {
                own.push_front(task);
            }
            drop(own);
            // The thief now has surplus work other idle workers may take.
            if shared.idlers.load(Ordering::SeqCst) > 0 {
                shared.notify_all();
            }
        }
        return Some(first);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Every spawned task must run exactly once, under adversarial steal pressure:
    /// many tiny tasks, each root fanning out two more generations, so once the
    /// injector's roots run out, idle workers must steal the spawned generations
    /// from each other's deques.
    #[test]
    fn every_task_runs_exactly_once_under_steal_pressure() {
        const ROOTS: usize = 64;
        const WORKERS: usize = 4;
        // id-space: roots 0..64, children 64..192 (2 per root), grandchildren
        // 192..448 (2 per child).
        const TOTAL: usize = ROOTS + 2 * ROOTS + 4 * ROOTS;

        for trial in 0..8 {
            let runs: Vec<AtomicU64> = (0..TOTAL).map(|_| AtomicU64::new(0)).collect();
            let runs = &runs;
            let states = run_pool(
                WORKERS,
                (0..ROOTS).collect::<Vec<usize>>(),
                vec![0u64; WORKERS],
                |count, spawner, id| {
                    runs[id].fetch_add(1, Ordering::SeqCst);
                    *count += 1;
                    if id < ROOTS {
                        spawner.spawn(ROOTS + 2 * id);
                        spawner.spawn(ROOTS + 2 * id + 1);
                    } else if id < 3 * ROOTS {
                        let child = id - ROOTS;
                        spawner.spawn(3 * ROOTS + 2 * child);
                        spawner.spawn(3 * ROOTS + 2 * child + 1);
                    }
                },
            );
            for (id, r) in runs.iter().enumerate() {
                assert_eq!(
                    r.load(Ordering::SeqCst),
                    1,
                    "task {id} ran a wrong number of times (trial {trial})"
                );
            }
            // Per-worker counts are the pool's "stats merge": nothing may be lost.
            assert_eq!(states.iter().sum::<u64>(), TOTAL as u64, "trial {trial}");
        }
    }

    /// A single worker degenerates to plain LIFO execution and still terminates.
    #[test]
    fn single_worker_runs_everything() {
        let states = run_pool(
            1,
            vec![10usize, 20, 30],
            vec![Vec::<usize>::new()],
            |seen, spawner, task| {
                seen.push(task);
                if task == 20 {
                    spawner.spawn(21);
                }
            },
        );
        let mut seen = states.into_iter().next().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 20, 21, 30]);
    }

    /// The caller is worker 0, so a one-worker pool starts no thread: every task,
    /// spawned ones included, runs on the calling thread.
    #[test]
    fn a_one_worker_pool_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran = run_pool(1, vec![0usize, 1], vec![vec![]], |ran, spawner, task| {
            ran.push(std::thread::current().id());
            if task < 6 {
                spawner.spawn(task + 2);
            }
        });
        assert_eq!(ran[0].len(), 8);
        assert!(ran[0].iter().all(|&id| id == caller));
    }

    /// An empty initial set exits immediately without deadlock.
    #[test]
    fn empty_pool_terminates() {
        let states = run_pool(3, Vec::<usize>::new(), vec![(); 3], |_, _, _| {});
        assert_eq!(states.len(), 3);
    }

    /// Pool activity must land in the process-wide metrics registry when the pool
    /// drains. Other tests run pools concurrently in this binary, so only monotonic
    /// lower bounds are asserted.
    #[test]
    fn pool_activity_flushes_into_global_metrics() {
        let metrics = rfc_obs::metrics::global();
        let runs_before = metrics.counter("rfc_pool_runs_total").get();
        let tasks_before = metrics.counter("rfc_pool_tasks_total").get();
        run_pool(2, vec![1usize, 2, 3], vec![(); 2], |_, spawner, task| {
            if task == 1 {
                spawner.spawn(4);
            }
        });
        assert!(metrics.counter("rfc_pool_runs_total").get() > runs_before);
        assert!(metrics.counter("rfc_pool_tasks_total").get() >= tasks_before + 4);
    }

    /// Deep chains (each task spawns exactly one successor) exercise the
    /// park/notify path: only one task is runnable at any time, so three of the
    /// four workers are parked for the whole run.
    #[test]
    fn serial_chain_keeps_parked_workers_live() {
        const DEPTH: usize = 500;
        let states = run_pool(4, vec![0usize], vec![0u64; 4], |count, spawner, task| {
            *count += 1;
            if task + 1 < DEPTH {
                spawner.spawn(task + 1);
            }
        });
        assert_eq!(states.iter().sum::<u64>(), DEPTH as u64);
    }
}
