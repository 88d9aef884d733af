//! Deterministic parallel execution for the workspace's embarrassingly
//! parallel sections: the pipeline's stage-2 Adam refinements (via
//! `isop-core`), the stage-3 roll-out's per-batch slot fan-out
//! (`isop::scheduler`, which keeps admission and merge serial and
//! parallelizes only the slot simulations through `par_map_indexed`), and
//! the surrogate zoo's data-parallel training engine (via `isop-ml`).
//!
//! Built on `std::thread::scope` plus an `mpsc` channel — no external
//! thread-pool crate. Determinism contract: every primitive here returns
//! or reduces results **in input order** regardless of thread count or
//! scheduling, and callers draw every random number *before* entering a
//! parallel section. `threads = 1` therefore produces bit-identical
//! outcomes to `threads = N` for a fixed seed, and the single-thread path
//! runs inline with zero spawn overhead.
//!
//! For multi-job service workloads, [`CoreBudget`] / [`CoreLease`] add a
//! global core-permit layer on top: every concurrently running pipeline
//! takes a lease and sizes its [`Parallelism`] knob from it, so nested
//! parallelism (job-level x stage-level) can never oversubscribe the
//! machine — the sum of outstanding leases is bounded by the budget total,
//! and clamping a width is bit-identity-safe because every primitive here
//! is width-independent.
//!
//! This crate is a leaf: it depends only on the vendored `serde` so both
//! `isop-core` (which re-exports it as `isop::exec` for API stability) and
//! `isop-ml` (which cannot depend on core) can consume one executor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Thread-count knob for the pipeline's parallel sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Parallelism {
    /// Worker threads for parallel sections (1 = fully serial).
    pub threads: usize,
}

impl Parallelism {
    /// A knob with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Reads the `THREADS` environment variable, falling back to serial
    /// execution when unset or unparsable. Benches use this so one harness
    /// can be timed at several widths.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var("THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Self::new(threads)
    }

    /// A fully serial knob — used by nested parallel sections (e.g. forest
    /// trees built inside parallel workers) to avoid spawn-on-spawn.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// True when this knob would actually fan work out to workers.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

// Hand-written so configs serialized before this knob existed (no
// "parallelism" key -> Null) still deserialize, defaulting to serial.
impl Deserialize for Parallelism {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(Self::default()),
            other => {
                let obj = other
                    .as_obj()
                    .ok_or_else(|| Error::mismatch("object (Parallelism)", other))?;
                let threads = usize::from_value(Value::field(obj, "threads"))?;
                Ok(Self::new(threads))
            }
        }
    }
}

/// Why a [`RunControl`] wants its run stopped — or that it doesn't.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlState {
    /// Keep going.
    Live,
    /// [`RunControl::cancel`] was called.
    Cancelled,
    /// The deadline passed.
    Expired,
}

#[derive(Debug)]
struct ControlInner {
    cancelled: AtomicBool,
    // Mutex (not a frozen field): the engine arms a job's spec deadline on
    // a token the daemon created earlier, at batch start. Polls only
    // happen at stage boundaries, so the lock is uncontended in practice;
    // a poisoning panic elsewhere must not take the token down with it.
    deadline: Mutex<Option<Instant>>,
}

/// A cooperative cancellation/deadline token for a long-running job.
///
/// Clones share one flag, so a service thread can [`RunControl::cancel`] a
/// token whose other clone sits inside a running pipeline. The pipeline
/// polls [`RunControl::state`] **only at stage boundaries** (between
/// Harmonica, Hyperband, refinement, and roll-out) and at wave admission —
/// never inside a parallel section — so a stop is observed at a
/// deterministic point: which stages ran depends only on when the flag was
/// set relative to those serial checks, and everything a completed stage
/// recorded stays bit-identical to an uninterrupted run of that stage.
///
/// The default token (`RunControl::none()`) never stops anything and costs
/// one relaxed atomic load per check.
#[derive(Debug, Clone)]
pub struct RunControl {
    inner: Arc<ControlInner>,
}

impl RunControl {
    /// A token that never fires: no deadline, cancellable only explicitly.
    #[must_use]
    pub fn none() -> Self {
        Self {
            inner: Arc::new(ControlInner {
                cancelled: AtomicBool::new(false),
                deadline: Mutex::new(None),
            }),
        }
    }

    /// A token that expires `seconds` from now. `seconds <= 0` builds a
    /// token that is already expired at the first check — the deterministic
    /// way to exercise the deadline path in tests.
    #[must_use]
    pub fn with_deadline(seconds: f64) -> Self {
        let control = Self::none();
        control.arm_deadline(seconds);
        control
    }

    /// Arms (or re-arms) the deadline `seconds` from now on an existing
    /// token, so a creator that only knows about cancellation (the daemon)
    /// and a runner that knows the spec's deadline (the engine) can share
    /// one token. `seconds <= 0` expires the token at the next check; a
    /// deadline too far out for `Instant` to represent (or NaN) means no
    /// deadline.
    pub fn arm_deadline(&self, seconds: f64) {
        let now = Instant::now();
        let deadline = if seconds <= 0.0 {
            Some(now)
        } else {
            std::time::Duration::try_from_secs_f64(seconds)
                .ok()
                .and_then(|d| now.checked_add(d))
        };
        *self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = deadline;
    }

    /// Requests a cooperative stop; the run winds down at its next stage
    /// boundary. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Current verdict. Cancellation wins over an elapsed deadline, so a
    /// job cancelled after expiry still reports what the caller asked for.
    #[must_use]
    pub fn state(&self) -> ControlState {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return ControlState::Cancelled;
        }
        let deadline = *self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match deadline {
            Some(deadline) if Instant::now() >= deadline => ControlState::Expired,
            _ => ControlState::Live,
        }
    }

    /// True when [`RunControl::state`] is anything but [`ControlState::Live`].
    #[must_use]
    pub fn should_stop(&self) -> bool {
        self.state() != ControlState::Live
    }
}

impl Default for RunControl {
    fn default() -> Self {
        Self::none()
    }
}

/// Shared mutable state behind a [`CoreBudget`].
#[derive(Debug)]
struct BudgetState {
    /// Permits currently free to lease.
    available: usize,
    /// High-water mark of simultaneously outstanding permits — the
    /// oversubscription regression tests assert this never exceeds the
    /// budget's total.
    peak_outstanding: usize,
}

#[derive(Debug)]
struct BudgetInner {
    total: usize,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

/// A global core-permit budget shared by every concurrently running job.
///
/// When J jobs each configured for T threads run at once, naive nesting
/// spawns J x T workers and oversubscribes the machine. Instead, each job
/// takes a [`CoreLease`] before running and sizes its [`Parallelism`] knob
/// from [`CoreLease::threads`]; every `par_map_*` section of that job then
/// fans out at most `lease.threads()` workers (the coordinating caller
/// blocks on the result channel, so it contributes no compute), and the sum
/// of outstanding leases never exceeds [`CoreBudget::total`]. Clamping a
/// job's width to its lease is **bit-identity-safe**: every primitive in
/// this crate returns results in input order regardless of worker count.
///
/// Handles are cheap clones of one shared budget.
#[derive(Debug, Clone)]
pub struct CoreBudget {
    inner: Arc<BudgetInner>,
}

impl CoreBudget {
    /// A budget of `total` core permits (clamped to at least 1).
    #[must_use]
    pub fn new(total: usize) -> Self {
        let total = total.max(1);
        Self {
            inner: Arc::new(BudgetInner {
                total,
                state: Mutex::new(BudgetState {
                    available: total,
                    peak_outstanding: 0,
                }),
                freed: Condvar::new(),
            }),
        }
    }

    /// A budget sized to the host's available parallelism (at least 1).
    #[must_use]
    pub fn host() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Total permits this budget was created with.
    #[must_use]
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Permits currently free to lease (a racy snapshot, for reporting).
    #[must_use]
    pub fn available(&self) -> usize {
        self.inner.state.lock().expect("core budget lock").available
    }

    /// High-water mark of simultaneously outstanding permits. By
    /// construction this never exceeds [`CoreBudget::total`]; the exec and
    /// engine test suites assert exactly that after concurrent runs.
    #[must_use]
    pub fn peak_outstanding(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("core budget lock")
            .peak_outstanding
    }

    /// Blocks until at least one permit is free, then leases
    /// `min(want.max(1), available)` permits. Every caller is granted at
    /// least one permit eventually (permits are returned on [`CoreLease`]
    /// drop and the wait is woken on every return), so a fleet of jobs each
    /// needing only one permit can never deadlock.
    #[must_use]
    pub fn lease(&self, want: usize) -> CoreLease {
        let want = want.max(1);
        let mut state = self.inner.state.lock().expect("core budget lock");
        while state.available == 0 {
            state = self.inner.freed.wait(state).expect("core budget lock");
        }
        let permits = want.min(state.available);
        state.available -= permits;
        let outstanding = self.inner.total - state.available;
        state.peak_outstanding = state.peak_outstanding.max(outstanding);
        drop(state);
        CoreLease {
            inner: Arc::clone(&self.inner),
            permits,
        }
    }
}

/// A leased slice of a [`CoreBudget`], returned to the pool on drop.
///
/// The holder sizes its parallel sections from [`CoreLease::threads`] (or
/// takes a ready-made knob from [`CoreLease::parallelism`]); as long as it
/// does, its fan-out plus every concurrent holder's stays within the
/// budget's total.
#[derive(Debug)]
pub struct CoreLease {
    inner: Arc<BudgetInner>,
    permits: usize,
}

impl CoreLease {
    /// Worker threads this lease entitles the holder to (always >= 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.permits
    }

    /// A [`Parallelism`] knob sized to this lease — the one value a leased
    /// pipeline should route every `par_map_*` call site through.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.permits)
    }
}

impl Drop for CoreLease {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("core budget lock");
        state.available += self.permits;
        drop(state);
        self.inner.freed.notify_all();
    }
}

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// input order.
///
/// Workers claim indices from a shared atomic counter and send
/// `(index, result)` pairs over a channel; the caller reassembles them by
/// index, so the output is independent of scheduling. `f` must be pure with
/// respect to ordering (no interior mutability whose effects depend on
/// which thread runs first) — everything order-sensitive (RNG draws,
/// counters, accounting) belongs in the caller, before or after this call.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A send can only fail if the receiver is gone, which
                // cannot happen while the scope borrows it.
                let _ = tx.send((i, f(i, &items[i])));
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index computed exactly once"))
        .collect()
}

/// Maps `f` over mutable `items` on up to `threads` workers, returning
/// results in input order. The mutable cousin of [`par_map_indexed`]: each
/// item is handed to exactly one worker as `&mut T`, so `f` may mutate it
/// in place (the training engine fits ensemble members this way).
///
/// Work is distributed through a mutex-guarded iterator queue (safe Rust's
/// way of handing out disjoint `&mut` items across threads); results are
/// reassembled by index, so the output order is scheduling-independent.
/// The same purity rule as [`par_map_indexed`] applies: each item's result
/// and final state must depend only on `(index, item)`.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let queue = Mutex::new(items.iter_mut().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                // Claim under the lock, compute outside it: `IterMut`
                // yields `&mut T` borrowing the slice, not the guard, so
                // the lock is held only for the `next()` call.
                let claimed = queue.lock().expect("work queue poisoned").next();
                match claimed {
                    Some((i, item)) => {
                        let _ = tx.send((i, f(i, item)));
                    }
                    None => break,
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index computed exactly once"))
        .collect()
}

/// Splits `0..n` into fixed `[start, end)` ranges of `chunk` items (the
/// last may be shorter). Chunk boundaries depend only on `(n, chunk)` —
/// never on the thread count — which is what keeps chunked gradient
/// reductions bit-identical at any parallelism width.
///
/// # Panics
///
/// Panics if `chunk == 0`.
#[must_use]
pub fn fixed_chunks(n: usize, chunk: usize) -> Vec<(usize, usize)> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..n.div_ceil(chunk))
        .map(|c| (c * chunk, ((c + 1) * chunk).min(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let serial = par_map_indexed(1, &items, |i, &x| i * 1000 + x * x);
        for threads in [2, 4, 8] {
            let parallel = par_map_indexed(threads, &items, |i, &x| i * 1000 + x * x);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_indexed(32, &[1, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn par_map_mut_mutates_every_item_and_orders_results() {
        let mut serial: Vec<u64> = (0..61).collect();
        let serial_out = par_map_mut(1, &mut serial, |i, x| {
            *x += 100;
            *x * i as u64
        });
        for threads in [2, 4, 8] {
            let mut items: Vec<u64> = (0..61).collect();
            let out = par_map_mut(threads, &mut items, |i, x| {
                *x += 100;
                *x * i as u64
            });
            assert_eq!(items, serial, "threads = {threads}");
            assert_eq!(out, serial_out, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_mut_handles_empty_and_singleton() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(4, &mut empty, |_, x| *x).is_empty());
        let mut one = [7u32];
        assert_eq!(par_map_mut(4, &mut one, |_, x| *x + 1), vec![8]);
    }

    #[test]
    fn fixed_chunks_covers_range_exactly() {
        assert_eq!(fixed_chunks(0, 16), Vec::<(usize, usize)>::new());
        assert_eq!(fixed_chunks(5, 16), vec![(0, 5)]);
        assert_eq!(fixed_chunks(32, 16), vec![(0, 16), (16, 32)]);
        assert_eq!(fixed_chunks(33, 16), vec![(0, 16), (16, 32), (32, 33)]);
        // Boundaries depend only on (n, chunk) — asserted by construction,
        // but keep an explicit seam check for the contract.
        let ranges = fixed_chunks(103, 8);
        let mut covered = 0;
        for (lo, hi) in ranges {
            assert_eq!(lo, covered);
            assert!(hi > lo);
            covered = hi;
        }
        assert_eq!(covered, 103);
    }

    /// Telemetry recording from inside `par_map_indexed` workers: counter
    /// increments are commutative atomic adds and span stats fold under one
    /// registry lock, so 1-thread and 4-thread sweeps over the same items
    /// report identical counter totals and span counts.
    #[test]
    fn telemetry_totals_identical_across_widths() {
        use isop_telemetry::{Counter, Telemetry};
        let items: Vec<u64> = (0..113).collect();
        let reports: Vec<_> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let tele = Telemetry::enabled();
                let out = par_map_indexed(threads, &items, |_, &x| {
                    let _g = isop_telemetry::span!(tele, "exec.worker");
                    tele.incr(Counter::SurrogatePredict);
                    tele.add(Counter::SurrogatePredictBatchRows, x);
                    x * 2
                });
                assert_eq!(out.len(), items.len());
                tele.run_report()
            })
            .collect();
        let (serial, parallel) = (&reports[0], &reports[1]);
        assert_eq!(serial.counters, parallel.counters);
        assert_eq!(serial.counter("surrogate.predict"), 113);
        assert_eq!(
            serial.counter("surrogate.predict_batch_rows"),
            (0..113).sum::<u64>()
        );
        assert_eq!(serial.span("exec.worker").expect("span").count, 113);
        assert_eq!(parallel.span("exec.worker").expect("span").count, 113);
    }

    #[test]
    fn parallelism_knob_clamps_and_reads_env() {
        assert_eq!(Parallelism::new(0).threads, 1);
        assert_eq!(Parallelism::default().threads, 1);
        assert_eq!(Parallelism::serial().threads, 1);
        assert!(!Parallelism::serial().is_parallel());
        assert!(Parallelism::new(2).is_parallel());
        // from_env falls back to serial when THREADS is unset/garbage; the
        // suite does not set the variable, so only the fallback is asserted
        // (mutating the environment would race with other tests).
        assert!(Parallelism::from_env().threads >= 1);
    }

    #[test]
    fn core_budget_clamps_grants_to_availability() {
        let budget = CoreBudget::new(4);
        assert_eq!(budget.total(), 4);
        assert_eq!(budget.available(), 4);
        let l1 = budget.lease(3);
        assert_eq!(l1.threads(), 3);
        assert_eq!(budget.available(), 1);
        // More than remains: clamped to what is free, never blocking while
        // at least one permit is available.
        let l2 = budget.lease(5);
        assert_eq!(l2.threads(), 1);
        assert_eq!(budget.available(), 0);
        drop(l1);
        assert_eq!(budget.available(), 3);
        let l3 = budget.lease(16);
        assert_eq!(l3.threads(), 3);
        assert_eq!(l3.parallelism(), Parallelism::new(3));
        drop(l3);
        drop(l2);
        assert_eq!(budget.available(), 4);
        assert_eq!(budget.peak_outstanding(), 4);
        // Degenerate inputs clamp to one permit.
        assert_eq!(CoreBudget::new(0).total(), 1);
        assert_eq!(CoreBudget::new(2).lease(0).threads(), 1);
        assert!(CoreBudget::host().total() >= 1);
    }

    /// The executor-oversubscription regression test: 8 concurrent "jobs",
    /// each asking for 4 threads against a 3-permit budget, each running a
    /// nested `par_map_indexed` sized from its lease. The number of
    /// simultaneously *active workers* (observed from inside the closures)
    /// must never exceed the budget total — before the lease API, this
    /// workload would fan out up to 8 x 4 = 32 workers.
    #[test]
    fn leased_nested_parallelism_never_exceeds_the_core_budget() {
        let budget = CoreBudget::new(3);
        let active = AtomicUsize::new(0);
        let peak_active = AtomicUsize::new(0);
        let outputs: Vec<Vec<usize>> = {
            let jobs: Vec<usize> = (0..8).collect();
            // Run the jobs on dedicated threads (not through par_map, whose
            // width is what is under test) so all 8 contend for leases.
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|&job| {
                        let budget = budget.clone();
                        let active = &active;
                        let peak_active = &peak_active;
                        scope.spawn(move || {
                            let lease = budget.lease(4);
                            let items: Vec<usize> = (0..32).collect();
                            par_map_indexed(lease.threads(), &items, |i, &x| {
                                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                                peak_active.fetch_max(now, Ordering::SeqCst);
                                // Hold the slot long enough for overlap to be
                                // observable if the cap were broken.
                                std::hint::black_box((0..500).sum::<usize>());
                                active.fetch_sub(1, Ordering::SeqCst);
                                i + x + job
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        for (job, out) in outputs.iter().enumerate() {
            let expect: Vec<usize> = (0..32).map(|i| 2 * i + job).collect();
            assert_eq!(out, &expect, "job {job} result corrupted");
        }
        assert!(
            budget.peak_outstanding() <= budget.total(),
            "budget oversubscribed: {} permits outstanding of {}",
            budget.peak_outstanding(),
            budget.total()
        );
        assert!(
            peak_active.load(Ordering::SeqCst) <= budget.total(),
            "observed {} active workers over the {}-core budget",
            peak_active.load(Ordering::SeqCst),
            budget.total()
        );
        assert_eq!(budget.available(), budget.total(), "permits leaked");
    }

    /// Clamping a job's width to whatever its lease granted cannot change
    /// results: the primitives reassemble by index, so any width produces
    /// the serial output bit for bit.
    #[test]
    fn lease_width_does_not_change_results() {
        let items: Vec<u64> = (0..101).collect();
        let serial = par_map_indexed(1, &items, |i, &x| x * 31 + i as u64);
        let budget = CoreBudget::new(4);
        for want in [1, 2, 4, 16] {
            let lease = budget.lease(want);
            let leased = par_map_indexed(lease.threads(), &items, |i, &x| x * 31 + i as u64);
            assert_eq!(leased, serial, "want = {want}");
        }
    }

    #[test]
    fn run_control_reports_cancel_and_deadline() {
        let live = RunControl::none();
        assert_eq!(live.state(), ControlState::Live);
        assert!(!live.should_stop());

        let cancelled = RunControl::none();
        let clone = cancelled.clone();
        clone.cancel();
        assert_eq!(cancelled.state(), ControlState::Cancelled);
        assert!(cancelled.should_stop());

        let expired = RunControl::with_deadline(0.0);
        assert_eq!(expired.state(), ControlState::Expired);
        let generous = RunControl::with_deadline(3600.0);
        assert_eq!(generous.state(), ControlState::Live);
        // Cancellation wins over an elapsed deadline.
        expired.cancel();
        assert_eq!(expired.state(), ControlState::Cancelled);
        assert_eq!(RunControl::default().state(), ControlState::Live);
    }

    /// Regression: a deadline beyond what `Duration` (1e300 s) or
    /// `Instant` (1e19 s) can hold used to panic while arming; it now means
    /// no deadline, and re-arming clears an earlier one.
    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        for seconds in [1e300, 1e19, f64::INFINITY, f64::NAN] {
            assert_eq!(
                RunControl::with_deadline(seconds).state(),
                ControlState::Live
            );
        }
        let rearmed = RunControl::with_deadline(0.0);
        rearmed.arm_deadline(1e300);
        assert_eq!(rearmed.state(), ControlState::Live);
    }

    #[test]
    fn parallelism_deserializes_missing_as_default() {
        use serde::json::Value;
        use serde::Deserialize;
        assert_eq!(
            Parallelism::from_value(&Value::Null).unwrap(),
            Parallelism::default()
        );
        let v = Value::parse("{\"threads\": 4}").unwrap();
        assert_eq!(Parallelism::from_value(&v).unwrap().threads, 4);
    }
}
