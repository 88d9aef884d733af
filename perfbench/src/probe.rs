//! Benchmark-side instrumentation: timing decorators over the program's
//! public `Surrogate` and `EmSimulator` traits, and CPU clocks. Nothing here
//! reaches inside the program; every number is taken at a public call
//! boundary or read from the telemetry the program already exports.

use isop::surrogate::Surrogate;
use isop_em::fault::SimError;
use isop_em::simulator::{EmSimulator, SimulationResult};
use isop_em::stackup::DiffStripline;
use isop_ml::linalg::Matrix;
use isop_ml::MlError;
use isop_telemetry::{Counter, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn add_since(slot: &AtomicU64, t0: Instant) -> u64 {
    let ns = t0.elapsed().as_nanos() as u64;
    slot.fetch_add(ns, Ordering::Relaxed);
    ns
}

fn secs(slot: &AtomicU64) -> f64 {
    slot.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Call counts and busy time of one surrogate, split so that the share
/// spent inside Harmonica's sampling loop can be subtracted from the
/// `harmonica.sample` span.
#[derive(Default)]
pub struct SurrogateStats {
    predict_calls: AtomicU64,
    predict_rows: AtomicU64,
    predict_ns: AtomicU64,
    jacobian_calls: AtomicU64,
    jacobian_ns: AtomicU64,
    /// Time of calls made through the pipeline's prediction memo, which
    /// only Harmonica's serial sampling loop uses.
    sampling_ns: AtomicU64,
    memo_misses_seen: AtomicU64,
}

impl SurrogateStats {
    pub fn predict_calls(&self) -> f64 {
        self.predict_calls.load(Ordering::Relaxed) as f64
    }
    pub fn predict_rows(&self) -> f64 {
        self.predict_rows.load(Ordering::Relaxed) as f64
    }
    pub fn predict_s(&self) -> f64 {
        secs(&self.predict_ns)
    }
    pub fn jacobian_calls(&self) -> f64 {
        self.jacobian_calls.load(Ordering::Relaxed) as f64
    }
    pub fn jacobian_s(&self) -> f64 {
        secs(&self.jacobian_ns)
    }
    pub fn sampling_s(&self) -> f64 {
        secs(&self.sampling_ns)
    }
}

/// Times every call into the wrapped surrogate.
///
/// The pipeline routes Harmonica's sampling loop through a prediction memo
/// that ticks `surrogate.memo_misses` on the job's telemetry right before it
/// calls the surrogate underneath; a call that finds that counter advanced
/// is therefore a sampling-loop call.
pub struct TimedSurrogate<'a> {
    inner: &'a dyn Surrogate,
    stats: &'a SurrogateStats,
    telemetry: Telemetry,
}

impl<'a> TimedSurrogate<'a> {
    pub fn new(inner: &'a dyn Surrogate, stats: &'a SurrogateStats, telemetry: Telemetry) -> Self {
        Self {
            inner,
            stats,
            telemetry,
        }
    }

    fn called_by_sampling_loop(&self) -> bool {
        let misses = self.telemetry.counter(Counter::SurrogateMemoMisses);
        self.stats.memo_misses_seen.swap(misses, Ordering::Relaxed) != misses
    }
}

impl Surrogate for TimedSurrogate<'_> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let sampling = self.called_by_sampling_loop();
        let t0 = Instant::now();
        let out = self.inner.predict(x);
        let ns = add_since(&self.stats.predict_ns, t0);
        if sampling {
            self.stats.sampling_ns.fetch_add(ns, Ordering::Relaxed);
        }
        self.stats.predict_calls.fetch_add(1, Ordering::Relaxed);
        self.stats.predict_rows.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        let t0 = Instant::now();
        let out = self.inner.jacobian(x);
        add_since(&self.stats.jacobian_ns, t0);
        self.stats.jacobian_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        let t0 = Instant::now();
        let out = self.inner.predict_batch(xs);
        add_since(&self.stats.predict_ns, t0);
        self.stats.predict_calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .predict_rows
            .fetch_add(xs.len() as u64, Ordering::Relaxed);
        out
    }

    fn jacobian_batch(&self, xs: &[Vec<f64>]) -> Vec<Option<Result<Matrix, MlError>>> {
        let t0 = Instant::now();
        let out = self.inner.jacobian_batch(xs);
        add_since(&self.stats.jacobian_ns, t0);
        self.stats.jacobian_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Times every call into the wrapped EM simulator.
pub struct TimedSimulator<S> {
    inner: S,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl<S: EmSimulator> TimedSimulator<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }
    pub fn calls(&self) -> f64 {
        self.calls.load(Ordering::Relaxed) as f64
    }
    pub fn seconds(&self) -> f64 {
        secs(&self.ns)
    }
}

impl<S: EmSimulator> EmSimulator for TimedSimulator<S> {
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        let t0 = Instant::now();
        let out = self.inner.simulate(layer);
        add_since(&self.ns, t0);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn nominal_seconds(&self) -> f64 {
        self.inner.nominal_seconds()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock ids are the Linux process/thread CPU clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_cpu_s() -> f64 {
    cpu_clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(3) // CLOCK_THREAD_CPUTIME_ID
}
