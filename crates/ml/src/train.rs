//! Training-time execution context for the model zoo's data-parallel
//! engine.
//!
//! Models never store a thread count (their serialized form stays exactly
//! what it was); instead every `fit` path accepts a [`TrainContext`]
//! carrying the [`Parallelism`] knob and an optional telemetry handle.
//! [`crate::Regressor::fit`] delegates to
//! [`crate::Regressor::fit_with`] with the serial default, so existing
//! call sites keep their behavior.
//!
//! Determinism contract (shared with `isop-exec`): for every model,
//! `threads = 1` is bit-identical to `threads = N`. The engine guarantees
//! this by (a) drawing **all** random numbers serially before a parallel
//! section (bootstrap indices, per-tree split seeds, dropout masks),
//! (b) chunking work on fixed boundaries that depend only on the data
//! size ([`isop_exec::fixed_chunks`]), and (c) reducing floating-point
//! partials in input order.

use isop_exec::Parallelism;
use isop_telemetry::Telemetry;

/// Rows per gradient chunk for MLP minibatch backprop. Fixed — never a
/// function of the thread count — so chunked gradient reductions associate
/// identically at any parallelism width. 16 rows also keeps the chunk on
/// the batched `matmul` fast path.
pub const MLP_CHUNK_ROWS: usize = 16;

/// Rows per gradient chunk for 1D-CNN minibatch backprop. Fixed like
/// [`MLP_CHUNK_ROWS`]: each chunk sums its own gradient partial, so this
/// value is part of every fitted CNN's bits. A chunk runs forward and
/// backward batch-major (`[feature][row]`) through one worker's
/// workspace, which is sized for this many rows; a worker runs its
/// consecutive chunks one after another.
pub const CNN_CHUNK_ROWS: usize = 8;

/// Rows per in-place update chunk for boosting's residual fill and
/// per-stage prediction update. Large, because the per-row work is tiny
/// and a stage dispatches two updates — the chunk has to amortize spawn
/// latency. Fixed, so boosted models are bit-identical at any width.
pub const BOOST_ROW_CHUNK: usize = 512;

/// Minimum `rows * features` work for a tree-split scan to fan the
/// per-feature sweep out to workers; smaller nodes stay inline (spawn
/// latency would dominate). Purely size-based, so the parallel/serial
/// choice is identical at every thread count.
pub const SPLIT_SCAN_MIN_WORK: usize = 1 << 14;

/// Execution context handed to [`crate::Regressor::fit_with`]: how many
/// worker threads training may use, and where to record `ml.fit.*` spans
/// and `train.chunks` counters.
#[derive(Debug, Clone, Default)]
pub struct TrainContext {
    /// Worker-thread knob for the data-parallel sections of `fit`.
    pub parallelism: Parallelism,
    /// Telemetry sink for training spans/counters (disabled by default).
    pub telemetry: Telemetry,
}

impl TrainContext {
    /// A context training on `parallelism` with telemetry disabled.
    #[must_use]
    pub fn new(parallelism: Parallelism) -> Self {
        Self {
            parallelism,
            telemetry: Telemetry::default(),
        }
    }

    /// A fully serial context with telemetry disabled — what bare
    /// [`crate::Regressor::fit`] uses.
    #[must_use]
    pub fn serial() -> Self {
        Self::default()
    }

    /// Replaces the telemetry sink, keeping the thread knob.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_serial_and_disabled() {
        let ctx = TrainContext::default();
        assert_eq!(ctx.parallelism.threads, 1);
        assert!(!ctx.telemetry.is_enabled());
        assert_eq!(TrainContext::serial().parallelism.threads, 1);
    }
}
