//! Deterministic parallel execution — re-exported from the leaf crate
//! [`isop_exec`] so existing `isop::exec::*` paths (and the prelude's
//! `Parallelism`) keep working after the executor moved out of core.
//!
//! The move lets `isop-ml`'s data-parallel training engine share the exact
//! executor the pipeline uses without a core -> ml -> core cycle. See
//! `crates/exec/src/lib.rs` for the determinism contract.

pub use isop_exec::{
    fixed_chunks, par_map_indexed, par_map_mut, ControlState, CoreBudget, CoreLease, Parallelism,
    RunControl,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The shim must hand back the same types the rest of core links
    /// against: `IsopConfig.parallelism` and `isop-ml`'s `TrainContext`
    /// share one `Parallelism`, so a knob built here drives training too.
    #[test]
    fn reexported_executor_is_the_shared_one() {
        let knob = Parallelism::new(3);
        let ctx = isop_ml::train::TrainContext::new(knob);
        assert_eq!(ctx.parallelism, knob);
        let out = par_map_indexed(knob.threads, &[1u32, 2, 3], |i, &x| x as usize + i);
        assert_eq!(out, vec![1, 3, 5]);
    }
}
