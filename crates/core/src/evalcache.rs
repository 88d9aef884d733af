//! Deterministic evaluation caches for the expensive halves of the pipeline.
//!
//! ISOP's premise is that accurate EM simulation is the scarce resource; yet
//! the pipeline keeps re-evaluating *identical discrete designs* — roll-out
//! rounds every refined candidate back onto the manufacturing grid, repeated
//! trials revisit the same optima, and the ablation variants of one task all
//! converge on the same handful of grid points. Two caches remove the
//! duplicate work without changing a single bit of any outcome:
//!
//! * [`EvalCache`] — a thread-safe EM-result cache keyed by [`DesignKey`],
//!   the **canonical discrete grid indices** of a design (never raw floats:
//!   two values a rounding error apart would silently be distinct keys,
//!   while two grids can produce bit-different floats for the same level).
//!   Hits replay the exact stored [`SimulationResult`] (and the attempt
//!   count of the original evaluation, via [`CachedSim`]), tick the same
//!   simulator counters a real run would, and move the batch wall-clock into
//!   the *seconds-saved* ledger instead of the charged one. Only **final
//!   successes** are cached; a hit bypasses the fault-tolerant retry path
//!   entirely, so retry counters never replay. The persistent sharded
//!   [`Store`] is the only on-disk form of the cache; [`export_json`] and
//!   [`import_json`] move a store's evaluations to and from the
//!   schema-versioned JSON exchange file of `isop cache export|import`.
//! * [`SurrogateMemo`] + [`MemoizedSurrogate`] — a sibling memo for repeated
//!   designs across Harmonica's per-stage batches. It stores the
//!   surrogate's *metrics* (`[Z, L, NEXT]`), never the weighted objective
//!   `g_hat`, so adaptive weight updates between stages stay exact.
//!
//! Both caches are **seed-independent** (keys never involve RNG state) and
//! purely eliding: a lookup either returns the bit-exact value the
//! computation would produce or falls through to the computation. A
//! *disabled* cache still counts every probe as a miss — that is what lets
//! the CI bench gate fail when the cache is turned off (miss count over
//! budget) rather than silently passing with zeroed counters.

use crate::params::ParamSpace;
use crate::surrogate::{MetricsAndGrad, Surrogate};
use isop_em::simulator::SimulationResult;
use isop_ml::linalg::Matrix;
use isop_ml::MlError;
use isop_store::{EvalIndex, EvalRecord, Store, StoredEval};
use isop_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The canonical identity of a discrete design: one grid level per
/// parameter plus a fingerprint of the space that defined the grid.
///
/// Keys are grid *indices*, not floats — `level_of` collapses every
/// float that rounds to the same grid point onto one key, and the space
/// fingerprint keeps level `3` of `S1` distinct from level `3` of `S2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignKey {
    /// Fingerprint of the defining [`ParamSpace`] (FNV-1a over every
    /// parameter's name and grid, masked to 48 bits so it survives a
    /// JSON round-trip through an `f64` mantissa).
    pub space_id: u64,
    /// Grid level of each parameter, in space order.
    pub levels: Vec<u32>,
}

/// Fingerprints a space: FNV-1a over each parameter's name bytes and the
/// bit patterns of its `lo`/`hi`/`step`.
fn space_fingerprint(space: &ParamSpace) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for p in space.params() {
        for b in p.name.bytes() {
            eat(b);
        }
        for v in [p.lo, p.hi, p.step] {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        eat(0xFF); // parameter separator
    }
    h & ((1u64 << 48) - 1)
}

/// A cached accurate simulation: the final successful result plus the
/// attempt count the fresh run needed to obtain it.
///
/// Only **final successes** ever enter the cache — transiently failed
/// attempts are never stored, and a hit bypasses the retry path entirely
/// (no retry counters tick). The stored `attempts` exist so a warm run
/// can replay the candidate's attempt count bit-exactly and produce
/// candidates identical to the cold run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachedSim {
    /// The successful simulation.
    pub result: SimulationResult,
    /// Attempts the original (uncached) evaluation took, including the
    /// final successful one.
    pub attempts: u32,
}

/// Outcome of one [`EvalCache::probe`]: the design's key (when it sits on
/// the grid) and the cached result, if any.
#[derive(Debug, Clone)]
pub struct CacheProbe {
    /// Canonical key, `None` when any coordinate falls off the grid span
    /// (such designs are never cached — the simulator rejects them anyway).
    pub key: Option<DesignKey>,
    /// The stored simulation, present only on a hit.
    pub hit: Option<CachedSim>,
}

/// One record of the JSON exchange file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ExchangeEntry {
    space_id: u64,
    levels: Vec<u32>,
    result: SimulationResult,
    attempts: u32,
}

/// On-disk shape of the `isop cache export|import` exchange file.
#[derive(Debug, Serialize, Deserialize)]
struct ExchangeFile {
    schema_version: u32,
    entries: Vec<ExchangeEntry>,
}

/// v2: entries carry the attempt count of the original evaluation.
const EXCHANGE_SCHEMA_VERSION: u32 = 2;

/// Writes every evaluation `store` holds (the latest record per design) to
/// `path` as the schema-versioned JSON exchange file, sorted by
/// `(space_id, levels)` so equal stores export equal bytes. The write is
/// atomic — a temp file in the target directory is renamed into place —
/// and creates parent directories as needed. Returns the records written.
///
/// # Errors
///
/// Propagates store read and filesystem errors.
pub fn export_json(store: &Store, path: &Path) -> io::Result<usize> {
    let mut entries: Vec<ExchangeEntry> = store
        .load_all_evals()?
        .into_iter()
        .map(|r| {
            let [z_diff, insertion_loss, next] = r.metrics;
            ExchangeEntry {
                space_id: r.space_id,
                levels: r.levels,
                result: SimulationResult {
                    z_diff,
                    insertion_loss,
                    next,
                },
                attempts: r.attempts,
            }
        })
        .collect();
    entries.sort_by(|a, b| (a.space_id, &a.levels).cmp(&(b.space_id, &b.levels)));
    let n = entries.len();
    let file = ExchangeFile {
        schema_version: EXCHANGE_SCHEMA_VERSION,
        entries,
    };
    let json = serde_json::to_string(&file).map_err(|e| io::Error::other(format!("{e:?}")))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("em_cache.json");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)?;
    Ok(n)
}

/// Appends every record of an exchange file written by [`export_json`] to
/// `store` and flushes it, returning how many records were imported. A
/// missing file imports zero records (not an error).
///
/// # Errors
///
/// Returns an error on unreadable or malformed JSON, on a schema version
/// other than the current one, or when the flush fails.
pub fn import_json(store: &Store, path: &Path) -> io::Result<usize> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let file: ExchangeFile = serde_json::from_str(&text)
        .map_err(|e| io::Error::other(format!("{}: {e:?}", path.display())))?;
    if file.schema_version != EXCHANGE_SCHEMA_VERSION {
        return Err(io::Error::other(format!(
            "exchange schema v{} != supported v{EXCHANGE_SCHEMA_VERSION}",
            file.schema_version
        )));
    }
    for e in &file.entries {
        store.append_eval(&EvalRecord {
            space_id: e.space_id,
            levels: e.levels.clone(),
            metrics: e.result.to_array(),
            attempts: e.attempts,
        });
    }
    store.flush()?;
    Ok(file.entries.len())
}

/// What an enabled [`EvalCache`] holds, behind one lock.
#[derive(Debug, Default)]
struct CacheState {
    /// Entries this process inserted. They shadow the store snapshots.
    local: HashMap<DesignKey, CachedSim>,
    /// Per-space snapshots of the store's eval index, taken at hydration;
    /// a present key means the space is hydrated. Hits on them were
    /// written by a previous job or process — the cross-job reuse the
    /// store accounts for.
    stored: HashMap<u64, Arc<EvalIndex>>,
}

impl CacheState {
    /// The entry for `key`, and whether it came from a store snapshot.
    fn get(&self, key: &DesignKey) -> Option<(CachedSim, bool)> {
        if let Some(sim) = self.local.get(key) {
            return Some((*sim, false));
        }
        let stored = self.stored.get(&key.space_id)?.get(&key.levels)?;
        Some((cached_from_store(stored), true))
    }
}

fn cached_from_store(stored: StoredEval) -> CachedSim {
    let [z_diff, insertion_loss, next] = stored.metrics;
    CachedSim {
        result: SimulationResult {
            z_diff,
            insertion_loss,
            next,
        },
        attempts: stored.attempts,
    }
}

/// Shared state behind an enabled [`EvalCache`] handle.
#[derive(Debug)]
struct CacheInner {
    state: Mutex<CacheState>,
    /// The persistent backing store, when attached.
    store: Option<Arc<Store>>,
}

/// A thread-safe, seed-independent cache of accurate EM results keyed by
/// [`DesignKey`]. Clones share one store; the default/`disabled` handle
/// stores nothing and reports every probe as a miss.
///
/// With a persistent [`Store`] attached ([`EvalCache::with_store`]), the
/// first probe of a space hydrates it: the cache takes an `Arc` snapshot of
/// the store's decoded index for that space instead of copying its
/// records. Hits served from the snapshot are reported to the store's
/// cross-job ledger, and inserts layer over it while also going to the
/// store's append buffer (persisted by [`EvalCache::persist`]).
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    inner: Option<Arc<CacheInner>>,
}

impl EvalCache {
    /// An empty, collecting cache.
    #[must_use]
    pub fn new() -> Self {
        Self::with_backing(None)
    }

    /// An empty cache backed by the persistent `store`: probes hydrate
    /// per-space from its shards and inserts append to it.
    #[must_use]
    pub fn with_store(store: Arc<Store>) -> Self {
        Self::with_backing(Some(store))
    }

    fn with_backing(store: Option<Arc<Store>>) -> Self {
        Self {
            inner: Some(Arc::new(CacheInner {
                state: Mutex::new(CacheState::default()),
                store,
            })),
        }
    }

    /// A pass-through handle: never stores, never hits, counts every probe
    /// as a miss (same as `EvalCache::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle can store and serve results.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.inner.as_ref().and_then(|i| i.store.as_ref())
    }

    /// Number of cached designs: hydrated store entries plus local ones
    /// they do not already hold.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            let state = i.state.lock().expect("eval cache lock");
            let stored: usize = state.stored.values().map(|index| index.len()).sum();
            let shadowing = state
                .local
                .keys()
                .filter(|k| {
                    state
                        .stored
                        .get(&k.space_id)
                        .is_some_and(|index| index.get(&k.levels).is_some())
                })
                .count();
            stored + state.local.len() - shadowing
        })
    }

    /// `true` when nothing is cached (always for a disabled handle).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical key for `values` in `space`, or `None` when any
    /// coordinate falls outside its grid span.
    #[must_use]
    pub fn key_for(space: &ParamSpace, values: &[f64]) -> Option<DesignKey> {
        if values.len() != space.params().len() {
            return None;
        }
        let mut levels = Vec::with_capacity(values.len());
        for (p, &v) in space.params().iter().zip(values) {
            levels.push(u32::try_from(p.level_of(v).ok()?).ok()?);
        }
        Some(DesignKey {
            space_id: space_fingerprint(space),
            levels,
        })
    }

    /// Takes the store's snapshot of `space_id` unless this cache already
    /// holds one — at most one per space per cache, so the view never
    /// changes once taken. Store read errors degrade to an empty snapshot:
    /// corruption is already skip-counted inside the store.
    fn hydrate(inner: &CacheInner, state: &mut CacheState, space_id: u64) {
        let Some(store) = &inner.store else { return };
        state
            .stored
            .entry(space_id)
            .or_insert_with(|| store.eval_index(space_id).unwrap_or_default());
    }

    /// Hydrates `space` now, exactly as its first probe would: an `Arc`
    /// snapshot of the store's decoded index for the space (O(1) once the
    /// shard is loaded), with no per-cache copy of the records. No-op
    /// without a store, and at most one snapshot per space per cache
    /// either way.
    ///
    /// This is the multi-job engine's determinism hook. Called at the
    /// engine's **serial admission point**, it freezes the job's view of
    /// the store before any neighbor runs: records a neighbor appends and
    /// flushes later go into the store's index, never into a snapshot
    /// already taken, and the job's own inserts layer over its snapshot.
    pub fn hydrate_space(&self, space: &ParamSpace) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().expect("eval cache lock");
            Self::hydrate(inner, &mut state, space_fingerprint(space));
        }
    }

    /// Looks up `values` and ticks `em.cache.hits` / `em.cache.misses` on
    /// `telemetry`. Off-grid designs and every probe of a disabled cache
    /// count as misses. With a store attached, the probed space is
    /// hydrated first, and a hit served from the store snapshot rather
    /// than this cache's own inserts is additionally reported to the
    /// store's cross-job ledger.
    #[must_use]
    pub fn probe(&self, space: &ParamSpace, values: &[f64], telemetry: &Telemetry) -> CacheProbe {
        let key = Self::key_for(space, values);
        let hit = match (&self.inner, &key) {
            (Some(inner), Some(k)) => {
                let mut state = inner.state.lock().expect("eval cache lock");
                Self::hydrate(inner, &mut state, k.space_id);
                let hit = state.get(k);
                drop(state);
                if let Some((_, true)) = hit {
                    if let Some(store) = &inner.store {
                        store.note_cross_job_hit();
                    }
                }
                hit.map(|(sim, _)| sim)
            }
            _ => None,
        };
        if hit.is_some() {
            telemetry.incr(Counter::EmCacheHits);
        } else {
            telemetry.incr(Counter::EmCacheMisses);
        }
        CacheProbe { key, hit }
    }

    /// Stores a fresh accurate result under `key`, shadowing any store
    /// snapshot entry for it. Only final successes reach this point —
    /// callers never cache failed attempts. No-op when disabled. With a
    /// store attached, also buffers the record for the store's next flush.
    pub fn insert(&self, key: DesignKey, sim: CachedSim) {
        if let Some(inner) = &self.inner {
            if let Some(store) = &inner.store {
                store.append_eval(&EvalRecord {
                    space_id: key.space_id,
                    levels: key.levels.clone(),
                    metrics: sim.result.to_array(),
                    attempts: sim.attempts,
                });
            }
            inner
                .state
                .lock()
                .expect("eval cache lock")
                .local
                .insert(key, sim);
        }
    }

    /// Flushes buffered store appends (and the cross-job hit tally) to
    /// disk. No-op without an attached store.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&self) -> io::Result<()> {
        if let Some(store) = self.store() {
            store.flush()?;
        }
        Ok(())
    }
}

/// Memo store: design-vector bit patterns -> predicted `(Z, IL, NEXT)`.
type MemoStore = HashMap<Vec<u64>, [f64; 3]>;

/// A thread-safe memo of surrogate *metric* predictions keyed by the exact
/// bit patterns of the design vector. Clones share one store; the
/// default/`disabled` handle counts every probe as a miss.
///
/// Only successful predictions are stored — errors re-run so their counter
/// footprint stays identical with the memo on or off.
#[derive(Debug, Clone, Default)]
pub struct SurrogateMemo {
    inner: Option<Arc<Mutex<MemoStore>>>,
}

impl SurrogateMemo {
    /// An empty, collecting memo.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(HashMap::new()))),
        }
    }

    /// A pass-through handle (same as `SurrogateMemo::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle can store and serve predictions.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of memoized designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |m| m.lock().expect("surrogate memo lock").len())
    }

    /// `true` when nothing is memoized (always for a disabled handle).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn key(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn get(&self, key: &[u64]) -> Option<[f64; 3]> {
        self.inner
            .as_ref()
            .and_then(|m| m.lock().expect("surrogate memo lock").get(key).copied())
    }

    fn put(&self, key: Vec<u64>, metrics: [f64; 3]) {
        if let Some(m) = &self.inner {
            m.lock().expect("surrogate memo lock").insert(key, metrics);
        }
    }
}

/// A memoizing decorator over any [`Surrogate`]: `predict` and
/// `predict_batch` consult the [`SurrogateMemo`] before the wrapped model,
/// ticking `surrogate.memo_hits` / `surrogate.memo_misses`; every other
/// method, `value_and_grad` included, forwards untouched.
///
/// Layer it *inside* the counting wrapper
/// ([`InstrumentedSurrogate`](crate::surrogate::InstrumentedSurrogate)) so
/// `surrogate.predict` totals stay identical with the memo on or off — the
/// memo elides the model's arithmetic, not the logical call.
///
/// The pipeline consults the memo only from Harmonica's **serial**
/// per-stage batches: a concurrent miss-then-insert race on one key would make
/// hit/miss totals depend on thread interleaving, which would break the
/// bit-identical-counters contract the bench gate diffs on.
pub struct MemoizedSurrogate<'a> {
    inner: &'a dyn Surrogate,
    memo: SurrogateMemo,
    telemetry: Telemetry,
}

impl<'a> MemoizedSurrogate<'a> {
    /// Wraps `inner`, serving repeated `predict` calls from `memo`.
    pub fn new(inner: &'a dyn Surrogate, memo: SurrogateMemo, telemetry: Telemetry) -> Self {
        Self {
            inner,
            memo,
            telemetry,
        }
    }
}

impl Surrogate for MemoizedSurrogate<'_> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let key = SurrogateMemo::key(x);
        if let Some(metrics) = self.memo.get(&key) {
            self.telemetry.incr(Counter::SurrogateMemoHits);
            return Ok(metrics);
        }
        self.telemetry.incr(Counter::SurrogateMemoMisses);
        let out = self.inner.predict(x);
        if let Ok(metrics) = out {
            self.memo.put(key, metrics);
        }
        out
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        self.inner.jacobian(x)
    }

    /// Consults the memo row by row, in order, with the hit/miss totals of
    /// a loop of [`Surrogate::predict`] calls: a row already memoized, or
    /// equal to an earlier miss of the same batch, is a hit; any other row
    /// is a miss. The misses go to the wrapped model in one `predict_batch`
    /// call. A disabled memo serves nothing, so every row is a miss. A
    /// repeat of a miss the model failed on counts as a miss and gets the
    /// same error, as the serial loop's second call would.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        let mut out: Vec<Option<Result<[f64; 3], MlError>>> = vec![None; xs.len()];
        // Each miss's row and key; each in-batch repeat's row and the
        // index of its miss.
        let mut misses: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut first_miss: HashMap<Vec<u64>, usize> = HashMap::new();
        for (i, x) in xs.iter().enumerate() {
            let key = SurrogateMemo::key(x);
            if let Some(metrics) = self.memo.get(&key) {
                out[i] = Some(Ok(metrics));
            } else if let Some(&m) = first_miss.get(&key) {
                repeats.push((i, m));
            } else {
                if self.memo.is_enabled() {
                    first_miss.insert(key.clone(), misses.len());
                }
                misses.push((i, key));
            }
        }
        let predicted = if misses.len() == xs.len() {
            self.inner.predict_batch(xs)
        } else {
            let rows: Vec<Vec<f64>> = misses.iter().map(|(i, _)| xs[*i].clone()).collect();
            self.inner.predict_batch(&rows)
        };
        let n_misses = misses.len() as u64;
        for ((i, key), result) in misses.into_iter().zip(&predicted) {
            if let Ok(metrics) = result {
                self.memo.put(key, *metrics);
            }
            out[i] = Some(result.clone());
        }
        let mut failed = 0u64;
        for (i, m) in repeats {
            failed += u64::from(predicted[m].is_err());
            out[i] = Some(predicted[m].clone());
        }
        let served = xs.len() as u64 - n_misses - failed;
        self.telemetry.add(Counter::SurrogateMemoHits, served);
        self.telemetry
            .add(Counter::SurrogateMemoMisses, n_misses + failed);
        out.into_iter()
            .map(|r| r.expect("every row is served"))
            .collect()
    }

    fn jacobian_batch(&self, xs: &[Vec<f64>]) -> Vec<Option<Result<Matrix, MlError>>> {
        self.inner.jacobian_batch(xs)
    }

    /// Forwarded to the wrapped model; never served from or stored in the
    /// memo, because the gradient stage calls it from parallel workers.
    fn value_and_grad(
        &self,
        x: &[f64],
        dg_dm: &dyn Fn(&[f64; 3]) -> [f64; 3],
    ) -> Option<Result<MetricsAndGrad, MlError>> {
        self.inner.value_and_grad(x, dg_dm)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::{s1, s2};
    use crate::surrogate::OracleSurrogate;
    use isop_em::simulator::{AnalyticalSolver, EmSimulator};
    use isop_em::stackup::DiffStripline;

    fn grid_design(space: &ParamSpace) -> Vec<f64> {
        space.round_to_grid(&crate::manual::MANUAL_VECTOR)
    }

    fn simulate(x: &[f64]) -> CachedSim {
        CachedSim {
            result: AnalyticalSolver::new()
                .simulate(&DiffStripline::from_vector(x).expect("valid"))
                .expect("simulates"),
            attempts: 1,
        }
    }

    #[test]
    fn key_uses_grid_indices_not_floats() {
        let space = s1();
        // Start from the low corner so stepping up stays on the grid.
        let x: Vec<f64> = space.params().iter().map(|p| p.lo).collect();
        let key = EvalCache::key_for(&space, &x).expect("on grid");
        assert!(key.levels.iter().all(|&l| l == 0));
        // Perturbations below half a grid step collapse onto the same key.
        let mut wobbled = x.clone();
        wobbled[0] += space.params()[0].step * 0.25;
        assert_eq!(EvalCache::key_for(&space, &wobbled), Some(key.clone()));
        // A full step moves exactly one level.
        let mut stepped = x.clone();
        stepped[0] += space.params()[0].step;
        let other = EvalCache::key_for(&space, &stepped).expect("on grid");
        assert_eq!(other.levels[0], key.levels[0] + 1);
        assert_eq!(&other.levels[1..], &key.levels[1..]);
    }

    #[test]
    fn keys_distinguish_spaces_with_identical_levels() {
        let (a, b) = (s1(), s2());
        let xa = grid_design(&a);
        let ka = EvalCache::key_for(&a, &xa).expect("on grid");
        let kb = EvalCache::key_for(&b, &b.round_to_grid(&xa)).expect("on grid");
        assert_ne!(ka.space_id, kb.space_id, "space fingerprints must differ");
    }

    #[test]
    fn off_grid_design_has_no_key() {
        let space = s1();
        let mut x = grid_design(&space);
        x[0] = space.params()[0].hi + 10.0 * space.params()[0].step;
        assert!(EvalCache::key_for(&space, &x).is_none());
        assert!(EvalCache::key_for(&space, &x[..3]).is_none(), "bad width");
    }

    #[test]
    fn probe_hits_after_insert_and_counts_both_ways() {
        let space = s1();
        let x = grid_design(&space);
        let cache = EvalCache::new();
        let tele = Telemetry::enabled();

        let miss = cache.probe(&space, &x, &tele);
        assert!(miss.hit.is_none());
        cache.insert(miss.key.expect("on grid"), simulate(&x));
        let hit = cache.probe(&space, &x, &tele);
        assert_eq!(hit.hit.expect("cached"), simulate(&x));
        assert_eq!(tele.counter(Counter::EmCacheHits), 1);
        assert_eq!(tele.counter(Counter::EmCacheMisses), 1);
        assert_eq!(cache.len(), 1);

        // Clones share the store.
        assert_eq!(cache.clone().probe(&space, &x, &tele).hit, hit.hit);
    }

    #[test]
    fn disabled_cache_counts_every_probe_as_miss() {
        let space = s1();
        let x = grid_design(&space);
        let cache = EvalCache::disabled();
        let tele = Telemetry::enabled();
        let probe = cache.probe(&space, &x, &tele);
        cache.insert(probe.key.expect("keys still form"), simulate(&x));
        assert!(cache.probe(&space, &x, &tele).hit.is_none());
        assert_eq!(tele.counter(Counter::EmCacheHits), 0);
        assert_eq!(tele.counter(Counter::EmCacheMisses), 2);
        assert!(!cache.is_enabled());
        assert!(cache.is_empty());
    }

    /// A stored evaluation with exact metric bits.
    fn record(space_id: u64, levels: Vec<u32>, metrics: [f64; 3], attempts: u32) -> EvalRecord {
        EvalRecord {
            space_id,
            levels,
            metrics,
            attempts,
        }
    }

    /// `isop cache export|import` round trip: attempt counts and the exact
    /// metric bits (`-0.0` and a subnormal included) survive, the file is
    /// sorted by `(space_id, levels)` whatever the shard and insertion
    /// order, an imported retried design replays its attempt count through
    /// the cache, and import-then-export reproduces the file byte for byte.
    #[test]
    fn export_import_round_trips_records_bit_exactly() {
        let space = s1();
        let x = grid_design(&space);
        let key = EvalCache::key_for(&space, &x).expect("on grid");
        let retried = CachedSim {
            attempts: 3,
            ..simulate(&x)
        };
        let root = std::env::temp_dir().join(format!("isop-ec-exchange-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let written = vec![
            record(0x5105, vec![2, 0, 1], [-0.0, 0.1 + 0.2, 5e-324], 3),
            record(
                key.space_id,
                key.levels.clone(),
                retried.result.to_array(),
                3,
            ),
            record(7, vec![1, 9], [85.0, -0.41, -40.25], 1),
            record(0x5105, vec![1, 4, 4], [1e300, -1e-300, 0.0], 2),
            record(7, vec![0, 11], [90.5, -0.5, f64::MIN_POSITIVE], 1),
        ];
        let source = Store::open(&root.join("source")).expect("opens");
        for r in &written {
            source.append_eval(r);
        }
        source.flush().expect("flushes");
        let exported = root.join("out").join("em_cache.json");
        assert_eq!(export_json(&source, &exported).expect("exports"), 5);

        let file: ExchangeFile =
            serde_json::from_str(&std::fs::read_to_string(&exported).expect("reads"))
                .expect("parses");
        assert_eq!(file.schema_version, EXCHANGE_SCHEMA_VERSION);
        let order: Vec<(u64, Vec<u32>)> = file
            .entries
            .iter()
            .map(|e| (e.space_id, e.levels.clone()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "entries sorted by (space_id, levels)");

        let target = Arc::new(Store::open(&root.join("target")).expect("opens"));
        assert_eq!(import_json(&target, &exported).expect("imports"), 5);
        let bits = |r: &EvalRecord| {
            (
                r.space_id,
                r.levels.clone(),
                r.metrics.map(f64::to_bits),
                r.attempts,
            )
        };
        let mut want: Vec<_> = written.iter().map(bits).collect();
        want.sort();
        let mut got: Vec<_> = target
            .load_all_evals()
            .expect("loads")
            .iter()
            .map(bits)
            .collect();
        got.sort();
        assert_eq!(got, want, "attempts and metric bits survive the file");
        let probe =
            EvalCache::with_store(Arc::clone(&target)).probe(&space, &x, &Telemetry::disabled());
        assert_eq!(probe.hit, Some(retried), "warm runs replay the attempts");

        let again = root.join("again.json");
        export_json(&target, &again).expect("exports");
        assert_eq!(
            std::fs::read(&again).expect("reads"),
            std::fs::read(&exported).expect("reads"),
            "import then export is byte-identical"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn import_rejects_other_schemas_and_skips_missing_files() {
        let root = std::env::temp_dir().join(format!("isop-ec-schema-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = Store::open(&root.join("store")).expect("opens");
        // Missing files are an empty import, not an error.
        assert_eq!(
            import_json(&store, &root.join("absent.json")).expect("ok"),
            0
        );
        // A v1 header over entries that would otherwise parse: the version
        // check alone must refuse it.
        let v1 = root.join("v1.json");
        std::fs::write(
            &v1,
            r#"{"schema_version":1,"entries":[{"space_id":7,"levels":[1],"result":{"z_diff":85.0,"insertion_loss":-0.4,"next":-40.0},"attempts":1}]}"#,
        )
        .expect("writes");
        let err = import_json(&store, &v1).expect_err("schema v1 is rejected");
        assert!(err.to_string().contains("schema"), "{err}");
        assert!(store.load_all_evals().expect("loads").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn store_backed_cache_hydrates_and_counts_cross_job_hits() {
        let space = s1();
        let x = grid_design(&space);
        let dir = std::env::temp_dir().join(format!("isop-ec-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tele = Telemetry::enabled();

        // "Previous process": populate the store through one cache, persist,
        // drop every in-memory handle.
        {
            let store = Arc::new(isop_store::Store::open(&dir).expect("opens"));
            let cache = EvalCache::with_store(Arc::clone(&store));
            let probe = cache.probe(&space, &x, &tele);
            assert!(probe.hit.is_none());
            cache.insert(probe.key.expect("on grid"), simulate(&x));
            // Inserts by this process are *not* cross-job hits.
            assert!(cache.probe(&space, &x, &tele).hit.is_some());
            cache.persist().expect("flushes");
            assert_eq!(store.stats().expect("stats").cross_job_hits, 0);
        }

        // "Next process": a fresh store + cache over the same directory.
        let store = Arc::new(
            isop_store::Store::open(&dir)
                .expect("reopens")
                .with_telemetry(tele.clone()),
        );
        let warm = EvalCache::with_store(Arc::clone(&store));
        let hit = warm.probe(&space, &x, &tele);
        assert_eq!(
            hit.hit.expect("served from disk"),
            simulate(&x),
            "hydrated entry must replay the stored simulation bit-exactly"
        );
        assert_eq!(tele.counter(Counter::StoreCrossJobHits), 1);
        assert_eq!(tele.counter(Counter::StoreShardLoads), 1);
        // The tally persists across the flush for `isop cache stats`.
        warm.persist().expect("flushes");
        assert_eq!(store.stats().expect("stats").cross_job_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A synthetic cached simulation, distinct per `tag`.
    fn sim(tag: u32, attempts: u32) -> CachedSim {
        CachedSim {
            result: SimulationResult {
                z_diff: 80.0 + f64::from(tag),
                insertion_loss: -0.5,
                next: -40.0,
            },
            attempts,
        }
    }

    /// The design `steps` grid levels above the low corner of parameter 0.
    fn stepped(space: &ParamSpace, steps: u32) -> Vec<f64> {
        let mut x: Vec<f64> = space.params().iter().map(|p| p.lo).collect();
        x[0] += f64::from(steps) * space.params()[0].step;
        x
    }

    /// A hydrated cache keeps the view it froze: a neighbor's later
    /// flush reaches fresh caches only, the cache's own inserts shadow its
    /// snapshot, and the counters tick as for the old eager copy.
    #[test]
    fn snapshot_keeps_the_frozen_view() {
        let space = s1();
        let (x_old, x_own, x_new) = (stepped(&space, 0), stepped(&space, 1), stepped(&space, 2));
        let key = |x: &[f64]| EvalCache::key_for(&space, x).expect("on grid");
        let dir = std::env::temp_dir().join(format!("isop-ec-snapshot-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            // A previous process stored two designs.
            let store = Arc::new(isop_store::Store::open(&dir).expect("opens"));
            let cache = EvalCache::with_store(Arc::clone(&store));
            cache.insert(key(&x_old), sim(0, 1));
            cache.insert(key(&x_own), sim(1, 1));
            cache.persist().expect("flushes");
        }
        let engine_tele = Telemetry::enabled();
        let store = Arc::new(
            isop_store::Store::open(&dir)
                .expect("reopens")
                .with_telemetry(engine_tele.clone()),
        );
        let a = EvalCache::with_store(Arc::clone(&store));
        a.hydrate_space(&space);
        assert_eq!(a.len(), 2);

        let neighbor = EvalCache::with_store(Arc::clone(&store));
        neighbor.insert(key(&x_new), sim(2, 1));
        neighbor.persist().expect("flushes");

        let tele_a = Telemetry::enabled();
        assert!(
            a.probe(&space, &x_new, &tele_a).hit.is_none(),
            "frozen view"
        );
        assert_eq!(a.probe(&space, &x_old, &tele_a).hit, Some(sim(0, 1)));
        a.insert(key(&x_own), sim(1, 4));
        assert_eq!(
            a.probe(&space, &x_own, &tele_a).hit,
            Some(sim(1, 4)),
            "own insert shadows the snapshot"
        );
        assert_eq!(a.len(), 2);
        assert_eq!(tele_a.counter(Counter::EmCacheHits), 2);
        assert_eq!(tele_a.counter(Counter::EmCacheMisses), 1);
        // Only the snapshot hit on x_old came from the store.
        assert_eq!(engine_tele.counter(Counter::StoreCrossJobHits), 1);

        let tele_b = Telemetry::enabled();
        let b = EvalCache::with_store(Arc::clone(&store));
        assert_eq!(b.probe(&space, &x_new, &tele_b).hit, Some(sim(2, 1)));
        assert_eq!(tele_b.counter(Counter::EmCacheHits), 1);
        assert_eq!(engine_tele.counter(Counter::StoreCrossJobHits), 2);
        assert_eq!(b.len(), 3);
        // One shard read served every hydration.
        assert_eq!(engine_tele.counter(Counter::StoreShardLoads), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two stored records of one design: hydration serves the last one,
    /// the same record `isop cache compact` keeps, so compaction never
    /// changes what a cache replays.
    #[test]
    fn hydration_and_compaction_agree_on_the_last_record() {
        let space = s1();
        let x = grid_design(&space);
        let key = EvalCache::key_for(&space, &x).expect("on grid");
        let dir = std::env::temp_dir().join(format!("isop-ec-dup-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tele = Telemetry::disabled();
        {
            let store = Arc::new(isop_store::Store::open(&dir).expect("opens"));
            let cache = EvalCache::with_store(Arc::clone(&store));
            cache.insert(key.clone(), sim(0, 1));
            cache.insert(key, sim(0, 3));
            cache.persist().expect("flushes");
        }
        let hydrate = || {
            let store = Arc::new(isop_store::Store::open(&dir).expect("opens"));
            EvalCache::with_store(store).probe(&space, &x, &tele).hit
        };
        let before = hydrate().expect("stored");
        let compacted = isop_store::Store::open(&dir)
            .expect("opens")
            .compact()
            .expect("compacts");
        assert_eq!((compacted.records_before, compacted.records_after), (2, 1));
        assert_eq!(hydrate(), Some(before));
        assert_eq!(before, sim(0, 3), "the last record wins");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memo_replays_exact_predictions_and_counts() {
        let space = s1();
        let x = grid_design(&space);
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let memo = SurrogateMemo::new();
        let wrapped = MemoizedSurrogate::new(&inner, memo.clone(), tele.clone());

        let first = wrapped.predict(&x).expect("predicts");
        let second = wrapped.predict(&x).expect("predicts");
        assert_eq!(first, second, "memo must replay bit-exactly");
        assert_eq!(first, inner.predict(&x).expect("predicts"));
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 1);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(wrapped.name(), inner.name());
        // A batch consults the memo too: the memoized design is a hit.
        let batch = wrapped.predict_batch(std::slice::from_ref(&x));
        assert_eq!(batch[0].as_ref().expect("ok"), &first);
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 2);
        // Jacobian and fused value-and-gradient calls bypass the memo
        // untouched, at a memoized design and at a fresh one.
        assert!(wrapped.jacobian(&x).is_some());
        let mut fresh = x.clone();
        fresh[0] += 0.5;
        for design in [&x, &fresh] {
            let (metrics, _) = wrapped
                .value_and_grad(design, &|m| *m)
                .expect("differentiable")
                .expect("valid design");
            assert_eq!(metrics, inner.predict(design).expect("predicts"));
        }
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 2);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 1);
        assert_eq!(memo.len(), 1);
    }

    /// One `predict_batch` over rows with repeats (and a repeated row the
    /// model rejects) returns the bits, the hit/miss totals and the memo
    /// contents of a loop of single `predict` calls — with the memo warm,
    /// cold, and disabled.
    #[test]
    fn batched_memo_matches_the_serial_loop() {
        let space = s1();
        let a = grid_design(&space);
        let mut b = a.clone();
        b[0] += space.params()[0].step;
        let mut c = a.clone();
        c[1] += space.params()[1].step;
        let mut bad = a.clone();
        bad[0] = -1.0; // invalid geometry -> the oracle errors
        let rows = vec![
            a.clone(),
            b.clone(),
            a.clone(),
            bad.clone(),
            c.clone(),
            b.clone(),
            bad,
            a.clone(),
        ];
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let bits = |r: &Result<[f64; 3], MlError>| r.as_ref().ok().map(|m| m.map(f64::to_bits));
        for (name, warm) in [("cold", None), ("warm", Some(&c)), ("disabled", None)] {
            let memo = || {
                if name == "disabled" {
                    SurrogateMemo::disabled()
                } else {
                    SurrogateMemo::new()
                }
            };
            let (serial_memo, batch_memo) = (memo(), memo());
            let serial_tele = Telemetry::enabled();
            let batch_tele = Telemetry::enabled();
            let serial = MemoizedSurrogate::new(&inner, serial_memo.clone(), serial_tele.clone());
            let batch = MemoizedSurrogate::new(&inner, batch_memo.clone(), batch_tele.clone());
            if let Some(w) = warm {
                let _ = serial.predict(w);
                let _ = batch.predict(w);
            }
            let looped: Vec<_> = rows.iter().map(|x| serial.predict(x)).collect();
            let batched = batch.predict_batch(&rows);
            assert_eq!(
                looped.iter().map(bits).collect::<Vec<_>>(),
                batched.iter().map(bits).collect::<Vec<_>>(),
                "{name}: bits"
            );
            for counter in [Counter::SurrogateMemoHits, Counter::SurrogateMemoMisses] {
                assert_eq!(
                    serial_tele.counter(counter),
                    batch_tele.counter(counter),
                    "{name}: {counter:?}"
                );
            }
            assert_eq!(serial_memo.len(), batch_memo.len(), "{name}: memo size");
        }
    }

    #[test]
    fn disabled_memo_never_hits() {
        let space = s1();
        let x = grid_design(&space);
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let wrapped = MemoizedSurrogate::new(&inner, SurrogateMemo::disabled(), tele.clone());
        let _ = wrapped.predict(&x);
        let _ = wrapped.predict(&x);
        assert_eq!(tele.counter(Counter::SurrogateMemoHits), 0);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 2);
    }

    #[test]
    fn errors_are_not_memoized() {
        let space = s1();
        let mut x = grid_design(&space);
        x[0] = -1.0; // invalid geometry -> oracle errors
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let memo = SurrogateMemo::new();
        let wrapped = MemoizedSurrogate::new(&inner, memo.clone(), tele.clone());
        assert!(wrapped.predict(&x).is_err());
        assert!(wrapped.predict(&x).is_err());
        assert_eq!(memo.len(), 0);
        assert_eq!(tele.counter(Counter::SurrogateMemoMisses), 2);
    }
}
