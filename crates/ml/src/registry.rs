//! Trained-model registry: surrogate fits persisted into the evaluation
//! store and reused by later runs instead of retrained.
//!
//! Zoo training is deterministic for a fixed configuration and dataset, so
//! a fitted model is fully determined by three fingerprints:
//!
//! * the **space** fingerprint the surrogate serves (the same 48-bit
//!   `DesignKey` space id the evaluation cache shards by),
//! * the **config** fingerprint — FNV-1a over the canonical binary
//!   encoding of the *unfitted* model (architecture, hyperparameters,
//!   RNG seed — everything its `Serialize` impl carries), and
//! * the **data** fingerprint — FNV-1a over the training set's shape and
//!   the exact bit pattern of every sample.
//!
//! A registry probe that matches all three returns the stored model
//! **without calling `fit_with` at all** — a warm run records zero
//! `ml.fit.*` spans and zero `train.chunks` — and the exact-f64 codec
//! guarantees the loaded model predicts bit-identically to the one the
//! cold run trained. Any mismatch (or an unreadable record) falls through
//! to a cold fit whose result is then recorded for the next run.

use crate::dataset::Dataset;
use crate::MlError;
use isop_store::codec;
use isop_store::{ModelRecord, Store};
use isop_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fingerprint of an unfitted model: FNV-1a over its canonical binary
/// encoding. Two configs that serialize identically train identically.
#[must_use]
pub fn config_fingerprint<T: Serialize>(config: &T) -> u64 {
    codec::fnv1a(&codec::encode(config))
}

/// Fingerprint of a training set: shape plus the exact bit pattern of
/// every feature and target value.
#[must_use]
pub fn data_fingerprint(data: &Dataset) -> u64 {
    let mut bytes = Vec::with_capacity(16 + 8 * data.x.rows() * (data.x.cols() + data.y.cols()));
    for m in [&data.x, &data.y] {
        bytes.extend_from_slice(&(m.rows() as u64).to_le_bytes());
        bytes.extend_from_slice(&(m.cols() as u64).to_le_bytes());
        for r in 0..m.rows() {
            for v in m.row(r) {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    codec::fnv1a(&bytes)
}

/// A handle on the persistent store's model records. Clones share the
/// store; ticks `store.model_hits` / `store.model_misses`.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    store: Arc<Store>,
    telemetry: Telemetry,
}

impl ModelRegistry {
    /// A registry over `store`, telemetry disabled.
    #[must_use]
    pub fn new(store: Arc<Store>) -> Self {
        Self {
            store,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes `store.model_*` counters to `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The backing store.
    #[must_use]
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Returns the stored model for `(space_id, config_fp, data_fp, name)`
    /// if one exists, otherwise runs `fit` and records its result for
    /// future runs. The boolean is `true` on a registry hit — a hit never
    /// invokes `fit`, so warm runs skip every training span.
    ///
    /// The data fingerprint is computed here from `data`; callers supply
    /// the config fingerprint ([`config_fingerprint`]) because only they
    /// see the unfitted model.
    ///
    /// # Errors
    ///
    /// Propagates `fit` failures. Store read problems degrade to a cold
    /// fit, never an error — the registry is purely eliding.
    pub fn fit_or_load<T, F>(
        &self,
        space_id: u64,
        name: &str,
        config_fp: u64,
        data: &Dataset,
        fit: F,
    ) -> Result<(T, bool), MlError>
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> Result<T, MlError>,
    {
        let data_fp = data_fingerprint(data);
        if let Ok(Some(record)) = self.store.get_model(space_id, config_fp, data_fp, name) {
            if let Ok(model) = T::from_value(&record.payload) {
                self.telemetry.incr(Counter::StoreModelHits);
                return Ok((model, true));
            }
        }
        self.telemetry.incr(Counter::StoreModelMisses);
        let model = fit()?;
        self.store.put_model(&ModelRecord {
            space_id,
            config_fp,
            data_fp,
            name: name.to_string(),
            payload: model.to_value(),
        });
        Ok((model, false))
    }

    /// Flushes buffered model records (and anything else pending) to disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&self) -> std::io::Result<()> {
        self.store.flush().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::models::{Mlp, MlpConfig};
    use crate::train::TrainContext;
    use crate::Regressor;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("isop-registry-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_data() -> Dataset {
        // y = [2 x0 - x1], 16 samples.
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![f64::from(i) * 0.25, f64::from(i % 4)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[1]).collect();
        Dataset::new(Matrix::from_rows(&rows), Matrix::column(&y)).expect("valid")
    }

    fn tiny_mlp() -> Mlp {
        Mlp::new(MlpConfig {
            hidden: vec![8],
            epochs: 30,
            batch_size: 8,
            lr: 5e-3,
            dropout: 0.0,
            ..MlpConfig::default()
        })
    }

    #[test]
    fn fingerprints_separate_configs_and_data() {
        let a = config_fingerprint(&tiny_mlp());
        assert_eq!(a, config_fingerprint(&tiny_mlp()), "deterministic");
        let other = Mlp::new(MlpConfig {
            hidden: vec![9],
            ..MlpConfig::default()
        });
        assert_ne!(a, config_fingerprint(&other));

        let data = tiny_data();
        let fp = data_fingerprint(&data);
        assert_eq!(fp, data_fingerprint(&tiny_data()), "deterministic");
        let mut perturbed = tiny_data();
        perturbed.x[(0, 0)] += 1e-12;
        assert_ne!(fp, data_fingerprint(&perturbed), "bit-sensitive");
    }

    #[test]
    fn warm_load_skips_fit_and_predicts_bit_identically() {
        let dir = temp_dir("warm");
        let data = tiny_data();
        let ctx = TrainContext::serial();

        // Cold run: trains, records, persists.
        let cold_pred;
        {
            let store = Arc::new(Store::open(&dir).expect("opens"));
            let registry = ModelRegistry::new(Arc::clone(&store));
            let fp = config_fingerprint(&tiny_mlp());
            let (model, hit) = registry
                .fit_or_load(7, "MLPR", fp, &data, || {
                    let mut m = tiny_mlp();
                    m.fit_with(&data, &ctx)?;
                    Ok(m)
                })
                .expect("fits");
            assert!(!hit, "first run must train");
            cold_pred = model.predict(&data.x).expect("predicts");
            registry.persist().expect("flushes");
        }

        // Warm run in a "new process": same store dir, fresh handles.
        let tele = Telemetry::enabled();
        let store = Arc::new(Store::open(&dir).expect("reopens"));
        let registry = ModelRegistry::new(Arc::clone(&store)).with_telemetry(tele.clone());
        let fp = config_fingerprint(&tiny_mlp());
        let (model, hit) = registry
            .fit_or_load(7, "MLPR", fp, &data, || -> Result<Mlp, MlError> {
                panic!("warm run must not train")
            })
            .expect("loads");
        assert!(hit);
        assert_eq!(tele.counter(Counter::StoreModelHits), 1);
        assert_eq!(tele.counter(Counter::StoreModelMisses), 0);
        let warm_pred = model.predict(&data.x).expect("predicts");
        assert_eq!(cold_pred.rows(), warm_pred.rows());
        for r in 0..cold_pred.rows() {
            for (a, b) in cold_pred.row(r).iter().zip(warm_pred.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-identical predictions");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_fingerprint_mismatch_falls_back_to_training() {
        let dir = temp_dir("miss");
        let data = tiny_data();
        let ctx = TrainContext::serial();
        let tele = Telemetry::enabled();
        let store = Arc::new(Store::open(&dir).expect("opens"));
        let registry = ModelRegistry::new(Arc::clone(&store)).with_telemetry(tele.clone());
        let fp = config_fingerprint(&tiny_mlp());
        let fit = |data: &Dataset| {
            let mut m = tiny_mlp();
            m.fit_with(data, &ctx)?;
            Ok(m)
        };
        let (_, hit) = registry
            .fit_or_load(7, "MLPR", fp, &data, || fit(&data))
            .expect("fits");
        assert!(!hit);
        // Different space, different config, different data, different name:
        // each one is a miss.
        let mut other_data = tiny_data();
        other_data.x[(0, 0)] += 1.0;
        for (space, name, cfg, d) in [
            (8, "MLPR", fp, &data),
            (7, "CNN", fp, &data),
            (7, "MLPR", fp ^ 1, &data),
            (7, "MLPR", fp, &other_data),
        ] {
            let (_, hit) = registry
                .fit_or_load(space, name, cfg, d, || fit(d))
                .expect("fits");
            assert!(!hit, "({space}, {name}) must miss");
        }
        // The original key still hits (in-process pending records count).
        let (_, hit) = registry
            .fit_or_load(7, "MLPR", fp, &data, || fit(&data))
            .expect("loads");
        assert!(hit);
        assert_eq!(tele.counter(Counter::StoreModelMisses), 5);
        assert_eq!(tele.counter(Counter::StoreModelHits), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_errors_propagate_and_record_nothing() {
        let dir = temp_dir("err");
        let data = tiny_data();
        let store = Arc::new(Store::open(&dir).expect("opens"));
        let registry = ModelRegistry::new(Arc::clone(&store));
        let out = registry.fit_or_load::<Mlp, _>(7, "MLPR", 1, &data, || Err(MlError::Diverged));
        assert!(out.is_err());
        registry.persist().expect("flushes");
        assert_eq!(store.stats().expect("stats").model_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
