//! # isop-bench — experiment harnesses regenerating every paper table/figure
//!
//! Each `[[bin]]` target reproduces one artifact of the ISOP+ paper's
//! evaluation (see DESIGN.md §3 for the index). This library holds the
//! shared plumbing: environment-controlled scaling, surrogate training with
//! on-disk caching, and result writing.
//!
//! ## Scaling knobs (environment variables)
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `ISOP_TRIALS` | 5 | trials per experiment cell (paper: 10) |
//! | `ISOP_DATASET` | 32000 | surrogate-training samples (paper: 90 000) |
//! | `ISOP_EPOCHS` | 60 | neural-surrogate training epochs |
//! | `ISOP_RESULTS_DIR` | `results` | artifact output directory |
//! | `ISOP_CACHE_DIR` | `target/isop-cache/em_store` | persistent sharded eval-store directory the ablation bins share accurate EM results through |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use isop::data::generate_mixed_dataset;
use isop::params::ParamSpace;
use isop::surrogate::{MlpXgbSurrogate, ModelZoo, NeuralSurrogate};
use isop_em::simulator::AnalyticalSolver;
use isop_ml::dataset::Dataset;
use isop_ml::models::{Cnn1d, Cnn1dConfig, Mlp, MlpConfig, XgbRegressor};
use isop_ml::MlError;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Experiment scale read from the environment.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Trials per experiment cell.
    pub trials: usize,
    /// Surrogate-training dataset size.
    pub dataset_size: usize,
    /// Neural-network training epochs.
    pub epochs: usize,
    /// Output directory for generated tables.
    pub results_dir: PathBuf,
    /// Persistent sharded eval-store directory (`ISOP_CACHE_DIR`, default
    /// [`cache_path`]`("em_store")`).
    pub cache_dir: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl BenchConfig {
    /// Reads the scaling knobs from the environment.
    pub fn from_env() -> Self {
        let get = |k: &str, default: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            trials: get("ISOP_TRIALS", 5),
            dataset_size: get("ISOP_DATASET", 32_000),
            epochs: get("ISOP_EPOCHS", 60),
            results_dir: std::env::var("ISOP_RESULTS_DIR")
                .unwrap_or_else(|_| "results".to_string())
                .into(),
            cache_dir: std::env::var("ISOP_CACHE_DIR")
                .map_or_else(|_| cache_path("em_store"), PathBuf::from),
        }
    }

    /// The paper's full protocol (10 trials, 90 k samples).
    pub fn paper_scale() -> Self {
        Self {
            trials: 10,
            dataset_size: 90_000,
            epochs: 40,
            results_dir: "results".into(),
            cache_dir: cache_path("em_store"),
        }
    }
}

/// Generates (or reuses a cached) surrogate-training dataset over the Table
/// III training ranges.
pub fn training_dataset(cfg: &BenchConfig) -> Dataset {
    let cache = cache_path(&format!("dataset_{}.json", cfg.dataset_size));
    if let Ok(text) = fs::read_to_string(&cache) {
        if let Ok(d) = serde_json::from_str::<Dataset>(&text) {
            if d.len() == cfg.dataset_size {
                eprintln!("[isop-bench] reusing cached dataset ({} samples)", d.len());
                return d;
            }
        }
    }
    eprintln!(
        "[isop-bench] generating {} training samples via the EM simulator...",
        cfg.dataset_size
    );
    // 60% wide Table III training ranges + 40% optimization region (S_2,
    // the superset of S_1 and S_1') — see DESIGN.md for why this mixed
    // protocol substitutes for the paper's 90 k-sample uniform one.
    let d = generate_mixed_dataset(
        &isop::spaces::training_space(),
        &isop::spaces::s2(),
        cfg.dataset_size,
        0.4,
        &AnalyticalSolver::new(),
        0xDA7A,
    )
    .expect("dataset generation");
    let _ = fs::create_dir_all(cache.parent().expect("has parent"));
    let _ = fs::write(&cache, serde_json::to_string(&d).expect("serializable"));
    d
}

/// Cache file path under `target/isop-cache/`.
pub fn cache_path(name: &str) -> PathBuf {
    PathBuf::from("target").join("isop-cache").join(name)
}

/// Opens the persistent eval store at [`BenchConfig::cache_dir`], or
/// `None` when the directory is unusable (a warning is printed —
/// persistence is always best-effort for the harnesses).
pub fn open_store(cfg: &BenchConfig) -> Option<std::sync::Arc<isop_store::Store>> {
    let dir = &cfg.cache_dir;
    match isop_store::Store::open(dir) {
        Ok(store) => {
            eprintln!(
                "[isop-bench] eval-store: {} ({} shards)",
                dir.display(),
                store.n_shards()
            );
            Some(std::sync::Arc::new(store))
        }
        Err(e) => {
            eprintln!(
                "[isop-bench] eval-store: ignoring unusable {}: {e}",
                dir.display()
            );
            None
        }
    }
}

/// The MLP surrogate configuration used across experiments.
pub fn mlp_config(epochs: usize) -> MlpConfig {
    MlpConfig {
        hidden: vec![256, 256, 128],
        epochs,
        batch_size: 64,
        lr: 1.5e-3,
        leaky_slope: 0.01,
        dropout: 0.02,
        seed: 7,
    }
}

/// The 1D-CNN surrogate configuration used across experiments.
pub fn cnn_config(epochs: usize) -> Cnn1dConfig {
    Cnn1dConfig {
        expand: 192,
        channels: 8,
        conv_channels: 16,
        kernel: 3,
        head: 64,
        epochs,
        batch_size: 64,
        lr: 1.5e-3,
        leaky_slope: 0.01,
        dropout: 0.02,
        seed: 7,
    }
}

/// The harnesses' default training engine: a [`ModelZoo`] honouring the
/// `THREADS` environment variable, so the same binary can be timed serial
/// (`THREADS=1`) vs data-parallel (`THREADS=N`) — results are bit-identical
/// either way.
pub fn env_zoo() -> ModelZoo {
    ModelZoo::from_env()
}

fn announce_trained(what: &str, zoo: &ModelZoo, started: Instant) {
    eprintln!(
        "[isop-bench] trained {what} in {:.2}s at {} thread(s)",
        started.elapsed().as_secs_f64(),
        zoo.context().parallelism.threads
    );
}

fn load_model<M: serde::de::DeserializeOwned>(name: &str) -> Option<M> {
    let text = fs::read_to_string(cache_path(name)).ok()?;
    serde_json::from_str(&text).ok()
}

fn store_model<M: serde::Serialize>(name: &str, model: &M) {
    let path = cache_path(name);
    let _ = fs::create_dir_all(path.parent().expect("has parent"));
    let _ = fs::write(path, serde_json::to_string(model).expect("serializable"));
}

/// Trains (or loads from cache) the 1D-CNN surrogate.
///
/// # Errors
///
/// Propagates training failures.
pub fn cnn_surrogate(cfg: &BenchConfig, data: &Dataset) -> Result<NeuralSurrogate<Cnn1d>, MlError> {
    cnn_surrogate_tagged(cfg, data, "full")
}

/// [`cnn_surrogate`] with a cache tag distinguishing training subsets
/// (e.g. the 80% split of Fig. 6 vs the full dataset).
///
/// # Errors
///
/// Propagates training failures.
pub fn cnn_surrogate_tagged(
    cfg: &BenchConfig,
    data: &Dataset,
    tag: &str,
) -> Result<NeuralSurrogate<Cnn1d>, MlError> {
    cnn_surrogate_with(cfg, data, tag, &env_zoo())
}

/// [`cnn_surrogate_tagged`] training through an explicit [`ModelZoo`]
/// (thread knob + telemetry).
///
/// # Errors
///
/// Propagates training failures.
pub fn cnn_surrogate_with(
    cfg: &BenchConfig,
    data: &Dataset,
    tag: &str,
    zoo: &ModelZoo,
) -> Result<NeuralSurrogate<Cnn1d>, MlError> {
    let key = format!("cnn_{}_{}_{}.json", cfg.dataset_size, cfg.epochs, tag);
    if let Some(model) = load_model::<Cnn1d>(&key) {
        eprintln!("[isop-bench] reusing cached 1D-CNN surrogate");
        return Ok(NeuralSurrogate::new(model));
    }
    eprintln!(
        "[isop-bench] training 1D-CNN surrogate ({} epochs)...",
        cfg.epochs
    );
    let started = Instant::now();
    let s = zoo.fit_neural(Cnn1d::new(cnn_config(cfg.epochs)), data)?;
    announce_trained("1D-CNN surrogate", zoo, started);
    store_model(&key, s.model());
    Ok(s)
}

/// Trains (or loads from cache) the MLP surrogate.
///
/// # Errors
///
/// Propagates training failures.
pub fn mlp_surrogate(cfg: &BenchConfig, data: &Dataset) -> Result<NeuralSurrogate<Mlp>, MlError> {
    mlp_surrogate_with(cfg, data, &env_zoo())
}

/// [`mlp_surrogate`] training through an explicit [`ModelZoo`].
///
/// # Errors
///
/// Propagates training failures.
pub fn mlp_surrogate_with(
    cfg: &BenchConfig,
    data: &Dataset,
    zoo: &ModelZoo,
) -> Result<NeuralSurrogate<Mlp>, MlError> {
    let key = format!("mlp_{}_{}.json", cfg.dataset_size, cfg.epochs);
    if let Some(model) = load_model::<Mlp>(&key) {
        eprintln!("[isop-bench] reusing cached MLP surrogate");
        return Ok(NeuralSurrogate::new(model));
    }
    eprintln!(
        "[isop-bench] training MLP surrogate ({} epochs)...",
        cfg.epochs
    );
    let started = Instant::now();
    let s = zoo.fit_neural(Mlp::new(mlp_config(cfg.epochs)), data)?;
    announce_trained("MLP surrogate", zoo, started);
    store_model(&key, s.model());
    Ok(s)
}

/// Trains the DATE'23 `MLP_XGB` surrogate (MLP for Z/L, XGBoost for NEXT).
///
/// # Errors
///
/// Propagates training failures.
pub fn mlp_xgb_surrogate(cfg: &BenchConfig, data: &Dataset) -> Result<MlpXgbSurrogate, MlError> {
    mlp_xgb_surrogate_tagged(cfg, data, "full")
}

/// [`mlp_xgb_surrogate`] with a cache tag distinguishing training subsets.
///
/// # Errors
///
/// Propagates training failures.
pub fn mlp_xgb_surrogate_tagged(
    cfg: &BenchConfig,
    data: &Dataset,
    tag: &str,
) -> Result<MlpXgbSurrogate, MlError> {
    mlp_xgb_surrogate_with(cfg, data, tag, &env_zoo())
}

/// [`mlp_xgb_surrogate_tagged`] training through an explicit [`ModelZoo`].
///
/// # Errors
///
/// Propagates training failures.
pub fn mlp_xgb_surrogate_with(
    cfg: &BenchConfig,
    data: &Dataset,
    tag: &str,
    zoo: &ModelZoo,
) -> Result<MlpXgbSurrogate, MlError> {
    let key = format!("mlp_xgb_{}_{}_{}.json", cfg.dataset_size, cfg.epochs, tag);
    if let Some(model) = load_model::<MlpXgbSurrogate>(&key) {
        eprintln!("[isop-bench] reusing cached MLP_XGB surrogate");
        return Ok(model);
    }
    eprintln!("[isop-bench] training MLP_XGB surrogate...");
    let started = Instant::now();
    let s = zoo.fit_mlp_xgb(
        Mlp::new(mlp_config(cfg.epochs)),
        XgbRegressor::new(120, 0.15, 6, 1.0, 0.0),
        data,
    )?;
    announce_trained("MLP_XGB surrogate", zoo, started);
    store_model(&key, &s);
    Ok(s)
}

/// Writes a generated artifact (markdown + CSV) into the results directory
/// and echoes the markdown to stdout.
pub fn emit(cfg: &BenchConfig, name: &str, title: &str, table: &isop::report::Table) {
    println!("\n## {title}\n");
    print!("{}", table.to_markdown());
    let _ = fs::create_dir_all(&cfg.results_dir);
    let md_path = cfg.results_dir.join(format!("{name}.md"));
    let csv_path = cfg.results_dir.join(format!("{name}.csv"));
    let _ = fs::write(&md_path, format!("# {title}\n\n{}", table.to_markdown()));
    let _ = fs::write(&csv_path, table.to_csv());
    eprintln!(
        "[isop-bench] wrote {} and {}",
        md_path.display(),
        csv_path.display()
    );
}

/// The default ISOP+ pipeline configuration for experiment cells
/// (paper-protocol shape, laptop-scale sampling counts).
pub fn isop_config() -> isop::pipeline::IsopConfig {
    use isop_hpo::harmonica::HarmonicaConfig;
    use isop_hpo::hyperband::HyperbandConfig;
    isop::pipeline::IsopConfig {
        harmonica: HarmonicaConfig {
            stages: 3,
            samples_per_stage: 300,
            degree: 2,
            lambda: 0.02,
            top_monomials: 8,
            bits_per_stage: 8,
        },
        use_hyperband: true,
        hyperband: HyperbandConfig {
            max_resource: 9.0,
            eta: 3.0,
        },
        gd_candidates: 8,
        gd_epochs: 60,
        gd_lr: 0.02,
        use_gradient_descent: true,
        cand_num: 3,
        adapt_weights: true,
        weight_adapter: isop::weights::WeightAdapter::default(),
        // Experiment cells honour the THREADS env var so the same harness
        // can be timed serial vs. parallel; outcomes are identical either
        // way (see `isop::exec`).
        parallelism: isop::exec::Parallelism::from_env(),
        retry: isop::prelude::RetryPolicy::default(),
    }
}

/// Re-export commonly used space constructors for the bins.
pub mod spaces {
    pub use isop::spaces::{s1, s1_prime, s2, training_space};
}

/// Builds the four (task, space) cells of Table IV or Table V.
pub fn table_cells(
    tasks: [isop::tasks::TaskId; 2],
) -> Vec<(isop::tasks::TaskId, &'static str, ParamSpace)> {
    let mut cells = Vec::new();
    for t in tasks {
        cells.push((t, "S1", isop::spaces::s1()));
        cells.push((t, "S2", isop::spaces::s2()));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        let cfg = BenchConfig::from_env();
        assert!(cfg.trials >= 1);
        assert!(cfg.dataset_size >= 100);
    }

    #[test]
    fn paper_scale_matches_protocol() {
        let cfg = BenchConfig::paper_scale();
        assert_eq!(cfg.trials, 10);
        assert_eq!(cfg.dataset_size, 90_000);
    }

    #[test]
    fn isop_config_enables_all_stages() {
        let cfg = isop_config();
        assert!(cfg.use_gradient_descent);
        assert!(cfg.use_hyperband);
        assert!(cfg.adapt_weights);
        assert_eq!(cfg.cand_num, 3, "paper verifies three candidates");
    }

    #[test]
    fn table_cells_cover_both_spaces() {
        let cells = table_cells([isop::tasks::TaskId::T1, isop::tasks::TaskId::T2]);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].1, "S1");
        assert_eq!(cells[1].1, "S2");
    }
}

/// Experiment drivers shared by the table binaries.
pub mod experiments;
