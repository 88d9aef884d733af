//! `isop` — command-line interface to the stack-up optimizer.
//!
//! ```text
//! isop simulate --w 5 --s 6 --d 30 [--dk 3.6] [--df 0.008] [--engine fd]
//! isop optimize --task t1 --space s1 [--seed 42] [--trials 1] [--threads 4] [--with-ic]
//!               [--em-fault-rate 0.3] [--em-permanent-rate 0.05] [--em-retries 3]
//!               [--report] [--report-out results/run_report.json]
//! isop spaces
//! isop dataset --n 1000 --out dataset.json [--space training]
//! isop cache stats|verify|compact --cache-dir results/eval_store
//! isop cache export --cache-dir DIR --out em_cache.json
//! isop cache import --cache-dir DIR --file em_cache.json
//! isop serve --jobs jobs.json [--cores 8] [--wave-slots 4] [--cache-dir DIR]
//!            [--report-dir results/engine]
//! isop daemon --listen 127.0.0.1:7878 [--cache-dir DIR] [--cores 8] [--wave-slots 4]
//!             [--quota-em SECONDS] [--quota-window EPOCHS]
//! isop report --aggregate results/engine [--out results/engine/tenants.json]
//! ```
//!
//! Invoking `isop --flags...` without a subcommand runs `optimize` — so
//! `isop --report --threads 4` is the canonical instrumented smoke run.
//!
//! `--cache-dir` (off by default) points `optimize` at a persistent sharded
//! evaluation store: accurate EM results are served from records previous
//! runs wrote (`store.cross_job_hits` in the report) and fresh ones are
//! appended for the next run. `isop cache` administers such a store and
//! moves its evaluations to and from a JSON exchange file (`export` /
//! `import`).
//! `--report` attaches a telemetry handle to the pipeline and the verifying
//! simulator, prints the per-stage span/counter table, and writes the
//! machine-readable [`RunReport`] JSON for the CI bench gate.
//!
//! `--em-fault-rate` / `--em-permanent-rate` wrap the verifying simulator
//! in the seeded deterministic fault injector (faults keyed by design
//! identity, so outcomes are identical at any `--threads`); `--em-retries`
//! bounds the roll-out's transient-failure retry budget. When every
//! simulation fails, the run exits non-zero with the explicit
//! `all_simulations_failed` resolution — and `--report` still writes the
//! report, carrying that resolution, so the outage is never mistaken for
//! an ordinary infeasible trial.
//!
//! `daemon` runs the multi-job engine as a service: it listens for
//! newline-delimited JSON requests (`submit` / `cancel` / `status` /
//! `report` / `shutdown`) on a TCP socket, admits submissions in streamed
//! epochs, enforces rolling per-tenant EM-seconds quotas, and journals
//! every job state transition into `--cache-dir` so a killed daemon
//! resumes on restart, replaying finished jobs bit-identically.
//!
//! `serve` is the same daemon with no socket: each element of a JSON job
//! file (array of `{id, tenant, task, space, seed, weight, threads}`
//! specs, every field optional) is one `submit`, and the daemon is then
//! drained. The jobs run in weighted-fair waves under one shared core
//! budget; with `--cache-dir` they warm-start each other through the
//! persistent store. A refused element prints its typed JSON refusal on
//! stderr, its valid neighbors still run, and the exit status is non-zero.
//! With `--cache-dir`, job ids are unique per store, as for the daemon: a
//! rerun of the same file refuses every id already journaled
//! (`duplicate_id`), and a killed `serve` resumes from the journal on its
//! next start. Elements with an empty id are numbered `job-0`, `job-1`, …
//! over the empty-id elements only. `--report-dir` writes one tagged [`RunReport`] per
//! job plus `engine_report.json`, the array of the drained epochs' engine
//! reports. `report --aggregate DIR` folds a directory of per-job reports
//! into one per-tenant table.
//!
//! The CLI is intentionally dependency-free (hand-rolled flag parsing); it
//! exists so the library is usable from shell workflows without writing
//! Rust.

use isop::prelude::*;
use isop_em::fdsolver::FdConfig;
use isop_em::simulator::{AnalyticalSolver, EmSimulator, FieldSolver};
use isop_em::stackup::DiffStripline;
use isop_hpo::budget::Budget;
use isop_store::Store;
use serde::json::Value;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            eprintln!("warning: ignoring stray argument '{}'", args[i]);
            i += 1;
        }
    }
    map
}

fn flag_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> f64 {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// Name lookups live in `isop::jobs` so the CLI and the daemon agree on
// the same labels.
use isop::jobs::{space_by_name, task_by_name};

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let layer = DiffStripline::builder()
        .trace_width(flag_f64(flags, "w", 5.0))
        .trace_spacing(flag_f64(flags, "s", 6.0))
        .pair_distance(flag_f64(flags, "d", 30.0))
        .etch_factor(flag_f64(flags, "etch", 0.0))
        .trace_height(flag_f64(flags, "ht", 1.2))
        .core_height(flag_f64(flags, "hc", 6.0))
        .prepreg_height(flag_f64(flags, "hp", 6.0))
        .conductivity(flag_f64(flags, "sigma", 5.8e7))
        .roughness(flag_f64(flags, "rough", 0.0))
        .dk_trace(flag_f64(flags, "dk", 3.6))
        .dk_core(flag_f64(flags, "dk", 3.6))
        .dk_prepreg(flag_f64(flags, "dk", 3.6))
        .df_trace(flag_f64(flags, "df", 0.008))
        .df_core(flag_f64(flags, "df", 0.008))
        .df_prepreg(flag_f64(flags, "df", 0.008))
        .build()
        .map_err(|e| e.to_string())?;
    let result = match flags.get("engine").map(String::as_str) {
        Some("fd") => FieldSolver::new(FdConfig::default())
            .simulate(&layer)
            .map_err(|e| e.to_string())?,
        _ => AnalyticalSolver::new()
            .simulate(&layer)
            .map_err(|e| e.to_string())?,
    };
    println!("Z    = {:.2} ohm (differential)", result.z_diff);
    println!("L    = {:.3} dB/inch @ 16 GHz", result.insertion_loss);
    println!("NEXT = {:.3} mV", result.next);
    Ok(())
}

fn cmd_optimize(flags: &HashMap<String, String>) -> Result<(), String> {
    let task = task_by_name(flags.get("task").map(String::as_str).unwrap_or("t1"))
        .ok_or("unknown task (use t1..t4)")?;
    let space_name = flags.get("space").map(String::as_str).unwrap_or("s1");
    let space = space_by_name(space_name).ok_or("unknown space (s1, s2, s1p)")?;
    let seed = flag_f64(flags, "seed", 42.0) as u64;
    let trials = flag_f64(flags, "trials", 1.0) as usize;
    let threads = flag_f64(flags, "threads", 1.0) as usize;
    let ics = if flags.contains_key("with-ic") {
        isop::tasks::table_ix_input_constraints()
    } else {
        vec![]
    };

    let report = flags.contains_key("report");
    let telemetry = if report {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // Fault-tolerance knobs: a non-zero fault rate wraps the verifying
    // simulator in the deterministic, design-keyed fault injector; the
    // retry budget bounds how often the roll-out re-runs a transient
    // failure before giving up on that candidate.
    let fault_rate = flag_f64(flags, "em-fault-rate", 0.0);
    let permanent_rate = flag_f64(flags, "em-permanent-rate", 0.0);
    let default_retries = RetryPolicy::default().max_attempts;
    let em_retries = flag_f64(flags, "em-retries", f64::from(default_retries)) as u32;

    // The roll-out verifier records EM attempts/successes/failures; the
    // surrogate's inner solver stays untraced on purpose — its queries are
    // surrogate predictions, already counted inside the pipeline.
    let solver = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let simulator: Box<dyn EmSimulator> = if fault_rate > 0.0 || permanent_rate > 0.0 {
        Box::new(
            FaultInjector::new(
                solver,
                FaultConfig {
                    transient_rate: fault_rate,
                    permanent_rate,
                    seed,
                },
            )
            .with_telemetry(telemetry.clone()),
        )
    } else {
        Box::new(solver)
    };
    // Persistent cross-run cache (default off, so plain runs behave
    // exactly as before): accurate EM results are hydrated from and
    // appended to the sharded store at --cache-dir.
    let store = match flags.get("cache-dir") {
        Some(dir) => Some(Arc::new(
            Store::open(std::path::Path::new(dir))
                .map_err(|e| format!("cache-dir {dir}: {e}"))?
                .with_telemetry(telemetry.clone()),
        )),
        None => None,
    };
    let eval_cache = match &store {
        Some(s) => isop::evalcache::EvalCache::with_store(Arc::clone(s)),
        None => isop::evalcache::EvalCache::disabled(),
    };

    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let mut best: Option<(f64, DesignCandidate, bool)> = None;
    let mut samples_seen = 0u64;
    let mut invalid_seen = 0u64;
    let mut algorithm_seconds = 0.0f64;
    let mut any_success = false;
    let mut worst_resolution = RolloutResolution::Full;
    let severity = |r: RolloutResolution| match r {
        RolloutResolution::Full => 0,
        RolloutResolution::Degraded => 1,
        RolloutResolution::AllSimulationsFailed => 2,
    };
    for t in 0..trials.max(1) {
        let config = IsopConfig {
            parallelism: isop::exec::Parallelism::new(threads),
            retry: RetryPolicy {
                max_attempts: em_retries,
            },
            ..IsopConfig::default()
        };
        let optimizer = IsopOptimizer::new(&space, &surrogate, &*simulator, config)
            .with_telemetry(telemetry.clone())
            .with_eval_cache(eval_cache.clone());
        let outcome = optimizer.run(
            isop::tasks::objective_for(task, ics.clone()),
            Budget::unlimited(),
            seed + t as u64,
        );
        samples_seen += outcome.samples_seen;
        invalid_seen += outcome.invalid_seen;
        algorithm_seconds += outcome.algorithm_seconds;
        any_success |= outcome.success;
        if outcome.resolution != RolloutResolution::Full {
            eprintln!(
                "warning: trial {t} roll-out degraded ({}): \
                 {} transient, {} permanent failure(s), {} retried, {} topped up",
                outcome.resolution,
                outcome.em_failures_transient,
                outcome.em_failures_permanent,
                outcome.em_retries,
                outcome.em_topped_up
            );
        }
        if severity(outcome.resolution) > severity(worst_resolution) {
            worst_resolution = outcome.resolution;
        }
        if let Some(c) = outcome.best() {
            if best.as_ref().is_none_or(|(g, _, _)| c.g_exact < *g) {
                best = Some((c.g_exact, c.clone(), outcome.success));
            }
        }
    }
    if let Some(s) = &store {
        eval_cache.persist().map_err(|e| e.to_string())?;
        let stats = s.stats().map_err(|e| e.to_string())?;
        eprintln!(
            "eval-store: {} record(s) across {} shard(s), {} lifetime cross-job hit(s)",
            stats.eval_records, stats.shards, stats.cross_job_hits
        );
    }
    println!("task {task} on {space_name} (seed {seed}, {trials} trial(s))");
    if let Some((g, cand, success)) = &best {
        let sim = cand.simulated.ok_or("candidate unverified")?;
        for (name, v) in isop_em::PARAM_NAMES.iter().zip(&cand.values) {
            println!("  {name:>8} = {v}");
        }
        println!(
            "Z = {:.2} ohm, L = {:.3} dB/in, NEXT = {:.3} mV",
            sim.z_diff, sim.insertion_loss, sim.next
        );
        println!("g = {g:.4}, constraints satisfied: {success}");
    }

    if report {
        let mut rep = telemetry.run_report();
        rep.task = task.to_string();
        rep.space = space_name.to_string();
        rep.seed = seed;
        rep.threads = threads;
        rep.success = any_success;
        rep.samples_seen = samples_seen;
        rep.invalid_seen = invalid_seen;
        rep.algorithm_seconds = algorithm_seconds;
        rep.resolution = worst_resolution.as_str().to_string();
        print_run_report(&rep);
        let out = flags
            .get("report-out")
            .cloned()
            .unwrap_or_else(|| "results/run_report.json".to_string());
        if let Some(dir) = std::path::Path::new(&out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
        }
        let json = rep.to_json().map_err(|e| format!("{e:?}"))?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        println!("\nwrote run report to {out}");
    }
    // The report (when requested) is written *before* this bail-out so a
    // total simulator outage still leaves a machine-readable record of the
    // degraded resolution rather than vanishing behind the exit code.
    if best.is_none() {
        return Err(match worst_resolution {
            RolloutResolution::AllSimulationsFailed => format!(
                "every accurate EM simulation failed (resolution: {worst_resolution}); \
                 raise --em-retries or lower --em-fault-rate"
            ),
            _ => "no design survived roll-out".to_string(),
        });
    }
    Ok(())
}

/// Renders the telemetry snapshot as two human-readable tables (spans, then
/// counters) on stdout.
fn print_run_report(rep: &RunReport) {
    println!(
        "\nrun report (schema v{}): algorithm {:.2}s, charged EM {:.1}s",
        rep.schema_version, rep.algorithm_seconds, rep.em_seconds_charged
    );
    let mut spans = isop::report::Table::new(vec!["span", "count", "total s", "min s", "max s"]);
    for s in &rep.spans {
        spans.push_row(vec![
            s.name.clone(),
            s.count.to_string(),
            format!("{:.4}", s.total_seconds),
            format!("{:.6}", s.min_seconds),
            format!("{:.6}", s.max_seconds),
        ]);
    }
    println!("{}", spans.to_markdown());
    let mut counters = isop::report::Table::new(vec!["counter", "value"]);
    for c in &rep.counters {
        counters.push_row(vec![c.name.clone(), c.value.to_string()]);
    }
    println!("{}", counters.to_markdown());
}

fn cmd_spaces() {
    for (name, space) in [
        ("s1", isop::spaces::s1()),
        ("s2", isop::spaces::s2()),
        ("s1p", isop::spaces::s1_prime()),
        ("training", isop::spaces::training_space()),
    ] {
        println!(
            "{name:>9}: {} params, {} bits, {:.3e} valid designs",
            space.n_params(),
            space.total_bits(),
            space.n_valid()
        );
    }
}

fn cmd_dataset(flags: &HashMap<String, String>) -> Result<(), String> {
    let n = flag_f64(flags, "n", 1000.0) as usize;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "dataset.json".into());
    let space_name = flags.get("space").map(String::as_str).unwrap_or("training");
    let space = space_by_name(space_name).ok_or("unknown space")?;
    let data = isop::data::generate_dataset(
        &space,
        n,
        &AnalyticalSolver::new(),
        flag_f64(flags, "seed", 0.0) as u64,
    )
    .map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&data).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!("wrote {n} samples from {space_name} to {out}");
    Ok(())
}

/// Builds the daemon both `isop daemon` and `isop serve` run: `policy`
/// with the engine sized from the flags, plus the `--cache-dir` store
/// (carrying the daemon's telemetry handle, since store traffic
/// interleaves across concurrent jobs and must never land in a per-job
/// report) whose job journal is replayed before anything new is accepted.
fn start_daemon(
    flags: &HashMap<String, String>,
    policy: DaemonConfig,
    telemetry: &Telemetry,
) -> Result<Daemon, String> {
    let mut daemon = Daemon::new(DaemonConfig {
        engine: EngineConfig {
            cores: flag_f64(flags, "cores", 0.0) as usize,
            wave_slots: flag_f64(flags, "wave-slots", 4.0) as usize,
            pipeline: IsopConfig::default(),
        },
        ..policy
    })
    .with_telemetry(telemetry.clone());
    if let Some(dir) = flags.get("cache-dir") {
        let store = Store::open(std::path::Path::new(dir))
            .map_err(|e| format!("cache-dir {dir}: {e}"))?
            .with_telemetry(telemetry.clone());
        daemon = daemon.with_store(Arc::new(store));
        let recovery = daemon.recover()?;
        if recovery.jobs_replayed + recovery.jobs_resumed > 0 {
            println!(
                "daemon: recovered journal — {} finished job(s) replayed, \
                 {} job(s) resuming across {} epoch(s)",
                recovery.jobs_replayed, recovery.jobs_resumed, recovery.epochs_pending
            );
        }
    }
    Ok(daemon)
}

/// Runs a JSON job file as a daemon with no socket: each element is one
/// `submit` request (a refusal is printed to stderr as its typed JSON line
/// while the valid neighbors still run), then every pending epoch is
/// drained. Fails when any element was refused.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let jobs_file = flags.get("jobs").ok_or("serve requires --jobs FILE")?;
    let text = std::fs::read_to_string(jobs_file).map_err(|e| format!("{jobs_file}: {e}"))?;
    let items = isop::jobs::parse_jobs(&text)?;
    let daemon = start_daemon(flags, DaemonConfig::default(), &Telemetry::enabled())?;
    let mut refused = 0usize;
    for (element, job) in items.into_iter().enumerate() {
        let request = Value::Obj(vec![
            ("op".to_string(), Value::Str("submit".to_string())),
            ("job".to_string(), job),
        ]);
        // A refusal is the daemon's typed error line plus the 0-based
        // index of the file element it refuses.
        if let Response::Error { kind, message } = daemon.handle_line(&request.to_json_string()) {
            refused += 1;
            let line = Value::Obj(vec![
                ("ok".to_string(), Value::Bool(false)),
                ("element".to_string(), Value::Num(element as f64)),
                ("error".to_string(), Value::Str(kind)),
                ("message".to_string(), Value::Str(message)),
            ]);
            eprintln!("{}", line.to_json_string());
        }
    }
    let mut epochs = Vec::new();
    while let Some((epoch, report)) = daemon.run_next_epoch()? {
        print_epoch_summary(epoch, &report);
        epochs.push(report);
    }
    if let Some(dir) = flags.get("report-dir") {
        write_engine_reports(dir, &epochs)?;
    }
    if refused > 0 {
        return Err(format!("{refused} job(s) in {jobs_file} refused"));
    }
    Ok(())
}

/// Runs the live optimization daemon on a TCP listen address.
fn cmd_daemon(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("listen")
        .ok_or("daemon requires --listen ADDR (e.g. 127.0.0.1:7878)")?;
    let telemetry = Telemetry::enabled();
    let policy = DaemonConfig {
        quota_em_seconds: flag_f64(flags, "quota-em", 0.0),
        quota_window_epochs: flag_f64(flags, "quota-window", 4.0) as u64,
        ..DaemonConfig::default()
    };
    let daemon = start_daemon(flags, policy, &telemetry)?;
    let listener =
        std::net::TcpListener::bind(addr.as_str()).map_err(|e| format!("listen {addr}: {e}"))?;
    println!("daemon: listening on {addr} (NDJSON; ops: submit, cancel, status, report, shutdown)");
    let daemon = Arc::new(daemon);
    daemon.serve(listener).map_err(|e| e.to_string())?;
    println!(
        "daemon: drained and stopped — {} epoch(s), {} job(s) submitted, {} refused by quota",
        telemetry.counter(Counter::DaemonEpochs),
        telemetry.counter(Counter::DaemonJobsSubmitted),
        telemetry.counter(Counter::QuotaRefusals)
    );
    Ok(())
}

/// Renders one drained epoch as a per-job table plus the headline totals.
fn print_epoch_summary(epoch: u64, rep: &isop::engine::EngineReport) {
    println!(
        "epoch {epoch}: {} job(s) in {} wave(s) on {} core permit(s) (peak leased {}), \
         wall {:.2}s",
        rep.jobs.len(),
        rep.waves,
        rep.cores,
        rep.peak_core_permits,
        rep.wall_seconds
    );
    println!(
        "charged EM {:.1}s, elided {:.1}s, {} cross-job hit(s)",
        rep.em_seconds_charged, rep.em_seconds_saved, rep.cross_job_hits
    );
    let mut table = isop::report::Table::new(vec![
        "job",
        "tenant",
        "task",
        "space",
        "wave",
        "disposition",
        "resolution",
        "ok",
        "charged s",
        "saved s",
    ]);
    for j in &rep.jobs {
        table.push_row(vec![
            j.id.clone(),
            j.tenant.clone(),
            j.task.clone(),
            j.space.clone(),
            j.wave.to_string(),
            j.disposition.clone(),
            j.resolution.clone(),
            j.success.to_string(),
            format!("{:.1}", j.em_seconds_charged),
            format!("{:.1}", j.em_seconds_saved),
        ]);
    }
    println!("{}", table.to_markdown());
}

/// `job-{id}.json`, with anything filesystem-hostile in the id mapped
/// to `-`.
fn job_report_file_name(id: &str) -> String {
    let safe: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("job-{safe}.json")
}

/// Writes one tagged per-job report per job of the drained epochs, plus
/// `engine_report.json` holding the epochs' engine reports as an array,
/// into `dir` — the layout `isop report --aggregate` consumes.
fn write_engine_reports(dir: &str, epochs: &[isop::engine::EngineReport]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let base = std::path::Path::new(dir);
    let jobs: Vec<_> = epochs.iter().flat_map(|rep| &rep.jobs).collect();
    for job in &jobs {
        let path = base.join(job_report_file_name(&job.id));
        let json = job.report.to_json().map_err(|e| format!("{e:?}"))?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = base.join("engine_report.json");
    let json = serde_json::to_string(epochs).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} job report(s) + engine_report.json to {dir}",
        jobs.len()
    );
    Ok(())
}

/// Folds a directory of per-job run reports into one per-tenant table.
fn cmd_report(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = flags
        .get("aggregate")
        .ok_or("report requires --aggregate DIR")?;
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut reports = Vec::new();
    let mut skipped = 0usize;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        // Non-report JSON (e.g. the engine_report.json written alongside
        // the per-job files) simply doesn't parse as a RunReport; skip it.
        match RunReport::from_json(&text) {
            Ok(rep) => reports.push(rep),
            Err(_) => skipped += 1,
        }
    }
    if reports.is_empty() {
        return Err(format!("no run reports found in {dir}"));
    }
    let rows = isop::engine::aggregate_by_tenant(&reports);
    println!(
        "{} run report(s) in {dir} ({} non-report file(s) skipped)",
        reports.len(),
        skipped
    );
    let mut table = isop::report::Table::new(vec![
        "tenant",
        "jobs",
        "ok",
        "full",
        "degraded",
        "failed",
        "charged s",
        "saved s",
        "hit rate",
    ]);
    for row in &rows {
        table.push_row(vec![
            row.tenant.clone(),
            row.jobs.to_string(),
            row.succeeded.to_string(),
            row.full.to_string(),
            row.degraded.to_string(),
            row.failed.to_string(),
            format!("{:.1}", row.em_seconds_charged),
            format!("{:.1}", row.em_seconds_saved),
            format!("{:.3}", row.cache_hit_rate()),
        ]);
    }
    println!("{}", table.to_markdown());
    if let Some(out) = flags.get("out") {
        if let Some(parent) = std::path::Path::new(out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        let json = serde_json::to_string(&rows).map_err(|e| format!("{e:?}"))?;
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote per-tenant aggregate to {out}");
    }
    Ok(())
}

/// Administers a persistent evaluation store: inspect, checksum-verify,
/// compact, and exchange records through the JSON exchange file.
fn cmd_cache(action: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = flags
        .get("cache-dir")
        .ok_or("cache requires --cache-dir DIR")?;
    let path = std::path::Path::new(dir);
    let store = Store::open(path).map_err(|e| format!("cache-dir {dir}: {e}"))?;
    match action {
        "stats" => {
            let s = store.stats().map_err(|e| e.to_string())?;
            // One table: per-space shard occupancy first (which shard each
            // space hashes to, how many records it holds), then the
            // store-wide tallies including the cross-job hit counter.
            let records = store.load_all_evals().map_err(|e| e.to_string())?;
            let mut by_space: std::collections::BTreeMap<u64, u64> =
                std::collections::BTreeMap::new();
            for rec in &records {
                *by_space.entry(rec.space_id).or_insert(0) += 1;
            }
            println!("eval-store at {dir}");
            let mut table = isop::report::Table::new(vec!["row", "shard", "value"]);
            for (space_id, n) in &by_space {
                table.push_row(vec![
                    format!("space {space_id:#014x}"),
                    format!("{:03}", store.shard_of(*space_id)),
                    n.to_string(),
                ]);
            }
            table.push_row(vec![
                "eval records".to_string(),
                format!("{}/{} file(s)", s.shards, s.n_shards),
                s.eval_records.to_string(),
            ]);
            table.push_row(vec![
                "model records".to_string(),
                "-".to_string(),
                s.model_records.to_string(),
            ]);
            table.push_row(vec![
                "skipped records".to_string(),
                "-".to_string(),
                s.skipped.to_string(),
            ]);
            table.push_row(vec![
                "bytes on disk".to_string(),
                "-".to_string(),
                s.bytes.to_string(),
            ]);
            table.push_row(vec![
                "cross-job hits".to_string(),
                "-".to_string(),
                s.cross_job_hits.to_string(),
            ]);
            println!("{}", table.to_markdown());
            Ok(())
        }
        "verify" => {
            let shards = store.verify().map_err(|e| e.to_string())?;
            let mut skipped = 0u64;
            for sh in &shards {
                println!(
                    "shard {:03}: {} valid record(s), {} skipped, {} byte(s)",
                    sh.shard, sh.valid, sh.skipped, sh.bytes
                );
                skipped += sh.skipped;
            }
            if skipped > 0 {
                Err(format!(
                    "{skipped} corrupted record(s) skipped; run `isop cache compact` to drop them"
                ))
            } else {
                println!("all records verify");
                Ok(())
            }
        }
        "compact" => {
            let c = store.compact().map_err(|e| e.to_string())?;
            println!(
                "compacted {dir}: {} -> {} record(s)",
                c.records_before, c.records_after
            );
            Ok(())
        }
        "export" => {
            let out = flags.get("out").ok_or("export requires --out FILE")?;
            let n = isop::evalcache::export_json(&store, std::path::Path::new(out))
                .map_err(|e| e.to_string())?;
            println!("exported {n} record(s) to {out}");
            Ok(())
        }
        "import" => {
            let file = flags.get("file").ok_or("import requires --file FILE")?;
            let n = isop::evalcache::import_json(&store, std::path::Path::new(file))
                .map_err(|e| e.to_string())?;
            println!("imported {n} record(s) from {file} into {dir}");
            Ok(())
        }
        other => Err(format!(
            "unknown cache action '{other}' (use stats, verify, compact, export, import)"
        )),
    }
}

fn usage() {
    eprintln!(
        "isop — inverse stack-up optimization\n\n\
         USAGE:\n  isop simulate [--w 5] [--s 6] [--d 30] [--dk 3.6] [--df 0.008] [--engine fd]\n  \
         isop optimize --task t1 --space s1 [--seed 42] [--trials 1] [--threads 4] [--with-ic]\n           \
         [--em-fault-rate 0.3] [--em-permanent-rate 0.05] [--em-retries 3]\n           \
         [--report] [--report-out results/run_report.json]\n  \
         isop spaces\n  \
         isop dataset --n 1000 --out dataset.json [--space training]\n  \
         isop cache stats|verify|compact --cache-dir DIR\n  \
         isop cache export --cache-dir DIR --out em_cache.json\n  \
         isop cache import --cache-dir DIR --file em_cache.json\n  \
         isop serve --jobs jobs.json [--cores 8] [--wave-slots 4] [--cache-dir DIR]\n           \
         [--report-dir results/engine]\n  \
         isop daemon --listen 127.0.0.1:7878 [--cache-dir DIR] [--cores 8] [--wave-slots 4]\n           \
         [--quota-em SECONDS] [--quota-window EPOCHS]\n  \
         isop report --aggregate results/engine [--out tenants.json]\n\n\
         Bare flags default to optimize: `isop --report --threads 4`.\n\
         `optimize --cache-dir DIR` reuses accurate EM results across runs.\n\
         `daemon` serves NDJSON submit/cancel/status/report over TCP with a\n\
         crash-safe job journal in --cache-dir; `serve` runs a job file\n\
         through the same daemon with no socket and exits non-zero if any\n\
         job is refused."
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    // Bare-flag invocations (`isop --report --threads 4`) default to the
    // optimize subcommand, except the help flags.
    let (cmd, flag_args): (&str, &[String]) =
        if first.starts_with("--") && first != "--help" && first != "-h" {
            ("optimize", &args[..])
        } else {
            (first.as_str(), &args[1..])
        };
    // `cache` takes a positional action (`isop cache stats --cache-dir
    // ...`) before the flags, which the generic flag parser would reject
    // as stray.
    if cmd == "cache" {
        let Some(action) = flag_args.first() else {
            usage();
            return ExitCode::FAILURE;
        };
        return match cmd_cache(action, &parse_flags(&flag_args[1..])) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = parse_flags(flag_args);
    let result = match cmd {
        "simulate" => cmd_simulate(&flags),
        "optimize" => cmd_optimize(&flags),
        "spaces" => {
            cmd_spaces();
            Ok(())
        }
        "dataset" => cmd_dataset(&flags),
        "serve" => cmd_serve(&flags),
        "daemon" => cmd_daemon(&flags),
        "report" => cmd_report(&flags),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => {
            usage();
            Err(format!("unknown command '{other}'"))
        }
    };
    // Usage goes out only for an unknown command: after a run's own error
    // (a refused job, a failed roll-out) it would bury the message.
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
