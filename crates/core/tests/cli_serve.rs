//! `isop serve --jobs FILE` end to end through the real binary: a job file
//! is a daemon epoch with no socket, so every element is accepted or
//! refused on its own, and a `--cache-dir` store keeps job ids unique and
//! warm-starts later runs.

use isop::prelude::RunReport;
use std::path::{Path, PathBuf};
use std::process::Output;

/// A unique scratch directory, removed by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("isop-cli-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    /// Writes `jobs` as a job file named `name` and returns its path.
    fn job_file(&self, name: &str, jobs: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, jobs).expect("write job file");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const VALID_PAIR: &str = r#"[
  {"id": "a", "tenant": "acme", "task": "t1", "space": "s1", "seed": 3},
  {"id": "b", "tenant": "blue", "task": "t1", "space": "s2", "seed": 4}
]"#;

/// Runs `isop serve` on `jobs` against the store at `scratch/store`,
/// writing reports to `scratch/<out>`.
fn serve(scratch: &Scratch, jobs: &Path, out: &str) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_isop"))
        .arg("serve")
        .arg("--jobs")
        .arg(jobs)
        .args(["--wave-slots", "2", "--cores", "2"])
        .arg("--cache-dir")
        .arg(scratch.0.join("store"))
        .arg("--report-dir")
        .arg(scratch.0.join(out))
        .output()
        .expect("run isop serve")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn job_report(scratch: &Scratch, out: &str, id: &str) -> RunReport {
    let path = scratch.0.join(out).join(format!("job-{id}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    RunReport::from_json(&text).expect("per-job run report")
}

#[test]
fn refused_element_fails_the_run_but_not_its_neighbors() {
    let scratch = Scratch::new("refused");
    let jobs = scratch.job_file(
        "jobs.json",
        r#"[
  {"id": "a", "tenant": "acme", "task": "t1", "space": "s1", "seed": 3},
  {"id": "bad", "task": "t9"},
  {"id": "b", "tenant": "blue", "task": "t1", "space": "s2", "seed": 4}
]"#,
    );
    let output = serve(&scratch, &jobs, "out");
    let err = stderr(&output);
    assert!(
        !output.status.success(),
        "a refused element must fail the run"
    );
    assert!(
        err.lines().any(|l| l.contains(r#""error":"unknown_task""#)),
        "stderr: {err}"
    );
    for id in ["a", "b"] {
        let report = job_report(&scratch, "out", id);
        assert_eq!(report.job, id);
        assert!(
            report.em_seconds_charged > 0.0,
            "job {id} ran on a fresh store"
        );
    }
    assert!(!scratch.0.join("out").join("job-bad.json").exists());
}

#[test]
fn rerun_on_the_same_store_refuses_known_ids() {
    let scratch = Scratch::new("rerun");
    let jobs = scratch.job_file("jobs.json", VALID_PAIR);
    let first = serve(&scratch, &jobs, "first");
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    let again = serve(&scratch, &jobs, "again");
    let err = stderr(&again);
    assert!(!again.status.success(), "a rerun must fail on known ids");
    assert_eq!(
        err.lines()
            .filter(|l| l.contains(r#""error":"duplicate_id""#))
            .count(),
        2,
        "stderr: {err}"
    );
}

#[test]
fn new_id_twin_of_a_finished_job_charges_nothing() {
    let scratch = Scratch::new("twin");
    let first = serve(
        &scratch,
        &scratch.job_file("jobs.json", VALID_PAIR),
        "first",
    );
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    let twin = scratch.job_file(
        "twin.json",
        r#"[{"id": "a-twin", "tenant": "acme", "task": "t1", "space": "s1", "seed": 3}]"#,
    );
    let output = serve(&scratch, &twin, "twin");
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let report = job_report(&scratch, "twin", "a-twin");
    assert_eq!(
        report.em_seconds_charged, 0.0,
        "the store holds every design"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("charged EM 0.0s"), "stdout: {stdout}");
}

#[test]
fn empty_ids_continue_past_the_journaled_ones() {
    let scratch = Scratch::new("auto-id");
    let first = serve(
        &scratch,
        &scratch.job_file("one.json", r#"[{"seed": 1}]"#),
        "one",
    );
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    assert_eq!(job_report(&scratch, "one", "job-0").job, "job-0");

    let second = serve(
        &scratch,
        &scratch.job_file("two.json", r#"[{"seed": 2}]"#),
        "two",
    );
    assert!(second.status.success(), "stderr: {}", stderr(&second));
    assert_eq!(job_report(&scratch, "two", "job-1").job, "job-1");
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(stdout.contains("job-1"), "stdout: {stdout}");
}

#[test]
fn every_refusal_line_names_its_element() {
    let scratch = Scratch::new("element");
    let jobs = scratch.job_file(
        "jobs.json",
        r#"[
  {"id": "a", "tenant": "acme", "task": "t1", "space": "s1", "seed": 3},
  5,
  {"id": "bad", "task": "t9"}
]"#,
    );
    let output = serve(&scratch, &jobs, "out");
    let err = stderr(&output);
    assert!(!output.status.success(), "refusals must fail the run");
    let refusals: Vec<&str> = err
        .lines()
        .filter(|l| l.contains(r#""ok":false"#))
        .collect();
    assert_eq!(refusals.len(), 2, "stderr: {err}");
    assert!(
        refusals[0].contains(r#""element":1,"error":"bad_request""#),
        "stderr: {err}"
    );
    assert!(
        refusals[1].contains(r#""element":2,"error":"unknown_task""#),
        "stderr: {err}"
    );
    assert_eq!(job_report(&scratch, "out", "a").job, "a");
}
