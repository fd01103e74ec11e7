//! Byte-identity gate across worker counts for every bundled config.
//!
//! `sweep --config` must emit identical bytes at `--jobs 1` and
//! `--jobs 4` — results are keyed by (qps point, replication), never by
//! completion order — and that must hold for each scenario shipped under
//! `configs/`, with and without a fault plan installed. This complements
//! `sweep_determinism.rs`, which pins the quickstart output *shape*; here
//! the concern is that no bundled topology (multi-instance pools,
//! fan-out DAGs) smuggles scheduling nondeterminism into the results.
//!
//! A last gate feeds the removed `window_s` key, inline and in a Table I
//! directory's `sim.json`: it is ignored like any unknown key, so no value
//! can panic or change a run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every scenario config bundled with the CLI (fault plans excluded).
const CONFIGS: [&str; 3] = ["quickstart.json", "two_tier.json", "social_network.json"];

fn config_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("configs")
        .join(name)
}

/// Runs a short sweep of `config` on `jobs` workers, optionally faulted.
fn sweep(config: &str, jobs: usize, faults: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uqsim"));
    cmd.arg("sweep")
        .arg("--config")
        .arg(config_path(config))
        .args(["--qps", "500:1000:500", "--reps", "2", "--duration", "0.8"])
        .args(["--jobs", &jobs.to_string()]);
    if let Some(f) = faults {
        cmd.arg("--faults").arg(config_path(f));
    }
    cmd.output().expect("uqsim binary runs")
}

fn assert_jobs_invariant(config: &str, faults: Option<&str>) {
    let serial = sweep(config, 1, faults);
    assert!(
        serial.status.success(),
        "{config}: serial sweep failed: {serial:?}"
    );
    let parallel = sweep(config, 4, faults);
    assert!(
        parallel.status.success(),
        "{config}: parallel sweep failed: {parallel:?}"
    );
    assert_eq!(
        serial.stdout, parallel.stdout,
        "{config}: table bytes drifted between --jobs 1 and --jobs 4 (faults: {faults:?})"
    );
    // Sanity: the table is not trivially empty (header + one row per point).
    let text = String::from_utf8(serial.stdout).expect("output is UTF-8");
    assert!(
        text.lines().count() >= 3,
        "{config}: expected header + 2 qps rows, got:\n{text}"
    );
}

#[test]
fn every_bundled_config_is_byte_identical_across_jobs() {
    for config in CONFIGS {
        assert_jobs_invariant(config, None);
    }
}

#[test]
fn faulted_sweep_is_byte_identical_across_jobs() {
    // The bundled fault plan names quickstart's instances, so it only
    // applies to that scenario; fault-path determinism for the other
    // topologies is covered by the core crate's property tests.
    assert_jobs_invariant("quickstart.json", Some("quickstart_faults.json"));
}

/// Runs `uqsim run <scenario> --duration 1` and returns its stdout.
fn run_stdout(scenario: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .arg("run")
        .arg(scenario)
        .args(["--duration", "1"])
        .output()
        .expect("uqsim binary runs");
    assert!(
        out.status.success(),
        "run {} failed: {}",
        scenario.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn removed_window_s_key_changes_nothing() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("window-s-key");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let source = config_path("quickstart.json");
    let expected = run_stdout(&source);

    // The Table I directory form of the same scenario.
    let dir = scratch.join("layout");
    let split = Command::new(env!("CARGO_BIN_EXE_uqsim"))
        .arg("split")
        .arg(&source)
        .arg(&dir)
        .output()
        .expect("uqsim binary runs");
    assert!(split.status.success(), "split failed: {split:?}");
    assert_eq!(run_stdout(&dir), expected, "directory form differs");
    let sim_json = std::fs::read_to_string(dir.join("sim.json")).expect("sim.json written");

    let text = std::fs::read_to_string(&source).expect("bundled config");
    for window in ["0", "-0.5", "0.05"] {
        let keyed = |json: &str| json.replacen('{', &format!("{{ \"window_s\": {window},"), 1);
        let inline = scratch.join(format!("inline{window}.json"));
        std::fs::write(&inline, keyed(&text)).expect("write inline config");
        assert_eq!(
            run_stdout(&inline),
            expected,
            "inline window_s {window} changed the run"
        );
        std::fs::write(dir.join("sim.json"), keyed(&sim_json)).expect("write sim.json");
        assert_eq!(
            run_stdout(&dir),
            expected,
            "sim.json window_s {window} changed the run"
        );
    }
}
