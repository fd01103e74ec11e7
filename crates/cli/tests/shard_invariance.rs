//! End-to-end gate for the one-execution-path invariant: every command
//! runs through the partitioned engine, so its output does not depend on
//! `--shards` — absent ≡ `--shards 1` ≡ `--shards 4` — byte for byte, on
//! stdout and in every file it writes. The bundled configs each form a
//! single request-closed cell; that such a run equals one simulator under
//! the master seed is pinned by the goldens and by
//! `single_cell_partitioned_csv_is_passthrough`.
//!
//! A second gate pins `--gen`: the spec is generated in memory, so two
//! runs print identical bytes and leave nothing in the temp directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use uqsim_core::config::ScenarioConfig;
use uqsim_core::PartitionPlan;

const CONFIGS: &[(&str, Option<&str>)] = &[
    ("quickstart", None),
    ("quickstart", Some("quickstart_faults")),
    ("two_tier", None),
    ("social_network", None),
    ("social_network", Some("social_network_faults")),
];

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs the binary from the crate root (relative paths keep report
/// headers checkout-independent) and asserts it succeeded.
fn uqsim(args: &[String], tmpdir: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uqsim"));
    cmd.current_dir(crate_dir()).args(args);
    if let Some(dir) = tmpdir {
        cmd.env("TMPDIR", dir);
    }
    let out = cmd.output().expect("uqsim binary runs");
    assert!(
        out.status.success(),
        "uqsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A fresh, empty scratch directory under the target tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("shard-invariance-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Files by name, with their bytes.
type Files = Vec<(String, Vec<u8>)>;

/// Every file under `dir`, sorted by name, with its bytes.
fn files(dir: &Path) -> Files {
    let mut out: Files = std::fs::read_dir(dir)
        .expect("output dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("output file"),
            )
        })
        .collect();
    out.sort();
    out
}

/// The commands under test for one config; `{out}` stands for the
/// per-run output directory.
fn commands(config: &str, faults: Option<&str>) -> Vec<Vec<String>> {
    let cfg = format!("configs/{config}.json");
    let fault_args: Vec<String> = faults
        .map(|f| vec!["--faults".into(), format!("configs/{f}.json")])
        .unwrap_or_default();
    let with = |args: &[&str], faults: bool| -> Vec<String> {
        let mut v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        if faults {
            v.extend(fault_args.iter().cloned());
        }
        v
    };
    let mut cmds = vec![
        with(&["run", &cfg, "--duration", "0.55"], true),
        with(&["run", &cfg, "--duration", "0.55", "--json"], true),
        with(
            &[
                "run",
                &cfg,
                "--duration",
                "0.55",
                "--metrics-out",
                "{out}",
                "--sample-interval",
                "0.05",
            ],
            true,
        ),
        with(
            &[
                "why",
                "--config",
                &cfg,
                "--duration",
                "0.55",
                "--json",
                "--out",
                "{out}",
            ],
            true,
        ),
        with(
            &[
                "sweep",
                "--config",
                &cfg,
                "--qps",
                "2000",
                "--reps",
                "1",
                "--duration",
                "0.55",
                "--out",
                "{out}/sweep.csv",
            ],
            true,
        ),
    ];
    if faults.is_some() {
        cmds.push(with(&["chaos", &cfg, "--duration", "0.55"], true));
    } else {
        cmds.push(with(
            &[
                "trace",
                "--config",
                &cfg,
                "--duration",
                "0.52",
                "--out",
                "{out}/trace.json",
            ],
            false,
        ));
    }
    cmds
}

/// Runs every command of one config with `--shards` absent, 1, and 4 and
/// asserts the outputs are identical.
fn check_config(config: &str, faults: Option<&str>) {
    let text = std::fs::read_to_string(crate_dir().join(format!("configs/{config}.json")))
        .expect("bundled config");
    let cfg = ScenarioConfig::from_json(&text).expect("bundled config parses");
    assert_eq!(
        PartitionPlan::new(&cfg, 4).expect("plan").cells.len(),
        1,
        "{config} must form one cell, or this test compares nothing"
    );
    for (i, cmd) in commands(config, faults).into_iter().enumerate() {
        let mut seen: Option<(Vec<u8>, Files)> = None;
        for shards in [None, Some("1"), Some("4")] {
            let dir = scratch(&format!(
                "{config}-{}-{i}-{}",
                faults.is_some(),
                shards.unwrap_or("none")
            ));
            let out_dir = dir.to_string_lossy();
            let mut args: Vec<String> = cmd.iter().map(|a| a.replace("{out}", &out_dir)).collect();
            if let Some(k) = shards {
                args.extend(["--shards".to_string(), k.to_string()]);
            }
            let out = uqsim(&args, None);
            assert!(!out.stdout.is_empty() || !files(&dir).is_empty());
            let got = (out.stdout, files(&dir));
            match &seen {
                None => seen = Some(got),
                Some(base) => assert!(
                    *base == got,
                    "{args:?}: output differs from the run without --shards"
                ),
            }
        }
    }
}

#[test]
fn output_is_identical_with_and_without_shards() {
    std::thread::scope(|s| {
        for &(config, faults) in CONFIGS {
            s.spawn(move || check_config(config, faults));
        }
    });
}

#[test]
fn why_gen_is_reproducible_and_leaves_no_temp_files() {
    let tmp = scratch("gen-tmpdir");
    let args: Vec<String> = [
        "why",
        "--gen",
        "configs/gen_dsb.json",
        "--seed",
        "3",
        "--duration",
        "0.25",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let a = uqsim(&args, Some(&tmp));
    let b = uqsim(&args, Some(&tmp));
    assert_eq!(a.stdout, b.stdout, "why --gen stdout is not reproducible");
    let header = String::from_utf8_lossy(&a.stdout);
    assert!(
        header.starts_with("why: configs/gen_dsb.json (seed 3,"),
        "header does not name the spec: {header}"
    );
    assert!(
        files(&tmp).is_empty(),
        "--gen left files in TMPDIR: {:?}",
        files(&tmp).iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
}
