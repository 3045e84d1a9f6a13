//! Command-line contract of the sweep binaries: a malformed `--jobs` is a
//! usage error — reported as `tool: message`, exit code 1 — and never a
//! panic.

use std::process::Command;

const SWEEP_BINARIES: [(&str, &str); 9] = [
    ("ablate", env!("CARGO_BIN_EXE_ablate")),
    ("adaptive", env!("CARGO_BIN_EXE_adaptive")),
    ("aoi", env!("CARGO_BIN_EXE_aoi")),
    ("chaos", env!("CARGO_BIN_EXE_chaos")),
    ("churn", env!("CARGO_BIN_EXE_churn")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("limits", env!("CARGO_BIN_EXE_limits")),
    ("robustness", env!("CARGO_BIN_EXE_robustness")),
    ("wait_dist", env!("CARGO_BIN_EXE_wait_dist")),
];

#[test]
fn malformed_jobs_is_a_usage_error() {
    // The binaries write `results/` relative to the working directory;
    // run them where a stray write cannot touch the repository.
    let dir = std::env::temp_dir().join(format!("tcw_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (tool, exe) in SWEEP_BINARIES {
        for args in [&["--jobs", "x"][..], &["--jobs"]] {
            let out = Command::new(exe)
                .current_dir(&dir)
                .args(args)
                .output()
                .expect("spawn sweep binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{tool} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{tool} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("{tool}: --jobs")),
                "{tool} {args:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `churn` and `robustness` take no flag of their own besides `--jobs`
/// (and a leading `--replay PATH`): after the shared telemetry and
/// supervision flags are split off, a misspelled or unknown argument is a
/// usage error instead of a silently ignored one that runs the full sweep.
#[test]
fn unknown_arguments_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("tcw_cli_unknown_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let tools = [
        ("churn", env!("CARGO_BIN_EXE_churn")),
        ("robustness", env!("CARGO_BIN_EXE_robustness")),
    ];
    for (tool, exe) in tools {
        for (args, bad) in [
            (&["--jbos", "2", "--resmue", "x"][..], "--jbos"),
            (&["--jobs", "2", "--resmue", "x"], "--resmue"),
            (&["--jobs=2", "extra"], "extra"),
            (&["--progress", "--quick"], "--quick"),
            (&["--replay", "artifact.json", "--jobs", "2"], "--jobs"),
        ] {
            let out = Command::new(exe)
                .current_dir(&dir)
                .args(args)
                .output()
                .expect("spawn sweep binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{tool} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{tool} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("{tool}: unknown argument \"{bad}\"")),
                "{tool} {args:?}: {stderr}"
            );
            assert!(
                !dir.join("results").exists(),
                "{tool} {args:?} ran the sweep"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
