//! Command-line contract of the sweep binaries: a malformed value of a
//! shared flag or an unknown argument is a usage error — reported as
//! `tool: message`, exit code 1 — and never a panic or a silently
//! ignored argument.

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

/// The binary's own flags, each as a complete argument list.
fn own_flags(tool: &str) -> Vec<Vec<&'static str>> {
    let flags: &[&[&str]] = match tool {
        "adaptive" => &[
            &["--replay", "a.json"],
            &["--record", "step", "aimd", "0", "a.json"],
            &["--episode"],
        ],
        "aoi" => &[&["--obs-cell"]],
        "chaos" => &[
            &["--configs", "2"],
            &["--inject-panic", "0"],
            &["--inject-slow", "1"],
            &["--inject", "reorder_pair"],
            &["--inject", "reorder_pair", "a.json"],
            &["--replay", "a.json"],
        ],
        "churn" | "robustness" => &[&["--replay", "a.json"]],
        "fig7" => &[&["--quick"], &["--obs-cell"], &["rho50_m25", "rho75_m100"]],
        _ => &[],
    };
    flags.iter().map(|f| f.to_vec()).collect()
}

fn run_in(dir: &std::path::Path, exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn sweep binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every sweep binary parses its command line in one place: a misspelled
/// or unknown argument is a usage error instead of a silently ignored one
/// that runs the full sweep, and a mode flag (`--replay PATH`) takes no
/// other argument.
#[test]
fn unknown_arguments_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("tcw_cli_unknown_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (tool, exe) in SWEEP_BINARIES {
        let mut cases = vec![
            (vec!["--jbos", "2", "--quick"], "--jbos"),
            (vec!["--bogus"], "--bogus"),
            (vec!["--jbos", "2", "--resmue", "x"], "--jbos"),
            (vec!["--jobs", "2", "--resmue", "x"], "--resmue"),
            (vec!["--jobs=2", "extra"], "extra"),
            (vec!["--progress", "--quikc"], "--quikc"),
            (vec!["--progress=1"], "--progress=1"),
        ];
        if own_flags(tool).iter().all(|f| f[0] != "--quick") {
            cases.push((vec!["--progress", "--quick"], "--quick"));
        }
        if own_flags(tool).iter().any(|f| f[0] == "--replay") {
            cases.push((vec!["--replay", "artifact.json", "--jobs", "2"], "--jobs"));
        }
        for (args, bad) in cases {
            let (code, stderr) = run_in(&dir, exe, &args);
            assert_eq!(code, Some(1), "{tool} {args:?}: {stderr}");
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

/// The shared flags and each binary's own flags are accepted: parsing
/// gets past all of them to the malformed `--jobs x` that follows.
#[test]
fn own_and_shared_flags_are_accepted() {
    let dir = std::env::temp_dir().join(format!("tcw_cli_accepted_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let shared = [
        "--resume",
        "j.journal",
        "--cell-timeout=5",
        "--retries",
        "1",
        "--trace-events",
        "t.ndjson",
        "--spans",
        "s.spans.ndjson",
        "--metrics=m.prom",
        "--progress",
    ];
    for (tool, exe) in SWEEP_BINARIES {
        let mut lists = own_flags(tool);
        lists.push(shared.to_vec());
        for mut args in lists {
            args.extend(["--jobs", "x"]);
            let (code, stderr) = run_in(&dir, exe, &args);
            assert_eq!(code, Some(1), "{tool} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("{tool}: --jobs expects")),
                "{tool} {args:?}: {stderr}"
            );
        }
    }
    assert!(!dir.join("results").exists(), "a binary ran its sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--cell-timeout` too large for a `Duration` is a usage error, not a
/// panic in the conversion.
#[test]
fn out_of_range_cell_timeout_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("tcw_cli_timeout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (tool, exe) in SWEEP_BINARIES {
        for args in [&["--cell-timeout", "1e300"][..], &["--cell-timeout=inf"]] {
            let (code, stderr) = run_in(&dir, exe, args);
            assert_eq!(code, Some(1), "{tool} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{tool} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("{tool}: --cell-timeout")),
                "{tool} {args:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry outputs are created before the first cell runs, so a path
/// that cannot be written fails the sweep up front (exit 2) instead of
/// after it. A fresh `--resume` journal proves that no cell ran: it is
/// created before the outputs and still holds only its header line.
#[test]
fn unwritable_telemetry_path_fails_before_any_cell_runs() {
    let dir = std::env::temp_dir().join(format!("tcw_cli_telemetry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("a_directory")).expect("create temp dirs");
    let cases: [(&str, &str, &[&str]); 2] = [
        (
            "churn",
            env!("CARGO_BIN_EXE_churn"),
            &["--jobs", "2", "--metrics", "/proc/nope/x.prom"],
        ),
        (
            "aoi",
            env!("CARGO_BIN_EXE_aoi"),
            &["--jobs", "2", "--spans", "a_directory"],
        ),
    ];
    for (tool, exe, args) in cases {
        let journal = dir.join(format!("{tool}.journal"));
        let mut args = args.to_vec();
        args.extend(["--resume", journal.to_str().unwrap()]);
        let (code, stderr) = run_in(&dir, exe, &args);
        assert_eq!(code, Some(2), "{tool} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tool} {args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("{tool}: ")), "{tool}: {stderr}");
        let text = std::fs::read_to_string(&journal).expect("journal created");
        assert_eq!(text.lines().count(), 1, "{tool} ran cells: {text}");
        let csv = dir.join("results").join(format!("{tool}.csv"));
        assert!(!csv.exists(), "{tool} wrote results");
    }
    assert!(dir.join("a_directory").is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}
