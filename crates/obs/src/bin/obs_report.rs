//! Offline analyzer for lifecycle-span streams (`*.spans.ndjson`):
//! reconstructs per-message lifecycles and prints, per sweep cell,
//! outcome counts, collision-resolution episode statistics, the
//! queueing/contention/resolution latency breakdown, a per-station
//! age-of-information summary and deadline-miss forensics.
//!
//! Usage: `obs_report [--deadline TICKS] [--top N] FILE...`
//!
//! `--deadline TICKS` classifies deliveries with `true_delay > TICKS` as
//! late and includes them in the forensics section (discards and churn
//! drops are always included). `--top N` bounds each ranked list
//! (default 5). Parsing tolerates streams a crash cut short: unclosed
//! spans are reported, not fatal.
//!
//! Exit codes: `0` report printed, `1` usage error, `2` unreadable or
//! malformed file.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use tcw_obs::report::{parse_spans_from, render_report};

fn usage() -> ExitCode {
    eprintln!("usage: obs_report [--deadline TICKS] [--top N] FILE...");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deadline: Option<u64> = None;
    let mut top: usize = 5;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deadline" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => deadline = Some(v),
                None => {
                    eprintln!("obs_report: --deadline needs an integer tick count");
                    return usage();
                }
            },
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => top = v,
                None => {
                    eprintln!("obs_report: --top needs an integer");
                    return usage();
                }
            },
            "--help" | "-h" => return usage(),
            _ => files.push(arg.clone()),
        }
    }
    if files.is_empty() {
        return usage();
    }
    for path in &files {
        let reader = match File::open(path) {
            Ok(f) => BufReader::new(f),
            Err(e) => {
                eprintln!("obs_report: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cells = match parse_spans_from(reader) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("obs_report: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!("== {path}");
        print!("{}", render_report(&cells, deadline, top));
    }
    ExitCode::SUCCESS
}
