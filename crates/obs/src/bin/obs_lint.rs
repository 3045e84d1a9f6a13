//! Validates observability artifacts: NDJSON lifecycle-span streams
//! (`.spans.ndjson`) against the tcw-obs span schema (balanced
//! open/close per message id, monotone `t` within each cell), other
//! NDJSON event streams (`.ndjson`/`.jsonl`) against the event schema,
//! and `.prom` files against the Prometheus text exposition format.
//!
//! Usage: `obs_lint [--require NAME]... FILE...` — each file is
//! dispatched on its extension. Every `--require NAME` demands that the
//! metric family `NAME` is declared in **each** `.prom` file passed
//! (used by CI to pin the engine's `tcw_horizon_*` fast-path counters
//! and the `tcw_aoi_*` age-of-information families into the telemetry
//! stream; a wiring regression that silently drops them would otherwise
//! still lint clean).
//!
//! Files are read one line at a time, so a multi-gigabyte trace lints in
//! memory bounded by its longest line (plus, for span streams, the spans
//! open in one cell).
//!
//! Exit codes: `0` all files valid, `1` usage error, `2` validation
//! failure, missing required family, or unreadable file.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use tcw_obs::lint::{lint_events_from, lint_prom_families_from, lint_spans_from};

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs_lint: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut required: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--require" {
            match it.next() {
                Some(name) => required.push(name.clone()),
                None => {
                    eprintln!("obs_lint: --require needs a metric family name");
                    return ExitCode::from(1);
                }
            }
        } else {
            files.push(arg.clone());
        }
    }
    if files.is_empty() || files.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: obs_lint [--require NAME]... FILE...   (.spans.ndjson = span stream, .ndjson/.jsonl = event stream, .prom = exposition)"
        );
        return ExitCode::from(1);
    }
    for path in &files {
        let reader = match File::open(path) {
            Ok(f) => BufReader::new(f),
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        if path.ends_with(".spans.ndjson") || path.ends_with(".spans.jsonl") {
            match lint_spans_from(reader) {
                Ok(s) => println!(
                    "obs_lint: {path}: ok ({} lines, {} cells, {} spans)",
                    s.lines, s.cells, s.spans
                ),
                Err(e) => return fail(&format!("{path}: {e}")),
            }
        } else if path.ends_with(".ndjson") || path.ends_with(".jsonl") {
            match lint_events_from(reader) {
                Ok(s) => println!(
                    "obs_lint: {path}: ok ({} lines, {} cells, {} events)",
                    s.lines, s.cells, s.events
                ),
                Err(e) => return fail(&format!("{path}: {e}")),
            }
        } else if path.ends_with(".prom") {
            match lint_prom_families_from(reader) {
                Ok((s, families)) => {
                    for name in &required {
                        if !families.contains(name) {
                            return fail(&format!(
                                "{path}: required metric family {name:?} is not declared"
                            ));
                        }
                    }
                    println!(
                        "obs_lint: {path}: ok ({} families, {} samples)",
                        s.families, s.samples
                    )
                }
                Err(e) => return fail(&format!("{path}: {e}")),
            }
        } else {
            eprintln!(
                "obs_lint: {path}: unknown extension (want .spans.ndjson, .ndjson, .jsonl or .prom)"
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
