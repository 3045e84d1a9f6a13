//! Chaos harness: composed stress sweeps under the invariant monitor.
//!
//! Samples thousands of seeded configs composing fault injection,
//! membership churn, piecewise/adversarial load and all three window
//! controllers, runs each under the `tcw-window` runtime invariant
//! monitor (with the mirror divergence detector as a differential check
//! where it is sound), and delta-debugs any failure down to a minimal
//! version-stamped replay artifact. Results land in `results/chaos.csv`
//! and `results/chaos.txt`; failure artifacts under `results/failures/`.
//!
//! ```text
//! chaos [--configs N] [--jobs N] [--trace-events P] [--metrics P] [--progress]
//! chaos --replay PATH             # must reproduce the recorded outcome
//! chaos --inject MUTATION [PATH]  # seed a violation, shrink it, verify replay
//! ```
//!
//! The sweep runs under the crash-safe supervisor (`--resume PATH`,
//! `--cell-timeout SECS`, `--retries N`), which journals completed cells
//! and quarantines hopeless ones instead of aborting the sweep;
//! `--inject-panic CELL` / `--inject-slow CELL` exist to exercise exactly
//! that machinery from CI.
//!
//! `MUTATION` is one of `drop_delivery`, `reorder_pair`, `stale_clock`.
//! Exit codes follow the shared convention: `0` clean, `1` usage,
//! `2` failure (violation found, replay diverged, artifact stale,
//! quarantined cells).

use std::path::Path;
use tcw_experiments::chaos::{
    execute, inject_config, replay, run_observed, shrink, ChaosConfig, ChaosOutcome, ChaosRecord,
    Mutation, BASE_SEED, DEFAULT_CONFIGS,
};
use tcw_experiments::diag;
use tcw_experiments::plot::write_csv;
use tcw_experiments::{supervised_cells, Cli, Flag};

fn shrink_report(orig: &ChaosConfig, out: &ChaosOutcome) -> (ChaosRecord, String) {
    let mut log = String::new();
    log.push_str(&format!(
        "shrinking [{}/{}] seed={} ({} trials max)\n",
        out.kind,
        out.class,
        orig.seed,
        tcw_experiments::chaos::SHRINK_BUDGET
    ));
    let res = shrink(orig, &out.kind, &out.class);
    for step in &res.steps {
        log.push_str(&format!(
            "  {} {}\n",
            if step.kept { "KEEP" } else { "drop" },
            step.action
        ));
    }
    let min_out = execute(&res.config);
    log.push_str(&format!(
        "  fixpoint after {} trials: horizon={} stations={} segments={} controller={} -> [{}/{}] {}\n",
        res.trials,
        res.config.horizon_ticks,
        res.config.stations,
        res.config.segments.len(),
        res.config.controller.label(),
        min_out.kind,
        min_out.class,
        min_out.detail,
    ));
    let rec = ChaosRecord {
        config: res.config,
        kind: min_out.kind,
        class: min_out.class,
        detail: min_out.detail,
    };
    (rec, log)
}

fn inject_mode(args: &[String]) -> i32 {
    let Some(mutation) = args.first().and_then(|s| Mutation::parse(s)) else {
        diag::error(
            "chaos",
            "--inject needs a mutation: drop_delivery | reorder_pair | stale_clock",
        );
        return diag::EXIT_USAGE;
    };
    let Some(expected) = mutation.expected_class() else {
        diag::error(
            "chaos",
            "--inject none is a no-op; pick a corrupting mutation",
        );
        return diag::EXIT_USAGE;
    };
    let default_path = format!("results/failures/chaos_injected_{}.json", mutation.label());
    let path = args.get(1).cloned().unwrap_or(default_path);
    let cfg = inject_config(mutation);
    println!(
        "injecting {} into a clean static-controller run (seed {})",
        mutation.label(),
        cfg.seed
    );
    let out = execute(&cfg);
    if out.kind != "violation" || out.class != expected {
        diag::error(
            "chaos",
            &format!(
                "seeded mutation was NOT caught: expected violation/{expected}, got [{}/{}] {}",
                out.kind, out.class, out.detail
            ),
        );
        return diag::EXIT_FAILURE;
    }
    println!(
        "monitor caught it: [{}/{}] {}",
        out.kind, out.class, out.detail
    );
    let (rec, log) = shrink_report(&cfg, &out);
    print!("{log}");
    if rec.kind != "violation" || rec.class != expected {
        diag::error(
            "chaos",
            "shrunk config no longer reproduces the violation class",
        );
        return diag::EXIT_FAILURE;
    }
    let path = Path::new(&path);
    if let Err(e) = rec.save(path) {
        diag::error("chaos", &format!("cannot write {}: {e}", path.display()));
        return diag::EXIT_FAILURE;
    }
    println!("minimal artifact written to {}", path.display());
    // Verify the artifact replays before handing it to CI: a faithful
    // reproduction of a violation exits EXIT_FAILURE by convention.
    let code = replay(path);
    if code != diag::EXIT_FAILURE {
        diag::error(
            "chaos",
            &format!("replay of the minimal artifact exited {code}, want EXIT_FAILURE"),
        );
        return diag::EXIT_FAILURE;
    }
    println!("replay verified (exit {code} on reproduced violation, as specified)");
    0
}

fn main() {
    let cli = Cli::from_env(
        "chaos",
        &[
            Flag::value("--configs"),
            Flag::value("--inject-panic"),
            Flag::value("--inject-slow"),
            Flag::operands("--inject", 1, 2).alone(),
            Flag::value("--replay").alone(),
        ],
    );
    if let Some(path) = cli.operands("--replay") {
        std::process::exit(replay(Path::new(&path[0])));
    }
    if let Some(args) = cli.operands("--inject") {
        std::process::exit(inject_mode(args));
    }
    let inject_panic: Option<usize> = cli.value("--inject-panic");
    let inject_slow: Option<usize> = cli.value("--inject-slow");
    let configs = cli.value("--configs").unwrap_or(DEFAULT_CONFIGS);

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    println!(
        "chaos sweep: {configs} composed configs (faults x churn x load x controllers), \
         invariant monitor on, base seed {BASE_SEED:#x}\n"
    );

    // The fingerprint covers everything that defines the cell grid; the
    // inject flags are deliberately excluded so a clean resume can reuse
    // the journal of an injected (crashed) run.
    let sampled = |i: usize| ChaosConfig::sample(BASE_SEED, i as u64);
    let outcomes = supervised_cells(
        &cli,
        configs,
        tcw_sim::snap::checksum(&[BASE_SEED, configs as u64]),
        |i| {
            let controller = sampled(i).controller.label();
            let labels = vec![
                ("config", format!("{i}")),
                ("controller", controller.into()),
            ];
            (format!("config {i} ({controller})"), labels)
        },
        |_, _| None,
        move |i, obs, sink| {
            if inject_panic == Some(i) {
                panic!("injected panic in cell {i}");
            }
            if inject_slow == Some(i) {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
            run_observed(&sampled(i), obs, sink)
        },
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = String::new();
    let mut failures: Vec<(u64, ChaosConfig, ChaosOutcome)> = Vec::new();
    let mut kind_counts = [0u64; 4];
    for (i, out) in outcomes.iter().enumerate() {
        let index = i as u64;
        let cfg = sampled(i);
        let kind_idx = match out.kind.as_str() {
            "ok" => 0,
            "violation" => 1,
            "divergence" => 2,
            _ => 3,
        };
        kind_counts[kind_idx] += 1;
        rows.push(vec![
            format!("{index}"),
            format!("{}", cfg.seed),
            cfg.controller.label().to_string(),
            format!("{}", cfg.stations),
            format!("{}", cfg.horizon_ticks),
            format!("{}", u8::from(!cfg.plan.is_none())),
            format!("{}", u8::from(cfg.churn != tcw_mac::ChurnPlan::none())),
            format!("{}", cfg.segments.len()),
            format!("{}", u8::from(cfg.adv_burst > 0)),
            out.kind.clone(),
            out.class.clone(),
            format!("{}", out.checks),
            format!("{}", out.violations),
            format!("{}", out.divergences),
            format!("{}", out.offered),
            format!("{}", out.deliveries),
            format!("{}", out.loss),
        ]);
        if out.kind != "ok" {
            failures.push((index, cfg, out.clone()));
        }
    }

    let summary = format!(
        "configs={} ok={} violations={} divergences={} panics={}\n",
        configs, kind_counts[0], kind_counts[1], kind_counts[2], kind_counts[3]
    );
    println!("{summary}");
    report.push_str(&summary);
    let total_checks: u64 = outcomes.iter().map(|o| o.checks).sum();
    let total_deliveries: u64 = outcomes.iter().map(|o| o.deliveries).sum();
    let detail = format!(
        "monitor checks={total_checks} deliveries={total_deliveries} (base seed {BASE_SEED:#x})\n"
    );
    print!("{detail}");
    report.push_str(&detail);

    // Shrink failures serially in index order so artifacts and the
    // report are deterministic regardless of --jobs.
    for (index, cfg, out) in &failures {
        let (rec, log) = shrink_report(cfg, out);
        print!("{log}");
        report.push_str(&log);
        let path = failures_dir.join(format!("chaos_{index}_{}.json", out.kind));
        rec.save(&path).expect("write replay artifact");
        let line = format!(
            "  artifact: {}\n  reproduce: cargo run --release -p tcw-experiments --bin chaos -- --replay {}\n",
            path.display(),
            path.display()
        );
        print!("{line}");
        report.push_str(&line);
    }

    write_csv(
        &results.join("chaos.csv"),
        &[
            "config",
            "seed",
            "controller",
            "stations",
            "horizon_ticks",
            "faults",
            "churn",
            "segments",
            "adversary",
            "kind",
            "class",
            "checks",
            "violations",
            "divergences",
            "offered",
            "deliveries",
            "loss",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("chaos.txt"), &report).expect("write report");
    println!("wrote results/chaos.csv and results/chaos.txt");
    if !failures.is_empty() {
        diag::error(
            "chaos",
            &format!("{} config(s) failed invariants", failures.len()),
        );
        std::process::exit(diag::EXIT_FAILURE);
    }
}
