//! Age-of-Information sweep: freshness of the protocol under deadline
//! control.
//!
//! Sweeps deadline K × offered load for the controlled and FCFS window
//! orders at M = 25, measuring the per-station age process next to the
//! conventional loss/utilization figures: time-averaged age, mean peak
//! age, and the fraction of observed time the age exceeded the deadline
//! K (all in units of `tau`, exact integer sawtooth underneath — see
//! `tcw_window::metrics::AgeTracker`). Results land in
//! `results/aoi.csv` and `results/aoi.txt`.
//!
//! The sweep is fully deterministic (fixed seed, no wall-clock values),
//! so both artifacts are committed and CI regenerates them under
//! `git diff --exit-code`. Telemetry flags (`--spans PATH`,
//! `--metrics PATH`, `--trace-events PATH`) attach passive observers
//! whose output is byte-identical for any `--jobs N`; `--obs-cell` runs
//! a single tiny sample cell whose span stream and metrics registry are
//! committed under `results/obs/` for forensics walkthroughs
//! (see EXPERIMENTS.md) and CI lint.

use std::fmt::Write as _;
use std::path::Path;
use tcw_experiments::diag;
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::runner::{PolicyKind, SimSettings};
use tcw_experiments::{run_scenarios, Cli, Flag, Panel, Scenario};

const K_TAUS: [f64; 3] = [25.0, 50.0, 100.0];
const LOADS: [f64; 3] = [0.25, 0.50, 0.75];
const KINDS: [PolicyKind; 2] = [PolicyKind::Controlled, PolicyKind::Fcfs];
const M: u64 = 25;
const SEED: u64 = 1983;

fn settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 8_000,
        warmup: 800,
        ..Default::default()
    }
}

/// One grid cell at deadline `k`, load `rho_prime` and policy `kind`.
fn cell(k: f64, rho_prime: f64, kind: PolicyKind, settings: SimSettings) -> Scenario {
    Scenario::clean(Panel { rho_prime, m: M }, kind, k, settings, SEED)
}

fn grid() -> Vec<Scenario> {
    let mut cells = Vec::new();
    for &k in &K_TAUS {
        for &rho_prime in &LOADS {
            for &kind in &KINDS {
                cells.push(cell(k, rho_prime, kind, settings()));
            }
        }
    }
    cells
}

/// Runs the single tiny sample cell behind `--obs-cell`: busy panel,
/// controlled protocol, tight deadline — small enough that the full span
/// stream is a readable, committable artifact, busy enough to exhibit
/// collisions and a deadline discard for the EXPERIMENTS.md forensics
/// walkthrough. Fully deterministic, so CI diff-checks the outputs.
fn run_obs_cell(cli: &Cli) {
    let (Some(spans), Some(metrics)) = (&cli.obs.spans, &cli.obs.metrics) else {
        diag::usage(
            "aoi",
            "--obs-cell needs both --spans PATH and --metrics PATH",
        );
    };
    let settings = SimSettings {
        ticks_per_tau: 8,
        messages: 12,
        warmup: 2,
        stations: 20,
        guard: false,
    };
    let c = cell(25.0, 0.75, PolicyKind::Controlled, settings);
    let id = c.panel.id();
    let label = format!("{id} {} K={}", c.policy.label(), c.k_tau);
    let describe = |c: &Scenario| {
        let labels = vec![
            ("panel", id.clone()),
            ("policy", c.policy.label().to_string()),
            ("k", "25".to_string()),
            ("seed", "1983".to_string()),
        ];
        (label.clone(), labels)
    };
    let run = run_scenarios(cli, &[c], describe, |_| None)[0];
    println!(
        "obs-cell: {label} (seed {SEED}) loss={:.6} offered={} mean_age={:.3} tau -> {} + {}",
        run.point.loss,
        run.point.offered,
        run.aoi.mean_age_tau,
        spans.display(),
        metrics.display(),
    );
}

fn main() {
    let cli = Cli::from_env("aoi", &[Flag::switch("--obs-cell")]);
    if cli.has("--obs-cell") {
        return run_obs_cell(&cli);
    }
    let results = Path::new("results");
    std::fs::create_dir_all(results).expect("create results dir");

    println!("Age-of-Information sweep (M={M}, seed {SEED})\n");

    let cells = grid();
    let describe = |c: &Scenario| {
        let (rho, policy) = (c.panel.rho_prime, c.policy.label());
        let labels = vec![
            ("rho", format!("{rho}")),
            ("policy", policy.to_string()),
            ("k", format!("{}", c.k_tau)),
        ];
        (format!("rho'={rho:.2} {policy} K={}", c.k_tau), labels)
    };
    let runs = run_scenarios(&cli, &cells, describe, |_| None);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = String::from(
        "Age-of-Information sweep (M=25, controlled vs FCFS)\n\
         Ages in units of tau; the sawtooth integral is exact integer\n\
         arithmetic over ticks (tcw_window::metrics::AgeTracker).\n\n",
    );
    let mut series: Vec<Series> = Vec::new();
    let glyphs = ['o', '+', 'x'];
    for (ri, &rho_prime) in LOADS.iter().enumerate() {
        series.push(Series {
            label: format!("rho'={rho_prime:.2} ctrl"),
            glyph: glyphs[ri % glyphs.len()],
            points: Vec::new(),
        });
    }
    for (cell, run) in cells.iter().zip(&runs) {
        let rho_prime = cell.panel.rho_prime;
        let line = format!(
            "K={:<5} rho'={:.2} {:<10} loss={:.4} util={:.3} mean_age={:.2} peak_age={:.2} violation={:.4} deliveries={} stations={}",
            cell.k_tau,
            rho_prime,
            cell.policy.label(),
            run.point.loss,
            run.point.utilization,
            run.aoi.mean_age_tau,
            run.aoi.peak_age_tau,
            run.aoi.violation,
            run.aoi.deliveries,
            run.aoi.stations_observed,
        );
        println!("  {line}");
        let _ = writeln!(report, "{line}");
        rows.push(vec![
            format!("{}", cell.k_tau),
            format!("{rho_prime}"),
            cell.policy.label().to_string(),
            format!("{}", run.point.loss),
            format!("{}", run.point.utilization),
            format!("{}", run.aoi.mean_age_tau),
            format!("{}", run.aoi.peak_age_tau),
            format!("{}", run.aoi.violation),
            format!("{}", run.aoi.deliveries),
            format!("{}", run.aoi.stations_observed),
        ]);
        if cell.policy == PolicyKind::Controlled {
            let ri = LOADS
                .iter()
                .position(|&r| r == rho_prime)
                .expect("load in grid");
            series[ri].points.push((cell.k_tau, run.aoi.mean_age_tau));
        }
    }

    let y_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-3)
        * 1.2;
    let chart = ascii_plot(
        "mean age vs deadline K (controlled, M=25)",
        &series,
        72,
        20,
        0.0,
        y_max,
    );
    println!("\n{chart}");
    report.push('\n');
    report.push_str(&chart);

    write_csv(
        &results.join("aoi.csv"),
        &[
            "k",
            "rho_prime",
            "policy",
            "loss",
            "utilization",
            "mean_age_tau",
            "peak_age_tau",
            "violation",
            "deliveries",
            "stations_observed",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("aoi.txt"), &report).expect("write report");
    println!("\nwrote results/aoi.csv and results/aoi.txt");
}
