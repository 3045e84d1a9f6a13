//! Fault-injection robustness sweep and deterministic failure replay.
//!
//! Default mode sweeps fault probability × offered load for the controlled
//! protocol, comparing loss against the fault-free baseline of the same
//! seed, then exercises the per-station divergence detector under receive
//! deafness. Results land in `results/robustness.csv` and
//! `results/robustness.txt`.
//!
//! Every run executes under the sweep supervisor: a cell that keeps
//! panicking, a tripped invariant, or a detected divergence writes a
//! replay artifact under `results/failures/` containing the seed, the
//! fault plan and the workload. Re-running with
//!
//! ```text
//! cargo run --release -p tcw-experiments --bin robustness -- --replay <artifact>
//! ```
//!
//! re-executes the identical timeline and must reproduce the identical
//! failure (the binary exits non-zero if it does not).

use std::path::Path;
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::replay::{replay, showcase};
use tcw_experiments::runner::{PolicyKind, SimSettings};
use tcw_experiments::{run_scenarios, Cli, Flag, Panel, Scenario};
use tcw_mac::FaultPlan;

const FAULT_PROBS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];
const LOADS: [f64; 3] = [0.25, 0.50, 0.75];
const M: u64 = 25;
const K_TAU: f64 = 100.0;
const SEED: u64 = 1983;

fn settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 8_000,
        warmup: 800,
        ..Default::default()
    }
}

/// The controlled protocol at load `rho_prime` under fault plan `plan`.
fn cell(rho_prime: f64, plan: FaultPlan) -> Scenario {
    let panel = Panel { rho_prime, m: M };
    Scenario {
        plan,
        ..Scenario::clean(panel, PolicyKind::Controlled, K_TAU, settings(), SEED)
    }
}

fn main() {
    let cli = Cli::from_env("robustness", &[Flag::value("--replay").alone()]);
    if let Some(path) = cli.operands("--replay") {
        std::process::exit(replay(Path::new(&path[0])));
    }

    let results = Path::new("results");
    let failures_dir = results.join("failures");
    let mut report = String::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut series: Vec<Series> = Vec::new();
    let glyphs = ['o', '+', 'x'];

    println!("fault-injection sweep: controlled protocol, M={M}, K={K_TAU} tau\n");

    // The full load × fault-probability grid runs as one supervised sweep.
    let cells: Vec<Scenario> = LOADS
        .iter()
        .flat_map(|&rho| FAULT_PROBS.map(|p| cell(rho, FaultPlan::uniform(p))))
        .collect();
    let outcomes = run_scenarios(
        &cli,
        &cells,
        |c| {
            let (rho, p) = (c.panel.rho_prime, c.plan.erasure);
            let labels = vec![("rho", format!("{rho}")), ("fault_prob", format!("{p}"))];
            (format!("rho={rho:.2} p={p:.2}"), labels)
        },
        |c| {
            Some(failures_dir.join(format!(
                "failure_panic_seed{}_rho{:02}_p{:02}.json",
                c.seed,
                (c.panel.rho_prime * 100.0) as u32,
                (c.plan.erasure * 100.0).round() as u32
            )))
        },
    );

    let mut outcome_iter = outcomes.into_iter();
    for (li, &rho) in LOADS.iter().enumerate() {
        let mut points = Vec::new();
        for &p in &FAULT_PROBS {
            let fsp = outcome_iter.next().expect("one outcome per cell");
            let line = format!(
                "rho'={rho:.2} p={p:.2}: loss={:.4} util={:.3} corrupted={} erased={} resyncs={} abandoned={} reopened={} fault_losses={}",
                fsp.point.loss,
                fsp.point.utilization,
                fsp.faults.corrupted_slots,
                fsp.faults.erased_slots,
                fsp.faults.resyncs,
                fsp.faults.rounds_abandoned,
                fsp.faults.reopened,
                fsp.faults.fault_losses,
            );
            println!("  {line}");
            report.push_str(&line);
            report.push('\n');
            rows.push(vec![
                format!("{rho}"),
                format!("{p}"),
                format!("{}", fsp.point.loss),
                format!("{}", fsp.point.utilization),
                format!("{}", fsp.faults.corrupted_slots),
                format!("{}", fsp.faults.erased_slots),
                format!("{}", fsp.faults.resyncs),
                format!("{}", fsp.faults.rounds_abandoned),
                format!("{}", fsp.faults.reopened),
                format!("{}", fsp.faults.fault_losses),
            ]);
            points.push((p, fsp.point.loss));
        }
        series.push(Series {
            label: format!("rho'={rho:.2}"),
            glyph: glyphs[li % glyphs.len()],
            points,
        });
        println!();
    }

    let y_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max)
        .max(1e-3)
        * 1.2;
    let chart = ascii_plot(
        "loss vs fault probability (controlled, M=25, K=100 tau)",
        &series,
        72,
        20,
        0.0,
        y_max,
    );
    println!("{chart}");
    report.push('\n');
    report.push_str(&chart);

    // Divergence detector under receive deafness: the one fault class that
    // breaks the shared-view invariant. The detector must both catch it
    // and recover via beacon resync, and the failure must be replayable.
    println!("\ndivergence detector (deafness faults):\n");
    let mut deaf_plan = FaultPlan::uniform(0.02);
    deaf_plan.deafness = 0.002;
    deaf_plan.deaf_slots = 4;
    let sc = cell(0.50, deaf_plan);
    let line = showcase("robustness", &sc, |kind| {
        failures_dir.join(format!(
            "failure_{kind}_seed{}_p{:02}.json",
            sc.seed,
            (sc.plan.erasure * 100.0).round() as u32
        ))
    });
    println!("{line}");
    report.push_str(&line);
    report.push('\n');

    write_csv(
        &results.join("robustness.csv"),
        &[
            "rho_prime",
            "fault_prob",
            "loss",
            "utilization",
            "corrupted_slots",
            "erased_slots",
            "resyncs",
            "rounds_abandoned",
            "reopened",
            "fault_losses",
        ],
        &rows,
    )
    .expect("write csv");
    std::fs::write(results.join("robustness.txt"), &report).expect("write report");
    println!("\nwrote results/robustness.csv and results/robustness.txt");
}
