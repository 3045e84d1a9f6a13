//! Regenerates **Figure 7** of the paper: loss probability vs. time
//! constraint `K`, for all six `(rho', M)` panels, comparing
//!
//! * the controlled protocol — analytic curve (eq. 4.7 + K-marching) and
//!   simulation points (the paper's dots);
//! * the uncontrolled FCFS protocol of [Kurose 83] — analytic curve and
//!   simulation points;
//! * the uncontrolled LCFS protocol of [Kurose 83] — analytic curve
//!   (delay-busy-period analysis, `tcw-queueing::lcfs` — a result beyond
//!   the paper, which had LCFS only by simulation) and simulation points.
//!
//! Output: `results/fig7_<panel>.csv` plus an ASCII rendering of each
//! panel and a summary of the shape checks. Run with `--quick` for a
//! fast smoke pass (fewer messages), `--jobs N` to set the sweep worker
//! count (`--jobs 1` reproduces the serial output byte-for-byte), or
//! pass panel ids (e.g. `rho50_m25`) to regenerate only those panels;
//! any other argument is a usage error.
//!
//! Observability (see EXPERIMENTS.md): `--trace-events PATH` streams
//! every protocol event as NDJSON, `--metrics PATH[.prom]` snapshots the
//! per-cell metrics registries, `--progress` renders a live stderr
//! progress line. `--obs-cell` runs a single tiny sample cell (panel
//! `rho75_m25`, controlled, `K = 100`) and writes its trace/metrics to
//! the given paths — the committed `results/obs/` samples come from it.

use std::path::{Path, PathBuf};
use tcw_experiments::diag;
use tcw_experiments::plot::{ascii_plot, write_csv, Series};
use tcw_experiments::{
    run_scenarios, Cli, Flag, Panel, PolicyKind, Scenario, SimPoint, SimSettings, PANELS,
};
use tcw_queueing::marching::{controlled_curve, fcfs_curve, lcfs_curve, CurvePoint, PanelConfig};
use tcw_queueing::service::SchedulingShape;

struct PanelResult {
    panel: Panel,
    analytic_controlled: Vec<CurvePoint>,
    analytic_fcfs: Vec<CurvePoint>,
    analytic_lcfs: Vec<CurvePoint>,
    sim_controlled: Vec<SimPoint>,
    sim_fcfs: Vec<SimPoint>,
    sim_lcfs: Vec<SimPoint>,
}

const KINDS: [(PolicyKind, u64); 3] = [
    (PolicyKind::Controlled, 0x01),
    (PolicyKind::Fcfs, 0x02),
    (PolicyKind::Lcfs, 0x03),
];

/// One simulated point of the Figure-7 grid: the seed mixes the policy
/// salt and K exactly like the historical serial loop.
fn cell(
    panel: Panel,
    (kind, salt): (PolicyKind, u64),
    k: f64,
    settings: SimSettings,
    seed: u64,
) -> Scenario {
    Scenario::clean(panel, kind, k, settings, seed ^ salt ^ (k as u64))
}

/// Runs `cells` on the sweep executor, each cell under the telemetry
/// `cli` asks for (labeled by panel, policy, K and seed), and returns the
/// measured points in grid order.
fn run_points(cli: &Cli, cells: &[Scenario]) -> Vec<SimPoint> {
    run_scenarios(
        cli,
        cells,
        |c| {
            let id = c.panel.id();
            let label = format!("{id} {} K={}", c.policy.label(), c.k_tau);
            let labels = vec![
                ("panel", id),
                ("policy", c.policy.label().to_string()),
                ("k", format!("{}", c.k_tau)),
                ("seed", format!("{}", c.seed)),
            ];
            (label, labels)
        },
        |_| None,
    )
    .into_iter()
    .map(|o| o.point)
    .collect()
}

/// Runs every selected panel: first all simulated points of all panels
/// through one parallel sweep, then, panel by panel on the calling
/// thread, the three analytic curves (K-marching, one FCFS waiting-time
/// CDF, the Panjer-evaluated LCFS delay busy period; together well under
/// a second for all six panels in a release build) next to the panel's
/// three point series reassembled in grid order.
fn run_panels(cli: &Cli, panels: &[Panel], settings: SimSettings, seed: u64) -> Vec<PanelResult> {
    let mut cells = Vec::new();
    for &panel in panels {
        for kind in KINDS {
            for &k in &panel.k_grid_sim() {
                cells.push(cell(panel, kind, k, settings, seed));
            }
        }
    }
    let mut cursor = run_points(cli, &cells).into_iter();
    let mut results = Vec::new();
    for &panel in panels {
        let cfg = PanelConfig {
            m: panel.m,
            rho_prime: panel.rho_prime,
            shape: SchedulingShape::Geometric,
        };
        let grid = panel.k_grid();
        let n_sim = panel.k_grid_sim().len();
        let mut take = |n: usize| -> Vec<SimPoint> { cursor.by_ref().take(n).collect() };
        results.push(PanelResult {
            panel,
            analytic_controlled: controlled_curve(cfg, &grid),
            analytic_fcfs: fcfs_curve(cfg, &grid, true),
            analytic_lcfs: lcfs_curve(cfg, &grid, true),
            sim_controlled: take(n_sim),
            sim_fcfs: take(n_sim),
            sim_lcfs: take(n_sim),
        });
    }
    results
}

fn emit(result: &PanelResult, out_dir: &Path) {
    let p = result.panel;
    // CSV: one row per K of the dense analytic grid; simulation columns
    // are filled on their sparser grid.
    let mut rows = Vec::new();
    for (i, a) in result.analytic_controlled.iter().enumerate() {
        let f = &result.analytic_fcfs[i];
        let l = &result.analytic_lcfs[i];
        let sim = |points: &[SimPoint]| -> (String, String) {
            match points.iter().find(|s| (s.k - a.k).abs() < 1e-9) {
                Some(s) => (format!("{:.6}", s.loss), format!("{:.6}", s.ci95)),
                None => (String::new(), String::new()),
            }
        };
        let (sc, scci) = sim(&result.sim_controlled);
        let (sf, sfci) = sim(&result.sim_fcfs);
        let (sl, slci) = sim(&result.sim_lcfs);
        rows.push(vec![
            format!("{:.1}", a.k),
            format!("{:.6}", a.loss),
            format!("{:.6}", f.loss),
            format!("{:.6}", l.loss),
            sc,
            scci,
            sf,
            sfci,
            sl,
            slci,
        ]);
    }
    let path = out_dir.join(format!("fig7_{}.csv", p.id()));
    write_csv(
        &path,
        &[
            "k_tau",
            "analytic_controlled",
            "analytic_fcfs",
            "analytic_lcfs",
            "sim_controlled",
            "sim_controlled_ci95",
            "sim_fcfs",
            "sim_fcfs_ci95",
            "sim_lcfs",
            "sim_lcfs_ci95",
        ],
        &rows,
    )
    .expect("writing CSV");

    let y_max = result
        .analytic_fcfs
        .iter()
        .map(|c| c.loss)
        .chain(result.sim_lcfs.iter().map(|s| s.loss))
        .fold(0.05, f64::max)
        .min(1.0);
    let series = vec![
        Series {
            label: "controlled (analytic)".into(),
            glyph: 'c',
            points: result
                .analytic_controlled
                .iter()
                .map(|c| (c.k, c.loss))
                .collect(),
        },
        Series {
            label: "controlled (sim)".into(),
            glyph: 'o',
            points: result
                .sim_controlled
                .iter()
                .map(|s| (s.k, s.loss))
                .collect(),
        },
        Series {
            label: "fcfs (analytic)".into(),
            glyph: 'f',
            points: result.analytic_fcfs.iter().map(|c| (c.k, c.loss)).collect(),
        },
        Series {
            label: "fcfs (sim)".into(),
            glyph: 'x',
            points: result.sim_fcfs.iter().map(|s| (s.k, s.loss)).collect(),
        },
        Series {
            label: "lcfs (analytic)".into(),
            glyph: 'l',
            points: result.analytic_lcfs.iter().map(|c| (c.k, c.loss)).collect(),
        },
        Series {
            label: "lcfs (sim)".into(),
            glyph: 'L',
            points: result.sim_lcfs.iter().map(|s| (s.k, s.loss)).collect(),
        },
    ];
    let title = format!(
        "Figure 7 panel rho' = {}, M = {} — p(loss) vs K (tau units)",
        p.rho_prime, p.m
    );
    println!("{}", ascii_plot(&title, &series, 72, 18, 0.0, y_max));

    // Shape checks (the claims the paper makes in prose).
    let mut agree = 0usize;
    for s in &result.sim_controlled {
        let a = result
            .analytic_controlled
            .iter()
            .find(|c| (c.k - s.k).abs() < 1e-9)
            .expect("sim K on analytic grid");
        if (a.loss - s.loss).abs() <= (3.0 * s.ci95).max(0.01) {
            agree += 1;
        }
    }
    println!(
        "  [check] analytic-vs-sim agreement (controlled): {agree}/{} points within max(3*CI, 0.01)",
        result.sim_controlled.len()
    );
    let mut agree_l = 0usize;
    for s in &result.sim_lcfs {
        let a = result
            .analytic_lcfs
            .iter()
            .find(|c| (c.k - s.k).abs() < 1e-9)
            .expect("sim K on analytic grid");
        if (a.loss - s.loss).abs() <= (4.0 * s.ci95).max(0.02) {
            agree_l += 1;
        }
    }
    println!(
        "  [check] analytic-vs-sim agreement (lcfs): {agree_l}/{} points within max(4*CI, 0.02)",
        result.sim_lcfs.len()
    );
    let mut wins_f = 0usize;
    let mut wins_l = 0usize;
    for (s, (f, l)) in result
        .sim_controlled
        .iter()
        .zip(result.sim_fcfs.iter().zip(&result.sim_lcfs))
    {
        if s.loss <= f.loss + 0.005 {
            wins_f += 1;
        }
        if s.loss <= l.loss + 0.005 {
            wins_l += 1;
        }
    }
    println!(
        "  [check] controlled <= FCFS at {wins_f}/{} simulated K, <= LCFS at {wins_l}/{}",
        result.sim_fcfs.len(),
        result.sim_lcfs.len()
    );
    println!("  [data]  {}", path.display());
    println!();
}

/// Runs the single tiny sample cell behind `--obs-cell`: panel
/// `rho75_m25`, controlled protocol, `K = 100`, scaled down far enough
/// that its full event stream is a readable, committable artifact. The
/// cell is fully deterministic (fixed seed, no wall-clock values), so the
/// outputs can be diff-checked in CI.
fn run_obs_cell(cli: &Cli) {
    let obs = &cli.obs;
    let (Some(trace), Some(metrics)) = (&obs.trace_events, &obs.metrics) else {
        diag::usage(
            "fig7",
            "--obs-cell needs both --trace-events PATH and --metrics PATH",
        );
    };
    let settings = SimSettings {
        ticks_per_tau: 8,
        messages: 12,
        warmup: 2,
        stations: 20,
        guard: false,
    };
    // rho' = 0.75, M = 25: busy enough to collide.
    let c = cell(PANELS[4], KINDS[0], 100.0, settings, 42);
    let p = run_points(cli, &[c])[0];
    println!(
        "obs-cell: {} {} K={} (seed {}) loss={:.6} offered={} -> {} + {}",
        c.panel.id(),
        c.policy.label(),
        c.k_tau,
        c.seed,
        p.loss,
        p.offered,
        trace.display(),
        metrics.display(),
    );
}

fn main() {
    let mut flags = vec![Flag::switch("--quick"), Flag::switch("--obs-cell")];
    flags.extend(PANELS.iter().map(|p| Flag::switch(p.id())));
    let cli = Cli::from_env("fig7", &flags);
    if cli.has("--obs-cell") {
        return run_obs_cell(&cli);
    }
    let settings = if cli.has("--quick") {
        SimSettings {
            messages: 5_000,
            warmup: 500,
            ..Default::default()
        }
    } else {
        SimSettings::default()
    };
    let out_dir = PathBuf::from("results");

    println!(
        "Reproducing Figure 7 ({} messages per simulated point; seed base 42)\n",
        settings.messages
    );
    let any_panel = PANELS.iter().any(|p| cli.has(&p.id()));
    let panels: Vec<Panel> = PANELS
        .into_iter()
        .filter(|panel| !any_panel || cli.has(&panel.id()))
        .collect();
    for result in &run_panels(&cli, &panels, settings, 42) {
        emit(result, &out_dir);
    }
}
