//! Pins the analytic columns of the committed Figure-7 CSVs: for every
//! panel, the controlled (eq. 4.7 + K-marching), FCFS and LCFS curves
//! recomputed on the panel's `K` grid must print exactly the
//! six-decimal strings stored in `results/fig7_<panel>.csv`.
//!
//! This holds the analytic solvers (`tcw-queueing::{marching, mg1,
//! lcfs}`) to the published figure without running the simulation half
//! of `fig7`.

use std::path::Path;
use tcw_experiments::PANELS;
use tcw_queueing::marching::{controlled_curve, fcfs_curve, lcfs_curve, CurvePoint, PanelConfig};
use tcw_queueing::service::SchedulingShape;

const COLUMNS: [&str; 4] = [
    "k_tau",
    "analytic_controlled",
    "analytic_fcfs",
    "analytic_lcfs",
];

/// The `COLUMNS` of a committed Figure-7 CSV, one `Vec` per row.
fn committed_columns(id: &str) -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("fig7_{id}.csv"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let idx: Vec<usize> = COLUMNS
        .iter()
        .map(|c| {
            header
                .iter()
                .position(|h| h == c)
                .unwrap_or_else(|| panic!("{id}: no column {c}"))
        })
        .collect();
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            idx.iter().map(|&i| fields[i].to_string()).collect()
        })
        .collect()
}

#[test]
fn analytic_columns_match_committed_csvs() {
    for panel in PANELS {
        let id = panel.id();
        let cfg = PanelConfig {
            m: panel.m,
            rho_prime: panel.rho_prime,
            shape: SchedulingShape::Geometric,
        };
        let grid = panel.k_grid();
        let curves: [Vec<CurvePoint>; 3] = [
            controlled_curve(cfg, &grid),
            fcfs_curve(cfg, &grid, true),
            lcfs_curve(cfg, &grid, true),
        ];
        let committed = committed_columns(&id);
        assert_eq!(committed.len(), grid.len(), "{id}: row count");
        for (i, row) in committed.iter().enumerate() {
            assert_eq!(row[0], format!("{:.1}", grid[i]), "{id}: K of row {i}");
            for (c, curve) in curves.iter().enumerate() {
                assert_eq!(
                    row[c + 1],
                    format!("{:.6}", curve[i].loss),
                    "{id}: {} at K = {}",
                    COLUMNS[c + 1],
                    row[0]
                );
            }
        }
    }
}
