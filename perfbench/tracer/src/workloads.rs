//! The three benchmark workloads, repeated in-process: the same grids,
//! seeds, labels and output paths as the sweep binaries they mirror
//! (`fig7`; `robustness --resume` then `churn`; `aoi` and `churn` with
//! `--spans`/`--metrics`).
//!
//! Each workload also lists the CSV rows and Prometheus samples the
//! untraced binaries must have written for the same cells, which the
//! benchmark cross-checks when the traced run uses the binaries' seeds.

use crate::cells::{run_cell, CellSpec, Ctx, Measured};
use std::path::Path;
use std::sync::Arc;
use tcw_experiments::obs::{observe_engine_cell, write_observability, Capture, CellArtifacts};
use tcw_experiments::replay::{execute, FailureRecord};
use tcw_experiments::runner::{FaultSimPoint, PolicyKind, SimSettings};
use tcw_experiments::supervise::{run_supervised, Journal, SupervisorOptions};
use tcw_experiments::sweep::run_parallel;
use tcw_experiments::{ObsConfig, Panel, SweepMeta, PANELS};
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_queueing::marching::{controlled_curve, fcfs_curve, lcfs_curve, PanelConfig};
use tcw_queueing::service::SchedulingShape;
use tcw_window::trace::NoopObserver;

/// `fig7`'s seed base.
pub const FIG7_SEED: u64 = 42;
/// The seed `robustness`, `churn` and `aoi` use for every cell.
pub const SWEEP_SEED: u64 = 1983;

const FIG7_KINDS: [(PolicyKind, u64); 3] = [
    (PolicyKind::Controlled, 0x01),
    (PolicyKind::Fcfs, 0x02),
    (PolicyKind::Lcfs, 0x03),
];
const LOADS: [f64; 3] = [0.25, 0.50, 0.75];
const FAULT_PROBS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];
const CRASH_RATES: [f64; 5] = [0.0, 0.0005, 0.001, 0.002, 0.005];
const AOI_KS: [f64; 3] = [25.0, 50.0, 100.0];
const AOI_KINDS: [PolicyKind; 2] = [PolicyKind::Controlled, PolicyKind::Fcfs];
const M: u64 = 25;
const K_TAU: f64 = 100.0;
const DOWN_SLOTS: u64 = 40;
const CATCH_UP_SLOTS: u64 = 100;

/// One CSV row the untraced run must contain: the row whose `key` columns
/// hold these values must hold the `expect` values too.
pub struct RowCheck {
    pub file: String,
    pub key: Vec<(&'static str, String)>,
    pub expect: Vec<(&'static str, String)>,
}

/// What a workload leaves for the report besides its spans and totals.
#[derive(Default)]
pub struct Outcome {
    pub rows: Vec<RowCheck>,
    /// (file, sample with labels, value) lines of a Prometheus file.
    pub samples: Vec<(String, String, String)>,
    /// Files written here under the same relative path as by the
    /// untraced binaries, so the two can be byte-compared.
    pub artifacts: Vec<String>,
    pub k_points: u64,
    pub curves: u64,
    pub journal_appends: u64,
    pub journal_bytes: u64,
    pub span_records: u64,
    pub span_bytes: u64,
    pub prom_bytes: u64,
    pub quarantined: u64,
}

/// The grid fingerprint `robustness` stamps on its resume journal.
fn robustness_fingerprint(base: u64) -> u64 {
    let cells = (LOADS.len() * FAULT_PROBS.len()) as u64;
    tcw_sim::snap::checksum(&[base, M, K_TAU.to_bits(), cells])
}

fn sweep_settings() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 8_000,
        warmup: 800,
        ..Default::default()
    }
}

fn sweep_cell(rho_prime: f64, seed: u64, plan: FaultPlan, churn: ChurnPlan) -> CellSpec {
    CellSpec {
        panel: Panel { rho_prime, m: M },
        kind: PolicyKind::Controlled,
        k_tau: K_TAU,
        settings: sweep_settings(),
        seed,
        plans: Some((plan, churn)),
    }
}

fn crash_plan(crash: f64) -> ChurnPlan {
    if crash == 0.0 {
        ChurnPlan::none()
    } else {
        ChurnPlan {
            crash,
            down_slots: DOWN_SLOTS,
            catch_up_slots: CATCH_UP_SLOTS,
            ..ChurnPlan::none()
        }
    }
}

fn record(spec: &CellSpec) -> FailureRecord {
    let (plan, churn) = spec.plans.unwrap_or((FaultPlan::none(), ChurnPlan::none()));
    FailureRecord {
        seed: spec.seed,
        plan,
        churn,
        panel: spec.panel,
        policy: spec.kind,
        k_tau: spec.k_tau,
        settings: spec.settings,
        kind: String::new(),
        detail: String::new(),
    }
}

fn plain(ctx: &Ctx, parent: u64, spec: &CellSpec) -> Measured {
    run_cell(ctx, parent, spec, &mut NoopObserver, None, true)
}

/// Runs `cells` with nothing attached on the plain executor, one
/// `sweep.cell` span per cell.
fn plain_sweep(ctx: &Ctx, parent: u64, cells: &[CellSpec], jobs: usize) -> Vec<Measured> {
    ctx.rec.span("sweep.run_parallel", parent, |sid| {
        run_parallel(cells, jobs, |_, spec| {
            ctx.rec.span("sweep.cell", sid, |cid| plain(ctx, cid, spec))
        })
    })
}

/// `fig7 --jobs N`: 144 simulated cells on the executor, then the
/// panels' analytic curves one after another.
pub fn fig7(ctx: &Ctx, root: u64, base: u64, jobs: usize, out: &mut Outcome) {
    let settings = SimSettings::default();
    let mut cells = Vec::new();
    for panel in PANELS {
        for (kind, salt) in FIG7_KINDS {
            for k in panel.k_grid_sim() {
                cells.push(CellSpec {
                    panel,
                    kind,
                    k_tau: k,
                    settings,
                    seed: base ^ salt ^ (k as u64),
                    plans: Some((FaultPlan::none(), ChurnPlan::none())),
                });
            }
        }
    }
    let points = plain_sweep(ctx, root, &cells, jobs);
    let mut sims = points.chunks(PANELS[0].k_grid_sim().len());
    for panel in PANELS {
        let cfg = PanelConfig {
            m: panel.m,
            rho_prime: panel.rho_prime,
            shape: SchedulingShape::Geometric,
        };
        let grid = panel.k_grid();
        let rec = &ctx.rec;
        let ctrl = rec.span("queueing.controlled_curve", root, |_| {
            controlled_curve(cfg, &grid)
        });
        let fcfs = rec.span("queueing.fcfs_curve", root, |_| {
            fcfs_curve(cfg, &grid, true)
        });
        let lcfs = rec.span("queueing.lcfs_curve", root, |_| {
            lcfs_curve(cfg, &grid, true)
        });
        out.curves += 3;
        out.k_points += 3 * grid.len() as u64;
        let sim: Vec<&[Measured]> = (0..3)
            .map(|_| sims.next().expect("one run per cell"))
            .collect();
        let file = format!("results/fig7_{}.csv", panel.id());
        for (i, a) in ctrl.iter().enumerate() {
            let mut expect = vec![
                ("analytic_controlled", format!("{:.6}", a.loss)),
                ("analytic_fcfs", format!("{:.6}", fcfs[i].loss)),
                ("analytic_lcfs", format!("{:.6}", lcfs[i].loss)),
            ];
            let cols = [
                ("sim_controlled", "sim_controlled_ci95"),
                ("sim_fcfs", "sim_fcfs_ci95"),
                ("sim_lcfs", "sim_lcfs_ci95"),
            ];
            for (series, (loss_col, ci_col)) in sim.iter().zip(cols) {
                let (loss, ci) = match series.iter().find(|m| (m.point.k - a.k).abs() < 1e-9) {
                    Some(m) => (
                        format!("{:.6}", m.point.loss),
                        format!("{:.6}", m.point.ci95),
                    ),
                    None => (String::new(), String::new()),
                };
                expect.push((loss_col, loss));
                expect.push((ci_col, ci));
            }
            out.rows.push(RowCheck {
                file: file.clone(),
                key: vec![("k_tau", format!("{:.1}", a.k))],
                expect,
            });
        }
    }
}

fn churn_rows(out: &mut Outcome, cells: &[CellSpec], crashes: &[f64], runs: &[Measured]) {
    for ((spec, c), m) in cells.iter().zip(crashes).zip(runs) {
        // `churn` writes a mean over no rejoins as 0.
        let rejoin_mean = if m.churn.rejoin_mean_slots.is_nan() {
            0.0
        } else {
            m.churn.rejoin_mean_slots
        };
        out.rows.push(RowCheck {
            file: "results/churn.csv".into(),
            key: vec![
                ("rho_prime", format!("{}", spec.panel.rho_prime)),
                ("crash_rate", format!("{c}")),
            ],
            expect: vec![
                ("loss", format!("{}", m.point.loss)),
                ("utilization", format!("{}", m.point.utilization)),
                ("crashes", format!("{}", m.churn.crashes)),
                ("restarts", format!("{}", m.churn.restarts)),
                ("blocked", format!("{}", m.churn.blocked)),
                ("churn_losses", format!("{}", m.churn.losses)),
                ("reopened", format!("{}", m.churn.reopened)),
                ("rejoin_mean_slots", format!("{}", rejoin_mean)),
                ("rejoin_max_slots", format!("{}", m.churn.rejoin_max_slots)),
            ],
        });
    }
}

fn churn_grid(base: u64) -> (Vec<CellSpec>, Vec<f64>) {
    let mut cells = Vec::new();
    let mut crashes = Vec::new();
    for rho in LOADS {
        for c in CRASH_RATES {
            cells.push(sweep_cell(rho, base, FaultPlan::none(), crash_plan(c)));
            crashes.push(c);
        }
    }
    (cells, crashes)
}

/// The membership showcase `churn` runs after its sweep.
fn churn_showcase(ctx: &Ctx, root: u64, base: u64) {
    let showcase = ChurnPlan {
        late_join_frac: 0.2,
        join_slot: 2_000,
        leave_frac: 0.1,
        leave_slot: 20_000,
        catch_up_slots: CATCH_UP_SLOTS,
        outage_start_slot: 5_000,
        outage_slots: 64,
        ..ChurnPlan::none()
    };
    let rec = record(&sweep_cell(0.50, base, FaultPlan::none(), showcase));
    ctx.rec
        .span("experiments.replay_execute", root, |_| execute(&rec));
}

/// `robustness --jobs N --resume <fresh journal>`, then `churn --jobs N`.
pub fn degraded(ctx: &Arc<Ctx>, root: u64, base: u64, jobs: usize, out: &mut Outcome) {
    let mut cells = Vec::new();
    let mut probs = Vec::new();
    for rho in LOADS {
        for p in FAULT_PROBS {
            cells.push(sweep_cell(
                rho,
                base,
                FaultPlan::uniform(p),
                ChurnPlan::none(),
            ));
            probs.push(p);
        }
    }
    let journal_path = Path::new("journal/robustness.journal");
    let _ = std::fs::remove_file(journal_path);
    let mut journal = Journal::open(journal_path, "robustness", robustness_fingerprint(base))
        .expect("create sweep journal");
    let outcome = ctx.rec.span("sweep.run_supervised", root, |sid| {
        let worker = Arc::clone(ctx);
        let grid = cells.clone();
        run_supervised(
            cells.len(),
            jobs,
            &SupervisorOptions::default(),
            Some(&mut journal),
            None,
            move |i| {
                worker.rec.span("sweep.cell", sid, |cid| {
                    let m = plain(&worker, cid, &grid[i]);
                    FaultSimPoint {
                        point: m.point,
                        faults: m.faults,
                    }
                })
            },
        )
        .expect("write sweep journal")
    });
    out.quarantined += outcome.quarantined.len() as u64;
    for ((spec, p), r) in cells.iter().zip(&probs).zip(&outcome.results) {
        let Some(r) = r else { continue };
        let f = &r.faults;
        out.rows.push(RowCheck {
            file: "results/robustness.csv".into(),
            key: vec![
                ("rho_prime", format!("{}", spec.panel.rho_prime)),
                ("fault_prob", format!("{p}")),
            ],
            expect: vec![
                ("loss", format!("{}", r.point.loss)),
                ("utilization", format!("{}", r.point.utilization)),
                ("corrupted_slots", format!("{}", f.corrupted_slots)),
                ("erased_slots", format!("{}", f.erased_slots)),
                ("resyncs", format!("{}", f.resyncs)),
                ("rounds_abandoned", format!("{}", f.rounds_abandoned)),
                ("reopened", format!("{}", f.reopened)),
                ("fault_losses", format!("{}", f.fault_losses)),
            ],
        });
    }
    // The divergence-detector run `robustness` makes after its sweep.
    let mut deaf = FaultPlan::uniform(0.02);
    deaf.deafness = 0.002;
    deaf.deaf_slots = 4;
    let rec = record(&sweep_cell(0.50, base, deaf, ChurnPlan::none()));
    ctx.rec
        .span("experiments.replay_execute", root, |_| execute(&rec));

    let (churn_cells, crashes) = churn_grid(base);
    let runs = plain_sweep(ctx, root, &churn_cells, jobs);
    churn_rows(out, &churn_cells, &crashes, &runs);
    churn_showcase(ctx, root, base);

    out.journal_appends = journal.len() as u64;
    out.journal_bytes = std::fs::metadata(journal_path).map_or(0, |m| m.len());
}

/// Times the journal on its own: the robustness sweep's entries appended
/// again, one `Journal::record` each, to a fresh journal. Kept out of the
/// workload's traced wall time.
pub fn journal_replay(ctx: &Ctx, base: u64) {
    let src = Journal::open(
        Path::new("journal/robustness.journal"),
        "robustness",
        robustness_fingerprint(base),
    )
    .expect("reopen sweep journal");
    let path = Path::new("journal/replay.journal");
    let _ = std::fs::remove_file(path);
    ctx.rec.span("measure.journal_replay", 0, |mid| {
        let mut j = Journal::open(path, "robustness", 0).expect("create replay journal");
        for cell in 0..src.len() {
            let words = src.completed(cell).expect("journaled cell").to_vec();
            ctx.rec.span("supervise.journal_record", mid, |_| {
                j.record(cell, &words).expect("append to replay journal")
            });
        }
    });
}

fn observed_sweep(
    ctx: &Ctx,
    root: u64,
    cells: &[CellSpec],
    labels: &[Vec<(&'static str, String)>],
    names: &[String],
    jobs: usize,
    stem: &str,
) -> Vec<Measured> {
    let caps = Capture {
        tracing: false,
        metrics: true,
        spans: true,
    };
    let outcomes: Vec<(Measured, CellArtifacts)> =
        ctx.rec.span("sweep.run_parallel", root, |sid| {
            run_parallel(cells, jobs, |i, spec| {
                ctx.rec.span("sweep.cell", sid, |cid| {
                    let l: Vec<(&str, &str)> =
                        labels[i].iter().map(|(k, v)| (*k, v.as_str())).collect();
                    ctx.rec.span("obs.observe_engine_cell", cid, |oid| {
                        observe_engine_cell(caps, i, &names[i], &l, |o, sink| {
                            run_cell(ctx, oid, spec, o, sink, true)
                        })
                    })
                })
            })
        });
    let (runs, arts): (Vec<Measured>, Vec<CellArtifacts>) = outcomes.into_iter().unzip();
    let cfg = ObsConfig {
        spans: Some(format!("obs/{stem}.spans.ndjson").into()),
        metrics: Some(format!("obs/{stem}.prom").into()),
        ..Default::default()
    };
    ctx.rec.span("obs.write_observability", root, |_| {
        write_observability(&cfg, &arts, SweepMeta { cells: arts.len() })
            .expect("write sweep telemetry")
    });
    runs
}

fn offered_samples(
    out: &mut Outcome,
    stem: &str,
    labels: &[Vec<(&str, String)>],
    runs: &[Measured],
) {
    for (l, m) in labels.iter().zip(runs) {
        let body: Vec<String> = l.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        out.samples.push((
            format!("obs/{stem}.prom"),
            format!("tcw_engine_messages_offered_total{{{}}}", body.join(",")),
            format!("{}", m.point.offered),
        ));
    }
}

/// `aoi --spans --metrics`, then `churn --spans --metrics`.
pub fn observed(ctx: &Ctx, root: u64, base: u64, jobs: usize, out: &mut Outcome) -> Vec<CellSpec> {
    let mut aoi_cells = Vec::new();
    let (mut aoi_labels, mut aoi_names) = (Vec::new(), Vec::new());
    for k in AOI_KS {
        for rho in LOADS {
            for kind in AOI_KINDS {
                aoi_cells.push(CellSpec {
                    panel: Panel {
                        rho_prime: rho,
                        m: M,
                    },
                    kind,
                    k_tau: k,
                    settings: sweep_settings(),
                    seed: base,
                    plans: None,
                });
                aoi_names.push(format!("rho'={rho:.2} {} K={k}", kind.label()));
                aoi_labels.push(vec![
                    ("rho", format!("{rho}")),
                    ("policy", kind.label().to_string()),
                    ("k", format!("{k}")),
                ]);
            }
        }
    }
    let runs = observed_sweep(ctx, root, &aoi_cells, &aoi_labels, &aoi_names, jobs, "aoi");
    for (spec, m) in aoi_cells.iter().zip(&runs) {
        let a = &m.aoi;
        out.rows.push(RowCheck {
            file: "results/aoi.csv".into(),
            key: vec![
                ("k", format!("{}", spec.k_tau)),
                ("rho_prime", format!("{}", spec.panel.rho_prime)),
                ("policy", spec.kind.label().to_string()),
            ],
            expect: vec![
                ("loss", format!("{}", m.point.loss)),
                ("utilization", format!("{}", m.point.utilization)),
                ("mean_age_tau", format!("{}", a.mean_age_tau)),
                ("peak_age_tau", format!("{}", a.peak_age_tau)),
                ("violation", format!("{}", a.violation)),
                ("deliveries", format!("{}", a.deliveries)),
                ("stations_observed", format!("{}", a.stations_observed)),
            ],
        });
    }
    offered_samples(out, "aoi", &aoi_labels, &runs);

    let (churn_cells, crashes) = churn_grid(base);
    let mut churn_labels = Vec::new();
    let mut churn_names = Vec::new();
    for (spec, c) in churn_cells.iter().zip(&crashes) {
        let rho = spec.panel.rho_prime;
        churn_names.push(format!("rho={rho:.2} crash={c:.4}"));
        churn_labels.push(vec![
            ("rho", format!("{rho}")),
            ("crash_rate", format!("{c}")),
        ]);
    }
    let runs = observed_sweep(
        ctx,
        root,
        &churn_cells,
        &churn_labels,
        &churn_names,
        jobs,
        "churn",
    );
    churn_rows(out, &churn_cells, &crashes, &runs);
    offered_samples(out, "churn", &churn_labels, &runs);
    churn_showcase(ctx, root, base);
    aoi_cells.extend(churn_cells);
    aoi_cells
}

/// Sizes of the telemetry the observed workload wrote; read after the
/// timed workload so the reading does not count in its wall time.
pub fn telemetry_sizes(out: &mut Outcome) {
    for stem in ["aoi", "churn"] {
        let spans = format!("obs/{stem}.spans.ndjson");
        let prom = format!("obs/{stem}.prom");
        let text = std::fs::read(&spans).unwrap_or_default();
        out.span_records += text.iter().filter(|&&b| b == b'\n').count() as u64;
        out.span_bytes += text.len() as u64;
        out.prom_bytes += std::fs::metadata(&prom).map_or(0, |m| m.len());
        out.artifacts.push(spans);
        out.artifacts.push(prom);
    }
}

/// Runs the observed workload's cells again with nothing attached, so
/// the capture cost is the difference. Kept out of the traced wall time.
pub fn plain_reference(ctx: &Ctx, cells: &[CellSpec], jobs: usize) {
    ctx.rec.span("measure.plain_cells", 0, |mid| {
        run_parallel(cells, jobs, |_, spec| {
            ctx.rec.span("obs.plain_cell", mid, |pid| {
                run_cell(ctx, pid, spec, &mut NoopObserver, None, false)
            })
        })
    });
}
