//! One simulated cell, driven through the engine's public API with a span
//! around each call, plus the per-layer totals the cells add up to.
//!
//! `build` mirrors the sweep binaries' engine set-up (§4.1 window
//! heuristic, measurement window, run horizon) through the public
//! `runner::{measure_window, run_horizon}` and `poisson_engine`; the
//! benchmark's cross-check compares every cell it runs with the CSVs the
//! untraced binaries wrote, so a drift between the two shows.

use crate::trace::{thread_allocs, Recorder};
use std::sync::Mutex;
use tcw_experiments::runner::{
    measure_window, run_horizon, AoiPoint, ChurnCounters, FaultCounters, PolicyKind, SimPoint,
    SimSettings,
};
use tcw_experiments::Panel;
use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, PoissonArrivals};
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::{poisson_engine, Engine};
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::EngineObserver;

/// A fully specified cell. `plans` is `None` for runs that never set a
/// fault or churn plan (the AoI sweep), `Some` for runs that set both.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    pub panel: Panel,
    pub kind: PolicyKind,
    pub k_tau: f64,
    pub settings: SimSettings,
    pub seed: u64,
    pub plans: Option<(FaultPlan, ChurnPlan)>,
}

/// What a finished cell measured, in the runner's own types.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub point: SimPoint,
    pub faults: FaultCounters,
    pub churn: ChurnCounters,
    pub aoi: AoiPoint,
}

/// Engine and MAC totals over every counted cell of a workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub build_s: f64,
    pub run_s: f64,
    pub slots: u64,
    pub fastpath_slots: u64,
    pub jumps: u64,
    pub batched_runs: u64,
    pub collision_slots: u64,
    pub successes: u64,
    pub allocs: u64,
    pub fault_slots: u64,
    pub resyncs: u64,
    pub churn_events: u64,
    pub reopened: u64,
    pub invariant_checks: u64,
    pub invariant_failures: u64,
}

/// Shared state of one traced run.
#[derive(Default)]
pub struct Ctx {
    pub rec: Recorder,
    pub totals: Mutex<Totals>,
}

impl Ctx {
    pub fn totals(&self) -> Totals {
        *self
            .totals
            .lock()
            .expect("totals poisoned by a panicking cell")
    }
}

fn build(spec: &CellSpec) -> (Engine<PoissonArrivals>, Time) {
    let s = spec.settings;
    let channel = ChannelConfig {
        ticks_per_tau: s.ticks_per_tau,
        message_slots: spec.panel.m,
        guard: s.guard,
    };
    let lambda = spec.panel.lambda();
    let w_tau = optimal_mu() / lambda;
    let w = Dur::from_ticks((w_tau * s.ticks_per_tau as f64).round().max(1.0) as u64);
    let k = Dur::from_ticks((spec.k_tau * s.ticks_per_tau as f64).round() as u64);
    let policy = match spec.kind {
        PolicyKind::Controlled => ControlPolicy::controlled(k, w),
        PolicyKind::Fcfs => ControlPolicy::fcfs(w),
        PolicyKind::Lcfs => ControlPolicy::lcfs(w),
        PolicyKind::Random => ControlPolicy::random(w),
    };
    let measure = measure_window(lambda, s, k);
    let horizon = run_horizon(measure, s.ticks_per_tau);
    let eng = poisson_engine(
        channel,
        policy,
        measure,
        spec.panel.rho_prime,
        s.stations,
        spec.seed,
    );
    (eng, horizon)
}

/// Runs one cell under `parent`. With `count` false the cell is a
/// reference run: it is timed by its caller but adds nothing to the
/// totals.
pub fn run_cell(
    ctx: &Ctx,
    parent: u64,
    spec: &CellSpec,
    obs: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
    count: bool,
) -> Measured {
    let rec = &ctx.rec;
    let ((mut eng, horizon), build_s) = rec.timed("engine.build", parent, |_| {
        let (mut eng, horizon) = build(spec);
        if let Some((plan, churn)) = spec.plans {
            eng.set_fault_plan(plan);
            eng.set_churn_plan(churn, spec.settings.stations);
        }
        (eng, horizon)
    });
    let (allocs, run_s) = rec.timed("engine.run", parent, |_| {
        let before = thread_allocs();
        eng.run_until(horizon, obs);
        eng.drain(obs);
        thread_allocs() - before
    });
    if let Some(sink) = sink {
        rec.span("obs.emit", parent, |_| {
            eng.metrics.emit(sink);
            eng.channel_stats.emit(sink);
            eng.churn().emit(sink);
            eng.horizon_stats.emit(sink);
        });
    }
    let measured = collect(&eng, spec);
    if count {
        // The runner asserts these two after every run; here a breach is
        // counted as a failed check instead of aborting the sweep.
        let drained = eng.metrics.outstanding() == 0;
        let conserved = eng.channel_stats.total().ticks() == eng.now().ticks();
        let cs = &eng.channel_stats;
        let hs = &eng.horizon_stats;
        let process = eng.churn();
        let mut t = ctx
            .totals
            .lock()
            .expect("totals poisoned by a panicking cell");
        t.build_s += build_s;
        t.run_s += run_s;
        t.slots += cs.idle_slots + cs.collision_slots + cs.successes + cs.erased_slots;
        t.fastpath_slots += hs.slots_skipped + hs.batched_slots;
        t.jumps += hs.jumps;
        t.batched_runs += hs.batched_runs;
        t.collision_slots += cs.collision_slots;
        t.successes += cs.successes;
        t.allocs += allocs;
        t.fault_slots += eng.metrics.corrupted_slots() + eng.metrics.erased_slots();
        t.resyncs += eng.metrics.resyncs();
        t.churn_events +=
            process.crashes() + process.restarts() + process.joins() + process.leaves();
        t.reopened += eng.metrics.reopened() + eng.metrics.churn_reopened();
        t.invariant_checks += 2;
        t.invariant_failures += u64::from(!drained) + u64::from(!conserved);
    }
    measured
}

fn collect(eng: &Engine<PoissonArrivals>, spec: &CellSpec) -> Measured {
    let m = &eng.metrics;
    let tpt = spec.settings.ticks_per_tau as f64;
    let offered = m.offered();
    let process = eng.churn();
    let rejoin = m.rejoin_latency();
    let aoi = m.aoi();
    Measured {
        point: SimPoint {
            k: spec.k_tau,
            loss: m.loss_fraction(),
            ci95: m.loss_ci95(),
            sender_loss: if offered == 0 {
                0.0
            } else {
                m.sender_lost() as f64 / offered as f64
            },
            sched_time_mean: m.sched_time().mean() / tpt,
            round_overhead_mean: m.sched_slots().mean(),
            utilization: eng.channel_stats.utilization(),
            offered,
        },
        faults: FaultCounters {
            corrupted_slots: m.corrupted_slots(),
            erased_slots: m.erased_slots(),
            resyncs: m.resyncs(),
            rounds_abandoned: m.rounds_abandoned(),
            reopened: m.reopened(),
            fault_losses: m.fault_losses(),
        },
        churn: ChurnCounters {
            crashes: process.crashes(),
            restarts: process.restarts(),
            joins: process.joins(),
            leaves: process.leaves(),
            blocked: m.churn_blocked(),
            losses: m.churn_losses(),
            reopened: m.churn_reopened(),
            rejoin_mean_slots: rejoin.mean(),
            rejoin_max_slots: if rejoin.count() == 0 {
                0.0
            } else {
                rejoin.max()
            },
        },
        aoi: AoiPoint {
            k: spec.k_tau,
            mean_age_tau: aoi.mean_age().unwrap_or(0.0) / tpt,
            peak_age_tau: aoi.peak_age().mean() / tpt,
            violation: aoi.violation_fraction().unwrap_or(0.0),
            deliveries: aoi.deliveries(),
            stations_observed: aoi.stations_observed(),
        },
    }
}
