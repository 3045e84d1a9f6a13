//! The simulation runner of the Figure-7 model.
//!
//! A [`Scenario`] names one simulated point completely — panel, protocol
//! variant, deadline, simulation size, seed, fault and churn plans — and
//! [`run`] executes it with any observer and metric sink attached,
//! returning one [`Outcome`]. Sweep grids, replay artifacts, tests,
//! benches and examples all describe their runs as scenarios.

use crate::panels::Panel;
use crate::replay::{plan_fields, read_plans, ArtifactReader, ArtifactWriter, Value};
use tcw_mac::{ChannelConfig, ChurnPlan, FaultPlan, PoissonArrivals};
use tcw_sim::stats::MetricSink;
use tcw_sim::time::{Dur, Time};
use tcw_window::analysis::optimal_mu;
use tcw_window::engine::{poisson_engine, Engine, HorizonStats};
use tcw_window::metrics::MeasureConfig;
use tcw_window::mirror::DivergenceDetector;
use tcw_window::policy::ControlPolicy;
use tcw_window::trace::EngineObserver;

/// Which protocol variant to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's controlled protocol (Theorem 1 + discard + heuristic
    /// window).
    Controlled,
    /// Uncontrolled FCFS ([Kurose 83]); receiver losses only.
    Fcfs,
    /// Uncontrolled LCFS ([Kurose 83]); receiver losses only.
    Lcfs,
    /// Uncontrolled RANDOM order ([Kurose 83]); receiver losses only.
    Random,
}

impl PolicyKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Controlled => "controlled",
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Lcfs => "lcfs",
            PolicyKind::Random => "random",
        }
    }

    /// The variant a [`PolicyKind::label`] names.
    pub fn parse(label: &str) -> Option<Self> {
        [Self::Controlled, Self::Fcfs, Self::Lcfs, Self::Random]
            .into_iter()
            .find(|k| k.label() == label)
    }
}

/// Simulation-size knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSettings {
    /// Ticks per propagation delay.
    pub ticks_per_tau: u64,
    /// Measured messages (after warm-up).
    pub messages: u64,
    /// Warm-up messages.
    pub warmup: u64,
    /// Number of stations.
    pub stations: u32,
    /// Guard slot after transmissions.
    pub guard: bool,
}

impl Default for SimSettings {
    fn default() -> Self {
        SimSettings {
            ticks_per_tau: 64,
            messages: 40_000,
            warmup: 4_000,
            stations: 50,
            guard: false,
        }
    }
}

/// One simulated point.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    /// Deadline in `tau`.
    pub k: f64,
    /// Total loss fraction (sender + receiver).
    pub loss: f64,
    /// 95% CI half-width (binomial).
    pub ci95: f64,
    /// Sender-discard fraction of offered messages.
    pub sender_loss: f64,
    /// Mean scheduling time of transmitted messages (in `tau`).
    pub sched_time_mean: f64,
    /// Mean overhead slots of rounds ending in a transmission.
    pub round_overhead_mean: f64,
    /// Channel utilization (fraction of time carrying successes).
    pub utilization: f64,
    /// Offered (counted) messages.
    pub offered: u64,
}

/// Degradation counters of one fault-injected run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounters {
    /// Slots whose feedback an injected fault corrupted (misdetections).
    pub corrupted_slots: u64,
    /// Slots whose feedback was erased.
    pub erased_slots: u64,
    /// Backoff/re-probe resynchronizations after detectable corruption.
    pub resyncs: u64,
    /// Windowing rounds abandoned after exhausting the retry budget.
    pub rounds_abandoned: u64,
    /// Examined intervals reopened for fault-stranded messages.
    pub reopened: u64,
    /// Losses attributable to a fault on the message's trajectory.
    pub fault_losses: u64,
}

/// A [`SimPoint`] together with the degradation counters of the run.
#[derive(Clone, Copy, Debug)]
pub struct FaultSimPoint {
    /// The conventional measurements.
    pub point: SimPoint,
    /// Fault/degradation counters.
    pub faults: FaultCounters,
}

/// Membership and recovery counters of one churn-enabled run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnCounters {
    /// Station crashes.
    pub crashes: u64,
    /// Station restarts (every crash eventually restarts).
    pub restarts: u64,
    /// Late joins.
    pub joins: u64,
    /// Permanent leaves.
    pub leaves: u64,
    /// Arrivals refused because the station was down.
    pub blocked: u64,
    /// Counted messages lost to a crash or leave (as opposed to the K
    /// deadline).
    pub losses: u64,
    /// Examined intervals reopened to recover a rejoining station's
    /// backlog.
    pub reopened: u64,
    /// Mean rejoin latency (probe slots from restart to the recovery
    /// beacon); `NaN` when no station rejoined.
    pub rejoin_mean_slots: f64,
    /// Worst rejoin latency in probe slots (0 when no station rejoined).
    pub rejoin_max_slots: f64,
}

/// Converts the message-count knobs into the measurement window at
/// offered rate `lambda` (messages per `tau`): warm up for
/// `settings.warmup` expected messages, then measure for
/// `settings.messages` expected messages.
///
/// Every run that measures loss goes through this helper — [`run`] and
/// the ablation binary — so "the window where metrics count" is defined
/// exactly once.
pub fn measure_window(lambda: f64, settings: SimSettings, deadline: Dur) -> MeasureConfig {
    let ticks_per_msg = settings.ticks_per_tau as f64 / lambda;
    let warmup_end = (settings.warmup as f64 * ticks_per_msg) as u64;
    let measure_end = warmup_end + (settings.messages as f64 * ticks_per_msg) as u64;
    MeasureConfig {
        start: Time::from_ticks(warmup_end),
        end: Time::from_ticks(measure_end),
        deadline,
    }
}

/// The run horizon for a measurement window: continue 10% of the window
/// past its end so late messages resolve under realistic load, plus a
/// 64-`tau` tail, before the final drain.
pub fn run_horizon(measure: MeasureConfig, ticks_per_tau: u64) -> Time {
    let start = measure.start.ticks();
    let end = measure.end.ticks();
    Time::from_ticks(end + (end - start) / 10 + 64 * ticks_per_tau)
}

/// Drives an engine to its horizon and through the final drain, then —
/// when a sink is attached — registers the engine's own accounting with
/// it: metrics, channel stats, churn counters, and the event-horizon
/// fast-path counters (`tcw_horizon_*`). Every sweep binary that runs
/// an engine to completion shares this sequence; telemetry specific to
/// a call site (controller, invariant monitor, divergence detector)
/// stays with the caller.
pub fn run_to_horizon<S: tcw_mac::ArrivalSource>(
    eng: &mut Engine<S>,
    horizon: Time,
    obs: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) {
    eng.run_until(horizon, obs);
    eng.drain(obs);
    if let Some(sink) = sink {
        eng.metrics.emit(sink);
        eng.channel_stats.emit(sink);
        eng.churn().emit(sink);
        eng.horizon_stats.emit(sink);
    }
}

/// Age-of-Information summary of one run, in units of `tau`.
///
/// The underlying sawtooth integral is exact integer arithmetic over
/// ticks (see `tcw_window::metrics::AgeTracker`); the conversion to
/// `tau` happens only here, at the reporting boundary.
#[derive(Clone, Copy, Debug)]
pub struct AoiPoint {
    /// Deadline `K` in units of `tau` (grid coordinate).
    pub k: f64,
    /// Time-averaged age across observed stations, in `tau`.
    pub mean_age_tau: f64,
    /// Mean of the per-station peak ages, in `tau`.
    pub peak_age_tau: f64,
    /// Fraction of observed time the age exceeded the deadline `K`.
    pub violation: f64,
    /// Source-to-monitor deliveries the tracker observed.
    pub deliveries: u64,
    /// Stations that delivered at least once (age is undefined for the
    /// rest — they never produced a sample to monitor).
    pub stations_observed: u64,
}

/// Everything one [`run`] measured.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// The conventional measurements.
    pub point: SimPoint,
    /// Fault/degradation counters.
    pub faults: FaultCounters,
    /// Membership/recovery counters.
    pub churn: ChurnCounters,
    /// The Age-of-Information summary.
    pub aoi: AoiPoint,
    /// Event-horizon fast-path counters (telemetry only — excluded from
    /// equivalence fingerprints; sweeps feed them into the live progress
    /// line's `[hzn: ...]` segment).
    pub horizon: HorizonStats,
}

/// One point of the Figure-7 model: a panel, a protocol variant, a
/// deadline, the simulation size, a master seed, and the injected fault
/// and churn plans. Every random draw of a run derives from the seed, so
/// running a scenario is a pure function of its value.
///
/// Its canonical encoding is one ordered field list: the body of a
/// [`crate::replay::FailureRecord`] artifact and the words of
/// [`Scenario::grid_fingerprint`] (the resume-journal key of a sweep).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Workload panel (offered load and message length).
    pub panel: Panel,
    /// Protocol variant.
    pub policy: PolicyKind,
    /// Deadline in units of `tau`.
    pub k_tau: f64,
    /// Simulation-size knobs.
    pub settings: SimSettings,
    /// Master seed of the run.
    pub seed: u64,
    /// Injected fault plan ([`FaultPlan::none`] is bit-identical to a
    /// fault-free build).
    pub plan: FaultPlan,
    /// Injected churn plan ([`ChurnPlan::none`] is bit-identical to a
    /// static population).
    pub churn: ChurnPlan,
}

impl Scenario {
    /// A fault- and churn-free scenario.
    pub fn clean(
        panel: Panel,
        policy: PolicyKind,
        k_tau: f64,
        settings: SimSettings,
        seed: u64,
    ) -> Self {
        Scenario {
            panel,
            policy,
            k_tau,
            settings,
            seed,
            plan: FaultPlan::none(),
            churn: ChurnPlan::none(),
        }
    }

    /// The control policy: the deadline `K` in ticks and the §4.1 window
    /// heuristic at the offered rate, `w* = mu* / lambda` (the value the
    /// analytic marching uses).
    fn control_policy(&self) -> ControlPolicy {
        let w_star_tau = optimal_mu() / self.panel.lambda();
        let w = Dur::from_ticks(
            (w_star_tau * self.settings.ticks_per_tau as f64)
                .round()
                .max(1.0) as u64,
        );
        let k = self.deadline();
        match self.policy {
            PolicyKind::Controlled => ControlPolicy::controlled(k, w),
            PolicyKind::Fcfs => ControlPolicy::fcfs(w),
            PolicyKind::Lcfs => ControlPolicy::lcfs(w),
            PolicyKind::Random => ControlPolicy::random(w),
        }
    }

    /// The deadline `K` in ticks.
    fn deadline(&self) -> Dur {
        Dur::from_ticks((self.k_tau * self.settings.ticks_per_tau as f64).round() as u64)
    }

    /// The per-station divergence detector of listening station 0, set up
    /// with the plan's deafness parameters and the churn plan's listener
    /// outage. Pass it to [`run`] as the observer.
    pub fn detector(&self) -> DivergenceDetector {
        let (plan, churn) = (self.plan, self.churn);
        DivergenceDetector::new(
            self.control_policy(),
            self.seed,
            0,
            plan.deafness,
            plan.deaf_slots,
        )
        .with_outage(churn.outage_start_slot, churn.outage_slots)
    }

    /// Builds the scenario's engine, plans installed, with its run horizon.
    fn engine(&self) -> (Engine<PoissonArrivals>, Time) {
        let settings = self.settings;
        let channel = ChannelConfig {
            ticks_per_tau: settings.ticks_per_tau,
            message_slots: self.panel.m,
            guard: settings.guard,
        };
        let measure = measure_window(self.panel.lambda(), settings, self.deadline());
        let mut eng = poisson_engine(
            channel,
            self.control_policy(),
            measure,
            self.panel.rho_prime,
            settings.stations,
            self.seed,
        );
        eng.set_fault_plan(self.plan);
        eng.set_churn_plan(self.churn, settings.stations);
        (eng, run_horizon(measure, settings.ticks_per_tau))
    }

    /// The canonical field list, in the order replay artifacts carry it.
    /// The destructuring patterns make a new field of the scenario or its
    /// settings a compile error here until it is encoded.
    fn fields(&self) -> Vec<(&'static str, Value)> {
        use Value::{Bool, Str, F64, U64};
        let Scenario {
            panel: Panel { rho_prime, m },
            policy,
            k_tau,
            settings:
                SimSettings {
                    ticks_per_tau,
                    messages,
                    warmup,
                    stations,
                    guard,
                },
            seed,
            plan,
            churn,
        } = *self;
        let mut fields = vec![("seed", U64(seed))];
        fields.extend(plan_fields(&plan, &churn));
        fields.extend([
            ("rho_prime", F64(rho_prime)),
            ("m", U64(m)),
            ("policy", Str(policy.label())),
            ("k_tau", F64(k_tau)),
            ("ticks_per_tau", U64(ticks_per_tau)),
            ("messages", U64(messages)),
            ("warmup", U64(warmup)),
            ("stations", U64(u64::from(stations))),
            ("guard", Bool(guard)),
        ]);
        fields
    }

    /// Writes the canonical field block into a replay artifact.
    pub(crate) fn write_fields(&self, w: &mut ArtifactWriter) {
        w.fields(&self.fields());
    }

    /// Reads back a field block written by [`Scenario::write_fields`],
    /// rejecting unknown policies and out-of-range plans.
    pub(crate) fn read_fields(r: &ArtifactReader) -> Result<Self, String> {
        let policy = r.str("policy")?;
        let policy =
            PolicyKind::parse(&policy).ok_or_else(|| format!("unknown policy {policy:?}"))?;
        let (plan, churn) = read_plans(r)?;
        Ok(Scenario {
            panel: Panel {
                rho_prime: r.f64("rho_prime")?,
                m: r.u64("m")?,
            },
            policy,
            k_tau: r.f64("k_tau")?,
            settings: SimSettings {
                ticks_per_tau: r.u64("ticks_per_tau")?,
                messages: r.u64("messages")?,
                warmup: r.u64("warmup")?,
                stations: r.u64("stations")? as u32,
                guard: r.bool_or("guard", false),
            },
            seed: r.u64("seed")?,
            plan,
            churn,
        })
    }

    /// The resume-journal fingerprint of a sweep grid: every field of
    /// every cell, in cell order. Any edit to a grid value (or to the
    /// order of the cells) changes it, so a journal written for another
    /// grid is rejected as stale instead of resumed.
    pub fn grid_fingerprint(cells: &[Scenario]) -> u64 {
        let mut words = vec![cells.len() as u64];
        for cell in cells {
            words.extend(cell.fields().iter().map(|(_, v)| v.word()));
        }
        tcw_sim::snap::checksum(&words)
    }
}

/// Runs one scenario to completion: protocol events stream to `obs`
/// during the run and, after the final drain, the engine's accounting
/// registers itself with `sink` (when one is given).
///
/// Observers and sinks are strictly passive — they receive data but never
/// draw from an RNG stream — so the outcome is bit-identical whatever is
/// attached.
pub fn run(
    sc: &Scenario,
    obs: &mut dyn EngineObserver,
    sink: Option<&mut dyn MetricSink>,
) -> Outcome {
    let (mut eng, horizon) = sc.engine();
    run_to_horizon(&mut eng, horizon, obs, sink);
    let (m, tpt) = (&eng.metrics, sc.settings.ticks_per_tau as f64);
    assert_eq!(m.outstanding(), 0, "unresolved messages after drain");
    assert_eq!(
        eng.channel_stats.total().ticks(),
        eng.now().ticks(),
        "channel time not conserved"
    );
    let offered = m.offered();
    let process = eng.churn();
    let rejoin = m.rejoin_latency();
    let aoi = m.aoi();
    Outcome {
        point: SimPoint {
            k: sc.k_tau,
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
            k: sc.k_tau,
            mean_age_tau: aoi.mean_age().unwrap_or(0.0) / tpt,
            peak_age_tau: aoi.peak_age().mean() / tpt,
            violation: aoi.violation_fraction().unwrap_or(0.0),
            deliveries: aoi.deliveries(),
            stations_observed: aoi.stations_observed(),
        },
        horizon: eng.horizon_stats,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::PANELS;
    use tcw_window::trace::NoopObserver;

    fn quick() -> SimSettings {
        SimSettings {
            messages: 4_000,
            warmup: 400,
            ticks_per_tau: 16,
            ..Default::default()
        }
    }

    fn point(panel: Panel, kind: PolicyKind, k: f64, seed: u64) -> SimPoint {
        let sc = Scenario::clean(panel, kind, k, quick(), seed);
        run(&sc, &mut NoopObserver, None).point
    }

    #[test]
    fn controlled_loss_decreases_with_k() {
        let panel = PANELS[4]; // rho' = 0.75, M = 25
        let p_small = point(panel, PolicyKind::Controlled, 25.0, 1);
        let p_large = point(panel, PolicyKind::Controlled, 400.0, 1);
        assert!(
            p_large.loss < p_small.loss,
            "loss did not decrease: {} -> {}",
            p_small.loss,
            p_large.loss
        );
        assert!(p_small.offered > 3_000);
    }

    #[test]
    fn controlled_beats_fcfs_at_tight_k() {
        let panel = PANELS[4];
        let k = 100.0;
        let c = point(panel, PolicyKind::Controlled, k, 2);
        let f = point(panel, PolicyKind::Fcfs, k, 2);
        assert!(c.loss < f.loss, "controlled {} !< fcfs {}", c.loss, f.loss);
    }

    #[test]
    fn replication_interval_contains_analytic_value() {
        let panel = PANELS[2]; // rho' = 0.50, M = 25
        let k = 100.0;
        // Four independent seeds; BatchMeans with batch size 1 makes each
        // replication one batch, so its t-interval is the replication CI
        // (the per-run binomial CI treats messages as independent).
        let mut bm = tcw_sim::stats::BatchMeans::new(1);
        for r in 0..4 {
            let seed = tcw_sim::rng::stream_seed(9, r);
            bm.record(point(panel, PolicyKind::Controlled, k, seed).loss);
        }
        let (loss, ci95) = (bm.mean(), bm.ci95_half_width().unwrap_or(f64::INFINITY));
        assert!(ci95.is_finite());
        // The analytic value (~0.0046) lies inside the replication CI.
        let analytic = 0.0046;
        assert!(
            (loss - analytic).abs() <= ci95 + 0.01,
            "analytic {analytic} outside {loss:.4} ± {ci95:.4}"
        );
    }

    #[test]
    fn light_load_large_k_loss_is_negligible() {
        let panel = PANELS[0]; // rho' = 0.25, M = 25
        let p = point(panel, PolicyKind::Controlled, 400.0, 3);
        assert!(p.loss < 0.01, "loss = {}", p.loss);
        assert!(p.utilization > 0.15 && p.utilization < 0.35);
    }

    /// Two cells with every field away from its default, so that each
    /// edit below is a real change.
    fn grid() -> Vec<Scenario> {
        let cell = |seed| Scenario {
            plan: FaultPlan {
                deafness: 0.01,
                deaf_slots: 3,
                ..FaultPlan::uniform(0.02)
            },
            churn: ChurnPlan {
                crash: 0.001,
                down_slots: 40,
                late_join_frac: 0.2,
                join_slot: 2_000,
                leave_frac: 0.1,
                leave_slot: 20_000,
                catch_up_slots: 100,
                outage_start_slot: 5_000,
                outage_slots: 64,
            },
            ..Scenario::clean(PANELS[4], PolicyKind::Controlled, 100.0, quick(), seed)
        };
        vec![cell(1), cell(2)]
    }

    #[test]
    fn grid_fingerprint_covers_every_field_and_the_cell_order() {
        type Edit = fn(&mut Scenario);
        let edits: [(&str, Edit); 26] = [
            ("seed", |s| s.seed += 10),
            ("success_to_collision", |s| {
                s.plan.success_to_collision = 0.03
            }),
            ("collision_to_success", |s| {
                s.plan.collision_to_success = 0.03
            }),
            ("collision_to_idle", |s| s.plan.collision_to_idle = 0.03),
            ("idle_to_collision", |s| s.plan.idle_to_collision = 0.03),
            ("erasure", |s| s.plan.erasure = 0.03),
            ("deafness", |s| s.plan.deafness = 0.02),
            ("deaf_slots", |s| s.plan.deaf_slots += 1),
            ("crash", |s| s.churn.crash = 0.002),
            ("down_slots", |s| s.churn.down_slots += 1),
            ("late_join_frac", |s| s.churn.late_join_frac = 0.3),
            ("join_slot", |s| s.churn.join_slot += 1),
            ("leave_frac", |s| s.churn.leave_frac = 0.2),
            ("leave_slot", |s| s.churn.leave_slot += 1),
            ("catch_up_slots", |s| s.churn.catch_up_slots += 1),
            ("outage_start_slot", |s| s.churn.outage_start_slot += 1),
            ("outage_slots", |s| s.churn.outage_slots += 1),
            ("rho_prime", |s| s.panel.rho_prime = 0.5),
            ("m", |s| s.panel.m = 100),
            ("policy", |s| s.policy = PolicyKind::Lcfs),
            ("k_tau", |s| s.k_tau = 200.0),
            ("ticks_per_tau", |s| s.settings.ticks_per_tau += 1),
            ("messages", |s| s.settings.messages += 1),
            ("warmup", |s| s.settings.warmup += 1),
            ("stations", |s| s.settings.stations += 1),
            ("guard", |s| s.settings.guard = !s.settings.guard),
        ];
        let base = grid();
        let keys: Vec<&str> = base[0].fields().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, edits.map(|(k, _)| k), "one edit per canonical field");
        let fp = Scenario::grid_fingerprint(&base);
        for (key, edit) in edits {
            for cell in 0..base.len() {
                let mut g = base.clone();
                edit(&mut g[cell]);
                assert_ne!(g, base, "{key}: the edit changed nothing");
                let changed = Scenario::grid_fingerprint(&g);
                assert_ne!(changed, fp, "{key} of cell {cell} is not fingerprinted");
            }
        }
        let reversed: Vec<Scenario> = base.iter().rev().copied().collect();
        assert_ne!(Scenario::grid_fingerprint(&reversed), fp, "cell order");
        assert_ne!(Scenario::grid_fingerprint(&base[..1]), fp, "cell count");
    }
}
