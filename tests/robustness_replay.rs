//! End-to-end checks of the fault-injection sweep machinery and the
//! deterministic failure-replay artifact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tcw_experiments::adaptive::AdaptiveRecord;
use tcw_experiments::replay::FailureRecord;
use tcw_experiments::runner::{run, Outcome, PolicyKind, Scenario, SimSettings};
use tcw_experiments::{ChaosRecord, Panel};
use tcw_mac::FaultPlan;
use tcw_window::mirror::DivergenceDetector;
use tcw_window::trace::NoopObserver;

fn quick() -> SimSettings {
    SimSettings {
        ticks_per_tau: 16,
        messages: 3_000,
        warmup: 300,
        ..Default::default()
    }
}

fn panel() -> Panel {
    Panel {
        rho_prime: 0.5,
        m: 25,
    }
}

/// A controlled run at K = 100 tau with a fault plan and no churn.
fn scenario(seed: u64, plan: FaultPlan) -> Scenario {
    Scenario {
        plan,
        ..Scenario::clean(panel(), PolicyKind::Controlled, 100.0, quick(), seed)
    }
}

fn faulty(seed: u64, plan: FaultPlan) -> Outcome {
    run(&scenario(seed, plan), &mut NoopObserver, None)
}

/// [`faulty`] with listening station 0 tracked by the divergence detector.
fn with_detector(sc: &Scenario) -> DivergenceDetector {
    let mut det = sc.detector();
    run(sc, &mut det, None);
    det
}

#[test]
fn none_plan_matches_plain_runner_exactly() {
    let clean = Scenario::clean(panel(), PolicyKind::Controlled, 100.0, quick(), 7);
    let base = run(&clean, &mut NoopObserver, None).point;
    let faulty = faulty(7, FaultPlan::none());
    assert_eq!(format!("{base:?}"), format!("{:?}", faulty.point));
    assert_eq!(faulty.faults.corrupted_slots, 0);
    assert_eq!(faulty.faults.erased_slots, 0);
    assert_eq!(faulty.faults.resyncs, 0);
    assert_eq!(faulty.faults.fault_losses, 0);
}

#[test]
fn faults_degrade_loss_gracefully() {
    let clean = faulty(7, FaultPlan::none());
    let light = faulty(7, FaultPlan::uniform(0.02));
    let heavy = faulty(7, FaultPlan::uniform(0.10));
    assert!(light.faults.corrupted_slots > 0);
    assert!(heavy.faults.corrupted_slots > light.faults.corrupted_slots);
    // Degradation is graceful: loss rises with the fault rate but the
    // protocol keeps delivering the vast majority of traffic.
    assert!(light.point.loss >= clean.point.loss);
    assert!(heavy.point.loss > light.point.loss);
    assert!(
        heavy.point.loss < 0.5,
        "loss collapsed: {}",
        heavy.point.loss
    );
}

#[test]
fn detector_run_is_deterministic_and_replayable() {
    let mut plan = FaultPlan::uniform(0.02);
    plan.deafness = 0.005;
    plan.deaf_slots = 4;
    let det_a = with_detector(&scenario(11, plan));
    let det_b = with_detector(&scenario(11, plan));
    assert!(det_a.divergences() > 0, "deafness produced no divergence");
    assert_eq!(det_a.divergences(), det_b.divergences());
    assert_eq!(det_a.dropped_slots(), det_b.dropped_slots());
    assert_eq!(det_a.first_divergence(), det_b.first_divergence());
}

#[test]
fn artifact_roundtrip_reproduces_the_failure() {
    // Build a failing record the way the robustness binary does, write it,
    // reload it, and re-execute: the observed failure must be identical.
    let mut plan = FaultPlan::uniform(0.02);
    plan.deafness = 0.005;
    plan.deaf_slots = 4;
    let sc = scenario(11, plan);
    let det = with_detector(&sc);
    let first = det.first_divergence().expect("deafness must diverge");
    let rec = FailureRecord::new(&sc, "divergence", first);
    let dir = std::env::temp_dir().join("tcw_robustness_test");
    let path = dir.join("artifact.json");
    rec.save(&path).expect("save artifact");
    let loaded = FailureRecord::load(&path).expect("load artifact");
    assert_eq!(loaded, rec);
    // Replay from the loaded record alone.
    let replayed = with_detector(&loaded.scenario());
    assert_eq!(
        replayed.first_divergence(),
        Some(first),
        "replay did not reproduce the recorded failure"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panics_are_catchable_for_the_harness() {
    // The replay harness depends on invalid plans failing loudly inside
    // catch_unwind rather than corrupting a run.
    let bad = FaultPlan {
        collision_to_success: 0.9,
        collision_to_idle: 0.9,
        ..FaultPlan::none()
    };
    let result = catch_unwind(AssertUnwindSafe(|| faulty(7, bad)));
    assert!(result.is_err(), "oversubscribed plan must be rejected");
}

/// Every committed replay artifact loads through its record type and
/// re-serializes to its exact bytes, so a codec change cannot silently
/// rewrite (or stop reading) the artifacts under `results/failures/`.
#[test]
fn committed_replay_artifacts_reserialize_unchanged() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/failures");
    let mut families = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/failures exists") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let (family, json) = if text.contains("\"experiment\": \"chaos\"") {
            ("chaos", ChaosRecord::from_json(&text).map(|r| r.to_json()))
        } else if text.contains("\"experiment\": \"adaptive\"") {
            (
                "adaptive",
                AdaptiveRecord::from_json(&text).map(|r| r.to_json()),
            )
        } else {
            (
                "failure",
                FailureRecord::from_json(&text).map(|r| r.to_json()),
            )
        };
        let json = json.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(json, text, "{} re-serialized differently", path.display());
        families.push(family);
    }
    families.sort_unstable();
    families.dedup();
    assert_eq!(families, ["adaptive", "chaos", "failure"]);
}
