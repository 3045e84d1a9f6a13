//! Property-based tests for the channel substrate.
//!
//! Randomized cases are drawn from the deterministic [`Rng`] so every
//! failure reproduces from its case index (the repository builds offline,
//! without an external property-testing framework).

use tcw_mac::adversary::{AdversarialInjector, AdversaryPlan};
use tcw_mac::arrivals::{
    collect_until, ArrivalSource, MergedSource, PiecewiseArrivals, PoissonArrivals, TraceArrivals,
};
use tcw_mac::channel::{ChannelConfig, ChannelStats, Medium, SlotOutcome};
use tcw_mac::churn::{ChurnPlan, ChurnProcess};
use tcw_mac::fault::{FaultPlan, FaultyMedium};
use tcw_mac::message::MessageId;
use tcw_mac::traffic::{SensorConfig, SensorSource, VoiceConfig, VoiceSource};
use tcw_sim::rng::Rng;
use tcw_sim::snap::SnapWriter;
use tcw_sim::time::{Dur, Time};

const CASES: u64 = 150;

/// Every arrival source emits non-decreasing times.
#[test]
fn sources_are_time_monotone() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xACC0_0001 ^ case);
        let which = rng.below(6) as usize;
        let mut src: Box<dyn ArrivalSource> = match which {
            0 => Box::new(PoissonArrivals::new(0.05, 7)),
            1 => Box::new(VoiceSource::new(VoiceConfig {
                stations: 5,
                mean_talkspurt: Dur::from_ticks(4_000),
                mean_silence: Dur::from_ticks(6_000),
                packet_interval: Dur::from_ticks(400),
            })),
            2 => Box::new(SensorSource::new(SensorConfig {
                stations: 9,
                mean_event_gap: Dur::from_ticks(900),
                mean_reports: 2.5,
                jitter: Dur::from_ticks(50),
            })),
            3 => Box::new(PiecewiseArrivals::flash_crowd(
                0.01 + 0.04 * rng.f64(),
                1.0 + 7.0 * rng.f64(),
                &[
                    (Time::from_ticks(1_000), Dur::from_ticks(500)),
                    (Time::from_ticks(4_000), Dur::from_ticks(800)),
                ],
                5,
            )),
            4 => Box::new(AdversarialInjector::new(AdversaryPlan {
                rate: 0.005 + 0.02 * rng.f64(),
                burst: 1 + rng.below(12) as u32,
                start: Time::from_ticks(rng.below(5_000)),
                stations: 6,
            })),
            _ => Box::new(MergedSource::new(vec![
                Box::new(PoissonArrivals::new(0.02, 3)),
                Box::new(PoissonArrivals::new(0.05, 3)),
            ])),
        };
        let mut prev = None;
        for _ in 0..500 {
            let Some(a) = src.next_arrival(&mut rng) else {
                break;
            };
            if let Some(p) = prev {
                assert!(a.time >= p, "case {case}: time went backwards");
            }
            prev = Some(a.time);
        }
    }
}

/// Every rate-parameterized source delivers its configured long-run
/// rate empirically (within sampling tolerance over a long horizon).
#[test]
fn sources_match_their_configured_rates() {
    for case in 0..30 {
        let mut rng = Rng::new(0xACC0_0004 ^ case);
        let horizon = Time::from_ticks(400_000);
        let which = case % 5;
        let (mut src, expected, tol): (Box<dyn ArrivalSource>, f64, f64) = match which {
            0 => {
                let rate = 0.005 + 0.03 * rng.f64();
                (Box::new(PoissonArrivals::new(rate, 7)), rate, 0.05)
            }
            1 => {
                let before = 0.004 + 0.01 * rng.f64();
                let after = before * (2.0 + 8.0 * rng.f64());
                let at = Time::from_ticks(100_000 + rng.below(200_000));
                let pw = PiecewiseArrivals::load_step(before, after, at, 5);
                let mean = pw.mean_rate_until(horizon);
                (Box::new(pw), mean, 0.05)
            }
            2 => {
                let base = 0.004 + 0.008 * rng.f64();
                let surge = 2.0 + 6.0 * rng.f64();
                let pw = PiecewiseArrivals::flash_crowd(
                    base,
                    surge,
                    &[
                        (Time::from_ticks(50_000), Dur::from_ticks(20_000)),
                        (Time::from_ticks(200_000), Dur::from_ticks(30_000)),
                    ],
                    5,
                );
                let mean = pw.mean_rate_until(horizon);
                (Box::new(pw), mean, 0.05)
            }
            3 => {
                let cfg = VoiceConfig {
                    stations: 20,
                    mean_talkspurt: Dur::from_ticks(2_000),
                    mean_silence: Dur::from_ticks(6_000),
                    packet_interval: Dur::from_ticks(200),
                };
                // On/off phases correlate packets, so the empirical rate
                // converges far slower than for Poisson streams.
                (Box::new(VoiceSource::new(cfg)), cfg.aggregate_rate(), 0.15)
            }
            _ => {
                let plan = AdversaryPlan {
                    rate: 0.002 + 0.01 * rng.f64(),
                    burst: 2 + rng.below(10) as u32,
                    start: Time::ZERO,
                    stations: 6,
                };
                (Box::new(AdversarialInjector::new(plan)), plan.rate, 0.05)
            }
        };
        let arrivals = collect_until(&mut *src, &mut rng, horizon, usize::MAX);
        let empirical = arrivals.len() as f64 / horizon.ticks() as f64;
        assert!(
            (empirical - expected).abs() / expected < tol,
            "case {case} (kind {which}): empirical rate {empirical:.5}, expected {expected:.5}"
        );
    }
}

/// Trace sources replay exactly their input multiset, sorted.
#[test]
fn trace_replays_sorted() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xACC0_0002 ^ case);
        let n = rng.below(50) as usize;
        let pairs: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.below(10_000), rng.below(8) as u32))
            .collect();
        let mut src = TraceArrivals::from_ticks(&pairs);
        let mut feed = Rng::new(0);
        let mut got = Vec::new();
        while let Some(a) = src.next_arrival(&mut feed) {
            got.push((a.time.ticks(), a.station.0));
        }
        assert_eq!(got.len(), pairs.len());
        let mut got_times: Vec<u64> = got.iter().map(|&(t, _)| t).collect();
        let mut expect_times: Vec<u64> = pairs.iter().map(|&(t, _)| t).collect();
        got_times.sort();
        expect_times.sort();
        assert_eq!(got_times, expect_times, "case {case}");
        // and emission order is sorted
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: emission not sorted");
        }
    }
}

/// Medium outcomes and costs are exhaustively consistent with the
/// transmitter count, and stats conserve channel time.
#[test]
fn medium_and_stats_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xACC0_0003 ^ case);
        let m = 1 + rng.below(119);
        let tpt = 1 + rng.below(127);
        let guard = rng.chance(0.5);
        let steps = 1 + rng.below(99) as usize;
        let counts: Vec<usize> = (0..steps).map(|_| rng.below(6) as usize).collect();
        let cfg = ChannelConfig {
            ticks_per_tau: tpt,
            message_slots: m,
            guard,
        };
        let medium = Medium::new(cfg);
        let mut stats = ChannelStats::new();
        let mut expected_total = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            let ids: Vec<MessageId> = (0..n).map(|j| MessageId((i * 10 + j) as u64)).collect();
            let (outcome, dur) = medium.probe(&ids);
            match n {
                0 => assert_eq!(outcome, SlotOutcome::Idle),
                1 => assert!(outcome.is_success()),
                k => assert_eq!(outcome, SlotOutcome::Collision(k as u32)),
            }
            let expect_dur = match n {
                1 => tpt * m + if guard { tpt } else { 0 },
                _ => tpt,
            };
            assert_eq!(dur.ticks(), expect_dur, "case {case}");
            stats.record(&outcome, dur);
            expected_total += expect_dur;
        }
        assert_eq!(stats.total().ticks(), expected_total, "case {case}");
        let busy = stats.utilization();
        assert!((0.0..=1.0).contains(&busy));
        assert_eq!(
            stats.successes as usize,
            counts.iter().filter(|&&n| n == 1).count()
        );
    }
}

/// A random membership plan over a random population: crash/restart
/// (sometimes off), late joiners and scheduled leavers, each drawn
/// independently so every combination occurs.
fn churn_case(rng: &mut Rng) -> (ChurnPlan, u32) {
    let crash = match rng.below(3) {
        0 => 0.0,
        1 => 0.0005 + 0.005 * rng.f64(),
        _ => 0.01 + 0.05 * rng.f64(),
    };
    let plan = ChurnPlan {
        crash,
        down_slots: 1 + rng.below(60),
        late_join_frac: if rng.chance(0.5) {
            0.4 * rng.f64()
        } else {
            0.0
        },
        join_slot: rng.below(400),
        leave_frac: if rng.chance(0.5) {
            0.4 * rng.f64()
        } else {
            0.0
        },
        leave_slot: rng.below(600),
        catch_up_slots: 100,
        ..ChurnPlan::none()
    };
    (plan, rng.below(40) as u32)
}

/// The full serialized state of a membership process: plan, crash-stream
/// position, member states, leave schedule, slot clock and counters.
fn churn_words(p: &ChurnProcess) -> Vec<u64> {
    let mut w = SnapWriter::new();
    p.save_state(&mut w);
    w.into_words()
}

/// `quiet_slots(n) = q`, `advance_quiet(k)` for any `k <= q`, then `step`
/// is bit-identical to `k + 1` plain steps: the same events (none before
/// the last step), member states, counters and crash-stream state — from
/// every starting point of a run, mid-outage included.
#[test]
fn quiet_peek_and_advance_match_plain_steps() {
    let mut eventful_stops = 0u64;
    let mut long_runs = 0u64;
    for case in 0..CASES {
        let mut rng = Rng::new(0xACC0_0004 ^ case);
        let (plan, stations) = churn_case(&mut rng);
        let mut fast = ChurnProcess::new(plan, stations, Rng::new(case));
        let mut events = Vec::new();
        for _ in 0..rng.below(300) {
            fast.step(&mut events);
        }
        for round in 0..40 {
            let mut slow = fast.clone();
            let max = rng.below(2_500);
            let q = fast.quiet_slots(max);
            assert!(q <= max, "case {case} round {round}: {q} > {max}");
            let k = if q > 0 && rng.chance(0.25) {
                rng.below(q + 1)
            } else {
                q
            };
            fast.advance_quiet(k);
            let mut fast_events = Vec::new();
            fast.step(&mut fast_events);
            let mut slow_events = Vec::new();
            for _ in 0..=k {
                slow.step(&mut slow_events);
            }
            assert_eq!(fast_events, slow_events, "case {case} round {round}");
            assert_eq!(
                churn_words(&fast),
                churn_words(&slow),
                "case {case} round {round}: state diverged after {k} quiet slots"
            );
            if q < max && k == q && !fast_events.is_empty() {
                eventful_stops += 1;
            }
            if q >= 50 {
                long_runs += 1;
            }
        }
    }
    assert!(
        eventful_stops > 100 && long_runs > 100,
        "peek suite is vacuous: {eventful_stops} eventful stops, {long_runs} long runs"
    );
}

/// The peek cache is derived state: a snapshot taken after a peek is
/// byte-identical to one taken without it.
#[test]
fn churn_peek_leaves_snapshot_unchanged() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xACC0_0005 ^ case);
        let (plan, stations) = churn_case(&mut rng);
        let mut p = ChurnProcess::new(plan, stations, Rng::new(case));
        let mut events = Vec::new();
        for _ in 0..rng.below(300) {
            p.step(&mut events);
        }
        let before = churn_words(&p);
        let _ = p.quiet_slots(1 + rng.below(2_000));
        assert_eq!(churn_words(&p), before, "case {case}");
    }
}

/// `clean_probes` agrees with `probe`'s own fault decision for physical
/// idle and success slots, and `consume_clean` leaves the stream exactly
/// where that many probes would.
#[test]
fn clean_probe_peek_matches_probe() {
    let cfg = ChannelConfig {
        ticks_per_tau: 4,
        message_slots: 5,
        guard: false,
    };
    let mut early_stops = 0u64;
    for case in 0..CASES {
        let mut rng = Rng::new(0xACC0_0006 ^ case);
        let mut p = || {
            if rng.chance(0.3) {
                0.0
            } else {
                0.2 * rng.f64()
            }
        };
        let plan = FaultPlan {
            success_to_collision: p(),
            collision_to_success: p(),
            collision_to_idle: p(),
            idle_to_collision: p(),
            erasure: p(),
            ..FaultPlan::none()
        };
        let idle = rng.chance(0.5);
        let ids: &[MessageId] = if idle { &[] } else { &[MessageId(7)] };
        let max = rng.below(200);
        let mut peeked = FaultyMedium::new(Medium::new(cfg), plan, Rng::new(case));
        let mut probed = peeked.clone();
        let c = peeked.clean_probes(idle, max);
        assert!(c <= max, "case {case}");
        for i in 0..c {
            assert_eq!(probed.probe(ids).fault, None, "case {case} probe {i}");
        }
        peeked.consume_clean(c);
        if c < max {
            let (a, b) = (peeked.probe(ids), probed.probe(ids));
            assert!(
                b.fault.is_some(),
                "case {case}: peek stopped on a clean probe"
            );
            assert_eq!((a.observed, a.fault), (b.observed, b.fault), "case {case}");
            early_stops += 1;
        }
        for i in 0..20u64 {
            let ids: Vec<MessageId> = (0..i % 3).map(MessageId).collect();
            let (a, b) = (peeked.probe(&ids), probed.probe(&ids));
            assert_eq!((a.observed, a.fault), (b.observed, b.fault), "case {case}");
        }
    }
    assert!(
        early_stops > 20,
        "peek never met a faulty probe: {early_stops}"
    );
}
