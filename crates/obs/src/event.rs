//! Structured event tracing: an [`EngineObserver`] that encodes protocol
//! events into a preallocated ring of fixed-size records and drains them
//! as schema-versioned NDJSON (one JSON object per line).
//!
//! The tracer is strictly passive: it copies scalars out of the engine's
//! callbacks and never draws from an RNG stream, so enabling it cannot
//! perturb simulated results. The line format is documented at the crate
//! root ([`crate`]); [`SCHEMA_VERSION`] stamps every line.

use tcw_mac::{ChurnEvent, Message, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::interval::Interval;
use tcw_window::timeline::Timeline;
use tcw_window::trace::EngineObserver;

use crate::ndjson::LineWriter;

/// Version stamped into every NDJSON line as `"schema_version"`.
pub const SCHEMA_VERSION: u32 = 1;

/// Capacity of the preallocated record ring: events are encoded to text in
/// batches of this many, so the steady-state cost per event is one `Copy`
/// store plus amortized text growth.
const RING_CAP: usize = 4096;

/// Compact payload of one traced event. Fixed-size and `Copy` so ring
/// storage never allocates.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Decision point chose an initial window.
    Decision {
        segments: u32,
        win_start: u64,
        win_end: u64,
    },
    /// Decision point found nothing unexamined.
    DecisionIdle,
    /// One probe slot resolved idle.
    ProbeIdle { dur: u64, segments: u32 },
    /// One probe slot resolved as a success.
    ProbeSuccess { msg: u64, dur: u64, segments: u32 },
    /// One probe slot resolved as a collision among `n`.
    ProbeCollision { n: u32, dur: u64, segments: u32 },
    /// Window known to hold two or more arrivals split unprobed.
    Split {
        segments: u32,
        win_start: u64,
        win_end: u64,
    },
    /// Successful delivery. `start` is the transmission's start tick; it
    /// can precede the line's `t` because the engine reports deliveries
    /// at completion, after later-timestamped slot events.
    Transmit {
        start: u64,
        msg: u64,
        station: u32,
        paper_delay: u64,
        true_delay: u64,
    },
    /// Sender discard (policy element 4).
    Discard { msg: u64, station: u32 },
    /// Slot feedback corrupted by an injected fault.
    Corrupted { dur: u64 },
    /// Quiet backoff before re-probe.
    Backoff { dur: u64 },
    /// Windowing round abandoned after repeated corruption.
    Abandoned,
    /// Examined interval reopened for stranded arrivals.
    Reopen { start: u64, end: u64 },
    /// Membership transition.
    Churn { what: u8, station: u32 },
}

/// One ring entry: event time, probe-slot index and payload.
#[derive(Clone, Copy, Debug)]
struct EventRecord {
    t: u64,
    slot: u64,
    ev: Ev,
}

/// Ring-buffered NDJSON event tracer. See the crate root for the schema.
///
/// Use [`EventTracer::begin_cell`] to mark the start of each sweep cell's
/// stream and [`EventTracer::finish`] to flush and take the text.
#[derive(Debug)]
pub struct EventTracer {
    ring: Vec<EventRecord>,
    out: LineWriter,
    /// Line number within the current cell (the `cell` header excluded).
    seq: u64,
    /// Probe slots consumed so far in the current cell.
    slot: u64,
    /// Most recent event time, for events reported without one (`reopen`).
    last_t: u64,
}

impl Default for EventTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl EventTracer {
    /// Creates a tracer with a preallocated record ring.
    pub fn new() -> Self {
        EventTracer {
            ring: Vec::with_capacity(RING_CAP),
            out: LineWriter::default(),
            seq: 0,
            slot: 0,
            last_t: 0,
        }
    }

    /// Flushes pending records and writes a `cell` header line; `seq` and
    /// `slot` restart from zero so each cell's stream is self-contained.
    pub fn begin_cell(&mut self, index: usize, label: &str) {
        self.flush();
        self.out.cell_header(index, label);
        self.seq = 0;
        self.slot = 0;
        self.last_t = 0;
    }

    /// Flushes pending records and returns the accumulated NDJSON text,
    /// leaving the tracer empty and reusable.
    pub fn finish(&mut self) -> String {
        self.flush();
        self.out.take()
    }

    fn record(&mut self, t: Time, ev: Ev) {
        self.last_t = t.ticks();
        if self.ring.len() == RING_CAP {
            self.flush();
        }
        self.ring.push(EventRecord {
            t: t.ticks(),
            slot: self.slot,
            ev,
        });
    }

    fn flush(&mut self) {
        for rec in &self.ring {
            let w = self.out.open().num("seq", self.seq);
            w.num("slot", rec.slot).num("t", rec.t);
            self.seq += 1;
            match rec.ev {
                Ev::Decision {
                    segments,
                    win_start,
                    win_end,
                } => {
                    w.lit("ev", "decision")
                        .num("segments", segments.into())
                        .num("win_start", win_start)
                        .num("win_end", win_end);
                }
                Ev::DecisionIdle => {
                    w.lit("ev", "decision_idle");
                }
                Ev::ProbeIdle { dur, segments } => {
                    w.lit("ev", "probe")
                        .lit("outcome", "idle")
                        .num("dur", dur)
                        .num("segments", segments.into());
                }
                Ev::ProbeSuccess { msg, dur, segments } => {
                    w.lit("ev", "probe")
                        .lit("outcome", "success")
                        .num("msg", msg)
                        .num("dur", dur)
                        .num("segments", segments.into());
                }
                Ev::ProbeCollision { n, dur, segments } => {
                    w.lit("ev", "probe")
                        .lit("outcome", "collision")
                        .num("n", n.into())
                        .num("dur", dur)
                        .num("segments", segments.into());
                }
                Ev::Split {
                    segments,
                    win_start,
                    win_end,
                } => {
                    w.lit("ev", "split")
                        .num("segments", segments.into())
                        .num("win_start", win_start)
                        .num("win_end", win_end);
                }
                Ev::Transmit {
                    start,
                    msg,
                    station,
                    paper_delay,
                    true_delay,
                } => {
                    w.lit("ev", "transmit")
                        .num("start", start)
                        .num("msg", msg)
                        .num("station", station.into())
                        .num("paper_delay", paper_delay)
                        .num("true_delay", true_delay);
                }
                Ev::Discard { msg, station } => {
                    w.lit("ev", "discard")
                        .num("msg", msg)
                        .num("station", station.into());
                }
                Ev::Corrupted { dur } => {
                    w.lit("ev", "corrupted_slot").num("dur", dur);
                }
                Ev::Backoff { dur } => {
                    w.lit("ev", "backoff").num("dur", dur);
                }
                Ev::Abandoned => {
                    w.lit("ev", "round_abandoned");
                }
                Ev::Reopen { start, end } => {
                    w.lit("ev", "reopen").num("start", start).num("end", end);
                }
                Ev::Churn { what, station } => {
                    let what = match what {
                        0 => "crash",
                        1 => "restart",
                        2 => "join",
                        _ => "leave",
                    };
                    w.lit("ev", "churn")
                        .lit("what", what)
                        .num("station", station.into());
                }
            }
            w.close();
        }
        self.ring.clear();
    }
}

/// Window bounds as (segment count, first lo, last hi); zeros when empty.
fn window_bounds(segments: &[Interval]) -> (u32, u64, u64) {
    match (segments.first(), segments.last()) {
        (Some(a), Some(b)) => (segments.len() as u32, a.lo.ticks(), b.hi.ticks()),
        _ => (0, 0, 0),
    }
}

impl EngineObserver for EventTracer {
    // NDJSON traces are a per-event record by definition; the tracer
    // forces the slot-stepped path so no event is aggregated away.
    fn slow_path(&self) -> bool {
        true
    }

    fn on_decision(&mut self, now: Time, segments: Option<&[Interval]>) {
        match segments {
            Some(s) => {
                let (segments, win_start, win_end) = window_bounds(s);
                self.record(
                    now,
                    Ev::Decision {
                        segments,
                        win_start,
                        win_end,
                    },
                );
            }
            None => self.record(now, Ev::DecisionIdle),
        }
    }

    fn on_probe(&mut self, start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) {
        let n_segments = segments.len() as u32;
        let ev = match outcome {
            SlotOutcome::Idle => Ev::ProbeIdle {
                dur: dur.ticks(),
                segments: n_segments,
            },
            SlotOutcome::Success(id) => Ev::ProbeSuccess {
                msg: id.0,
                dur: dur.ticks(),
                segments: n_segments,
            },
            SlotOutcome::Collision(n) => Ev::ProbeCollision {
                n: *n,
                dur: dur.ticks(),
                segments: n_segments,
            },
        };
        self.record(start, ev);
        self.slot += 1;
    }

    fn on_immediate_split(&mut self, now: Time, segments: &[Interval]) {
        let (segments, win_start, win_end) = window_bounds(segments);
        self.record(
            now,
            Ev::Split {
                segments,
                win_start,
                win_end,
            },
        );
    }

    fn on_transmit(&mut self, msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) {
        // Deliveries are reported at completion, so `start` can precede
        // events already recorded; keep the line's `t` monotone (the
        // observation time) and carry the raw start in the payload.
        self.record(
            Time::from_ticks(self.last_t.max(start.ticks())),
            Ev::Transmit {
                start: start.ticks(),
                msg: msg.id.0,
                station: msg.station.0,
                paper_delay: paper_delay.ticks(),
                true_delay: true_delay.ticks(),
            },
        );
    }

    fn on_sender_discard(&mut self, msg: &Message, now: Time) {
        self.record(
            now,
            Ev::Discard {
                msg: msg.id.0,
                station: msg.station.0,
            },
        );
    }

    fn on_corrupted_slot(&mut self, now: Time, dur: Dur) {
        self.record(now, Ev::Corrupted { dur: dur.ticks() });
        self.slot += 1;
    }

    fn on_backoff(&mut self, now: Time, dur: Dur) {
        self.record(now, Ev::Backoff { dur: dur.ticks() });
    }

    fn on_round_abandoned(&mut self, now: Time) {
        self.record(now, Ev::Abandoned);
    }

    fn on_reopen(&mut self, iv: Interval) {
        // The engine reports reopens without a timestamp; attribute them to
        // the most recent event time so `t` stays non-decreasing.
        self.record(
            Time::from_ticks(self.last_t),
            Ev::Reopen {
                start: iv.lo.ticks(),
                end: iv.hi.ticks(),
            },
        );
    }

    fn on_beacon(&mut self, _now: Time, _timeline: &Timeline, _rng: &Rng) {
        // Beacons carry full consensus state; tracing them would dominate
        // the stream without adding per-event information.
    }

    fn on_churn_event(&mut self, now: Time, ev: &ChurnEvent) {
        let (what, station) = match ev {
            ChurnEvent::Crash(s) => (0u8, s.0),
            ChurnEvent::Restart(s) => (1, s.0),
            ChurnEvent::Join(s) => (2, s.0),
            ChurnEvent::Leave(s) => (3, s.0),
        };
        self.record(now, Ev::Churn { what, station });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_mac::{MessageId, StationId};

    #[test]
    fn lines_carry_schema_version_and_seq() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "demo");
        tr.on_decision(Time::from_ticks(0), Some(&[Interval::from_ticks(0, 8)]));
        tr.on_probe(
            Time::from_ticks(0),
            &[Interval::from_ticks(0, 8)],
            &SlotOutcome::Collision(2),
            Dur::from_ticks(64),
        );
        let msg = Message::new(MessageId(3), StationId(1), Time::from_ticks(2));
        tr.on_transmit(
            &msg,
            Time::from_ticks(64),
            Dur::from_ticks(70),
            Dur::from_ticks(70),
        );
        let text = tr.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ev\":\"cell\""));
        assert!(lines[0].contains("\"label\":\"demo\""));
        assert!(lines[1].contains("\"seq\":0"));
        assert!(lines[2].contains("\"outcome\":\"collision\""));
        assert!(lines[2].contains("\"n\":2"));
        assert!(lines[3].contains("\"ev\":\"transmit\""));
        assert!(lines[3].contains("\"start\":64"));
        assert!(lines[3].contains("\"paper_delay\":70"));
        for l in &lines {
            assert!(l.starts_with("{\"schema_version\":1,"), "{l}");
            assert!(l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn slot_counter_tracks_probes_and_corrupted_slots() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "slots");
        tr.on_probe(
            Time::from_ticks(0),
            &[],
            &SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        tr.on_corrupted_slot(Time::from_ticks(64), Dur::from_ticks(64));
        tr.on_probe(
            Time::from_ticks(128),
            &[],
            &SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        let text = tr.finish();
        let slots: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| {
                let i = l.find("\"slot\":").unwrap() + 7;
                &l[i..i + 1]
            })
            .collect();
        assert_eq!(slots, ["0", "1", "2"]);
    }

    #[test]
    fn begin_cell_resets_seq_and_flushes() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "a");
        tr.on_round_abandoned(Time::from_ticks(5));
        tr.begin_cell(1, "b");
        tr.on_round_abandoned(Time::from_ticks(9));
        let text = tr.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"cell\":0"));
        assert!(lines[2].contains("\"cell\":1"));
        assert!(lines[1].contains("\"seq\":0"));
        assert!(lines[3].contains("\"seq\":0"));
    }

    #[test]
    fn ring_overflow_flushes_in_order() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "big");
        for i in 0..(super::RING_CAP as u64 + 10) {
            tr.on_round_abandoned(Time::from_ticks(i));
        }
        let text = tr.finish();
        assert_eq!(text.lines().count(), super::RING_CAP + 11);
        let last = text.lines().last().unwrap();
        assert!(
            last.contains(&format!("\"seq\":{}", super::RING_CAP + 9)),
            "{last}"
        );
    }

    #[test]
    fn labels_are_json_escaped() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "a\"b\\c\nd");
        let text = tr.finish();
        assert!(text.contains(r#""label":"a\"b\\c\nd""#), "{text}");
    }

    /// Every record kind keeps the line format the tracer wrote with
    /// `core::fmt`, rebuilt here with `format!` as the oracle.
    #[test]
    fn every_record_kind_keeps_its_line_format() {
        use tcw_mac::ChurnEvent;
        let big = u64::MAX - 1;
        let mut tr = EventTracer::new();
        tr.begin_cell(usize::MAX, "K=25 \"q\"\t\u{7}");
        let segs = [Interval::from_ticks(3, 9), Interval::from_ticks(12, big)];
        tr.on_decision(Time::from_ticks(1), Some(&segs));
        tr.on_decision(Time::from_ticks(2), None);
        tr.on_probe(
            Time::from_ticks(3),
            &segs,
            &SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        let ok = SlotOutcome::Success(MessageId(big));
        tr.on_probe(Time::from_ticks(4), &segs[..1], &ok, Dur::from_ticks(10));
        let coll = SlotOutcome::Collision(u32::MAX);
        tr.on_probe(Time::from_ticks(5), &[], &coll, Dur::from_ticks(0));
        tr.on_immediate_split(Time::from_ticks(6), &segs);
        let m = Message::new(MessageId(17), StationId(u32::MAX), Time::from_ticks(0));
        tr.on_transmit(
            &m,
            Time::from_ticks(2),
            Dur::from_ticks(99),
            Dur::from_ticks(100),
        );
        tr.on_sender_discard(&m, Time::from_ticks(7));
        tr.on_corrupted_slot(Time::from_ticks(8), Dur::from_ticks(64));
        tr.on_backoff(Time::from_ticks(9), Dur::from_ticks(128));
        tr.on_round_abandoned(Time::from_ticks(10));
        tr.on_reopen(Interval::from_ticks(4, 5));
        for (i, ev) in [
            ChurnEvent::Crash(StationId(0)),
            ChurnEvent::Restart(StationId(1)),
            ChurnEvent::Join(StationId(2)),
            ChurnEvent::Leave(StationId(3)),
        ]
        .iter()
        .enumerate()
        {
            tr.on_churn_event(Time::from_ticks(11 + i as u64), ev);
        }
        let text = tr.finish();

        let v = SCHEMA_VERSION;
        let mut want = format!(
            "{{\"schema_version\":{v},\"ev\":\"cell\",\"cell\":{},\"label\":\"K=25 \\\"q\\\"\\t\\u0007\"}}\n",
            usize::MAX
        );
        let bodies = [
            (0, 1, format!("\"ev\":\"decision\",\"segments\":2,\"win_start\":3,\"win_end\":{big}")),
            (0, 2, "\"ev\":\"decision_idle\"".to_string()),
            (0, 3, "\"ev\":\"probe\",\"outcome\":\"idle\",\"dur\":64,\"segments\":2".to_string()),
            (1, 4, format!("\"ev\":\"probe\",\"outcome\":\"success\",\"msg\":{big},\"dur\":10,\"segments\":1")),
            (2, 5, format!("\"ev\":\"probe\",\"outcome\":\"collision\",\"n\":{},\"dur\":0,\"segments\":0", u32::MAX)),
            (3, 6, format!("\"ev\":\"split\",\"segments\":2,\"win_start\":3,\"win_end\":{big}")),
            (3, 6, format!("\"ev\":\"transmit\",\"start\":2,\"msg\":17,\"station\":{},\"paper_delay\":99,\"true_delay\":100", u32::MAX)),
            (3, 7, format!("\"ev\":\"discard\",\"msg\":17,\"station\":{}", u32::MAX)),
            (3, 8, "\"ev\":\"corrupted_slot\",\"dur\":64".to_string()),
            (4, 9, "\"ev\":\"backoff\",\"dur\":128".to_string()),
            (4, 10, "\"ev\":\"round_abandoned\"".to_string()),
            (4, 10, "\"ev\":\"reopen\",\"start\":4,\"end\":5".to_string()),
            (4, 11, "\"ev\":\"churn\",\"what\":\"crash\",\"station\":0".to_string()),
            (4, 12, "\"ev\":\"churn\",\"what\":\"restart\",\"station\":1".to_string()),
            (4, 13, "\"ev\":\"churn\",\"what\":\"join\",\"station\":2".to_string()),
            (4, 14, "\"ev\":\"churn\",\"what\":\"leave\",\"station\":3".to_string()),
        ];
        for (seq, (slot, t, body)) in bodies.iter().enumerate() {
            want.push_str(&format!(
                "{{\"schema_version\":{v},\"seq\":{seq},\"slot\":{slot},\"t\":{t},{body}}}\n"
            ));
        }
        assert_eq!(text, want);
    }

    #[test]
    fn reopen_reuses_last_event_time() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "reopen");
        tr.on_round_abandoned(Time::from_ticks(42));
        tr.on_reopen(Interval::from_ticks(7, 9));
        let text = tr.finish();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"t\":42"), "{last}");
        assert!(last.contains("\"start\":7"), "{last}");
        assert!(last.contains("\"end\":9"), "{last}");
    }
}
