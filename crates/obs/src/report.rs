//! Offline analysis of lifecycle-span streams (`*.spans.ndjson`): parses
//! the span schema documented at the crate root back into per-message
//! lifecycles and renders, per sweep cell,
//!
//! * outcome counts and collision-resolution episode statistics,
//! * a per-message latency breakdown — queueing (arrival → first window
//!   membership) vs contention (first window → transmission start) vs
//!   resolution (first collision episode → transmission start),
//! * a per-station age-of-information summary reconstructed from the
//!   delivery saw-tooth, and
//! * deadline-miss forensics: the worst offenders with their full
//!   breakdowns, for a caller-supplied deadline in ticks.
//!
//! The `obs_report` binary wraps [`parse_spans`] + [`render_report`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::lint::{for_each_line, num, parse_flat_line, Scalar};
use crate::SCHEMA_VERSION;

/// How a message's lifecycle span closed.
#[derive(Clone, Debug, PartialEq)]
pub enum Close {
    /// Delivered successfully; `t` is the completion tick.
    Delivered {
        /// Completion tick of the delivery.
        t: u64,
        /// Transmission start tick.
        start: u64,
        /// Paper-clock delay (policy element 3 accounting), ticks.
        paper_delay: u64,
        /// Arrival-to-completion delay, ticks.
        true_delay: u64,
    },
    /// Discarded at the sender (policy element 4) at tick `t`.
    Discarded {
        /// Discard tick.
        t: u64,
        /// Message age at discard, ticks.
        age: u64,
    },
    /// Dropped by churn at tick `t`.
    Dropped {
        /// Drop tick.
        t: u64,
        /// Message age at drop, ticks.
        age: u64,
        /// Drop cause label (`station_left` or `rejoin_expired`).
        cause: String,
    },
}

/// One message's reconstructed lifecycle.
#[derive(Clone, Debug)]
pub struct MessageLife {
    /// Message id.
    pub msg: u64,
    /// Station holding the message.
    pub station: u32,
    /// Arrival tick at the station.
    pub arrival: u64,
    /// Tick at which the span opened (protocol admission).
    pub open_t: u64,
    /// Number of windowing rounds whose initial window held the message.
    pub windows: u32,
    /// Tick of the first window membership, if any.
    pub first_window_t: Option<u64>,
    /// Number of collision episodes the message transmitted into.
    pub collisions: u32,
    /// Tick of the first collision episode, if any.
    pub first_collision_t: Option<u64>,
    /// How the span closed; `None` for a stream truncated mid-span.
    pub close: Option<Close>,
}

impl MessageLife {
    /// Queueing ticks: arrival → first window membership.
    pub fn queueing(&self) -> Option<u64> {
        self.first_window_t.map(|w| w.saturating_sub(self.arrival))
    }

    /// Contention ticks: first window membership → transmission start.
    /// Only defined for delivered messages.
    pub fn contention(&self) -> Option<u64> {
        match (&self.close, self.first_window_t) {
            (Some(Close::Delivered { start, .. }), Some(w)) => Some(start.saturating_sub(w)),
            _ => None,
        }
    }

    /// Resolution ticks: first collision episode → transmission start.
    /// Only defined for delivered messages that collided at least once.
    pub fn resolution(&self) -> Option<u64> {
        match (&self.close, self.first_collision_t) {
            (Some(Close::Delivered { start, .. }), Some(c)) => Some(start.saturating_sub(c)),
            _ => None,
        }
    }
}

/// One sweep cell's worth of reconstructed lifecycles.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Cell index from the `cell` header.
    pub index: u64,
    /// Cell label from the `cell` header.
    pub label: String,
    /// Reconstructed lifecycles, in span-open order.
    pub messages: Vec<MessageLife>,
}

/// Parses a span NDJSON stream into per-cell message lifecycles. Lines
/// before the first `cell` header are collected into an implicit cell 0
/// labelled `"(headerless)"`. Errors mirror [`crate::lint::lint_spans`]
/// but parsing is tolerant of truncation: an unclosed span surfaces as
/// `close: None` rather than an error, so forensics can run on streams a
/// crash cut short.
pub fn parse_spans(text: &str) -> Result<Vec<Cell>, String> {
    parse_spans_from(text.as_bytes())
}

/// [`parse_spans`] over a reader, one line at a time: memory grows with
/// the reconstructed lifecycles, not with the stream's text.
pub fn parse_spans_from(r: impl BufRead) -> Result<Vec<Cell>, String> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new(); // msg -> position in current cell
    let ensure_cell = |cells: &mut Vec<Cell>| {
        if cells.is_empty() {
            cells.push(Cell {
                index: 0,
                label: "(headerless)".to_string(),
                messages: Vec::new(),
            });
        }
    };
    for_each_line(r, |n, line| {
        let fields = parse_flat_line(line).map_err(|e| format!("line {n}: {e}"))?;
        match num(&fields, "schema_version") {
            Some(v) if v == SCHEMA_VERSION as f64 => {}
            _ => return Err(format!("line {n}: bad or missing schema_version")),
        }
        let ev = match fields.get("ev") {
            Some(Scalar::Str(s)) => s.clone(),
            _ => return Err(format!("line {n}: missing string field \"ev\"")),
        };
        if ev == "cell" {
            let idx = num(&fields, "cell").ok_or(format!("line {n}: cell missing index"))? as u64;
            let label = match fields.get("label") {
                Some(Scalar::Str(s)) => s.clone(),
                _ => return Err(format!("line {n}: cell missing label")),
            };
            cells.push(Cell {
                index: idx,
                label,
                messages: Vec::new(),
            });
            index.clear();
            return Ok(());
        }
        let t = num(&fields, "t").ok_or(format!("line {n}: missing t"))? as u64;
        let msg = num(&fields, "msg").ok_or(format!("line {n}: missing msg"))? as u64;
        ensure_cell(&mut cells);
        let cell = cells.last_mut().expect("ensured above");
        match ev.as_str() {
            "span_open" => {
                let station =
                    num(&fields, "station").ok_or(format!("line {n}: missing station"))? as u32;
                let arrival =
                    num(&fields, "arrival").ok_or(format!("line {n}: missing arrival"))? as u64;
                index.insert(msg, cell.messages.len());
                cell.messages.push(MessageLife {
                    msg,
                    station,
                    arrival,
                    open_t: t,
                    windows: 0,
                    first_window_t: None,
                    collisions: 0,
                    first_collision_t: None,
                    close: None,
                });
            }
            "span_window" | "span_collision" | "span_close" => {
                let pos = *index
                    .get(&msg)
                    .ok_or(format!("line {n}: {ev} for unopened msg {msg}"))?;
                let life = &mut cell.messages[pos];
                match ev.as_str() {
                    "span_window" => {
                        life.windows += 1;
                        life.first_window_t.get_or_insert(t);
                    }
                    "span_collision" => {
                        life.collisions += 1;
                        life.first_collision_t.get_or_insert(t);
                    }
                    _ => {
                        if life.close.is_some() {
                            return Err(format!("line {n}: msg {msg} closed twice"));
                        }
                        let outcome = match fields.get("outcome") {
                            Some(Scalar::Str(s)) => s.clone(),
                            _ => return Err(format!("line {n}: span_close missing outcome")),
                        };
                        life.close = Some(match outcome.as_str() {
                            "delivered" => Close::Delivered {
                                t,
                                start: num(&fields, "start")
                                    .ok_or(format!("line {n}: missing start"))?
                                    as u64,
                                paper_delay: num(&fields, "paper_delay")
                                    .ok_or(format!("line {n}: missing paper_delay"))?
                                    as u64,
                                true_delay: num(&fields, "true_delay")
                                    .ok_or(format!("line {n}: missing true_delay"))?
                                    as u64,
                            },
                            "discarded" => Close::Discarded {
                                t,
                                age: num(&fields, "age").unwrap_or(0.0) as u64,
                            },
                            "dropped" => Close::Dropped {
                                t,
                                age: num(&fields, "age").unwrap_or(0.0) as u64,
                                cause: match fields.get("cause") {
                                    Some(Scalar::Str(c)) => c.clone(),
                                    _ => return Err(format!("line {n}: dropped missing cause")),
                                },
                            },
                            other => return Err(format!("line {n}: unknown outcome {other:?}")),
                        });
                    }
                }
            }
            other => return Err(format!("line {n}: unknown span event {other:?}")),
        }
        Ok(())
    })?;
    Ok(cells)
}

/// Per-station age-of-information summary reconstructed from deliveries.
#[derive(Clone, Copy, Debug, Default)]
struct StationAoi {
    /// Arrival tick of the freshest delivered message.
    u: u64,
    /// Tick of the first delivery (observation start).
    first_t: u64,
    /// Tick of the latest delivery flushed into the area.
    flushed_to: u64,
    /// 2 × ∫ age dt over [first_t, flushed_to].
    twice_area: u128,
    /// Peak age observed just before a delivery, ticks.
    peak: u64,
    /// Deliveries seen.
    deliveries: u64,
}

fn mean(sum: u128, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Renders a plain-text report over parsed cells. `deadline` (ticks)
/// classifies delivered messages as on-time vs late and drives the
/// forensics section; `top` bounds each forensics list.
pub fn render_report(cells: &[Cell], deadline: Option<u64>, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "obs_report: {} cell(s)", cells.len());
    for cell in cells {
        let _ = writeln!(out, "\ncell {} [{}]", cell.index, cell.label);
        let n = cell.messages.len();
        let mut delivered = 0u64;
        let mut discarded = 0u64;
        let mut dropped = 0u64;
        let mut open = 0u64;
        let mut queueing_sum = 0u128;
        let mut queueing_n = 0u64;
        let mut contention_sum = 0u128;
        let mut contention_n = 0u64;
        let mut resolution_sum = 0u128;
        let mut resolution_n = 0u64;
        let mut collisions_sum = 0u128;
        let mut collisions_max = 0u32;
        let mut collided = 0u64;
        let mut true_delay_sum = 0u128;
        let mut true_delay_max = 0u64;
        let mut late = 0u64;
        let mut aoi: BTreeMap<u32, StationAoi> = BTreeMap::new();
        let mut horizon = 0u64;
        for life in &cell.messages {
            collisions_sum += life.collisions as u128;
            collisions_max = collisions_max.max(life.collisions);
            if life.collisions > 0 {
                collided += 1;
            }
            if let Some(q) = life.queueing() {
                queueing_sum += q as u128;
                queueing_n += 1;
            }
            if let Some(c) = life.contention() {
                contention_sum += c as u128;
                contention_n += 1;
            }
            if let Some(r) = life.resolution() {
                resolution_sum += r as u128;
                resolution_n += 1;
            }
            match &life.close {
                Some(Close::Delivered { t, true_delay, .. }) => {
                    delivered += 1;
                    true_delay_sum += *true_delay as u128;
                    true_delay_max = true_delay_max.max(*true_delay);
                    if deadline.is_some_and(|k| *true_delay > k) {
                        late += 1;
                    }
                    horizon = horizon.max(*t);
                    let s = aoi.entry(life.station).or_default();
                    if s.deliveries == 0 {
                        s.u = life.arrival;
                        s.first_t = *t;
                        s.flushed_to = *t;
                    } else if *t > s.flushed_to {
                        let a0 = (s.flushed_to - s.u) as u128;
                        let a1 = (*t - s.u) as u128;
                        s.twice_area += a1 * a1 - a0 * a0;
                        s.peak = s.peak.max(*t - s.u);
                        s.flushed_to = *t;
                        s.u = s.u.max(life.arrival);
                    }
                    s.deliveries += 1;
                }
                Some(Close::Discarded { t, .. }) => {
                    discarded += 1;
                    horizon = horizon.max(*t);
                }
                Some(Close::Dropped { t, .. }) => {
                    dropped += 1;
                    horizon = horizon.max(*t);
                }
                None => open += 1,
            }
        }
        let _ = writeln!(
            out,
            "  spans: {n} (delivered {delivered}, discarded {discarded}, dropped {dropped}, unclosed {open})"
        );
        let _ = writeln!(
            out,
            "  collision episodes: mean {:.3}/msg, max {collisions_max}, {collided} msg(s) collided",
            mean(collisions_sum, n as u64)
        );
        let _ = writeln!(
            out,
            "  latency breakdown (ticks): queueing mean {:.2} (n={queueing_n}), contention mean {:.2} (n={contention_n}), resolution mean {:.2} (n={resolution_n})",
            mean(queueing_sum, queueing_n),
            mean(contention_sum, contention_n),
            mean(resolution_sum, resolution_n)
        );
        if delivered > 0 {
            let _ = writeln!(
                out,
                "  true delay (ticks): mean {:.2}, max {true_delay_max}",
                mean(true_delay_sum, delivered)
            );
        }
        // Age-of-information per station (from the delivery saw-tooth).
        if !aoi.is_empty() {
            let mut twice_total = 0u128;
            let mut obs_total = 0u128;
            let mut worst: Vec<(u32, StationAoi)> = Vec::new();
            for (&st, s) in &aoi {
                // Extend each station's saw-tooth to the cell horizon so
                // stations that went quiet still accumulate age.
                let mut s = *s;
                if horizon > s.flushed_to {
                    let a0 = (s.flushed_to - s.u) as u128;
                    let a1 = (horizon - s.u) as u128;
                    s.twice_area += a1 * a1 - a0 * a0;
                    s.flushed_to = horizon;
                }
                twice_total += s.twice_area;
                obs_total += (s.flushed_to - s.first_t) as u128;
                worst.push((st, s));
            }
            worst.sort_by(|a, b| b.1.peak.cmp(&a.1.peak).then(a.0.cmp(&b.0)));
            let mean_age = if obs_total == 0 {
                0.0
            } else {
                twice_total as f64 / 2.0 / obs_total as f64
            };
            let _ = writeln!(
                out,
                "  age-of-information: {} station(s), mean age {mean_age:.2} ticks",
                aoi.len()
            );
            for (st, s) in worst.iter().take(top) {
                let st_mean = if s.flushed_to > s.first_t {
                    s.twice_area as f64 / 2.0 / (s.flushed_to - s.first_t) as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "    station {st}: {} deliveries, mean age {st_mean:.2}, peak {}",
                    s.deliveries, s.peak
                );
            }
        }
        // Deadline-miss forensics: discarded/dropped spans plus (when a
        // deadline is given) late deliveries, worst first.
        let mut misses: Vec<&MessageLife> = cell
            .messages
            .iter()
            .filter(|l| match &l.close {
                Some(Close::Delivered { true_delay, .. }) => {
                    deadline.is_some_and(|k| *true_delay > k)
                }
                Some(_) => true,
                None => false,
            })
            .collect();
        misses.sort_by_key(|l| {
            std::cmp::Reverse(match &l.close {
                Some(Close::Delivered { true_delay, .. }) => *true_delay,
                Some(Close::Discarded { age, .. }) | Some(Close::Dropped { age, .. }) => *age,
                None => 0,
            })
        });
        if let Some(k) = deadline {
            let _ = writeln!(
                out,
                "  deadline K={k}: {late} late delivery(ies), {} miss(es) total",
                misses.len()
            );
        }
        if !misses.is_empty() {
            let _ = writeln!(out, "  worst misses:");
            for l in misses.iter().take(top) {
                let (verdict, detail) = match &l.close {
                    Some(Close::Delivered { true_delay, .. }) => {
                        ("late", format!("true_delay={true_delay}"))
                    }
                    Some(Close::Discarded { age, .. }) => ("discarded", format!("age={age}")),
                    Some(Close::Dropped { age, cause, .. }) => {
                        ("dropped", format!("age={age} cause={cause}"))
                    }
                    None => ("unclosed", String::new()),
                };
                let q = l.queueing().map_or("-".to_string(), |q| q.to_string());
                let _ = writeln!(
                    out,
                    "    msg {} station {} arrival={} queueing={q} windows={} collisions={} {verdict} {detail}",
                    l.msg, l.station, l.arrival, l.windows, l.collisions
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTracer;
    use tcw_mac::{Message, MessageId, StationId};
    use tcw_sim::time::{Dur, Time};
    use tcw_window::trace::{DropCause, EngineObserver};

    fn msg(id: u64, station: u32, arrival: u64) -> Message {
        Message::new(MessageId(id), StationId(station), Time::from_ticks(arrival))
    }

    fn sample_stream() -> String {
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "demo");
        let m1 = msg(1, 0, 0);
        tr.on_arrival(&m1, Time::from_ticks(2));
        tr.on_window_member(&m1, Time::from_ticks(4));
        tr.on_collision_member(&m1, Time::from_ticks(4));
        tr.on_window_member(&m1, Time::from_ticks(8));
        tr.on_transmit(
            &m1,
            Time::from_ticks(10),
            Dur::from_ticks(12),
            Dur::from_ticks(12),
        );
        let m2 = msg(2, 1, 1);
        tr.on_arrival(&m2, Time::from_ticks(2));
        tr.on_sender_discard(&m2, Time::from_ticks(30));
        let m3 = msg(3, 0, 20);
        tr.on_arrival(&m3, Time::from_ticks(21));
        tr.on_window_member(&m3, Time::from_ticks(22));
        tr.on_transmit(
            &m3,
            Time::from_ticks(24),
            Dur::from_ticks(6),
            Dur::from_ticks(6),
        );
        let m4 = msg(4, 2, 25);
        tr.on_arrival(&m4, Time::from_ticks(26));
        tr.on_message_drop(&m4, Time::from_ticks(28), DropCause::StationLeft);
        tr.finish()
    }

    #[test]
    fn parse_reconstructs_lifecycles() {
        let cells = parse_spans(&sample_stream()).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.label, "demo");
        assert_eq!(c.messages.len(), 4);
        let m1 = &c.messages[0];
        assert_eq!(m1.windows, 2);
        assert_eq!(m1.collisions, 1);
        assert_eq!(m1.first_window_t, Some(4));
        assert_eq!(m1.queueing(), Some(4));
        // start=10, first window at 4 -> contention 6; first collision at
        // 4 -> resolution 6.
        assert_eq!(m1.contention(), Some(6));
        assert_eq!(m1.resolution(), Some(6));
        assert!(matches!(
            m1.close,
            Some(Close::Delivered { true_delay: 12, .. })
        ));
        assert!(matches!(c.messages[1].close, Some(Close::Discarded { .. })));
        assert!(matches!(c.messages[3].close, Some(Close::Dropped { .. })));
    }

    #[test]
    fn parse_tolerates_truncated_streams() {
        let stream = sample_stream();
        // Cut after the third line: m1 is mid-flight.
        let cut: String = stream.lines().take(3).map(|l| format!("{l}\n")).collect();
        let cells = parse_spans(&cut).unwrap();
        assert_eq!(cells[0].messages.len(), 1);
        assert!(cells[0].messages[0].close.is_none());
    }

    #[test]
    fn report_counts_misses_and_aoi() {
        let cells = parse_spans(&sample_stream()).unwrap();
        let text = render_report(&cells, Some(10), 5);
        assert!(
            text.contains("delivered 2, discarded 1, dropped 1"),
            "{text}"
        );
        assert!(
            text.contains("deadline K=10: 1 late delivery(ies), 3 miss(es) total"),
            "{text}"
        );
        // Station 0 delivered twice: sawtooth from t=10 (u=0) to t=24
        // (age 24 just before), then u=20.
        assert!(text.contains("age-of-information: 1 station(s)"), "{text}");
        assert!(text.contains("peak 24"), "{text}");
        assert!(text.contains("msg 2 station 1"), "{text}");
    }

    #[test]
    fn report_without_deadline_lists_non_delivery_misses_only() {
        let cells = parse_spans(&sample_stream()).unwrap();
        let text = render_report(&cells, None, 5);
        assert!(!text.contains("deadline K="), "{text}");
        assert!(text.contains("worst misses:"), "{text}");
        assert!(text.contains("discarded age="), "{text}");
    }
}
