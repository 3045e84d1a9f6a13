//! Validators for the artifacts this crate exports: the NDJSON event
//! schema ([`lint_events`]), the lifecycle-span schema ([`lint_spans`])
//! and the Prometheus text exposition format ([`lint_prom`]). The
//! `obs_lint` binary wraps all three for CI.

use std::collections::BTreeMap;
use std::io::BufRead;

use crate::event::SCHEMA_VERSION;
use crate::registry::valid_metric_name;

/// Summary of a validated NDJSON event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Total lines.
    pub lines: usize,
    /// `cell` header lines.
    pub cells: usize,
    /// Event lines (everything but headers).
    pub events: usize,
}

/// Scalar values the flat-JSON line parser distinguishes.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Scalar {
    Num(f64),
    Str(String),
}

/// Parses one flat JSON object (`{"k":scalar,...}`, no nesting) into its
/// fields. Returns an error describing the first malformation.
pub(crate) fn parse_flat_line(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = BTreeMap::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let (key, after_key) = parse_string(rest)?;
        rest = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or("missing ':' after key")?
            .trim_start();
        let (value, after_value) = if rest.starts_with('"') {
            let (s, r) = parse_string(rest)?;
            (Scalar::Str(s), r)
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len()).min(rest.len());
            let token = rest[..end].trim();
            let n: f64 = token
                .parse()
                .map_err(|_| format!("unparseable value {token:?}"))?;
            (Scalar::Num(n), &rest[end..])
        };
        if fields.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        rest = after_value.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => return Err("missing ',' between fields".to_string()),
        }
    }
    Ok(fields)
}

/// Parses a leading JSON string, returning it unescaped plus the rest.
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let rest = s.strip_prefix('"').ok_or("expected '\"'")?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    // Skip 4 hex digits; keep a placeholder.
                    for _ in 0..4 {
                        chars.next();
                    }
                    out.push('\u{fffd}');
                }
                Some((_, e)) => out.push(e),
                None => return Err("dangling escape".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// Calls `f(n, line)` for every line `n` (from 1) of `r`, splitting
/// exactly like [`str::lines`]: a line ends at `\n` or `\r\n`, and the
/// last line needs no terminator. Only one line is held at a time.
pub(crate) fn for_each_line(
    mut r: impl BufRead,
    mut f: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut buf = String::new();
    for n in 1.. {
        buf.clear();
        if r.read_line(&mut buf)
            .map_err(|e| format!("line {n}: {e}"))?
            == 0
        {
            break;
        }
        let line = match buf.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None => &buf,
        };
        f(n, line)?;
    }
    Ok(())
}

pub(crate) fn num(fields: &BTreeMap<String, Scalar>, key: &str) -> Option<f64> {
    match fields.get(key) {
        Some(Scalar::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Validates an NDJSON event stream against the schema documented at the
/// crate root: every line parses as a flat JSON object, carries
/// `schema_version` == [`SCHEMA_VERSION`] and a string `ev`; event lines
/// carry `seq` (dense from 0 per cell), `slot` and `t` (both
/// non-decreasing per cell).
pub fn lint_events(text: &str) -> Result<EventStats, String> {
    lint_events_from(text.as_bytes())
}

/// [`lint_events`] over a reader, one line at a time, so a stream of any
/// size lints in constant memory.
pub fn lint_events_from(r: impl BufRead) -> Result<EventStats, String> {
    let mut stats = EventStats::default();
    let mut expected_seq: u64 = 0;
    let mut last_slot: u64 = 0;
    let mut last_t: u64 = 0;
    for_each_line(r, |n, line| {
        stats.lines += 1;
        let fields = parse_flat_line(line).map_err(|e| format!("line {n}: {e}"))?;
        match num(&fields, "schema_version") {
            Some(v) if v == SCHEMA_VERSION as f64 => {}
            Some(v) => return Err(format!("line {n}: schema_version {v} != {SCHEMA_VERSION}")),
            None => return Err(format!("line {n}: missing schema_version")),
        }
        let ev = match fields.get("ev") {
            Some(Scalar::Str(s)) => s.clone(),
            _ => return Err(format!("line {n}: missing string field \"ev\"")),
        };
        if ev == "cell" {
            if num(&fields, "cell").is_none() {
                return Err(format!("line {n}: cell header missing \"cell\""));
            }
            if !matches!(fields.get("label"), Some(Scalar::Str(_))) {
                return Err(format!("line {n}: cell header missing \"label\""));
            }
            stats.cells += 1;
            expected_seq = 0;
            last_slot = 0;
            last_t = 0;
            return Ok(());
        }
        stats.events += 1;
        let seq = num(&fields, "seq").ok_or(format!("line {n}: missing seq"))? as u64;
        if seq != expected_seq {
            return Err(format!("line {n}: seq {seq}, expected {expected_seq}"));
        }
        expected_seq += 1;
        let slot = num(&fields, "slot").ok_or(format!("line {n}: missing slot"))? as u64;
        if slot < last_slot {
            return Err(format!("line {n}: slot {slot} < previous {last_slot}"));
        }
        last_slot = slot;
        let t = num(&fields, "t").ok_or(format!("line {n}: missing t"))? as u64;
        if t < last_t {
            return Err(format!("line {n}: t {t} < previous {last_t}"));
        }
        last_t = t;
        Ok(())
    })?;
    Ok(stats)
}

/// Summary of a validated NDJSON lifecycle-span stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Total lines.
    pub lines: usize,
    /// `cell` header lines.
    pub cells: usize,
    /// Completed spans (`span_open` balanced by `span_close`).
    pub spans: usize,
}

/// Validates an NDJSON lifecycle-span stream against the span schema
/// documented at the crate root: every line parses flat, carries
/// `schema_version` == [`SCHEMA_VERSION`] and a string `ev`; span lines
/// carry `seq` (dense from 0 per cell) and `t` (non-decreasing per cell);
/// within a cell each `msg` opens exactly once, interior
/// `span_window`/`span_collision` lines fall strictly between its open
/// and close, every open is balanced by exactly one `span_close` with a
/// valid `outcome` (and a `cause` when dropped), and no message id is
/// reused after closing.
pub fn lint_spans(text: &str) -> Result<SpanStats, String> {
    lint_spans_from(text.as_bytes())
}

/// [`lint_spans`] over a reader, one line at a time: memory grows with
/// the spans open in the current cell, not with the stream.
pub fn lint_spans_from(r: impl BufRead) -> Result<SpanStats, String> {
    use std::collections::BTreeSet;
    let mut stats = SpanStats::default();
    let mut expected_seq: u64 = 0;
    let mut last_t: u64 = 0;
    let mut open: BTreeSet<u64> = BTreeSet::new();
    let mut closed: BTreeSet<u64> = BTreeSet::new();
    let cell_end = |open: &mut BTreeSet<u64>, closed: &mut BTreeSet<u64>| -> Result<(), String> {
        if let Some(msg) = open.iter().next() {
            return Err(format!(
                "cell ended with {} unbalanced span(s), e.g. msg {msg}",
                open.len()
            ));
        }
        open.clear();
        closed.clear();
        Ok(())
    };
    for_each_line(r, |n, line| {
        stats.lines += 1;
        let fields = parse_flat_line(line).map_err(|e| format!("line {n}: {e}"))?;
        match num(&fields, "schema_version") {
            Some(v) if v == SCHEMA_VERSION as f64 => {}
            Some(v) => return Err(format!("line {n}: schema_version {v} != {SCHEMA_VERSION}")),
            None => return Err(format!("line {n}: missing schema_version")),
        }
        let ev = match fields.get("ev") {
            Some(Scalar::Str(s)) => s.clone(),
            _ => return Err(format!("line {n}: missing string field \"ev\"")),
        };
        if ev == "cell" {
            if num(&fields, "cell").is_none() {
                return Err(format!("line {n}: cell header missing \"cell\""));
            }
            if !matches!(fields.get("label"), Some(Scalar::Str(_))) {
                return Err(format!("line {n}: cell header missing \"label\""));
            }
            cell_end(&mut open, &mut closed).map_err(|e| format!("line {n}: {e}"))?;
            stats.cells += 1;
            expected_seq = 0;
            last_t = 0;
            return Ok(());
        }
        let seq = num(&fields, "seq").ok_or(format!("line {n}: missing seq"))? as u64;
        if seq != expected_seq {
            return Err(format!("line {n}: seq {seq}, expected {expected_seq}"));
        }
        expected_seq += 1;
        let t = num(&fields, "t").ok_or(format!("line {n}: missing t"))? as u64;
        if t < last_t {
            return Err(format!("line {n}: t {t} < previous {last_t}"));
        }
        last_t = t;
        let msg = num(&fields, "msg").ok_or(format!("line {n}: missing msg"))? as u64;
        match ev.as_str() {
            "span_open" => {
                if num(&fields, "station").is_none() || num(&fields, "arrival").is_none() {
                    return Err(format!("line {n}: span_open missing station/arrival"));
                }
                if open.contains(&msg) || closed.contains(&msg) {
                    return Err(format!("line {n}: msg {msg} opened twice"));
                }
                open.insert(msg);
            }
            "span_window" | "span_collision" => {
                if !open.contains(&msg) {
                    return Err(format!("line {n}: {ev} for msg {msg} outside its span"));
                }
            }
            "span_close" => {
                if !open.remove(&msg) {
                    return Err(format!("line {n}: span_close for msg {msg} without open"));
                }
                closed.insert(msg);
                stats.spans += 1;
                let outcome = match fields.get("outcome") {
                    Some(Scalar::Str(s)) => s.as_str(),
                    _ => return Err(format!("line {n}: span_close missing \"outcome\"")),
                };
                match outcome {
                    "delivered" => {
                        if num(&fields, "true_delay").is_none() {
                            return Err(format!("line {n}: delivered close missing true_delay"));
                        }
                    }
                    "discarded" => {}
                    "dropped" => match fields.get("cause") {
                        Some(Scalar::Str(c)) if c == "station_left" || c == "rejoin_expired" => {}
                        _ => return Err(format!("line {n}: dropped close missing valid cause")),
                    },
                    other => return Err(format!("line {n}: unknown outcome {other:?}")),
                }
            }
            other => return Err(format!("line {n}: unknown span event {other:?}")),
        }
        Ok(())
    })?;
    cell_end(&mut open, &mut closed).map_err(|e| format!("end of stream: {e}"))?;
    Ok(stats)
}

/// Summary of a validated Prometheus exposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PromStats {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// Minimal linter for the Prometheus text exposition format: every `TYPE`
/// names a known kind, every sample references a declared family (with
/// `_bucket`/`_sum`/`_count` suffixes allowed for histograms), metric
/// names match the Prometheus grammar and values parse as floats.
pub fn lint_prom(text: &str) -> Result<PromStats, String> {
    lint_prom_families(text).map(|(stats, _)| stats)
}

/// [`lint_prom`] variant that also returns the declared family names, so
/// callers can assert that required metrics (e.g. the engine's
/// `tcw_horizon_*` fast-path counters) are actually present in an
/// exposition.
pub fn lint_prom_families(text: &str) -> Result<(PromStats, Vec<String>), String> {
    lint_prom_families_from(text.as_bytes())
}

/// [`lint_prom_families`] over a reader, one line at a time.
pub fn lint_prom_families_from(r: impl BufRead) -> Result<(PromStats, Vec<String>), String> {
    let mut stats = PromStats::default();
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    for_each_line(r, |n, line| {
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE {kind:?}"));
            }
            families.insert(name.to_string(), kind.to_string());
            stats.families += 1;
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            return Ok(());
        }
        if line.starts_with('#') {
            return Ok(()); // arbitrary comment
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).ok_or(format!("line {n}: no value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        let after = &line[name_end..];
        let value_str = if let Some(rest) = after.strip_prefix('{') {
            let close = rest.find('}').ok_or(format!("line {n}: unclosed labels"))?;
            lint_labels(&rest[..close]).map_err(|e| format!("line {n}: {e}"))?;
            rest[close + 1..].trim()
        } else {
            after.trim()
        };
        if value_str.parse::<f64>().is_err() {
            return Err(format!("line {n}: unparseable value {value_str:?}"));
        }
        let family_known = families.contains_key(name)
            || [
                ("_bucket", "histogram"),
                ("_sum", "histogram"),
                ("_count", "histogram"),
            ]
            .iter()
            .any(|(suffix, kind)| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| families.get(base).map(String::as_str) == Some(*kind))
            });
        if !family_known {
            return Err(format!("line {n}: sample {name:?} has no TYPE declaration"));
        }
        stats.samples += 1;
        Ok(())
    })?;
    Ok((stats, families.into_keys().collect()))
}

/// Validates a `key="value",...` label body.
fn lint_labels(body: &str) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        // Find the closing quote, skipping escapes.
        let mut close = None;
        let mut prev_backslash = false;
        for (i, c) in rest.char_indices() {
            if prev_backslash {
                prev_backslash = false;
            } else if c == '\\' {
                prev_backslash = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or("unterminated label value")?;
        rest = &rest[close + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => break,
            None => return Err("missing ',' between labels".to_string()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventTracer;
    use crate::registry::Registry;
    use tcw_sim::stats::{Histogram, MetricSink};
    use tcw_sim::time::{Dur, Time};
    use tcw_window::trace::EngineObserver;

    #[test]
    fn tracer_output_passes_lint() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "cell \"zero\"");
        tr.on_decision(Time::from_ticks(0), None);
        tr.on_probe(
            Time::from_ticks(64),
            &[],
            &tcw_mac::SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        tr.begin_cell(1, "one");
        tr.on_round_abandoned(Time::from_ticks(3));
        let stats = lint_events(&tr.finish()).unwrap();
        assert_eq!(
            stats,
            EventStats {
                lines: 5,
                cells: 2,
                events: 3
            }
        );
    }

    #[test]
    fn lint_rejects_bad_streams() {
        assert!(lint_events("not json\n").is_err());
        assert!(lint_events("{\"ev\":\"decision\"}\n").is_err()); // no version
        assert!(
            lint_events("{\"schema_version\":99,\"ev\":\"x\",\"seq\":0,\"slot\":0,\"t\":0}\n")
                .is_err()
        );
        // slot decreases
        let bad = concat!(
            "{\"schema_version\":1,\"seq\":0,\"slot\":5,\"t\":0,\"ev\":\"a\"}\n",
            "{\"schema_version\":1,\"seq\":1,\"slot\":4,\"t\":1,\"ev\":\"a\"}\n",
        );
        let err = lint_events(bad).unwrap_err();
        assert!(err.contains("slot 4"), "{err}");
        // t decreases
        let bad = concat!(
            "{\"schema_version\":1,\"seq\":0,\"slot\":0,\"t\":9,\"ev\":\"a\"}\n",
            "{\"schema_version\":1,\"seq\":1,\"slot\":0,\"t\":3,\"ev\":\"a\"}\n",
        );
        assert!(lint_events(bad).is_err());
        // seq gap
        let bad = "{\"schema_version\":1,\"seq\":1,\"slot\":0,\"t\":0,\"ev\":\"a\"}\n";
        assert!(lint_events(bad).is_err());
    }

    #[test]
    fn registry_exposition_passes_lint() {
        let mut r = Registry::new();
        r.set_labels(&[("panel", "rho'=0.50 M=25"), ("seed", "42")]);
        r.counter("tcw_test_total", "counts", 3);
        r.gauge("tcw_test_util", "gauge", 0.5);
        let mut h = Histogram::new(0.0, 100.0, 4);
        h.record(3.0);
        h.record(250.0);
        r.histogram("tcw_test_delay", "delays", &h);
        let stats = lint_prom(&r.to_prometheus()).unwrap();
        assert_eq!(stats.families, 3);
        // 2 scalars + 4 finite buckets + Inf bucket + sum + count
        assert_eq!(stats.samples, 9);
    }

    #[test]
    fn prom_lint_rejects_malformed_expositions() {
        assert!(lint_prom("# TYPE bad-name counter\n").is_err());
        assert!(lint_prom("# TYPE m mystery\n").is_err());
        assert!(lint_prom("orphan_sample 1\n").is_err());
        assert!(lint_prom("# TYPE m counter\nm not_a_number\n").is_err());
        assert!(lint_prom("# TYPE m counter\nm{l=\"unterminated} 1\n").is_err());
        let ok = "# HELP m help text\n# TYPE m counter\nm{a=\"x\",b=\"y\"} 4\n";
        assert_eq!(
            lint_prom(ok).unwrap(),
            PromStats {
                families: 1,
                samples: 1
            }
        );
    }

    #[test]
    fn span_tracer_output_passes_span_lint() {
        use crate::span::SpanTracer;
        use tcw_mac::{Message, MessageId, StationId};
        use tcw_window::trace::DropCause;
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "cell \"zero\"");
        let m1 = Message::new(MessageId(1), StationId(0), Time::from_ticks(2));
        let m2 = Message::new(MessageId(2), StationId(1), Time::from_ticks(3));
        tr.on_arrival(&m1, Time::from_ticks(4));
        tr.on_arrival(&m2, Time::from_ticks(4));
        tr.on_window_member(&m1, Time::from_ticks(5));
        tr.on_collision_member(&m1, Time::from_ticks(5));
        tr.on_transmit(
            &m1,
            Time::from_ticks(6),
            Dur::from_ticks(4),
            Dur::from_ticks(4),
        );
        tr.on_message_drop(&m2, Time::from_ticks(7), DropCause::StationLeft);
        tr.begin_cell(1, "one");
        let m3 = Message::new(MessageId(3), StationId(2), Time::from_ticks(0));
        tr.on_arrival(&m3, Time::from_ticks(1));
        tr.on_sender_discard(&m3, Time::from_ticks(9));
        let stats = lint_spans(&tr.finish()).unwrap();
        assert_eq!(
            stats,
            SpanStats {
                lines: 10,
                cells: 2,
                spans: 3
            }
        );
    }

    #[test]
    fn span_lint_rejects_unbalanced_and_misordered_streams() {
        // Unbalanced at end of stream.
        let open_only =
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n";
        let err = lint_spans(open_only).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
        // Interior event outside its span.
        let stray =
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_window\",\"msg\":7,\"age\":1}\n";
        let err = lint_spans(stray).unwrap_err();
        assert!(err.contains("outside its span"), "{err}");
        // Close without open.
        let close =
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_close\",\"outcome\":\"discarded\",\"msg\":7,\"station\":0,\"age\":1}\n";
        assert!(lint_spans(close).is_err());
        // Double open.
        let double = concat!(
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
            "{\"schema_version\":1,\"seq\":1,\"t\":2,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
        );
        let err = lint_spans(double).unwrap_err();
        assert!(err.contains("opened twice"), "{err}");
        // t decreases within a cell.
        let nonmono = concat!(
            "{\"schema_version\":1,\"seq\":0,\"t\":9,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
            "{\"schema_version\":1,\"seq\":1,\"t\":3,\"ev\":\"span_close\",\"outcome\":\"discarded\",\"msg\":1,\"station\":0,\"age\":1}\n",
        );
        assert!(lint_spans(nonmono).is_err());
        // Dropped close without a valid cause.
        let nocause = concat!(
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
            "{\"schema_version\":1,\"seq\":1,\"t\":2,\"ev\":\"span_close\",\"outcome\":\"dropped\",\"msg\":1,\"station\":0,\"age\":1}\n",
        );
        assert!(lint_spans(nocause).is_err());
    }

    #[test]
    fn flat_parser_handles_escapes_and_rejects_junk() {
        let f = parse_flat_line(r#"{"a":"x\"y","b":3.5}"#).unwrap();
        assert_eq!(f.get("a"), Some(&Scalar::Str("x\"y".to_string())));
        assert_eq!(f.get("b"), Some(&Scalar::Num(3.5)));
        assert!(parse_flat_line(r#"{"a":}"#).is_err());
        assert!(parse_flat_line(r#"{"a":1 "b":2}"#).is_err());
        assert!(parse_flat_line(r#"{"a":1,"a":2}"#).is_err());
    }
}
