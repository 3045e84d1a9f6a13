//! Traced in-process run of one benchmark workload.
//!
//! ```text
//! perfbench-tracer --workload fig7|degraded|observed --seed N --jobs J --out REPORT.json
//! ```
//!
//! Repeats the workload's grid in this process, with a span around every
//! call into a layer's public functions, and writes `REPORT.json` (the
//! per-layer metrics, per-span self times and the rows the untraced run
//! must match) and `REPORT.spans.ndjson` (every span). Relative outputs
//! (`journal/`, `obs/`) land in the current directory. Seed 0 runs the
//! binaries' own seeds; any other seed is mixed into them.
//!
//! Exit codes: 0 ok, 1 usage error, 2 the report cannot be written.

mod cells;
mod trace;
mod workloads;

use cells::{Ctx, Totals};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use trace::{json_num, json_str, self_times, CountingAlloc, Span};
use workloads::Outcome;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    jobs: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut jobs, mut out) = (None, 0u64, 1usize, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--jobs" => jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fig7", "degraded", "observed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let out = out.ok_or("--out is required")?;
    Ok(Args {
        workload,
        seed,
        jobs,
        out,
    })
}

/// Mixes a benchmark seed into a binary's seed; seed 0 keeps it.
fn mix(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    base ^ z ^ (z >> 31)
}

/// Sum of the durations of the spans named `name`.
fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.secs())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metrics(
    spans: &[Span],
    t: &Totals,
    o: &Outcome,
    jobs: usize,
    wall: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let starts: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.start_ns)).collect();
    let cells: Vec<&Span> = spans.iter().filter(|s| s.name == "sweep.cell").collect();
    let busy = cells.iter().fold(0.0, |acc, s| acc + s.secs());
    let wait = cells.iter().fold(0.0, |acc, s| {
        acc + (s.start_ns - starts[&s.parent]) as f64 * 1e-9
    });
    let max_cell = cells.iter().map(|s| s.secs()).fold(0.0, f64::max);
    let slots = t.slots as f64;
    vec![
        (
            "queueing.controlled_curve_s",
            total(spans, "queueing.controlled_curve"),
            "s",
        ),
        (
            "queueing.fcfs_curve_s",
            total(spans, "queueing.fcfs_curve"),
            "s",
        ),
        (
            "queueing.lcfs_curve_s",
            total(spans, "queueing.lcfs_curve"),
            "s",
        ),
        ("queueing.curves", o.curves as f64, "count"),
        ("queueing.k_points", o.k_points as f64, "count"),
        ("sweep.cells", cells.len() as f64, "count"),
        ("sweep.busy_s", busy, "s"),
        ("sweep.idle_s", jobs as f64 * wall - busy, "s"),
        ("sweep.max_cell_s", max_cell, "s"),
        ("sweep.queue_wait_s", wait, "s"),
        ("engine.build_s", t.build_s, "s"),
        ("engine.run_s", t.run_s, "s"),
        ("engine.slots", slots, "count"),
        ("engine.ns_per_slot", ratio(t.run_s * 1e9, slots), "ns/slot"),
        (
            "engine.fastpath_share",
            ratio(t.fastpath_slots as f64, slots),
            "ratio",
        ),
        ("engine.jumps", t.jumps as f64, "count"),
        ("engine.batched_runs", t.batched_runs as f64, "count"),
        ("engine.collision_slots", t.collision_slots as f64, "count"),
        (
            "engine.success_share",
            ratio(t.successes as f64, slots),
            "ratio",
        ),
        (
            "engine.allocs_per_slot",
            ratio(t.allocs as f64, slots),
            "allocs/slot",
        ),
        ("mac.fault_slots", t.fault_slots as f64, "count"),
        ("mac.resyncs", t.resyncs as f64, "count"),
        ("mac.churn_events", t.churn_events as f64, "count"),
        ("mac.reopened", t.reopened as f64, "count"),
        (
            "supervise.journal_appends",
            o.journal_appends as f64,
            "count",
        ),
        ("supervise.journal_bytes", o.journal_bytes as f64, "bytes"),
        (
            "supervise.journal_s",
            total(spans, "supervise.journal_record"),
            "s",
        ),
        (
            "obs.capture_s",
            total(spans, "obs.observe_engine_cell") - total(spans, "obs.plain_cell"),
            "s",
        ),
        ("obs.span_records", o.span_records as f64, "count"),
        ("obs.span_bytes", o.span_bytes as f64, "bytes"),
        ("obs.prom_bytes", o.prom_bytes as f64, "bytes"),
        ("obs.write_s", total(spans, "obs.write_observability"), "s"),
    ]
}

fn pairs(out: &mut String, v: &[(&str, String)]) {
    out.push('[');
    for (i, (k, val)) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json_str(out, k);
        out.push(',');
        json_str(out, val);
        out.push(']');
    }
    out.push(']');
}

fn report(a: &Args, wall: f64, spans: &[Span], t: &Totals, o: &Outcome) -> String {
    let mut s = String::from("{");
    s.push_str("\"workload\":");
    json_str(&mut s, &a.workload);
    let _ = write!(
        s,
        ",\"seed\":{},\"jobs\":{},\"traced_wall_s\":{}",
        a.seed,
        a.jobs,
        json_num(wall)
    );
    s.push_str(",\"metrics\":{");
    for (i, (name, v, unit)) in metrics(spans, t, o, a.jobs, wall).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_str(&mut s, name);
        let _ = write!(s, ":{{\"value\":{},\"unit\":", json_num(*v));
        json_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("},\"spans\":{");
    for (i, (name, (count, total_s, self_s))) in self_times(spans).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_str(&mut s, name);
        let _ = write!(
            s,
            ":{{\"count\":{count},\"total_s\":{},\"self_s\":{}}}",
            json_num(*total_s),
            json_num(*self_s)
        );
    }
    let _ = write!(
        s,
        "}},\"invariants\":{{\"checked\":{},\"failed\":{}}},\"quarantined\":{}",
        t.invariant_checks, t.invariant_failures, o.quarantined
    );
    s.push_str(",\"rows\":[");
    for (i, r) in o.rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        json_str(&mut s, &r.file);
        s.push_str(",\"key\":");
        pairs(&mut s, &r.key);
        s.push_str(",\"expect\":");
        pairs(&mut s, &r.expect);
        s.push('}');
    }
    s.push_str("],\"samples\":[");
    for (i, (file, sample, value)) in o.samples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        json_str(&mut s, file);
        s.push(',');
        json_str(&mut s, sample);
        s.push(',');
        json_str(&mut s, value);
        s.push(']');
    }
    s.push_str("],\"artifacts\":[");
    for (i, f) in o.artifacts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_str(&mut s, f);
    }
    s.push_str("]}\n");
    s
}

fn spans_ndjson(workload: &str, spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        s.push_str("{\"name\":");
        json_str(&mut s, sp.name);
        s.push_str(",\"workload\":");
        json_str(&mut s, workload);
        let _ = writeln!(
            s,
            ",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            sp.id, sp.parent, sp.start_ns, sp.end_ns, sp.thread
        );
    }
    s
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(1);
        }
    };
    let ctx = Arc::new(Ctx::default());
    let mut o = Outcome::default();
    let fig7_base = mix(workloads::FIG7_SEED, a.seed);
    let sweep_base = mix(workloads::SWEEP_SEED, a.seed);
    let mut observed_cells = Vec::new();
    let (_, wall) = ctx
        .rec
        .timed("workload", 0, |root| match a.workload.as_str() {
            "fig7" => workloads::fig7(&ctx, root, fig7_base, a.jobs, &mut o),
            "degraded" => workloads::degraded(&ctx, root, sweep_base, a.jobs, &mut o),
            _ => observed_cells = workloads::observed(&ctx, root, sweep_base, a.jobs, &mut o),
        });
    // Measurements of single layers, made after the timed workload so
    // they do not count in its traced wall time.
    match a.workload.as_str() {
        "degraded" => workloads::journal_replay(&ctx, sweep_base),
        "observed" => {
            workloads::telemetry_sizes(&mut o);
            workloads::plain_reference(&ctx, &observed_cells, a.jobs);
        }
        _ => {}
    }
    let spans = ctx.rec.spans();
    let totals = ctx.totals();
    let spans_path = format!("{}.spans.ndjson", a.out.trim_end_matches(".json"));
    let written = std::fs::write(&a.out, report(&a, wall, &spans, &totals, &o))
        .and_then(|()| std::fs::write(&spans_path, spans_ndjson(&a.workload, &spans)));
    if let Err(e) = written {
        eprintln!("perfbench-tracer: cannot write {}: {e}", a.out);
        std::process::exit(2);
    }
}
