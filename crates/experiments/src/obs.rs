//! Observability glue for the experiment binaries: the shared
//! `--trace-events` / `--spans` / `--metrics` / `--progress` settings
//! (parsed by [`crate::sweep::Cli`]), per-cell telemetry capture, and
//! deterministic artifact assembly.
//!
//! Each sweep cell produces its telemetry into cell-local buffers (an
//! NDJSON fragment from an [`EventTracer`], a lifecycle-span fragment
//! from a [`SpanTracer`], a labeled [`Registry`]). The sweep executor
//! streams them to disk through one in-order sink as cells finish: a cell's
//! fragments are appended, and its registry merged, as soon as every
//! earlier cell's have been, so the exported artifacts are byte-identical
//! for any `--jobs N` while memory holds only the cells that finished
//! ahead of an earlier one. Outputs are created as temp files before the
//! first cell runs and renamed into place only when the whole sweep
//! succeeded. [`write_observability`] pushes an already-ordered slice
//! through the same sink. Only the stderr progress line (enabled by
//! `--progress`) is wall-clock dependent, and it never reaches an
//! artifact.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tcw_obs::{EventTracer, Registry, SpanTracer};
use tcw_window::trace::{NoopObserver, Tee};

/// Parsed observability flags, shared by all experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// `--trace-events PATH`: write the NDJSON event stream here.
    pub trace_events: Option<PathBuf>,
    /// `--spans PATH`: write the NDJSON lifecycle-span stream here
    /// (conventionally `*.spans.ndjson`, which `obs_lint` dispatches on).
    pub spans: Option<PathBuf>,
    /// `--metrics PATH`: write the metrics snapshot here (`.prom` selects
    /// the Prometheus text exposition format, anything else JSON).
    pub metrics: Option<PathBuf>,
    /// `--progress`: render a live progress line on stderr.
    pub progress: bool,
}

/// Which telemetry streams to capture while running one cell. Derived
/// from [`ObsConfig::capture`]; [`Capture::OFF`] disables everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct Capture {
    /// Record the protocol event stream (forces the slot-stepped path).
    pub tracing: bool,
    /// Register run metrics (including the `tcw_aoi_*` families).
    pub metrics: bool,
    /// Record the message-lifecycle span stream (fast-path compatible).
    pub spans: bool,
}

impl Capture {
    /// Capture nothing.
    pub const OFF: Capture = Capture {
        tracing: false,
        metrics: false,
        spans: false,
    };

    /// Whether any stream is being captured.
    pub fn any(&self) -> bool {
        self.tracing || self.metrics || self.spans
    }
}

impl ObsConfig {
    /// The per-cell capture selection these flags imply.
    pub fn capture(&self) -> Capture {
        Capture {
            tracing: self.trace_events.is_some(),
            metrics: self.metrics.is_some(),
            spans: self.spans.is_some(),
        }
    }
}

/// Telemetry captured while running one sweep cell.
#[derive(Debug, Default)]
pub struct CellArtifacts {
    /// NDJSON event fragment (starts with the cell header line).
    pub trace: Option<String>,
    /// NDJSON lifecycle-span fragment (starts with the cell header line).
    pub spans: Option<String>,
    /// Cell-labeled metrics registry.
    pub registry: Option<Registry>,
}

/// Runs one engine-driving cell with telemetry capture: when
/// `caps.tracing` or `caps.spans`, the protocol event stream /
/// message-lifecycle span stream is recorded under a `cell` header
/// carrying `cell_index` and `label`; when `caps.metrics`, the run's
/// metrics register into a fresh [`Registry`] under `labels`. The closure
/// receives the observer to thread through `Engine::run_until`/`drain`
/// and, when metrics are on, the sink to `emit` counters into after the
/// run.
///
/// Observers are passive and never touch an RNG stream, so the result is
/// bit-identical with capture on or off. With nothing captured the cell
/// runs under a [`NoopObserver`]; span capture alone keeps the
/// event-horizon fast path on, event tracing forces slot stepping.
pub fn observe_engine_cell<T>(
    caps: Capture,
    cell_index: usize,
    label: &str,
    labels: &[(&str, &str)],
    run: impl FnOnce(
        &mut dyn tcw_window::trace::EngineObserver,
        Option<&mut dyn tcw_sim::stats::MetricSink>,
    ) -> T,
) -> (T, CellArtifacts) {
    let mut tracer = EventTracer::new();
    let mut span_tracer = SpanTracer::new();
    let mut registry = Registry::new();
    if caps.tracing {
        tracer.begin_cell(cell_index, label);
    }
    if caps.spans {
        span_tracer.begin_cell(cell_index, label);
    }
    if caps.metrics {
        registry.set_labels(labels);
    }
    let mut noop = NoopObserver;
    let value = {
        let sink: Option<&mut dyn tcw_sim::stats::MetricSink> = if caps.metrics {
            Some(&mut registry)
        } else {
            None
        };
        match (caps.tracing, caps.spans) {
            (true, true) => {
                let mut tee = Tee {
                    a: &mut tracer,
                    b: &mut span_tracer,
                };
                run(&mut tee, sink)
            }
            (true, false) => run(&mut tracer, sink),
            (false, true) => run(&mut span_tracer, sink),
            (false, false) => run(&mut noop, sink),
        }
    };
    (
        value,
        CellArtifacts {
            trace: caps.tracing.then(|| tracer.finish()),
            spans: caps.spans.then(|| span_tracer.finish()),
            registry: caps.metrics.then_some(registry),
        },
    )
}

/// Sweep-level facts recorded alongside the merged metrics.
#[derive(Clone, Copy, Debug)]
pub struct SweepMeta {
    /// Number of cells in the sweep grid.
    pub cells: usize,
}

/// Assembles already-ordered per-cell telemetry into the files `cfg`
/// requests, through the same in-order sink the sweep executor streams
/// into: traces are concatenated and registries merged in slice order.
/// The merged registry additionally carries the executor's own
/// `tcw_sweep_cells` gauge; a `.prom` metrics path selects the Prometheus
/// text exposition format, anything else the JSON export.
pub fn write_observability(
    cfg: &ObsConfig,
    artifacts: &[CellArtifacts],
    meta: SweepMeta,
) -> Result<(), String> {
    let mut sink = ObsSink::create(cfg)?;
    for a in artifacts {
        sink.write_cell(a)?;
    }
    sink.finish(meta)
}

/// The in-order telemetry sink behind `--trace-events`, `--spans` and
/// `--metrics`.
///
/// [`ObsSink::create`] opens every requested output up front as a temp
/// file next to its target, so a bad path fails before any cell runs.
/// [`ObsSink::commit`] takes cells in any order and writes each cell's
/// fragments as soon as every earlier cell's are written, merging its
/// registry into the running one in the same order; the files are thus
/// byte-identical for any worker count while only out-of-order cells stay
/// in memory. [`ObsSink::finish`] appends the `tcw_sweep_cells` gauge,
/// writes the metrics and renames every temp file into place. Dropping an
/// unfinished sink deletes its temp files, so a failed sweep leaves every
/// target untouched.
#[derive(Debug)]
pub(crate) struct ObsSink {
    trace: Option<Output>,
    spans: Option<Output>,
    metrics: Option<(Output, Registry)>,
    /// Committed cells waiting for an earlier cell.
    pending: BTreeMap<usize, CellArtifacts>,
    /// The next cell to write.
    next: usize,
}

impl ObsSink {
    /// Opens the outputs `cfg` requests; with none requested nothing is
    /// opened or allocated.
    pub(crate) fn create(cfg: &ObsConfig) -> Result<Self, String> {
        let open = |path: &Option<PathBuf>| path.as_deref().map(Output::create).transpose();
        Ok(ObsSink {
            trace: open(&cfg.trace_events)?,
            spans: open(&cfg.spans)?,
            metrics: open(&cfg.metrics)?.map(|out| (out, Registry::new())),
            pending: BTreeMap::new(),
            next: 0,
        })
    }

    /// Accepts cell `cell`'s telemetry and writes every cell now complete
    /// in order.
    pub(crate) fn commit(&mut self, cell: usize, artifacts: CellArtifacts) -> Result<(), String> {
        if self.trace.is_none() && self.spans.is_none() && self.metrics.is_none() {
            return Ok(());
        }
        self.pending.insert(cell, artifacts);
        while let Some(a) = self.pending.remove(&self.next) {
            self.write_cell(&a)?;
            self.next += 1;
        }
        Ok(())
    }

    /// Writes the next cell in order.
    fn write_cell(&mut self, a: &CellArtifacts) -> Result<(), String> {
        if let (Some(out), Some(text)) = (&mut self.trace, &a.trace) {
            out.write(text)?;
        }
        if let (Some(out), Some(text)) = (&mut self.spans, &a.spans) {
            out.write(text)?;
        }
        if let (Some((_, merged)), Some(r)) = (&mut self.metrics, &a.registry) {
            merged.absorb(r);
        }
        Ok(())
    }

    /// Writes the merged metrics (`.prom` selects the Prometheus text
    /// exposition format, anything else the JSON export) and renames every
    /// output into place.
    pub(crate) fn finish(mut self, meta: SweepMeta) -> Result<(), String> {
        if let Some(cell) = self.pending.keys().next() {
            return Err(format!(
                "telemetry of cell {cell} was never written: cell {} never completed",
                self.next
            ));
        }
        let metrics = match self.metrics.take() {
            Some((mut out, mut merged)) => {
                use tcw_sim::stats::MetricSink as _;
                merged.set_labels(&[]);
                merged.gauge(
                    "tcw_sweep_cells",
                    "cells in the sweep grid",
                    meta.cells as f64,
                );
                let text = if out.target.extension().is_some_and(|e| e == "prom") {
                    merged.to_prometheus()
                } else {
                    merged.to_json()
                };
                out.write(&text)?;
                Some(out)
            }
            None => None,
        };
        for out in [self.trace.take(), self.spans.take(), metrics] {
            out.map_or(Ok(()), Output::persist)?;
        }
        Ok(())
    }
}

/// One requested telemetry file, written to `tmp` and renamed onto
/// `target` by [`Output::persist`]; dropped before that, it deletes
/// `tmp`.
#[derive(Debug)]
struct Output {
    target: PathBuf,
    tmp: PathBuf,
    file: File,
    persisted: bool,
}

impl Output {
    /// Creates `TARGET.<pid>.tmp`, creating missing parent directories.
    fn create(target: &Path) -> Result<Self, String> {
        let err = |p: &Path, e: &dyn std::fmt::Display| format!("{}: {e}", p.display());
        // Renaming onto a directory fails only after the sweep, and onto a
        // device or FIFO would replace it: refuse both before any cell runs.
        match std::fs::metadata(target) {
            Ok(m) if m.is_dir() => return Err(err(target, &"is a directory")),
            Ok(m) if !m.is_file() => return Err(err(target, &"not a regular file")),
            _ => {}
        }
        let name = target
            .file_name()
            .ok_or_else(|| err(target, &"not a file path"))?;
        if let Some(dir) = target.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| err(dir, &e))?;
            }
        }
        let mut tmp_name = name.to_os_string();
        tmp_name.push(format!(".{}.tmp", std::process::id()));
        let tmp = target.with_file_name(tmp_name);
        let file = File::create(&tmp).map_err(|e| err(&tmp, &e))?;
        Ok(Output {
            target: target.to_path_buf(),
            tmp,
            file,
            persisted: false,
        })
    }

    fn write(&mut self, text: &str) -> Result<(), String> {
        self.file
            .write_all(text.as_bytes())
            .map_err(|e| format!("{}: {e}", self.tmp.display()))
    }

    fn persist(mut self) -> Result<(), String> {
        std::fs::rename(&self.tmp, &self.target).map_err(|e| {
            format!(
                "cannot rename {} onto {}: {e}",
                self.tmp.display(),
                self.target.display()
            )
        })?;
        self.persisted = true;
        Ok(())
    }
}

impl Drop for Output {
    fn drop(&mut self) {
        if !self.persisted {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, Outcome, PolicyKind, Scenario, SimSettings};
    use crate::sweep::{Cli, Flag};
    use tcw_window::trace::NoopObserver;

    fn parse(v: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Cli::parse("t", &[Flag::switch("--quick")], &args)
    }

    #[test]
    fn split_args_extracts_obs_flags() {
        let cli = parse(&[
            "--quick",
            "--trace-events",
            "out.ndjson",
            "--spans=out.spans.ndjson",
            "--metrics=m.prom",
            "--progress",
            "--jobs",
            "2",
        ])
        .unwrap();
        let cfg = &cli.obs;
        assert_eq!(cfg.trace_events.as_deref(), Some(Path::new("out.ndjson")));
        assert_eq!(cfg.spans.as_deref(), Some(Path::new("out.spans.ndjson")));
        assert_eq!(cfg.metrics.as_deref(), Some(Path::new("m.prom")));
        assert!(cfg.progress);
        let caps = cfg.capture();
        assert!(caps.tracing && caps.metrics && caps.spans && caps.any());
        assert!(cli.has("--quick"));
        assert_eq!(cli.jobs, 2);
    }

    #[test]
    fn spans_alone_count_as_telemetry() {
        let caps = parse(&["--spans", "s.spans.ndjson"]).unwrap().obs.capture();
        assert!(caps.any());
        assert!(caps.spans && !caps.tracing && !caps.metrics);
        assert!(!Capture::OFF.any());
    }

    #[test]
    fn split_args_rejects_missing_values() {
        for flag in ["--trace-events", "--spans", "--metrics"] {
            assert_eq!(parse(&[flag]).unwrap_err(), format!("{flag} needs a value"));
        }
    }

    #[test]
    fn no_flags_is_disabled() {
        let cli = parse(&["--quick"]).unwrap();
        assert!(!cli.obs.capture().any());
        assert!(!cli.obs.progress);
    }

    fn settings() -> SimSettings {
        SimSettings {
            messages: 500,
            warmup: 50,
            ticks_per_tau: 8,
            stations: 20,
            guard: false,
        }
    }

    fn scenario(seed: u64) -> Scenario {
        let panel = crate::panels::PANELS[0];
        Scenario::clean(panel, PolicyKind::Controlled, 100.0, settings(), seed)
    }

    fn observed(
        caps: Capture,
        index: usize,
        label: &str,
        labels: &[(&str, &str)],
        seed: u64,
    ) -> (Outcome, CellArtifacts) {
        observe_engine_cell(caps, index, label, labels, |obs, sink| {
            run(&scenario(seed), obs, sink)
        })
    }

    fn plain(seed: u64) -> Outcome {
        run(&scenario(seed), &mut NoopObserver, None)
    }

    #[test]
    fn observed_cell_matches_plain_run_and_captures_artifacts() {
        let caps = Capture {
            tracing: true,
            metrics: true,
            spans: true,
        };
        let (observed, art) = observed(caps, 0, "test cell", &[("seed", "7")], 7);
        let plain = plain(7);
        assert_eq!(plain.point.loss.to_bits(), observed.point.loss.to_bits());
        assert_eq!(plain.point.offered, observed.point.offered);
        let trace = art.trace.expect("trace captured");
        assert!(trace.starts_with("{\"schema_version\":1,\"ev\":\"cell\""));
        assert!(tcw_obs::lint::lint_events(&trace).is_ok());
        let spans = art.spans.expect("spans captured");
        assert!(spans.starts_with("{\"schema_version\":1,\"ev\":\"cell\""));
        assert!(tcw_obs::lint::lint_spans(&spans).is_ok());
        let reg = art.registry.expect("registry captured");
        let prom = reg.to_prometheus();
        assert!(tcw_obs::lint::lint_prom(&prom).is_ok());
        assert!(prom.contains("tcw_aoi_deliveries_total"), "{prom}");
    }

    fn sink_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcw_obs_sink_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(index: usize) -> CellArtifacts {
        CellArtifacts {
            spans: Some(format!("cell {index}\n")),
            ..CellArtifacts::default()
        }
    }

    #[test]
    fn sink_writes_cells_in_order_and_renames_on_finish() {
        let dir = sink_dir("order");
        let target = dir.join("nested").join("s.spans.ndjson");
        let cfg = ObsConfig {
            spans: Some(target.clone()),
            ..ObsConfig::default()
        };
        let mut sink = ObsSink::create(&cfg).unwrap();
        for i in [2, 0, 3, 1] {
            sink.commit(i, cell(i)).unwrap();
        }
        assert!(!target.exists(), "target written before the sweep finished");
        sink.finish(SweepMeta { cells: 4 }).unwrap();
        let text = std::fs::read_to_string(&target).unwrap();
        assert_eq!(text, "cell 0\ncell 1\ncell 2\ncell 3\n");
        let files = std::fs::read_dir(target.parent().unwrap()).unwrap().count();
        assert_eq!(files, 1, "a temp file survived");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_sink_leaves_existing_targets_untouched() {
        let dir = sink_dir("unfinished");
        std::fs::create_dir_all(&dir).unwrap();
        let (spans, metrics) = (dir.join("s.spans.ndjson"), dir.join("m.prom"));
        std::fs::write(&spans, "previous run\n").unwrap();
        let cfg = ObsConfig {
            spans: Some(spans.clone()),
            metrics: Some(metrics.clone()),
            ..ObsConfig::default()
        };
        let mut sink = ObsSink::create(&cfg).unwrap();
        sink.commit(0, cell(0)).unwrap();
        drop(sink);
        assert_eq!(std::fs::read_to_string(&spans).unwrap(), "previous run\n");
        assert!(!metrics.exists());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "a temp file survived"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_refuses_targets_it_could_not_replace() {
        let dir = sink_dir("refuse");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ObsConfig {
            trace_events: Some(dir.join("t.ndjson")),
            spans: Some(dir.clone()),
            ..ObsConfig::default()
        };
        let err = ObsSink::create(&cfg).unwrap_err();
        assert!(err.ends_with("is a directory"), "{err}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a temp file survived"
        );
        if cfg!(unix) {
            let cfg = ObsConfig {
                metrics: Some(PathBuf::from("/dev/null")),
                ..ObsConfig::default()
            };
            let err = ObsSink::create(&cfg).unwrap_err();
            assert!(err.ends_with("not a regular file"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spans_only_capture_matches_plain_run() {
        let caps = Capture {
            spans: true,
            ..Capture::OFF
        };
        let (observed, art) = observed(caps, 3, "spans only", &[], 11);
        let plain = plain(11);
        assert_eq!(plain.point.loss.to_bits(), observed.point.loss.to_bits());
        assert_eq!(plain.point.offered, observed.point.offered);
        assert!(art.trace.is_none());
        assert!(art.registry.is_none());
        let spans = art.spans.expect("spans captured");
        let stats = tcw_obs::lint::lint_spans(&spans).unwrap();
        assert!(stats.spans > 0);
        assert!(tcw_obs::report::parse_spans(&spans).is_ok());
    }
}
