//! Crash-safe sweep supervision: retries, a wall-clock watchdog,
//! quarantine, and a crash-consistent resume journal.
//!
//! [`supervised_cells`] is the one executor every sweep binary runs its
//! grid through, with or without the `--resume PATH`, `--cell-timeout
//! SECS` and `--retries N` flags; without them it runs under
//! [`SupervisorOptions::default`] (two retries, no watchdog, no journal):
//!
//! * **Supervision** — [`run_supervised`] executes each cell under
//!   [`std::panic::catch_unwind`] and, when a timeout is configured, on a
//!   watchdogged thread cut off by `recv_timeout`. Failed attempts are
//!   retried with exponential backoff; a cell that exhausts its budget is
//!   **quarantined** (reported with its index and label, the binary's
//!   failure hook writes its replay artifact) while the rest of the sweep
//!   completes, and the binary then exits with
//!   [`crate::diag::EXIT_FAILURE`] without writing outputs (telemetry temp
//!   files are deleted).
//! * **Journal** — completed cells are appended to a per-line-checksummed
//!   NDJSON journal, rewritten through a temp file and `rename` so the
//!   file on disk is always a consistent prefix of the sweep. Reopening
//!   the journal (`--resume`) validates the header (format, binary
//!   version, experiment tag, grid fingerprint) and every line checksum,
//!   then skips the journaled cells; corruption or staleness is rejected
//!   up front and the binaries exit with [`crate::diag::EXIT_FAILURE`].
//! * **Observability** — each cell runs under
//!   [`crate::obs::observe_engine_cell`], so `--trace-events`, `--spans`
//!   and `--metrics` compose with supervision and with a fresh journal.
//!   The coordinator streams each cell's telemetry to temp files in cell
//!   order as cells complete, and renames them into place when the sweep
//!   finishes without quarantine. Only the cell's result is journaled, not
//!   its telemetry, so telemetry with a journal that already holds
//!   completed cells is a usage error. Retry/timeout/quarantine/
//!   resume-skip events feed the [`tcw_obs::Progress`] supervisor
//!   counters (rendered in the `--progress` line) and are totalled in
//!   [`SweepOutcome`].
//!
//! Because every cell is a pure function of its index, a resumed sweep
//! reassembles results in cell order exactly as an uninterrupted one
//! does: the final CSV/TXT outputs are byte-identical. Journal *entries*
//! are appended in completion order, which may vary across `--jobs`
//! settings — the journal is an execution log, not a result artifact.
//!
//! A timed-out attempt's thread cannot be killed in safe Rust; it is
//! abandoned (detached) and its eventual result is discarded. Abandoned
//! threads hold no locks — cells share no state — so they can only waste
//! a core until the cell returns or the process exits.
//!
//! This module also provides the version-stamped artifact envelope for
//! **engine checkpoints** ([`snapshot_to_artifact`] /
//! [`snapshot_from_artifact`]): the word stream of
//! `tcw_window::Engine::snapshot` wrapped in the same flat-JSON envelope
//! as every replay artifact, with an explicit whole-stream checksum.

use crate::diag;
use crate::obs::{observe_engine_cell, CellArtifacts, ObsSink, SweepMeta};
use crate::replay::{
    load_artifact, panic_message, parse_flat, ArtifactReader, ArtifactWriter, FailureRecord,
    ARTIFACT_VERSION,
};
use crate::runner::{run, Outcome, Scenario};
use crate::sweep::Cli;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tcw_obs::Progress;
use tcw_sim::snap::{self, SnapError, SnapReader, SnapWriter};
use tcw_sim::stats::MetricSink;
use tcw_window::engine::HorizonStats;
use tcw_window::trace::EngineObserver;

/// Journal file format version; bumped on any layout change.
pub const JOURNAL_FORMAT: u64 = 3;

/// `experiment` tag of the engine-checkpoint artifact envelope.
pub const SNAPSHOT_EXPERIMENT: &str = "engine-snapshot";

// ---------------------------------------------------------------------------
// Options

/// Supervision knobs (`--resume`, `--cell-timeout`, `--retries`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Journal path (`--resume PATH`): created when absent, validated and
    /// skipped-from when present.
    pub resume: Option<PathBuf>,
    /// Wall-clock budget per attempt (`--cell-timeout SECS`).
    pub cell_timeout: Option<Duration>,
    /// Retries after the first failed attempt (`--retries N`).
    pub retries: u32,
    /// Base backoff slept before retry `k` (doubling each attempt,
    /// capped at 32x). Not exposed as a flag; tests shrink it.
    pub backoff: Duration,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            resume: None,
            cell_timeout: None,
            retries: 2,
            backoff: Duration::from_millis(100),
        }
    }
}

// ---------------------------------------------------------------------------
// Journaled result encoding

/// A sweep result type that can be journaled as a word stream.
///
/// Encoders and decoders must be exact inverses; `f64`s travel as raw
/// bits through [`SnapWriter::push_f64`], so journaled results restore
/// bit-identically and a resumed sweep's outputs match an uninterrupted
/// run byte for byte.
pub trait JournalItem: Sized {
    /// Appends this result's words to the stream.
    fn encode(&self, w: &mut SnapWriter);
    /// Reads one result back from the stream.
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError>;
    /// The event-horizon counters of the run, when the result carries
    /// them; they feed the `--progress` line.
    fn horizon(&self) -> Option<HorizonStats> {
        None
    }
}

impl JournalItem for u64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(*self);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        r.take()
    }
}

impl JournalItem for f64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.push_f64(*self);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        r.take_f64()
    }
}

impl<T: JournalItem> JournalItem for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.take()?;
        (0..n).map(|_| T::decode(r)).collect()
    }
}

impl<A: JournalItem, B: JournalItem> JournalItem for (A, B) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
    fn horizon(&self) -> Option<HorizonStats> {
        self.0.horizon().or_else(|| self.1.horizon())
    }
}

/// A cell's telemetry is never journaled: it encodes to nothing and a
/// resumed cell comes back without any, which is why telemetry is refused
/// with a journal that already holds completed cells.
impl JournalItem for CellArtifacts {
    fn encode(&self, _: &mut SnapWriter) {}
    fn decode(_: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(CellArtifacts::default())
    }
}

impl JournalItem for crate::runner::SimPoint {
    fn encode(&self, w: &mut SnapWriter) {
        w.push_f64(self.k);
        w.push_f64(self.loss);
        w.push_f64(self.ci95);
        w.push_f64(self.sender_loss);
        w.push_f64(self.sched_time_mean);
        w.push_f64(self.round_overhead_mean);
        w.push_f64(self.utilization);
        w.push(self.offered);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::runner::SimPoint {
            k: r.take_f64()?,
            loss: r.take_f64()?,
            ci95: r.take_f64()?,
            sender_loss: r.take_f64()?,
            sched_time_mean: r.take_f64()?,
            round_overhead_mean: r.take_f64()?,
            utilization: r.take_f64()?,
            offered: r.take()?,
        })
    }
}

impl JournalItem for crate::runner::FaultCounters {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(self.corrupted_slots);
        w.push(self.erased_slots);
        w.push(self.resyncs);
        w.push(self.rounds_abandoned);
        w.push(self.reopened);
        w.push(self.fault_losses);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::runner::FaultCounters {
            corrupted_slots: r.take()?,
            erased_slots: r.take()?,
            resyncs: r.take()?,
            rounds_abandoned: r.take()?,
            reopened: r.take()?,
            fault_losses: r.take()?,
        })
    }
}

impl JournalItem for crate::runner::ChurnCounters {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(self.crashes);
        w.push(self.restarts);
        w.push(self.joins);
        w.push(self.leaves);
        w.push(self.blocked);
        w.push(self.losses);
        w.push(self.reopened);
        w.push_f64(self.rejoin_mean_slots);
        w.push_f64(self.rejoin_max_slots);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::runner::ChurnCounters {
            crashes: r.take()?,
            restarts: r.take()?,
            joins: r.take()?,
            leaves: r.take()?,
            blocked: r.take()?,
            losses: r.take()?,
            reopened: r.take()?,
            rejoin_mean_slots: r.take_f64()?,
            rejoin_max_slots: r.take_f64()?,
        })
    }
}

impl JournalItem for crate::runner::FaultSimPoint {
    fn encode(&self, w: &mut SnapWriter) {
        self.point.encode(w);
        self.faults.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::runner::FaultSimPoint {
            point: JournalItem::decode(r)?,
            faults: JournalItem::decode(r)?,
        })
    }
}

impl JournalItem for HorizonStats {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(self.jumps);
        w.push(self.slots_skipped);
        w.push(self.batched_runs);
        w.push(self.batched_slots);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(HorizonStats {
            jumps: r.take()?,
            slots_skipped: r.take()?,
            batched_runs: r.take()?,
            batched_slots: r.take()?,
        })
    }
}

impl JournalItem for Outcome {
    fn encode(&self, w: &mut SnapWriter) {
        self.point.encode(w);
        self.faults.encode(w);
        self.churn.encode(w);
        self.aoi.encode(w);
        self.horizon.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Outcome {
            point: JournalItem::decode(r)?,
            faults: JournalItem::decode(r)?,
            churn: JournalItem::decode(r)?,
            aoi: JournalItem::decode(r)?,
            horizon: JournalItem::decode(r)?,
        })
    }
    fn horizon(&self) -> Option<HorizonStats> {
        Some(self.horizon)
    }
}

impl JournalItem for crate::runner::AoiPoint {
    fn encode(&self, w: &mut SnapWriter) {
        w.push_f64(self.k);
        w.push_f64(self.mean_age_tau);
        w.push_f64(self.peak_age_tau);
        w.push_f64(self.violation);
        w.push(self.deliveries);
        w.push(self.stations_observed);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::runner::AoiPoint {
            k: r.take_f64()?,
            mean_age_tau: r.take_f64()?,
            peak_age_tau: r.take_f64()?,
            violation: r.take_f64()?,
            deliveries: r.take()?,
            stations_observed: r.take()?,
        })
    }
}

impl JournalItem for crate::adaptive::CellOutcome {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(self.offered);
        w.push_f64(self.loss);
        w.push(self.window_ticks);
        w.push(self.shrinks);
        w.push(self.grows);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::adaptive::CellOutcome {
            offered: r.take()?,
            loss: r.take_f64()?,
            window_ticks: r.take()?,
            shrinks: r.take()?,
            grows: r.take()?,
        })
    }
}

impl JournalItem for crate::chaos::ChaosOutcome {
    fn encode(&self, w: &mut SnapWriter) {
        w.push_str(&self.kind);
        w.push_str(&self.class);
        w.push_str(&self.detail);
        w.push(self.violations);
        w.push(self.divergences);
        w.push(self.checks);
        w.push(self.deliveries);
        w.push(self.offered);
        w.push_f64(self.loss);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::chaos::ChaosOutcome {
            kind: r.take_str()?,
            class: r.take_str()?,
            detail: r.take_str()?,
            violations: r.take()?,
            divergences: r.take()?,
            checks: r.take()?,
            deliveries: r.take()?,
            offered: r.take()?,
            loss: r.take_f64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Hex word streams

fn words_to_hex(words: &[u64]) -> String {
    let mut s = String::with_capacity(words.len() * 16);
    for w in words {
        s.push_str(&format!("{w:016x}"));
    }
    s
}

fn hex_to_words(s: &str) -> Result<Vec<u64>, String> {
    if s.len() % 16 != 0 {
        return Err(format!(
            "hex word stream has {} chars (not a multiple of 16)",
            s.len()
        ));
    }
    s.as_bytes()
        .chunks(16)
        .map(|c| {
            let t =
                std::str::from_utf8(c).map_err(|_| "non-ASCII byte in hex stream".to_string())?;
            u64::from_str_radix(t, 16).map_err(|e| format!("bad hex word {t:?}: {e}"))
        })
        .collect()
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Journal

/// Crash-consistent sweep journal: a header line naming the format,
/// binary version, experiment and grid fingerprint, then one checksummed
/// NDJSON line per completed cell. Every update rewrites the whole file
/// through `PATH.tmp` + atomic `rename`, so a crash at any instant leaves
/// either the previous or the new journal — never a torn one.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    lines: Vec<String>,
    completed: BTreeMap<usize, Vec<u64>>,
}

impl Journal {
    /// Opens (validating) or creates (writing the header immediately) the
    /// journal at `path` for the given experiment and grid fingerprint.
    pub fn open(path: &Path, experiment: &str, fingerprint: u64) -> Result<Self, String> {
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
            Self::parse(path.to_path_buf(), &text, experiment, fingerprint)
                .map_err(|e| format!("journal {}: {e}", path.display()))
        } else {
            let j = Journal {
                path: path.to_path_buf(),
                lines: vec![Self::header(experiment, fingerprint)],
                completed: BTreeMap::new(),
            };
            j.write_all()?;
            Ok(j)
        }
    }

    fn header(experiment: &str, fingerprint: u64) -> String {
        let crc = fnv_bytes(
            format!("{JOURNAL_FORMAT}|{ARTIFACT_VERSION}|{experiment}|{fingerprint}").as_bytes(),
        );
        format!(
            "{{\"journal_format\": {JOURNAL_FORMAT}, \"version\": \"{ARTIFACT_VERSION}\", \
             \"experiment\": \"{experiment}\", \"fingerprint\": \"{fingerprint:016x}\", \
             \"crc\": \"{crc:016x}\"}}"
        )
    }

    fn parse(
        path: PathBuf,
        text: &str,
        experiment: &str,
        fingerprint: u64,
    ) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty journal file")?;
        let fields = parse_flat(header).map_err(|e| format!("bad header: {e}"))?;
        let field = |k: &str| -> Result<&String, String> {
            fields.get(k).ok_or(format!("header missing {k:?}"))
        };
        if field("journal_format")? != &JOURNAL_FORMAT.to_string() {
            return Err(format!(
                "unsupported journal format {} (this binary writes {JOURNAL_FORMAT})",
                field("journal_format")?
            ));
        }
        if field("version")? != ARTIFACT_VERSION {
            return Err(format!(
                "stale journal: written by version {}, this binary is {ARTIFACT_VERSION}",
                field("version")?
            ));
        }
        if field("experiment")? != experiment {
            return Err(format!(
                "journal belongs to experiment {:?}, not {experiment:?}",
                field("experiment")?
            ));
        }
        let parse_hex = |k: &str| -> Result<u64, String> {
            u64::from_str_radix(field(k)?, 16).map_err(|e| format!("bad {k} field: {e}"))
        };
        if parse_hex("fingerprint")? != fingerprint {
            return Err(
                "stale journal: grid fingerprint mismatch (the sweep configuration changed); \
                 delete the journal to start over"
                    .to_string(),
            );
        }
        let expect = fnv_bytes(
            format!("{JOURNAL_FORMAT}|{ARTIFACT_VERSION}|{experiment}|{fingerprint}").as_bytes(),
        );
        if parse_hex("crc")? != expect {
            return Err("header failed its checksum (corrupted journal)".to_string());
        }

        let mut kept = vec![header.to_string()];
        let mut completed = BTreeMap::new();
        for (n, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry =
                Self::parse_entry(line).map_err(|e| format!("line {} corrupted: {e}", n + 2))?;
            let (cell, words) = entry;
            if completed.insert(cell, words).is_some() {
                return Err(format!("line {}: duplicate entry for cell {cell}", n + 2));
            }
            kept.push(line.to_string());
        }
        Ok(Journal {
            path,
            lines: kept,
            completed,
        })
    }

    fn parse_entry(line: &str) -> Result<(usize, Vec<u64>), String> {
        let fields = parse_flat(line)?;
        let field =
            |k: &str| -> Result<&String, String> { fields.get(k).ok_or(format!("missing {k:?}")) };
        let cell: usize = field("cell")?
            .parse()
            .map_err(|e| format!("bad cell index: {e}"))?;
        let words = hex_to_words(field("data")?)?;
        let crc = u64::from_str_radix(field("crc")?, 16).map_err(|e| format!("bad crc: {e}"))?;
        let mut checked = Vec::with_capacity(words.len() + 1);
        checked.push(cell as u64);
        checked.extend_from_slice(&words);
        if crc != snap::checksum(&checked) {
            return Err("entry failed its checksum".to_string());
        }
        Ok((cell, words))
    }

    /// The journaled word stream for `cell`, when present.
    pub fn completed(&self, cell: usize) -> Option<&[u64]> {
        self.completed.get(&cell).map(Vec::as_slice)
    }

    /// Number of journaled cells.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no cell has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Appends one completed cell and atomically persists the journal.
    pub fn record(&mut self, cell: usize, words: &[u64]) -> Result<(), String> {
        let mut checked = Vec::with_capacity(words.len() + 1);
        checked.push(cell as u64);
        checked.extend_from_slice(words);
        let crc = snap::checksum(&checked);
        self.lines.push(format!(
            "{{\"cell\": {cell}, \"data\": \"{}\", \"crc\": \"{crc:016x}\"}}",
            words_to_hex(words)
        ));
        self.completed.insert(cell, words.to_vec());
        self.write_all()
    }

    fn write_all(&self) -> Result<(), String> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        let mut content = self.lines.join("\n");
        content.push('\n');
        let tmp = self.path.with_extension("journal.tmp");
        std::fs::write(&tmp, &content)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
    }
}

// ---------------------------------------------------------------------------
// Supervised execution

/// One cell that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// Grid index of the cell.
    pub cell: usize,
    /// Attempts consumed (1 + retries).
    pub attempts: u32,
    /// Last failure: the panic message, or the timeout description.
    pub reason: String,
}

/// The result of a supervised sweep.
pub struct SweepOutcome<T> {
    /// Per-cell results in grid order; `None` exactly for quarantined
    /// cells.
    pub results: Vec<Option<T>>,
    /// Cells that exhausted their retry budget, in grid order.
    pub quarantined: Vec<Quarantined>,
    /// Cells satisfied straight from the resume journal.
    pub resumed: usize,
    /// Total attempts retried after a failure.
    pub retries: u64,
    /// Total attempts cut off by the watchdog.
    pub timeouts: u64,
}

impl<T> SweepOutcome<T> {
    /// One-line supervisor summary for reports and stderr.
    pub fn summary(&self) -> String {
        format!(
            "supervisor: {} resumed, {} retries, {} timeouts, {} quarantined",
            self.resumed,
            self.retries,
            self.timeouts,
            self.quarantined.len()
        )
    }

    /// Unwraps a quarantine-free sweep into plain results.
    ///
    /// # Panics
    /// Panics when any cell was quarantined; callers check
    /// [`SweepOutcome::quarantined`] first.
    pub fn into_results(self) -> Vec<T> {
        assert!(
            self.quarantined.is_empty(),
            "into_results on a sweep with quarantined cells"
        );
        self.results
            .into_iter()
            .map(|r| r.expect("non-quarantined cell has a result"))
            .collect()
    }
}

enum AttemptFailure {
    Panic(String),
    Timeout,
}

/// Runs one attempt, watchdogged when a timeout is configured. The
/// watchdog thread is abandoned on timeout — safe Rust cannot cancel it —
/// and its late result (sent to a dropped receiver) is discarded.
fn attempt_cell<T, F>(f: F, cell: usize, timeout: Option<Duration>) -> Result<T, AttemptFailure>
where
    T: Send + 'static,
    F: FnOnce(usize) -> T + Send + 'static,
{
    match timeout {
        None => catch_unwind(AssertUnwindSafe(|| f(cell)))
            .map_err(|e| AttemptFailure::Panic(panic_message(e))),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let spawned = std::thread::Builder::new()
                .name(format!("tcw-cell-{cell}"))
                .spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| f(cell))).map_err(panic_message);
                    let _ = tx.send(r);
                });
            let handle = match spawned {
                Ok(h) => h,
                Err(e) => {
                    return Err(AttemptFailure::Panic(format!(
                        "could not spawn watchdogged cell thread: {e}"
                    )))
                }
            };
            match rx.recv_timeout(limit) {
                Ok(Ok(v)) => {
                    let _ = handle.join();
                    Ok(v)
                }
                Ok(Err(msg)) => {
                    let _ = handle.join();
                    Err(AttemptFailure::Panic(msg))
                }
                Err(_) => {
                    drop(handle); // abandoned; see module docs
                    Err(AttemptFailure::Timeout)
                }
            }
        }
    }
}

enum CellReport<T> {
    Done {
        cell: usize,
        value: T,
        words: Vec<u64>,
    },
    Quarantined(Quarantined),
}

/// Executes cells `0..n` under supervision and returns results in grid
/// order, with journaled cells skipped, failed attempts retried with
/// exponential backoff, and hopeless cells quarantined instead of
/// aborting the sweep.
///
/// `f` must be a pure function of the cell index (every binary's cells
/// already are — the seed is part of the cell), cloneable into watchdog
/// threads. Errors are I/O or validation failures (journal writes,
/// undecodable journal entries), which the binaries map to
/// [`crate::diag::EXIT_FAILURE`].
pub fn run_supervised<T, F>(
    n: usize,
    jobs: usize,
    opts: &SupervisorOptions,
    journal: Option<&mut Journal>,
    progress: Option<&Progress>,
    f: F,
) -> Result<SweepOutcome<T>, String>
where
    T: JournalItem + Send + 'static,
    F: Fn(usize) -> T + Send + Sync + Clone + 'static,
{
    execute(n, jobs, opts, journal, progress, f, |_, _| Ok(()))
}

/// The executor behind [`run_supervised`]: additionally hands every cell
/// the coordinator receives as done to `commit`, on the coordinator
/// thread, in completion order, right after its journal entry. An
/// abandoned timed-out attempt never reaches `commit`; its late result
/// goes to a dropped channel (see [`attempt_cell`]).
fn execute<T, F>(
    n: usize,
    jobs: usize,
    opts: &SupervisorOptions,
    mut journal: Option<&mut Journal>,
    progress: Option<&Progress>,
    f: F,
    mut commit: impl FnMut(usize, &mut T) -> Result<(), String>,
) -> Result<SweepOutcome<T>, String>
where
    T: JournalItem + Send + 'static,
    F: Fn(usize) -> T + Send + Sync + Clone + 'static,
{
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut resumed = 0usize;
    if let Some(j) = journal.as_deref() {
        for (i, slot) in results.iter_mut().enumerate() {
            if let Some(words) = j.completed(i) {
                let mut r = SnapReader::new(words);
                let value = T::decode(&mut r)
                    .and_then(|v| r.finish().map(|()| v))
                    .map_err(|e| format!("journal entry for cell {i} does not decode: {e}"))?;
                *slot = Some(value);
                resumed += 1;
            }
        }
        if resumed > 0 {
            if let Some(p) = progress {
                p.note_resume_skipped(resumed as u64);
            }
        }
    }
    let todo: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();

    let retries_total = AtomicU64::new(0);
    let timeouts_total = AtomicU64::new(0);
    let mut quarantined: Vec<Quarantined> = Vec::new();
    if !todo.is_empty() {
        let workers = jobs.max(1).min(todo.len());
        let next = AtomicUsize::new(0);
        let alive = AtomicUsize::new(workers);
        struct Leaving<'a>(&'a AtomicUsize);
        impl Drop for Leaving<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = mpsc::channel::<CellReport<T>>();
        std::thread::scope(|s| -> Result<(), String> {
            for w in 0..workers {
                let tx = tx.clone();
                let todo = &todo;
                let next = &next;
                let alive = &alive;
                let retries_total = &retries_total;
                let timeouts_total = &timeouts_total;
                let f = f.clone();
                s.spawn(move || {
                    let _leaving = Leaving(alive);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cell) = todo.get(k) else { break };
                        let mut attempt = 0u32;
                        let report = loop {
                            if let Some(p) = progress {
                                p.cell_started(w, cell);
                            }
                            match attempt_cell(f.clone(), cell, opts.cell_timeout) {
                                Ok(value) => {
                                    if let (Some(p), Some(h)) = (progress, value.horizon()) {
                                        p.note_horizon(
                                            h.jumps,
                                            h.slots_skipped,
                                            h.batched_runs,
                                            h.batched_slots,
                                        );
                                    }
                                    let mut sw = SnapWriter::new();
                                    value.encode(&mut sw);
                                    break CellReport::Done {
                                        cell,
                                        value,
                                        words: sw.into_words(),
                                    };
                                }
                                Err(failure) => {
                                    let reason = match failure {
                                        AttemptFailure::Timeout => {
                                            timeouts_total.fetch_add(1, Ordering::Relaxed);
                                            if let Some(p) = progress {
                                                p.note_timeout();
                                            }
                                            format!(
                                                "timed out after {:.3}s",
                                                opts.cell_timeout.unwrap_or_default().as_secs_f64()
                                            )
                                        }
                                        AttemptFailure::Panic(msg) => {
                                            format!("{PANICKED}{msg}")
                                        }
                                    };
                                    if attempt >= opts.retries {
                                        break CellReport::Quarantined(Quarantined {
                                            cell,
                                            attempts: attempt + 1,
                                            reason,
                                        });
                                    }
                                    retries_total.fetch_add(1, Ordering::Relaxed);
                                    if let Some(p) = progress {
                                        p.note_retry();
                                    }
                                    std::thread::sleep(opts.backoff * (1u32 << attempt.min(5)));
                                    attempt += 1;
                                }
                            }
                        };
                        if let Some(p) = progress {
                            p.cell_done(w);
                        }
                        if tx.send(report).is_err() {
                            break;
                        }
                    }
                });
            }
            if let Some(p) = progress {
                let alive = &alive;
                s.spawn(move || {
                    while alive.load(Ordering::Relaxed) > 0 {
                        p.tick();
                        std::thread::sleep(Duration::from_millis(100));
                    }
                });
            }
            drop(tx);
            for report in rx {
                match report {
                    CellReport::Done {
                        cell,
                        mut value,
                        words,
                    } => {
                        if let Some(j) = journal.as_deref_mut() {
                            j.record(cell, &words)?;
                        }
                        commit(cell, &mut value)?;
                        results[cell] = Some(value);
                    }
                    CellReport::Quarantined(q) => {
                        if let Some(p) = progress {
                            p.note_quarantine();
                        }
                        quarantined.push(q);
                    }
                }
            }
            Ok(())
        })?;
    }
    quarantined.sort_by_key(|q| q.cell);
    Ok(SweepOutcome {
        results,
        quarantined,
        resumed,
        retries: retries_total.into_inner(),
        timeouts: timeouts_total.into_inner(),
    })
}

/// Quarantine reason prefix of a cell whose last attempt panicked.
const PANICKED: &str = "panicked: ";

/// Runs a sweep binary's grid: cells `0..n` under supervision with the
/// telemetry `cli` asks for, returning their results in grid order.
///
/// * `cell(i, observer, sink)` runs cell `i`, threading the observer
///   through the engine and emitting metrics into the sink when one is
///   given; it must be a pure function of `i`.
/// * `describe(i)` names cell `i`: its trace/span header label (also
///   used to report it if quarantined) and its metric labels.
/// * `on_failure(i, message)` is called for every cell quarantined after
///   a panic, with the panic message, to write its replay artifact; the
///   returned artifact path is reported with its `--replay` command.
///
/// The journal (`--resume`) is opened under the experiment tag
/// `cli.tool` and the grid `fingerprint`. Only cell results are
/// journaled, so telemetry together with a journal that already holds
/// completed cells is refused with [`crate::diag::EXIT_USAGE`] before any
/// cell runs. The telemetry files are then created as temp files next to
/// their targets, so an unwritable path exits with
/// [`crate::diag::EXIT_FAILURE`] before any cell runs; as cells complete,
/// their telemetry is appended in cell order. The supervisor summary is
/// printed when a journal is open or something was resumed, retried,
/// timed out or quarantined. Any quarantined cell is reported and the
/// process **exits** with [`crate::diag::EXIT_FAILURE`]: the telemetry
/// temp files are deleted and no target is written or touched, and the
/// journal keeps every completed cell for the next `--resume`. Journal
/// staleness/corruption and I/O failures exit the same way; only a sweep
/// that completes renames its telemetry into place.
pub fn supervised_cells<T, F>(
    cli: &Cli,
    n: usize,
    fingerprint: u64,
    describe: impl Fn(usize) -> (String, Vec<(&'static str, String)>),
    on_failure: impl Fn(usize, &str) -> Option<PathBuf>,
    cell: F,
) -> Vec<T>
where
    T: JournalItem + Send + 'static,
    F: Fn(usize, &mut dyn EngineObserver, Option<&mut dyn MetricSink>) -> T + Send + Sync + 'static,
{
    let tool = cli.tool;
    let mut journal = cli.sup.resume.as_ref().map(|path| {
        Journal::open(path, tool, fingerprint).unwrap_or_else(|e| diag::fail(tool, &e))
    });
    let caps = cli.obs.capture();
    if let Some(j) = journal.as_ref().filter(|j| caps.any() && !j.is_empty()) {
        diag::usage(
            tool,
            &format!(
                "--trace-events/--spans/--metrics need every cell to run, but the --resume \
                 journal already holds {} completed cell(s)",
                j.len()
            ),
        );
    }
    let names: Arc<Vec<_>> = Arc::new((0..n).map(describe).collect());
    let run = {
        let names = Arc::clone(&names);
        let cell = Arc::new(cell);
        move |i: usize| {
            let (label, labels) = &names[i];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            observe_engine_cell(caps, i, label, &labels, |obs, sink| cell(i, obs, sink))
        }
    };
    // Telemetry streams straight to disk, in cell order, as cells finish.
    let mut sink = ObsSink::create(&cli.obs).unwrap_or_else(|e| diag::fail(tool, &e));
    let progress = cli.obs.progress.then(|| Progress::new(n, cli.jobs));
    let outcome = execute(
        n,
        cli.jobs,
        &cli.sup,
        journal.as_mut(),
        progress.as_ref(),
        run,
        |cell, (_, artifacts): &mut (T, CellArtifacts)| {
            sink.commit(cell, std::mem::take(artifacts))
        },
    );
    // `diag::fail` exits without unwinding: drop the sink first so its
    // temp files are deleted and no target is touched.
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            drop(sink);
            diag::fail(tool, &e)
        }
    };
    if let Some(p) = &progress {
        p.finish();
    }
    let eventful = outcome.resumed as u64 + outcome.retries + outcome.timeouts > 0;
    if journal.is_some() || eventful || !outcome.quarantined.is_empty() {
        println!("{}", outcome.summary());
    }
    if !outcome.quarantined.is_empty() {
        drop(sink);
        for q in &outcome.quarantined {
            eprintln!(
                "quarantined cell {} ({}) after {} attempt(s): {}",
                q.cell, names[q.cell].0, q.attempts, q.reason
            );
            if let Some(path) = q
                .reason
                .strip_prefix(PANICKED)
                .and_then(|m| on_failure(q.cell, m))
            {
                let path = path.display();
                eprintln!("  replay artifact: {path}\n  reproduce: cargo run --release -p tcw-experiments --bin {tool} -- --replay {path}");
            }
        }
        let hint = if journal.is_some() {
            "; completed cells are journaled, rerun with the same --resume to finish"
        } else {
            ""
        };
        diag::fail(
            tool,
            &format!("{} cell(s) quarantined{hint}", outcome.quarantined.len()),
        );
    }
    sink.finish(SweepMeta { cells: n })
        .unwrap_or_else(|e| diag::fail(tool, &e));
    outcome.into_results().into_iter().map(|(v, _)| v).collect()
}

/// Runs a sweep grid of [`Scenario`]s through [`supervised_cells`]
/// under the grid's [`Scenario::grid_fingerprint`], and returns their
/// outcomes in grid order. `describe` names a cell as in
/// [`supervised_cells`]; for a cell quarantined after a panic, the
/// [`FailureRecord`] of the panic is written to `artifact(cell)` when that
/// gives a path.
pub fn run_scenarios(
    cli: &Cli,
    cells: &[Scenario],
    describe: impl Fn(&Scenario) -> (String, Vec<(&'static str, String)>),
    artifact: impl Fn(&Scenario) -> Option<PathBuf>,
) -> Vec<Outcome> {
    let grid: Arc<[Scenario]> = cells.into();
    supervised_cells(
        cli,
        cells.len(),
        Scenario::grid_fingerprint(cells),
        |i| describe(&cells[i]),
        |i, message| {
            let path = artifact(&cells[i])?;
            FailureRecord::new(&cells[i], "panic", message)
                .save(&path)
                .expect("write replay artifact");
            Some(path)
        },
        move |i, obs, sink| run(&grid[i], obs, sink),
    )
}

// ---------------------------------------------------------------------------
// Engine-checkpoint artifact envelope

/// Wraps an engine snapshot word stream in the shared flat-JSON artifact
/// envelope: version stamp, `engine-snapshot` experiment tag, declared
/// word count, hex payload and a whole-stream checksum.
pub fn snapshot_to_artifact(words: &[u64]) -> String {
    let mut w = ArtifactWriter::new(Some(SNAPSHOT_EXPERIMENT));
    w.u64("words", words.len() as u64);
    w.str("data", &words_to_hex(words));
    w.str("crc", &format!("{:016x}", snap::checksum(words)));
    w.finish()
}

/// Recovers an engine snapshot word stream from its artifact envelope,
/// rejecting stale versions, foreign experiment tags, corrupted payloads
/// and checksum mismatches (the binaries exit with
/// [`crate::diag::EXIT_FAILURE`] on `Err`).
pub fn snapshot_from_artifact(text: &str) -> Result<Vec<u64>, String> {
    let r = ArtifactReader::parse(text, Some(SNAPSHOT_EXPERIMENT))?;
    let declared = r.u64("words")?;
    let words = hex_to_words(&r.str("data")?)?;
    if words.len() as u64 != declared {
        return Err(format!(
            "snapshot declares {declared} words but its payload holds {}",
            words.len()
        ));
    }
    let crc = u64::from_str_radix(&r.str("crc")?, 16).map_err(|e| format!("bad crc field: {e}"))?;
    if crc != snap::checksum(&words) {
        return Err("snapshot artifact failed its checksum (corrupted or tampered)".to_string());
    }
    Ok(words)
}

/// Writes an engine snapshot artifact atomically (temp file + rename).
pub fn save_engine_snapshot(path: &Path, words: &[u64]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    let tmp = path.with_extension("snap.tmp");
    std::fs::write(&tmp, snapshot_to_artifact(words))
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
}

/// Reads and validates an engine snapshot artifact.
pub fn load_engine_snapshot(path: &Path) -> Result<Vec<u64>, String> {
    snapshot_from_artifact(&load_artifact(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    /// Minimal journaled type for supervisor tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct V(u64);
    impl JournalItem for V {
        fn encode(&self, w: &mut SnapWriter) {
            w.push(self.0);
        }
        fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
            Ok(V(r.take()?))
        }
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn fast() -> SupervisorOptions {
        SupervisorOptions {
            backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tcw_supervise_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn split_args_extracts_supervision_flags() {
        let parse =
            |v: &[&str]| Cli::parse("t", &[crate::sweep::Flag::switch("--quick")], &strs(v));
        let cli = parse(&[
            "--jobs",
            "4",
            "--resume",
            "j.ndjson",
            "--cell-timeout=1.5",
            "--retries",
            "0",
            "--quick",
        ])
        .unwrap();
        let opts = &cli.sup;
        assert_eq!(opts.resume.as_deref(), Some(Path::new("j.ndjson")));
        assert_eq!(opts.cell_timeout, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(opts.retries, 0);
        assert_eq!(cli.jobs, 4);
        assert!(cli.has("--quick"));

        let cli = parse(&["--jobs", "2"]).unwrap();
        assert_eq!(cli.sup, SupervisorOptions::default());

        for bad in [
            &["--resume"][..],
            &["--cell-timeout", "0"],
            &["--cell-timeout", "x"],
            &["--cell-timeout", "NaN"],
            &["--cell-timeout", "1e300"],
            &["--cell-timeout=inf"],
            &["--retries", "-1"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.starts_with(bad[0].split('=').next().unwrap()),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, "test", 99).unwrap();
        assert!(j.is_empty());
        j.record(0, &[1, 2, 3]).unwrap();
        j.record(2, &[u64::MAX]).unwrap();
        assert_eq!(j.len(), 2);

        let reopened = Journal::open(&path, "test", 99).unwrap();
        assert_eq!(reopened.completed(0), Some(&[1u64, 2, 3][..]));
        assert_eq!(reopened.completed(1), None);
        assert_eq!(reopened.completed(2), Some(&[u64::MAX][..]));
        assert!(!path.with_extension("journal.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_rejects_staleness_and_corruption() {
        let path = tmp_path("reject");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, "test", 7).unwrap();
        j.record(1, &[0xabcd, 42]).unwrap();

        // Wrong fingerprint and wrong experiment are both stale.
        let e = Journal::open(&path, "test", 8).unwrap_err();
        assert!(e.contains("fingerprint"), "{e}");
        let e = Journal::open(&path, "other", 7).unwrap_err();
        assert!(e.contains("experiment"), "{e}");

        let good = std::fs::read_to_string(&path).unwrap();

        // A flipped hex digit in the payload fails the line checksum.
        let bad = good.replacen("abcd", "abce", 1);
        std::fs::write(&path, &bad).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("checksum"), "{e}");

        // A truncated final line is rejected, not silently dropped.
        let truncated = &good[..good.len() - 10];
        std::fs::write(&path, truncated).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("corrupted"), "{e}");

        // A stale version stamp is rejected before any entry is read.
        let stale = good.replace(ARTIFACT_VERSION, "0.0.0-stale");
        std::fs::write(&path, &stale).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("version"), "{e}");

        // Garbage is rejected.
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(Journal::open(&path, "test", 7).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn supervised_sweep_matches_direct_execution() {
        let opts = fast();
        let out = run_supervised(8, 3, &opts, None, None, |i| V(i as u64 * 10)).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.resumed, 0);
        assert_eq!(out.retries + out.timeouts, 0);
        let vals = out.into_results();
        assert_eq!(vals, (0..8).map(|i| V(i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_cell_is_quarantined_with_reason() {
        let opts = SupervisorOptions {
            retries: 1,
            ..fast()
        };
        let out = run_supervised(4, 2, &opts, None, None, |i| {
            if i == 2 {
                panic!("cell two always dies");
            }
            V(i as u64)
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.cell, 2);
        assert_eq!(q.attempts, 2);
        assert!(q.reason.contains("cell two always dies"), "{}", q.reason);
        assert_eq!(out.retries, 1);
        assert!(out.results[2].is_none());
        assert_eq!(out.results[3], Some(V(3)));
    }

    #[test]
    fn flaky_cell_succeeds_after_retry() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let opts = SupervisorOptions {
            retries: 3,
            ..fast()
        };
        let out = run_supervised(1, 1, &opts, None, None, move |i| {
            if seen.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            V(i as u64 + 100)
        })
        .unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.retries, 2);
        assert_eq!(out.into_results(), vec![V(100)]);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn wedged_cell_is_timed_out_and_quarantined() {
        let opts = SupervisorOptions {
            retries: 1,
            cell_timeout: Some(Duration::from_millis(40)),
            ..fast()
        };
        let out = run_supervised(3, 2, &opts, None, None, |i| {
            if i == 1 {
                std::thread::sleep(Duration::from_secs(5));
            }
            V(i as u64)
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].cell, 1);
        assert!(out.quarantined[0].reason.contains("timed out"));
        assert_eq!(out.timeouts, 2); // both attempts hit the watchdog
        assert_eq!(out.results[0], Some(V(0)));
        assert_eq!(out.results[2], Some(V(2)));
    }

    #[test]
    fn resume_skips_journaled_cells_and_completes_the_rest() {
        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);
        let opts = SupervisorOptions {
            retries: 0,
            ..fast()
        };
        // First run: cell 1 fails, the rest are journaled.
        let mut j = Journal::open(&path, "test", 5).unwrap();
        let out = run_supervised(3, 1, &opts, Some(&mut j), None, |i| {
            if i == 1 {
                panic!("first pass fails cell 1");
            }
            V(i as u64 * 7)
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        drop(j);

        // Second run: only cell 1 may execute.
        let ran = Arc::new(AtomicU32::new(0));
        let seen = ran.clone();
        let mut j = Journal::open(&path, "test", 5).unwrap();
        let out = run_supervised(3, 1, &opts, Some(&mut j), None, move |i| {
            seen.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, 1, "journaled cells must not re-run");
            V(i as u64 * 7)
        })
        .unwrap();
        assert_eq!(out.resumed, 2);
        assert!(out.quarantined.is_empty());
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(out.into_results(), vec![V(0), V(7), V(14)]);
        std::fs::remove_file(&path).unwrap();
    }

    /// A scratch directory holding one sweep's telemetry files.
    struct Outputs(PathBuf);

    impl Outputs {
        fn new(name: &str) -> Self {
            let dir = tmp_path(name);
            let _ = std::fs::remove_dir_all(&dir);
            Outputs(dir)
        }

        /// `--spans`, `--trace-events` and `--metrics` into this directory.
        fn args(&self) -> Vec<String> {
            let p = |f: &str| self.0.join(f).display().to_string();
            let (s, e, m) = (p("s.spans.ndjson"), p("e.ndjson"), p("m.prom"));
            strs(&["--spans", &s, "--trace-events", &e, "--metrics", &m])
        }

        fn read(&self) -> [String; 3] {
            ["s.spans.ndjson", "e.ndjson", "m.prom"]
                .map(|f| std::fs::read_to_string(self.0.join(f)).expect("telemetry written"))
        }

        /// Every file in the directory, so stray temp files show up.
        fn listing(&self) -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        }
    }

    impl Drop for Outputs {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Cell headers (`"cell":N`) of an NDJSON stream, in file order.
    fn headers(text: &str) -> Vec<usize> {
        text.lines()
            .filter(|l| l.contains("\"ev\":\"cell\""))
            .map(|l| {
                let at = l.find("\"cell\":").unwrap() + 7;
                let digits: String = l[at..].chars().take_while(char::is_ascii_digit).collect();
                digits.parse().unwrap()
            })
            .collect()
    }

    /// Polls `ready` until it holds; panics after 30 s.
    fn wait_until(ready: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !ready() {
            assert!(start.elapsed() < Duration::from_secs(30), "wait timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// One test cell of an `n`-cell grid: a span that opens and closes, an
    /// event-stream line and a counter, all derived from the index. With
    /// `hold`, cell 0 waits until every other cell has finished.
    fn telemetry_cell(
        n: usize,
        hold: bool,
        finished: Arc<std::sync::Mutex<Vec<usize>>>,
    ) -> impl Fn(usize, &mut dyn EngineObserver, Option<&mut dyn MetricSink>) -> V + Send + Sync
    {
        use tcw_mac::{Message, MessageId, StationId};
        use tcw_sim::time::Time;
        move |i, obs, sink| {
            if hold && i == 0 {
                wait_until(|| finished.lock().expect("no cell panics").len() == n - 1);
            }
            let m = Message::new(MessageId(i as u64), StationId(1), Time::from_ticks(0));
            obs.on_arrival(&m, Time::from_ticks(i as u64));
            obs.on_sender_discard(&m, Time::from_ticks(2 * i as u64 + 1));
            if let Some(sink) = sink {
                sink.counter("tcw_test_cells_total", "test cells", i as u64);
            }
            finished.lock().expect("no cell panics").push(i);
            V(i as u64)
        }
    }

    #[test]
    fn telemetry_commits_in_grid_order_and_matches_jobs_1() {
        let run = |jobs: &str, hold: bool| {
            let out = Outputs::new(&format!("ordered_{jobs}"));
            let mut args = out.args();
            args.extend(strs(&["--jobs", jobs]));
            let cli = Cli::parse("t", &[], &args).unwrap();
            let finished = Arc::new(std::sync::Mutex::new(Vec::new()));
            let cell = telemetry_cell(8, hold, Arc::clone(&finished));
            let values = supervised_cells(
                &cli,
                8,
                1,
                |i| (format!("cell {i}"), vec![("cell", i.to_string())]),
                |_, _| None,
                cell,
            );
            assert_eq!(values, (0..8).map(V).collect::<Vec<_>>());
            assert_eq!(out.listing(), ["e.ndjson", "m.prom", "s.spans.ndjson"]);
            let order = finished.lock().unwrap().clone();
            (out.read(), order)
        };
        let (serial, _) = run("1", false);
        // At --jobs 4, cell 0 finishes after every later cell.
        let (parallel, order) = run("4", true);
        assert_eq!(order.last(), Some(&0), "{order:?}");
        for text in &serial[..2] {
            assert_eq!(headers(text), (0..8).collect::<Vec<_>>());
        }
        assert!(serial[2].contains("tcw_test_cells_total{cell=\"7\"} 7"));
        assert_eq!(parallel, serial, "telemetry bytes depend on --jobs");
    }

    #[test]
    fn abandoned_timed_out_attempt_never_writes() {
        let out = Outputs::new("abandoned");
        let mut args = out.args();
        args.extend(strs(&["--jobs", "2", "--cell-timeout", "0.2"]));
        args.extend(strs(&["--retries", "1"]));
        let cli = Cli::parse("t", &[], &args).unwrap();
        // Cell 1's first attempt is held past the watchdog until the sweep
        // is over, then finishes on its abandoned thread.
        let attempts = Arc::new(AtomicU32::new(0));
        let release = Arc::new(AtomicU32::new(0));
        let late = Arc::new(AtomicU32::new(0));
        let (seen, go, done) = (attempts.clone(), release.clone(), late.clone());
        let cell = telemetry_cell(4, false, Arc::default());
        let values = supervised_cells(
            &cli,
            4,
            2,
            |i| (format!("cell {i}"), vec![]),
            |_, _| None,
            move |i, obs, sink| {
                if i == 1 && seen.fetch_add(1, Ordering::SeqCst) == 0 {
                    wait_until(|| go.load(Ordering::SeqCst) == 1);
                    let v = cell(i, obs, sink);
                    done.store(1, Ordering::SeqCst);
                    return v;
                }
                cell(i, obs, sink)
            },
        );
        assert_eq!(values, (0..4).map(V).collect::<Vec<_>>());
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "cell 1 was retried");
        let committed = out.read();
        release.store(1, Ordering::SeqCst);
        wait_until(|| late.load(Ordering::SeqCst) == 1);
        // Give the abandoned thread time to hand its result to the dropped
        // channel.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(out.read(), committed, "a late attempt changed the outputs");
        for text in &committed[..2] {
            assert_eq!(headers(text), [0, 1, 2, 3], "{text}");
        }
        assert_eq!(out.listing(), ["e.ndjson", "m.prom", "s.spans.ndjson"]);
    }

    #[test]
    fn snapshot_artifact_round_trips_and_rejects_tampering() {
        let words: Vec<u64> = vec![0x7463_775f_736e_6170, 1, 42, u64::MAX, 0];
        let text = snapshot_to_artifact(&words);
        assert_eq!(snapshot_from_artifact(&text).unwrap(), words);

        // A flipped payload digit fails the checksum.
        let pos = text.find("\"data\"").unwrap() + 10;
        let mut bad = text.clone();
        let orig = bad.as_bytes()[pos] as char;
        let flip = if orig == '0' { '1' } else { '0' };
        bad.replace_range(pos..pos + 1, &flip.to_string());
        let e = snapshot_from_artifact(&bad).unwrap_err();
        assert!(e.contains("checksum") || e.contains("hex"), "{e}");

        // A stale version stamp is rejected before the payload is read.
        let stale = text.replace(ARTIFACT_VERSION, "0.0.0-stale");
        let e = snapshot_from_artifact(&stale).unwrap_err();
        assert!(e.contains("version"), "{e}");

        // A foreign experiment tag is rejected.
        let foreign = text.replace(SNAPSHOT_EXPERIMENT, "robustness");
        assert!(snapshot_from_artifact(&foreign).is_err());
    }

    #[test]
    fn result_codecs_round_trip_bit_exactly() {
        let point = crate::runner::SimPoint {
            k: 100.0,
            loss: 0.0625,
            ci95: f64::NAN,
            sender_loss: 0.25,
            sched_time_mean: 3.5,
            round_overhead_mean: 1.25,
            utilization: 0.75,
            offered: 8_000,
        };
        let csp = crate::runner::Outcome {
            point,
            faults: crate::runner::FaultCounters {
                corrupted_slots: 1,
                erased_slots: 2,
                resyncs: 3,
                rounds_abandoned: 4,
                reopened: 5,
                fault_losses: 6,
            },
            churn: crate::runner::ChurnCounters {
                crashes: 7,
                restarts: 8,
                joins: 9,
                leaves: 10,
                blocked: 11,
                losses: 12,
                reopened: 13,
                rejoin_mean_slots: f64::NAN,
                rejoin_max_slots: 64.0,
            },
            aoi: crate::runner::AoiPoint {
                k: 100.0,
                mean_age_tau: 18.5,
                peak_age_tau: f64::NAN,
                violation: 0.125,
                deliveries: 18,
                stations_observed: 19,
            },
            horizon: tcw_window::engine::HorizonStats {
                jumps: 14,
                slots_skipped: 15,
                batched_runs: 16,
                batched_slots: 17,
            },
        };
        let mut w = SnapWriter::new();
        csp.encode(&mut w);
        let words = w.into_words();
        let mut r = SnapReader::new(&words);
        let back = crate::runner::Outcome::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.point.loss.to_bits(), csp.point.loss.to_bits());
        assert_eq!(back.point.ci95.to_bits(), csp.point.ci95.to_bits());
        assert_eq!(back.faults.fault_losses, 6);
        assert_eq!(
            back.churn.rejoin_mean_slots.to_bits(),
            csp.churn.rejoin_mean_slots.to_bits()
        );
        assert_eq!(
            back.aoi.peak_age_tau.to_bits(),
            csp.aoi.peak_age_tau.to_bits()
        );
        assert_eq!(back.aoi.stations_observed, 19);
        assert_eq!(back.horizon, csp.horizon);

        let chaos = crate::chaos::ChaosOutcome {
            kind: "violation".into(),
            class: "conservation".into(),
            detail: "msg 17 neither delivered nor discarded".into(),
            violations: 1,
            divergences: 0,
            checks: 5_000,
            deliveries: 4_999,
            offered: 5_000,
            loss: 0.125,
        };
        let mut w = SnapWriter::new();
        chaos.encode(&mut w);
        let words = w.into_words();
        let mut r = SnapReader::new(&words);
        let back = crate::chaos::ChaosOutcome::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.kind, chaos.kind);
        assert_eq!(back.class, chaos.class);
        assert_eq!(back.detail, chaos.detail);
        assert_eq!(back.loss.to_bits(), chaos.loss.to_bits());
    }
}
