//! Deterministic failure-replay artifacts.
//!
//! When a fault- or churn-injected run panics, trips an invariant, or a
//! divergence detector fires, the robustness harness serializes everything
//! needed to reproduce the failure into a small flat JSON file under
//! `results/failures/`: the run's [`Scenario`] as its canonical field
//! block (master seed, [`FaultPlan`], [`ChurnPlan`], workload and policy
//! parameters), then the observed failure. Because every random choice in
//! a run derives from the master seed, replaying the record re-executes
//! the identical timeline and must reproduce the identical failure.
//!
//! The format is deliberately flat (one JSON object, scalar values only)
//! so it can be written and parsed without a serialization dependency.
//! [`ArtifactWriter`] and [`ArtifactReader`] are the envelope every
//! record type shares; the fault- and churn-plan fields have one codec
//! shared by [`FailureRecord`] and [`crate::chaos::ChaosRecord`].
//! Each artifact is stamped with the workspace version that wrote it;
//! loading a stale or corrupted artifact returns an error (the replay
//! binaries exit with code 2) instead of silently replaying a different
//! timeline.

use crate::panels::Panel;
use crate::runner::{run, PolicyKind, Scenario, SimSettings};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tcw_mac::{ChurnPlan, FaultPlan};
use tcw_window::trace::NoopObserver;

/// The workspace version stamped into every artifact.
pub const ARTIFACT_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Everything needed to reproduce one failed run.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureRecord {
    /// Master seed of the failing run.
    pub seed: u64,
    /// The injected fault plan.
    pub plan: FaultPlan,
    /// The injected churn plan (membership dynamics).
    pub churn: ChurnPlan,
    /// Workload panel.
    pub panel: Panel,
    /// Protocol variant.
    pub policy: PolicyKind,
    /// Deadline in units of `tau`.
    pub k_tau: f64,
    /// Simulation-size knobs.
    pub settings: SimSettings,
    /// Failure class: `"panic"` or `"divergence"`.
    pub kind: String,
    /// The failure itself (panic payload or first divergence).
    pub detail: String,
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// One scalar of a flat-JSON field block.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A float (written round-trip exact, always distinguishable from
    /// integers).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A label (written escaped and quoted).
    Str(&'static str),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => fmt_f64(v),
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => format!("\"{}\"", escape(v)),
        }
    }

    /// The value as one fingerprint word: integers as themselves, floats
    /// by bit pattern, labels by a checksum of their bytes.
    pub(crate) fn word(self) -> u64 {
        match self {
            Value::U64(v) => v,
            Value::F64(v) => v.to_bits(),
            Value::Bool(v) => u64::from(v),
            Value::Str(v) => tcw_sim::snap::checksum(&v.bytes().map(u64::from).collect::<Vec<_>>()),
        }
    }
}

/// The fault- and churn-plan fields of every replay artifact, in the
/// order the committed artifacts carry them; [`read_plans`] reads them
/// back. The destructuring patterns make a new plan field a compile
/// error here until it is encoded.
pub(crate) fn plan_fields(plan: &FaultPlan, churn: &ChurnPlan) -> [(&'static str, Value); 16] {
    use Value::{F64, U64};
    let FaultPlan {
        success_to_collision,
        collision_to_success,
        collision_to_idle,
        idle_to_collision,
        erasure,
        deafness,
        deaf_slots,
    } = *plan;
    let ChurnPlan {
        crash,
        down_slots,
        late_join_frac,
        join_slot,
        leave_frac,
        leave_slot,
        catch_up_slots,
        outage_start_slot,
        outage_slots,
    } = *churn;
    [
        ("success_to_collision", F64(success_to_collision)),
        ("collision_to_success", F64(collision_to_success)),
        ("collision_to_idle", F64(collision_to_idle)),
        ("idle_to_collision", F64(idle_to_collision)),
        ("erasure", F64(erasure)),
        ("deafness", F64(deafness)),
        ("deaf_slots", U64(deaf_slots)),
        ("crash", F64(crash)),
        ("down_slots", U64(down_slots)),
        ("late_join_frac", F64(late_join_frac)),
        ("join_slot", U64(join_slot)),
        ("leave_frac", F64(leave_frac)),
        ("leave_slot", U64(leave_slot)),
        ("catch_up_slots", U64(catch_up_slots)),
        ("outage_start_slot", U64(outage_start_slot)),
        ("outage_slots", U64(outage_slots)),
    ]
}

/// Reads the plans [`plan_fields`] wrote, rejecting out-of-range values:
/// a corrupted plan would replay a different timeline.
pub(crate) fn read_plans(r: &ArtifactReader) -> Result<(FaultPlan, ChurnPlan), String> {
    let plan = FaultPlan {
        success_to_collision: r.f64("success_to_collision")?,
        collision_to_success: r.f64("collision_to_success")?,
        collision_to_idle: r.f64("collision_to_idle")?,
        idle_to_collision: r.f64("idle_to_collision")?,
        erasure: r.f64("erasure")?,
        deafness: r.f64("deafness")?,
        deaf_slots: r.u64("deaf_slots")?,
    };
    plan.check()
        .map_err(|e| format!("corrupted fault plan: {e}"))?;
    let churn = ChurnPlan {
        crash: r.f64("crash")?,
        down_slots: r.u64("down_slots")?,
        late_join_frac: r.f64("late_join_frac")?,
        join_slot: r.u64("join_slot")?,
        leave_frac: r.f64("leave_frac")?,
        leave_slot: r.u64("leave_slot")?,
        catch_up_slots: r.u64("catch_up_slots")?,
        outage_start_slot: r.u64("outage_start_slot")?,
        outage_slots: r.u64("outage_slots")?,
    };
    churn
        .check()
        .map_err(|e| format!("corrupted churn plan: {e}"))?;
    Ok((plan, churn))
}

/// Incremental writer for the flat-JSON artifact envelope shared by every
/// record/replay binary (`robustness`, `churn`, `adaptive`, `chaos`).
///
/// Opens the object and stamps [`ARTIFACT_VERSION`] (plus an optional
/// `experiment` tag distinguishing artifact families); [`ArtifactWriter::finish`]
/// closes it. Byte layout matches the historical hand-rolled writers, so
/// previously committed artifacts stay byte-identical on regeneration.
pub struct ArtifactWriter {
    out: String,
}

impl ArtifactWriter {
    /// Starts an envelope; `experiment` tags the artifact family
    /// (`None` for the original robustness/churn format).
    pub fn new(experiment: Option<&str>) -> Self {
        let mut w = ArtifactWriter {
            out: String::from("{\n"),
        };
        w.raw("version", &format!("\"{ARTIFACT_VERSION}\""));
        if let Some(tag) = experiment {
            w.str("experiment", tag);
        }
        w
    }

    /// Appends a field with an already-JSON-formatted value.
    pub fn raw(&mut self, key: &str, value: &str) {
        self.out.push_str(&format!("  \"{key}\": {value},\n"));
    }

    /// Appends a block of fields in order.
    pub(crate) fn fields(&mut self, fields: &[(&str, Value)]) {
        for &(key, value) in fields {
            self.raw(key, &value.json());
        }
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.raw(key, &Value::U64(value).json());
    }

    /// Appends a float field (round-trip exact, always distinguishable
    /// from integers).
    pub fn f64(&mut self, key: &str, value: f64) {
        self.raw(key, &Value::F64(value).json());
    }

    /// Appends an escaped, quoted string field.
    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, &format!("\"{}\"", escape(value)));
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        // Trailing comma is invalid JSON; replace with a closing brace.
        self.out.truncate(self.out.len() - 2);
        self.out.push_str("\n}\n");
        self.out
    }
}

/// Typed reader over a parsed artifact envelope.
///
/// [`ArtifactReader::parse`] enforces the version stamp (and the
/// `experiment` family tag when one is expected) *before* any field is
/// read — a stale or corrupted artifact would replay a different
/// timeline, so every loader rejects it up front (the binaries then exit
/// with [`crate::diag::EXIT_FAILURE`]).
pub struct ArtifactReader {
    fields: BTreeMap<String, String>,
}

impl ArtifactReader {
    /// Parses the envelope and verifies version + family tag.
    pub fn parse(text: &str, experiment: Option<&str>) -> Result<Self, String> {
        let fields = parse_flat(text)?;
        match fields.get("version").map(String::as_str) {
            None => {
                return Err(format!(
                    "artifact has no version stamp (predates {ARTIFACT_VERSION}); \
                     regenerate it with the current binaries"
                ))
            }
            Some(v) if v != ARTIFACT_VERSION => {
                return Err(format!(
                    "artifact was written by version {v}, this binary is \
                     {ARTIFACT_VERSION}; regenerate it with the current binaries"
                ))
            }
            Some(_) => {}
        }
        if let Some(tag) = experiment {
            match fields.get("experiment").map(String::as_str) {
                Some(t) if t == tag => {}
                other => return Err(format!("not a {tag} artifact: {other:?}")),
            }
        }
        Ok(ArtifactReader { fields })
    }

    /// A float field.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.fields
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?
            .parse::<f64>()
            .map_err(|e| format!("field {key:?}: {e}"))
    }

    /// An unsigned integer field (accepts the float spelling too, as the
    /// historical readers did).
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        // Parse the raw token directly when possible: the f64 path loses
        // precision above 2^53 (e.g. stream seeds).
        if let Some(raw) = self.fields.get(key) {
            if let Ok(v) = raw.parse::<u64>() {
                return Ok(v);
            }
        }
        Ok(self.f64(key)? as u64)
    }

    /// An unescaped string field.
    pub fn str(&self, key: &str) -> Result<String, String> {
        Ok(unescape(
            self.fields
                .get(key)
                .ok_or_else(|| format!("missing field {key:?}"))?,
        ))
    }

    /// A boolean field, defaulting when absent.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        self.fields.get(key).map(|v| v == "true").unwrap_or(default)
    }
}

/// Writes artifact text to `path`, creating parent directories.
pub fn save_artifact(path: &Path, text: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, text)
}

/// Reads artifact text from `path`.
pub fn load_artifact(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

impl FailureRecord {
    /// A record of `kind` and `detail` for the run `sc` describes.
    pub fn new(sc: &Scenario, kind: impl Into<String>, detail: impl Into<String>) -> Self {
        FailureRecord {
            seed: sc.seed,
            plan: sc.plan,
            churn: sc.churn,
            panel: sc.panel,
            policy: sc.policy,
            k_tau: sc.k_tau,
            settings: sc.settings,
            kind: kind.into(),
            detail: detail.into(),
        }
    }

    /// The run the record describes.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            panel: self.panel,
            policy: self.policy,
            k_tau: self.k_tau,
            settings: self.settings,
            seed: self.seed,
            plan: self.plan,
            churn: self.churn,
        }
    }

    /// Serializes the record as one flat JSON object: the scenario's
    /// canonical field block, then the observed failure.
    pub fn to_json(&self) -> String {
        let mut w = ArtifactWriter::new(None);
        self.scenario().write_fields(&mut w);
        w.str("kind", &self.kind);
        w.str("detail", &self.detail);
        w.finish()
    }

    /// Parses a record previously written by [`FailureRecord::to_json`].
    ///
    /// Rejects artifacts missing a version stamp, stamped by a different
    /// workspace version, or carrying out-of-range plan parameters — a
    /// stale or corrupted artifact would replay a *different* timeline and
    /// report a spurious divergence.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let r = ArtifactReader::parse(text, None)?;
        let sc = Scenario::read_fields(&r)?;
        Ok(FailureRecord::new(&sc, r.str("kind")?, r.str("detail")?))
    }

    /// Writes the record to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_artifact(path, &self.to_json())
    }

    /// Loads a record from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        Self::from_json(&load_artifact(path)?)
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes the run a record describes and returns the observed
/// `(kind, detail)` outcome — `("ok", summary)` when nothing failed.
/// Deterministic: the same record always returns the same pair.
///
/// A per-station divergence detector rides along whenever the record
/// injects receive deafness or a churn listener outage; a detected
/// divergence is itself a reportable failure.
pub fn execute(rec: &FailureRecord) -> (String, String) {
    let sc = &rec.scenario();
    let attempt = || -> (String, String) {
        if sc.plan.deafness > 0.0 || sc.churn.outage_slots > 0 {
            let mut det = sc.detector();
            let out = run(sc, &mut det, None);
            match det.first_divergence() {
                Some(first) => (
                    "divergence".to_string(),
                    format!(
                        "station 0 diverged {} time(s) ({} slots missed, {} resyncs, {} churn repair(s)); first: {first}",
                        det.divergences(), det.dropped_slots(), det.resyncs(), det.churn_repairs()
                    ),
                ),
                None => ("ok".to_string(), format!("loss={:.6}", out.point.loss)),
            }
        } else {
            let out = run(sc, &mut NoopObserver, None);
            ("ok".to_string(), format!("loss={:.6}", out.point.loss))
        }
    };
    match catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(outcome) => outcome,
        Err(payload) => ("panic".to_string(), panic_message(payload)),
    }
}

/// Runs a showcase scenario of the `tool` binary and returns its report
/// lines: the run's summary when nothing failed, otherwise the failure
/// with the path of the replay artifact written to `path(kind)` and the
/// command that replays it.
pub fn showcase(tool: &str, sc: &Scenario, path: impl FnOnce(&str) -> PathBuf) -> String {
    let mut rec = FailureRecord::new(sc, "", "");
    (rec.kind, rec.detail) = execute(&rec);
    if rec.kind == "ok" {
        return format!("  station 0 never diverged ({})", rec.detail);
    }
    let path = path(&rec.kind);
    rec.save(&path).expect("write replay artifact");
    let path = path.display();
    format!(
        "  [{}] {}\n  replay artifact: {path}\n  reproduce: cargo run --release -p tcw-experiments --bin {tool} -- --replay {path}",
        rec.kind, rec.detail
    )
}

/// Replays an artifact and returns the process exit code, following the
/// convention in [`crate::diag`]: [`crate::diag::EXIT_FAILURE`] when the
/// artifact cannot be loaded (missing, stale version, or corrupted) or
/// when the replay did not reproduce the recorded failure, `0` when it
/// did.
pub fn replay(path: &Path) -> i32 {
    let rec = match FailureRecord::load(path) {
        Ok(r) => r,
        Err(e) => {
            crate::diag::error("replay", &format!("cannot load artifact: {e}"));
            return crate::diag::EXIT_FAILURE;
        }
    };
    println!(
        "replaying {} (kind={:?}, seed={}, plan={:?}, churn={:?})",
        path.display(),
        rec.kind,
        rec.seed,
        rec.plan,
        rec.churn
    );
    let (kind, detail) = execute(&rec);
    println!("recorded: [{}] {}", rec.kind, rec.detail);
    println!("replayed: [{kind}] {detail}");
    if kind == rec.kind && detail == rec.detail {
        println!("replay reproduced the identical failure");
        0
    } else {
        crate::diag::error("replay", "REPLAY DIVERGED from the recorded failure");
        crate::diag::EXIT_FAILURE
    }
}

/// Formats an `f64` so it round-trips exactly and always contains a `.`
/// or exponent (so integers and floats stay distinguishable to readers).
pub(crate) fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Parses one flat JSON object into raw (still-escaped) value strings.
pub(crate) fn parse_flat(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.trim_end().strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        // Skip whitespace and separators up to the next key.
        while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != b'"' {
            return Err(format!("expected key at byte {i}"));
        }
        i += 1;
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'"' {
            i += 1;
        }
        let key = body[key_start..i].to_string();
        i += 1; // closing quote
        while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b':') {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'"' {
            // String value: scan to the first unescaped quote.
            i += 1;
            let val_start = i;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    break;
                }
                i += 1;
            }
            out.insert(key, body[val_start..i.min(bytes.len())].to_string());
            i += 1;
        } else {
            // Bare scalar: up to the next comma or end.
            let val_start = i;
            while i < bytes.len() && bytes[i] != b',' {
                i += 1;
            }
            out.insert(key, body[val_start..i].trim().to_string());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> FailureRecord {
        FailureRecord {
            seed: 42,
            plan: FaultPlan {
                success_to_collision: 0.05,
                collision_to_success: 0.05,
                collision_to_idle: 0.05,
                idle_to_collision: 0.05,
                erasure: 0.05,
                deafness: 0.01,
                deaf_slots: 3,
            },
            churn: ChurnPlan {
                crash: 0.001,
                down_slots: 40,
                catch_up_slots: 100,
                ..ChurnPlan::none()
            },
            panel: Panel {
                rho_prime: 0.5,
                m: 25,
            },
            policy: PolicyKind::Controlled,
            k_tau: 100.0,
            settings: SimSettings::default(),
            kind: "panic".to_string(),
            detail: "assertion \"failed\"\nwith a newline and a \\ backslash".to_string(),
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = record();
        let parsed = FailureRecord::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_missing_version() {
        let json = record().to_json().replace("\"version\"", "\"vversion\"");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(err.contains("no version stamp"), "{err}");
    }

    #[test]
    fn parse_rejects_stale_version() {
        let stamp = format!("\"version\": \"{ARTIFACT_VERSION}\"");
        let json = record()
            .to_json()
            .replace(&stamp, "\"version\": \"0.0.0-stale\"");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(
            err.contains("0.0.0-stale") && err.contains(ARTIFACT_VERSION),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_corrupted_plans() {
        let json = record()
            .to_json()
            .replace("\"erasure\": 0.05", "\"erasure\": 7.0");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(err.contains("corrupted fault plan"), "{err}");
        let json = record()
            .to_json()
            .replace("\"crash\": 0.001", "\"crash\": -1.0");
        let err = FailureRecord::from_json(&json).unwrap_err();
        assert!(err.contains("corrupted churn plan"), "{err}");
    }

    #[test]
    fn roundtrip_survives_save_and_load() {
        let dir = std::env::temp_dir().join("tcw_replay_test");
        let path = dir.join("failure.json");
        let r = record();
        r.save(&path).expect("save");
        let loaded = FailureRecord::load(&path).expect("load");
        assert_eq!(loaded, r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FailureRecord::from_json("not json").is_err());
        assert!(FailureRecord::from_json("{}").is_err());
    }

    #[test]
    fn float_formatting_distinguishes_kinds() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(100.0), "100.0");
    }
}
