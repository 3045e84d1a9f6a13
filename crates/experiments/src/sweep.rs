//! Parallel sweep execution and the sweep binaries' command line.
//!
//! Every experiment binary sweeps a grid of cells — fully specified,
//! mutually independent simulation points, each a
//! [`crate::runner::Scenario`] or a binary's own cell type. Cells share no
//! state: each engine derives every random draw from its own master seed,
//! so the grid is embarrassingly parallel and the paper's Section-5 panels
//! can use all available cores.
//!
//! [`run_parallel`] executes a slice of cells on a small work-stealing
//! pool built on `std::thread::scope` (the workspace stays
//! dependency-free): workers pull the next unclaimed index from a shared
//! atomic counter and send `(index, result)` back over a channel, and
//! results are reassembled **in cell order** before returning.
//! Determinism therefore does not depend on scheduling:
//!
//! * with `jobs == 1` the cells run inline on the calling thread, in
//!   order — byte-identical to the historical serial loops;
//! * with `jobs > 1` each cell still computes exactly the same value
//!   (its seed is part of the cell), and reassembly restores cell order,
//!   so CSV/TXT outputs are byte-identical to the serial run. The
//!   `sweep_determinism` integration test pins this property.
//!
//! [`run_cells`] runs a slice of scenarios on it with nothing attached.
//! The sweep binaries themselves run their grids through
//! [`crate::supervise::supervised_cells`] (scenario grids through
//! [`crate::supervise::run_scenarios`]), which schedules cells the same
//! way under supervision. [`Cli`] parses their command line: the shared
//! flags (`--jobs N`, default: available parallelism; the supervision and
//! telemetry flags) plus the [`Flag`]s each binary declares. Any other
//! argument is a usage error.

use crate::replay::panic_message;
use crate::runner::{run, Outcome, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use tcw_window::trace::NoopObserver;

/// Runs every scenario with nothing attached and reassembles the
/// outcomes in cell order.
///
/// A panicking cell aborts the sweep with a message naming both the
/// cell index and its master seed, so the failure can be replayed
/// without guessing which grid point died.
pub fn run_cells(cells: &[Scenario], jobs: usize) -> Vec<Outcome> {
    run_parallel(cells, jobs, |_, c| {
        catch_unwind(AssertUnwindSafe(|| run(c, &mut NoopObserver, None)))
            .unwrap_or_else(|e| panic!("cell with seed {} panicked: {}", c.seed, panic_message(e)))
    })
}

/// Executes `f` over `items` on `jobs` worker threads (work-stealing via
/// a shared index counter) and returns the results **in item order**.
///
/// `f` receives `(index, &item)`. With `jobs <= 1` the items run inline
/// on the calling thread in order, with no thread machinery at all.
///
/// A panic inside `f` is contained by the executor in both modes: the
/// worker that hit it keeps draining the remaining cells, and once the
/// sweep ends the caller's thread panics with the **lowest failing cell
/// index** and the original panic message. A panicking cell can
/// therefore never wedge or silently kill the pool.
pub fn run_parallel<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let reraise = |i: usize, r: std::thread::Result<T>| {
        r.unwrap_or_else(|e| panic!("sweep cell {i} panicked: {}", panic_message(e)))
    };
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| reraise(i, catch_unwind(AssertUnwindSafe(|| f(i, it)))))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // Contain a cell panic inside the worker: the pool keeps
                // draining the grid and the failure is re-raised with its
                // cell index after reassembly.
                let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
    });
    let mut out: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, o)| {
            reraise(
                i,
                o.expect("every cell index was claimed by exactly one worker"),
            )
        })
        .collect()
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One argument a sweep binary accepts besides the shared flags: a
/// `--flag` or a bare word, with the operands that follow it.
#[derive(Debug)]
pub struct Flag {
    name: String,
    min: usize,
    max: usize,
    alone: bool,
}

impl Flag {
    /// A flag without operands.
    pub fn switch(name: impl Into<String>) -> Flag {
        Flag::operands(name, 0, 0)
    }

    /// A flag with exactly one operand (`--flag V` or `--flag=V`).
    pub fn value(name: impl Into<String>) -> Flag {
        Flag::operands(name, 1, 1)
    }

    /// A flag with `min` required operands and up to `max - min`
    /// optional ones; an optional operand is never a `--flag`.
    pub fn operands(name: impl Into<String>, min: usize, max: usize) -> Flag {
        Flag {
            name: name.into(),
            min,
            max,
            alone: false,
        }
    }

    /// Marks the flag as a mode of its own that takes no other argument
    /// (`--replay PATH`).
    pub fn alone(self) -> Flag {
        Flag {
            alone: true,
            ..self
        }
    }
}

/// Shared flags and their operand counts.
const SHARED: [(&str, usize); 8] = [
    ("--jobs", 1),
    ("--resume", 1),
    ("--cell-timeout", 1),
    ("--retries", 1),
    ("--trace-events", 1),
    ("--spans", 1),
    ("--metrics", 1),
    ("--progress", 0),
];

/// A sweep binary's parsed command line: the shared worker, supervision
/// and telemetry flags, plus the binary's own [`Flag`]s in the order
/// given.
#[derive(Debug)]
pub struct Cli {
    /// Tool name: prefixes every diagnostic and tags the resume journal.
    pub tool: &'static str,
    /// `--jobs N` (default: [`default_jobs`]).
    pub jobs: usize,
    /// `--resume PATH`, `--cell-timeout SECS`, `--retries N`.
    pub sup: crate::SupervisorOptions,
    /// `--trace-events PATH`, `--spans PATH`, `--metrics PATH`,
    /// `--progress`.
    pub obs: crate::ObsConfig,
    own: Vec<(String, Vec<String>)>,
}

impl Cli {
    /// Parses `args` against the shared flags and `own`. The error is the
    /// usage message: an unknown argument, a missing operand, or a
    /// malformed shared value.
    pub fn parse(tool: &'static str, own: &[Flag], args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            tool,
            jobs: 0, // unset; a parsed `--jobs` is positive
            sup: crate::SupervisorOptions::default(),
            obs: crate::ObsConfig::default(),
            own: Vec::new(),
        };
        // First token of every parsed argument, and which one is a mode.
        let mut starts: Vec<&String> = Vec::new();
        let mut mode: Option<usize> = None;
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let (name, inline) = match a.split_once('=') {
                Some((n, v)) if n.starts_with("--") => (n, Some(v.to_string())),
                _ => (a.as_str(), None),
            };
            let unknown = || format!("unknown argument {a:?}");
            let (min, max, flag) = match SHARED.iter().find(|(n, _)| *n == name) {
                Some(&(_, n)) => (n, n, None),
                None => {
                    let f = own.iter().find(|f| f.name == name).ok_or_else(unknown)?;
                    (f.min, f.max, Some(f))
                }
            };
            if inline.is_some() && max == 0 {
                return Err(unknown());
            }
            let mut ops: Vec<String> = inline.into_iter().collect();
            while ops.len() < max {
                match it.peek() {
                    Some(v) if ops.len() < min || !v.starts_with("--") => {
                        ops.push(it.next().expect("peeked").clone());
                    }
                    _ if ops.len() < min && min == 1 => {
                        return Err(format!("{name} needs a value"))
                    }
                    _ if ops.len() < min => return Err(format!("{name} needs {min} values")),
                    _ => break,
                }
            }
            match flag {
                Some(f) => {
                    if f.alone {
                        mode = Some(starts.len());
                    }
                    cli.own.push((f.name.clone(), ops));
                }
                None => cli.set_shared(name, ops.first().map(String::as_str))?,
            }
            starts.push(a);
        }
        if let Some(mode) = mode {
            if let Some(other) = (0..starts.len()).find(|&i| i != mode) {
                return Err(format!("unknown argument {:?}", starts[other]));
            }
        }
        if cli.jobs == 0 {
            // Only now: the host query reads cgroup files on Linux.
            cli.jobs = default_jobs();
        }
        Ok(cli)
    }

    fn set_shared(&mut self, name: &str, v: Option<&str>) -> Result<(), String> {
        let v = v.unwrap_or_default();
        let path = || Some(std::path::PathBuf::from(v));
        match name {
            "--jobs" => {
                self.jobs = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--jobs expects a positive integer, got {v:?}")),
                }
            }
            "--resume" => self.sup.resume = path(),
            "--cell-timeout" => {
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--cell-timeout expects seconds, got {v:?}"))?;
                if secs.is_nan() || secs <= 0.0 {
                    return Err(format!("--cell-timeout must be positive, got {v:?}"));
                }
                let limit = std::time::Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("--cell-timeout is out of range, got {v:?}"))?;
                self.sup.cell_timeout = Some(limit);
            }
            "--retries" => {
                self.sup.retries = v
                    .parse()
                    .map_err(|_| format!("--retries expects a non-negative integer, got {v:?}"))?
            }
            "--trace-events" => self.obs.trace_events = path(),
            "--spans" => self.obs.spans = path(),
            "--metrics" => self.obs.metrics = path(),
            _ => self.obs.progress = true,
        }
        Ok(())
    }

    /// Parses the process arguments; a usage error is reported as
    /// `tool: message` and exits with [`crate::diag::EXIT_USAGE`].
    pub fn from_env(tool: &'static str, own: &[Flag]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(tool, own, &args).unwrap_or_else(|e| crate::diag::usage(tool, &e))
    }

    /// Whether the binary's own flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.operands(name).is_some()
    }

    /// The operands of the binary's own flag `name`, when given.
    pub fn operands(&self, name: &str) -> Option<&[String]> {
        self.own
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ops)| ops.as_slice())
    }

    /// The first operand of `name` parsed as `V`; a value that does not
    /// parse is a usage error (exit [`crate::diag::EXIT_USAGE`]).
    pub fn value<V: std::str::FromStr>(&self, name: &str) -> Option<V> {
        let v = self.operands(name)?.first()?;
        Some(
            v.parse().unwrap_or_else(|_| {
                crate::diag::usage(self.tool, &format!("bad {name} value {v:?}"))
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::PANELS;
    use crate::runner::{PolicyKind, SimSettings};
    use crate::Panel;

    #[test]
    fn parallel_matches_serial_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_parallel(&items, 1, |i, x| (i as u64) * 1_000 + x * x);
        let parallel = run_parallel(&items, 4, |i, x| (i as u64) * 1_000 + x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u64, 2, 3];
        assert_eq!(run_parallel(&items, 64, |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u64; 0] = [];
        assert!(run_parallel(&items, 8, |_, x| *x).is_empty());
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jobs_flag_parsing() {
        let quick = [Flag::switch("--quick")];
        let jobs = |v: &[&str]| Cli::parse("t", &quick, &args(v)).map(|c| c.jobs);
        assert_eq!(jobs(&["--quick", "--jobs", "3"]), Ok(3));
        assert_eq!(jobs(&["--jobs=7"]), Ok(7));
        assert_eq!(jobs(&["--quick"]), Ok(default_jobs()));
        for bad in [
            &["--jobs", "x"][..],
            &["--jobs"],
            &["--jobs=0"],
            &["--jobs=-2"],
            &["--jobs", "--quick"],
        ] {
            let err = jobs(bad).unwrap_err();
            assert!(err.starts_with("--jobs"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn only_jobs_rejects_every_other_argument() {
        let parse = |v: &[&str]| Cli::parse("t", &[], &args(v)).map(|c| c.jobs);
        assert_eq!(parse(&["--jobs", "3"]), Ok(3));
        assert_eq!(parse(&["--jobs=7"]), Ok(7));
        assert_eq!(parse(&[]), Ok(default_jobs()));
        for (bad, arg) in [
            (&["--jbos", "2", "--resmue", "x"][..], "--jbos"),
            (&["--jobs", "2", "--quick"], "--quick"),
            (&["extra"], "extra"),
            (&["--jobs=2", "-j"], "-j"),
            (&["--progress=1"], "--progress=1"),
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err, format!("unknown argument {arg:?}"), "{bad:?}");
        }
    }

    #[test]
    fn own_flags_take_their_operands_and_modes_stand_alone() {
        let own = [
            Flag::value("--configs"),
            Flag::operands("--inject", 1, 2).alone(),
            Flag::value("--replay").alone(),
            Flag::switch("rho50_m25"),
        ];
        let cli = Cli::parse(
            "t",
            &own,
            &args(&["--configs=24", "rho50_m25", "--progress"]),
        )
        .unwrap();
        assert_eq!(cli.operands("--configs"), Some(&args(&["24"])[..]));
        assert!(cli.has("rho50_m25") && cli.obs.progress && !cli.has("--replay"));
        let cli = Cli::parse("t", &own, &args(&["--inject", "stale_clock", "p.json"])).unwrap();
        assert_eq!(
            cli.operands("--inject"),
            Some(&args(&["stale_clock", "p.json"])[..])
        );
        let cli = Cli::parse("t", &own, &args(&["--inject", "stale_clock"])).unwrap();
        assert_eq!(cli.operands("--inject").map(<[String]>::len), Some(1));
        for (bad, err) in [
            (&["--replay"][..], "--replay needs a value"),
            (
                &["--replay", "a.json", "--jobs", "2"],
                "unknown argument \"--jobs\"",
            ),
            (
                &["--progress", "--replay", "a.json"],
                "unknown argument \"--progress\"",
            ),
            (
                &["--inject", "x", "--configs", "2"],
                "unknown argument \"--configs\"",
            ),
            (&["--quick"], "unknown argument \"--quick\""),
        ] {
            assert_eq!(
                Cli::parse("t", &own, &args(bad)).unwrap_err(),
                err,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn panicking_cell_surfaces_its_index_in_both_modes() {
        for jobs in [1usize, 4] {
            let items: Vec<u64> = (0..16).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_parallel(&items, jobs, |i, x| {
                    if i == 7 {
                        panic!("boom at {x}");
                    }
                    *x
                })
            }))
            .expect_err("cell 7 must abort the sweep");
            let msg = panic_message(err);
            assert!(msg.contains("sweep cell 7"), "jobs={jobs}: {msg}");
            assert!(msg.contains("boom at 7"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn panicking_cell_does_not_kill_the_worker_pool() {
        // With one worker and an early panicking cell, the same worker
        // must still drain every later cell before the failure surfaces.
        let items: Vec<u64> = (0..8).collect();
        let seen = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_parallel(&items, 2, |i, x| {
                seen.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("first cell dies");
                }
                *x
            })
        }))
        .expect_err("sweep re-raises the contained panic");
        assert!(panic_message(err).contains("sweep cell 0"));
        assert_eq!(seen.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn panicking_run_cells_names_the_seed() {
        let settings = SimSettings {
            messages: 10,
            warmup: 0,
            ticks_per_tau: 8,
            ..Default::default()
        };
        // A negative rho' yields a non-positive Poisson rate, which the
        // arrival source asserts on — a deterministic in-cell panic.
        let bad = Panel {
            rho_prime: -1.0,
            m: 25,
        };
        let cells = vec![Scenario::clean(
            bad,
            PolicyKind::Controlled,
            100.0,
            settings,
            4242,
        )];
        let err = catch_unwind(AssertUnwindSafe(|| run_cells(&cells, 1)))
            .expect_err("invalid panel must panic");
        let msg = panic_message(err);
        assert!(msg.contains("seed 4242"), "{msg}");
    }

    #[test]
    fn cell_results_are_independent_of_jobs() {
        let settings = SimSettings {
            messages: 300,
            warmup: 50,
            ticks_per_tau: 8,
            ..Default::default()
        };
        let cells: Vec<Scenario> = (0..4)
            .map(|i| Scenario::clean(PANELS[0], PolicyKind::Controlled, 100.0, settings, 100 + i))
            .collect();
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.point.loss.to_bits(), p.point.loss.to_bits());
            assert_eq!(s.point.offered, p.point.offered);
            assert_eq!(s.point.utilization.to_bits(), p.point.utilization.to_bits());
        }
    }
}
