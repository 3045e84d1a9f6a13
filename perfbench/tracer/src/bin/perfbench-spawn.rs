//! Runs one program and records its resource usage.
//!
//! ```text
//! perfbench-spawn USAGE_FILE PROGRAM [ARGS...]
//! ```
//!
//! The program inherits this process's standard streams and working
//! directory. Once it has exited, `USAGE_FILE` receives one line:
//! `<exit code> <user seconds> <system seconds> <max resident KiB>`, and
//! this process exits with the program's exit code.
//!
//! The benchmark starts each sweep binary through this small process
//! rather than directly: Linux carries the spawning process's resident
//! high-water mark into the child's `ru_maxrss`, and the benchmark's own
//! interpreter is larger than some of the binaries it measures.

use std::os::raw::{c_int, c_long};
use std::process::Command;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of the Linux C ABI: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [usage_file, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-spawn USAGE_FILE PROGRAM [ARGS...]");
        std::process::exit(1);
    };
    let child = match Command::new(program).args(rest).spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench-spawn: cannot start {program}: {e}");
            std::process::exit(127);
        }
    };
    let pid = c_int::try_from(child.id()).expect("process ids fit in pid_t");
    let mut status: c_int = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (`Child` never waited on
    // it), and both pointers reference live, writable values laid out as
    // the C ABI's `int` and `struct rusage`.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    if reaped != pid {
        eprintln!(
            "perfbench-spawn: wait4 failed: {}",
            std::io::Error::last_os_error()
        );
        std::process::exit(126);
    }
    // Exited normally: the code; killed by a signal: 128 + signal.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let line = format!(
        "{code} {:.6} {:.6} {}\n",
        secs(&ru.utime),
        secs(&ru.stime),
        ru.maxrss
    );
    if let Err(e) = std::fs::write(usage_file, line) {
        eprintln!("perfbench-spawn: cannot write {usage_file}: {e}");
        std::process::exit(126);
    }
    std::process::exit(code);
}
