//! `uqsim-probe exec`: runs one command and reports its wall time and peak
//! resident set. The peak comes from `wait4`, and the command is spawned
//! from this small process rather than from the benchmark's Python driver
//! because Linux floors a child's `ru_maxrss` at the resident set of the
//! process it was spawned from.

use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What `wait4` reported for one finished command.
pub struct Finished {
    pub wall_s: f64,
    pub maxrss_kb: i64,
    /// Exit code, or 128 + signal number if a signal ended it.
    pub code: i32,
}

/// Spawns `argv`, with this process's stdin, stdout and stderr, and reaps it.
pub fn run(argv: &[String]) -> Result<Finished, String> {
    let (prog, args) = argv.split_first().ok_or("exec needs a command")?;
    let start = Instant::now();
    let child = Command::new(prog)
        .args(args)
        .spawn()
        .map_err(|e| format!("{prog}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (`Child` never waits on it),
    // and both pointers refer to live, writable locals whose layouts match
    // glibc's `int` and `struct rusage` on 64-bit Linux.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if rc != pid {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Finished {
        wall_s,
        maxrss_kb: usage.maxrss,
        code,
    })
}
