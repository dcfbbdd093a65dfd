//! Child processes measured by the kernel: exit status, stdout, wall time,
//! and the CPU time and peak resident set `wait4(2)` reports for the child
//! and every descendant it waited for.

use std::io::{self, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What a finished child reported.
#[derive(Clone, Debug)]
pub struct Finished {
    /// Exited with status 0.
    pub success: bool,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Spawn-to-exit wall time, seconds.
    pub wall_s: f64,
    /// User + system CPU time of the child and its waited-for descendants.
    pub cpu_s: f64,
    /// Peak resident set of the child or its largest descendant, kB.
    pub max_rss_kb: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `cmd` to completion with stdout captured and stderr inherited.
///
/// # Errors
///
/// Returns any spawn, read or wait error; the child is killed and reaped
/// before an error is returned.
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    let started = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    if let Err(e) = read {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std's `Child` never
        // waited on it), and both out-pointers refer to live, writable
        // locals whose layouts match the kernel's `int` and 64-bit Linux
        // `struct rusage`.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Finished {
        success,
        stdout,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}
