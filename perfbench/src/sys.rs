//! Host facts the benchmark records and controls: CPU affinity (thread
//! placement moves serve numbers by up to 1.75x, so it is held fixed),
//! process CPU time and memory high-water mark from `/proc`, and the
//! provenance that identifies what was measured.

use std::io;
use std::path::Path;
use std::process::Command;

/// Words in the affinity mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;
/// `_SC_CLK_TCK` in glibc's `<unistd.h>`.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// The CPUs the calling thread may run on, in ascending order.
///
/// # Errors
///
/// Propagates the `sched_getaffinity` error.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread to `cpus`. Threads it spawns afterwards
/// inherit the restriction, which is how the in-process daemon and its
/// client end up on one core.
///
/// # Errors
///
/// Fails on an empty or out-of-range CPU list, or when the kernel
/// refuses the mask.
pub fn pin_current_thread(cpus: &[usize]) -> io::Result<()> {
    if cpus.is_empty() || cpus.iter().any(|&c| c >= MASK_WORDS * 64) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad cpu list {cpus:?}"),
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the byte length
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// User and system CPU seconds this process has used so far.
pub fn cpu_times() -> (f64, f64) {
    // SAFETY: `sysconf` only reads the constant it is asked for.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    let ticks = if ticks > 0 { ticks as f64 } else { 100.0 };
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) / ticks, field(12) / ticks)
}

/// Resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git revision of the working directory, or `"none"` when it is not
/// the root of a git checkout (a parent directory's repository does not
/// count).
pub fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into())
}

/// `rustc -V`, or `"unknown"` when the compiler is not on `PATH`.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of every `.rs` and `.toml` file under `roots`, in path
/// order: identifies the measured source even where git is absent.
pub fn source_digest(roots: &[&Path]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        walk(root, &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        feed(file.to_string_lossy().as_bytes());
        feed(&std::fs::read(file).unwrap_or_default());
    }
    format!("{hash:016x}")
}
