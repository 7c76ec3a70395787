//! The outside view of a process: on-CPU time, context switches,
//! threads and memory read from `/proc`, plus the `host` block.
//!
//! Parsers take the file text so they can be tested on canned input;
//! the readers below them sum over `/proc/<pid>/task/*`, because the
//! per-process files only describe the main thread.

use std::fs;
use std::path::Path;

/// On-CPU nanoseconds from a `schedstat` file
/// (`<on-cpu ns> <run-queue wait ns> <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` in clock ticks from a `stat` file. The command name
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the comm: state is field 3, so utime (14) and stime (15)
    // are the 12th and 13th tokens.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A numeric field of a `status` file, e.g. `voluntary_ctxt_switches`,
/// `Threads` or `VmHWM` (whose trailing ` kB` is ignored).
pub fn parse_status_field(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name == field).then(|| value.split_whitespace().next()?.parse().ok())?
    })
}

/// Steal ticks of the aggregate `cpu` line of a `/proc/stat` text: time
/// the hypervisor ran something else while a vCPU had work to do.
pub fn parse_steal_ticks(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Steal ticks of the whole host so far (0 where the kernel reports none).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat").ok().and_then(|t| parse_steal_ticks(&t)).unwrap_or(0)
}

/// Linux's `USER_HZ`: `stat` ticks are hundredths of a second on every
/// platform the kernel supports.
const NS_PER_TICK: u64 = 10_000_000;

/// The same tick in milliseconds, for `/proc/stat`'s steal column.
pub const MS_PER_TICK: f64 = NS_PER_TICK as f64 / 1e6;

fn tasks(pid: u32) -> Vec<std::path::PathBuf> {
    fs::read_dir(format!("/proc/{pid}/task"))
        .map(|dir| dir.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// On-CPU nanoseconds of the task whose `/proc` directory is `task`.
/// `schedstat` is nanosecond-exact; kernels built without it fall back
/// to the 10 ms ticks of `stat`.
fn task_cpu_ns(task: &Path) -> Option<u64> {
    fs::read_to_string(task.join("schedstat")).ok().and_then(|t| parse_schedstat(&t)).or_else(
        || {
            let t = fs::read_to_string(task.join("stat")).ok()?;
            parse_stat_ticks(&t).map(|ticks| ticks * NS_PER_TICK)
        },
    )
}

/// Total on-CPU time of every task of `pid`, nanoseconds. Zero when the
/// process is gone.
pub fn cpu_ns(pid: u32) -> u64 {
    tasks(pid).iter().filter_map(|task| task_cpu_ns(task)).sum()
}

/// On-CPU time of this process's main thread alone (the load generator;
/// its helper threads are not the client's cost).
pub fn main_thread_cpu_ns() -> u64 {
    let pid = std::process::id();
    task_cpu_ns(Path::new(&format!("/proc/{pid}/task/{pid}"))).unwrap_or(0)
}

/// Voluntary context switches summed over every task of `pid`: each is
/// a thread that blocked waiting for another, i.e. the outside view of
/// "thread handoffs per request".
pub fn voluntary_switches(pid: u32) -> u64 {
    tasks(pid)
        .iter()
        .filter_map(|task| {
            let t = fs::read_to_string(task.join("status")).ok()?;
            parse_status_field(&t, "voluntary_ctxt_switches")
        })
        .sum()
}

/// `(threads, peak resident set in kB)` of `pid`.
pub fn threads_and_peak_rss(pid: u32) -> (u64, u64) {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    (
        parse_status_field(&text, "Threads").unwrap_or(0),
        parse_status_field(&text, "VmHWM").unwrap_or(0),
    )
}

/// Filesystem type of the mount holding `path`, from the longest
/// matching mount point in `mounts` (the text of `/proc/mounts`).
pub fn fs_type_of(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers were measured on. A result without this block
/// cannot be compared with another.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    /// `unknown` outside a git checkout (the driver's copy is one).
    pub commit: String,
    pub state_dir_fs: String,
}

impl Host {
    pub fn probe(repo_root: &Path, state_parent: &Path) -> Host {
        let unknown = || "unknown".to_string();
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim()))
            .map_or_else(unknown, str::to_string);
        let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
        let state_abs = fs::canonicalize(state_parent).unwrap_or_else(|_| state_parent.into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            commit: command_line(
                "git",
                &["-C", &repo_root.to_string_lossy(), "rev-parse", "--short", "HEAD"],
            )
            .unwrap_or_else(unknown),
            state_dir_fs: fs_type_of(&mounts, &state_abs).unwrap_or_else(unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_on_cpu_ns() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn stat_ticks_survive_a_hostile_comm() {
        // utime = 250, stime = 50 (fields 14 and 15).
        let plain = "4242 (mbd-server) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 9 0 \
                     100 200 300";
        assert_eq!(parse_stat_ticks(plain), Some(300));
        let hostile = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 900 0 0 0 7 5 0 0 20 0 9 0";
        assert_eq!(parse_stat_ticks(hostile), Some(12));
        assert_eq!(parse_stat_ticks("4242 (short) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens"), None);
    }

    #[test]
    fn status_fields_by_exact_name() {
        let status = "Name:\tmbd-server\nVmHWM:\t   12345 kB\nThreads:\t9\n\
                      voluntary_ctxt_switches:\t777\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "voluntary_ctxt_switches"), Some(777));
        assert_eq!(parse_status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(parse_status_field(status, "VmHWM"), Some(12_345));
        assert_eq!(parse_status_field(status, "Threads"), Some(9));
        assert_eq!(parse_status_field(status, "VmPeak"), None);
    }

    #[test]
    fn longest_mount_point_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      overlay /work overlay rw 0 0\n";
        assert_eq!(fs_type_of(mounts, Path::new("/dev/shm/x")), Some("tmpfs".into()));
        assert_eq!(fs_type_of(mounts, Path::new("/work/bench/out")), Some("overlay".into()));
        assert_eq!(fs_type_of(mounts, Path::new("/home/u")), Some("ext4".into()));
    }
}
