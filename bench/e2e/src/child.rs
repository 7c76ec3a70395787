//! The system under test as a child process: the stock `mbd-server`
//! binary in its shipping posture, owned by a guard that cannot leak it.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The key every run shares: keyed MD5 digests are part of the shipping
/// posture, and a fixed key keeps frames a function of the seed alone.
pub const KEY: &[u8] = b"mbd-e2e-fixed-key";

/// Execution-tier width. The server's default (8) would put ~20 threads
/// on this 2-thread host and measure the scheduler; 2 sizes the tier to
/// the host. The `host` block reports what that does to the thread
/// count.
pub const WORKERS: usize = 2;

/// How long the server may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// Builds the stock server binary (a no-op when fresh) and returns its
/// path. The root package's binaries are not built by `cargo run` on
/// this package — dependencies only contribute their library — so the
/// benchmark asks for it explicitly, into the same target directory
/// cargo would use for the root.
pub fn build_server(repo_root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "mbd-server", "--manifest-path"])
        .arg(repo_root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mbd-server failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => repo_root.join("target"),
    };
    let bin = target.join("release").join("mbd-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not produced by the build", bin.display()))
    }
}

/// A running `mbd-server` and its state directory. Dropping the guard —
/// normally or while unwinding from a panic — kills the process, waits
/// for it, joins the log drain and removes the directory.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    state_dir: PathBuf,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server on an ephemeral loopback port, with a fresh
    /// state directory under `out_dir`, and waits for it to listen. The
    /// child inherits the caller's CPU affinity; its stdout and stderr
    /// are appended to `log`.
    pub fn spawn(bin: &Path, out_dir: &Path, log: &Path) -> Result<Server, String> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let state_dir = out_dir.join(format!(
            "state-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&state_dir).map_err(|e| format!("state dir: {e}"))?;
        let open_log = || {
            File::options()
                .create(true)
                .append(true)
                .open(log)
                .map_err(|e| format!("{}: {e}", log.display()))
        };
        let stderr = open_log()?;
        let mut log_out = open_log()?;
        let mut command = Command::new(bin);
        command
            .args(["--listen", "127.0.0.1:0", "--demo-mib", "--key"])
            .arg(String::from_utf8_lossy(KEY).as_ref())
            .arg("--state-dir")
            .arg(&state_dir)
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let mut child =
            command.spawn().map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The drain copies every line to the log for the child's whole
        // life (a full pipe would block the server's 1 Hz status loop)
        // and reports the address once.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = parse_listening(&line) {
                    let _ = tx.send(addr);
                }
                let _ = writeln!(log_out, "{line}");
            }
        });
        // From here the guard owns the child: an early return kills it.
        let mut server =
            Server { child, addr: ([127, 0, 0, 1], 0).into(), state_dir, drain: Some(drain) };
        server.addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| format!("server did not listen within {BOOT_TIMEOUT:?}"))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let _ = fs::remove_dir_all(&self.state_dir);
    }
}

/// The socket address out of the server's
/// `mbd-server listening on 127.0.0.1:PORT (auth: …)` line.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("listening on ")?.1;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_yields_the_ephemeral_port() {
        let line = "mbd-server listening on 127.0.0.1:40123 (auth: md5 keyed digest, 2 workers, \
                    backlog 64, max-conns 8192, dedup 128/principal)";
        assert_eq!(parse_listening(line), Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(parse_listening("demo MIB installed (432 objects)"), None);
        assert_eq!(parse_listening("listening on nowhere"), None);
    }
}
