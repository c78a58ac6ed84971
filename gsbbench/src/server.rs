//! The `gsb serve` child process and the `/proc` readings taken from
//! it: peak resident memory and worker-thread CPU time.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gsb_serve::Client;

/// Server worker threads, and rayon (CDCL portfolio) threads in every
/// process the benchmark runs.
pub const THREADS: usize = 2;

/// A running `gsb serve` child. Dropping it kills and reaps the process
/// if [`ServeProcess::stop`] was not called.
#[derive(Debug)]
pub struct ServeProcess {
    child: Child,
    // Held open so the server's closing `println!` finds a reader.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServeProcess {
    /// Starts `gsb serve` on an ephemeral loopback port over the store
    /// at `store` and waits until it answers a ping. Returns the process
    /// and the seconds from spawn to the first pong.
    ///
    /// # Errors
    ///
    /// A description of the spawn, address or ping failure.
    pub fn start(gsb: &Path, store: &Path, log: &Path) -> Result<(ServeProcess, f64), String> {
        let started = Instant::now();
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut child = Command::new(gsb)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &THREADS.to_string(),
                "--store",
            ])
            .arg(store)
            .env("RAYON_NUM_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gsb.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .strip_prefix("gsb serve listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            Err(_) => None,
        };
        let mut server = ServeProcess {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        server.addr = addr.ok_or_else(|| format!("gsb serve printed {line:?}, not its address"))?;
        let mut client = Client::connect_retry(&server.addr, Duration::from_secs(10))
            .map_err(|e| format!("connect to gsb serve: {e}"))?;
        client.ping().map_err(|e| format!("ping gsb serve: {e}"))?;
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// The server's `host:port`.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The OS process id.
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size of the server so far, in MB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` has no `VmHWM` line.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Total on-CPU seconds of the server's worker threads.
    #[must_use]
    pub fn worker_cpu_s(&self) -> f64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return 0.0;
        };
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.starts_with("gsb-serve-worke"))
            })
            .map(|task| schedstat_s(&task.path().join("schedstat")))
            .sum()
    }

    /// Asks the server to shut down and waits for it to exit.
    ///
    /// # Errors
    ///
    /// When the shutdown request fails or the process does not exit
    /// cleanly within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .and_then(|mut client| client.shutdown())
            .map_err(|e| format!("shutdown request: {e}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("gsb serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("gsb serve did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/*/status` file, in MB.
///
/// # Errors
///
/// When the file cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM"))
}

/// On-CPU seconds from a `schedstat` file (its first field, in ns).
#[must_use]
pub fn schedstat_s(path: &Path) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<f64>().ok())
        })
        .map_or(0.0, |ns| ns * 1e-9)
}

/// On-CPU seconds of the calling thread.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    schedstat_s(Path::new("/proc/thread-self/schedstat"))
}
