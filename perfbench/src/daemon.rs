//! The daemon under test as a child process: spawn on an ephemeral loopback
//! port, read its CPU time and peak memory from `/proc`, stop it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use uss_server::SketchClient;

/// Per-call socket deadline: a stuck daemon fails the call instead of the
/// whole run hanging past its time limit.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// One running `uss_serverd`.
pub struct Daemon {
    child: Arc<Slot>,
    pid: u32,
    pub addr: SocketAddr,
    /// Held open: the daemon would fail writing to a closed stdout.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Starts the daemon on `127.0.0.1:0` with `data_dir` as its checkpoint
    /// root and returns once it has printed its bound address.
    pub fn spawn(binary: &Path, data_dir: &Path, registry: &Arc<Children>) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--log-level", "warn", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|err| format!("spawning {}: {err}", binary.display()))?;
        let pid = child.id();
        let mut stdout = child.stdout.take().map(BufReader::new);
        let slot = registry.adopt(child);
        let mut line = String::new();
        if let Some(stdout) = &mut stdout {
            // The daemon prints nothing else on stdout, so the pipe never
            // fills once this first line is read.
            let _ = stdout.read_line(&mut line);
        }
        let addr = line
            .trim()
            .strip_prefix("uss_serverd listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            slot.kill();
            return Err(format!("daemon did not report its address (got {line:?})"));
        };
        Ok(Self {
            child: slot,
            pid,
            addr,
            _stdout: stdout,
        })
    }

    pub fn connect(&self) -> Result<SketchClient, String> {
        SketchClient::connect_timeout(self.addr, CALL_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// `VmHWM`, the daemon's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Waits for the daemon to exit on its own (after a `Shutdown` request).
    pub fn wait_exit(self) -> Result<(), String> {
        self.child.wait()
    }

    /// Stops the daemon without a checkpoint.
    pub fn kill(self) {
        self.child.kill();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill();
    }
}

/// CPU time of a process's live threads, in nanoseconds, keyed by thread.
/// `/proc/<pid>/task/<tid>/schedstat` counts in nanoseconds, where
/// `/proc/<pid>/stat` counts in 10 ms ticks.
pub fn cpu(pid: u32) -> CpuSample {
    let mut threads = HashMap::new();
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let ns = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            if let Some(ns) = ns {
                threads.insert(task.file_name().to_string_lossy().into_owned(), ns);
            }
        }
    }
    CpuSample(threads)
}

/// Per-thread CPU nanoseconds at one instant.
#[derive(Clone, Default)]
pub struct CpuSample(pub(crate) HashMap<String, u64>);

impl CpuSample {
    /// CPU nanoseconds spent between `self` and the later sample `after`.
    /// Threads born in between count from zero. Every phase opens its
    /// connections (the only threads a daemon starts or ends) before its
    /// first sample, so none is lost.
    pub fn until(&self, after: &CpuSample) -> f64 {
        after
            .0
            .iter()
            .map(|(tid, &ns)| ns.saturating_sub(self.0.get(tid).copied().unwrap_or(0)) as f64)
            .sum()
    }
}

/// Every child process the run started, so the watchdog can stop them all.
#[derive(Default)]
pub struct Children(Mutex<Vec<Arc<Slot>>>);

impl Children {
    fn adopt(&self, child: Child) -> Arc<Slot> {
        let slot = Arc::new(Slot(Mutex::new(Some(child))));
        let mut list = self.0.lock();
        list.retain(|s| s.0.lock().is_some());
        list.push(Arc::clone(&slot));
        slot
    }

    /// Kills and reaps every child still running.
    pub fn kill_all(&self) {
        for slot in self.0.lock().iter() {
            slot.kill();
        }
    }
}

/// One child process, shared by its owner and the watchdog.
struct Slot(Mutex<Option<Child>>);

impl Slot {
    fn kill(&self) {
        if let Some(mut child) = self.0.lock().take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Polls for exit, holding the lock only briefly so the watchdog can
    /// still kill a daemon that never exits.
    fn wait(&self) -> Result<(), String> {
        loop {
            let mut guard = self.0.lock();
            let Some(child) = guard.as_mut() else {
                return Err("daemon was stopped".into());
            };
            match child.try_wait() {
                Ok(Some(status)) => {
                    guard.take();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) => {}
                Err(err) => return Err(format!("waiting for the daemon: {err}")),
            }
            drop(guard);
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The machine's `(total, steal)` CPU time from `/proc/stat`, in ticks.
pub fn machine_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// A fresh, empty directory under the run's work directory.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
