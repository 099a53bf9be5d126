//! Multi-process launch helpers: re-exec workers, kill-on-drop guards.
//!
//! Tests and examples need real OS processes without depending on an
//! external launcher (`mpirun`). The pattern here is *self re-exec*: the
//! driver process spawns `current_exe()` again with `MXN_WIRE_RANK` (and
//! friends) set; early in `main`/the test body, [`wire_role`] detects the
//! variables and the process becomes a worker instead of a driver. This is
//! the same trick process-spawning test harnesses use, and it keeps the
//! whole multi-process topology inside one binary.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variable carrying a worker's rank (presence ⇒ worker).
pub(crate) const ENV_RANK: &str = "MXN_WIRE_RANK";
/// Environment variable carrying the mesh size.
pub(crate) const ENV_SIZE: &str = "MXN_WIRE_SIZE";
/// Environment variable carrying the socket directory.
pub(crate) const ENV_DIR: &str = "MXN_WIRE_DIR";
/// Environment variable carrying the shared deterministic seed.
pub(crate) const ENV_SEED: &str = "MXN_WIRE_SEED";
/// Environment variable carrying the membership ceiling (`max_size`).
pub(crate) const ENV_MAX: &str = "MXN_WIRE_MAX";
/// Environment variable marking a spare process (set to `1`): a worker
/// launched *after* the initial mesh, expected to join via the wire
/// handshake instead of participating in startup connect.
pub(crate) const ENV_SPARE: &str = "MXN_WIRE_SPARE";

/// What a re-exec'd process is supposed to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRole {
    /// This worker's rank in the mesh.
    pub rank: usize,
    /// Total mesh size (driver + workers).
    pub size: usize,
    /// Membership ceiling (defaults to `size` when the launcher set none).
    pub max_size: usize,
    /// Whether this process is a late-joining spare.
    pub spare: bool,
    /// Directory holding the per-rank sockets.
    pub dir: PathBuf,
    /// Deterministic seed shared by the whole run.
    pub seed: u64,
}

/// Reads the worker environment; `None` means this process is the driver.
pub fn wire_role() -> Option<WireRole> {
    let rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let size: usize = std::env::var(ENV_SIZE).ok()?.parse().ok()?;
    let dir = PathBuf::from(std::env::var(ENV_DIR).ok()?);
    let seed = std::env::var(ENV_SEED).ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let max_size = std::env::var(ENV_MAX).ok().and_then(|s| s.parse().ok()).unwrap_or(size);
    let spare = std::env::var(ENV_SPARE).is_ok_and(|s| s == "1");
    Some(WireRole { rank, size, max_size, spare, dir, seed })
}

/// A spawned worker process, killed on drop so a failing driver/test never
/// leaks orphans.
pub struct WorkerGuard {
    child: Child,
    rank: usize,
}

impl WorkerGuard {
    /// The worker's mesh rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The worker's OS pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILLs the worker — the "pull the plug" fault. No goodbye frame,
    /// no flush: peers find out from heartbeat silence.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGSTOPs the worker — the "zombie" fault. The process freezes but
    /// its sockets stay open and its listener backlog keeps accepting, so
    /// heartbeat-miss/reconnect alone never convicts it; only the
    /// progress-fence watermark does. Returns once every thread of the
    /// worker is observed stopped (`false` if that does not happen within
    /// the deadline): signal delivery alone leaves a window in which the
    /// worker still answers.
    pub fn sigstop(&self) -> bool {
        signal(self.pid(), "-STOP") && await_stopped(self.pid(), true)
    }

    /// SIGCONTs a stopped worker, resuming it where it froze. Returns once
    /// its threads are observed out of the stopped state.
    pub fn sigcont(&self) -> bool {
        signal(self.pid(), "-CONT") && await_stopped(self.pid(), false)
    }

    /// Waits up to `timeout` for clean exit; returns whether the worker
    /// exited successfully in time.
    pub fn wait_success(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return false,
            }
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends `sig` (a `/bin/kill` flag like `-STOP`) to `pid`; returns whether
/// the signal was delivered. Uses the external `kill` so no libc binding
/// is needed.
fn signal(pid: u32, sig: &str) -> bool {
    Command::new("/bin/kill")
        .args([sig, &pid.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Polls `/proc/<pid>/task/*/stat` until every thread of `pid` is in the
/// job-control stop state `T` (`stopped`) or none is (`!stopped`); `false`
/// if the deadline passes first or the process is gone.
fn await_stopped(pid: u32, stopped: bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match task_states(pid) {
            Some(states) if states.iter().all(|&s| (s == b'T') == stopped) => return true,
            Some(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => return false,
        }
    }
}

/// The scheduler state letter of every thread of `pid`.
fn task_states(pid: u32) -> Option<Vec<u8>> {
    let mut states = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        // A thread may exit between the listing and the read; skip it.
        let Ok(stat) = std::fs::read_to_string(task.ok()?.path().join("stat")) else { continue };
        // `pid (comm) S …`: the state follows the last `)`; comm may
        // itself contain parentheses.
        states.push(*stat.as_bytes().get(stat.rfind(')')? + 2)?);
    }
    (!states.is_empty()).then_some(states)
}

/// Re-execs the current binary as worker `rank` of `size`, passing through
/// `extra_args` (e.g. a test filter like `--exact worker_entry`).
pub fn spawn_worker(
    rank: usize,
    size: usize,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    spawn_inner(rank, size, size, false, dir, seed, extra_args)
}

/// [`spawn_worker`] for elastic meshes: the worker's node is configured
/// with a `max_size` ceiling above its initial `size`, leaving parked
/// slots for spare processes to join later.
pub fn spawn_worker_max(
    rank: usize,
    size: usize,
    max_size: usize,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    spawn_inner(rank, size, max_size, false, dir, seed, extra_args)
}

/// Re-execs the current binary as a *spare* process: rank `size`
/// (the next free slot) of a mesh whose incumbents were launched with
/// `size` ranks and a `max_size` ceiling. The spare's [`wire_role`] comes
/// back with `spare == true`; its worker entry is expected to dial the
/// mesh and run the join handshake rather than the startup connect.
pub fn spawn_spare(
    rank: usize,
    size: usize,
    max_size: usize,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    spawn_inner(rank, size, max_size, true, dir, seed, extra_args)
}

fn spawn_inner(
    rank: usize,
    size: usize,
    max_size: usize,
    spare: bool,
    dir: &Path,
    seed: u64,
    extra_args: &[&str],
) -> std::io::Result<WorkerGuard> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(extra_args)
        .env(ENV_RANK, rank.to_string())
        .env(ENV_SIZE, size.to_string())
        .env(ENV_MAX, max_size.to_string())
        .env(ENV_DIR, dir)
        .env(ENV_SEED, seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    if spare {
        cmd.env(ENV_SPARE, "1");
    }
    let child = cmd.spawn()?;
    Ok(WorkerGuard { child, rank })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_is_none_without_env() {
        // The test runner itself is a driver.
        assert_eq!(wire_role(), None);
    }

    /// A guard over `/bin/sleep` (re-exec with an unknown filter just
    /// burns a moment listing tests; a sleeper is explicit).
    fn sleeper() -> WorkerGuard {
        let child = Command::new("/bin/sleep")
            .arg("100")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        WorkerGuard { child, rank: 1 }
    }

    #[test]
    fn sigstop_and_sigcont_return_with_the_state_observed() {
        let guard = sleeper();
        assert!(guard.sigstop());
        assert_eq!(task_states(guard.pid()), Some(vec![b'T']));
        assert!(guard.sigcont());
        assert_ne!(task_states(guard.pid()), Some(vec![b'T']));
    }

    #[test]
    fn guard_kills_on_drop() {
        let guard = sleeper();
        let pid = guard.pid();
        assert_eq!(guard.rank(), 1);
        drop(guard);
        // After drop the pid must be reaped: kill(pid, 0) fails.
        let alive = Command::new("/bin/kill")
            .args(["-0", &pid.to_string()])
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false);
        assert!(!alive, "worker leaked after guard drop");
    }
}
