//! Worlds: pools of ranks running as threads.
//!
//! [`World::run`] is the runtime's entry point — the analogue of `mpirun`.
//! It spawns one OS thread per rank, hands each a [`Process`] handle, and
//! joins them all, propagating the first panic (after aborting the world so
//! no rank blocks forever on a receive that can no longer arrive).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::comm::Comm;
use crate::fault::{FaultConfig, FaultTrace};
use crate::network::NetworkModel;
use crate::shared::WorldShared;
use crate::stats::StatsSnapshot;
use mxn_trace::{RunTrace, TraceCollector};

/// A rank's handle to its world: gives access to the world communicator.
pub struct Process {
    shared: Arc<WorldShared>,
    global_rank: usize,
    world_comm: Comm,
}

impl Process {
    fn new(shared: Arc<WorldShared>, global_rank: usize) -> Self {
        let world_comm = Comm::world(shared.clone(), global_rank);
        Process { shared, global_rank, world_comm }
    }

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.global_rank
    }

    /// The world communicator (all ranks, context 0).
    pub fn world(&self) -> &Comm {
        &self.world_comm
    }

    /// Live traffic counters for the whole world.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats().snapshot()
    }

    /// Whether world rank `rank` has been marked dead by the fault plane
    /// (or by [`Process::kill_rank`]).
    pub fn is_dead(&self, rank: usize) -> bool {
        self.shared.liveness().is_dead(rank)
    }

    /// Marks world rank `rank` dead, waking every blocked receiver so waits
    /// involving it fail with `PeerDead` instead of hanging. Idempotent.
    /// Intended for failure-injection tests; scripted deaths normally come
    /// from [`crate::fault::FaultConfig::with_death`].
    pub fn kill_rank(&self, rank: usize) {
        self.shared.kill_rank(rank);
    }

    /// Arms or disarms the fault plane for **this rank's** outgoing traffic
    /// and op counting (no-op without a plane). While disarmed, sends are
    /// delivered verbatim and scheduled deaths do not tick. Because the
    /// flag is per-rank and only toggled from the rank's own control flow,
    /// exempting a bootstrap phase this way preserves same-seed determinism.
    /// [`crate::Universe`] disarms during its intercomm mesh setup.
    pub fn set_faults_armed(&self, armed: bool) {
        self.shared.fault_set_armed(self.global_rank, armed);
    }

    /// Seed of the world's fault plane, if one is configured. Lets retry
    /// policies derive deterministic jitter from the same seed that drives
    /// the injected faults, so a whole faulted run replays from one number.
    pub fn fault_seed(&self) -> Option<u64> {
        self.shared.fault().map(|f| f.seed())
    }
}

/// Launch policy for [`World::run_opts`] and [`crate::Universe::run_opts`]:
/// everything that changes *how* a world runs, as one value. The default is
/// the zero-policy launch of [`World::run`].
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Delays every inter-rank message by a synthetic [`NetworkModel`] —
    /// cluster-shaped timing on one machine.
    pub network: Option<NetworkModel>,
    /// Arms a deterministic fault plane injecting message drops,
    /// duplication, corruption, delays and scheduled rank deaths. Rank
    /// closures must then treat failure-detection errors (`PeerDead`,
    /// `Timeout`) as values rather than panicking, so surviving ranks can
    /// report results after a scripted death.
    pub faults: Option<FaultConfig>,
    /// Arms the trace plane: every rank records structured events into a
    /// per-rank buffer, merged into [`RunReport::trace`] after teardown.
    pub trace: bool,
}

/// Everything a finished run can report, whatever its [`RunOpts`].
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank results in rank order.
    pub results: Vec<R>,
    /// Final traffic counters.
    pub stats: StatsSnapshot,
    /// The canonical trace of injected faults (empty without a fault
    /// plane): the same seed and communication pattern yield a
    /// byte-identical trace.
    pub fault_trace: FaultTrace,
    /// The merged event trace; `Some` exactly when [`RunOpts::trace`] was
    /// set. Identical programs with identical seeds produce identical
    /// digests (see [`RunTrace::digest`]); fault injections appear as
    /// `FaultInject` events alongside the runtime's own spans.
    pub trace: Option<RunTrace>,
}

/// A parallel "machine": `n` ranks running one function SPMD-style.
pub struct World;

impl World {
    /// Runs `f` on `n` ranks (threads) and returns their results in rank
    /// order. Panics in any rank abort the world (waking all blocked
    /// receives) and are re-thrown here.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Process) -> R + Send + Sync,
    {
        Self::run_opts(n, RunOpts::default(), f).results
    }

    /// [`World::run`] under a launch policy, returning the full
    /// [`RunReport`].
    pub fn run_opts<R, F>(n: usize, opts: RunOpts, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&Process) -> R + Send + Sync,
    {
        assert!(n > 0, "world must have at least one rank");
        let shared = WorldShared::with_config(n, opts.network, opts.faults);
        let collector = opts.trace.then(|| TraceCollector::new(n));
        let f = &f;
        let mut outcomes: Vec<std::thread::Result<R>> = Vec::with_capacity(n);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let shared = shared.clone();
                let recorder = collector.as_ref().map(|c| c.handle(rank));
                handles.push(scope.spawn(move || {
                    let _trace_guard = recorder.as_ref().map(|h| h.install());
                    let proc = Process::new(shared.clone(), rank);
                    let result = catch_unwind(AssertUnwindSafe(|| f(&proc)));
                    if result.is_err() {
                        // Wake every blocked receiver so the world drains.
                        shared.abort();
                    }
                    result
                }));
            }
            for h in handles {
                outcomes.push(h.join().expect("rank thread itself never panics"));
            }
        });
        let run_trace = collector.map(TraceCollector::finish);

        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        RunReport {
            results,
            stats: shared.stats().snapshot(),
            fault_trace: shared.fault_trace(),
            trace: run_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuntimeError;

    #[test]
    fn ranks_and_sizes() {
        let r = World::run(4, |p| (p.rank(), p.world().size()));
        assert_eq!(r, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world() {
        assert_eq!(World::run(1, |p| p.rank()), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        World::run(0, |_| ());
    }

    #[test]
    fn results_in_rank_order() {
        let r = World::run(8, |p| p.rank() * p.rank());
        assert_eq!(r, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_and_unblocks_peers() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            World::run(3, |p| {
                if p.rank() == 0 {
                    panic!("rank 0 exploded");
                }
                // Ranks 1 and 2 block on a message that never comes; the
                // abort must wake them rather than hang the test.
                let e = p.world().recv::<u8>(0, 0).unwrap_err();
                assert_eq!(e, RuntimeError::Aborted);
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("rank 0 exploded"));
    }

    #[test]
    fn stats_returned_after_run() {
        let stats = World::run_opts(2, RunOpts::default(), |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 0, 7u64).unwrap();
            } else {
                c.recv::<u64>(0, 0).unwrap();
            }
        })
        .stats;
        assert_eq!(stats.p2p_messages, 1);
        assert_eq!(stats.p2p_bytes, 8);
    }

    #[test]
    fn process_stats_visible_during_run() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 0, 1u8).unwrap();
                c.recv::<u8>(1, 1).unwrap();
                assert!(p.stats().p2p_messages >= 2);
            } else {
                c.recv::<u8>(0, 0).unwrap();
                c.send(0, 1, 1u8).unwrap();
            }
        });
    }
}
