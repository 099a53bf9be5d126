//! Universes: several parallel programs ("M×N jobs") in one run.
//!
//! [`Universe::run`] is the analogue of launching two or more `mpirun` jobs
//! that will couple to each other: it builds one world spanning all
//! programs, gives each rank its program-local communicator, and
//! pre-establishes an [`InterComm`] between every pair of programs.

use crate::comm::Comm;
use crate::error::Result;
use crate::intercomm::InterComm;
use crate::world::{Process, RunOpts, RunReport, World};

/// Per-rank context inside a multi-program universe.
pub struct ProgramCtx {
    /// Index of this rank's program within the universe.
    pub program: usize,
    /// Communicator over this rank's program only.
    pub comm: Comm,
    /// Inter-communicators to every other program; index = program id
    /// (`None` at this rank's own program id).
    intercomms: Vec<Option<InterComm>>,
}

impl ProgramCtx {
    /// The inter-communicator to program `other`.
    ///
    /// # Panics
    /// If `other` is this rank's own program or out of range.
    pub fn intercomm(&self, other: usize) -> &InterComm {
        self.intercomms[other].as_ref().expect("no intercomm to own program; use `comm` instead")
    }
}

/// Entry point for coupled multi-program runs.
pub struct Universe;

impl Universe {
    /// Runs `f` on a universe of `sizes.len()` programs with the given rank
    /// counts; results come back in world-rank order (program 0's ranks
    /// first). The world communicator remains reachable via [`Process`].
    pub fn run<R, F>(sizes: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Process, &ProgramCtx) -> R + Send + Sync,
    {
        Self::run_opts(sizes, RunOpts::default(), f).results
    }

    /// [`Universe::run`] under a launch policy (see [`RunOpts`]). A trace
    /// covers bootstrap (program splits, intercomm mesh) and the coupling
    /// traffic of `f` alike.
    ///
    /// The universe's own bootstrap runs with the fault plane disarmed, so
    /// lossy policies and scheduled deaths cannot strand setup: faults
    /// apply to the coupling traffic only, and a death's `at_op` counts ops
    /// from the start of `f`.
    pub fn run_opts<R, F>(sizes: &[usize], opts: RunOpts, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&Process, &ProgramCtx) -> R + Send + Sync,
    {
        let (total, starts) = Self::layout(sizes);
        World::run_opts(total, opts, move |p| {
            p.set_faults_armed(false);
            let ctx = Self::setup(p, sizes, &starts).expect("universe setup is deadlock-free");
            p.set_faults_armed(true);
            f(p, &ctx)
        })
    }

    fn layout(sizes: &[usize]) -> (usize, Vec<usize>) {
        assert!(sizes.len() >= 2, "universe needs at least two programs");
        assert!(sizes.iter().all(|&s| s > 0), "every program needs at least one rank");
        let total: usize = sizes.iter().sum();
        let starts: Vec<usize> = sizes
            .iter()
            .scan(0, |acc, &s| {
                let start = *acc;
                *acc += s;
                Some(start)
            })
            .collect();
        (total, starts)
    }

    fn setup(p: &Process, sizes: &[usize], starts: &[usize]) -> Result<ProgramCtx> {
        let world = p.world();
        let my_prog =
            starts.iter().rposition(|&s| p.rank() >= s).expect("every rank belongs to a program");

        let comm = world.split(my_prog as i64, 0)?.expect("program color is non-negative");

        // Establish an intercomm for every unordered pair of programs; all
        // world ranks take part in each split (non-members opt out). The
        // splits and `InterComm::create` ride on the world's collectives
        // (shared-envelope bcast/allgather), so bootstrap traffic stays
        // O(1) payload allocations per exchange even at large p.
        let nprog = sizes.len();
        let mut intercomms: Vec<Option<InterComm>> = (0..nprog).map(|_| None).collect();
        for a in 0..nprog {
            for b in (a + 1)..nprog {
                let in_pair = my_prog == a || my_prog == b;
                let color = if in_pair { 0 } else { -1 };
                let pair = world.split(color, 0)?;
                if let Some(pair) = pair {
                    let side = usize::from(my_prog == b);
                    let (_, ic) = InterComm::create(&pair, side)?;
                    let other = if my_prog == a { b } else { a };
                    intercomms[other] = Some(ic);
                }
            }
        }

        Ok(ProgramCtx { program: my_prog, comm, intercomms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Src;

    #[test]
    fn programs_get_correct_comms() {
        Universe::run(&[2, 3], |p, ctx| {
            if p.rank() < 2 {
                assert_eq!(ctx.program, 0);
                assert_eq!(ctx.comm.size(), 2);
                assert_eq!(ctx.comm.rank(), p.rank());
            } else {
                assert_eq!(ctx.program, 1);
                assert_eq!(ctx.comm.size(), 3);
                assert_eq!(ctx.comm.rank(), p.rank() - 2);
            }
            assert_eq!(ctx.intercomms.len(), 2);
        });
    }

    #[test]
    fn cross_program_exchange() {
        Universe::run(&[2, 4], |_, ctx| match ctx.program {
            0 => {
                let ic = ctx.intercomm(1);
                assert_eq!(ic.remote_size(), 4);
                for dst in 0..4 {
                    ic.send(dst, 1, ctx.comm.rank() as u64).unwrap();
                }
            }
            _ => {
                let ic = ctx.intercomm(0);
                assert_eq!(ic.remote_size(), 2);
                let mut got = vec![
                    ic.recv::<u64>(Src::Any, 1).unwrap(),
                    ic.recv::<u64>(Src::Any, 1).unwrap(),
                ];
                got.sort_unstable();
                assert_eq!(got, vec![0, 1]);
            }
        });
    }

    #[test]
    fn three_programs_all_pairs() {
        Universe::run(&[1, 2, 1], |_, ctx| {
            let me = ctx.program;
            for other in 0..3 {
                if other == me {
                    continue;
                }
                let ic = ctx.intercomm(other);
                if ctx.comm.rank() == 0 {
                    ic.send(0, 9, me as u32).unwrap();
                }
            }
            if ctx.comm.rank() == 0 {
                let mut got: Vec<u32> = (0..3)
                    .filter(|&o| o != me)
                    .map(|o| ctx.intercomm(o).recv::<u32>(0, 9).unwrap())
                    .collect();
                got.sort_unstable();
                let expect: Vec<u32> = (0..3u32).filter(|&o| o as usize != me).collect();
                assert_eq!(got, expect);
            }
        });
    }

    #[test]
    fn program_collectives_are_independent() {
        Universe::run(&[3, 2], |_, ctx| {
            let sum: usize = ctx.comm.allreduce(ctx.comm.rank(), |a, b| *a += b).unwrap();
            let expect = if ctx.program == 0 { 3 } else { 1 };
            assert_eq!(sum, expect);
        });
    }

    #[test]
    #[should_panic(expected = "at least two programs")]
    fn single_program_rejected() {
        Universe::run(&[3], |_, _| ());
    }
}
