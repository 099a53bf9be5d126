//! Particle-based data containers.
//!
//! "To support more complex data structure decompositions, a
//! 'particle-based' container solution is also under development"
//! (paper §4.1). Unlike dense arrays, particles move: ownership follows a
//! spatial decomposition of the domain, and after each step particles that
//! crossed a boundary must *migrate* to their new owner — and an M×N
//! coupling must deliver every particle to whichever remote rank owns its
//! position under the remote decomposition.
//!
//! The spatial decomposition reuses the DAD: the domain is a virtual cell
//! grid described by a [`Dad`], and a particle belongs to the rank owning
//! its cell.

use mxn_dad::Dad;
use mxn_runtime::{Comm, InterComm, MsgSize, Result};

/// One particle: a position in the unit square-ish domain plus a payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Stable identity (for tracking across migrations).
    pub id: u64,
    /// Position, one coordinate per domain axis (2-D here).
    pub pos: [f64; 2],
    /// Physical payload (mass, charge, …).
    pub value: f64,
}

impl MsgSize for Particle {
    fn msg_size(&self) -> usize {
        8 + 16 + 8
    }
}

/// Outcome counters of a migration or transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationReport {
    /// Particles that stayed on this rank.
    pub kept: usize,
    /// Particles sent away.
    pub sent: usize,
    /// Particles received.
    pub received: usize,
}

/// A rank's portion of a particle population, decomposed by cell ownership.
#[derive(Debug, Clone)]
pub struct ParticleField {
    /// Domain bounds: `[x_max, y_max]` (domain is `[0,x_max)×[0,y_max)`).
    domain: [f64; 2],
    /// Cell-grid decomposition (2-D dense descriptor over cells).
    cells: Dad,
    my_rank: usize,
    particles: Vec<Particle>,
}

impl ParticleField {
    /// Creates an empty field for `my_rank` with the given cell
    /// decomposition over the domain `[0, domain[0]) × [0, domain[1])`.
    pub fn new(domain: [f64; 2], cells: Dad, my_rank: usize) -> Self {
        assert_eq!(cells.extents().ndim(), 2, "particle domains are 2-D");
        assert!(domain[0] > 0.0 && domain[1] > 0.0);
        ParticleField { domain, cells, my_rank, particles: Vec::new() }
    }

    /// The cell a position falls into.
    pub fn cell_of(&self, pos: [f64; 2]) -> [usize; 2] {
        let nx = self.cells.extents().dim(0) as f64;
        let ny = self.cells.extents().dim(1) as f64;
        let cx = ((pos[0] / self.domain[0]) * nx).floor().clamp(0.0, nx - 1.0) as usize;
        let cy = ((pos[1] / self.domain[1]) * ny).floor().clamp(0.0, ny - 1.0) as usize;
        [cx, cy]
    }

    /// The rank owning a position under this field's decomposition.
    pub fn owner_of(&self, pos: [f64; 2]) -> usize {
        let c = self.cell_of(pos);
        self.cells.owner(&c)
    }

    /// Seeds particles deterministically across the whole domain; each
    /// rank keeps the ones it owns (collective-by-convention).
    pub fn seed_global(&mut self, count: usize) {
        for id in 0..count as u64 {
            // Low-discrepancy-ish deterministic positions.
            let x = ((id as f64 * 0.754_877_666) % 1.0) * self.domain[0];
            let y = ((id as f64 * 0.569_840_296) % 1.0) * self.domain[1];
            let p = Particle { id, pos: [x, y], value: id as f64 * 0.5 };
            if self.owner_of(p.pos) == self.my_rank {
                self.particles.push(p);
            }
        }
    }

    /// The local particles.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Number of local particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Whether this rank currently holds no particles.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Moves every particle by `(dx, dy)` with reflecting walls — a toy
    /// "push" so tests and examples have motion to migrate.
    pub fn advect(&mut self, dx: f64, dy: f64) {
        for p in &mut self.particles {
            p.pos[0] = reflect(p.pos[0] + dx, self.domain[0]);
            p.pos[1] = reflect(p.pos[1] + dy, self.domain[1]);
        }
    }

    /// Intra-program migration after a push: every rank sends its departed
    /// particles to their new owners. Collective over `comm` (which must
    /// match the decomposition's rank count).
    pub fn migrate(&mut self, comm: &Comm) -> Result<MigrationReport> {
        assert_eq!(comm.size(), self.cells.nranks(), "comm does not match decomposition");
        let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); comm.size()];
        let mut kept = Vec::with_capacity(self.particles.len());
        for p in self.particles.drain(..) {
            let owner = self.cells.owner(&cell(&self.domain, &self.cells, p.pos));
            if owner == self.my_rank {
                kept.push(p);
            } else {
                outgoing[owner].push(p);
            }
        }
        let mut report = MigrationReport { kept: kept.len(), ..Default::default() };
        report.sent = outgoing.iter().map(Vec::len).sum();
        let incoming = comm.alltoallv(outgoing)?;
        self.particles = kept;
        for batch in incoming {
            report.received += batch.len();
            self.particles.extend(batch);
        }
        Ok(report)
    }

    /// M×N transfer: ships *all* local particles to the remote program,
    /// delivering each to the remote rank owning its position under
    /// `remote_cells`. Call on every source rank; destinations call
    /// [`ParticleField::receive_mxn`].
    pub fn send_mxn(&self, ic: &InterComm, remote_cells: &Dad, tag: i32) -> Result<usize> {
        let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); ic.remote_size()];
        for p in &self.particles {
            let c = cell(&self.domain, remote_cells, p.pos);
            outgoing[remote_cells.owner(&c)].push(*p);
        }
        let mut sent = 0;
        for (dst, batch) in outgoing.into_iter().enumerate() {
            sent += batch.len();
            ic.send(dst, tag, batch)?;
        }
        Ok(sent)
    }

    /// Destination side of [`ParticleField::send_mxn`]: collects one batch
    /// from every remote rank.
    pub fn receive_mxn(&mut self, ic: &InterComm, tag: i32) -> Result<usize> {
        let mut received = 0;
        for src in 0..ic.remote_size() {
            let batch: Vec<Particle> = ic.recv(src, tag)?;
            received += batch.len();
            for p in &batch {
                debug_assert_eq!(self.owner_of(p.pos), self.my_rank);
            }
            self.particles.extend(batch);
        }
        Ok(received)
    }
}

fn cell(domain: &[f64; 2], cells: &Dad, pos: [f64; 2]) -> [usize; 2] {
    let nx = cells.extents().dim(0) as f64;
    let ny = cells.extents().dim(1) as f64;
    [
        ((pos[0] / domain[0]) * nx).floor().clamp(0.0, nx - 1.0) as usize,
        ((pos[1] / domain[1]) * ny).floor().clamp(0.0, ny - 1.0) as usize,
    ]
}

fn reflect(x: f64, max: f64) -> f64 {
    let mut x = x % (2.0 * max);
    if x < 0.0 {
        x += 2.0 * max;
    }
    if x >= max {
        2.0 * max - x - f64::EPSILON * max
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;
    use mxn_runtime::{Universe, World};

    fn cells(grid: &[usize]) -> Dad {
        Dad::block(Extents::new([8, 8]), grid).unwrap()
    }

    #[test]
    fn cell_and_owner_mapping() {
        let f = ParticleField::new([1.0, 1.0], cells(&[2, 2]), 0);
        assert_eq!(f.cell_of([0.0, 0.0]), [0, 0]);
        assert_eq!(f.cell_of([0.99, 0.99]), [7, 7]);
        assert_eq!(f.owner_of([0.1, 0.1]), 0);
        assert_eq!(f.owner_of([0.9, 0.1]), 2);
        assert_eq!(f.owner_of([0.1, 0.9]), 1);
        assert_eq!(f.owner_of([0.9, 0.9]), 3);
    }

    #[test]
    fn seeding_partitions_particles() {
        let total: usize = (0..4)
            .map(|r| {
                let mut f = ParticleField::new([1.0, 1.0], cells(&[2, 2]), r);
                f.seed_global(1000);
                // All seeded particles are locally owned.
                assert!(f.particles().iter().all(|p| f.owner_of(p.pos) == r));
                f.len()
            })
            .sum();
        assert_eq!(total, 1000, "every particle seeded exactly once");
    }

    #[test]
    fn migration_restores_ownership_and_conserves_particles() {
        World::run(4, |p| {
            let comm = p.world();
            let mut f = ParticleField::new([1.0, 1.0], cells(&[2, 2]), comm.rank());
            f.seed_global(400);
            let before: usize = comm.allreduce(f.len(), |a, b| *a += b).unwrap();
            // Push particles diagonally, then migrate.
            f.advect(0.3, 0.17);
            let report = f.migrate(comm).unwrap();
            assert_eq!(report.kept + report.sent, report.kept + report.sent);
            // Every particle is now locally owned.
            assert!(f.particles().iter().all(|q| f.owner_of(q.pos) == comm.rank()));
            // Global population conserved.
            let after: usize = comm.allreduce(f.len(), |a, b| *a += b).unwrap();
            assert_eq!(before, after);
            assert_eq!(after, 400);
        });
    }

    #[test]
    fn repeated_migration_under_flow() {
        World::run(4, |p| {
            let comm = p.world();
            let mut f = ParticleField::new([2.0, 1.0], cells(&[4, 1]), comm.rank());
            f.seed_global(200);
            let mut ids = std::collections::BTreeSet::new();
            for step in 0..6 {
                f.advect(0.23, -0.11);
                f.migrate(comm).unwrap();
                assert!(
                    f.particles().iter().all(|q| f.owner_of(q.pos) == comm.rank()),
                    "step {step}: stray particle"
                );
            }
            // Identities survive: gather all ids at rank 0.
            let local_ids: Vec<u64> = f.particles().iter().map(|q| q.id).collect();
            if let Some(all) = comm.gather(0, local_ids).unwrap() {
                for batch in all {
                    for id in batch {
                        assert!(ids.insert(id), "duplicate particle id {id}");
                    }
                }
                assert_eq!(ids.len(), 200);
            }
        });
    }

    #[test]
    fn mxn_particle_transfer() {
        // M = 4 source ranks (2×2 cells) → N = 3 destination ranks
        // (3 column stripes): every particle must land on the remote rank
        // owning its position.
        Universe::run(&[4, 3], |_, ctx| {
            let src_cells = Dad::block(Extents::new([8, 8]), &[2, 2]).unwrap();
            let dst_cells = Dad::block(Extents::new([9, 6]), &[3, 1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut f = ParticleField::new([1.0, 1.0], src_cells.clone(), ctx.comm.rank());
                f.seed_global(300);
                f.send_mxn(ic, &dst_cells, 5).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let mut f = ParticleField::new([1.0, 1.0], dst_cells.clone(), ctx.comm.rank());
                let received = f.receive_mxn(ic, 5).unwrap();
                assert_eq!(received, f.len());
                assert!(f.particles().iter().all(|p| f.owner_of(p.pos) == ctx.comm.rank()));
                // Population check across the destination program.
                let total: usize = ctx.comm.allreduce(f.len(), |a, b| *a += b).unwrap();
                assert_eq!(total, 300);
            }
        });
    }

    #[test]
    fn reflect_keeps_positions_in_domain() {
        for x in [-0.4, 0.0, 0.5, 0.99, 1.3, 2.6, -1.7] {
            let r = reflect(x, 1.0);
            assert!((0.0..1.0).contains(&r), "reflect({x}) = {r}");
        }
    }
}
