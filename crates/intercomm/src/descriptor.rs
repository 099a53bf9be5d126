//! Replicated vs partitioned array descriptors.
//!
//! "For block distributions, the data structure required to describe the
//! distribution is relatively small, so can be replicated on each of the
//! processes … For explicit distributions, there is a one-to-one
//! correspondence between the elements of the array and the number of
//! entries in the data descriptor, therefore, the descriptor itself is
//! rather large and **must be partitioned** across the participating
//! processes." (paper §4.4)
//!
//! [`PartitionedDescriptor`] shards the element→owner table over the
//! program's ranks by linearized index range; non-local ownership queries
//! are resolved collectively with an all-to-all exchange.

use mxn_dad::{Dad, Extents};
use mxn_runtime::{Comm, Result, RuntimeError};

/// A descriptor in InterComm's two flavours.
pub enum ICDescriptor {
    /// Small block-family descriptor, replicated everywhere.
    Replicated(Dad),
    /// Elementwise owner table, sharded across ranks.
    Partitioned(PartitionedDescriptor),
}

/// One rank's shard of an elementwise owner table.
pub struct PartitionedDescriptor {
    extents: Extents,
    nranks: usize,
    chunk: usize,
    shard_start: usize,
    /// Owners of linear positions `shard_start .. shard_start+shard.len()`.
    shard: Vec<usize>,
}

impl PartitionedDescriptor {
    /// Builds this rank's shard from an owner function over linear
    /// positions (row-major). `owner_of` must be identical on all ranks.
    pub fn build(
        extents: Extents,
        nranks: usize,
        my_rank: usize,
        owner_of: impl Fn(usize) -> usize,
    ) -> Self {
        assert!(nranks > 0 && my_rank < nranks);
        let total = extents.total();
        let chunk = total.div_ceil(nranks).max(1);
        let shard_start = (my_rank * chunk).min(total);
        let shard_end = ((my_rank + 1) * chunk).min(total);
        let shard = (shard_start..shard_end).map(&owner_of).collect();
        PartitionedDescriptor { extents, nranks, chunk, shard_start, shard }
    }

    /// The global array extents.
    pub fn extents(&self) -> &Extents {
        &self.extents
    }

    /// Rank holding the table entry for linear position `pos`.
    pub(crate) fn table_home(&self, pos: usize) -> usize {
        (pos / self.chunk).min(self.nranks - 1)
    }

    /// Owner of `pos` if its table entry lives on this rank.
    pub(crate) fn local_owner(&self, pos: usize) -> Option<usize> {
        pos.checked_sub(self.shard_start).and_then(|off| self.shard.get(off).copied())
    }

    /// Bytes of table shard held by this rank — ≈ `total / nranks`
    /// entries, versus `total` entries for a replicated elementwise table.
    pub fn shard_bytes(&self) -> usize {
        self.shard.len() * std::mem::size_of::<usize>()
    }

    /// Collectively resolves the owners of arbitrary linear positions.
    /// Every rank of `comm` must participate (it may pass an empty query
    /// list). Returns owners in query order.
    pub fn resolve_owners(&self, comm: &Comm, queries: &[usize]) -> Result<Vec<usize>> {
        let p = comm.size();
        if p != self.nranks {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("descriptor sharded over {} ranks, comm has {p}", self.nranks),
            });
        }
        // Route each query to its table home, remembering positions.
        let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (i, &q) in queries.iter().enumerate() {
            let home = self.table_home(q);
            outgoing[home].push(q);
            slots[home].push(i);
        }
        let received = comm.alltoallv(outgoing)?;
        // Answer what we were asked.
        let answers: Vec<Vec<usize>> = received
            .into_iter()
            .map(|qs| {
                qs.into_iter()
                    .map(|q| self.local_owner(q).expect("query routed to its table home"))
                    .collect()
            })
            .collect();
        let replies = comm.alltoallv(answers)?;
        // Scatter replies back into query order.
        let mut out = vec![0usize; queries.len()];
        for (home, reply) in replies.into_iter().enumerate() {
            for (k, owner) in reply.into_iter().enumerate() {
                out[slots[home][k]] = owner;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Region;
    use mxn_runtime::World;

    /// A scattered explicit-style ownership: owner = (pos * 7 + 3) % nranks.
    fn owner_fn(nranks: usize) -> impl Fn(usize) -> usize {
        move |pos| (pos * 7 + 3) % nranks
    }

    #[test]
    fn shards_partition_the_table() {
        let e = Extents::new([10, 10]);
        let nranks = 4;
        let mut covered = [false; 100];
        let mut total_bytes = 0;
        for r in 0..nranks {
            let d = PartitionedDescriptor::build(e.clone(), nranks, r, owner_fn(nranks));
            total_bytes += d.shard_bytes();
            for (pos, cov) in covered.iter_mut().enumerate() {
                if let Some(o) = d.local_owner(pos) {
                    assert!(!*cov, "entry {pos} sharded twice");
                    *cov = true;
                    assert_eq!(o, owner_fn(nranks)(pos));
                    assert_eq!(d.table_home(pos), r);
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        // Sharded total equals one replicated table.
        assert_eq!(total_bytes, 100 * std::mem::size_of::<usize>());
    }

    #[test]
    fn partitioned_is_cheaper_per_rank_than_replicated_explicit() {
        let e = Extents::new([32, 32]);
        let nranks = 8;
        let part = PartitionedDescriptor::build(e.clone(), nranks, 0, owner_fn(nranks));
        // A replicated explicit descriptor stores one patch per element in
        // the worst (fully scattered) case.
        let scattered: Vec<(Region, usize)> = e
            .iter()
            .map(|idx| {
                let hi: Vec<usize> = idx.iter().map(|&i| i + 1).collect();
                (Region::new(idx.clone(), hi), owner_fn(nranks)(e.linear(&idx)))
            })
            .collect();
        let replicated = Dad::explicit(mxn_dad::ExplicitDist::new(e, scattered, nranks).unwrap());
        assert!(
            part.shard_bytes() * 4 < replicated.descriptor_bytes(),
            "sharded table ({}) ≪ replicated table ({})",
            part.shard_bytes(),
            replicated.descriptor_bytes()
        );
    }

    #[test]
    fn collective_owner_resolution() {
        World::run(4, |p| {
            let comm = p.world();
            let e = Extents::new([8, 8]);
            let d = PartitionedDescriptor::build(e, 4, comm.rank(), owner_fn(4));
            // Each rank asks about a strided set of positions.
            let queries: Vec<usize> = (comm.rank()..64).step_by(5).collect();
            let owners = d.resolve_owners(comm, &queries).unwrap();
            for (q, o) in queries.iter().zip(&owners) {
                assert_eq!(*o, owner_fn(4)(*q), "position {q}");
            }
        });
    }

    #[test]
    fn empty_queries_still_participate() {
        World::run(3, |p| {
            let comm = p.world();
            let d = PartitionedDescriptor::build(Extents::new([9]), 3, comm.rank(), owner_fn(3));
            let queries: Vec<usize> = if comm.rank() == 0 { vec![0, 8, 4] } else { vec![] };
            let owners = d.resolve_owners(comm, &queries).unwrap();
            if comm.rank() == 0 {
                assert_eq!(owners.len(), 3);
            } else {
                assert!(owners.is_empty());
            }
        });
    }

    #[test]
    fn wrong_comm_size_rejected() {
        World::run(2, |p| {
            let comm = p.world();
            let d = PartitionedDescriptor::build(Extents::new([4]), 3, 0, owner_fn(3));
            assert!(d.resolve_owners(comm, &[0]).is_err());
        });
    }
}
