//! DCA-style user-specified data redistribution.
//!
//! "DCA also employs the MPI all-to-all communication model to implement
//! parallel data redistribution. This works by having the user define the
//! data distribution layout using MPI data types, displacement and count
//! arrays … This strategy … has the advantage of being familiar to MPI
//! users and of being flexible by giving users the tools to describe their
//! own data redistribution layout. This flexibility also has its
//! disadvantages, because it places more responsibility on the user."
//! (paper §4.3)
//!
//! The user describes, per destination rank, which slice of a flat local
//! buffer to ship ([`AlltoallvSpec`]); the framework moves the slices. No
//! descriptors, no schedules — and no safety net beyond count validation.

use mxn_dad::{Dad, LocalArray};
use mxn_runtime::{Comm, InterComm, MsgSize, Result, RuntimeError, SMALL_COLLECTIVE_BYTES};
use mxn_schedule::RegionSchedule;

/// Per-peer `(count, displacement)` arrays describing how a flat local
/// buffer is carved up for an all-to-all exchange — the MPI `alltoallv`
/// argument style DCA exposes to applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlltoallvSpec {
    counts: Vec<usize>,
    displs: Vec<usize>,
}

impl AlltoallvSpec {
    /// Builds a spec with explicit counts and displacements.
    pub fn new(counts: Vec<usize>, displs: Vec<usize>) -> Result<Self> {
        if counts.len() != displs.len() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("{} counts vs {} displacements", counts.len(), displs.len()),
            });
        }
        Ok(AlltoallvSpec { counts, displs })
    }

    /// Builds a spec for contiguous, back-to-back chunks.
    pub fn contiguous(counts: &[usize]) -> Self {
        let mut displs = Vec::with_capacity(counts.len());
        let mut acc = 0;
        for &c in counts {
            displs.push(acc);
            acc += c;
        }
        AlltoallvSpec { counts: counts.to_vec(), displs }
    }

    /// Number of peers the spec addresses.
    pub(crate) fn npeers(&self) -> usize {
        self.counts.len()
    }

    /// Verifies every chunk fits inside a buffer of `len` elements.
    pub(crate) fn validate(&self, len: usize) -> Result<()> {
        for (p, (&c, &d)) in self.counts.iter().zip(&self.displs).enumerate() {
            if d + c > len {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!("peer {p}: chunk [{d}, {}) exceeds buffer length {len}", d + c),
                });
            }
        }
        Ok(())
    }

    fn chunk<'a, T>(&self, peer: usize, data: &'a [T]) -> &'a [T] {
        &data[self.displs[peer]..self.displs[peer] + self.counts[peer]]
    }
}

/// Element-type-generic alltoallv over *any* communicator — including the
/// sub-group communicators of [`Comm::split`] / [`Comm::subgroup`], which
/// is what axis-wise collective lowerings run their per-axis exchanges on.
/// `spec` must address exactly `comm.size()` peers (sub-group local ranks).
///
/// Algorithm selection matches [`alltoallv_within`]: the group first agrees
/// on the size regime by allreducing the largest chunk, then every member
/// takes the same path — Bruck's ⌈log₂ p⌉-round algorithm in the
/// latency-bound small-message regime, pairwise exchange otherwise.
pub(crate) fn alltoallv_subgroup<T>(
    comm: &Comm,
    data: &[T],
    spec: &AlltoallvSpec,
) -> Result<Vec<Vec<T>>>
where
    T: Clone + Send + MsgSize + 'static,
{
    if spec.npeers() != comm.size() {
        return Err(RuntimeError::CollectiveMismatch {
            detail: format!("{} chunks for {} ranks", spec.npeers(), comm.size()),
        });
    }
    spec.validate(data.len())?;
    let chunks: Vec<Vec<T>> = (0..comm.size()).map(|p| spec.chunk(p, data).to_vec()).collect();
    let my_max = chunks.iter().map(|c| c.msg_size()).max().unwrap_or(0) as u64;
    let global_max = comm.allreduce(my_max, |a, b| *a = (*a).max(b))?;
    let small = global_max as usize <= SMALL_COLLECTIVE_BYTES && comm.size() > 2;
    let algo = if small { mxn_runtime::coll_algo::BRUCK } else { mxn_runtime::coll_algo::PAIRWISE };
    let _span = mxn_trace::span(
        mxn_trace::EventId::DcaAlltoallv,
        [algo, global_max, data.len() as u64, comm.size() as u64],
    );
    if small {
        comm.alltoall_bruck(chunks)
    } else {
        comm.alltoallv(chunks)
    }
}

/// Intra-program redistribution: every rank contributes `data` carved by
/// `spec`; returns the chunk received from each rank, in rank order.
///
/// Picks the exchange algorithm by message size: since counts are
/// user-defined and may differ per rank, the ranks first *agree* on the
/// regime by allreducing the largest per-peer chunk size, then all take the
/// same path — Bruck's ⌈log₂ p⌉-round algorithm when every chunk is small
/// (latency-bound regime), the pairwise p−1-round exchange otherwise
/// (bandwidth-bound; each block travels exactly one hop).
pub fn alltoallv_within(comm: &Comm, data: &[f64], spec: &AlltoallvSpec) -> Result<Vec<Vec<f64>>> {
    alltoallv_subgroup(comm, data, spec)
}

/// Cross-program, caller side: ship each provider its chunk (the extra
/// arguments "automatically generated by the SIDL parser" travel with the
/// invocation; here they are the chunks themselves).
pub fn scatter_to_remote(
    ic: &InterComm,
    data: &[f64],
    spec: &AlltoallvSpec,
    tag: i32,
) -> Result<()> {
    if spec.npeers() != ic.remote_size() {
        return Err(RuntimeError::CollectiveMismatch {
            detail: format!("{} chunks for {} remote ranks", spec.npeers(), ic.remote_size()),
        });
    }
    spec.validate(data.len())?;
    for p in 0..ic.remote_size() {
        ic.send(p, tag, spec.chunk(p, data).to_vec())?;
    }
    Ok(())
}

/// Cross-program, provider side: collect one chunk from every remote rank
/// (empty chunks included), in remote-rank order.
pub fn gather_from_remote(ic: &InterComm, tag: i32) -> Result<Vec<Vec<f64>>> {
    (0..ic.remote_size()).map(|p| ic.recv::<Vec<f64>>(p, tag)).collect()
}

/// The "DAD as a layer on top of the DCA abstractions" the paper suggests:
/// derives the user-facing counts/displacements (plus the permutation
/// buffer) from descriptors, so an application can drive the low-level DCA
/// path without hand-computing layouts. Returns `(flat_buffer, spec)` where
/// `flat_buffer` is this rank's data arranged so each destination's chunk
/// is contiguous.
pub fn spec_from_dads(
    src: &Dad,
    dst: &Dad,
    my_rank: usize,
    local: &LocalArray<f64>,
) -> (Vec<f64>, AlltoallvSpec) {
    let sched = RegionSchedule::for_sender(src, dst, my_rank);
    let mut counts = vec![0usize; dst.nranks()];
    let mut flat = Vec::new();
    for (i, pair) in sched.pairs().iter().enumerate() {
        counts[pair.peer] = sched.plan(i).total();
        for region in &pair.regions {
            flat.extend(local.pack_region(region));
        }
    }
    (flat, AlltoallvSpec::contiguous(&counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;
    use mxn_runtime::{RunOpts, Universe, World};

    #[test]
    fn contiguous_spec_displacements() {
        let s = AlltoallvSpec::contiguous(&[2, 0, 3]);
        assert_eq!(s.displs, [0, 2, 2]);
        assert_eq!(s.npeers(), 3);
        s.validate(5).unwrap();
        assert!(s.validate(4).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(AlltoallvSpec::new(vec![1, 2], vec![0]).is_err());
    }

    #[test]
    fn within_program_identity_permutation() {
        World::run(3, |p| {
            let comm = p.world();
            let r = comm.rank();
            // Rank r sends value 100*r + dest to each destination.
            let data: Vec<f64> = (0..3).map(|d| (100 * r + d) as f64).collect();
            let spec = AlltoallvSpec::contiguous(&[1, 1, 1]);
            let got = alltoallv_within(comm, &data, &spec).unwrap();
            for (s, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &vec![(100 * s + r) as f64]);
            }
        });
    }

    #[test]
    fn uneven_user_defined_chunks() {
        World::run(2, |p| {
            let comm = p.world();
            let r = comm.rank();
            // Rank 0 keeps 1 element for rank 0 and sends 3 to rank 1;
            // rank 1 sends 2 each.
            let (data, spec) = if r == 0 {
                (vec![0.0, 1.0, 2.0, 3.0], AlltoallvSpec::contiguous(&[1, 3]))
            } else {
                (vec![10.0, 11.0, 12.0, 13.0], AlltoallvSpec::contiguous(&[2, 2]))
            };
            let got = alltoallv_within(comm, &data, &spec).unwrap();
            if r == 0 {
                assert_eq!(got, vec![vec![0.0], vec![10.0, 11.0]]);
            } else {
                assert_eq!(got, vec![vec![1.0, 2.0, 3.0], vec![12.0, 13.0]]);
            }
        });
    }

    #[test]
    fn algorithm_selection_agrees_across_uneven_ranks() {
        // Chunk sizes differ per rank, straddling the small/large threshold
        // from one rank's local view — the allreduce agreement must still
        // put every rank on the same algorithm (this deadlocks if not).
        World::run(4, |p| {
            let comm = p.world();
            let r = comm.rank();
            // Rank 3 sends big chunks (forces the pairwise path globally).
            let n = if r == 3 { 1024 } else { 1 };
            let data: Vec<f64> = (0..4 * n).map(|i| (r * 100_000 + i) as f64).collect();
            let spec = AlltoallvSpec::contiguous(&[n; 4]);
            let got = alltoallv_within(comm, &data, &spec).unwrap();
            for (s, chunk) in got.iter().enumerate() {
                let sn = if s == 3 { 1024 } else { 1 };
                let expect: Vec<f64> = (0..sn).map(|i| (s * 100_000 + r * sn + i) as f64).collect();
                assert_eq!(chunk, &expect, "chunk from rank {s}");
            }
        });
    }

    #[test]
    fn generic_exchange_over_split_subgroups() {
        // 6 ranks split into two 3-rank sub-groups; each runs an
        // independent u32 alltoallv on its sub-communicator.
        World::run(6, |p| {
            let comm = p.world();
            let color = comm.rank() % 2;
            let sub = comm.split(color as i64, comm.rank() as i64).unwrap().unwrap();
            assert_eq!(sub.size(), 3);
            let r = sub.rank();
            let data: Vec<u32> = (0..3).map(|d| (color * 1000 + r * 10 + d) as u32).collect();
            let spec = AlltoallvSpec::contiguous(&[1, 1, 1]);
            let got = alltoallv_subgroup(&sub, &data, &spec).unwrap();
            for (s, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &vec![(color * 1000 + s * 10 + r) as u32], "from sub-rank {s}");
            }
        });
    }

    #[test]
    fn small_chunks_take_the_bruck_path() {
        let stats = World::run_opts(8, RunOpts::default(), |p| {
            let comm = p.world();
            let data = vec![comm.rank() as f64; 8];
            let spec = AlltoallvSpec::contiguous(&[1; 8]);
            alltoallv_within(comm, &data, &spec).unwrap();
        })
        .stats;
        // Bruck: ceil(log2 8) = 3 alltoall messages per rank (the selection
        // allreduce is attributed to Allreduce, not Alltoall).
        assert_eq!(stats.coll(mxn_runtime::CollOp::Alltoall).messages, 8 * 3);
    }

    #[test]
    fn cross_program_scatter_gather() {
        Universe::run(&[2, 3], |_, ctx| {
            if ctx.program == 0 {
                let r = ctx.comm.rank();
                let data: Vec<f64> = (0..6).map(|i| (r * 10 + i) as f64).collect();
                let spec = AlltoallvSpec::contiguous(&[2, 2, 2]);
                scatter_to_remote(ctx.intercomm(1), &data, &spec, 5).unwrap();
            } else {
                let got = gather_from_remote(ctx.intercomm(0), 5).unwrap();
                let j = ctx.comm.rank();
                for (src, chunk) in got.iter().enumerate() {
                    let base = (src * 10 + 2 * j) as f64;
                    assert_eq!(chunk, &vec![base, base + 1.0]);
                }
            }
        });
    }

    #[test]
    fn dad_layer_reproduces_schedule_transfer() {
        // Row-blocks → col-blocks driven purely through the DCA-style API,
        // with counts/displs derived from descriptors.
        Universe::run(&[2, 2], |_, ctx| {
            let e = Extents::new([4, 4]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[1, 2]).unwrap();
            if ctx.program == 0 {
                let rank = ctx.comm.rank();
                let local = LocalArray::from_fn(&src, rank, |idx| (idx[0] * 4 + idx[1]) as f64);
                let (flat, spec) = spec_from_dads(&src, &dst, rank, &local);
                assert_eq!(flat.len(), 8);
                scatter_to_remote(ctx.intercomm(1), &flat, &spec, 9).unwrap();
            } else {
                // Receiver reassembles using its receiver schedule's region
                // order (the same canonical order the sender packed with).
                let rank = ctx.comm.rank();
                let sched = RegionSchedule::for_receiver(&src, &dst, rank);
                let chunks = gather_from_remote(ctx.intercomm(0), 9).unwrap();
                let mut out: LocalArray<f64> = LocalArray::allocate(&dst, rank);
                for pair in sched.pairs() {
                    let mut cursor = 0;
                    let data = &chunks[pair.peer];
                    for region in &pair.regions {
                        out.unpack_region(region, &data[cursor..cursor + region.len()]);
                        cursor += region.len();
                    }
                }
                for (idx, &v) in out.iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64);
                }
            }
        });
    }
}
