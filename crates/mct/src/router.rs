//! Routers and rearrangers: MCT's communication schedulers.
//!
//! "Domain decomposition descriptors, communications schedulers for
//! intermodule parallel data transfer and intra-module parallel data
//! redistribution, and the facilities to implement intermodule
//! handshaking" (paper §4.5).
//!
//! A [`Router`] is built from this side's [`GlobalSegMap`] and the peer
//! component's map: for each peer rank it records the shared global points
//! and their positions in this rank's local storage. Transfers then move
//! packed multi-field [`AttrVect`] buffers directly over the **world**
//! communicator, addressing peers through the [`ModelRegistry`] — MCT's
//! "no inter-communicators needed" design.

use mxn_linearize::SegmentList;
use mxn_runtime::{Comm, Result, RuntimeError};

use crate::attrvect::AttrVect;
use crate::gsmap::GlobalSegMap;
use crate::registry::ModelRegistry;

/// One peer rank's share of a router: where to send/receive and which
/// local points participate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterPair {
    /// Peer rank within its component.
    pub peer_comp_rank: usize,
    /// Peer's world rank (from the registry).
    pub world_rank: usize,
    /// Positions in *this* rank's local storage, ascending global order.
    pub local_points: Vec<usize>,
}

/// An intermodule transfer schedule for one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    pairs: Vec<RouterPair>,
    my_lsize: usize,
}

impl Router {
    /// Builds the router for `my_comp_rank` of the component decomposed by
    /// `my_map`, coupling to `peer_component` decomposed by `peer_map`.
    /// Both maps must number the same grid.
    pub fn new(
        my_map: &GlobalSegMap,
        my_comp_rank: usize,
        peer_map: &GlobalSegMap,
        registry: &ModelRegistry,
        peer_component: u32,
    ) -> Result<Router> {
        if my_map.gsize() != peer_map.gsize() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("grid size mismatch: {} vs {}", my_map.gsize(), peer_map.gsize()),
            });
        }
        let mine = my_map.as_segment_list(my_comp_rank);
        let pairs = shared_points(&mine, peer_map)
            .into_iter()
            .map(|(peer, local_points)| {
                let world_rank = registry.world_rank(peer_component, peer)?;
                Ok(RouterPair { peer_comp_rank: peer, world_rank, local_points })
            })
            .collect::<Result<_>>()?;
        Ok(Router { pairs, my_lsize: my_map.lsize(my_comp_rank) })
    }

    /// Sends `av`'s real fields to the peer component (MCT `MCT_Send`).
    pub fn send(&self, world: &Comm, av: &AttrVect, tag: i32) -> Result<()> {
        assert_eq!(av.lsize(), self.my_lsize, "attribute vector does not match the map");
        for pair in &self.pairs {
            let buf = av.pack_points(&pair.local_points);
            world.send(pair.world_rank, tag, buf)?;
        }
        Ok(())
    }

    /// Receives into `av`'s real fields from the peer component
    /// (MCT `MCT_Recv`). Field lists must match the sender's.
    pub fn recv(&self, world: &Comm, av: &mut AttrVect, tag: i32) -> Result<()> {
        assert_eq!(av.lsize(), self.my_lsize, "attribute vector does not match the map");
        for pair in &self.pairs {
            let buf: Vec<f64> = world.recv(pair.world_rank, tag)?;
            av.unpack_points(&pair.local_points, &buf);
        }
        Ok(())
    }
}

/// An intra-component redistribution between two decompositions of the
/// same grid (MCT's `Rearranger`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rearranger {
    /// Per destination rank: my local (source-map) points to send.
    send: Vec<(usize, Vec<usize>)>,
    /// Per source rank: my local (destination-map) points to fill.
    recv: Vec<(usize, Vec<usize>)>,
    src_lsize: usize,
    dst_lsize: usize,
}

impl Rearranger {
    /// Builds the rearranger for `my_rank` moving data laid out by `src`
    /// to the layout of `dst` (same grid, same communicator).
    pub fn new(src: &GlobalSegMap, dst: &GlobalSegMap, my_rank: usize) -> Result<Rearranger> {
        if src.gsize() != dst.gsize() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "rearranger grids differ".into(),
            });
        }
        let send = shared_points(&src.as_segment_list(my_rank), dst);
        let recv = shared_points(&dst.as_segment_list(my_rank), src);
        Ok(Rearranger { send, recv, src_lsize: src.lsize(my_rank), dst_lsize: dst.lsize(my_rank) })
    }

    /// Executes the redistribution collectively over `comm`.
    pub fn rearrange(
        &self,
        comm: &Comm,
        src_av: &AttrVect,
        dst_av: &mut AttrVect,
        tag: i32,
    ) -> Result<()> {
        assert_eq!(src_av.lsize(), self.src_lsize, "source av does not match source map");
        assert_eq!(dst_av.lsize(), self.dst_lsize, "dest av does not match dest map");
        for (peer, pts) in &self.send {
            comm.send(*peer, tag, src_av.pack_points(pts))?;
        }
        for (peer, pts) in &self.recv {
            let buf: Vec<f64> = comm.recv(*peer, tag)?;
            dst_av.unpack_points(pts, &buf);
        }
        Ok(())
    }
}

/// Every rank of `peers` that shares points with `mine`, paired with the
/// positions of those points in the local storage `mine` describes (its
/// runs concatenated in ascending order, as [`GlobalSegMap::local_index`]
/// numbers them). One merged walk of each intersection against `mine`'s
/// sorted runs, instead of a `local_index` search per point.
fn shared_points(mine: &SegmentList, peers: &GlobalSegMap) -> Vec<(usize, Vec<usize>)> {
    let runs = mine.runs();
    let mut out = Vec::new();
    for peer in 0..peers.nranks() {
        let shared = mine.intersect(&peers.as_segment_list(peer));
        if shared.is_empty() {
            continue;
        }
        let mut points = Vec::with_capacity(shared.total_len());
        // `shared` is a subset of `mine`, so each of its runs lies in one
        // run of `mine`, found by advancing in step.
        let (mut i, mut offset) = (0, 0);
        for &(start, len) in shared.runs() {
            while runs[i].0 + runs[i].1 <= start {
                offset += runs[i].1;
                i += 1;
            }
            let first = offset + start - runs[i].0;
            points.extend(first..first + len);
        }
        out.push((peer, points));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsmap::Segment;
    use mxn_runtime::World;

    /// Two components over one world: ranks 0..2 = atmosphere (block map),
    /// ranks 2..5 = ocean (cyclic map). Couple a 12-point field.
    #[test]
    fn intermodule_send_recv_via_registry() {
        World::run(5, |p| {
            let world = p.world();
            let my_comp = if p.rank() < 2 { 1 } else { 2 };
            let reg = ModelRegistry::init(world, my_comp).unwrap();
            let atm_map = GlobalSegMap::block(12, 2);
            let ocn_map = GlobalSegMap::cyclic(12, 3, 2);
            if my_comp == 1 {
                let me = p.rank();
                let router = Router::new(&atm_map, me, &ocn_map, &reg, 2).unwrap();
                let mut av = AttrVect::new(&["t", "q"], &[], atm_map.lsize(me));
                for l in 0..av.lsize() {
                    let g = atm_map.global_index(me, l).unwrap() as f64;
                    av.real_mut("t")[l] = g;
                    av.real_mut("q")[l] = g * 10.0;
                }
                router.send(world, &av, 3).unwrap();
            } else {
                let me = p.rank() - 2;
                let router = Router::new(&ocn_map, me, &atm_map, &reg, 1).unwrap();
                let mut av = AttrVect::new(&["t", "q"], &[], ocn_map.lsize(me));
                router.recv(world, &mut av, 3).unwrap();
                for l in 0..av.lsize() {
                    let g = ocn_map.global_index(me, l).unwrap() as f64;
                    assert_eq!(av.real("t")[l], g);
                    assert_eq!(av.real("q")[l], g * 10.0);
                }
            }
        });
    }

    #[test]
    fn router_grid_mismatch_rejected() {
        World::run(2, |p| {
            let world = p.world();
            let reg = ModelRegistry::init(world, p.rank() as u32).unwrap();
            let a = GlobalSegMap::block(10, 1);
            let b = GlobalSegMap::block(12, 1);
            assert!(Router::new(&a, 0, &b, &reg, 1).is_err());
        });
    }

    #[test]
    fn rearranger_block_to_cyclic_roundtrip() {
        World::run(3, |p| {
            let comm = p.world();
            let me = comm.rank();
            let src = GlobalSegMap::block(15, 3);
            let dst = GlobalSegMap::cyclic(15, 3, 2);
            let re = Rearranger::new(&src, &dst, me).unwrap();
            let mut sav = AttrVect::new(&["x"], &[], src.lsize(me));
            for l in 0..sav.lsize() {
                sav.real_mut("x")[l] = src.global_index(me, l).unwrap() as f64;
            }
            let mut dav = AttrVect::new(&["x"], &[], dst.lsize(me));
            re.rearrange(comm, &sav, &mut dav, 7).unwrap();
            for l in 0..dav.lsize() {
                assert_eq!(dav.real("x")[l], dst.global_index(me, l).unwrap() as f64);
            }
            // And back again.
            let back = Rearranger::new(&dst, &src, me).unwrap();
            let mut sav2 = AttrVect::new(&["x"], &[], src.lsize(me));
            back.rearrange(comm, &dav, &mut sav2, 8).unwrap();
            assert_eq!(sav, sav2);
        });
    }

    #[test]
    fn router_counts_match_overlap() {
        World::run(2, |p| {
            let world = p.world();
            let reg = ModelRegistry::init(world, if p.rank() == 0 { 1 } else { 2 }).unwrap();
            let a = GlobalSegMap::block(8, 1);
            let b = GlobalSegMap::block(8, 1);
            if p.rank() == 0 {
                let r = Router::new(&a, 0, &b, &reg, 2).unwrap();
                assert_eq!(r.pairs.len(), 1);
                assert_eq!(r.pairs.iter().map(|p| p.local_points.len()).sum::<usize>(), 8);
            }
        });
    }

    /// `shared_points` against the per-point `local_index` search it
    /// replaces, on block, `cyclic(1)`, `cyclic(3)` and a map whose
    /// segments are given out of order, for every pair of maps and ranks;
    /// and both `Rearranger` halves against the same oracle.
    #[test]
    fn shared_points_match_the_local_index_oracle() {
        let shuffled = GlobalSegMap::new(
            20,
            3,
            [(12, 5, 0), (0, 3, 2), (17, 3, 1), (3, 4, 0), (9, 3, 1), (7, 2, 1)]
                .map(|(start, length, rank)| Segment { start, length, rank })
                .to_vec(),
        )
        .unwrap();
        let maps = [
            GlobalSegMap::block(20, 3),
            GlobalSegMap::cyclic(20, 4, 1),
            GlobalSegMap::cyclic(20, 2, 3),
            shuffled,
        ];
        let oracle = |mine: &GlobalSegMap, rank: usize, peers: &GlobalSegMap| {
            let me = mine.as_segment_list(rank);
            (0..peers.nranks())
                .map(|peer| (peer, me.intersect(&peers.as_segment_list(peer))))
                .filter(|(_, shared)| !shared.is_empty())
                .map(|(peer, shared)| {
                    let local = shared.positions().map(|g| mine.local_index(rank, g).unwrap());
                    (peer, local.collect())
                })
                .collect::<Vec<(usize, Vec<usize>)>>()
        };
        for a in &maps {
            for b in &maps {
                for rank in 0..a.nranks() {
                    let want = oracle(a, rank, b);
                    assert_eq!(shared_points(&a.as_segment_list(rank), b), want);
                    if rank < b.nranks() {
                        let re = Rearranger::new(a, b, rank).unwrap();
                        assert_eq!(re.send, want);
                        assert_eq!(re.recv, oracle(b, rank, a));
                    }
                }
            }
        }
    }
}
